# Convenience targets for the Altocumulus reproduction.

PYTHON ?= python

.PHONY: install test bench bench-gate bench-gate-run bench-gate-compare artifacts examples smoke sweep-fast rack-fast chaos-fast datacenter-fast adaptive-fast fanout-fast contention-fast clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

## Run the perf microbenchmarks and record the results in a
## timestamped BENCH_<stamp>.json (pytest-benchmark JSON format; see
## docs/performance.md for how to read and compare them).
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=BENCH_$$(date -u +%Y%m%dT%H%M%SZ).json

## Regression gate: re-run the gated microbenchmarks and fail if
## stats.min regressed >2% against BENCH_BASELINE (a same-machine
## pytest-benchmark JSON; defaults to the committed baseline).
## BENCH_GATED is the one list of gated benchmarks: CI's A/B gate runs
## `bench-gate-run` in both trees and `bench-gate-compare` on the pair.
BENCH_BASELINE ?= BENCH_20261018T141455Z.json
BENCH_JSON ?= BENCH_gate_candidate.json
BENCH_GATED = test_event_heap_throughput,test_full_system_simulation_rate,test_bench_fanout_jobs,test_altocumulus_idle_tick_rate
comma := ,
bench-gate: bench-gate-run
	$(MAKE) bench-gate-compare

bench-gate-run:
	$(PYTHON) -m pytest benchmarks/test_engine_perf.py benchmarks/test_fanout.py \
		--benchmark-only -q \
		-k "$(subst $(comma), or ,$(BENCH_GATED))" \
		--benchmark-json=$(BENCH_JSON)

bench-gate-compare:
	$(PYTHON) tools/compare_bench.py $(BENCH_BASELINE) \
		$(BENCH_JSON) --benchmarks $(BENCH_GATED)

## Full-scale regeneration of every paper artifact (30-45 min).
artifacts:
	$(PYTHON) -m repro.experiments.cli all --out results/

## Quick regeneration at reduced scale (~5 min).
smoke:
	$(PYTHON) -m repro.experiments.cli all --scale 0.1 --out results/

## Reduced-scale regeneration using every CPU and the result cache:
## a second invocation replays cached sweep points from disk.
sweep-fast:
	$(PYTHON) -m repro.experiments.cli all --scale 0.2 --jobs 0 --out results/

## Reduced-scale rack-tier steering sweep (the fig_rack experiment),
## fanned out over every CPU with cached sweep points.
rack-fast:
	$(PYTHON) -m repro.experiments.cli rack --scale 0.2 --jobs 0 --out results/

## Reduced-scale chaos study (the fig_chaos experiment): a mid-run
## server crash under three steering policies, every request driven
## through the retrying client.  See docs/faults.md.
chaos-fast:
	$(PYTHON) -m repro.experiments.cli chaos --scale 0.2 --out results/

## Reduced-scale datacenter-tier sweep (the fig_datacenter experiment):
## inter-rack steering policy x multi-tenant skew across a 4-rack
## spine-leaf fabric, fanned out over every CPU with cached points.
datacenter-fast:
	$(PYTHON) -m repro.experiments.cli datacenter --scale 0.2 --jobs 0 --out results/

## Reduced-scale adaptive control-plane study (the fig_adaptive
## experiment): every static steering policy vs the hysteresis and
## bandit controllers across three chaos scenarios and a drifting
## multi-tenant load.
adaptive-fast:
	$(PYTHON) -m repro.experiments.cli adaptive --scale 0.2 --jobs 1 --no-cache --out results/

## Reduced-scale job-model study (the fig_fanout experiment):
## scatter-gather p99 vs fan-out k across sibling-routing policies,
## plus gang admission waits across the zero-queueing boundary.
fanout-fast:
	$(PYTHON) -m repro.experiments.cli fanout --scale 0.2 --jobs 0 --out results/

## Reduced-scale data-layer contention study (the fig_contention
## experiment): ownership discipline x hot-key skew x migration
## threshold, showing where EREW+migration loses to CREW+multiversion.
contention-fast:
	$(PYTHON) -m repro.experiments.cli contention --scale 0.2 --jobs 0 --out results/

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
