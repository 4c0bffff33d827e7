"""Performance benchmarks for the simulation substrate itself.

These are true microbenchmarks (multiple rounds): they track the event
throughput of the DES kernel and the end-to-end simulation rate of a
loaded system, so regressions in the hot paths show up in the benchmark
history rather than as mysteriously slow experiment runs.
"""

from repro.api import quick_run
from repro.sim.engine import Simulator


def test_event_heap_throughput(benchmark):
    """Raw schedule/fire cost of the event kernel."""

    def spin():
        sim = Simulator()
        count = 20_000

        def chain(remaining):
            if remaining:
                sim.schedule(1.0, chain, remaining - 1)

        chain(count)
        sim.run()
        return sim.events_processed

    events = benchmark(spin)
    assert events == 20_000


def test_event_post_throughput(benchmark):
    """Raw post/fire cost of the event kernel's handle-free path: the
    same chain as ``test_event_heap_throughput`` through ``post``.
    Ungated: tracked in the history only."""

    def spin():
        sim = Simulator()
        count = 20_000

        def chain(remaining):
            if remaining:
                sim.post(1.0, chain, remaining - 1)

        chain(count)
        sim.run()
        return sim.events_processed

    events = benchmark(spin)
    assert events == 20_000


def test_full_system_simulation_rate(benchmark):
    """Requests simulated per wall-second through the busiest system
    (Altocumulus with migrations active)."""

    def run():
        return quick_run(system="altocumulus", n_cores=32, rate_rps=20e6,
                         mean_service_ns=1000, n_requests=5_000, seed=2)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.latency.count > 0


# ----------------------------------------------------------------------
# Microbenchmarks for the individually optimized fast paths.  Each one
# isolates a hot path reworked by the kernel overhaul (free-list events,
# timer reuse, lazy-cancel compaction, memoized threshold math, ndarray
# latency accumulation, batched RNG prefetch, single-sort planning) so a
# regression in any of them is attributable from the benchmark history
# alone.
# ----------------------------------------------------------------------


def test_timer_reuse_throughput(benchmark):
    """Re-arming one Event via ``schedule_timer`` (the periodic-tick
    path) instead of allocating a fresh event per fire."""

    def spin():
        sim = Simulator()
        state = {"event": None, "remaining": 20_000}

        def tick():
            if state["remaining"]:
                state["remaining"] -= 1
                state["event"] = sim.schedule_timer(1.0, tick, event=state["event"])

        tick()
        sim.run()
        return sim.events_processed

    events = benchmark(spin)
    assert events == 20_000


def test_cancel_heavy_throughput(benchmark):
    """Schedule/cancel churn: most events die before firing, exercising
    lazy cancellation and dead-entry compaction."""

    def spin():
        sim = Simulator()
        fired = [0]

        def noop():
            fired[0] += 1

        for round_start in range(0, 20_000, 20):
            events = [sim.schedule(float(round_start + i), noop) for i in range(20)]
            for ev in events[1:]:  # keep 1 in 20
                sim.cancel(ev)
        sim.run()
        return fired[0]

    fired = benchmark(spin)
    assert fired == 1_000


def test_threshold_math_rate(benchmark):
    """Erlang-C / queue-length math under the tick loop's access pattern
    (a small working set of recurring (k, load) keys)."""
    from repro.core.prediction import erlang_c, expected_queue_length

    loads = [0.5 + 7.0 * (i % 97) / 96.0 for i in range(200)]

    def spin():
        acc = 0.0
        for _ in range(25):
            for load in loads:
                acc += erlang_c(8, load) + expected_queue_length(8, load)
        return acc

    result = benchmark(spin)
    assert result > 0


def test_latency_summary_rate(benchmark):
    """Percentile summary over a large completed-request population
    (ndarray accumulation instead of per-request Python lists)."""
    from repro.analysis.metrics import summarize_latencies
    from repro.workload.request import Request

    requests = [
        Request(req_id=i, arrival=float(i), service_time=100.0)
        for i in range(50_000)
    ]
    for r in requests:
        r.finished = r.arrival + 100.0 + (r.req_id % 977)

    summary = benchmark(summarize_latencies, requests)
    assert summary.count == 50_000


def test_workload_generation_rate(benchmark):
    """Open-loop generator throughput (batched RNG prefetch path)."""
    from repro.sim.rng import RandomStreams
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.generator import LoadGenerator
    from repro.workload.service import Exponential

    def spin():
        sim = Simulator()
        gen = LoadGenerator(
            sim=sim,
            streams=RandomStreams(99),
            arrivals=PoissonArrivals(20e6),
            service=Exponential(1000.0),
            sink=lambda req: None,
            n_requests=20_000,
        )
        gen.start()
        sim.run()
        return gen.emitted

    emitted = benchmark(spin)
    assert emitted == 20_000


def test_migration_plan_rate(benchmark):
    """Per-tick pattern classification + destination planning (single
    ranking sort shared by both)."""
    from repro.core.patterns import migration_plan

    vectors = [
        [(i * 7 + j * 13) % 40 for j in range(8)] for i in range(100)
    ]

    def spin():
        total = 0
        for q in vectors:
            for self_index in range(8):
                total += migration_plan(q, self_index, bulk=16, concurrency=2,
                                        threshold=24.0).migrates
        return total

    migrates = benchmark(spin)
    assert migrates >= 0


def test_zygos_steal_rate(benchmark):
    """ZygOS idle-thief probing at moderate load: the incremental idle
    mask and backlog count plus stream-exact victim draws (no per-probe
    numpy call or core scan).  Ungated: tracked in the history only."""

    def run():
        return quick_run(system="zygos", n_cores=64, rate_rps=40e6,
                         mean_service_ns=1000, n_requests=5_000, seed=2)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.latency.count > 0


def test_power_of_d_steering_rate(benchmark):
    """Power-of-2 rack steering: one stream-exact no-replacement draw
    per request instead of numpy's ``Generator.choice``.  Ungated."""

    def run():
        return quick_run(system="rack", n_cores=64, rate_rps=48e6,
                         mean_service_ns=1000, n_requests=5_000, seed=2)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.latency.count > 0


def test_altocumulus_idle_tick_rate(benchmark):
    """Manager ticks with nothing to do: fig10's ``ac_rss`` (software
    dispatch) at 0.25 MRPS runs about 41 ticks per request, nearly all
    of them parked.  Every timed round must reproduce an untimed run
    exactly.  Gated (``BENCH_GATED`` in the Makefile)."""
    from repro.api import run_workload
    from repro.experiments.fig10_comparison import SERVICE, _ac_rss_builder
    from repro.sim.rng import RandomStreams
    from repro.workload.arrivals import PoissonArrivals

    def run():
        sim = Simulator()
        streams = RandomStreams(2)
        system = _ac_rss_builder(sim, streams)
        result = run_workload(system, sim, streams, PoissonArrivals(0.25e6),
                              SERVICE, n_requests=1_000)
        return (
            [(r.req_id, r.finished, r.group_id) for r in result.requests],
            [runtime.ticks for runtime in system.runtimes],
            result.metrics["noc.messages"],
        )

    expected = run()
    assert sum(expected[1]) > 40 * 1_000
    assert benchmark.pedantic(run, rounds=3, iterations=1) == expected
