"""The conservation battery: under any fault plan, every attempt the
client sends lands in exactly one terminal bucket, and nothing is served
twice without the duplicate detector seeing it.

Pinned identities (at shutdown, for every system x scenario):

    completed + dropped + timed_out + in_flight_at_end
        == injected + retries                      (attempt conservation)
    succeeded + failed == injected                 (logical conservation)
    responses == kvs.dedup.unique + kvs.dedup.duplicates   (at-most-once)
    client.retry.duplicates == kvs.dedup.duplicates

Fixed scenarios run across *every* registered system; randomized plans
(hypothesis, derandomized with fixed seeds) probe the space of schedules
on three representative systems.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import available_systems, quick_run
from repro.faults import FaultEvent, FaultPlan, RetryPolicy

#: Shape shared by every conservation run: 8 cores (4x2 for the rack),
#: ~50% load, short enough to keep the whole battery in seconds.
N_CORES = 8
RATE_RPS = 4e6
N_REQUESTS = 400
SEED = 7

RETRY = RetryPolicy(timeout_ns=15_000.0, max_retries=2,
                    backoff_base_ns=5_000.0, backoff_cap_ns=20_000.0,
                    jitter=0.5)

#: Fixed multi-fault scenario, valid on every system: single-server
#: systems skip the rack-only events, non-Altocumulus skip manager_fail.
SCENARIO = FaultPlan(
    events=(
        FaultEvent(time_ns=10_000.0, kind="server_crash", target=0,
                   duration_ns=20_000.0),
        FaultEvent(time_ns=15_000.0, kind="nic_drop", target=0,
                   magnitude=0.3, duration_ns=15_000.0),
        FaultEvent(time_ns=20_000.0, kind="core_stall", target=0,
                   subtarget=1, magnitude=10.0, duration_ns=20_000.0),
        FaultEvent(time_ns=30_000.0, kind="manager_fail", target=0,
                   subtarget=0),
        FaultEvent(time_ns=35_000.0, kind="tor_partition", target=1,
                   duration_ns=15_000.0),
    ),
    retry=RETRY,
)


def assert_conserved(metrics, n_requests):
    c = {key.rsplit(".", 1)[-1]: value
         for key, value in metrics.items()
         if key.startswith("client.retry.")}
    assert c["injected"] == n_requests
    assert (
        c["completed"] + c["dropped"] + c["timed_out"] + c["in_flight_at_end"]
        == c["injected"] + c["retries"]
    ), f"attempt conservation violated: {c}"
    assert c["succeeded"] + c["failed"] == c["injected"], (
        f"logical conservation violated: {c}"
    )
    assert c["responses"] == (
        metrics["kvs.dedup.unique"] + metrics["kvs.dedup.duplicates"]
    ), "a response bypassed the duplicate detector"
    assert c["duplicates"] == metrics["kvs.dedup.duplicates"]


@pytest.mark.parametrize("system", available_systems())
def test_fixed_scenario_conserves_requests(system):
    result = quick_run(
        system, n_cores=N_CORES, rate_rps=RATE_RPS, mean_service_ns=1000.0,
        n_requests=N_REQUESTS, seed=SEED, faults=SCENARIO,
    )
    assert_conserved(result.metrics, N_REQUESTS)


@pytest.mark.parametrize("system", available_systems())
def test_no_plan_keeps_fault_counters_out(system):
    """The control: a plain run registers no fault instruments at all."""
    result = quick_run(system, n_cores=N_CORES, rate_rps=RATE_RPS,
                       n_requests=200, seed=SEED)
    assert not any(
        key.startswith(("faults.", "client.retry.", "kvs.dedup."))
        for key in result.metrics
    )


# ----------------------------------------------------------------------
# Randomized plans (hypothesis)
# ----------------------------------------------------------------------
_TIMES = st.floats(0.0, 120_000.0, allow_nan=False, allow_infinity=False)
_DURATIONS = st.floats(1_000.0, 50_000.0, allow_nan=False,
                       allow_infinity=False)


@st.composite
def fault_events(draw, n_servers, cores_per_server):
    kind = draw(st.sampled_from(
        ["server_crash", "nic_drop", "core_stall", "tor_degrade",
         "tor_partition", "manager_fail"]
    ))
    target = draw(st.integers(0, n_servers - 1))
    kwargs = dict(time_ns=draw(_TIMES), kind=kind, target=target)
    if kind in ("server_crash", "tor_partition"):
        kwargs["duration_ns"] = draw(_DURATIONS)
    elif kind == "nic_drop":
        kwargs["magnitude"] = draw(st.floats(0.05, 1.0))
        kwargs["duration_ns"] = draw(_DURATIONS)
    elif kind == "tor_degrade":
        kwargs["magnitude"] = draw(st.floats(0.05, 0.95))
        kwargs["duration_ns"] = draw(_DURATIONS)
    elif kind == "core_stall":
        kwargs["subtarget"] = draw(st.integers(0, cores_per_server - 1))
        kwargs["magnitude"] = draw(st.floats(1.0, 50.0))
        kwargs["duration_ns"] = draw(_DURATIONS)
    return FaultEvent(**kwargs)


@st.composite
def fault_plans(draw, n_servers, cores_per_server):
    events = draw(st.lists(
        fault_events(n_servers, cores_per_server), min_size=1, max_size=4,
    ))
    retry = RetryPolicy(
        timeout_ns=draw(st.floats(5_000.0, 40_000.0)),
        max_retries=draw(st.integers(0, 3)),
        backoff_base_ns=5_000.0,
        backoff_cap_ns=40_000.0,
        jitter=draw(st.floats(0.0, 0.9)),
    )
    return FaultPlan(events=tuple(events), retry=retry)


_RANDOMIZED = settings(
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(plan=fault_plans(n_servers=1, cores_per_server=N_CORES))
@_RANDOMIZED
def test_randomized_plans_single_server_altocumulus(plan):
    result = quick_run("altocumulus", n_cores=N_CORES, rate_rps=RATE_RPS,
                       n_requests=200, seed=SEED, faults=plan)
    assert_conserved(result.metrics, 200)


@given(plan=fault_plans(n_servers=1, cores_per_server=N_CORES))
@_RANDOMIZED
def test_randomized_plans_single_server_rss(plan):
    result = quick_run("rss", n_cores=N_CORES, rate_rps=RATE_RPS,
                       n_requests=200, seed=SEED, faults=plan)
    assert_conserved(result.metrics, 200)


@given(plan=fault_plans(n_servers=4, cores_per_server=2))
@_RANDOMIZED
def test_randomized_plans_rack(plan):
    result = quick_run("rack", n_cores=N_CORES, rate_rps=RATE_RPS,
                       n_requests=200, seed=SEED, faults=plan)
    assert_conserved(result.metrics, 200)


def test_faulted_runs_are_reproducible():
    """Same plan + same seed -> bit-identical outcome counters."""
    runs = [
        quick_run("rack", n_cores=N_CORES, rate_rps=RATE_RPS,
                  n_requests=N_REQUESTS, seed=SEED, faults=SCENARIO).metrics
        for _ in range(2)
    ]
    keys = [k for k in runs[0]
            if k.startswith(("faults.", "client.retry.", "kvs.dedup."))]
    assert keys
    for key in keys:
        assert runs[0][key] == runs[1][key], key


# ----------------------------------------------------------------------
# Sub-request granularity under scatter-gather
# ----------------------------------------------------------------------
# With a job structure attached, the client injects one logical request
# per *sub-request*; the attempt/logical identities above must hold at
# that granularity, and on top of them a job-level identity appears:
#
#     job.completed + job.dropped == job.count        (job conservation)
#     client.retry.injected == job.subrequests        (scatter accounting)
#
# SCENARIO's server_crash at t=10us lands mid-run for these rates, so
# siblings of one job routinely straddle a crash window: some complete,
# some retry, some exhaust retries -- the all-or-nothing job verdict
# must stay consistent with the per-sub logical verdicts throughout.

from repro.workload.jobs import ChoiceDegree, FixedDegree, JobShape, UniformDegree  # noqa: E402

FANOUT_SHAPE = JobShape(fanout=ChoiceDegree((1, 2, 4), (0.5, 0.3, 0.2)))


def assert_jobs_conserved(result):
    metrics = result.metrics
    assert metrics["job.completed"] + metrics["job.dropped"] == \
        metrics["job.count"]
    c = {key.rsplit(".", 1)[-1]: value
         for key, value in metrics.items()
         if key.startswith("client.retry.")}
    assert c["injected"] == metrics["job.subrequests"]
    # Per-sub logical verdicts must telescope into the job verdicts:
    # every failed sub dooms its whole job, so failed subs can never
    # exceed the dropped jobs' total fan-out, and completed jobs need
    # every sibling succeeded.
    records = result.jobs.records
    failed_fanout = sum(j.fanout for j in records if j.dropped)
    assert c["failed"] <= failed_fanout
    assert sum(j.fanout for j in records if j.completed) <= c["succeeded"]


@pytest.mark.parametrize("system", ["altocumulus", "rack", "datacenter"])
def test_scatter_gather_conserves_subrequests_mid_crash(system):
    result = quick_run(
        system, n_cores=N_CORES, rate_rps=RATE_RPS, mean_service_ns=1000.0,
        n_requests=N_REQUESTS, seed=SEED, faults=SCENARIO, jobs=FANOUT_SHAPE,
    )
    assert_conserved(result.metrics, result.metrics["job.subrequests"])
    assert_jobs_conserved(result)


def test_scatter_gather_faulted_runs_are_reproducible():
    runs = [
        quick_run("rack", n_cores=N_CORES, rate_rps=RATE_RPS,
                  n_requests=N_REQUESTS, seed=SEED, faults=SCENARIO,
                  jobs=FANOUT_SHAPE)
        for _ in range(2)
    ]
    for key in ("job.count", "job.completed", "job.dropped",
                "job.subrequests"):
        assert runs[0].metrics[key] == runs[1].metrics[key], key


@st.composite
def job_shapes(draw):
    fanout = draw(st.sampled_from([
        FixedDegree(2),
        FixedDegree(4),
        UniformDegree(1, 4),
        ChoiceDegree((1, 2, 4)),
        ChoiceDegree((1, 8), (0.8, 0.2)),
    ]))
    connections = draw(st.sampled_from(["shared", "distinct"]))
    return JobShape(fanout=fanout, sibling_connections=connections)


@given(plan=fault_plans(n_servers=4, cores_per_server=2), shape=job_shapes())
@_RANDOMIZED
def test_randomized_fanout_and_fault_plans_rack(plan, shape):
    result = quick_run("rack", n_cores=N_CORES, rate_rps=RATE_RPS,
                       n_requests=150, seed=SEED, faults=plan, jobs=shape)
    assert_conserved(result.metrics, result.metrics["job.subrequests"])
    assert_jobs_conserved(result)


def test_retried_gang_siblings_keep_their_job_fields():
    """A retry is the same sub-request again: it keeps its job, its
    place in the scatter and its gang width (a gang retried on one core
    would under-occupy the machine, and job-aware steering would place
    it by flow hash instead of by job)."""
    from repro.api import build_system, run_workload
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.workload import Exponential, PoissonArrivals
    from repro.workload.jobs import FixedDegree, JobShape

    streams = RandomStreams(SEED)
    sim = Simulator()
    system = build_system("altocumulus", sim, streams, 16)
    served = []
    system.completion_hooks.append(served.append)
    plan = FaultPlan(
        events=(FaultEvent(time_ns=20_000.0, kind="nic_drop", target=0,
                           magnitude=0.3, duration_ns=40_000.0),),
        retry=RETRY,
    )
    result = run_workload(
        system, sim, streams, PoissonArrivals(2e6), Exponential(1000.0),
        n_requests=N_REQUESTS, faults=plan,
        jobs=JobShape(fanout=FixedDegree(2), core_demand=FixedDegree(2)),
    )
    assert_conserved(result.metrics, 2 * N_REQUESTS)
    retries = [r for r in served if r.attempt > 0]
    assert retries, "the drop burst must force some completed retries"
    # Generator req_ids number siblings consecutively, two per job.
    for attempt in retries:
        assert attempt.core_demand == 2
        assert attempt.fanout == 2
        assert attempt.job_id is not None
        assert attempt.job_id == attempt.logical_id // 2
        assert attempt.sibling_index == attempt.logical_id % 2
