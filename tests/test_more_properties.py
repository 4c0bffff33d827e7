"""Additional property-based tests: configuration validation, MMPP
feasibility, stack monotonicity, and Erlang-C/threshold coherence."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import AltocumulusConfig
from repro.core.prediction import ThresholdModel, erlang_c, upper_bound_threshold
from repro.stack import STACKS
from repro.workload.arrivals import MMPPArrivals


@settings(max_examples=100, deadline=None)
@given(
    n_groups=st.integers(1, 32),
    group_size=st.integers(2, 64),
    period=st.floats(1.0, 10_000.0),
    bulk=st.integers(1, 64),
    concurrency=st.integers(1, 31),
    variant=st.sampled_from(["int", "rss"]),
    interface=st.sampled_from(["isa", "msr"]),
)
def test_valid_configs_always_construct(n_groups, group_size, period, bulk,
                                        concurrency, variant, interface):
    """Any in-range parameter combination builds a consistent config."""
    config = AltocumulusConfig(
        n_groups=n_groups, group_size=group_size, period_ns=period,
        bulk=bulk, concurrency=concurrency, variant=variant,
        interface=interface,
    )
    assert config.n_cores == n_groups * group_size
    assert config.n_workers == n_groups * (group_size - 1)
    assert config.effective_dispatch in ("hw", "sw")
    assert config.domain_of(0) == list(range(n_groups))


@settings(max_examples=60, deadline=None)
@given(
    rate_mrps=st.floats(0.1, 1_000.0),
    burst=st.floats(1.01, 6.0),
    calm=st.floats(0.05, 0.95),
    dwell=st.floats(100.0, 1e6),
    batch=st.floats(1.0, 16.0),
)
def test_mmpp_feasibility_boundary(rate_mrps, burst, calm, dwell, batch):
    """MMPP construction succeeds iff the calm state can absorb the
    burst state's excess; whichever way, behaviour is well defined."""
    feasible = (1.0 - (1.0 - calm) * burst) / calm > 0
    if not feasible:
        with pytest.raises(ValueError):
            MMPPArrivals(rate_mrps * 1e6, burst_factor=burst,
                         calm_fraction=calm, mean_dwell_ns=dwell,
                         batch_mean=batch)
        return
    process = MMPPArrivals(rate_mrps * 1e6, burst_factor=burst,
                           calm_fraction=calm, mean_dwell_ns=dwell,
                           batch_mean=batch)
    rng = np.random.default_rng(0)
    gaps = [process.next_gap(rng) for _ in range(200)]
    assert all(g >= 0 for g in gaps)


@settings(max_examples=60, deadline=None)
@given(
    req=st.integers(0, 1 << 16),
    resp=st.integers(0, 1 << 16),
    extra=st.integers(1, 1 << 12),
)
def test_stack_costs_monotone_in_message_size(req, resp, extra):
    """Bigger messages never get cheaper, for every stack."""
    for stack_ns in STACKS.values():
        base = stack_ns(req, resp)
        assert stack_ns(req + extra, resp) >= base
        assert stack_ns(req, resp + extra) >= base


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 64),
    frac=st.floats(0.05, 0.99),
    a=st.floats(0.1, 3.0),
    b=st.floats(0.0, 100.0),
    c=st.floats(0.1, 3.0),
    d=st.floats(0.0, 10.0),
    slo_mult=st.floats(1.0, 50.0),
)
def test_threshold_model_coherence(k, frac, a, b, c, d, slo_mult):
    """For stable loads: thresholds are finite, positive-affine models
    grow with load, and the upper bound dominates k."""
    load = frac * k
    model = ThresholdModel(a=a, b=b, c=c, d=d)
    t = model.threshold(k, load)
    assert math.isfinite(t)
    assert t >= 0 or b < 0  # non-negative given non-negative constants
    heavier = model.threshold(k, min(0.999 * k, load * 1.01))
    assume(load * 1.01 < k)
    assert heavier >= t - 1e-9  # monotone in load for positive a, c
    assert upper_bound_threshold(k, slo_mult) > k * (slo_mult - 1)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 100), frac=st.floats(0.01, 0.99))
def test_erlang_c_monotone_in_k_at_fixed_rho(k, frac):
    """More servers at equal utilization => lower queueing probability."""
    if k < 2:
        return
    small = erlang_c(k - 1, frac * (k - 1))
    large = erlang_c(k, frac * k)
    assert large <= small + 1e-9
