"""Unit and property tests for the Erlang-C prediction model (Sec. IV)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AltocumulusConfig
from repro.core.prediction import (
    ThresholdModel,
    calibrate_threshold_model,
    erlang_c,
    expected_queue_length,
    expected_wait,
    first_violation_threshold,
    upper_bound_threshold,
)


class TestErlangC:
    def test_single_server_reduces_to_mm1(self):
        """C_1(A) = A for M/M/1 (probability the server is busy)."""
        for rho in (0.1, 0.5, 0.9):
            assert erlang_c(1, rho) == pytest.approx(rho)

    def test_zero_load(self):
        assert erlang_c(16, 0.0) == 0.0
        assert expected_queue_length(16, 0.0) == 0.0

    def test_saturated_load(self):
        assert erlang_c(16, 16.0) == 1.0
        assert expected_queue_length(16, 16.0) == math.inf

    def test_probability_bounds(self):
        for k in (1, 4, 64):
            for frac in (0.1, 0.5, 0.9, 0.99):
                c = erlang_c(k, frac * k)
                assert 0.0 <= c <= 1.0

    def test_monotone_in_load(self):
        values = [erlang_c(16, a) for a in (4.0, 8.0, 12.0, 15.0)]
        assert values == sorted(values)

    def test_more_servers_less_queueing_at_same_utilization(self):
        """Pooling effect: at equal rho, larger k queues less."""
        assert erlang_c(64, 0.9 * 64) < erlang_c(4, 0.9 * 4)

    def test_mm1_queue_length_closed_form(self):
        """E[Nq] for M/M/1 is rho^2/(1-rho)."""
        rho = 0.8
        assert expected_queue_length(1, rho) == pytest.approx(
            rho * rho / (1 - rho)
        )

    def test_large_k_numerical_stability(self):
        # 256 servers must not overflow the factorial terms.
        value = erlang_c(256, 0.95 * 256)
        assert 0.0 < value < 1.0

    def test_expected_wait_littles_law(self):
        """W = E[Nq] / lambda."""
        k, load, s = 16, 14.0, 1000.0
        lam = load / s
        assert expected_wait(k, load, s) == pytest.approx(
            expected_queue_length(k, load) / lam
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(4, -1.0)
        with pytest.raises(ValueError):
            expected_wait(4, 2.0, 0.0)


class TestThresholdModel:
    def test_identity_model_returns_nq(self):
        model = ThresholdModel()
        assert model.threshold(16, 12.0) == pytest.approx(
            expected_queue_length(16, 12.0)
        )

    def test_affine_transformation(self):
        model = ThresholdModel(a=2.0, b=10.0, c=0.5, d=1.0)
        nq = expected_queue_length(16, 12.0)
        assert model.threshold(16, 12.0) == pytest.approx(2 * (0.5 * nq + 1) + 10)

    def test_fig7d_constants_registered(self):
        model = AltocumulusConfig().threshold_model
        assert (model.a, model.c) == (1.01, 0.998)
        assert (model.b, model.d) == (0.0, 0.0)

    def test_saturated_threshold_is_infinite(self):
        assert ThresholdModel().threshold(16, 16.0) == math.inf

    def test_upper_bound(self):
        # 64 cores, L=10: k*L+1 = 641 (the paper's worked number).
        assert upper_bound_threshold(64, 10.0) == 641.0
        with pytest.raises(ValueError):
            upper_bound_threshold(0, 10.0)


class TestCalibration:
    def test_recovers_exact_linear_relation(self):
        k = 64
        loads = [0.9 * k, 0.95 * k, 0.97 * k, 0.99 * k]
        truth = ThresholdModel(a=1.5, b=20.0)
        measured = [truth.threshold(k, a) for a in loads]
        fitted = calibrate_threshold_model(loads, measured, k)
        assert fitted.a == pytest.approx(1.5, rel=1e-6)
        assert fitted.b == pytest.approx(20.0, rel=1e-4)

    def test_handles_infinite_points(self):
        k = 4
        loads = [0.5 * k, 0.9 * k, k]  # last point saturates -> inf E[Nq]
        measured = [1.0, 5.0, 100.0]
        fitted = calibrate_threshold_model(loads, measured, k)
        assert math.isfinite(fitted.a)

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_threshold_model([1.0], [1.0], 4)
        with pytest.raises(ValueError):
            calibrate_threshold_model([1.0, 2.0], [1.0], 4)


class TestFirstViolation:
    def test_minimum_violating_queue_length(self):
        qlens = [5, 100, 50, 200]
        violated = [False, True, True, True]
        t, count = first_violation_threshold(qlens, violated)
        assert (t, count) == (50.0, 3)

    def test_no_violations_gives_inf(self):
        t, count = first_violation_threshold([1, 2], [False, False])
        assert t == math.inf and count == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            first_violation_threshold([1], [True, False])


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 128), frac=st.floats(0.01, 0.999))
def test_erlang_c_properties(k, frac):
    """Property: C_k is a probability and E[Nq] is finite & non-negative
    for any stable load."""
    load = frac * k
    c = erlang_c(k, load)
    nq = expected_queue_length(k, load)
    assert 0.0 <= c <= 1.0
    assert nq >= 0.0
    assert math.isfinite(nq)
