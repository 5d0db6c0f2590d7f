"""Closed-form bound evaluators: frozen values, domain errors, monotonicity."""

import math

import numpy as np
import pytest

from demimart.bounds import (
    bernstein_tail,
    doob_max_bound,
    h1,
    h1_lower,
    lp_max_bound,
    mgf_log_bound,
    moment_bound,
    phi,
    phi_bound,
    psi_sup,
)


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_at_one(self):
        assert phi(1.0) == pytest.approx(math.e - 2.0, rel=1e-12)
        assert phi_bound(1.0) == pytest.approx(0.75, rel=1e-12)
        assert phi(1.0) <= phi_bound(1.0)

    def test_bound_domain(self):
        with pytest.raises(ValueError):
            phi_bound(3.0)
        with pytest.raises(ValueError):
            phi_bound(0.0)

    def test_vectorized(self):
        u = np.linspace(0.1, 2.9, 100)
        assert np.all(phi(u) <= phi_bound(u))
        assert np.all(phi(u) > 0)


class TestMgfLogBound:
    def test_unit_inputs(self):
        assert mgf_log_bound(1.0, 1.0, 1.0) == pytest.approx(0.75, rel=1e-12)

    def test_dominates_rademacher_log_mgf(self):
        # log cosh(1) = log((e + 1/e)/2) ~ 0.433781 <= 0.75
        assert math.log(math.cosh(1.0)) == pytest.approx(0.4337808304830271, rel=1e-12)
        assert math.log(math.cosh(1.0)) <= mgf_log_bound(1.0, 1.0, 1.0)

    def test_degenerate_variance(self):
        assert mgf_log_bound(1.0, 1.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mgf_log_bound(3.0, 1.0, 1.0)  # lambda = 3/C excluded
        with pytest.raises(ValueError):
            mgf_log_bound(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match="C must be positive"):
            mgf_log_bound(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="EX2 must be nonnegative"):
            mgf_log_bound(1.0, 1.0, -1.0)


class TestH1:
    def test_zero(self):
        assert h1(0.0) == 0.0
        assert h1_lower(0.0) == 0.0

    def test_at_four(self):
        assert h1(4.0) == pytest.approx(2.0, rel=1e-12)
        assert h1_lower(4.0) == pytest.approx(1.6, rel=1e-12)

    def test_at_three(self):
        assert h1(3.0) == pytest.approx(4.0 - math.sqrt(7.0), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h1(-0.5)
        with pytest.raises(ValueError, match="h1_lower requires u >= 0"):
            h1_lower(-0.5)

    def test_dominates_lower_even_for_tiny_u(self):
        """The conjugate form keeps the inequality exact near zero."""
        u = np.logspace(-12, 3, 2000)
        assert np.all(h1(u) >= h1_lower(u))


class TestPsiSup:
    def test_frozen_example(self):
        # t=3, V=1, C=3: exponent h1(3) vs t^2/(2(V + tC/3)) = 9/8
        assert psi_sup(3.0, 1.0, 3.0) == pytest.approx(4.0 - math.sqrt(7.0), rel=1e-12)
        assert psi_sup(3.0, 1.0, 3.0) >= 9.0 / 8.0

    def test_vanishes_at_zero_limit(self):
        assert psi_sup(1e-12, 1.0, 1.0) == pytest.approx(0.0, abs=1e-20)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_sup(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            psi_sup(1.0, -1.0, 1.0)


class TestBernsteinTail:
    def test_small_t_limit(self):
        assert bernstein_tail(1e-12, 1.0, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_unit_example(self):
        assert bernstein_tail(1.0, 1.0, 1.0) == pytest.approx(
            math.exp(-0.375), rel=1e-12
        )

    def test_walk_example(self):
        # t=10, V=100, C=1: exp(-100 / (2 (100 + 10/3)))
        want = math.exp(-100.0 / (2.0 * (100.0 + 10.0 / 3.0)))
        assert bernstein_tail(10.0, 100.0, 1.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.61639, rel=1e-4)

    def test_monotone_in_arguments(self):
        """Decreasing in t; increasing in V_n and C (grid differencing)."""
        t = np.linspace(0.5, 20.0, 200)
        assert np.all(np.diff(bernstein_tail(t, 5.0, 1.0)) < 0)
        vs = np.linspace(0.5, 50.0, 200)
        tails_v = np.array([bernstein_tail(3.0, v, 1.0) for v in vs])
        assert np.all(np.diff(tails_v) > 0)
        cs = np.linspace(0.1, 10.0, 200)
        tails_c = np.array([bernstein_tail(3.0, 5.0, c) for c in cs])
        assert np.all(np.diff(tails_c) > 0)

    def test_input_type_invariants(self):
        """t, V_n and C must be positive."""
        for t, v, c in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -1.0)):
            with pytest.raises(ValueError):
                bernstein_tail(t, v, c)
        assert bernstein_tail(1.0, 1.0, 1.0) == pytest.approx(math.exp(-0.375), rel=1e-12)


class TestMaxBounds:
    def test_doob_vacuous_at_mean(self):
        assert doob_max_bound(2.0, 2.0) == 1.0

    def test_doob_plain(self):
        assert doob_max_bound(5.0, 6.0) == pytest.approx(5.0 / 6.0)

    def test_doob_domain(self):
        with pytest.raises(ValueError):
            doob_max_bound(1.0, 0.0)

    def test_lp_frozen(self):
        assert lp_max_bound(0.5, 1.0, 1.0) == pytest.approx(1.0)

    def test_lp_domain(self):
        with pytest.raises(ValueError):
            lp_max_bound(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lp_max_bound(0.5, 0.0, 1.0)


class TestMomentBound:
    def test_p_two(self):
        assert moment_bound(2.0, 1.0) == pytest.approx(8.0, rel=1e-12)
        assert moment_bound(2.0, 4.0) == pytest.approx(32.0, rel=1e-12)

    def test_p_three(self):
        want = 24.0 * math.sqrt(math.pi) / 2.0
        assert moment_bound(3.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            moment_bound(0.0, 1.0)
