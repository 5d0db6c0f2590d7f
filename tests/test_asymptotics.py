"""Normal-approximation and complete-convergence diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from demimart.asymptotics import (
    clt_diagnose,
    complete_convergence_diagnose,
    ecf_distance,
    ks_critical_value,
    ks_distance_to_normal,
    ratio_cubed_decreasing,
)
from demimart.bounds import bernstein_tail
from demimart.core import FAIL, derive_stream
from demimart.generators import (
    GeneratorSpec,
    bernoulli,
    centered,
    gaussian_assoc_spec,
    iid_spec,
    rademacher,
    shared_shock_spec,
    to_chain,
    uniform,
)
from demimart.oracle import fold_expectations
from demimart.registry import PreconditionError, verify_detailed


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: ks_distance_to_normal([]), "empty sample"),
        (lambda: ks_critical_value(0), "need n >= 1"),
        (lambda: ks_critical_value(10, alpha=1.0), "alpha in"),
        (
            lambda: clt_diagnose(iid_spec(bernoulli(0.0), 4), [4], paths=10, seed=1),
            "sigma_n must be positive",
        ),
    ],
    ids=["ks-empty", "ks-critical-n", "ks-critical-alpha", "clt-zero-variance"],
)
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestKolmogorovSmirnov:
    def test_critical_value_formula(self):
        # sqrt(-ln(alpha/2)/2)/sqrt(n); ~ 1.628/sqrt(n) at the 1% level
        assert ks_critical_value(10_000, 0.01) == pytest.approx(0.0163, abs=2e-4)
        assert ks_critical_value(100, 0.05) == pytest.approx(1.358 / 10.0, abs=2e-3)

    def test_exact_normal_passes_gate(self):
        z = derive_stream(123, 0).standard_normal(10_000)
        assert ks_distance_to_normal(z) < ks_critical_value(10_000, 0.01)

    def test_shifted_sample_fails_gate(self):
        z = derive_stream(123, 0).standard_normal(10_000) + 0.25
        assert ks_distance_to_normal(z) > ks_critical_value(10_000, 0.01)

    def test_distance_bounds(self):
        z = derive_stream(5, 0).standard_normal(500)
        assert 0.0 <= ks_distance_to_normal(z) <= 1.0


class TestEcf:
    def test_small_for_exact_normals(self):
        z = derive_stream(7, 0).standard_normal(20_000)
        assert ecf_distance(z) < 0.03

    def test_large_for_constant(self):
        assert ecf_distance(np.zeros(1000)) > 0.5


class TestCltDiagnose:
    def test_iid_ratio_is_identically_one(self):
        """Independent steps: V_n = sigma_n^2 = n, so the ratio never decays."""
        diags = clt_diagnose(iid_spec(rademacher(), 4), [4, 16, 64], paths=4000, seed=1)
        for d in diags:
            assert d.ratio_cubed == pytest.approx(1.0, rel=1e-12)
            assert d.sigma_n == math.sqrt(d.n)
        assert not ratio_cubed_decreasing(diags)

    def test_shared_shock_ratio_closed_form(self):
        """V_n = 2n and sigma_n^2 = n + n^2 give (2n/(n^2+n))^{3/2}."""
        spec = shared_shock_spec(rademacher(), rademacher(), 4)
        diags = clt_diagnose(spec, [16, 64, 256], paths=4000, seed=1)
        for d in diags:
            want = (2.0 * d.n / (d.n**2 + d.n)) ** 1.5
            assert d.ratio_cubed == pytest.approx(want, rel=1e-9)
        assert ratio_cubed_decreasing(diags)

    def test_moving_sum_trend_does_not_depend_on_the_seed(self):
        """sigma_n of a moving sum is exact, not estimated from the paths the
        diagnostic then tests, so the exact trend of its ratios (0.432,
        0.418, 0.415) reads decreasing at every seed."""
        spec = GeneratorSpec("moving_sum", 4, law=uniform(-1.0, 1.0), weights=(1.0, 0.5))
        for seed in range(20):
            diags = clt_diagnose(spec, [16, 64, 256], paths=2_000, seed=seed)
            assert ratio_cubed_decreasing(diags), seed

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            clt_diagnose(iid_spec(rademacher(), 4), [16, 8], paths=100, seed=1)

    def test_unbounded_generator_rejected(self):
        spec = gaussian_assoc_spec(np.eye(4), 4)
        with pytest.raises(ValueError, match="unbounded"):
            clt_diagnose(spec, [4, 8], paths=100, seed=1)

    def test_large_horizon_walk_is_near_normal(self):
        diags = clt_diagnose(iid_spec(rademacher(), 4), [256], paths=10_000, seed=2)
        # lattice discreteness dominates the KS distance at this n; it still
        # sits well below any crude miscalibration
        assert diags[0].ks_distance < 0.05
        assert diags[0].ecf_distance < 0.05


class TestCompleteConvergence:
    def test_envelope_matches_bounds_module(self):
        """Per-n envelope equals the doubled one-sided tail bound exactly."""
        spec = iid_spec(rademacher(), 4)
        diag = complete_convergence_diagnose(
            spec, r=1.0, epsilon=0.5, n_grid=[10, 20], paths=20_000, seed=3
        )
        for rec in diag.tail_estimates:
            want = 2.0 * bernstein_tail(rec.n**1.0 * 0.5, float(rec.n), 1.0)
            assert rec.envelope == pytest.approx(want, rel=1e-15)

    def test_small_chains_use_the_oracle(self):
        spec = iid_spec(rademacher(), 4)
        diag = complete_convergence_diagnose(
            spec, r=1.0, epsilon=0.5, n_grid=[10, 20], paths=10_000, seed=3
        )
        assert all(rec.exact for rec in diag.tail_estimates)
        assert all(rec.stderr == 0.0 for rec in diag.tail_estimates)
        # P(|S_10| >= 5) = P(|S_10| >= 6) for the lattice walk
        p10 = 2 * sum(math.comb(10, k) for k in range(8, 11)) / 2**10
        assert diag.tail_estimates[0].estimate == pytest.approx(p10, abs=1e-12)

    def test_fractional_weights_fold_the_law_of_s_n(self, monkeypatch):
        """A moving sum with weights (1, 0.5) puts S_n on the grid Z / 2, so
        its exact tails fold the law of S_n and never enumerate paths; the
        values equal the enumeration's."""
        spec = GeneratorSpec("moving_sum", 4, law=rademacher(), weights=(1.0, 0.5))
        want = []
        for n in (10, 12):
            chain = to_chain(GeneratorSpec("moving_sum", n, law=rademacher(), weights=(1.0, 0.5)))
            thr = n**0.75 * 0.5
            (tail,) = fold_expectations(chain, lambda p: [(np.abs(p[:, -1]) >= thr) * 1.0])
            want.append(tail)
        monkeypatch.setattr("demimart.registry.fold_expectations", None)
        diag = complete_convergence_diagnose(
            spec, r=0.75, epsilon=0.5, n_grid=[10, 12], paths=1000, seed=3
        )
        got = [rec.estimate for rec in diag.tail_estimates]
        assert all(rec.exact for rec in diag.tail_estimates)
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_chain_lookup_per_exact_horizon(self, monkeypatch):
        """The sweep leaves the engine choice to registry.expectations: an
        exact horizon looks up its chain once, and a lattice horizon above
        the enumeration cap, refused by exact mode, is looked up again by
        the Monte-Carlo call it falls back to."""
        calls = []

        def counted(spec):
            calls.append(spec.horizon)
            return to_chain(spec)

        monkeypatch.setattr("demimart.registry.gen.to_chain", counted)
        spec = iid_spec(rademacher(), 4)
        diag = complete_convergence_diagnose(
            spec, r=0.6, epsilon=0.5, n_grid=[10, 12, 30], paths=1000, seed=3
        )
        assert calls == [10, 12, 30, 30]
        assert [rec.exact for rec in diag.tail_estimates] == [True, True, False]

    def test_unreachable_threshold_is_exactly_zero(self):
        """n^r eps beyond n C makes the tail impossible."""
        spec = iid_spec(rademacher(), 4)
        diag = complete_convergence_diagnose(
            spec, r=2.0, epsilon=1.0, n_grid=[4, 8], paths=1000, seed=3
        )
        for rec in diag.tail_estimates:
            assert rec.exact
            assert rec.estimate == 0.0
            assert rec.within_envelope

    def test_partial_sum_nondecreasing(self):
        spec = iid_spec(rademacher(), 4)
        diag = complete_convergence_diagnose(
            spec, r=1.0, epsilon=0.25, n_grid=[8, 16, 24], paths=10_000, seed=4
        )
        ps = diag.partial_sum
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("n_grid", [[8, 8, 4], [8, 4], [4, 4]])
    def test_grid_must_increase(self, n_grid):
        """A repeated horizon would count its tail twice in the partial sum."""
        spec = iid_spec(rademacher(), 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            complete_convergence_diagnose(spec, r=1.0, epsilon=0.5, n_grid=n_grid, paths=10, seed=1)

    def test_domain_errors(self):
        spec = iid_spec(rademacher(), 4)
        with pytest.raises(ValueError):
            complete_convergence_diagnose(spec, r=-1.0, epsilon=0.5, n_grid=[4], paths=10, seed=1)
        with pytest.raises(ValueError):
            complete_convergence_diagnose(spec, r=1.0, epsilon=0.0, n_grid=[4], paths=10, seed=1)

    def test_drifting_family_rejected(self):
        """The sweep refuses what T5.6 refuses, with T5.6's own message."""
        spec = iid_spec(bernoulli(0.5), 4)
        with pytest.raises(PreconditionError) as info:
            complete_convergence_diagnose(spec, r=1.0, epsilon=0.5, n_grid=[4], paths=10, seed=1)
        assert (info.value.name, info.value.message) == (
            "generator",
            "requires a demimartingale family",
        )

    @pytest.mark.parametrize(
        "spec",
        [
            iid_spec(rademacher(), 4),
            centered(GeneratorSpec("moving_sum", 4, law=bernoulli(0.5), weights=(1.0, 0.5))),
        ],
        ids=["iid-rademacher", "centered-bernoulli-moving-sum"],
    )
    def test_each_horizon_is_t56_two_sided_row(self, spec):
        """Each exact horizon is T5.6's second check at t = n^r eps."""
        r, eps, n_grid = 0.75, 0.5, [6, 10, 14]
        diag = complete_convergence_diagnose(spec, r, eps, n_grid, paths=1000, seed=3)
        for rec in diag.tail_estimates:
            sub = replace(spec, horizon=rec.n)
            _, results, _ = verify_detailed("T5.6", sub, params={"t": rec.n**r * eps})
            row = results[1]
            assert rec.exact
            assert (rec.estimate, rec.stderr) == (row.stats.mean, row.stats.stderr)
            assert rec.envelope == row.rhs
            assert rec.within_envelope == (row.verdict != FAIL)
