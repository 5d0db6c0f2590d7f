"""Verification driver: preconditions, exact/Monte-Carlo agreement, verdicts."""

import math
import tracemalloc

import numpy as np
import pytest

from demimart.core import CHUNK_PATHS, RunningStats, derive_stream, tile_paths
from demimart.generators import (
    adversarial_spec,
    bernoulli,
    centered,
    first_step_bound,
    generate,
    iid_spec,
    increment_bound,
    rademacher,
    sample_paths,
    shared_shock_spec,
    to_chain,
    uniform,
)
from demimart.oracle import fold_expectations, iter_blocks
from demimart.registry import (
    CheckSet,
    Instance,
    PreconditionError,
    _c410_precheck,
    _mc_result,
    _run_checkset,
    all_entries,
    check_definition,
    lookup,
    verify,
    verify_detailed,
)
from demimart.stopping import (
    capped,
    deterministic,
    first_passage_down,
    first_passage_up,
    jump_if_high,
)

RAD6 = iid_spec(rademacher(), 6)
BERN6 = iid_spec(bernoulli(0.5), 6)


class TestLookup:
    def test_aliases_resolve(self):
        assert lookup("T3.1").theorem_id == "T3.1-OST-upper"
        assert lookup("L4.4").theorem_id == "L4.4/L4.6-lemma-grid"
        assert lookup("L4.6").theorem_id == "L4.4/L4.6-lemma-grid"
        assert lookup("C5.3").theorem_id == "C5.2/C5.3-wald-first"

    def test_unknown_id(self):
        with pytest.raises(PreconditionError, match="theorem_id"):
            lookup("T0.0")

    def test_every_entry_has_summary(self):
        for entry in all_entries():
            assert entry.summary


class TestPreconditions:
    def test_missing_required_param_named(self):
        with pytest.raises(PreconditionError, match="params.t: required"):
            verify("T4.7", RAD6, mode="exact", seed=1)

    def test_missing_rule_named(self):
        with pytest.raises(PreconditionError, match="stopping"):
            verify("T3.1", RAD6, mode="exact", seed=1)

    def test_t31_requires_demimartingale(self):
        with pytest.raises(PreconditionError, match="demimartingale"):
            verify("T3.1", BERN6, rule=capped(first_passage_up(1.0), 6), mode="exact", seed=1)

    def test_t31_rejects_wrong_direction_rule(self):
        """A down rule on a symmetric walk gets refuted by probing."""
        with pytest.raises(PreconditionError, match="not nondecreasing"):
            verify("T3.1", RAD6, rule=capped(first_passage_down(-1.0), 6), mode="exact", seed=1)

    def test_uncapped_rule_not_finite_at_horizon(self):
        with pytest.raises(PreconditionError, match="not a.s. finite"):
            verify("T3.1", iid_spec(rademacher(), 3), rule=first_passage_up(1.0), mode="exact", seed=1)

    def test_t32_requires_nonnegative_process(self):
        with pytest.raises(PreconditionError, match="nonneg"):
            verify("T3.2", RAD6, rule=capped(first_passage_up(1.0), 6), mode="exact", seed=1)

    def test_t23_checks_tau_ordering(self):
        with pytest.raises(PreconditionError, match="tau1 <= tau2"):
            verify(
                "T2.3",
                RAD6,
                rule=deterministic(5),
                rule2=deterministic(2),
                mode="exact",
                seed=1,
            )

    def test_wald_requires_identical_distribution(self):
        shifted = iid_spec(bernoulli(0.5), 6, offset=1.0)
        with pytest.raises(PreconditionError, match="identically distributed"):
            verify("C5.2", shifted, rule=deterministic(3), mode="exact", seed=1)

    def test_bernstein_rejects_offset_process(self):
        shifted = iid_spec(rademacher(), 6, offset=1.0)
        with pytest.raises(PreconditionError, match="E S_n = 0"):
            verify("T4.7", shifted, params={"t": 2.0}, mode="exact", seed=1)

    def test_exact_mode_needs_enumerable_family(self):
        cont = iid_spec(uniform(-1.0, 1.0), 4)
        with pytest.raises(PreconditionError, match="exact mode unavailable"):
            verify("T3.1", cont, rule=capped(first_passage_up(1.0), 4), mode="exact", seed=1)

    def test_lemma_grid_is_exact_only(self):
        with pytest.raises(PreconditionError, match="analytic"):
            verify("L4.4", mode="monte_carlo", seed=1)


class TestVerdicts:
    def test_t31_exact_equality(self):
        report = verify(
            "T3.1",
            iid_spec(rademacher(), 3),
            rule=capped(first_passage_up(1.0), 3),
            mode="exact",
            seed=1,
        )
        assert report.verdict == "PASS"
        assert report.exact
        assert report.lhs.stderr == 0.0
        assert report.lhs.mean == pytest.approx(0.0, abs=1e-12)
        assert report.z_margin is None

    def test_degenerate_two_stop_is_exactly_zero(self):
        rule = deterministic(3)
        report = verify("T2.3", RAD6, rule=rule, rule2=rule, mode="exact", seed=1)
        assert report.verdict == "PASS"
        assert report.lhs.mean == pytest.approx(0.0, abs=1e-15)

    def test_deterministic_order_collapses_to_equalities(self):
        report = verify(
            "T1.4", RAD6, rule=deterministic(1), params={"n": 2, "m": 5}, mode="exact", seed=1
        )
        assert report.verdict == "PASS"
        assert report.lhs.mean == pytest.approx(0.0, abs=1e-15)

    def test_adversarial_definition_fails_exactly(self):
        report = check_definition(adversarial_spec(4), "demimartingale", seed=5)
        assert report.verdict == "FAIL"
        assert report.exact
        assert report.lhs.mean == pytest.approx(-1.0, abs=1e-12)

    def test_wald_deterministic_equality(self):
        report = verify("C5.2", BERN6, rule=deterministic(4), mode="exact", seed=1)
        assert report.verdict == "PASS"
        assert report.lhs.mean == pytest.approx(0.0, abs=1e-12)

    def test_exp_stopped_jensen_branch(self):
        """Deterministic tau = 1 with a nonincreasing declaration: the >= 1
        comparison holds with strict slack (Jensen on a mean-zero start)."""
        report = verify(
            "C4.10",
            RAD6,
            rule=deterministic(1, "nonincreasing"),
            params={"theta": 0.5},
            mode="exact",
            seed=1,
        )
        assert report.verdict == "PASS"
        assert report.direction == ">="
        assert report.lhs.mean == pytest.approx(math.cosh(0.5), rel=1e-12)

    def test_exp_stopped_precheck_reported(self):
        report, results, extras = verify_detailed(
            "C4.10",
            RAD6,
            rule=capped(first_passage_up(1.0), 6),
            params={"theta": 0.3},
            mode="exact",
            seed=1,
        )
        assert "demisub_precheck" in extras
        assert extras["demisub_precheck"].verdict == "PASS"

    def test_tail_hit_rule_yields_inconclusive(self):
        """Too few expected tail hits for a conclusive Monte-Carlo verdict."""
        spec = iid_spec(rademacher(), 16)
        report = verify(
            "T4.7", spec, params={"t": 14.0}, mode="monte_carlo", paths=2000, seed=3
        )
        assert report.verdict == "INCONCLUSIVE"


class TestExactMonteCarloAgreement:
    def test_binding_statistics_agree_within_four_stderr(self):
        # the L5.1 case passes its threshold exactly at S_k = 0.4 on a
        # centered lattice (exact P(tau <= 2) = 0.51), a tie that sampled
        # paths see only if they stay exactly on the lattice
        cases = [
            ("T3.3", BERN6, dict(rule=capped(first_passage_down(0.0), 6))),
            ("C5.2", BERN6, dict(rule=capped(first_passage_down(0.0), 6))),
            ("T4.7", iid_spec(rademacher(), 12), dict(params={"t": 3.0})),
            (
                "L5.1",
                centered(iid_spec(bernoulli(0.3), 10)),
                dict(rule=capped(first_passage_up(0.4), 10)),
            ),
        ]
        for tid, spec, kw in cases:
            exact_report, exact_results, _ = verify_detailed(
                tid, spec, mode="exact", seed=2, **kw
            )
            mc_report, mc_results, _ = verify_detailed(
                tid, spec, mode="monte_carlo", paths=100_000, seed=2, **kw
            )
            for er, mr in zip(exact_results, mc_results):
                assert er.name == mr.name
                tol = 4.0 * mr.stats.stderr if mr.stats.stderr > 0 else 1e-12
                assert abs(mr.stats.mean - er.stats.mean) <= tol, (tid, er.name)

    def test_centered_lattice_ties_are_hits(self):
        """S_n of a centered lattice family stays on its lattice, so S_n = t
        counts as a hit (a step-by-step float sum lands ulps below t)."""
        spec = centered(iid_spec(bernoulli(0.3), 10))
        for t in (1.0, 2.0):
            _, exact, _ = verify_detailed("T4.7", spec, params={"t": t}, mode="exact")
            _, mc, _ = verify_detailed(
                "T4.7", spec, params={"t": t}, mode="monte_carlo", paths=400_000, seed=5
            )
            for er, mr in zip(exact, mc):
                assert er.stats.count == 2**10
                assert abs(mr.stats.mean - er.stats.mean) <= 4.0 * mr.stats.stderr, (t, er.name)

    def test_mc_report_carries_z_margin(self):
        report = verify(
            "T3.3",
            BERN6,
            rule=capped(first_passage_down(0.0), 6),
            mode="monte_carlo",
            paths=50_000,
            seed=4,
        )
        assert not report.exact
        assert report.z_margin is not None and report.z_margin > 0
        assert report.verdict == "PASS"


class TestConcentrationExactSuite:
    def test_t47_passes_on_all_enumerable_instances(self):
        """Exact oracle tails sit below the bound for every independent
        mean-zero bounded instance tried."""
        instances = [
            (iid_spec(rademacher(), 8), 2.0),
            (iid_spec(rademacher(), 12), 4.0),
            (iid_spec(rademacher(), 16), 6.0),
            (centered(iid_spec(bernoulli(0.5), 10)), 2.0),
            (centered(iid_spec(bernoulli(0.25), 10)), 2.0),
        ]
        for spec, t in instances:
            report = verify("T4.7", spec, params={"t": t}, mode="exact", seed=1)
            assert report.verdict == "PASS", (spec.generator_id, t)
            assert report.exact

    def test_offset_preserves_optional_sampling(self):
        """A constant start shifts values but not the projection structure."""
        spec = iid_spec(rademacher(), 5, offset=3.0)
        report = verify(
            "T3.1", spec, rule=capped(first_passage_up(4.0), 5), mode="exact", seed=1
        )
        assert report.verdict == "PASS"


class TestDefinitionBattery:
    def test_demisubmartingale_variant_uses_nonnegative_battery(self):
        report = check_definition(BERN6, "demisubmartingale", seed=9)
        assert report.verdict == "PASS"

    def test_mean_zero_families_pass_full_battery(self):
        for spec in (RAD6, centered(iid_spec(bernoulli(0.5), 6)),
                     shared_shock_spec(rademacher(), rademacher(), 5)):
            report = check_definition(spec, "demimartingale", seed=9)
            assert report.verdict == "PASS", spec.family

    def test_uncentered_drift_caught_by_constant_member(self):
        """The constant -1 member turns positive drift into a violation."""
        report = check_definition(BERN6, "demimartingale", seed=9)
        assert report.verdict == "FAIL"


class TestBatteryMemory:
    @staticmethod
    def _traced_peak(paths: int) -> int:
        tracemalloc.start()
        try:
            verify_detailed(
                "Def1.2-demi",
                RAD6,
                params={"battery_size": 4},
                mode="monte_carlo",
                paths=paths,
                seed=3,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chunk_statistics_released_before_next_chunk(self):
        """A second chunk must not hold the first chunk's statistics."""
        one = self._traced_peak(CHUNK_PATHS)
        two = self._traced_peak(2 * CHUNK_PATHS)
        assert two <= 1.25 * one, (one, two)

    def test_large_battery_never_builds_the_chunk_matrix(self):
        """K = 288 statistics over one chunk stay far below the (K, chunk)
        float64 matrix that whole-chunk evaluation would build."""
        spec = iid_spec(rademacher(), 10)
        tracemalloc.start()
        try:
            _, results, _ = verify_detailed(
                "Def1.2-demi",
                spec,
                params={"battery_size": 32},
                mode="monte_carlo",
                paths=CHUNK_PATHS,
                seed=3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 288
        assert peak < 288 * CHUNK_PATHS * 8 / 4, peak


class TestStatisticTiles:
    """Entries with K >= 64 statistics evaluate and reduce each chunk in
    tiles of paths; values must be those of whole chunks up to rounding."""

    def test_monte_carlo_tiles_match_whole_chunks(self):
        spec = iid_spec(rademacher(), 10)
        paths = CHUNK_PATHS + 3
        inst = Instance(spec=spec, rule=None, rule2=None, params={"battery_size": 32}, seed=41)
        checkset = lookup("Def1.2-demi").build(inst)
        sizes = []

        def evaluate(block):
            sizes.append(len(block))
            return checkset.evaluate(block)

        tiled = CheckSet(checkset.metas, evaluate)
        _, results = _run_checkset("Def1.2-demi", inst, tiled, "monte_carlo", paths, 3.0)
        tile = tile_paths(288)
        assert len(checkset.metas) == 288 and tile < CHUNK_PATHS
        assert sizes == [tile] * (CHUNK_PATHS // tile) + [3]

        whole = generate(spec, paths, inst.seed)
        ref = RunningStats()
        for lo in range(0, paths, CHUNK_PATHS):
            ref.update(checkset.evaluate(whole[lo : lo + CHUNK_PATHS]))
        want = [
            _mc_result(RunningStats(ref.count, mean, m2), meta, 3.0, paths)
            for mean, m2, meta in zip(ref.mean.tolist(), ref.m2.tolist(), checkset.metas)
        ]
        assert [r.stats.count for r in results] == [paths] * 288
        np.testing.assert_allclose(
            [r.stats.mean for r in results], [w.stats.mean for w in want], rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            [r.stats.stderr for r in results], [w.stats.stderr for w in want], rtol=1e-12, atol=0
        )
        assert [r.verdict for r in results] == [w.verdict for w in want]

    def test_exact_entries_fold_in_tiles(self):
        spec = iid_spec(bernoulli(0.3), 14)
        inst = Instance(spec=spec, rule=None, rule2=None, params={"battery_size": 32}, seed=42)
        checkset = lookup("Def1.2-demi").build(inst)
        sizes = []

        def evaluate(paths):
            sizes.append(len(paths))
            return checkset.evaluate(paths)

        _, results = _run_checkset(
            "Def1.2-demi", inst, CheckSet(checkset.metas, evaluate), "exact", 0, 3.0
        )
        tile = tile_paths(len(checkset.metas))
        assert sizes == [tile] * (2**14 // tile) and len(sizes) > 1
        want = fold_expectations(to_chain(spec), checkset.evaluate)
        np.testing.assert_allclose([r.stats.mean for r in results], want, rtol=1e-12, atol=0)


def _gather_values_at(paths, idx):
    return paths[np.arange(paths.shape[0]), idx - 1]


def _gather_wedge(tau, j):
    return np.where(tau == -1, j, np.minimum(tau, j))


def _gather_c22(rule, h):
    """C2.2's statistics as one gather of S_(tau^j) per j (tau = -1 never
    stops), the reference the one-gather evaluator must reproduce."""

    def evaluate(paths):
        tau = rule.tau_batch(paths)
        return [
            paths[:, j - 1] - _gather_values_at(paths, _gather_wedge(tau, j))
            for j in range(1, h + 1)
        ]

    return evaluate


def _gather_l51(rule, h, big_m):
    def evaluate(paths):
        tau = rule.tau_batch(paths)
        assert np.all(tau >= 1)
        out = []
        for n in range(1, h + 1):
            w = _gather_wedge(tau, n)
            out.append(big_m * w - np.abs(_gather_values_at(paths, w)))
            out.append(big_m * (tau - w).astype(np.float64))
        return out

    return evaluate


class TestStoppedStatistics:
    """C2.2 and L5.1 gather S_tau once and read S_(tau^j) from the column
    S_j wherever tau >= j; every statistic equals the per-j gather's bits,
    on sampled (column-major) and enumerated (row-major) blocks alike."""

    CASES = [
        ("C2.2", iid_spec(rademacher(), 9), first_passage_up(1.0)),
        ("C2.2", iid_spec(bernoulli(0.3), 8), first_passage_up(2.0)),
        ("C2.2", centered(iid_spec(bernoulli(0.3), 8), offset=0.5), first_passage_down(-0.5)),
        (
            "C2.2",
            shared_shock_spec(rademacher(), bernoulli(0.4), 7),
            capped(first_passage_up(2.0), 5),
        ),
        ("C2.2", BERN6, deterministic(3)),
        ("L5.1", iid_spec(rademacher(), 9), capped(first_passage_up(2.0), 9)),
        ("L5.1", iid_spec(rademacher(), 8, offset=1.0), capped(first_passage_down(-1.0), 6)),
        ("L5.1", centered(iid_spec(bernoulli(0.3), 8)), capped(first_passage_up(0.5), 7)),
        ("L5.1", RAD6, deterministic(4)),
    ]

    @staticmethod
    def _pair(theorem, spec, rule):
        inst = Instance(spec=spec, rule=rule, rule2=None, params={}, seed=3)
        checkset = lookup(theorem).build(inst)
        h = spec.horizon
        if theorem == "C2.2":
            return checkset, _gather_c22(rule, h)
        big_m = max(increment_bound(spec), first_step_bound(spec))
        return checkset, _gather_l51(rule, h, big_m)

    @staticmethod
    def _assert_same_bits(got, want):
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype == np.float64, i
            assert g.tobytes() == w.tobytes(), i

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_sampled_and_enumerated_blocks(self, case):
        theorem, spec, rule = self.CASES[case]
        checkset, reference = self._pair(theorem, spec, rule)
        sampled = sample_paths(spec, 5000, derive_stream(17, case))
        enumerated = np.vstack([p for p, _ in iter_blocks(to_chain(spec))])
        assert sampled.flags.f_contiguous and enumerated.flags.c_contiguous
        for block in (sampled, enumerated):
            want = reference(block)
            self._assert_same_bits(checkset.evaluate(block), want)
            # either layout of the same values gives the same bits
            for other in (np.ascontiguousarray(block), np.asfortranarray(block)):
                self._assert_same_bits(checkset.evaluate(other), want)

    def test_uncapped_c22_blocks_hold_paths_that_never_stop(self):
        _, spec, rule = self.CASES[0]
        assert rule.bound() is None
        for block in (
            sample_paths(spec, 5000, derive_stream(17, 0)),
            np.vstack([p for p, _ in iter_blocks(to_chain(spec))]),
        ):
            tau = rule.tau_batch(block)
            assert (tau == -1).any() and (tau >= 1).any() and (tau < spec.horizon).any()


def _c410_precheck_run():
    inst = Instance(
        spec=iid_spec(rademacher(), 4),
        rule=capped(first_passage_up(1.0), 4),
        rule2=None,
        params={"theta": 0.3, "battery_size": 4},
        seed=24,
    )
    (checkset,) = _c410_precheck(inst).values()
    return _run_checkset("C4.10:demisub_precheck", inst, checkset, "monte_carlo", 5000, 3.0)


PINNED_RUNS = {
    "def_demi_mc": lambda: verify_detailed(
        "Def1.2-demi",
        shared_shock_spec(rademacher(), rademacher(), 4),
        params={"battery_size": 6},
        mode="monte_carlo",
        paths=CHUNK_PATHS + 4000,
        seed=21,
    )[:2],
    "def_demisub_mc": lambda: verify_detailed(
        "Def1.2-demisub",
        iid_spec(bernoulli(0.3), 4),
        params={"battery_size": 6},
        mode="monte_carlo",
        paths=5000,
        seed=22,
    )[:2],
    "c410_precheck_mc": _c410_precheck_run,
    "t21_mc": lambda: verify_detailed(
        "T2.1",
        iid_spec(bernoulli(0.5), 6),
        rule=jump_if_high(2, 1.0, 3, 4),
        params={"battery_size": 6},
        mode="monte_carlo",
        paths=5000,
        seed=25,
    )[:2],
    "t23_mc": lambda: verify_detailed(
        "T2.3",
        RAD6,
        rule=deterministic(2),
        rule2=deterministic(5),
        params={"battery_size": 4},
        mode="monte_carlo",
        paths=5000,
        seed=26,
    )[:2],
    "def_demi_exact": lambda: verify_detailed(
        "Def1.2-demi",
        shared_shock_spec(rademacher(), rademacher(), 5),
        params={"battery_size": 8},
        mode="exact",
        seed=23,
    )[:2],
}

# Per-check (name, mean, stderr, verdict) of PINNED_RUNS, recorded from the
# row-major evaluator with one RunningStats per check; the first run spans
# two chunks.
PINNED = {
    'def_demi_mc': ('PASS', [
        ('j=1|f0:one', 0.008484813621721123, 0.005366748975012434, 'PASS'),
        ('j=1|f1:last', 1.0066728025770824, 0.0065829345022426974, 'PASS'),
        ('j=1|f2:minus_one', -0.008484813621721123, 0.005366748975012434, 'PASS'),
        ('j=1|f3:linear', 0.2088986999539807, 0.001366051070298391, 'PASS'),
        ('j=1|f4:clipped', -0.0008858909054302808, 0.0005603368937320733, 'PASS'),
        ('j=1|f5:threshold', 0.25394040497008746, 0.0025251879353665398, 'PASS'),
        ('j=2|f0:one', 0.008139668660837552, 0.005349464346022179, 'PASS'),
        ('j=2|f1:last', 1.9947653014265991, 0.010701098558070674, 'PASS'),
        ('j=2|f2:minus_one', -0.008139668660837552, 0.005349464346022179, 'PASS'),
        ('j=2|f3:linear', 3.250980103888633, 0.01745737343453233, 'PASS'),
        ('j=2|f4:clipped', -0.0008498546652093878, 0.0005585322229038295, 'PASS'),
        ('j=2|f5:threshold', 0.37721468016566956, 0.0029670379323775533, 'PASS'),
        ('j=3|f0:one', 0.009865393465255407, 0.0053539054482616396, 'PASS'),
        ('j=3|f1:last', 2.9882075471698113, 0.014674054873423055, 'PASS'),
        ('j=3|f2:minus_one', -0.009865393465255407, 0.0053539054482616396, 'PASS'),
        ('j=3|f3:linear', 7.275037430740912, 0.03640737151909016, 'PASS'),
        ('j=3|f4:clipped', -0.001030035866313852, 0.0005589959139475495, 'PASS'),
        ('j=3|f5:threshold', 0.43994477680625865, 0.0031417190066923076, 'PASS'),
    ]),
    'def_demisub_mc': ('PASS', [
        ('j=1|f0:one', 0.298, 0.0064689697413036935, 'PASS'),
        ('j=1|f1:threshold', 0.0, 0.0, 'PASS'),
        ('j=1|f2:clipped', 1.2315934719999997, 0.026735372160923348, 'PASS'),
        ('j=1|f3:threshold', 0.09, 0.0040476260518149485, 'PASS'),
        ('j=1|f4:clipped', 0.0, 0.0, 'PASS'),
        ('j=1|f5:threshold', 0.298, 0.0064689697413036935, 'PASS'),
        ('j=2|f0:one', 0.3, 0.006481388869705017, 'PASS'),
        ('j=2|f1:threshold', 0.028, 0.0023332999930938056, 'PASS'),
        ('j=2|f2:clipped', 1.2398592, 0.02678669872960455, 'PASS'),
        ('j=2|f3:threshold', 0.1538, 0.005102383645294889, 'PASS'),
        ('j=2|f4:clipped', 0.0, 0.0, 'PASS'),
        ('j=2|f5:threshold', 0.3, 0.006481388869705017, 'PASS'),
        ('j=3|f0:one', 0.308, 0.006529603904175894, 'PASS'),
        ('j=3|f1:threshold', 0.068, 0.0035605807878925345, 'PASS'),
        ('j=3|f2:clipped', 1.2729221119999998, 0.026985964909828002, 'PASS'),
        ('j=3|f3:threshold', 0.2038, 0.0056973330533490974, 'PASS'),
        ('j=3|f4:clipped', 0.0, 0.0, 'PASS'),
        ('j=3|f5:threshold', 0.308, 0.006529603904175894, 'PASS'),
    ]),
    'c410_precheck_mc': ('PASS', [
        ('transformed j=1|f0:one', 0.0473429321159639, 0.004660572045227027, 'PASS'),
        ('transformed j=1|f1:threshold', 0.0473429321159639, 0.004660572045227027, 'PASS'),
        ('transformed j=1|f2:clipped', 0.031017432119755495, 0.0030534436840111653, 'PASS'),
        ('transformed j=1|f3:threshold', 0.0473429321159639, 0.004660572045227027, 'PASS'),
        ('transformed j=2|f0:one', 0.04368621523855916, 0.0050766014867435275, 'PASS'),
        ('transformed j=2|f1:threshold', 0.04368621523855916, 0.0050766014867435275, 'PASS'),
        ('transformed j=2|f2:clipped', 0.01688839436572684, 0.0029062507454926476, 'PASS'),
        ('transformed j=2|f3:threshold', 0.04368621523855916, 0.0050766014867435275, 'PASS'),
        ('transformed j=3|f0:one', 0.0532319972965627, 0.005508718224453583, 'PASS'),
        ('transformed j=3|f1:threshold', 0.0532319972965627, 0.005508718224453583, 'PASS'),
        ('transformed j=3|f2:clipped', 0.0215768842945855, 0.0031522970319447442, 'PASS'),
        ('transformed j=3|f3:threshold', 0.0532319972965627, 0.005508718224453583, 'PASS'),
    ]),
    't21_mc': ('PASS', [
        ('E[(S_M - S_tau) f0:one(S_tau)]', 0.366, 0.006813081800237198, 'PASS'),
        ('E[(S_M - S_tau) f1:threshold(S_tau)]', 0.366, 0.006813081800237198, 'PASS'),
        ('E[(S_M - S_tau) f2:clipped(S_tau)]', 0.413161296, 0.007690988268688565, 'PASS'),
        ('E[(S_M - S_tau) f3:threshold(S_tau)]', 0.2358, 0.006003905510272064, 'PASS'),
        ('E[(S_M - S_tau) f4:clipped(S_tau)]', 0.28226047423552003, 0.005450097337920205, 'PASS'),
        ('E[(S_M - S_tau) f5:threshold(S_tau)]', 0.366, 0.006813081800237198, 'PASS'),
    ]),
    't23_mc': ('PASS', [
        ('E[(S_tau2 - S_tau1) f0:one(S_tau1)]', -0.0112, 0.0243526902559972, 'PASS'),
        ('E[(S_tau2 - S_tau1) f1:threshold(S_tau1)]', -0.0028, 0.012245342856953285, 'PASS'),
        ('E[(S_tau2 - S_tau1) f2:clipped(S_tau1)]', -0.003333292730320001, 0.01457761154477083, 'PASS'),
        ('E[(S_tau2 - S_tau1) f3:threshold(S_tau1)]', 0.0, 0.0, 'PASS'),
    ]),
    'def_demi_exact': ('PASS', [
        ('j=1|f0:one', 0.0, 0.0, 'PASS'),
        ('j=1|f1:last', 1.0, 0.0, 'PASS'),
        ('j=1|f2:minus_one', 0.0, 0.0, 'PASS'),
        ('j=1|f3:linear', 0.38131, 0.0, 'PASS'),
        ('j=1|f4:clipped', 0.31988594567325, 0.0, 'PASS'),
        ('j=1|f5:threshold', 0.25, 0.0, 'PASS'),
        ('j=1|f6:linear', 0.105366, 0.0, 'PASS'),
        ('j=1|f7:clipped', 0.04763198675274996, 0.0, 'PASS'),
        ('j=2|f0:one', 0.0, 0.0, 'PASS'),
        ('j=2|f1:last', 2.0, 0.0, 'PASS'),
        ('j=2|f2:minus_one', 0.0, 0.0, 'PASS'),
        ('j=2|f3:linear', 2.271204, 0.0, 'PASS'),
        ('j=2|f4:clipped', 0.3511978315565, 0.0, 'PASS'),
        ('j=2|f5:threshold', 0.375, 0.0, 'PASS'),
        ('j=2|f6:linear', 0.5474680000000001, 0.0, 'PASS'),
        ('j=2|f7:clipped', 0.5843538749999999, 0.0, 'PASS'),
        ('j=3|f0:one', 0.0, 0.0, 'PASS'),
        ('j=3|f1:last', 3.0, 0.0, 'PASS'),
        ('j=3|f2:minus_one', 0.0, 0.0, 'PASS'),
        ('j=3|f3:linear', 7.060971, 0.0, 'PASS'),
        ('j=3|f4:clipped', 1.11301823498075, 0.0, 'PASS'),
        ('j=3|f5:threshold', 0.4375, 0.0, 'PASS'),
        ('j=3|f6:linear', 1.657822, 0.0, 'PASS'),
        ('j=3|f7:clipped', 0.679062427398375, 0.0, 'PASS'),
        ('j=4|f0:one', 0.0, 0.0, 'PASS'),
        ('j=4|f1:last', 4.0, 0.0, 'PASS'),
        ('j=4|f2:minus_one', 0.0, 0.0, 'PASS'),
        ('j=4|f3:linear', 12.328211, 0.0, 'PASS'),
        ('j=4|f4:clipped', 1.1441735153975312, 0.0, 'PASS'),
        ('j=4|f5:threshold', 0.46875, 0.0, 'PASS'),
        ('j=4|f6:linear', 17.242674, 0.0, 'PASS'),
        ('j=4|f7:clipped', 0.6817461874999999, 0.0, 'PASS'),
    ]),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_battery_results_match_pinned_values(key):
    report, results = PINNED_RUNS[key]()
    verdict, pinned = PINNED[key]
    assert report.verdict == verdict
    assert [r.name for r in results] == [p[0] for p in pinned]
    for r, (name, mean, stderr, check_verdict) in zip(results, pinned):
        assert abs(r.stats.mean - mean) <= 1e-12 * max(1.0, abs(mean)), name
        assert abs(r.stats.stderr - stderr) <= 1e-12 * stderr, name
        assert r.verdict == check_verdict, name
