"""Verification driver: preconditions, exact/Monte-Carlo agreement, verdicts."""

import dataclasses
import inspect
import math
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from demimart.cli import build_generator_spec, build_rule, config_from_dict, parse_config_text
from demimart.core import (
    CHUNK_PATHS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    RunningStats,
    SummaryStats,
    derive_stream,
    tile_paths,
)
from demimart.generators import (
    DiscreteChainSpec,
    GeneratorSpec,
    adversarial_spec,
    bernoulli,
    centered,
    first_step_bound,
    gaussian_assoc_spec,
    generate,
    iid_spec,
    increment_bound,
    rademacher,
    sample_paths,
    shared_shock_spec,
    to_chain,
    uniform,
)
from demimart import asymptotics, registry
from demimart.monotone import SAMPLED_OK, MonotonicityCertificate
from demimart.oracle import fold_expectations, iter_blocks, terminal_cost, terminal_law
from demimart.registry import (
    CheckMeta,
    CheckSet,
    Instance,
    PreconditionError,
    _aggregate,
    _c410_precheck,
    _check_result,
    _run_checkset,
    _stopped_at,
    all_entries,
    check_definition,
    expectations,
    family_z,
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
    user_rule,
)

from statistic_rows import evaluate_rows

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
        """A down rule has no nondecreasing certificate, so it is refused."""
        with pytest.raises(PreconditionError, match="not nondecreasing"):
            verify("T3.1", RAD6, rule=capped(first_passage_down(-1.0), 6), mode="exact", seed=1)

    SHOCK6 = shared_shock_spec(rademacher(), rademacher(), 6)

    @pytest.mark.parametrize(
        "tid, spec, rule",
        [
            # E S_(tau^j) - E S_j reads 0, -0.25, ..., -2.02: the claim fails
            ("C2.2", SHOCK6, first_passage_down(-1.0)),
            # 0, 0.5, ..., 2.5: the reversed claim fails too
            ("C2.2", BERN6, first_passage_down(1.0)),
            # S is even, so no probe of size <= 1 lifts S = -2 past -1
            ("T3.1", SHOCK6, capped(first_passage_down(-1.0), 6)),
        ],
    )
    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_rules_a_theorem_excludes_are_refused(self, tid, spec, rule, mode):
        with pytest.raises(PreconditionError) as exc:
            verify(tid, spec, rule=rule, mode=mode, paths=1000, seed=1)
        assert exc.value.name == "stopping.direction"
        assert "is not nondecreasing" in exc.value.message

    def test_built_in_rules_are_never_probed(self, monkeypatch):
        """Built-in rules are certified or refused by construction; only a
        rule with a user predicate reaches the sampled probe."""
        probed = []

        def probe(rule, *args, **kwargs):
            probed.append(rule.label)
            return MonotonicityCertificate(SAMPLED_OK)

        monkeypatch.setattr(registry, "certify_indicator_monotonicity", probe)
        for rule in (capped(first_passage_up(1.0), 6), capped(first_passage_down(-1.0), 6),
                     deterministic(3), jump_if_high(2, 1.0, 3, 6)):
            try:
                verify("T3.1", RAD6, rule=rule, mode="exact", seed=1)
            except PreconditionError:
                pass
        assert probed == [jump_if_high(2, 1.0, 3, 6).label]

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

    def test_wald_refuses_a_centered_unequal_variance_gaussian(self):
        """Centering leaves a mean-zero Gaussian as it is, so C5.2 refuses it
        centered just as it refuses it uncentered."""
        gauss = gaussian_assoc_spec(np.diag([2.0, 1.0, 1.0, 1.0]), 4)
        for spec in (gauss, centered(gauss)):
            with pytest.raises(PreconditionError, match="identically distributed"):
                verify("C5.2", spec, rule=deterministic(2), mode="monte_carlo",
                       paths=20_000, seed=1)

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


UP6 = capped(first_passage_up(1.0), 6)

# one input per entry that meets every condition in its ``requires``
GOOD_INPUTS = {
    "Def1.2-demi": dict(spec=RAD6),
    "Def1.2-demisub": dict(spec=BERN6),
    "T1.4-order": dict(spec=RAD6, rule=UP6, params={"n": 2, "m": 4}),
    "T2.1-stopped-pair": dict(spec=BERN6, rule=deterministic(4)),
    "C2.2-stop-vs-fixed": dict(spec=BERN6, rule=UP6),
    "T2.3-two-stops": dict(spec=BERN6, rule=deterministic(2), rule2=deterministic(5)),
    "T3.1-OST-upper": dict(spec=RAD6, rule=UP6),
    "T3.2-OST-nonneg": dict(spec=iid_spec(rademacher(), 6, offset=6.0), rule=UP6),
    "T3.3-OST-lower": dict(spec=BERN6, rule=deterministic(3)),
    "L5.1-ui-proxy": dict(spec=RAD6, rule=UP6),
    "T4.1-doob-max": dict(spec=iid_spec(rademacher(), 6, offset=6.0), params={"lambda": 8}),
    "C4.3-lp-max": dict(spec=iid_spec(bernoulli(0.5), 6, offset=6.0), params={"p": 0.5}),
    "L4.4/L4.6-lemma-grid": dict(params={"grid": 50}),
    "L4.5-mgf": dict(spec=RAD6),
    "T4.7-bernstein": dict(spec=RAD6, params={"t": 2.0}),
    "C4.10-exp-stopped": dict(spec=RAD6, rule=UP6, params={"theta": 0.3}),
    "C5.2/C5.3-wald-first": dict(spec=BERN6, rule=UP6),
    "C5.4-wald-second": dict(spec=BERN6, rule=deterministic(3)),
    "C5.5-wald-exp": dict(spec=BERN6, rule=deterministic(3), params={"theta": 0.3}),
    "T5.6-bernstein-assoc": dict(spec=RAD6, params={"t": 2.0}),
}

# each entry's ``requires``, in order, as listed in the README registry table
REQUIRES = {
    "Def1.2-demi": "generator",
    "Def1.2-demisub": "generator",
    "T1.4-order": "generator rule t14_class certified",
    "T2.1-stopped-pair": "generator rule demisubmartingale bounded_rule certified",
    "C2.2-stop-vs-fixed": "generator rule demisubmartingale certified",
    "T2.3-two-stops": (
        "generator rule rule2 demisubmartingale bounded_increments bounded_rule2 certified"
    ),
    "T3.1-OST-upper": "generator rule demimartingale certified",
    "T3.2-OST-nonneg": "generator rule demimartingale nonnegative certified",
    "T3.3-OST-lower": "generator rule demisubmartingale certified",
    "L5.1-ui-proxy": "generator rule demimartingale bounded_increments",
    "T4.1-doob-max": "generator demimartingale nonnegative",
    "C4.3-lp-max": "generator demisubmartingale nonnegative",
    "L4.4/L4.6-lemma-grid": "",
    "L4.5-mgf": "generator mean_zero_steps bounded_increments",
    "T4.7-bernstein": "generator demimartingale mean_zero_process bounded_increments",
    "C4.10-exp-stopped": "generator rule demisubmartingale certified",
    "C5.2/C5.3-wald-first": "generator rule iid_associated certified",
    "C5.4-wald-second": "generator rule iid_associated bounded_rule certified",
    "C5.5-wald-exp": (
        "generator rule demisubmartingale closed_form_mgf bounded_rule certified"
    ),
    "T5.6-bernstein-assoc": "generator demimartingale mean_zero_process bounded_increments",
}

PRESENCE = ("_generator", "_rule", "_rule2")


def _condition(check) -> str:
    return check.__qualname__.split(".")[0]


def _break(tid: str, check):
    """Inputs that fail ``check`` and nothing else in entry ``tid``'s
    ``requires``, with the field and the message substring the README names."""
    good = GOOD_INPUTS[tid]
    name = _condition(check)
    if name in PRESENCE:
        key, field, message = {
            "_generator": ("spec", "generator", "generator spec required"),
            "_rule": ("rule", "stopping", "stopping rule required"),
            "_rule2": ("rule2", "stopping2", "second stopping rule required"),
        }[name]
        return {**good, key: None}, field, message
    spec = good["spec"]
    h = spec.horizon
    # not associated, with the same offset, so no other condition moves
    flip = GeneratorSpec("adversarial_sign_flip", h, law=rademacher(), offset=spec.offset)
    generator_cases = {
        "_demimartingale": (flip, "requires a demimartingale family"),
        "_demisubmartingale": (flip, "requires a demisubmartingale family"),
        "_mean_zero_process": (dataclasses.replace(spec, offset=1.0), "E S_n = 0"),
        "_mean_zero_steps": (BERN6, "requires mean-zero steps"),
        "_iid_associated": (
            dataclasses.replace(spec, offset=1.0),
            "identically distributed associated increments",
        ),
        "_bounded_increments": (
            gaussian_assoc_spec(np.eye(h), h, offset=spec.offset),
            "requires bounded increments",
        ),
        "_nonnegative": (dataclasses.replace(spec, offset=-1.0), "pathwise-nonnegative"),
        "_t14_class": (BERN6, "requires a demimartingale family"),
        "_closed_form_mgf": (gaussian_assoc_spec(np.eye(h), h), "closed-form step log-MGF"),
    }
    if tid == "C5.5-wald-exp":
        # the sign flip has no closed-form MGF either; drift down instead
        generator_cases["_demisubmartingale"] = (
            iid_spec(uniform(-1.0, 0.5), h),
            "requires a demisubmartingale family",
        )
    if name in generator_cases:
        bad, message = generator_cases[name]
        return {**good, "spec": bad}, "generator", message
    if name in ("_bounded_rule", "_bounded_rule2"):
        key, field = ("rule", "stopping") if name == "_bounded_rule" else ("rule2", "stopping2")
        return {**good, key: deterministic(h + 1)}, field, "bounded by the horizon"
    assert name == "_certified", name
    # a first passage the other way, declared in the direction the check needs
    direction = inspect.getclosurevars(check).nonlocals["direction"]
    direction = direction or good["rule"].declared_direction
    level = spec.offset + 0.5
    if direction == "nondecreasing":
        reversed_rule = user_rule(lambda p: p[:, -1] <= level, direction, label="down")
    else:
        reversed_rule = user_rule(lambda p: p[:, -1] >= level, direction, label="up")
    return {**good, "rule": capped(reversed_rule, h)}, "stopping.direction", f"is not {direction}"


REQUIRES_CASES = [
    pytest.param(e.theorem_id, i, id=f"{e.theorem_id}-{_condition(check)}")
    for e in all_entries()
    for i, check in enumerate(e.requires)
]


class TestRequires:
    """Each entry's ``requires`` tuple, condition by condition."""

    @staticmethod
    def _instance(inputs: dict) -> Instance:
        return Instance(
            spec=inputs.get("spec"),
            rule=inputs.get("rule"),
            rule2=inputs.get("rule2"),
            params=dict(inputs.get("params", {})),
            seed=1,
        )

    def test_every_entry_has_a_good_input(self):
        assert set(GOOD_INPUTS) == set(REQUIRES) == {e.theorem_id for e in all_entries()}

    @pytest.mark.parametrize("tid", sorted(REQUIRES))
    def test_requires_is_pinned(self, tid):
        names = [_condition(check).lstrip("_") for check in lookup(tid).requires]
        assert " ".join(names) == REQUIRES[tid]

    @pytest.mark.parametrize("tid", sorted(GOOD_INPUTS))
    def test_good_input_meets_every_condition(self, tid):
        entry = lookup(tid)
        inst = self._instance(GOOD_INPUTS[tid])
        for check in entry.requires:
            check(inst)
        (entry.build or entry.direct)(inst)

    @pytest.mark.parametrize("tid, index", REQUIRES_CASES)
    def test_breaking_one_condition_names_it(self, tid, index):
        entry = lookup(tid)
        check = entry.requires[index]
        inputs, field, message = _break(tid, check)
        inst = self._instance(inputs)
        if _condition(check) not in PRESENCE:
            # every other condition still holds, so this one is what fails
            for other in entry.requires:
                if other is not check:
                    other(inst)
        with pytest.raises(PreconditionError) as exc:
            verify_detailed(
                tid,
                inputs.get("spec"),
                rule=inputs.get("rule"),
                rule2=inputs.get("rule2"),
                params=inputs.get("params"),
                mode="exact",
                seed=1,
            )
        assert exc.value.name == field
        assert message in exc.value.message

    def test_structure_is_checked_before_parameters(self):
        """An offset walk without ``params.t`` breaks two conditions; the
        structural one, checked first, is the one reported."""
        shifted = iid_spec(rademacher(), 6, offset=1.0)
        with pytest.raises(PreconditionError) as exc:
            verify("T4.7", shifted, mode="exact", seed=1)
        assert exc.value.name == "generator"
        assert "E S_n = 0" in exc.value.message


_H = 4
_LAWS = (rademacher(), bernoulli(0.3), uniform(-1.0, 1.0))
_OFFSETS = (0.0, 4.0)
# every family that may sit inside a centering, on every law
_INNERS = [
    spec
    for law in _LAWS
    for spec in (
        iid_spec(law, _H),
        shared_shock_spec(law, rademacher(), _H),
        GeneratorSpec("moving_sum", _H, law=law, weights=(1.0, 0.5)),
    )
] + [gaussian_assoc_spec(np.eye(_H), _H)]
COMPLETENESS_SPECS = (
    [dataclasses.replace(spec, offset=offset) for offset in _OFFSETS for spec in _INNERS]
    + [centered(spec, offset) for offset in _OFFSETS for spec in _INNERS]
    + [
        GeneratorSpec("adversarial_sign_flip", _H, law=law, offset=offset)
        for offset in _OFFSETS
        for law in _LAWS
    ]
)
COMPLETENESS_RULES = (
    first_passage_up(1.0),
    first_passage_down(-1.0),
    deterministic(2),
    deterministic(2, "nonincreasing"),
    capped(first_passage_up(1.0), _H),
    jump_if_high(1, 1.0, 2, 3),
    deterministic(_H + 1),  # longer than the horizon
)
# every parameter any entry reads, so only the structure decides
COMPLETENESS_PARAMS = {"n": 2, "m": 3, "lambda": 8.0, "p": 2.0, "t": 2.0, "theta": 0.3, "grid": 8}


class TestPreconditionCompleteness:
    """Every entry on every family, rule and mode returns a report or raises
    a PreconditionError: no input slips past ``requires`` into a plain error."""

    @given(
        tid=st.sampled_from([e.theorem_id for e in all_entries()]),
        spec=st.sampled_from(COMPLETENESS_SPECS),
        rule=st.sampled_from(COMPLETENESS_RULES),
        rule2=st.sampled_from(COMPLETENESS_RULES),
        mode=st.sampled_from(("exact", "monte_carlo")),
    )
    # inputs that break only C5.5's closed_form_mgf and L4.5's mean_zero_steps
    @example("C5.5-wald-exp", gaussian_assoc_spec(np.eye(_H), _H), deterministic(2),
             deterministic(2), "monte_carlo")
    @example("L4.5-mgf", adversarial_spec(_H), None, None, "exact")
    @settings(max_examples=300, deadline=None)
    def test_every_input_returns_or_names_a_condition(self, tid, spec, rule, rule2, mode):
        try:
            verify_detailed(
                tid,
                spec,
                rule=rule,
                rule2=rule2,
                params=COMPLETENESS_PARAMS,
                mode=mode,
                paths=200,
                seed=1,
            )
        except PreconditionError:
            pass


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
    # 2^17 outcomes, above CHUNK_PATHS: every sampled path is evaluated
    RAD17 = iid_spec(rademacher(), 17)

    @classmethod
    def _traced_peak(cls, paths: int) -> int:
        tracemalloc.start()
        try:
            verify_detailed(
                "Def1.2-demi",
                cls.RAD17,
                params={"battery_size": 4},
                mode="monte_carlo",
                paths=paths,
                seed=3,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chunk_statistics_released_before_next_chunk(self):
        """A second chunk must not hold the first chunk's statistics, on a
        walk whose paths are evaluated one by one, not counted."""
        assert registry._counted_chain(self.RAD17) is None
        one = self._traced_peak(CHUNK_PATHS)
        two = self._traced_peak(2 * CHUNK_PATHS)
        assert two <= 1.25 * one, (one, two)

    def test_large_battery_never_builds_the_chunk_matrix(self):
        """K = 288 statistics over one chunk stay far below the (K, chunk)
        float64 matrix that whole-chunk evaluation would build.  The walk
        has 2^17 outcomes, above CHUNK_PATHS, so every sampled path is
        evaluated; 18 members over 16 steps make K = 288."""
        spec = iid_spec(rademacher(), 17)
        assert registry._counted_chain(spec) is None
        tracemalloc.start()
        try:
            _, results, _ = verify_detailed(
                "Def1.2-demi",
                spec,
                params={"battery_size": 18},
                mode="monte_carlo",
                paths=CHUNK_PATHS,
                seed=3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 288
        assert peak < 288 * CHUNK_PATHS * 8 / 4, peak

    def test_battery_pieces_never_build_a_tile_matrix(self):
        """Battery pieces are reduced as they are computed: a Monte-Carlo
        K = 288 verdict sampled path by path over one chunk (battery 18 at
        n = 17, whose 2^17 outcomes are above CHUNK_PATHS) and an exact
        K = 416 fold (battery 32 at n = 14) each peak below one (288, tile)
        float64 matrix."""
        one_tile = 288 * tile_paths(288) * 8
        for spec, mode, battery, checks in (
            (iid_spec(rademacher(), 17), "monte_carlo", 18, 288),
            (centered(iid_spec(bernoulli(0.3), 14)), "exact", 32, 416),
        ):
            assert mode == "exact" or registry._counted_chain(spec) is None
            tracemalloc.start()
            try:
                _, results, _ = verify_detailed(
                    "Def1.2-demi",
                    spec,
                    params={"battery_size": battery},
                    mode=mode,
                    paths=CHUNK_PATHS,
                    seed=3,
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(results) == checks
            assert peak < one_tile, (mode, peak, one_tile)


class TestStatisticTiles:
    """Entries with K >= 64 statistics evaluate and reduce each chunk in
    tiles of paths; values must be those of whole chunks up to rounding."""

    def test_monte_carlo_tiles_match_whole_chunks(self):
        # 2^17 outcomes, above CHUNK_PATHS: every sampled path is evaluated;
        # 18 members over 16 steps make K = 288
        spec = iid_spec(rademacher(), 17)
        paths = CHUNK_PATHS + 3
        inst = Instance(spec=spec, rule=None, rule2=None, params={"battery_size": 18}, seed=41)
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
            ref.update(evaluate_rows(checkset, whole[lo : lo + CHUNK_PATHS]))
        want = [
            _check_result(stats, meta, family_z(3.0, 288), paths)
            for stats, meta in zip(ref.summaries(), checkset.metas)
        ]
        assert [r.stats.count for r in results] == [paths] * 288
        np.testing.assert_allclose(
            [r.stats.mean for r in results], [w.stats.mean for w in want], rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            [r.stats.stderr for r in results], [w.stats.stderr for w in want], rtol=1e-12, atol=0
        )
        assert [r.verdict for r in results] == [w.verdict for w in want]

    def test_per_path_pieces_never_build_a_tile_matrix(self):
        """A K = 288 battery sampled path by path (2^17 outcomes, above
        CHUNK_PATHS) over one chunk peaks below one (288, tile) float64
        matrix, as its pieces are reduced when computed."""
        tracemalloc.start()
        try:
            _, results, _ = verify_detailed(
                "Def1.2-demi",
                iid_spec(rademacher(), 17),
                params={"battery_size": 18},
                mode="monte_carlo",
                paths=CHUNK_PATHS,
                seed=3,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 288
        assert peak < 288 * tile_paths(288) * 8, peak

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
        want = fold_expectations(to_chain(spec), lambda p: evaluate_rows(checkset, p))
        np.testing.assert_allclose([r.stats.mean for r in results], want, rtol=1e-12, atol=0)


class TestCountedMonteCarlo:
    """Monte Carlo on a lattice chain of at most CHUNK_PATHS outcomes counts
    the sampled outcomes and evaluates each distinct path once, weighted by
    its count: the same sample as a per-path pass, so the same estimates up
    to the order of summation."""

    # (theorem_id, spec, rule, params)
    CASES = {
        "def12-rademacher": ("Def1.2-demi", iid_spec(rademacher(), 10), None, {}),
        "c22-moving-sum": (
            "C2.2",
            centered(GeneratorSpec("moving_sum", 8, law=bernoulli(0.5), weights=(1.0, 0.5))),
            first_passage_up(1.0),
            {},
        ),
        "t21-shared-shock": (
            "T2.1",
            centered(shared_shock_spec(rademacher(), bernoulli(0.3), 6)),
            jump_if_high(2, 1.0, 3, 6),
            {},
        ),
        "l51-bernoulli": (
            "L5.1", iid_spec(bernoulli(0.3), 8), capped(first_passage_up(2.0), 8), {}
        ),
        "t47-terminal": ("T4.7", iid_spec(rademacher(), 12), None, {"t": 4.0}),
        # weights off a dyadic grid: float sums whose order matters
        "t31-moving-sum-off-grid": (
            "T3.1",
            GeneratorSpec("moving_sum", 4, law=bernoulli(0.3), weights=(0.3, 0.7)),
            capped(first_passage_up(1.0), 4),
            {},
        ),
    }

    @pytest.mark.parametrize("paths", [CHUNK_PATHS + 3, 300], ids=["two-chunks", "few-paths"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_estimates_equal_a_per_path_pass(self, case, paths):
        tid, spec, rule, params = self.CASES[case]
        chain = registry._counted_chain(spec)
        assert chain is not None and chain.outcome_count <= CHUNK_PATHS
        entry = lookup(tid)
        inst = Instance(spec=spec, rule=rule, rule2=None, params=params, seed=7)
        checkset = entry.build(inst)
        k = len(checkset.metas)
        seen = []

        def evaluate(block):
            seen.append(len(block))
            return checkset.evaluate(block)

        got = expectations(spec, evaluate, k, "monte_carlo", paths, 7, entry.terminal_only)
        assert sum(seen) <= min(paths, chain.outcome_count)
        tile = tile_paths(k)
        whole = generate(spec, paths, 7)
        ref = RunningStats()
        for lo in range(0, paths, tile):
            ref.update(evaluate_rows(checkset, whole[lo : lo + tile]))
        for g, w in zip(got, ref.summaries(), strict=True):
            assert g.count == paths
            assert abs(g.mean - w.mean) <= 1e-12 * w.stderr, (g, w)
            assert abs(g.stderr - w.stderr) <= 1e-12 * w.stderr, (g, w)

    def test_memory_does_not_grow_with_paths(self):
        """Counts and one tile of distinct paths bound the memory: K = 288
        over 16 chunks peaks within 1.25 times one chunk's peak."""
        spec = iid_spec(rademacher(), 10)

        def peak(chunks: int) -> int:
            tracemalloc.start()
            try:
                check_definition(spec, mode="monte_carlo", paths=chunks * CHUNK_PATHS, seed=3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, many = peak(1), peak(16)
        assert many <= 1.25 * one, (one, many)

    def test_off_grid_moving_sum_agrees_with_exact(self):
        """Sampled and enumerated paths add a window's draws in one order,
        so float ties at the threshold break alike in both modes: T3.1 on a
        centered moving sum with weights (0.3, 0.7, 0.1) estimates the exact
        value (about -0.0797) within 4 standard errors."""
        spec = centered(GeneratorSpec("moving_sum", 8, law=bernoulli(0.5), weights=(0.3, 0.7, 0.1)))
        rule = capped(first_passage_up(1.0), 8)
        _, (exact,), _ = verify_detailed("T3.1", spec, rule=rule, mode="exact")
        _, (mc,), _ = verify_detailed(
            "T3.1", spec, rule=rule, mode="monte_carlo", paths=2**20, seed=5
        )
        assert abs(mc.stats.mean - exact.stats.mean) <= 4.0 * mc.stats.stderr, (mc, exact)

    def test_chains_that_are_not_counted(self):
        """Continuous laws and chains above CHUNK_PATHS outcomes keep the
        per-path pass."""
        for spec in (
            iid_spec(uniform(-1.0, 1.0), 4),
            gaussian_assoc_spec(np.eye(3), 3),
            iid_spec(rademacher(), 17),
        ):
            assert registry._counted_chain(spec) is None, spec.generator_id
        assert registry._counted_chain(iid_spec(rademacher(), 16)) is not None


class TestTerminalEngineCost:
    """Exact mode folds the law of S_n only when its convolutions cost less
    than building every path."""

    def test_cost_counts_the_convolutions(self):
        # pmfs of 3 points: a law of 2k + 1 points against each, then one mix
        for n in (1, 2, 5, 20):
            assert terminal_cost(to_chain(iid_spec(rademacher(), n))) == 3 * n * n + 2 * n + 1

    def test_wide_draws_enumerate(self, monkeypatch):
        """Three draws of {0, 2^13}: 8 outcomes, against about 2 x 10^8
        multiply-adds of convolution."""
        chain = DiscreteChainSpec((((0.0,), 0.5), ((8192.0,), 0.5)), (0, 1, 2), 3)
        want = registry.fold_terminal(chain, lambda p: (p[:, -1] >= 16384.0)[None] * 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("folded the terminal law")

        monkeypatch.setattr(registry, "fold_terminal", refuse)
        (got,) = expectations(
            chain, lambda p: (p[:, -1] >= 16384.0)[None] * 1.0, 1, "exact", terminal_only=True
        )
        assert terminal_cost(chain) > chain.outcome_count * chain.horizon
        assert got.mean == want[0] == 0.5 and got.stderr == 0.0

    def test_t56_on_two_million_outcomes_still_folds(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated every path")

        monkeypatch.setattr(registry, "fold_expectations", refuse)
        spec = shared_shock_spec(rademacher(), rademacher(), 20)
        assert to_chain(spec).outcome_count == 2**21
        report = verify("T5.6", spec, params={"t": 12.0}, mode="exact")
        assert report.exact and report.verdict == FAIL


class TestStatisticContract:
    """Every entry's statistic, extra checksets included, maps a block of m
    paths to its K rows, a (K, m) float64 matrix or float64 pieces covering
    each row once, on sampled, enumerated and terminal blocks alike."""

    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    # paths whose statistics are also evaluated one path at a time
    BY_PATH = 12

    @staticmethod
    def _checksets(config, spec):
        entry = lookup(config.theorem_id)
        inst = Instance(
            spec=spec,
            rule=build_rule(config.stopping) if config.stopping else None,
            rule2=build_rule(config.stopping2, "stopping2") if config.stopping2 else None,
            params=config.params,
            seed=config.seed,
        )
        extras = entry.extra_checksets(inst).values() if entry.extra_checksets else ()
        return [entry.build(inst), *extras]

    @classmethod
    def _assert_pieces(cls, checkset, block):
        """``evaluate_rows`` asserts dtype, shapes and coverage as the
        pieces arrive; assembled, they equal the statistic of each path
        alone."""
        got = evaluate_rows(checkset, block)
        assert got.shape == (len(checkset.metas), len(block))
        first = min(cls.BY_PATH, len(block))
        by_path = [evaluate_rows(checkset, block[i : i + 1]) for i in range(first)]
        np.testing.assert_array_equal(got[:, :first], np.hstack(by_path))

    def test_every_entry_yields_rows_covering_each_check_once(self):
        sampled_ids, exact_ids, piece_ids = set(), set(), set()
        for cfg_path in self.CONFIGS:
            config = config_from_dict(parse_config_text(cfg_path.read_text()))
            entry = lookup(config.theorem_id)
            if entry.build is None:
                continue
            spec = build_generator_spec(config.generator)
            paths = sample_paths(spec, 300, derive_stream(5, 0))
            checksets = self._checksets(config, spec)
            for checkset in checksets:
                self._assert_pieces(checkset, paths)
                if not isinstance(checkset.evaluate(paths), np.ndarray):
                    piece_ids.add(entry.theorem_id)
            if entry.terminal_only:
                self._assert_pieces(checksets[0], paths[:, -1:])
            sampled_ids.add(entry.theorem_id)
            if config.mode != "exact":
                # a Monte-Carlo config's family at a horizon small enough to
                # enumerate, where it has a chain at all
                spec = build_generator_spec({**config.generator, "horizon": 8})
                checksets = self._checksets(config, spec)
            try:
                chain = to_chain(spec)
            except ValueError:
                continue
            for checkset in checksets:
                self._assert_pieces(checkset, next(iter_blocks(chain, 256))[0])
            if entry.terminal_only:
                self._assert_pieces(checksets[0], terminal_law(chain)[0][:, None])
            exact_ids.add(entry.theorem_id)
        built = {e.theorem_id for e in all_entries() if e.build is not None}
        assert sampled_ids == exact_ids == built
        # the battery statistics and L5.1 return pieces, the others a matrix
        assert piece_ids == {
            "Def1.2-demi",
            "Def1.2-demisub",
            "T2.1-stopped-pair",
            "T2.3-two-stops",
            "L5.1-ui-proxy",
            "C4.10-exp-stopped",  # its demisub_precheck
        }


class TestStatisticPieces:
    """Both engines refuse pieces that do not cover every row exactly once
    or whose blocks do not share one m."""

    K = 4

    @staticmethod
    def _pieces(*layout):
        """A statistic yielding ``(rows, width)`` pieces of ones, ``width``
        None meaning the block's own path count."""

        def evaluate(paths):
            for rows, width in layout:
                yield rows, np.ones((len(range(4)[rows]), width or len(paths)))

        return evaluate

    BAD = {
        "missing row": ((slice(0, 2), None), (slice(3, 4), None)),
        "duplicated row": ((slice(0, 3), None), (slice(2, 4), None)),
        "unequal m": ((slice(0, 2), None), (slice(2, 4), 1)),
    }

    @pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
    def test_pieces_in_any_order_equal_the_matrix(self, mode):
        evaluate = self._pieces((slice(1, 4, 2), None), (slice(0, 4, 2), None))
        stats = expectations(RAD6, evaluate, self.K, mode, paths=100, seed=1)
        assert [s.mean for s in stats] == [1.0] * self.K

    @pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_pieces_are_refused(self, mode, case):
        with pytest.raises(ValueError, match="piece"):
            expectations(RAD6, self._pieces(*self.BAD[case]), self.K, mode, paths=100, seed=1)

    @pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
    def test_matrix_of_another_row_count_is_refused(self, mode):
        with pytest.raises(ValueError, match="rows"):
            expectations(RAD6, lambda p: np.ones((3, len(p))), self.K, mode, paths=100, seed=1)


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


def _gather_t14(rule, n_small, m_big):
    sign = 1.0 if rule.declared_direction == "nonincreasing" else -1.0

    def evaluate(paths):
        tau = rule.tau_batch(paths)
        w_m = _gather_values_at(paths, _gather_wedge(tau, m_big))
        w_n = _gather_values_at(paths, _gather_wedge(tau, n_small))
        return [sign * (w_m - w_n), sign * (w_n - paths[:, 0])]

    return evaluate


# raw float64 bit patterns: any int64, and by name -0.0, the infinities,
# quiet and signalling NaNs with payloads, and subnormals
_SPECIAL_BITS = [
    int(np.array(v).view(np.int64))
    for v in (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.225e-308)
] + [0x7FF0000000000001, 0x7FF4000000000000, 0xFFF8000000000123 - (1 << 64)]
_BITS = st.one_of(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1), st.sampled_from(_SPECIAL_BITS)
)


@st.composite
def _select_cases(draw):
    """(paths, tau, s_tau, j): tau is -1, in 1..n, or beyond n up to the
    largest int64, so that a sign shift by fewer than 63 bits shows."""
    m = draw(st.integers(min_value=1, max_value=16))
    n = draw(st.integers(min_value=1, max_value=10))
    values = draw(arrays(np.int64, m * (n + 1), elements=_BITS, fill=st.nothing()))
    values = values.view(np.float64)
    paths = values[: m * n].reshape(m, n)
    if draw(st.booleans()):
        paths = np.asfortranarray(paths)
    taus = st.one_of(
        st.just(-1),
        st.integers(min_value=1, max_value=n),
        st.integers(min_value=n + 1, max_value=(1 << 63) - 1),
    )
    tau = draw(arrays(np.int64, m, elements=taus, fill=st.nothing()))
    return paths, tau, values[m * n :], draw(st.integers(min_value=1, max_value=n))


class TestExactSelect:
    """``_stopped_at`` is a bitwise select: every value is S_j or S_tau bit
    for bit, as ``np.where(tau >= j, S_j, S_tau)`` gives it."""

    @given(_select_cases(), st.booleans())
    @example(  # tau - j + 1 above 2**62: S_j and S_tau differ in their lowest bit
        (np.array([[1.0, 2.0]]), np.array([(1 << 63) - 1]), np.array([1.0 + 2.0**-52]), 1),
        False,
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_where_bit_for_bit(self, case, into_row):
        paths, tau, s_tau, j = case
        want = np.where(tau >= j, paths[:, j - 1], s_tau)
        before = paths.copy(), s_tau.copy()
        out = np.full(len(tau), 7.0) if into_row else None
        got = _stopped_at(paths, tau, s_tau, j, out=out)
        assert got.dtype == np.float64
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        if into_row:
            assert got is out
        assert paths.tobytes() == before[0].tobytes()
        assert s_tau.tobytes() == before[1].tobytes()


class TestStoppedStatistics:
    """C2.2, L5.1 and T1.4 gather S_tau once and read S_(tau^j) from the
    column S_j wherever tau >= j; every statistic equals the per-j gather's
    bits, on sampled (column-major) and enumerated (row-major) blocks alike."""

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
        ("T1.4", iid_spec(rademacher(), 9), first_passage_up(1.0)),
        ("T1.4", centered(iid_spec(bernoulli(0.3), 8), offset=0.5), first_passage_down(-0.5)),
        (
            "T1.4",
            shared_shock_spec(rademacher(), rademacher(), 7),
            capped(first_passage_up(2.0), 5),
        ),
    ]

    @staticmethod
    def _pair(theorem, spec, rule):
        h = spec.horizon
        params = {"n": 3, "m": h - 1} if theorem == "T1.4" else {}
        inst = Instance(spec=spec, rule=rule, rule2=None, params=params, seed=3)
        checkset = lookup(theorem).build(inst)
        if theorem == "T1.4":
            return checkset, _gather_t14(rule, 3, h - 1)
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
        assert sampled.flags.f_contiguous and enumerated.flags.f_contiguous
        for block in (sampled, enumerated):
            want = reference(block)
            self._assert_same_bits(evaluate_rows(checkset, block), want)
            # either layout of the same values gives the same bits
            for other in (np.ascontiguousarray(block), np.asfortranarray(block)):
                self._assert_same_bits(evaluate_rows(checkset, other), want)

    def test_uncapped_c22_blocks_hold_paths_that_never_stop(self):
        _, spec, rule = self.CASES[0]
        assert rule.bound() is None
        for block in (
            sample_paths(spec, 5000, derive_stream(17, 0)),
            np.vstack([p for p, _ in iter_blocks(to_chain(spec))]),
        ):
            tau = rule.tau_batch(block)
            assert (tau == -1).any() and (tau >= 1).any() and (tau < spec.horizon).any()



# every entry that reads a stopping rule, and T2.3's second rule on its own
_STOPPED_IDS = [e.theorem_id for e in all_entries() if "rule" in REQUIRES[e.theorem_id].split()]
FALSE_BOUND_CASES = [pytest.param(tid, "rule", id=tid) for tid in _STOPPED_IDS] + [
    pytest.param("T2.3-two-stops", "rule2", id="T2.3-two-stops-rule2")
]


class TestDeclaredBound:
    """Every stopped entry re-checks a declared bound on every evaluated
    path, T1.4 and C2.2 too, which read tau ^ j and accept paths that never
    stop unless the declared bound is within the horizon."""

    def test_every_stopped_entry_is_covered(self):
        assert len(_STOPPED_IDS) == 12
        assert {"T1.4-order", "C2.2-stop-vs-fixed"} <= set(_STOPPED_IDS)

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("tid, key", FALSE_BOUND_CASES)
    def test_false_bound_is_refused(self, tid, key, mode):
        # stops at step 4 of every path, but declares tau <= 2
        false = user_rule(lambda p: np.full(len(p), p.shape[1] == 4), "nondecreasing", bound=2)
        inputs = {**GOOD_INPUTS[tid], key: false}
        with pytest.raises(PreconditionError, match="after the declared bound 2") as exc:
            verify_detailed(
                tid,
                inputs["spec"],
                rule=inputs["rule"],
                rule2=inputs.get("rule2"),
                params=inputs.get("params"),
                mode=mode,
                paths=1000,
                seed=1,
            )
        assert exc.value.name == ("stopping2" if key == "rule2" else "stopping")

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    @pytest.mark.parametrize("tid", ["T1.4-order", "C2.2-stop-vs-fixed"])
    def test_never_stopping_breaks_a_bound_within_the_horizon(self, tid, mode):
        never = user_rule(lambda p: np.zeros(len(p), dtype=bool), "nondecreasing", bound=2)
        inputs = GOOD_INPUTS[tid]
        with pytest.raises(PreconditionError, match="after the declared bound 2") as exc:
            verify(
                tid,
                inputs["spec"],
                rule=never,
                params=inputs.get("params"),
                mode=mode,
                paths=1000,
                seed=1,
            )
        assert exc.value.name == "stopping"

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_never_stopping_within_a_bound_past_the_horizon(self, mode):
        # deterministic(8) never stops by n = 6, and promises nothing there
        report = verify("C2.2", RAD6, rule=deterministic(8), mode=mode, paths=1000, seed=1)
        assert report.verdict == "PASS"

    def test_finiteness_is_checked_before_the_bound(self):
        never = user_rule(lambda p: np.zeros(len(p), dtype=bool), "nondecreasing", bound=2)
        with pytest.raises(PreconditionError, match="not a.s. finite"):
            verify("T3.1", RAD6, rule=never, mode="exact", seed=1)

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
        ('j=1|f0:one', 0.002387252646111367, 0.005378693836491103, 'PASS'),
        ('j=1|f1:last', 1.0022434422457431, 0.006573294088544425, 'PASS'),
        ('j=1|f2:minus_one', -0.002387252646111367, 0.005378693836491103, 'PASS'),
        ('j=1|f3:linear', 0.20797954567418317, 0.0013640505494902078, 'PASS'),
        ('j=1|f4:clipped', -0.0002492506615278416, 0.0005615840447741996, 'PASS'),
        ('j=1|f5:threshold', 0.2511792452830189, 0.0025134068564606226, 'PASS'),
        ('j=2|f0:one', 0.005666129774505292, 0.005365723289365725, 'PASS'),
        ('j=2|f1:last', 2.0066152784169353, 0.010764907467430387, 'PASS'),
        ('j=2|f2:minus_one', -0.005666129774505292, 0.005365723289365725, 'PASS'),
        ('j=2|f3:linear', 3.26827392395306, 0.017555666169345185, 'PASS'),
        ('j=2|f4:clipped', -0.000591594943626323, 0.0005602298029193861, 'PASS'),
        ('j=2|f5:threshold', 0.3780487804878049, 0.0029695530317085804, 'PASS'),
        ('j=3|f0:one', 0.0014381040036815463, 0.005359515797621895, 'PASS'),
        ('j=3|f1:last', 3.006500230096641, 0.01470350120383921, 'PASS'),
        ('j=3|f2:minus_one', -0.0014381040036815463, 0.005359515797621895, 'PASS'),
        ('j=3|f3:linear', 7.3013193561896, 0.0364273392103127, 'PASS'),
        ('j=3|f4:clipped', -0.00015015100092038652, 0.0005595816849139044, 'PASS'),
        ('j=3|f5:threshold', 0.4385066728025771, 0.0031380252953397917, 'PASS'),
    ]),
    'def_demisub_mc': ('PASS', [
        ('j=1|f0:one', 0.3104, 0.006543617637542499, 'PASS'),
        ('j=1|f1:threshold', 0.0, 0.0, 'PASS'),
        ('j=1|f2:clipped', 1.2828409855999998, 0.02704388176396444, 'PASS'),
        ('j=1|f3:threshold', 0.0984, 0.0042127232768699036, 'PASS'),
        ('j=1|f4:clipped', 0.0, 0.0, 'PASS'),
        ('j=1|f5:threshold', 0.3104, 0.006543617637542499, 'PASS'),
        ('j=2|f0:one', 0.314, 0.006564253033177249, 'PASS'),
        ('j=2|f1:threshold', 0.0298, 0.002404900977117758, 'PASS'),
        ('j=2|f2:clipped', 1.297719296, 0.027129165047709056, 'PASS'),
        ('j=2|f3:threshold', 0.167, 0.005275202892127527, 'PASS'),
        ('j=2|f4:clipped', 0.0, 0.0, 'PASS'),
        ('j=2|f5:threshold', 0.314, 0.006564253033177249, 'PASS'),
        ('j=3|f0:one', 0.3014, 0.006489994761662083, 'PASS'),
        ('j=3|f1:threshold', 0.0712, 0.00363713592701047, 'PASS'),
        ('j=3|f2:clipped', 1.2456452096, 0.026822265710661798, 'PASS'),
        ('j=3|f3:threshold', 0.201, 0.005668000109831422, 'PASS'),
        ('j=3|f4:clipped', 0.0, 0.0, 'PASS'),
        ('j=3|f5:threshold', 0.3014, 0.006489994761662083, 'PASS'),
    ]),
    'c410_precheck_mc': ('PASS', [
        ('transformed j=1|f0:one', 0.04239438951624603, 0.0046689665232631785, 'PASS'),
        ('transformed j=1|f1:threshold', 0.04239438951624603, 0.0046689665232631785, 'PASS'),
        ('transformed j=1|f2:clipped', 0.027775320207411323, 0.0030589434522137206, 'PASS'),
        ('transformed j=1|f3:threshold', 0.04239438951624603, 0.0046689665232631785, 'PASS'),
        ('transformed j=2|f0:one', 0.04736278604191218, 0.005066591239647338, 'PASS'),
        ('transformed j=2|f1:threshold', 0.04736278604191218, 0.005066591239647338, 'PASS'),
        ('transformed j=2|f2:clipped', 0.019926729749452084, 0.0029056694489053023, 'PASS'),
        ('transformed j=2|f3:threshold', 0.04736278604191218, 0.005066591239647338, 'PASS'),
        ('transformed j=3|f0:one', 0.043199142810959816, 0.0054957046911561355, 'PASS'),
        ('transformed j=3|f1:threshold', 0.043199142810959816, 0.0054957046911561355, 'PASS'),
        ('transformed j=3|f2:clipped', 0.015110762626525491, 0.003144580768583133, 'PASS'),
        ('transformed j=3|f3:threshold', 0.043199142810959816, 0.0054957046911561355, 'PASS'),
    ]),
    't21_mc': ('PASS', [
        ('E[(S_M - S_tau) f0:one(S_tau)]', 0.3724, 0.006837616441401195, 'PASS'),
        ('E[(S_M - S_tau) f1:threshold(S_tau)]', 0.3724, 0.006837616441401195, 'PASS'),
        ('E[(S_M - S_tau) f2:clipped(S_tau)]', 0.42038597440000003, 0.007718684345574388, 'PASS'),
        ('E[(S_M - S_tau) f3:threshold(S_tau)]', 0.2492, 0.006117790244156325, 'PASS'),
        ('E[(S_M - S_tau) f4:clipped(S_tau)]', 0.29222942874892804, 0.005570828653846081, 'PASS'),
        ('E[(S_M - S_tau) f5:threshold(S_tau)]', 0.3724, 0.006837616441401195, 'PASS'),
    ]),
    't23_mc': ('PASS', [
        ('E[(S_tau2 - S_tau1) f0:one(S_tau1)]', 0.0412, 0.024267226698952062, 'PASS'),
        ('E[(S_tau2 - S_tau1) f1:threshold(S_tau1)]', -0.004, 0.012021052414003862, 'PASS'),
        ('E[(S_tau2 - S_tau1) f2:clipped(S_tau1)]', -0.004761846757599993, 0.014310602365140982, 'PASS'),
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


class TestOneVerdictRule:
    """Every check result comes from one rule, and a report takes the
    verdict of its binding check, which is always the worst."""

    TAIL = CheckMeta("P(S_n >= 9)", 1e-6, "<=", tail=True)

    def test_exact_values_never_meet_the_hit_count_rule(self):
        stats = SummaryStats(mean=0.0, stderr=0.0, count=16)
        assert _check_result(stats, self.TAIL).verdict == PASS
        assert _check_result(stats, self.TAIL, 3.0, 1000).verdict == INCONCLUSIVE

    def test_one_path_is_inconclusive(self):
        report = check_definition(iid_spec(rademacher(), 4), mode="monte_carlo", paths=1, seed=1)
        assert report.verdict == INCONCLUSIVE
        assert report.z_margin is None and math.isinf(report.lhs.stderr)

    def test_the_binding_check_holds_the_worst_verdict(self):
        meta = CheckMeta("E[X]", 0.0, ">=")
        near = _check_result(SummaryStats(mean=-0.29, stderr=0.1, count=100), meta)
        far = _check_result(SummaryStats(mean=-0.31, stderr=0.01, count=100), meta)
        open_ = _check_result(SummaryStats(mean=-5.0, stderr=math.inf, count=1), meta)
        assert [near.verdict, far.verdict, open_.verdict] == [PASS, FAIL, INCONCLUSIVE]
        for results in ([near, open_, far], [far, near], [open_, near]):
            report = _aggregate("x", results, exact=False)
            worst = FAIL if far in results else INCONCLUSIVE
            assert report.verdict == worst
            binding = next(r for r in results if r.verdict == worst)
            assert report.lhs is binding.stats

    @pytest.mark.parametrize(
        "mode, paths, field", [("monte_carlo", 0, "paths"), ("sideways", 100, "mode")]
    )
    def test_expectations_refuses_paths_and_mode(self, mode, paths, field):
        with pytest.raises(PreconditionError) as info:
            expectations(RAD6, lambda p: p[:, -1][None], 1, mode, paths=paths, seed=1)
        assert info.value.name == field

    def test_t47_and_the_sweep_share_one_tail_rule(self, monkeypatch):
        """The same 500 paths give P(|S_4| >= 3.5) against the same envelope
        (500 x 0.17 < MIN_EXPECTED_HITS expected hits) in T4.7 and at the
        sweep's first horizon: INCONCLUSIVE both ways."""
        spec = iid_spec(uniform(-1.0, 1.0), 4)
        _, results, _ = verify_detailed(
            "T4.7", spec, params={"t": 3.5}, mode="monte_carlo", paths=500, seed=9
        )
        swept = []
        monkeypatch.setattr(
            asymptotics, "_check_result", lambda *a: swept.append(_check_result(*a)) or swept[-1]
        )
        diag = asymptotics.complete_convergence_diagnose(spec, 1.0, 0.875, [4], 500, 9)
        (row,) = swept
        assert 500 * row.rhs < registry.MIN_EXPECTED_HITS
        assert (row.stats, row.rhs) == (results[1].stats, results[1].rhs)
        assert row.verdict == results[1].verdict == INCONCLUSIVE
        assert diag.tail_estimates[0].within_envelope


class TestFamilyWiseGate:
    """A Monte-Carlo check FAILs below z_K = Phi^-1(1 - Phi(-tolerance_z) / K),
    K the size of its family: the one-sided level split over the family."""

    BATTERY = {"battery_size": 32}

    def test_threshold(self):
        assert family_z(3.0, 1) == 3.0
        assert family_z(3.0, 288) == pytest.approx(4.4311, abs=1e-4)
        for k in (2, 9, 288):
            z = family_z(3.0, k)
            assert NormalDist().cdf(-z) * k == pytest.approx(NormalDist().cdf(-3.0), rel=1e-9)
            assert 3.0 < z < family_z(3.0, 2 * k)
        # a level that underflows cannot be split
        assert family_z(math.inf, 288) == math.inf

    def test_each_checkset_is_its_own_family(self, monkeypatch):
        sizes = []

        def spy(tolerance_z, checks):
            sizes.append((tolerance_z, checks))
            return family_z(tolerance_z, checks)

        monkeypatch.setattr(registry, "family_z", spy)
        rule = capped(first_passage_up(1.0), 6)
        report, results, extras = verify_detailed(
            "C4.10", RAD6, rule=rule, params={"theta": 0.3}, mode="monte_carlo", paths=500,
            seed=3, tolerance_z=2.5,
        )
        (precheck,) = _c410_precheck(Instance(RAD6, rule, None, {"theta": 0.3}, 3)).values()
        assert sizes == [(2.5, len(results)), (2.5, len(precheck.metas))]

    def test_complete_convergence_grid_is_one_family(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(
            asymptotics, "family_z", lambda z, k: sizes.append((z, k)) or family_z(z, k)
        )
        asymptotics.complete_convergence_diagnose(
            iid_spec(uniform(-1.0, 1.0), 4), 0.75, 0.5, [4, 8, 16], 2000, 11, tolerance_z=3.5
        )
        assert sizes == [(3.5, 3)]

    def test_false_fail_rate_on_a_martingale(self):
        """iid Rademacher steps are a martingale, so every one of the 288
        battery checks holds; at 3 sigma per check 21 of these 200 seeds
        FAIL (binding z down to -3.71), at z_K = 4.43 none may."""
        spec = iid_spec(rademacher(), 10)
        verdicts = [
            verify_detailed(
                "Def1.2-demi", spec, params=self.BATTERY, mode="monte_carlo", paths=4000, seed=s
            )
            for s in range(5000, 5200)
        ]
        assert {len(results) for _, results, _ in verdicts} == {288}
        assert sum(report.verdict == FAIL for report, _, _ in verdicts) <= 2

    @pytest.mark.parametrize(
        "spec", [adversarial_spec(4), iid_spec(bernoulli(0.3), 10)], ids=["sign flip", "drift"]
    )
    def test_controls_still_fail(self, spec):
        report = verify(
            "Def1.2-demi", spec, params=self.BATTERY, mode="monte_carlo", paths=1000, seed=7
        )
        assert report.verdict == FAIL
        assert report.z_margin < -family_z(3.0, 288)
