"""Stopping rules: first-passage semantics, prefix measurability, capping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demimart import registry
from demimart.stopping import (
    StoppingRule,
    _wedge,
    capped,
    deterministic,
    first_passage_down,
    first_passage_up,
    jump_if_high,
    user_rule,
)

paths_strategy = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=12
)


def _open_rows_tau(rule, p):
    """Reference user-rule loop: the predicate sees only rows still open."""
    m, n = p.shape
    tau = np.full(m, -1, dtype=np.int64)
    open_rows = np.arange(m)
    for j in range(1, n + 1):
        if open_rows.size == 0:
            break
        fired = np.asarray(rule.predicate(p[open_rows, :j]), dtype=bool)
        tau[open_rows[fired]] = j
        open_rows = open_rows[~fired]
    return tau


class TestApplyStop:
    """A rule applied to one path: tau, and S_tau read at index tau - 1."""

    def test_crossing_path(self):
        path = np.array([1.0, 2.0, 3.0])
        tau = first_passage_up(2.0).tau(path)
        assert tau == 2
        assert path[tau - 1] == 2.0

    def test_never_crossing_path(self):
        assert first_passage_up(5.0).tau([1.0, 2.0, 3.0]) is None

    def test_late_crossing(self):
        assert first_passage_up(1.0).tau([-1.0, 0.0, 1.0]) == 3

    def test_deterministic_beyond_horizon_is_not_stopped(self):
        assert deterministic(5).tau(np.array([1.0, 2.0])) is None


class TestPrefixMeasurability:
    @given(paths_strategy, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_suffix_randomization_never_moves_tau(self, values, reseed):
        """Permuting or rewriting values after tau leaves tau unchanged."""
        path = np.array(values)
        rule = first_passage_up(1.0)
        t = rule.tau(path)
        if t is None or t == len(path):
            return
        rng = np.random.default_rng(reseed)
        mutated = path.copy()
        mutated[t:] = rng.uniform(-20, 20, size=len(path) - t)
        assert rule.tau(mutated) == t


def _argmax_tau(hit):
    """Reference first-passage time: the row-wise argmax of the hit matrix."""
    tau = hit.argmax(axis=1).astype(np.int64) + 1
    tau[~hit.any(axis=1)] = -1
    return tau


class TestFirstPassageCount:
    """The time-major count of first-passage times against the argmax."""

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1, 2, 5, 255, 256, 300]),
        st.floats(min_value=-3, max_value=3),
        st.booleans(),
        st.booleans(),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=1, max_value=320),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_argmax_on_both_layouts(
        self, seed, m, n, threshold, up, column_major, nan_rate, cap
    ):
        rng = np.random.default_rng(seed)
        p = rng.integers(-3, 4, size=(m, n)).astype(np.float64)
        p[rng.random((m, n)) < nan_rate] = np.nan
        p[0] = threshold - 1.0 if up else threshold + 1.0  # a row never hit
        if column_major:
            p = np.asfortranarray(p)
        rule = first_passage_up(threshold) if up else first_passage_down(threshold)
        expected = _argmax_tau(p >= threshold if up else p <= threshold)
        tau = rule.tau_batch(p)
        assert tau.dtype == np.int64
        assert np.array_equal(tau, expected)
        assert tau[0] == -1
        c = min(cap, n)
        capped_tau = capped(rule, cap).tau_batch(p)
        assert np.array_equal(capped_tau, np.where(expected == -1, c, np.minimum(expected, c)))


_TAUS = st.one_of(
    st.just(-1),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=41, max_value=2**63 - 1),
)


def _where_wedge(tau, j):
    """The reference: tau ^ j with the -1 sentinel as +infinity, by ``np.where``."""
    return np.where(tau == -1, j, np.minimum(tau, j))


class TestWedge:
    """The unsigned minimum equals its ``np.where`` reference."""

    @given(st.lists(_TAUS, min_size=1, max_size=50), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_wedge_equals_where(self, taus, j):
        tau = np.array(taus, dtype=np.int64)
        got = _wedge(tau, j)
        assert got.dtype == np.int64
        assert got.tolist() == _where_wedge(tau, j).tolist()
        assert tau.tolist() == taus

    @given(
        st.lists(st.integers(min_value=-1, max_value=9), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_capped_tau_equals_where(self, stops, cap):
        """A user rule that stops row i at stops[i] (never for -1 or 0),
        with and without a declared bound, capped at ``cap`` on a 9-step
        horizon, then at 5 and 3 in either order; and a capped
        ``deterministic(8)``, which alone never stops by the horizon 6."""
        stops = np.array(stops, dtype=np.int64)
        stops[stops == 0] = -1

        def pred(prefix):
            return stops == prefix.shape[1]

        p = np.zeros((len(stops), 9))
        for bound in (None, 9):
            inner = user_rule(pred, bound=bound)
            for more in ((), (5, 3), (3, 5)):
                rule = inner
                for c in (cap, *more):
                    rule = capped(rule, c)
                want = _where_wedge(inner.tau_batch(p), min(cap, *more, 9))
                got = rule.tau_batch(p)
                assert got.dtype == np.int64
                assert got.tolist() == want.tolist()
                assert rule.user_defined
        fixed = deterministic(8).tau_batch(p[:, :6])
        assert fixed.tolist() == [-1] * len(stops)
        assert capped(deterministic(8), cap).tau_batch(p[:, :6]).tolist() == _where_wedge(
            fixed, min(cap, 6)
        ).tolist()


class TestCapping:
    @given(paths_strategy, st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_capping_commutes_with_min(self, values, cap):
        """tau of the capped rule equals min(tau, cap), NOT_STOPPED acting as +inf."""
        path = np.array(values)
        rule = first_passage_up(0.5)
        t = rule.tau(path)
        t_capped = capped(rule, cap).tau(path)
        expected = min(t, cap, len(path)) if t is not None else min(cap, len(path))
        assert t_capped == expected

    def test_capped_preserves_certificates(self):
        rule = capped(first_passage_up(1.0), 4)
        assert rule.has_analytic_certificate("nondecreasing", "le")
        assert not rule.has_analytic_certificate("nonincreasing", "le")
        down = capped(first_passage_down(1.0), 4)
        assert down.has_analytic_certificate("nonincreasing", "le")

    def test_bounds(self):
        """The smaller of every cap and the kind's own bound, if it has one."""
        up = first_passage_up(1.0)
        assert up.bound() is None
        assert capped(up, 7).bound() == 7
        assert capped(capped(up, 5), 3).bound() == capped(capped(up, 3), 5).bound() == 3
        assert deterministic(3).bound() == 3
        assert capped(deterministic(8), 5).bound() == 5
        assert jump_if_high(1, 0.5, 2, 6).bound() == 6
        never = user_rule(lambda prefix: np.zeros(len(prefix), dtype=bool))
        assert never.bound() is None
        assert capped(never, 4).bound() == 4
        assert capped(user_rule(never.predicate, bound=2), 4).bound() == 2
        assert capped(capped(user_rule(never.predicate, bound=6), 5), 3).bound() == 3

    def test_caps_nest_by_min_and_keep_the_kind(self):
        """A cap is a field of the rule it caps: nesting keeps the kind, the
        smaller cap and a label naming every cap in order."""
        up = first_passage_up(1.0)
        five_three, three_five = capped(capped(up, 5), 3), capped(capped(up, 3), 5)
        assert five_three.label == "up(1.0)^cap5^cap3"
        assert three_five.label == "up(1.0)^cap3^cap5"
        assert (five_three.kind, five_three.cap) == (three_five.kind, three_five.cap) == (
            "first_passage_up",
            3,
        )
        assert StoppingRule("deterministic", step=8, cap=5).label == "fixed(8)^cap5"
        assert not five_three.user_defined
        with pytest.raises(ValueError, match="unknown stopping kind 'capped'"):
            StoppingRule("capped", cap=3)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            capped(up, 0)
        with pytest.raises(ValueError, match="cap must be >= 1"):
            capped(capped(up, 5), 0)


class TestUserRules:
    @pytest.mark.parametrize(
        "build, match",
        [
            (
                lambda: StoppingRule("first_passage_up", 1.0, declared_direction="up"),
                "invalid declared_direction",
            ),
            (lambda: StoppingRule("deterministic", step=0), "deterministic rule needs step >= 1"),
            (lambda: StoppingRule("user"), "user rule needs a predicate"),
            (lambda: first_passage_up(1.0).tau_batch(np.zeros(3)), r"an \(m, n\) matrix"),
            (lambda: jump_if_high(2, 1.0, 1, 6), "need 1 <= watch_step <= early < late"),
        ],
        ids=["direction", "step-zero", "no-predicate", "paths-not-a-matrix", "watch-after-early"],
    )
    def test_refusals(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_vectorized_predicate_shape_enforced(self):
        bad = user_rule(lambda prefix: np.ones(3, dtype=bool))
        with pytest.raises(ValueError, match="one bool per path"):
            bad.tau_batch(np.zeros((2, 4)))

    def test_jump_if_high_semantics(self):
        rule = jump_if_high(2, 1.0, 3, 5)
        paths = np.array(
            [
                [1.0, 2.0, 3.0, 4.0, 5.0],  # S_2 >= 1 -> stops at 3
                [-1.0, -2.0, -1.0, 0.0, 1.0],  # S_2 < 1 -> stops at 5
            ]
        )
        assert rule.tau_batch(paths).tolist() == [3, 5]

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10),
        st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tau_batch_matches_row_subset_loop(self, m, n, seed, watch, wait, threshold):
        """tau over full-prefix views equals the loop that passes the predicate
        only the rows still open."""
        paths = np.cumsum(
            np.random.default_rng(seed).choice([-1.0, 1.0], size=(m, n)), axis=1
        )
        watch = min(watch, n - 1)
        rules = [
            jump_if_high(watch, threshold, min(watch + wait, n - 1), n),
            user_rule(lambda prefix: prefix[:, -1] >= threshold),
        ]
        for rule in rules:
            assert np.array_equal(rule.tau_batch(paths), _open_rows_tau(rule, paths))


class TestModuleRegistrySurface:
    def test_unknown_id_names_field(self):
        with pytest.raises(registry.PreconditionError, match="theorem_id"):
            registry.verify("T9.9", None, seed=1)
