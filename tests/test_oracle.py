"""Exact enumeration: outcome spaces, probability conservation, linearity,
and the defining projection statistic."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demimart.core import CHUNK_PATHS, tile_paths
from demimart.generators import (
    DiscreteChainSpec,
    GeneratorSpec,
    adversarial_spec,
    bernoulli,
    centered,
    iid_spec,
    rademacher,
    shared_shock_spec,
    to_chain,
)
from demimart.monotone import MonotoneTestFunction, evaluate_batch, sample_battery
from demimart.oracle import fold_expectations, fold_terminal, iter_blocks, terminal_law
from demimart.registry import Instance, lookup, verify_detailed
from demimart.stopping import capped, first_passage_up

from statistic_rows import evaluate_rows


def _projection(j, f):
    """The defining statistic (S_{j+1} - S_j) f(S_1..S_j) as one row."""
    return lambda p: [(p[:, j] - p[:, j - 1]) * evaluate_batch(f, p[:, :j])]


def _expect(spec, stat) -> float:
    (value,) = fold_expectations(to_chain(spec), lambda p: [stat(p)])
    return value


class TestEnumerate:
    def test_single_step_rademacher(self):
        blocks = list(iter_blocks(to_chain(iid_spec(rademacher(), 1))))
        assert sum(p.shape[0] for p, _ in blocks) == 2
        assert sorted(np.concatenate([q for _, q in blocks]).tolist()) == [0.5, 0.5]

    def test_three_step_rademacher_sums_to_one(self):
        chain = to_chain(iid_spec(rademacher(), 3))
        assert chain.outcome_count == 8
        (total,) = fold_expectations(chain, lambda p: [np.ones(p.shape[0])])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_two_steps(self):
        s2_is_1 = lambda p: (p[:, -1] == 1.0).astype(float)
        p_s2_is_1 = _expect(iid_spec(bernoulli(0.5), 2), s2_is_1)
        assert p_s2_is_1 == pytest.approx(0.5, abs=1e-12)

    def test_probability_conservation_across_chains(self):
        specs = [
            iid_spec(bernoulli(0.37), 9),
            shared_shock_spec(rademacher(), bernoulli(0.2), 6),
            centered(iid_spec(bernoulli(0.25), 7)),
            adversarial_spec(5),
        ]
        for spec in specs:
            total = _expect(spec, lambda p: np.ones(p.shape[0]))
            assert total == pytest.approx(1.0, abs=1e-12), spec.family

    def test_streaming_fold_matches_table(self):
        """Folding block by block equals one dot product over the whole
        outcome table, built here from the blocks."""
        chain = to_chain(iid_spec(bernoulli(0.3), 10))
        fns = lambda p: [p[:, -1], np.abs(p[:, -1]) ** 3, (p.max(axis=1) >= 2).astype(float)]
        blocks = list(iter_blocks(chain, block=100))
        values = np.vstack([p for p, _ in blocks])
        probs = np.concatenate([q for _, q in blocks])
        direct = [float(np.dot(probs, row)) for row in fns(values)]
        assert fold_expectations(chain, fns) == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_blocks_partition_the_space(self):
        chain = to_chain(iid_spec(rademacher(), 12))
        count = sum(p.shape[0] for p, _ in iter_blocks(chain, block=512))
        assert count == chain.outcome_count == 4096

    def test_fold_streams_above_a_million_outcomes(self):
        chain = to_chain(iid_spec(rademacher(), 22))
        assert chain.outcome_count > 1 << 20
        (mean_sn,) = fold_expectations(chain, lambda p: [p[:, -1]])
        assert mean_sn == pytest.approx(0.0, abs=1e-12)


class TestExactExpectation:
    def test_symmetry_gives_zero_mean(self):
        assert _expect(iid_spec(rademacher(), 1), lambda p: p[:, 0]) == 0.0

    def test_variance_of_three_steps(self):
        assert _expect(iid_spec(rademacher(), 3), lambda p: p[:, -1] ** 2) == pytest.approx(3.0)

    def test_first_passage_probability(self):
        # stop at step 1 w.p. 1/2, plus the path (-1, 0, 1) w.p. 1/8
        hit = _expect(iid_spec(rademacher(), 3), lambda p: (p.max(axis=1) >= 1).astype(float))
        assert hit == pytest.approx(0.625, abs=1e-12)

    @given(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b):
        spec = iid_spec(bernoulli(0.4), 5)
        f = lambda p: p[:, -1]
        g = lambda p: np.abs(p[:, 1])
        combined = _expect(spec, lambda p: a * f(p) + b * g(p))
        split = a * _expect(spec, f) + b * _expect(spec, g)
        assert combined == pytest.approx(split, rel=1e-12, abs=1e-12)


class TestDemiCheck:
    def test_mean_zero_constant_projection_vanishes(self):
        chain = to_chain(iid_spec(rademacher(), 4))
        f = MonotoneTestFunction("constant_one")
        for j in (1, 2, 3):
            (value,) = fold_expectations(chain, _projection(j, f))
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_adversarial_is_strictly_negative(self):
        f = MonotoneTestFunction("last_coordinate")
        (value,) = fold_expectations(to_chain(adversarial_spec(3)), _projection(1, f))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_shared_shock_projection_equals_shock_variance(self):
        # E[X_2 S_1] = E[(B_2 + W)(B_1 + W)] = E W^2 = 1
        chain = to_chain(shared_shock_spec(rademacher(), rademacher(), 2))
        f = MonotoneTestFunction("last_coordinate")
        (value,) = fold_expectations(chain, _projection(1, f))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_nonadversarial_mean_zero_chains_pass_full_battery(self):
        """Exact projection statistic is >= -1e-12 for every (j, f) on
        mean-zero enumerable families."""
        battery = sample_battery(31, 16, require_nonnegative=False)
        for spec in (
            iid_spec(rademacher(), 6),
            centered(iid_spec(bernoulli(0.5), 6)),
            shared_shock_spec(rademacher(), rademacher(), 5),
        ):
            chain = to_chain(spec)
            for j in range(1, spec.horizon):
                for f in battery:
                    (value,) = fold_expectations(chain, _projection(j, f))
                    assert value >= -1e-12


_LAWS = st.one_of(
    st.just(rademacher()),
    st.one_of(st.just(0.5), st.floats(min_value=0.05, max_value=0.95)).map(bernoulli),
)


@st.composite
def _lattice_specs(draw):
    """iid, shared-shock or dyadic-weight moving-sum lattice families, plain,
    centered or offset, and the sign flip, plain or offset."""
    n = draw(st.integers(min_value=1, max_value=12))
    laws = [draw(_LAWS)]
    kind = draw(st.sampled_from(["iid", "shared_shock", "moving_sum", "sign_flip"]))
    if kind == "shared_shock":
        laws.append(draw(_LAWS))
        spec = shared_shock_spec(laws[0], laws[1], n)
    elif kind == "moving_sum":
        weights = draw(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5, 0.25, 1.5]), min_size=1, max_size=3)
        )
        spec = GeneratorSpec("moving_sum", n, law=laws[0], weights=weights)
    elif kind == "sign_flip":
        spec = adversarial_spec(n, laws[0])
    else:
        spec = iid_spec(laws[0], n)
    offset = draw(st.sampled_from([0.0, 2.5, -1.0 / 3.0]))
    if kind != "sign_flip" and draw(st.booleans()):
        spec = centered(spec, offset=offset)
    else:
        spec = dataclasses.replace(spec, offset=offset)
    return spec, all(law.p == 0.5 for law in laws)


class TestTerminalLaw:
    @given(_lattice_specs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_fold_matches_enumeration(self, case, data):
        spec, dyadic = case
        chain = to_chain(spec)
        values, probs = terminal_law(chain)
        last = np.concatenate([paths[:, -1] for paths, _ in iter_blocks(chain)])
        # the atoms are the enumerated S_n values, bit for bit
        assert np.array_equal(values, np.unique(last))
        assert np.all(probs > 0)
        t = data.draw(st.sampled_from(values.tolist()))

        def stats(p):
            s_n = p[:, -1]
            return [(s_n >= t).astype(float), (np.abs(s_n) >= abs(t)).astype(float)]

        want = fold_expectations(chain, stats)
        got = fold_terminal(chain, stats)
        if dyadic:
            assert got == want
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_cut_rows_match_enumeration(self, data):
        """Integer or dyadic rows drawn before step 0, past the horizon or
        across both ends: the terminal law is the law of the enumerated S_n."""
        n = data.draw(st.integers(1, 6))
        width = data.draw(st.integers(1, 4))
        entry = st.sampled_from([-2, -1, 0, 1, 3, 0.5, -0.75])
        rows = data.draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=3))
        chain = DiscreteChainSpec(
            tuple((row, 1 / len(rows)) for row in rows),
            tuple(data.draw(st.lists(st.integers(-5, n + 2), max_size=5))),
            n,
            data.draw(st.sampled_from([None, ((-1.0, 0.5), (2.0, 0.5)), ((0.25, 1.0),)])),
            offset=1.5,
        )
        values, probs = terminal_law(chain)
        blocks = list(iter_blocks(chain))
        last = np.concatenate([paths[:, -1] for paths, _ in blocks])
        weights = np.concatenate([p for _, p in blocks])
        assert np.array_equal(values, np.unique(last))
        want = [weights[last == v].sum() for v in values]
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)

    def test_shared_shock_closed_form(self):
        # S_20 = B_20 + 20 W: P(S_20 >= 12) = (P(B >= -8) + P(B >= 32)) / 2
        chain = to_chain(shared_shock_spec(rademacher(), rademacher(), 20))
        (tail,) = fold_terminal(chain, lambda p: [(p[:, -1] >= 12).astype(float)])
        hits = sum(math.comb(20, k) for k in range(20 + 1) if 2 * k - 20 >= -8)
        assert tail == hits / 2**21

    def test_off_grid_atom_rejected(self):
        """Atoms need a grid 2**-e on which S_n reaches at most 2**20 points:
        0.1 is a multiple of 2**-55 only, and 2**-20 + 1 takes 3 * 2**20."""
        for v in (0.1, 2.0**-20 + 1.0):
            chain = DiscreteChainSpec((((-v,), 0.5), ((v,), 0.5)), (0, 1, 2), horizon=3)
            assert chain.grid is None
            with pytest.raises(ValueError, match="grid"):
                terminal_law(chain)
        chain = DiscreteChainSpec((((-0.5,), 0.5), ((0.5,), 0.5)), (0, 1, 2), horizon=3)
        assert chain.grid == 1
        assert terminal_law(chain)[0].tolist() == [-1.5, -0.5, 0.5, 1.5]

    @pytest.mark.parametrize("weights", [(1.0, 0.5), (0.25, 1.0, 0.75), (1.5,)])
    def test_fractional_weights_fold_the_terminal_law(self, weights):
        """A moving sum with weights on a grid 2**-e: every atom is an
        enumerated S_n bit for bit, and folded values equal the enumeration's
        to 1e-12 relative."""
        spec = GeneratorSpec("moving_sum", 9, law=bernoulli(0.3), weights=weights, offset=-0.5)
        chain = to_chain(spec)
        values, _ = terminal_law(chain)
        last = np.concatenate([paths[:, -1] for paths, _ in iter_blocks(chain)])
        assert values.tobytes() == np.unique(last).tobytes()

        def stats(p):
            s_n = p[:, -1]
            return [s_n, s_n**2, (s_n >= 1.0).astype(float), np.exp(0.3 * s_n)]

        for got, want in zip(fold_terminal(chain, stats), fold_expectations(chain, stats)):
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_sign_flip_terminal_law(self):
        """S_n = X_1 at odd n and 0 at even n: one draw, two atoms."""
        values, probs = terminal_law(to_chain(adversarial_spec(5)))
        assert values.tolist() == [-1.0, 1.0] and probs.tolist() == [0.5, 0.5]
        values, probs = terminal_law(to_chain(adversarial_spec(4)))
        assert values.tolist() == [0.0] and probs.tolist() == [1.0]


class TestTiledFold:
    def test_tiles_match_an_untiled_fold(self):
        """Exact Def1.2 at n = 17: 2^17 outcomes in two blocks, K = 512
        statistics folded tile by tile equal whole-block dot products."""
        spec = iid_spec(bernoulli(0.3), 17)
        inst = Instance(spec=spec, rule=None, rule2=None, params={"battery_size": 32}, seed=5)
        checkset = lookup("Def1.2-demi").build(inst)
        chain = to_chain(spec)
        tile = tile_paths(512)
        assert len(checkset.metas) == 512 and tile < CHUNK_PATHS
        sizes = []

        def evaluate(paths):
            sizes.append(len(paths))
            return evaluate_rows(checkset, paths)

        got = fold_expectations(chain, evaluate, block=tile)
        assert sizes == [tile] * (2**17 // tile)
        want = np.zeros(512)
        blocks = 0
        for paths, probs in iter_blocks(chain):
            want += evaluate_rows(checkset, paths) @ probs
            blocks += 1
        assert blocks == 2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _expression_blocks(chain, block):
    """iter_blocks written as expressions, one new array per operation: the
    reference the in-place block build must reproduce bit for bit."""
    n = chain.horizon
    atoms = np.array([row for row, _ in chain.atoms], dtype=np.float64)
    probs = np.array([p for _, p in chain.atoms])
    shared = chain.shared_component or ((0.0, 1.0),)
    drift_line = chain.drift * np.arange(1, n + 1, dtype=np.float64)
    s, d = len(probs), len(chain.steps)
    strides = s ** np.arange(d - 1, -1, -1, dtype=np.int64)
    for w_val, w_prob in shared:
        for lo in range(0, s**d, block):
            idx = np.arange(lo, min(lo + block, s**d), dtype=np.int64)
            digits = (idx[:, None] // strides[None, :]) % s
            # step j adds the entries of the draws that reach it, in draw order
            inc = np.zeros((idx.size, n))
            for j in range(n):
                terms = [
                    atoms[digits[:, k], j - start]
                    for k, start in enumerate(chain.steps)
                    if 0 <= j - start < atoms.shape[1]
                ]
                if terms:
                    inc[:, j] = functools.reduce(np.add, terms)
            p = np.prod(probs[digits], axis=1) * w_prob
            yield np.cumsum(inc + w_val, axis=1) - drift_line + chain.offset, p


@st.composite
def _chains(draw):
    # non-dyadic atoms make a reordered sum round differently; -0.0 atoms
    # make a skipped "+ 0.0" (which turns -0.0 into 0.0) show in the bits;
    # Python int atoms must still give float64 paths; draws may start before
    # step 0 or past the horizon, repeat a step, or leave a step unreached
    n = draw(st.integers(1, 8))
    width = draw(st.integers(1, 3))
    entry = st.sampled_from([-1.0, -0.0, 0.1, 0.7, 1.0, 2.0, -2, 3])
    rows = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    shared = draw(
        st.sampled_from(
            [None, ((-1.0, 0.5), (1.0, 0.5)), ((-0.0, 0.3), (0.3, 0.7)), ((-0.0, 1.0),),
             ((-1, 0.5), (1, 0.5))]
        )
    )
    return DiscreteChainSpec(
        atoms=tuple((row, w / sum(weights)) for row, w in zip(rows, weights)),
        steps=tuple(draw(st.lists(st.integers(-3, n + 1), max_size=6))),
        horizon=n,
        shared_component=shared,
        drift=draw(st.sampled_from([0.0, 0.3, -0.5])),
        offset=draw(st.sampled_from([0.0, 1.5, -2.0, 1])),
    )


class TestInPlaceBlocks:
    @given(chain=_chains(), block=st.sampled_from([1, 7, 64, 1 << 16]))
    @example(
        chain=DiscreteChainSpec(
            (((-0.0,), 0.5), ((1.0,), 0.5)), (0, 1, 2), 3, shared_component=((-0.0, 1.0),)
        ),
        block=7,
    )
    @example(
        chain=DiscreteChainSpec(
            (((0.1,), 0.5), ((0.7,), 0.5)), tuple(range(6)), 6, ((0.3, 1.0),), drift=0.3
        ),
        block=64,
    )
    @example(
        chain=DiscreteChainSpec(
            (((-1,), 0.5), ((1,), 0.5)), (0, 1, 2, 3), 4, ((-1, 0.5), (1, 0.5)), offset=1
        ),
        block=7,
    )
    # a window of three non-dyadic entries cut at both ends, step 4 unreached
    @example(
        chain=DiscreteChainSpec(
            (((0.1, 0.7, -0.0), 0.25), ((1.0, 0.1, 0.7), 0.75)), (-2, 0, 1, 5), 5, drift=0.3
        ),
        block=7,
    )
    @settings(max_examples=150, deadline=None)
    def test_blocks_equal_the_expressions_bit_for_bit(self, chain, block):
        got = list(iter_blocks(chain, block))
        want = list(_expression_blocks(chain, block))
        assert len(got) == len(want)
        for (paths, probs), (want_paths, want_probs) in zip(got, want):
            assert paths.shape == want_paths.shape and paths.flags.f_contiguous
            assert paths.dtype == probs.dtype == np.float64
            assert paths.tobytes() == want_paths.tobytes()
            assert probs.tobytes() == want_probs.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            iid_spec(rademacher(), 7),
            shared_shock_spec(rademacher(), bernoulli(0.3), 6, offset=0.5),
            centered(iid_spec(bernoulli(0.3), 7), offset=-1.0),
            adversarial_spec(5),
            centered(GeneratorSpec("moving_sum", 5, law=bernoulli(0.3), weights=(1.0, 0.0, 0.7))),
        ],
    )
    def test_library_chains_equal_the_expressions(self, spec):
        chain = to_chain(spec)
        for (paths, probs), (want_paths, want_probs) in zip(
            iter_blocks(chain, 50), _expression_blocks(chain, 50)
        ):
            assert paths.tobytes() == want_paths.tobytes()
            assert probs.tobytes() == want_probs.tobytes()

    def test_chosen_outcomes_of_a_three_atom_chain(self):
        """Blocks of a sorted random subset of outcomes hold the full
        enumeration's rows and probabilities bit for bit, on a 3-atom chain
        (a radix no lattice law reaches) with negative entries, a draw
        starting before step 0, one cut at the horizon and a shared
        component; the full enumeration equals the expressions."""
        chain = DiscreteChainSpec(
            atoms=(((-1.0, 0.1), 0.2), ((0.7, -0.0), 0.5), ((2.0, -0.5), 0.3)),
            steps=(-1, 0, 1, 2, 4),
            horizon=5,
            shared_component=((-1.0, 0.4), (0.3, 0.6)),
            drift=0.3,
            offset=1.5,
        )
        assert chain.outcome_count == 3**5 * 2
        blocks = list(iter_blocks(chain, 64))
        for (paths, probs), (want_paths, want_probs) in zip(
            blocks, _expression_blocks(chain, 64), strict=True
        ):
            assert paths.tobytes() == want_paths.tobytes()
            assert probs.tobytes() == want_probs.tobytes()
        every = np.vstack([p for p, _ in blocks])
        every_probs = np.concatenate([p for _, p in blocks])
        pick = np.unique(np.random.default_rng(11).integers(0, chain.outcome_count, 120))
        assert pick[0] < 3**5 <= pick[-1]
        got = list(iter_blocks(chain, 16, pick))
        paths = np.vstack([p for p, _ in got])
        assert paths.tobytes() == every[pick].tobytes()
        assert np.concatenate([p for _, p in got]).tobytes() == every_probs[pick].tobytes()

    def test_exact_stopped_fold_peak_memory(self):
        """Exact L5.1 at n = 16 folds one 65,536-outcome block of 8 MiB.
        Built in place, the block costs about two block-sized arrays at a
        time and the fold peaks near 3.4 blocks; one new array per operation
        peaked near 5.4."""
        n = 16
        spec = iid_spec(rademacher(), n)
        rule = capped(first_passage_up(2.0), n)
        verify_detailed("L5.1", spec, rule=rule, mode="exact")
        block_bytes = CHUNK_PATHS * n * 8
        tracemalloc.start()
        try:
            report, _, _ = verify_detailed("L5.1", spec, rule=rule, mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == "PASS"
        assert peak < 4 * block_bytes, peak / block_bytes

    def test_exact_stopped_fold_peak_memory_over_many_blocks(self):
        """Exact L5.1 at n = 20 folds sixteen blocks of 10 MiB.  Each block,
        its probabilities and its (2n, block) statistic matrix are freed
        before the next is built, so the fold peaks near 3.3 blocks; keeping
        the previous block alive while building the next peaked near 5.4."""
        n = 20
        spec = iid_spec(rademacher(), n)
        rule = capped(first_passage_up(2.0), n)
        block_bytes = CHUNK_PATHS * n * 8
        tracemalloc.start()
        try:
            report, _, _ = verify_detailed("L5.1", spec, rule=rule, mode="exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.verdict == "PASS"
        assert peak < 4 * block_bytes, peak / block_bytes
