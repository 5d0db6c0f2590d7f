"""Generator families: sampling laws, exact moments, structural class,
and conversion to enumerable chains."""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demimart.core import CHUNK_PATHS, derive_stream, iter_chunks
from demimart.generators import (
    DiscreteChainSpec,
    _at_least,
    _bit_sums,
    _row_sums,
    _step_bits,
    GeneratorSpec,
    adversarial_spec,
    bernoulli,
    centered,
    classify,
    gaussian_assoc_spec,
    generate,
    increment_bound,
    iid_spec,
    mean_s1,
    path_min_bound,
    rademacher,
    sample_final_sums,
    sample_increments,
    sample_outcomes,
    sample_paths,
    shared_shock_spec,
    sigma_n_exact,
    step_log_mgf,
    step_mean,
    step_min,
    to_chain,
    uniform,
    v_n,
)
from demimart.oracle import fold_expectations, iter_blocks


class TestLaws:
    def test_rademacher_moments(self):
        law = rademacher()
        assert law.mean == 0.0
        assert law.second_moment == 1.0
        assert law.abs_bound == 1.0

    def test_bernoulli_moments(self):
        law = bernoulli(0.3)
        assert law.mean == pytest.approx(0.3)
        assert law.second_moment == pytest.approx(0.3)

    def test_uniform_moments(self):
        law = uniform(-1.0, 1.0)
        assert law.mean == 0.0
        assert law.second_moment == pytest.approx(1.0 / 3.0)

    def test_uniform_log_mgf_matches_quadrature(self):
        law = uniform(-0.5, 2.0)
        theta = 0.7
        xs = np.linspace(-0.5, 2.0, 200_001)
        numeric = math.log(np.trapezoid(np.exp(theta * xs), xs) / 2.5)
        assert law.log_mgf(theta) == pytest.approx(numeric, rel=1e-9)

    def test_degenerate_bernoulli_support_drops_zero_atom(self):
        assert bernoulli(0.0).support() == [(0.0, 1.0)]
        assert bernoulli(1.0).support() == [(1.0, 1.0)]


# p = 0 and 1 draw no word (k = 0), p = 1/2 one level (k = 1), 1/4 and 3/4
# two, 0.3 52; 1/3, 2**-53 and 1 - 2**-53 (the laws one step from 0 and
# from 1) take 53
_LATTICE_LAWS = [rademacher()] + [
    bernoulli(p) for p in (0.0, 1.0, 0.5, 0.25, 0.75, 0.3, 1 / 3, 2.0**-53, 1.0 - 2.0**-53)
]


def _reference_draw(law, rng, shape):
    """Reference: a Bernoulli(p) step is 1 with probability a / 2**k =
    ceil(p * 2**53) / 2**53 in lowest terms; the rows take ceil(rows / 64)
    blocks of k levels of ``cols`` words, and step (p, j) is 1 exactly when
    U >= 2**k - a, U the k-bit number whose i-th most significant bit is
    bit p % 64 of raw word (p // 64, i, j).  Rademacher step (p, j) is +1
    exactly when bit p % 64 of raw word (p // 64, j) is set, the rows
    taking ceil(rows / 64) blocks of ``cols`` words in turn."""
    rows, cols = shape
    if law.name == "bernoulli":
        q = Fraction(math.ceil(law.p * 2**53), 2**53)
        a, k = q.numerator, q.denominator.bit_length() - 1
        words = rng.bit_generator.random_raw((-(-rows // 64), k, cols))
        lane = np.arange(rows, dtype=np.uint64)[:, None] % np.uint64(64)
        u = np.zeros(shape, dtype=np.int64)
        for i in range(k):
            u = 2 * u + (words[np.arange(rows) // 64, i] >> lane & np.uint64(1)).astype(np.int64)
        return (u >= 2**k - a).astype(np.int8)
    words = rng.bit_generator.random_raw((-(-rows // 64), cols))
    out = np.empty(shape, dtype=np.int8)
    for p, j in itertools.product(range(rows), range(cols)):
        out[p, j] = 1 if int(words[p // 64, j]) >> (p % 64) & 1 else -1
    return out


def _plain(state):
    """A bit generator state with its arrays as lists, so states compare with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


class TestSampling:
    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=1000),
        st.booleans(),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(_LATTICE_LAWS) - 1),
                st.one_of(st.integers(min_value=0, max_value=9), st.sampled_from([63, 64, 130])),
                st.integers(min_value=1, max_value=13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_lattice_draws_follow_the_raw_word_layout(self, seed, chunk, pending, draws):
        """Bernoulli draws follow the k-level layout, Rademacher draws the
        pinned one-bit layout (Bernoulli(1/2)'s at k = 1), and both leave
        the generator where the reference's words leave it, ceil(rows / 64)
        * k * cols words on, also when a half-word of numpy's uint32 buffer
        is pending."""
        rng, twin = derive_stream(seed, chunk), derive_stream(seed, chunk)
        if pending:  # one uint32 leaves the high half of a word pending
            assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(
                0, 2**32, dtype=np.uint32
            )
        for law_index, rows, cols in draws:
            law = _LATTICE_LAWS[law_index]
            got = law.values(law.draw_rows(rng, rows, cols)).T
            want = _reference_draw(law, twin, (rows, cols))
            assert got.dtype == want.dtype == np.int8
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert _plain(rng.bit_generator.state) == _plain(twin.bit_generator.state)
        assert rng.random() == twin.random()

    def test_bit_sliced_compare_is_exhaustive(self):
        """For every k <= 6 and odd a < 2**k, level words whose 64 lanes run
        through every k-bit U give exactly the lanes with U >= 2**k - a; at
        k = 0 a threshold of 1 (p = 0) takes no lane and 0 (p = 1) all."""
        for k in range(7):
            u = [lane % 2**k for lane in range(64)]
            levels = np.array(
                [[[sum(1 << lane for lane in range(64) if u[lane] >> (k - 1 - i) & 1)]]
                 for i in range(k)],
                dtype=np.uint64,
            ).reshape(1, k, 1)
            for t in [2**k - a for a in range(1, 2**k, 2)] + ([0, 1] if k == 0 else []):
                want = sum(1 << lane for lane in range(64) if u[lane] >= t)
                assert int(_at_least(levels.copy(), t)[0, 0]) == want, (k, t)

    def test_lattice_draws_refuse_32_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(1))
        for law in (rademacher(), bernoulli(0.3)):
            with pytest.raises(TypeError, match="64-bit"):
                law.values(law.draw_rows(rng, 2, 3)).T

    def test_shared_shocks_refuse_generators_that_cannot_jump(self):
        """A shared shock is drawn from a jumped stream; SFC64 has no
        ``jumped``, so it is refused by name, though its lattice draws work."""
        sfc = lambda: np.random.Generator(np.random.SFC64(1))  # noqa: E731
        for law in (rademacher(), uniform(-1.0, 1.0)):
            spec = shared_shock_spec(law, law, 4)
            for sampler in (sample_paths, sample_final_sums):
                with pytest.raises(TypeError, match="can jump, not SFC64"):
                    sampler(spec, 3, sfc())
        assert sample_paths(iid_spec(rademacher(), 4), 3, sfc()).shape == (3, 4)
        mt = np.random.Generator(np.random.MT19937(1))
        spec = shared_shock_spec(uniform(-1.0, 1.0), uniform(-1.0, 1.0), 4)
        assert sample_paths(spec, 3, mt).shape == (3, 4)

    def test_rademacher_path_support_and_parity(self):
        spec = iid_spec(rademacher(), 3)
        path = generate(spec, 1, seed=5)[0]
        assert set(np.diff(path, prepend=0.0)).issubset({-1.0, 1.0})
        assert abs(path[-1]) <= 3
        assert int(path[-1]) % 2 == 1  # S_3 has the parity of 3

    def test_regeneration_is_bit_identical(self):
        spec = shared_shock_spec(rademacher(), bernoulli(0.4), 5)
        a = generate(spec, 1000, seed=9)
        b = generate(spec, 1000, seed=9)
        assert a.shape == (1000, 5)
        assert np.array_equal(a, b)

    def test_centered_bernoulli_mean_zero_self_check(self):
        """Monte-Carlo self check: centered partial sums average to zero."""
        spec = centered(iid_spec(bernoulli(0.5), 8))
        s_n = generate(spec, 100_000, seed=11)[:, -1]
        stderr = s_n.std(ddof=1) / math.sqrt(len(s_n))
        assert abs(s_n.mean()) <= 3.0 * stderr

    def test_adversarial_projection_is_minus_one(self):
        """E[(S_2 - S_1) S_1] = -E X_1^2 = -1 for the sign-flip family."""
        (value,) = fold_expectations(
            to_chain(adversarial_spec(2)), lambda p: [(p[:, 1] - p[:, 0]) * p[:, 0]]
        )
        assert value == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            centered(iid_spec(bernoulli(0.3), 6)),
            centered(shared_shock_spec(bernoulli(0.3), bernoulli(0.6), 5), offset=0.5),
        ],
    )
    def test_centered_lattice_paths_are_oracle_outcomes(self, spec):
        """Every sampled path of a centered lattice family equals one of the
        oracle's enumerated paths bit for bit, at every step."""
        outcomes = {row.tobytes() for p, _ in iter_blocks(to_chain(spec)) for row in p}
        paths = sample_paths(spec, 2000, derive_stream(8, 0))
        assert all(row.tobytes() in outcomes for row in paths)

    def test_moving_sum_increments_are_windowed_sums(self):
        spec = GeneratorSpec("moving_sum", 4, law=rademacher(), weights=(1.0, 0.5))
        paths = sample_paths(spec, 3, derive_stream(3, 0))
        inc = np.diff(paths, prepend=0.0, axis=1)
        # every increment lies in the reachable set of w0 y0 + w1 y1
        reachable = {1.5, 0.5, -0.5, -1.5}
        assert set(np.round(inc.ravel(), 6)).issubset(reachable)

    def test_gaussian_diagonal_reduces_to_independent(self):
        """Diagonal covariance: sample increment covariance has no cross terms."""
        n = 4
        spec = gaussian_assoc_spec(np.eye(n), n)
        paths = sample_paths(spec, 200_000, derive_stream(13, 0))
        inc = np.diff(paths, prepend=0.0, axis=1)
        cov = np.cov(inc.T)
        off = cov[~np.eye(n, dtype=bool)]
        # stderr of a sample correlation at this size is ~1/sqrt(N)
        assert np.all(np.abs(off) <= 3.0 / math.sqrt(paths.shape[0]))

    def test_gaussian_rejects_negative_entries_and_non_psd(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gaussian_assoc_spec(np.array([[1.0, -0.1], [-0.1, 1.0]]), 2)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="PSD"):
            gaussian_assoc_spec(bad, 2)

    def test_gaussian_horizon_is_fixed_by_its_covariance(self):
        """A Gaussian spec keeps its horizon only; the covariance-shape check
        refuses any other, centered or not."""
        spec = gaussian_assoc_spec(np.eye(3), 3)
        for s in (spec, centered(spec)):
            assert replace(s, horizon=3) == s
            with pytest.raises(ValueError, match=r"covariance must be \(horizon, horizon\)"):
                replace(s, horizon=4)
        longer = replace(centered(iid_spec(rademacher(), 3)), horizon=5)
        assert longer.centered and longer.horizon == 5

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=1000),
        st.one_of(
            st.integers(min_value=1, max_value=150), st.sampled_from([255, 256, 300])
        ),
        st.sampled_from(["rademacher", "bernoulli", "shock", "bernoulli shock"]),
        st.sampled_from([0.3, 0.5, 0.25, 0.0, 1.0]),
        st.sampled_from([0.0, 1.5]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_final_sums_equal_last_column(
        self, seed, chunk, n, family, p, offset, center, pending
    ):
        """Same draws, same S_n: integer lattices sum exactly either way, and
        a centered family subtracts the same n * mean from the same sum.  The
        iid bit count (K for Bernoulli(p), 2K - n for Rademacher) switches
        from uint8 to int64 at n = 256, and both builds leave the generator
        in the same state, also when an earlier draw left half a raw word
        pending."""
        law = bernoulli(p) if family.startswith("bernoulli") else rademacher()
        if family.endswith("shock"):
            spec = shared_shock_spec(law, rademacher(), n)
        else:
            spec = iid_spec(law, n)
        spec = centered(spec, offset=offset) if center else replace(spec, offset=offset)
        rng_paths, rng_sums = derive_stream(seed, chunk), derive_stream(seed, chunk)
        if pending:
            for rng in (rng_paths, rng_sums):
                rng.integers(0, 2, size=1, dtype=np.int8)
                assert rng.bit_generator.state["has_uint32"]
        paths = sample_paths(spec, 300, rng_paths)
        s_n = sample_final_sums(spec, 300, rng_sums)
        assert s_n.dtype == np.float64
        assert np.array_equal(s_n, paths[:, -1])
        assert s_n.tobytes() == np.ascontiguousarray(paths[:, -1]).tobytes()
        assert repr(rng_sums.bit_generator.state) == repr(rng_paths.bit_generator.state)
        assert rng_sums.random() == rng_paths.random()

    @pytest.mark.parametrize("n", [255, 256, 300])
    @pytest.mark.parametrize("value", [127, -128])
    def test_row_sums_exact_at_the_int16_boundary(self, n, value):
        """int8 steps sum exactly, past where an int8 or int16 sum would wrap."""
        inc = np.full((3, n), value, dtype=np.int8)
        got = _row_sums(inc)
        assert got.dtype == np.float64
        assert np.array_equal(got, inc.sum(axis=1, dtype=np.int64).astype(np.float64))

    @pytest.mark.parametrize("n", [255, 256, 300])
    @pytest.mark.parametrize("byte, step", [(0xFF, 1.0), (0x80, 1.0), (0x7F, -1.0)])
    def test_top_bit_counts_exact_at_the_uint8_boundary(self, n, byte, step):
        """Counting a path's set step bits in a narrow integer type never
        wraps, and each path counts its own bit only: with every byte of
        the raw words equal, path p steps up exactly when bit p % 8 of that
        byte is set, so paths 7, 15, ... take the top bit (``step``)."""
        words = np.full((3, n), byte * 0x0101010101010101, dtype=np.uint64)
        got = _bit_sums(_step_bits(words, 130), rademacher())
        assert got.dtype == np.float64
        want = [n if byte >> (p % 8) & 1 else -n for p in range(130)]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert set(got[7::8]) == {step * n}

    @pytest.mark.parametrize("n", [255, 256, 300])
    def test_bernoulli_bit_counts_are_the_sums(self, n):
        """A Bernoulli path's S_n is its count of set step bits, n or 0 here,
        also past the uint8 limit."""
        words = np.full((3, n), 0x0F * 0x0101010101010101, dtype=np.uint64)
        got = _bit_sums(_step_bits(words, 130), bernoulli(0.5))
        want = [n if p % 8 < 4 else 0 for p in range(130)]
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_centering_refusals(self):
        """The sign flip has no single step mean to take off; a spec is
        centered once; an offset comes after centering, not before."""
        with pytest.raises(ValueError, match="cannot center adversarial_sign_flip"):
            centered(adversarial_spec(4))
        with pytest.raises(ValueError, match="cannot center adversarial_sign_flip"):
            GeneratorSpec("adversarial_sign_flip", 4, law=rademacher(), centered=True)
        with pytest.raises(ValueError, match="already centered"):
            centered(centered(iid_spec(bernoulli(0.3), 4)))
        with pytest.raises(ValueError, match="center the family first"):
            centered(iid_spec(bernoulli(0.3), 4, offset=1.0))
        spec = centered(iid_spec(bernoulli(0.3), 4), offset=1.0)
        assert spec.centered and spec.offset == 1.0
        assert spec.generator_id == "iid/n=4/law=bernoulli(0.3)/offset=1.0/centered"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            GeneratorSpec("brownian", 3)


class TestBitDraws:
    """The law of the paths built from k raw-word bits per lattice step."""

    LATTICE = {
        "iid rademacher": iid_spec(rademacher(), 16),
        "iid bernoulli": iid_spec(bernoulli(0.3), 9),
        "iid bernoulli 1/2": iid_spec(bernoulli(0.5), 12),
        "iid bernoulli 1/4": iid_spec(bernoulli(0.25), 9),
        "shared shock": shared_shock_spec(rademacher(), rademacher(), 6),
        "bernoulli base shock": shared_shock_spec(bernoulli(0.3), rademacher(), 5),
        "moving sum": GeneratorSpec("moving_sum", 8, law=rademacher(), weights=(1.0, 0.5)),
        "centered offset": centered(iid_spec(bernoulli(0.3), 10), offset=0.5),
        "sign flip": adversarial_spec(7),
    }

    @staticmethod
    def _stats(p):
        return [*p.T, p[:, -1] ** 2, (p[:, -1] >= 1.0).astype(np.float64), p[:, 0] * p[:, -1]]

    @pytest.mark.parametrize("name", sorted(LATTICE))
    def test_monte_carlo_means_match_the_exact_fold(self, name):
        """Each S_j, S_n^2, 1{S_n >= 1} and S_1 S_n averaged over 50 seeds of
        1,000 paths lies within 4 stderr of its exact expectation."""
        spec = self.LATTICE[name]
        exact = fold_expectations(to_chain(spec), self._stats)
        paths = np.vstack([sample_paths(spec, 1000, derive_stream(seed, 0)) for seed in range(50)])
        rows = np.array(self._stats(paths))
        stderr = rows.std(axis=1, ddof=1) / math.sqrt(rows.shape[1])
        assert np.all(np.abs(rows.mean(axis=1) - exact) <= 4.0 * stderr + 1e-12)

    @staticmethod
    def _chi_square_binomial(law, q, to_k):
        """K = to_k(S_100) over 2^20 paths of iid ``law`` against
        Binomial(100, q): a chi-square test, tails pooled into cells of >= 50
        expected paths, at the Wilson-Hilferty 1 - 1e-4 quantile."""
        n = 100
        counts = np.zeros(n + 1)
        for s in iter_chunks(sample_final_sums, iid_spec(law, n), 16 * CHUNK_PATHS, 77):
            k = to_k(s)
            assert np.array_equal(k, np.round(k))
            counts += np.bincount(k.astype(np.int64), minlength=n + 1)
        pmf = np.array([math.comb(n, k) * q**k * (1 - q) ** (n - k) for k in range(n + 1)])
        expected = counts.sum() * pmf
        keep = expected >= 50
        mode = int(np.argmax(pmf))
        lo, hi = ~keep & (np.arange(n + 1) < mode), ~keep & (np.arange(n + 1) > mode)
        obs = [counts[lo].sum(), *counts[keep], counts[hi].sum()]
        exp = [expected[lo].sum(), *expected[keep], expected[hi].sum()]
        chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp))
        df = len(obs) - 1
        z = NormalDist().inv_cdf(1 - 1e-4)
        assert chi2 <= df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3

    def test_final_sums_are_binomial(self):
        """Rademacher S_100 = 2K - 100 with K ~ Binomial(100, 1/2)."""
        self._chi_square_binomial(rademacher(), 0.5, lambda s: (s + 100) / 2)

    def test_bernoulli_final_sums_are_binomial(self):
        """Bernoulli(0.3) S_100 = K ~ Binomial(100, ceil(0.3 * 2**53) / 2**53),
        its 52-level steps counted straight from their bits."""
        q = math.ceil(0.3 * 2**53) / 2**53
        self._chi_square_binomial(bernoulli(0.3), q, lambda s: s)

    @pytest.mark.parametrize(
        "spec",
        [
            iid_spec(rademacher(), 20),
            iid_spec(bernoulli(0.5), 20),
            iid_spec(bernoulli(0.25), 20),
            GeneratorSpec("moving_sum", 9, law=rademacher(), weights=(1.0, 0.0, 0.5)),
            adversarial_spec(5),
            centered(iid_spec(bernoulli(0.3), 7), offset=1.0),
            shared_shock_spec(rademacher(), rademacher(), 6),
            shared_shock_spec(bernoulli(0.3), rademacher(), 6),
            shared_shock_spec(rademacher(), bernoulli(0.5), 6),
            centered(shared_shock_spec(bernoulli(0.3), uniform(0.0, 1.0), 5), offset=0.5),
        ],
        ids=["iid", "bernoulli 1/2", "bernoulli 1/4", "moving sum", "sign flip", "bernoulli", "shock", "bernoulli base shock",
             "bernoulli shock", "centered uniform shock"],
    )
    def test_a_path_does_not_depend_on_the_chunk_size(self, spec):
        """A path's steps depend on (seed, chunk, row, horizon) only, so the
        first 300 paths of a 300-path and of a 1,000-path chunk agree; a
        shared shock too, drawn from its own jumped stream."""
        few = sample_paths(spec, 300, derive_stream(4, 9))
        many = sample_paths(spec, 1000, derive_stream(4, 9))
        assert np.ascontiguousarray(few).tobytes() == np.ascontiguousarray(many[:300]).tobytes()
        few = sample_final_sums(spec, 300, derive_stream(4, 9))
        assert few.tobytes() == sample_final_sums(spec, 1000, derive_stream(4, 9))[:300].tobytes()


def _cumsum_paths(spec, n_paths, rng):
    """The row-major reference build: ``np.cumsum`` along each path of the
    same increments, with the centered and offset rules of ``sample_paths``."""
    inc = sample_increments(spec, n_paths, rng)
    s = np.cumsum(inc, axis=1, dtype=np.float64)
    if spec.centered:
        s -= step_mean(replace(spec, centered=False)) * np.arange(1, spec.horizon + 1)
    if spec.offset:
        s += spec.offset
    return s


class TestTimeMajorPaths:
    """``sample_paths`` builds S_j one contiguous row per step and returns
    the column-major transpose; the values are the row-major cumsum's."""

    SPECS = {
        "iid rademacher": iid_spec(rademacher(), 9),
        "iid bernoulli": iid_spec(bernoulli(0.3), 12),
        "iid uniform": iid_spec(uniform(-0.5, 2.0), 7),
        "shared shock": shared_shock_spec(rademacher(), bernoulli(0.6), 10),
        "moving sum": GeneratorSpec("moving_sum", 8, law=bernoulli(0.5), weights=(1.0, 0.5)),
        "gaussian": gaussian_assoc_spec(np.full((6, 6), 0.3) + 0.7 * np.eye(6), 6),
        "centered": centered(iid_spec(bernoulli(0.3), 10)),
        "centered shock offset": centered(
            shared_shock_spec(bernoulli(0.3), uniform(0.0, 1.0), 5), offset=0.5
        ),
        "adversarial": adversarial_spec(6),
        "offset": iid_spec(rademacher(), 20, offset=-1.25),
        # int16 running sums, and sure steps that reach the int8 limit 127
        # and pass it
        "iid rademacher n=130": iid_spec(rademacher(), 130),
        "sure steps n=127": iid_spec(bernoulli(1.0), 127),
        "sure steps n=128": iid_spec(bernoulli(1.0), 128),
        "moving sum uniform": GeneratorSpec(
            "moving_sum", 12, law=uniform(-1.0, 1.0), weights=(1.0, 0.0, 0.5)
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        chunk=st.integers(min_value=0, max_value=1000),
        m=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=15, deadline=None)
    def test_equals_the_cumsum_build_bit_for_bit(self, name, seed, chunk, m):
        spec = self.SPECS[name]
        got = sample_paths(spec, m, derive_stream(seed, chunk))
        want = _cumsum_paths(spec, m, derive_stream(seed, chunk))
        assert got.shape == want.shape == (m, spec.horizon)
        assert got.dtype == np.float64
        assert got.flags.f_contiguous
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()

    def test_each_step_is_a_contiguous_column(self):
        paths = sample_paths(self.SPECS["moving sum"], 1000, derive_stream(2, 0))
        assert paths.strides == (8, 8 * 1000)
        assert all(paths[:, j].flags.c_contiguous for j in range(paths.shape[1]))


class TestMoments:
    def test_v_n_iid(self):
        assert v_n(iid_spec(rademacher(), 10)) == pytest.approx(10.0)

    def test_v_n_shared_shock(self):
        # E (B + W)^2 = 1 + 1 = 2 per step for centered unit laws
        spec = shared_shock_spec(rademacher(), rademacher(), 7)
        assert v_n(spec) == pytest.approx(14.0)

    def test_v_n_centered_gaussian_is_the_gaussians(self):
        # Gaussian steps are mean zero, so centering leaves V_n = trace + offset^2
        cov = np.full((4, 4), 0.25) + np.diag([1.0, 0.5, 2.0, 0.75])
        for offset in (0.0, 1.5):
            got = v_n(centered(gaussian_assoc_spec(cov, 4), offset))
            assert got == v_n(gaussian_assoc_spec(cov, 4, offset))
            assert got == pytest.approx(float(np.trace(cov)) + offset * offset)

    def test_sigma_n_shared_shock_closed_form(self):
        n = 6
        spec = shared_shock_spec(rademacher(), rademacher(), n)
        assert sigma_n_exact(spec) == pytest.approx(math.sqrt(n + n * n))

    def test_sigma_matches_sample(self):
        spec = shared_shock_spec(rademacher(), bernoulli(0.3), 5)
        s_n = generate(spec, 200_000, seed=21)[:, -1]
        sample = math.sqrt(np.mean(s_n * s_n))
        assert sigma_n_exact(spec) == pytest.approx(sample, rel=0.02)

    def test_increment_bound_composes(self):
        assert increment_bound(shared_shock_spec(rademacher(), rademacher(), 3)) == 2.0
        assert increment_bound(centered(iid_spec(bernoulli(0.25), 3))) == pytest.approx(1.25)
        assert increment_bound(gaussian_assoc_spec(np.eye(3), 3)) is None

    def test_mean_s1_includes_offset(self):
        assert mean_s1(iid_spec(rademacher(), 4, offset=2.5)) == 2.5
        assert mean_s1(iid_spec(bernoulli(0.5), 4)) == 0.5

    def test_path_min_bound(self):
        assert path_min_bound(iid_spec(rademacher(), 4, offset=4.0)) == 0.0
        assert path_min_bound(iid_spec(bernoulli(0.5), 4, offset=1.0)) == 1.0

    def test_step_min(self):
        assert step_min(iid_spec(rademacher(), 4)) == -1.0
        assert step_min(iid_spec(bernoulli(0.5), 4)) == 0.0
        assert step_min(shared_shock_spec(bernoulli(0.5), rademacher(), 4)) == -1.0
        weighted = GeneratorSpec("moving_sum", 4, law=uniform(-1.0, 2.0), weights=(1.0, 0.5))
        assert step_min(weighted) == -1.5
        assert step_min(centered(iid_spec(bernoulli(0.25), 4))) == -0.25
        assert step_min(adversarial_spec(4)) == -1.0
        assert step_min(gaussian_assoc_spec(np.eye(4), 4)) is None

    def test_step_log_mgf_centered(self):
        spec = centered(iid_spec(bernoulli(0.5), 3))
        theta = 0.8
        want = -theta * 0.5 + math.log(0.5 + 0.5 * math.exp(theta))
        assert step_log_mgf(spec, theta) == pytest.approx(want, rel=1e-12)


class TestClassify:
    def test_rademacher_is_demimartingale(self):
        cls = classify(iid_spec(rademacher(), 5))
        assert cls.demimartingale and cls.demisubmartingale
        assert cls.mean_zero_process

    def test_offset_keeps_projection_property_but_not_mean_zero(self):
        cls = classify(iid_spec(rademacher(), 5, offset=5.0))
        assert cls.demimartingale
        assert not cls.mean_zero_process
        assert not cls.identically_distributed

    def test_bernoulli_is_only_demisubmartingale(self):
        cls = classify(iid_spec(bernoulli(0.5), 5))
        assert not cls.demimartingale
        assert cls.demisubmartingale

    def test_centered_gaussian_keeps_its_unequal_variances(self):
        """Centering a mean-zero Gaussian changes nothing, so unequal variances
        still mean the increments are not identically distributed."""
        gauss = gaussian_assoc_spec(np.diag([2.0, 1.0, 1.0, 1.0]), 4)
        assert classify(centered(gauss)) == classify(gauss)
        assert not classify(centered(gauss)).identically_distributed

    def test_adversarial_is_neither(self):
        cls = classify(adversarial_spec(4))
        assert not cls.demimartingale
        assert not cls.demisubmartingale
        assert not cls.associated


class TestToChain:
    def test_rademacher_chain_counts(self):
        chain = to_chain(iid_spec(rademacher(), 3))
        assert chain.atoms == (((-1.0,), 0.5), ((1.0,), 0.5))
        assert chain.steps == (0, 1, 2)
        assert chain.outcome_count == 8

    def test_shared_shock_chain_counts(self):
        chain = to_chain(shared_shock_spec(rademacher(), rademacher(), 2))
        assert chain.outcome_count == 8  # 2^2 increments x 2 shared values

    def test_sign_flip_is_one_draw(self):
        chain = to_chain(adversarial_spec(3))
        assert chain.atoms == (((-1.0, 1.0, -1.0), 0.5), ((1.0, -1.0, 1.0), 0.5))
        assert chain.steps == (0,) and chain.outcome_count == 2

    def test_moving_sum_draws_a_window_at_every_step(self):
        chain = to_chain(GeneratorSpec("moving_sum", 3, law=bernoulli(0.3), weights=(1.0, 0.5)))
        assert chain.atoms == (((0.0, 0.0), 0.7), ((1.0, 0.5), 0.3))
        assert chain.steps == (-1, 0, 1, 2) and chain.outcome_count == 16

    def test_continuous_families_not_enumerable(self):
        with pytest.raises(ValueError, match="not enumerable"):
            to_chain(iid_spec(uniform(0.0, 1.0), 3))
        with pytest.raises(ValueError, match="not enumerable"):
            to_chain(gaussian_assoc_spec(np.eye(3), 3))
        with pytest.raises(ValueError, match="not enumerable"):
            to_chain(GeneratorSpec("moving_sum", 3, law=uniform(0.0, 1.0), weights=(1.0,)))

    def test_centered_chain_carries_drift(self):
        chain = to_chain(centered(iid_spec(bernoulli(0.5), 4)))
        assert chain.drift == pytest.approx(0.5)

    def test_enumeration_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            DiscreteChainSpec(
                atoms=(((-1.0,), 0.5), ((1.0,), 0.5)), steps=tuple(range(25)), horizon=25
            )

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteChainSpec(atoms=(((0.0,), 0.4), ((1.0,), 0.4)), steps=(0, 1), horizon=2)

    def test_atom_rows_share_one_length(self):
        with pytest.raises(ValueError, match="one length"):
            DiscreteChainSpec(atoms=(((0.0,), 0.5), ((1.0, 1.0), 0.5)), steps=(0,), horizon=2)

    @pytest.mark.parametrize("law", [rademacher(), bernoulli(0.3)], ids=["rademacher", "bernoulli"])
    @pytest.mark.parametrize(
        "weights",
        [(2.0,), (1.0, 0.5), (0.0, 1.0, 0.5), (1.0, 0.0, 0.0, 2.0)],
        ids=["w1", "w2", "w3-zero-first", "w4-zeros"],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_moving_sum_enumeration_equals_brute_force(self, n, weights, law):
        """Every vector of the n + q window draws y, in lexicographic order,
        gives X_i = sum_k w_k y_(i+q-k) with probability prod p(y): the
        enumerated paths and probabilities, windows longer than the horizon
        included."""
        q = len(weights) - 1
        support = law.support()
        want_paths, want_probs = [], []
        for draws in itertools.product(support, repeat=n + q):
            y = [v for v, _ in draws]
            x = [sum(w * y[i + q - k] for k, w in enumerate(weights)) for i in range(n)]
            want_paths.append(np.cumsum(x))
            want_probs.append(math.prod(p for _, p in draws))
        chain = to_chain(GeneratorSpec("moving_sum", n, law=law, weights=weights))
        blocks = list(iter_blocks(chain, block=64))
        paths = np.vstack([p for p, _ in blocks])
        probs = np.concatenate([p for _, p in blocks])
        assert chain.outcome_count == len(want_probs)
        np.testing.assert_allclose(paths, np.array(want_paths), rtol=0, atol=1e-12)
        np.testing.assert_allclose(probs, want_probs, rtol=0, atol=1e-12)


# families whose chain has few outcomes, with an offset where a start point
# matters, and windows off a dyadic grid, where the order in which a step's
# draws are added shows in the last bits; each draws 200 paths, three full
# 64-path blocks and a partial one
_COUNTED = {
    "iid-rademacher": iid_spec(rademacher(), 6),
    "bernoulli-half": iid_spec(bernoulli(0.5), 6),
    "bernoulli-quarter": iid_spec(bernoulli(0.25), 6),
    "bernoulli-0.3": iid_spec(bernoulli(0.3), 6),
    "bernoulli-0": iid_spec(bernoulli(0.0), 6),
    "bernoulli-1": iid_spec(bernoulli(1.0), 6),
    "shared-shock": shared_shock_spec(bernoulli(0.3), rademacher(), 5),
    "moving-sum": GeneratorSpec("moving_sum", 6, law=rademacher(), weights=(1.0, 0.5)),
    "window-3": GeneratorSpec("moving_sum", 8, law=bernoulli(0.5), weights=(0.3, 0.7, 0.1)),
    "window-4": GeneratorSpec("moving_sum", 6, law=rademacher(), weights=(0.3, 0.7, 0.1, 0.9)),
    "window-past-horizon": GeneratorSpec(
        "moving_sum", 4, law=bernoulli(0.3), weights=(0.3, 0.7, 0.1, 0.9, 0.2, 0.6)
    ),
    "centered-window": centered(
        GeneratorSpec("moving_sum", 6, law=bernoulli(0.3), weights=(0.3, 0.0, 0.7)), offset=0.1
    ),
    "centered": centered(iid_spec(bernoulli(0.3), 6)),
    "centered-shock": centered(shared_shock_spec(rademacher(), bernoulli(0.3), 5), offset=2.0),
    "offset": iid_spec(bernoulli(0.25), 6, offset=-1.5),
    "sign-flip": adversarial_spec(6, bernoulli(0.3)),
}


# chains at the edges of the index's unsigned type, each with the least
# index its top digit gives: the largest counted chain (2^16 outcomes, all
# of uint16), a shock digit at 2^15, one past 16 bits (uint32), k-level
# Bernoulli digits, and a one-atom draw under a shock (its digit is 0)
_WIDTHS = {
    "rademacher-16": (iid_spec(rademacher(), 16), 2**15),
    "shock-15": (shared_shock_spec(rademacher(), rademacher(), 15), 2**15),
    "rademacher-17": (iid_spec(rademacher(), 17), 2**16),
    "bernoulli-0.3-16": (iid_spec(bernoulli(0.3), 16), 2**15),
    "bernoulli-1-shock": (shared_shock_spec(bernoulli(1.0), rademacher(), 6), 1),
}


def _sampled_outcomes(spec, m):
    """``sample_outcomes``' m indices, checked to pick from the full
    enumeration the very paths ``sample_paths`` draws from the same stream,
    bit for bit, with the generator left in the same state."""
    chain = to_chain(spec)
    rng, twin = derive_stream(17, 3), derive_stream(17, 3)
    idx = sample_outcomes(spec, m, rng)
    want = sample_paths(spec, m, twin)
    assert idx.dtype == np.int64 and idx.shape == (m,)
    assert idx.min() >= 0 and idx.max() < chain.outcome_count
    every = np.vstack([p for p, _ in iter_blocks(chain)])
    assert every[idx].view(np.int64).tolist() == want.view(np.int64).tolist()
    assert _plain(rng.bit_generator.state) == _plain(twin.bit_generator.state)
    return idx


class TestSampleOutcomes:
    """``sample_outcomes`` reads the draws of ``sample_paths`` as outcome
    indices of the chain, which ``iter_blocks`` turns back into the very
    paths sampled."""

    @pytest.mark.parametrize("label", sorted(_COUNTED))
    def test_each_index_is_the_sampled_path(self, label):
        _sampled_outcomes(_COUNTED[label], 200)

    @pytest.mark.parametrize("label", sorted(_WIDTHS))
    def test_index_width_boundaries(self, label):
        """1,000 paths (15 full 64-path blocks and a partial one) reach the
        top digit of each chain's index, and every index is still its
        sampled path."""
        spec, top = _WIDTHS[label]
        assert _sampled_outcomes(spec, 1000).max() >= top

    @pytest.mark.parametrize("label", sorted(_COUNTED))
    def test_indexed_blocks_are_the_enumerated_ones(self, label):
        """Blocks of chosen outcomes hold those outcomes' enumerated paths
        and probabilities bit for bit, across shared atoms too."""
        chain = to_chain(_COUNTED[label])
        blocks = list(iter_blocks(chain, block=16))
        every = np.vstack([p for p, _ in blocks])
        probs = np.concatenate([p for _, p in blocks])
        pick = np.unique(np.random.default_rng(5).integers(0, chain.outcome_count, 40))
        got = list(iter_blocks(chain, 16, pick))
        assert [len(p) for p, _ in got] == [len(pick[lo : lo + 16]) for lo in range(0, len(pick), 16)]
        paths = np.vstack([p for p, _ in got])
        assert paths.view(np.int64).tolist() == every[pick].view(np.int64).tolist()
        assert np.concatenate([p for _, p in got]).tolist() == probs[pick].tolist()

    def test_families_without_a_chain_are_refused(self):
        for spec in (iid_spec(uniform(-1.0, 1.0), 3), gaussian_assoc_spec(np.eye(3), 3)):
            with pytest.raises(ValueError, match="not enumerable"):
                sample_outcomes(spec, 4, derive_stream(0, 0))
