"""Generator families: sampling laws, exact moments, structural class,
and conversion to enumerable chains."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demimart.core import derive_stream
from demimart.generators import (
    DiscreteChainSpec,
    _row_sums,
    GeneratorSpec,
    _inner_step_mean,
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
    sample_paths,
    shared_shock_spec,
    sigma_n_exact,
    step_log_mgf,
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


_LATTICE_LAWS = [rademacher()] + [bernoulli(p) for p in (0.0, 1.0, 0.3, 0.5, 1 / 3)]


def _numpy_draw(law, rng, shape):
    """Reference: the lattice draws through numpy's Generator API."""
    if law.name == "rademacher":
        return rng.integers(0, 2, size=shape, dtype=np.int8) * np.int8(2) - np.int8(1)
    return (rng.random(size=shape) < law.p).astype(np.int8)


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
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=1, max_value=13),
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_lattice_draws_equal_numpy_draws(self, seed, chunk, pending, draws):
        """Raw-word lattice draws give numpy's values and leave the generator
        in numpy's state, also when a half-word is pending before a draw."""
        rng, twin = derive_stream(seed, chunk), derive_stream(seed, chunk)
        if pending:  # one uint32 leaves the high half of a word pending
            assert rng.integers(0, 2**32, dtype=np.uint32) == twin.integers(
                0, 2**32, dtype=np.uint32
            )
        for law_index, rows, cols in draws:
            law = _LATTICE_LAWS[law_index]
            got = law.sample(rng, (rows, cols))
            want = _numpy_draw(law, twin, (rows, cols))
            assert got.dtype == want.dtype == np.int8
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert _plain(rng.bit_generator.state) == _plain(twin.bit_generator.state)
        assert rng.random() == twin.random()

    def test_lattice_draws_refuse_32_bit_generators(self):
        rng = np.random.Generator(np.random.MT19937(1))
        for law in (rademacher(), bernoulli(0.3)):
            with pytest.raises(TypeError, match="64-bit"):
                law.sample(rng, (2, 3))

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

    @given(
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=1, max_value=150),
        st.sampled_from(["rademacher", "bernoulli", "shock", "bernoulli shock"]),
        st.sampled_from([0.0, 1.5]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_final_sums_equal_last_column(self, seed, chunk, n, family, offset, center):
        """Same draws, same S_n: integer lattices sum exactly either way, and
        a centered family subtracts the same n * mean from the same sum."""
        law = bernoulli(0.3) if family.startswith("bernoulli") else rademacher()
        if family.endswith("shock"):
            spec = shared_shock_spec(law, rademacher(), n)
        else:
            spec = iid_spec(law, n)
        spec = centered(spec, offset=offset) if center else replace(spec, offset=offset)
        paths = sample_paths(spec, 300, derive_stream(seed, chunk))
        s_n = sample_final_sums(spec, 300, derive_stream(seed, chunk))
        assert s_n.dtype == np.float64
        assert np.array_equal(s_n, paths[:, -1])

    @pytest.mark.parametrize("n", [255, 256, 300])
    @pytest.mark.parametrize("value", [127, -128])
    def test_row_sums_exact_at_the_int16_boundary(self, n, value):
        """int8 steps summed in a narrow integer type never overflow."""
        inc = np.full((3, n), value, dtype=np.int8)
        got = _row_sums(inc)
        assert got.dtype == np.float64
        assert np.array_equal(got, inc.sum(axis=1, dtype=np.int64).astype(np.float64))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            GeneratorSpec("brownian", 3)


def _cumsum_paths(spec, n_paths, rng):
    """The row-major reference build: ``np.cumsum`` along each path of the
    same increments, with the centered and offset rules of ``sample_paths``."""
    if spec.family == "centered_partial_sum":
        s = _cumsum_paths(spec.inner, n_paths, rng)
        s -= _inner_step_mean(spec.inner) * np.arange(1, spec.horizon + 1)
    else:
        s = np.cumsum(sample_increments(spec, n_paths, rng), axis=1, dtype=np.float64)
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

    def test_adversarial_is_neither(self):
        cls = classify(adversarial_spec(4))
        assert not cls.demimartingale
        assert not cls.demisubmartingale
        assert not cls.associated


class TestToChain:
    def test_rademacher_chain_counts(self):
        chain = to_chain(iid_spec(rademacher(), 3))
        assert chain.increment_support == ((-1.0, 0.5), (1.0, 0.5))
        assert chain.outcome_count == 8

    def test_shared_shock_chain_counts(self):
        chain = to_chain(shared_shock_spec(rademacher(), rademacher(), 2))
        assert chain.outcome_count == 8  # 2^2 increments x 2 shared values

    def test_continuous_families_not_enumerable(self):
        with pytest.raises(ValueError, match="not enumerable"):
            to_chain(iid_spec(uniform(0.0, 1.0), 3))
        with pytest.raises(ValueError, match="not enumerable"):
            to_chain(gaussian_assoc_spec(np.eye(3), 3))

    def test_centered_chain_carries_drift(self):
        chain = to_chain(centered(iid_spec(bernoulli(0.5), 4)))
        assert chain.drift == pytest.approx(0.5)

    def test_enumeration_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            DiscreteChainSpec(
                increment_support=((-1.0, 0.5), (1.0, 0.5)), horizon=25
            )

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteChainSpec(increment_support=((0.0, 0.4), (1.0, 0.4)), horizon=2)
