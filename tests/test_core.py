"""Randomness contract, the chunk iterator, summary statistics, and
domain-type invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demimart.core import (
    CHUNK_PATHS,
    TILE_BYTES,
    RunningStats,
    SummaryStats,
    VerificationReport,
    derive_stream,
    iter_chunks,
    summarize,
    tile_paths,
)
from demimart.generators import generate, iid_spec, rademacher


class TestDeriveStream:
    def test_same_key_reproduces_bits(self):
        a = derive_stream(42, 0).bytes(64)
        b = derive_stream(42, 0).bytes(64)
        assert a == b

    def test_distinct_chunks_diverge_immediately(self):
        """First 64 output bits differ between chunk 0 and chunk 1."""
        a = derive_stream(42, 0).bytes(8)
        b = derive_stream(42, 1).bytes(8)
        assert a != b

    def test_zero_seed_is_not_special(self):
        g = derive_stream(0, 0)
        assert g.random() != derive_stream(0, 1).random()

    def test_negative_chunk_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(1, -1)

    def test_distinct_seeds_diverge(self):
        assert derive_stream(1, 0).bytes(8) != derive_stream(2, 0).bytes(8)


class TestSummarize:
    def test_constant_sample(self):
        s = summarize([1.0, 1.0, 1.0])
        assert s.mean == 1.0
        assert s.stderr == 0.0
        assert s.count == 3

    def test_two_point_sample(self):
        # sd = sqrt(2), stderr = sqrt(2)/sqrt(2) = 1
        s = summarize([0.0, 2.0])
        assert s.mean == pytest.approx(1.0)
        assert s.stderr == pytest.approx(1.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            summarize([])

    def test_single_point_gets_inf_sentinel(self):
        s = summarize([3.5])
        assert s.mean == 3.5
        assert math.isinf(s.stderr)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            summarize([1.0, math.nan])


class TestRunningStats:
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=2,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunked_matches_whole(self, xs, cut):
        """Merging chunk statistics reproduces the one-shot summary."""
        arr = np.array(xs)
        k = cut % len(arr)
        a, b = RunningStats(), RunningStats()
        a.update(arr[:k])
        b.update(arr[k:])
        a.merge(b)
        whole = summarize(arr)
        got = a.to_summary()
        assert got.count == whole.count
        assert got.mean == pytest.approx(whole.mean, rel=1e-12, abs=1e-12)
        if math.isfinite(whole.stderr):
            assert got.stderr == pytest.approx(whole.stderr, rel=1e-9, abs=1e-12)

    def test_merge_order_independent(self):
        rng = np.random.default_rng(0)
        chunks = [rng.normal(size=50) for _ in range(4)]
        fwd, rev = RunningStats(), RunningStats()
        for c in chunks:
            fwd.update(c)
        for c in reversed(chunks):
            rev.update(c)
        assert fwd.to_summary().mean == pytest.approx(rev.to_summary().mean, rel=1e-12)
        assert fwd.to_summary().stderr == pytest.approx(rev.to_summary().stderr, rel=1e-12)

    @staticmethod
    def _row_by_row(stats):
        """The reference: each row's mean, then its summed squared deviations."""
        rows = [np.asarray(row, dtype=np.float64) for row in stats]
        means = np.array([row.mean() for row in rows])
        m2 = np.array([np.square(row - mu).sum() for row, mu in zip(rows, means)])
        return means, m2

    @classmethod
    def _assert_blocks_equal_rows(cls, stats):
        """K rows are reduced in blocks of rows, from a matrix or from a
        list of vectors; both must equal the row-by-row reduction bit for bit."""
        means, m2 = cls._row_by_row(stats)
        for given_rows in (stats, list(stats)):
            acc = RunningStats()
            acc.update(given_rows)
            assert acc.count == len(stats[0])
            assert acc.mean.tobytes() == means.tobytes()
            assert acc.m2.tobytes() == m2.tobytes()

    @staticmethod
    def _normal_rows(k, m, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(rng.normal(0.0, 3.0, (k, 1)), 2.0, (k, m))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_row_blocks_equal_the_row_loop_bit_for_bit(self, data):
        k = data.draw(st.integers(1, 600), label="K")
        m = data.draw(st.integers(2, min(70_000, 4_000_000 // k)), label="m")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        self._assert_blocks_equal_rows(self._normal_rows(k, m, seed))

    @pytest.mark.parametrize("k, m", [(300, 1_000), (600, 6_000), (5, 65_536), (1, 70_000)])
    def test_last_partial_block_is_reduced(self, k, m):
        """Shapes whose K is not a whole number of 1 MiB row blocks."""
        self._assert_blocks_equal_rows(self._normal_rows(k, m, seed=k + m))

    def test_rows_of_any_layout_or_dtype_equal_the_row_loop(self):
        ints = np.random.default_rng(1).integers(-9, 9, (40, 6_000))
        floats = np.random.default_rng(2).normal(size=(40, 6_000))
        for stats in (ints, np.asfortranarray(ints), floats[:, ::2], np.asfortranarray(floats)):
            self._assert_blocks_equal_rows(stats)
        # a list may mix dtypes, as statistic functions hand back
        self._assert_blocks_equal_rows([floats[0], floats[1] > 0, ints[2]])

    def test_single_vector_equals_its_row_reduction(self):
        x = self._normal_rows(1, 5_000, seed=3)[0]
        means, m2 = self._row_by_row([x])
        for given in (x, list(x), x[::-1][::-1]):
            acc = RunningStats()
            acc.update(given)
            assert acc.count == 5_000
            assert (acc.mean, acc.m2) == (means[0], m2[0])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_matrix_with_a_nonfinite_sample_rejected(self):
        stats = np.zeros((5, 100))
        stats[4, 99] = np.inf
        with pytest.raises(ValueError, match="finite"):
            RunningStats().update(stats)


class TestIterChunks:
    @staticmethod
    def _keys(spec, m, rng):
        # what the sampler was given: the spec, the chunk size, the stream
        return spec, m, int(rng.integers(0, 2**62))

    def test_chunk_sizes_cover_every_path_once(self):
        chunks = list(iter_chunks(self._keys, "spec", 2 * CHUNK_PATHS + 3, 5))
        assert [(spec, m) for spec, m, _ in chunks] == [
            ("spec", CHUNK_PATHS),
            ("spec", CHUNK_PATHS),
            ("spec", 3),
        ]
        assert list(iter_chunks(self._keys, "spec", 0, 5)) == []

    def test_stream_of_chunk_k_is_seed_and_base_plus_k(self):
        chunks = iter_chunks(self._keys, None, CHUNK_PATHS + 1, 9, chunk_base=7)
        want = [int(derive_stream(9, k).integers(0, 2**62)) for k in (7, 8)]
        assert [draw for _, _, draw in chunks] == want


class TestTilePaths:
    CHECKS = [1, 2, 63, 64, 65, 224, 288, 480, 512, 4096, 10**6, 10**9]

    @pytest.mark.parametrize("checks", CHECKS)
    def test_power_of_two_dividing_a_chunk_under_the_budget(self, checks):
        tile = tile_paths(checks)
        assert tile >= 1 and tile & (tile - 1) == 0
        assert CHUNK_PATHS % tile == 0
        assert checks * tile * 8 < TILE_BYTES or tile == 1

    def test_whole_chunks_below_64_checks(self):
        assert [tile_paths(k) for k in range(1, 64)] == [CHUNK_PATHS] * 63
        assert tile_paths(64) == CHUNK_PATHS // 2

    def test_does_not_grow_with_checks(self):
        checks = sorted(set(range(1, 5000)) | set(self.CHECKS))
        tiles = [tile_paths(k) for k in checks]
        assert tiles == sorted(tiles, reverse=True)

    def test_battery_tiles(self):
        assert tile_paths(288) == 8192
        assert tile_paths(480) == 8192


class TestDomainTypes:
    def test_ensemble_uniform_horizon(self):
        paths = generate(iid_spec(rademacher(), 4), 3, seed=1)
        assert paths.shape == (3, 4)

    def test_ensemble_rejects_empty(self):
        with pytest.raises(ValueError):
            generate(iid_spec(rademacher(), 4), 0, seed=1)

    def test_exact_report_requires_zero_stderr(self):
        good = SummaryStats(mean=0.0, stderr=0.0, count=8)
        VerificationReport("T", good, 0.0, "<=", None, "PASS", exact=True)
        bad = SummaryStats(mean=0.0, stderr=0.5, count=8)
        with pytest.raises(ValueError):
            VerificationReport("T", bad, 0.0, "<=", None, "PASS", exact=True)

    def test_exact_report_cannot_be_inconclusive(self):
        s = SummaryStats(mean=0.0, stderr=0.0, count=8)
        with pytest.raises(ValueError):
            VerificationReport("T", s, 0.0, "<=", None, "INCONCLUSIVE", exact=True)
