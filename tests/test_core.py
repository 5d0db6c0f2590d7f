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
    """Per-row summaries of a RunningStats: mean, standard error, count."""

    def test_constant_sample(self):
        acc = RunningStats()
        acc.update(np.array([[1.0, 1.0, 1.0]]))
        (s,) = acc.summaries()
        assert (s.mean, s.stderr, s.count) == (1.0, 0.0, 3)

    def test_two_point_sample(self):
        # rows [0, 2] and [0, 2, 1]: sd = sqrt(2) and 1, stderr = 1 and 1/sqrt(3)
        two, three = RunningStats(), RunningStats()
        two.update(np.array([[0.0, 2.0]]))
        three.update(np.array([[0.0, 2.0, 1.0]]))
        ((s2,), (s3,)) = two.summaries(), three.summaries()
        assert s2.mean == pytest.approx(1.0)
        assert s2.stderr == pytest.approx(1.0)
        assert s3.mean == pytest.approx(1.0)
        assert s3.stderr == pytest.approx(1.0 / math.sqrt(3.0))

    def test_empty_sample_rejected(self):
        """No samples, or only updates over zero paths, have no summary."""
        acc = RunningStats()
        with pytest.raises(ValueError, match="empty sample"):
            acc.summaries()
        acc.update(np.empty((2, 0)))
        assert acc.count == 0
        with pytest.raises(ValueError, match="empty sample"):
            acc.summaries()

    def test_single_point_gets_inf_sentinel(self):
        acc = RunningStats()
        acc.update(np.array([[3.5], [-1.0]]))
        assert [s.mean for s in acc.summaries()] == [3.5, -1.0]
        assert all(math.isinf(s.stderr) for s in acc.summaries())

    def test_nonfinite_rejected(self):
        """A NaN sample is refused and leaves the accumulator as it was."""
        acc = RunningStats()
        acc.update(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="samples must be finite"):
            acc.update(np.array([[1.0, math.nan]]))
        assert acc.count == 2


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
        """Updating with two chunks reproduces the one-shot summary of each
        of K rows."""
        arr = np.array(xs)
        rows = np.stack([arr, -2.0 * arr, arr[::-1]])
        k = cut % len(arr)
        acc = RunningStats()
        acc.update(rows[:, :k])
        acc.update(rows[:, k:])
        for got, row in zip(acc.summaries(), rows):
            assert got.count == len(row)
            assert got.mean == pytest.approx(row.mean(), rel=1e-12, abs=1e-12)
            stderr = row.std(ddof=1) / math.sqrt(len(row))
            assert got.stderr == pytest.approx(stderr, rel=1e-9, abs=1e-12)

    def test_merge_order_independent(self):
        rng = np.random.default_rng(0)
        chunks = [rng.normal(size=(3, 50)) for _ in range(4)]
        fwd, rev = RunningStats(), RunningStats()
        for c in chunks:
            fwd.update(c)
        for c in reversed(chunks):
            rev.update(c)
        for f, r in zip(fwd.summaries(), rev.summaries()):
            assert f.mean == pytest.approx(r.mean, rel=1e-12)
            assert f.stderr == pytest.approx(r.stderr, rel=1e-12)

    @staticmethod
    def _row_by_row(stats):
        """The reference: each row's mean, then its summed squared deviations."""
        rows = [np.asarray(row, dtype=np.float64) for row in stats]
        means = np.array([row.mean() for row in rows])
        m2 = np.array([np.square(row - mu).sum() for row, mu in zip(rows, means)])
        return means, m2

    @classmethod
    def _assert_blocks_equal_rows(cls, stats):
        """A (K, m) matrix is reduced in blocks of rows, which must equal
        the row-by-row reduction bit for bit."""
        means, m2 = cls._row_by_row(stats)
        acc = RunningStats()
        acc.update(stats)
        assert acc.count == stats.shape[1]
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
        for stats in (
            ints,
            np.asfortranarray(ints),
            floats[:, ::2],
            np.asfortranarray(floats),
            floats > 0,
        ):
            self._assert_blocks_equal_rows(stats)

    def test_single_vector_equals_its_row_reduction(self):
        """One statistic is a (1, m) matrix; a bare vector is refused."""
        x = self._normal_rows(1, 5_000, seed=3)[0]
        means, m2 = self._row_by_row([x])
        for given in (x[None], x[None, ::-1][:, ::-1], np.asfortranarray(x[None])):
            acc = RunningStats()
            acc.update(given)
            assert acc.count == 5_000
            assert (acc.mean.tolist(), acc.m2.tolist()) == ([means[0]], [m2[0]])
            (summary,) = acc.summaries()
            assert summary.mean == means[0]
        with pytest.raises(ValueError, match="matrix"):
            RunningStats().update(x)

    @pytest.mark.parametrize("k, m, stride", [(288, 8_192, 32), (40, 6_000, 20), (10, 100, 3)])
    def test_pieces_equal_their_matrix_bit_for_bit(self, k, m, stride):
        """Strided row pieces from one reused buffer reduce to the bits of
        the matrix they make."""
        stats = self._normal_rows(k, m, seed=k)

        def pieces():
            buf = np.empty((len(range(0, k, stride)), m))
            for i in reversed(range(stride)):
                rows = slice(i, k, stride)
                buf[: len(range(k)[rows])] = stats[rows]
                yield rows, buf[: len(range(k)[rows])]

        whole, split = RunningStats(), RunningStats()
        whole.update(stats)
        split.update(pieces(), k)
        assert split.count == whole.count == m
        assert split.mean.tobytes() == whole.mean.tobytes()
        assert split.m2.tobytes() == whole.m2.tobytes()

    def test_pieces_need_the_row_count(self):
        with pytest.raises(ValueError, match="number of rows"):
            RunningStats().update(iter([(slice(0, 1), np.zeros((1, 3)))]))
        with pytest.raises(ValueError, match="not 3"):
            RunningStats().update(np.zeros((2, 3)), 3)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_weights_count_each_path_that_many_times(self, xs, data):
        """A weighted update, pieces included, is the update of every path
        repeated by its count, to rounding, over one or more batches."""
        counts = data.draw(st.lists(st.integers(1, 50), min_size=len(xs), max_size=len(xs)))
        rows = np.stack([np.array(xs), np.array(xs) ** 2])
        cut = data.draw(st.integers(0, len(xs)))
        got, want = RunningStats(), RunningStats()
        for part in (slice(0, cut), slice(cut, None)):
            w = np.array(counts[part], dtype=np.int64)
            if len(w):
                pieces = iter([(slice(1, 2), rows[1:, part]), (slice(0, 1), rows[:1, part])])
                got.update(pieces, 2, weights=w)
                want.update(np.repeat(rows[:, part], w, axis=1))
        assert got.count == want.count == sum(counts)
        for g, r in zip(got.summaries(), want.summaries()):
            assert g.mean == pytest.approx(r.mean, rel=1e-12, abs=1e-9)
            if math.isfinite(r.stderr):
                assert g.stderr == pytest.approx(r.stderr, rel=1e-9, abs=1e-9)

    def test_matrix_with_a_nonfinite_sample_rejected(self):
        stats = np.zeros((5, 100))
        stats[4, 99] = np.inf
        with pytest.raises(ValueError, match="finite"):
            RunningStats().update(stats)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize(
        "row",
        [[1.0, math.inf], [math.inf, -math.inf], [math.inf]],
        ids=["one-inf", "inf-minus-inf", "inf"],
    )
    def test_infinite_sample_refused_without_a_warning(self, row, weighted):
        """Under the suite's error::RuntimeWarning filter, an infinite
        sample is a ValueError, not an invalid-value warning, and the
        accumulator keeps its count."""
        acc = RunningStats()
        acc.update(np.zeros((1, 3)))
        weights = np.full(len(row), 2, dtype=np.int64) if weighted else None
        with pytest.raises(ValueError, match="finite"):
            acc.update(np.array([row]), weights=weights)
        assert acc.count == 3

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize(
        "row",
        [[1e200, -1e200], [1e308, 1e308], [-1e308, -1e308, 1.0]],
        ids=["square", "sum", "negative-sum"],
    )
    def test_finite_samples_that_overflow_are_named(self, row, weighted):
        """Finite samples whose squared deviations or sum overflow float64
        are a ValueError that names the overflow, not "must be finite" and
        not an overflow warning, and the accumulator keeps its count."""
        acc = RunningStats()
        acc.update(np.zeros((1, 3)))
        weights = np.full(len(row), 2, dtype=np.int64) if weighted else None
        with pytest.raises(ValueError, match="overflow"):
            acc.update(np.array([row]), weights=weights)
        assert acc.count == 3
        assert acc.mean.tolist() == [0.0]

    def test_overflow_in_a_piece_after_finite_pieces_is_named(self):
        def pieces():
            yield slice(0, 1), np.ones((1, 2))
            yield slice(1, 2), np.array([[1e200, -1e200]])

        with pytest.raises(ValueError, match="overflow"):
            RunningStats().update(pieces(), checks=2)

    def test_batches_whose_merge_overflows_are_named(self):
        acc = RunningStats()
        acc.update(np.full((1, 2), 1e300))
        with pytest.raises(ValueError, match="overflow"):
            acc.update(np.full((1, 2), -1e300))
        assert acc.count == 2
        assert acc.mean.tolist() == [1e300]


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

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: SummaryStats(mean=0.0, stderr=0.0, count=0), "count must be positive"),
            (lambda: SummaryStats(mean=math.nan, stderr=0.0, count=1), "mean must be finite"),
            (lambda: SummaryStats(mean=0.0, stderr=-1.0, count=1), "stderr must be nonnegative"),
            (
                lambda: VerificationReport("T", SummaryStats(0.0, 1.0, 2), 0.0,
                                           "<", None, "PASS", False),
                "direction must be",
            ),
            (
                lambda: VerificationReport("T", SummaryStats(0.0, 1.0, 2), 0.0,
                                           "<=", None, "OK", False),
                "invalid verdict",
            ),
            (
                lambda: RunningStats().update(iter([([0], np.zeros((1, 3)))]), 1),
                "a statistic piece is a row slice",
            ),
        ],
        ids=["zero-count", "nan-mean", "negative-stderr", "bad-direction", "bad-verdict",
             "piece-rows-not-a-slice"],
    )
    def test_refusals(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_exact_report_cannot_be_inconclusive(self):
        s = SummaryStats(mean=0.0, stderr=0.0, count=8)
        with pytest.raises(ValueError):
            VerificationReport("T", s, 0.0, "<=", None, "INCONCLUSIVE", exact=True)
