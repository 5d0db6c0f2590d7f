"""Shared domain types, the randomness contract with its one chunk loop, and
summary statistics.

Everything downstream works with partial-sum paths S_1..S_n under the global
convention S_0 = 0 (S_0 is never stored; increment computations prepend it).
All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHUNK_PATHS",
    "DEFAULT_TOLERANCE_Z",
    "EXACT_REL_EPS",
    "FAIL",
    "INCONCLUSIVE",
    "PASS",
    "Pieces",
    "RunningStats",
    "SummaryStats",
    "TILE_BYTES",
    "VerificationReport",
    "derive_stream",
    "iter_chunks",
    "statistic_pieces",
    "tile_paths",
]

# Chunk size used by every Monte-Carlo loop.  Fixed so that chunk boundaries,
# and hence every drawn value, are a pure function of (seed, path index).
CHUNK_PATHS = 1 << 16

# Byte budget of one statistic tile: glibc's largest mmap threshold, so a
# freed tile is reused from the heap instead of being mmapped and
# page-faulted again for the next one.
TILE_BYTES = 1 << 25

# Rows of a (K, m) statistic matrix or piece are reduced in blocks of about
# this many bytes, small enough that a block's deviation pass finds it in
# cache.
_REDUCE_BLOCK_BYTES = 1 << 20

_OVERFLOW = "samples overflow float64: a sum or squared deviation is infinite"

# A lone Monte-Carlo check fails only when violated by more than this many
# stderrs; a family of checks splits its one-sided level (registry.family_z).
DEFAULT_TOLERANCE_Z = 3.0

# Exact (oracle) checks fail when violated beyond this relative epsilon.
EXACT_REL_EPS = 1e-12

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_MASK64 = (1 << 64) - 1

# A statistic's rows as (rows, block) pieces; see statistic_pieces.
Pieces = Iterator[tuple[slice, np.ndarray]]


def derive_stream(master_seed: int, chunk_index: int) -> np.random.Generator:
    """Derive the independent random stream for one chunk of work.

    Streams are keyed by (master_seed, chunk_index) through a counter-based
    generator, so chunks can be produced in any order (or in parallel) and
    each one reproduces bit for bit.  Distinct chunk indices give streams that
    are statistically independent for ensemble purposes.
    """
    if chunk_index < 0:
        raise ValueError("chunk_index must be nonnegative")
    seq = np.random.SeedSequence(
        entropy=int(master_seed) & _MASK64, spawn_key=(int(chunk_index),)
    )
    return np.random.Generator(np.random.Philox(seq))


def iter_chunks(sample, spec, paths: int, seed: int, chunk_base: int = 0):
    """Yield ``sample(spec, m, derive_stream(seed, chunk_base + k))`` for
    chunk k = 0, 1, ... of ``paths`` paths, CHUNK_PATHS at a time.

    This is the one Monte-Carlo chunk loop: every sampled value depends only
    on (seed, chunk_base + k) and its row in the chunk, so any two callers
    that walk the same paths see the same draws.  Each chunk is yielded
    without a reference kept here, so a caller that drops it frees it before
    the next chunk is drawn.
    """
    for k, lo in enumerate(range(0, paths, CHUNK_PATHS)):
        yield sample(spec, min(CHUNK_PATHS, paths - lo), derive_stream(seed, chunk_base + k))


def _accumulate_rows(op, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``op.accumulate(rows, axis=0, out=out)`` as one vector op per row.

    Same operations in the same order, so the same bits; numpy's own axis-0
    accumulate is several times slower on a short, wide matrix.  ``out`` may
    be ``rows`` itself.
    """
    out[0] = rows[0]
    for i in range(1, rows.shape[0]):
        op(out[i - 1], rows[i], out=out[i])
    return out


def tile_paths(checks: int) -> int:
    """Paths per statistic tile for ``checks`` = K statistics per path.

    CHUNK_PATHS halved until the (K, tile) float64 matrix is under
    TILE_BYTES: whole chunks for K < 64, 8,192 paths for K = 288.  Chunks
    and exact blocks are evaluated and reduced one tile at a time, so no
    (K, CHUNK_PATHS) matrix is built.
    """
    tile = CHUNK_PATHS
    while tile > 1 and checks * tile * 8 >= TILE_BYTES:
        tile //= 2
    return tile


@dataclass(frozen=True)
class SummaryStats:
    """Mean and standard error of a sample; stderr is +inf for a single point."""

    mean: float
    stderr: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")


def statistic_pieces(stats, checks: int | None = None) -> tuple[int, Pieces]:
    """K and the (rows, block) pieces of one statistic evaluation.

    A statistic gives its K rows over m paths as a (K, m) matrix (or any
    sequence of K rows), passed on as the one piece ``(slice(0, K), stats)``,
    or as an iterator of pieces: ``rows`` a slice of range(K), ``block`` a
    (len(rows), m) matrix.  Pieces are passed on in order, each before the
    next is computed, so they may share one buffer.  ``checks`` = K defaults
    to a matrix's row count and is required for pieces.  ValueError for a
    matrix without K rows, a block of another shape, or pieces that do not
    cover every row exactly once.
    """
    if not isinstance(stats, Iterator):
        k = len(stats)
        if checks is not None and k != checks:
            raise ValueError(f"statistic has {k} rows, not {checks}")
        return k, iter(((slice(0, k), stats),))
    if checks is None:
        raise ValueError("statistic pieces need the number of rows")
    return checks, _checked_pieces(stats, checks)


def _checked_pieces(pieces: Pieces, checks: int) -> Pieces:
    seen = np.zeros(checks, dtype=np.int64)
    width = None
    for rows, block in pieces:
        if not isinstance(rows, slice) or np.ndim(block) != 2:
            raise ValueError("a statistic piece is a row slice and a 2-d block")
        width = block.shape[1] if width is None else width
        want = (len(range(checks)[rows]), width)
        if block.shape != want:
            raise ValueError(f"statistic piece has shape {block.shape}, not {want}")
        seen[rows] += 1
        yield rows, block
    if not np.all(seen == 1):
        raise ValueError("statistic pieces must cover every row exactly once")


@dataclass
class RunningStats:
    """Streaming (count, mean, M2) accumulator of K statistics at once.

    Each update folds in m samples of each of K statistics, so mean and m2
    hold K-vectors.  Each batch joins the running totals through the
    pairwise update (Chan, Golub & LeVeque 1979), so the order of the
    batches changes the result only by floating-point roundoff.
    """

    count: int = 0
    mean: np.ndarray | None = None
    m2: np.ndarray | None = None

    def update(self, stats, checks: int | None = None, weights: np.ndarray | None = None) -> None:
        """Fold in one statistic evaluation over m paths: a (K, m) matrix,
        one row per statistic, or its pieces (``statistic_pieces``), each
        piece reduced before the next is asked for.  Every row is reduced
        on its own, so without ``weights`` pieces and the matrix they make
        give the same bits; a weighted row block is summed by a BLAS kernel
        that follows its shape, so pieces of a few rows may not.

        ``weights``, a positive integer count per path, makes path i stand
        for weights[i] samples: the batch holds sum(weights) samples, and its
        mean and M2 are the weighted ones, as if each path were repeated.
        A NaN or infinite sample, or finite samples whose sums or squared
        deviations overflow float64, raise ValueError and leave the
        accumulator as it was.
        """
        k, pieces = statistic_pieces(stats, checks)
        if weights is not None:
            weights = weights.astype(np.float64)
        bmean = np.empty(k)
        bm2 = np.empty(k)
        m = 0
        scratch = None
        # inf - inf and overflows leave a row's M2 non-finite, refused per piece
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, block in pieces:
                if np.ndim(block) != 2:
                    raise ValueError("update takes a (K, m) matrix of statistic rows")
                m = block.shape[1]
                if m == 0:
                    continue
                if scratch is None:
                    step = max(1, _REDUCE_BLOCK_BYTES // (8 * m))
                    scratch = np.empty((min(step, k), m))
                _reduce_row_blocks(block, bmean[rows], bm2[rows], scratch, weights)
            if m == 0:
                return
            n = m if weights is None else int(weights.sum())
            if self.count == 0:
                self.count, self.mean, self.m2 = n, bmean, bm2
                return
            total = self.count + n
            delta = bmean - self.mean
            mean = self.mean + delta * n / total
            m2 = self.m2 + (bm2 + delta * delta * self.count * n / total)
        if not np.all(np.isfinite(m2)):
            raise ValueError(_OVERFLOW)
        self.count, self.mean, self.m2 = total, mean, m2

    def summaries(self) -> list[SummaryStats]:
        """One SummaryStats per statistic row; a single sample's stderr is +inf."""
        n = self.count
        if n == 0:
            raise ValueError("empty sample")
        means = self.mean.tolist()
        if n == 1:
            return [SummaryStats(mean=mean, stderr=math.inf, count=1) for mean in means]
        return [
            SummaryStats(mean=mean, stderr=math.sqrt(max(m2, 0.0) / (n - 1) / n), count=n)
            for mean, m2 in zip(means, self.m2.tolist())
        ]


def _reduce_row_blocks(
    rows: np.ndarray, bmean: np.ndarray, bm2: np.ndarray, scratch: np.ndarray, weights=None
) -> None:
    """Row means and sums of squared deviations of a (k, m) matrix, a block
    of ``len(scratch)`` rows (about _REDUCE_BLOCK_BYTES) at a time, with
    column i counted ``weights[i]`` times (float64) when given.

    Each block is taken as a C-contiguous float64 matrix (a view when the
    rows already are one), whose rows numpy sums pairwise along axis 1 as it
    sums a single vector, so the results equal a row-by-row reduction bit
    for bit with a few numpy calls per block instead of two per row (with
    ``weights``, a BLAS product whose sums follow the block's shape); the
    block's deviation pass still finds it in cache.  ``scratch`` holds the
    deviations and is reused across blocks and pieces.  A non-finite M2,
    which any non-finite sample or overflow gives its row, raises
    ValueError; only then are the samples read again, to say which.
    """
    step = len(scratch)
    for lo in range(0, len(rows), step):
        blk = np.ascontiguousarray(rows[lo : lo + step], dtype=np.float64)
        mean, m2 = bmean[lo : lo + step], bm2[lo : lo + step]
        if weights is None:
            blk.mean(axis=1, out=mean)
        else:
            np.divide(blk @ weights, weights.sum(), out=mean)
        dev = np.subtract(blk, mean[:, None], out=scratch[: len(blk)])
        np.square(dev, out=dev)
        if weights is None:
            dev.sum(axis=1, out=m2)
        else:
            np.matmul(dev, weights, out=m2)
    if not np.all(np.isfinite(bm2)):
        raise ValueError(_OVERFLOW if np.all(np.isfinite(rows)) else "samples must be finite")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one registry check: estimate, bound, direction, verdict.

    ``z_margin`` counts how many stderrs separate the estimate from violating
    the bound (positive = comfortable).  It is None when the estimate carries
    no sampling error (exact mode, or a degenerate zero-variance statistic).
    """

    theorem_id: str
    lhs: SummaryStats
    rhs: float
    direction: str  # "<=" or ">="
    z_margin: float | None
    verdict: str
    exact: bool

    def __post_init__(self):
        if self.direction not in ("<=", ">="):
            raise ValueError("direction must be '<=' or '>='")
        if self.verdict not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError("invalid verdict")
        if self.exact:
            if self.lhs.stderr != 0.0:
                raise ValueError("exact report requires stderr = 0")
            if self.verdict == INCONCLUSIVE:
                raise ValueError("exact report cannot be INCONCLUSIVE")
