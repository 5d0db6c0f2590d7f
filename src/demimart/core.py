"""Shared domain types, the randomness contract with its one chunk loop, and
summary statistics.

Everything downstream works with partial-sum paths S_1..S_n under the global
convention S_0 = 0 (S_0 is never stored; increment computations prepend it).
All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHUNK_PATHS",
    "DEFAULT_TOLERANCE_Z",
    "EXACT_REL_EPS",
    "FAIL",
    "INCONCLUSIVE",
    "PASS",
    "RunningStats",
    "SummaryStats",
    "TILE_BYTES",
    "VerificationReport",
    "derive_stream",
    "iter_chunks",
    "summarize",
    "tile_paths",
]

# Chunk size used by every Monte-Carlo loop.  Fixed so that chunk boundaries,
# and hence every drawn value, are a pure function of (seed, path index).
CHUNK_PATHS = 1 << 16

# Byte budget of one statistic tile: glibc's largest mmap threshold, so a
# freed tile is reused from the heap instead of being mmapped and
# page-faulted again for the next one.
TILE_BYTES = 1 << 25

# Rows of a (K, m) statistic matrix are reduced in blocks of about this many
# bytes, small enough that a block's deviation pass finds it in cache.
_REDUCE_BLOCK_BYTES = 1 << 20

# Monte-Carlo checks fail only when violated by more than this many stderrs.
DEFAULT_TOLERANCE_Z = 3.0

# Exact (oracle) checks fail when violated beyond this relative epsilon.
EXACT_REL_EPS = 1e-12

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

_MASK64 = (1 << 64) - 1


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


def summarize(samples) -> SummaryStats:
    """Arithmetic mean and stderr (= unbiased sample std / sqrt(count)).

    A single observation carries no spread information: its stderr is the
    +inf sentinel and any verdict built on it must be INCONCLUSIVE.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if arr.size == 1:
        return SummaryStats(mean=float(arr[0]), stderr=math.inf, count=1)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1))
    return SummaryStats(mean=mean, stderr=sd / math.sqrt(arr.size), count=int(arr.size))


@dataclass
class RunningStats:
    """Streaming (count, mean, M2) accumulator with associative merging.

    Chunk reductions combine through the pairwise update (Chan, Golub &
    LeVeque 1979), so merging chunk statistics is order-independent up to
    floating-point roundoff.  Updating with K rows of m samples (a (K, m)
    matrix or a list of K vectors) tracks K statistics at once: mean and m2
    then hold K-vectors.
    """

    count: int = 0
    mean: float | np.ndarray = 0.0
    m2: float | np.ndarray = 0.0

    def update(self, samples) -> None:
        """Fold in m samples, or K rows of m samples each."""
        if len(samples) == 0:
            return
        single = np.ndim(samples[0]) == 0
        rows = np.asarray(samples)[None] if single else samples
        bmean = np.empty(len(rows))
        bm2 = np.empty(len(rows))
        _reduce_row_blocks(rows, bmean, bm2)
        # a NaN or infinite sample makes its row's mean non-finite, so checking
        # the K means covers every sample
        if not np.all(np.isfinite(bmean)):
            raise ValueError("samples must be finite")
        if single:
            self._combine(len(samples), float(bmean[0]), float(bm2[0]))
        else:
            self._combine(len(rows[0]), bmean, bm2)

    def merge(self, other: "RunningStats") -> None:
        if other.count:
            self._combine(other.count, other.mean, other.m2)

    def _combine(self, n: int, bmean, bm2) -> None:
        # elementwise on arrays; never in place, because the first batch's
        # arrays may be shared with the accumulator they were merged from
        if self.count == 0:
            self.count, self.mean, self.m2 = n, bmean, bm2
            return
        total = self.count + n
        delta = bmean - self.mean
        self.mean = self.mean + delta * n / total
        self.m2 = self.m2 + (bm2 + delta * delta * self.count * n / total)
        self.count = total

    def to_summary(self) -> SummaryStats:
        if self.count == 0:
            raise ValueError("empty sample")
        if self.count == 1:
            return SummaryStats(mean=self.mean, stderr=math.inf, count=1)
        var = max(self.m2, 0.0) / (self.count - 1)
        return SummaryStats(
            mean=self.mean, stderr=math.sqrt(var / self.count), count=self.count
        )


def _reduce_row_blocks(rows, bmean: np.ndarray, bm2: np.ndarray) -> None:
    """Row means and sums of squared deviations of K rows of m samples (a
    (K, m) matrix or a list of K vectors), a block of about
    _REDUCE_BLOCK_BYTES of rows at a time.

    Each block is stacked into a C-contiguous float64 matrix, whose rows
    numpy sums pairwise along axis 1 as it sums a single vector, so the
    results equal a row-by-row reduction bit for bit with a few numpy calls
    per block instead of two per row; the block's deviation pass still finds
    it in cache.
    """
    k, m = len(rows), len(rows[0])
    step = max(1, _REDUCE_BLOCK_BYTES // (8 * m))
    scratch = np.empty((min(step, k), m))
    for lo in range(0, k, step):
        blk = np.ascontiguousarray(rows[lo : lo + step], dtype=np.float64)
        mean = blk.mean(axis=1, out=bmean[lo : lo + step])
        dev = np.subtract(blk, mean[:, None], out=scratch[: len(blk)])
        np.square(dev, out=dev)
        dev.sum(axis=1, out=bm2[lo : lo + step])


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
