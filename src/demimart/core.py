"""Shared domain types, the randomness contract, and summary statistics.

Everything downstream works with partial-sum paths S_1..S_n under the global
convention S_0 = 0 (S_0 is never stored; increment computations prepend it).
All types are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CHUNK_PATHS",
    "DEFAULT_TOLERANCE_Z",
    "EXACT_REL_EPS",
    "FAIL",
    "INCONCLUSIVE",
    "PASS",
    "ProcessEnsemble",
    "ProcessPath",
    "RunningStats",
    "SummaryStats",
    "VerificationReport",
    "derive_stream",
    "summarize",
]

# Chunk size used by every Monte-Carlo loop.  Fixed so that chunk boundaries,
# and hence every drawn value, are a pure function of (seed, path index).
CHUNK_PATHS = 1 << 16

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
        rows = [samples] if single else samples
        bmean = np.empty(len(rows))
        bm2 = np.empty(len(rows))
        # row by row, so each row is still in cache for its deviation pass
        for i, row in enumerate(rows):
            arr = np.asarray(row, dtype=np.float64)
            bmean[i] = arr.mean()
            bm2[i] = np.square(arr - bmean[i]).sum()
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


@dataclass(frozen=True)
class ProcessPath:
    """One sampled trajectory S_1..S_n (S_0 = 0 by convention, never stored)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("path must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        return int(self.values.size)

    @property
    def increments(self) -> np.ndarray:
        """X_i = S_i - S_{i-1} with the prepended S_0 = 0."""
        return np.diff(self.values, prepend=0.0)


@dataclass(frozen=True)
class ProcessEnsemble:
    """A set of equal-horizon paths stored as one (paths, horizon) matrix.

    Regenerating with the same seed and generator_id reproduces the matrix
    bit for bit.
    """

    values: np.ndarray
    seed: int
    generator_id: str

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError("ensemble must be a nonempty (paths, horizon) matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def n_paths(self) -> int:
        return int(self.values.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.values.shape[1])

    @property
    def paths(self) -> list[ProcessPath]:
        return [ProcessPath(row) for row in self.values]


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
