"""Process-ensemble generators and exact finite-support chain specifications.

Every family builds partial-sum paths S_i = offset + sum_{k<=i} X_k from
increments X_k whose joint law is positively associated (nondecreasing
functions of independent draws, shared additive shocks, or nonnegatively
correlated Gaussians), except for the deliberately broken
``adversarial_sign_flip`` family which serves as the negative control.

Mean-zero increments give a demimartingale, nonnegative-mean increments a
demisubmartingale; the structural classification below encodes exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .core import _accumulate_rows, iter_chunks

__all__ = [
    "ENUMERATION_CAP",
    "DiscreteChainSpec",
    "GeneratorSpec",
    "IncrementLaw",
    "StructuralClass",
    "bernoulli",
    "classify",
    "gaussian_assoc_spec",
    "generate",
    "increment_bound",
    "iid_spec",
    "rademacher",
    "sample_final_sums",
    "sample_increments",
    "sample_outcomes",
    "sample_paths",
    "shared_shock_spec",
    "sigma_n_exact",
    "step_min",
    "to_chain",
    "uniform",
    "v_n",
]

FAMILIES = (
    "iid",
    "moving_sum",
    "gaussian_assoc",
    "shared_shock",
    "adversarial_sign_flip",
)

# Total outcome count an exact chain may require.
ENUMERATION_CAP = 1 << 24
# Points of its lattice on either side of 0 a terminal law may reach.
_GRID_SPAN = 1 << 20

_PSD_EIG_TOL = 1e-10
_PROB_TOL = 1e-12


# ---------------------------------------------------------------------------
# Increment laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IncrementLaw:
    """A named bounded one-dimensional law for process increments.

    Supported names: ``rademacher`` (+-1 equiprobable), ``bernoulli`` (0/1
    with success probability p), ``uniform`` (continuous on [a, b]).
    """

    name: str
    p: float = 0.5
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.name not in ("rademacher", "bernoulli", "uniform"):
            raise ValueError(f"unknown increment law {self.name!r}")
        if self.name == "bernoulli" and not 0.0 <= self.p <= 1.0:
            raise ValueError("bernoulli p must lie in [0, 1]")
        if self.name == "uniform" and not self.a < self.b:
            raise ValueError("uniform law requires a < b")

    @property
    def mean(self) -> float:
        if self.name == "rademacher":
            return 0.0
        if self.name == "bernoulli":
            return self.p
        return 0.5 * (self.a + self.b)

    @property
    def second_moment(self) -> float:
        if self.name == "rademacher":
            return 1.0
        if self.name == "bernoulli":
            return self.p
        return (self.a * self.a + self.a * self.b + self.b * self.b) / 3.0

    @property
    def abs_bound(self) -> float:
        if self.name in ("rademacher", "bernoulli"):
            return 1.0
        return max(abs(self.a), abs(self.b))

    @property
    def min_value(self) -> float:
        if self.name == "rademacher":
            return -1.0
        if self.name == "bernoulli":
            return 0.0
        return self.a

    def support(self) -> list[tuple[float, float]]:
        """Finite support as (value, probability) pairs; ValueError for a
        continuous law.  Zero-probability atoms (degenerate bernoulli) are
        dropped."""
        if self.name == "rademacher":
            return [(-1.0, 0.5), (1.0, 0.5)]
        if self.name == "bernoulli":
            pairs = [(0.0, 1.0 - self.p), (1.0, self.p)]
            return [(v, p) for v, p in pairs if p > 0.0]
        raise ValueError("not enumerable: continuous increment law")

    def draw_rows(self, rng: np.random.Generator, m: int, c: int) -> np.ndarray:
        """The time-major (c, m) rows of m paths' c draws.

        A lattice draw is its 0/1 digit, a bit of ``_lattice_bits``: 1 with
        the probability of numpy's ``rng.random() < p`` (p = 1/2 for
        Rademacher).  For a two-atom law the digit is the position of the
        value in ``support()``; a one-atom law (p = 0 or 1) draws the bit p
        every time.  A row depends only on the stream and the row, not on m.
        A uniform law's rows are a view of its (m, c) float64 draws.
        """
        if self.name == "uniform":
            return rng.uniform(self.a, self.b, size=(m, c)).T
        return _lattice_bits(self, rng, m, c)

    def values(self, rows: np.ndarray) -> np.ndarray:
        """The values of the draws of ``draw_rows``, mapped in place: a
        lattice step as int8, the bit for Bernoulli and 2 * bit - 1 for
        Rademacher; uniform draws are their own values."""
        if self.name == "uniform":
            return rows
        if self.name == "rademacher":
            rows <<= 1
            rows -= 1
        return rows.view(np.int8)

    def log_mgf(self, theta: float) -> float:
        """log E exp(theta * X), finite for every theta since X is bounded."""
        if self.name == "rademacher":
            return math.log(math.cosh(theta))
        if self.name == "bernoulli":
            return math.log(1.0 - self.p + self.p * math.exp(theta))
        if theta == 0.0:
            return 0.0
        # (e^{tb} - e^{ta}) / (t (b - a)), evaluated stably around the mean
        mid = 0.5 * (self.a + self.b)
        half = 0.5 * (self.b - self.a)
        return theta * mid + math.log(math.sinh(theta * half) / (theta * half))


# numpy bit generators whose raw output is one 64-bit word (MT19937's is 32)
_RAW64 = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _raw64(rng: np.random.Generator):
    bitgen = rng.bit_generator
    if not isinstance(bitgen, _RAW64):
        raise TypeError(
            f"lattice draws need a 64-bit bit generator, not {type(bitgen).__name__}"
        )
    return bitgen


def _jumpable(rng: np.random.Generator):
    bitgen = rng.bit_generator
    if not hasattr(bitgen, "jumped"):  # SFC64 cannot jump
        raise TypeError(
            f"shared shocks need a bit generator that can jump, not {type(bitgen).__name__}"
        )
    return bitgen


def _lattice_bits(law: IncrementLaw, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """The time-major (n, m) 0/1 rows of m paths' n steps, each 1 with
    probability a / 2**k = ceil(p * 2**53) / 2**53 in lowest terms, the law
    of ``random() < p`` (p = 1/2 for Rademacher; k = 0 for p = 0 or 1).

    The m paths take ceil(m / 64) blocks of k * n raw words, level i of
    step j at (block, i, j).  Step j of path p reads the k-bit number U
    whose i-th most significant bit is bit p % 64 of word (p // 64, i, j),
    and is 1 exactly when U >= 2**k - a.  At k = 1 (p = 1/2) that is bit
    p % 64 of word (p // 64, 0, j); at k = 0 no word is drawn.
    """
    num = math.ceil((0.5 if law.name == "rademacher" else law.p) * 2.0**53)
    k = 54 - (num & -num).bit_length() if 0 < num < 1 << 53 else 0
    words = _raw64(rng).random_raw((-(-m // 64), k, n))
    return _step_bits(_at_least(words, (1 << k) - (num >> (53 - k))), m)


def _at_least(words: np.ndarray, t: int) -> np.ndarray:
    """Per lane of (blocks, k, n) level words, whether the k-bit number U it
    reads, most significant level first, is at least t, for odd t < 2**k or
    k = 0.  One pass per level, from the least significant: U's low bits
    are at least t's when U's next bit exceeds t's, or equals it with the
    bits below at least t's.  Overwrites the words' lowest level."""
    k = words.shape[1]
    if k == 0:
        return np.full(words.shape[::2], 0 if t else 2**64 - 1, dtype=np.uint64)
    ge = words[:, k - 1]  # t is odd: a lane's lowest bit is at least t's when set
    for i in range(k - 2, -1, -1):
        if (t >> (k - 1 - i)) & 1:
            ge &= words[:, i]
        else:
            ge |= words[:, i]
    return ge


def _step_bits(words: np.ndarray, m: int) -> np.ndarray:
    """The time-major (n, m) 0/1 rows of m paths' steps from (ceil(m / 64),
    n) words: bit p % 64 of word (p // 64, j) at (j, p)."""
    rows = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(rows, axis=1, count=m, bitorder="little")


def _bit_sums(bits: np.ndarray, law: IncrementLaw) -> np.ndarray:
    """S_n = n * lo + (1 - lo) * K per path of (n, m) 0/1 step rows of a
    lattice law with steps lo and 1, K the count of set bits: K for
    Bernoulli, 2K - n for Rademacher.  Fewer than 256 bits fit in a uint8."""
    n, lo = len(bits), law.min_value
    s = bits.sum(axis=0, dtype=np.uint8 if n < 256 else np.int64) * (1.0 - lo)
    s += n * lo
    return s


def rademacher() -> IncrementLaw:
    return IncrementLaw("rademacher")


def bernoulli(p: float) -> IncrementLaw:
    return IncrementLaw("bernoulli", p=p)


def uniform(a: float, b: float) -> IncrementLaw:
    return IncrementLaw("uniform", a=a, b=b)


# ---------------------------------------------------------------------------
# Generator specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Parametric description of one ensemble family.

    Families
    --------
    iid
        Partial sums of i.i.d. draws from ``law``.
    moving_sum
        X_i = sum_k weights[k] * Y_{i-k} with weights >= 0 and Y i.i.d. from
        ``law`` (a window of earlier draws, hence associated increments).
    gaussian_assoc
        Jointly Gaussian increments with the given elementwise-nonnegative
        positive-semidefinite covariance.
    shared_shock
        X_i = B_i + W with B_i i.i.d. from ``law`` and one shared draw W per
        path from ``shock``.
    adversarial_sign_flip
        X_1 drawn from ``law``; afterwards X_{i+1} = -X_i.  Violates the
        nonnegative-projection property and exists to prove the harness can
        fail.

    ``centered`` subtracts the drift, the step mean of the family as given,
    from every step, so the increments are mean zero (see ``centered``).
    ``offset`` then shifts every S_i by a constant (a nonzero start), which
    preserves association-based structure and is how nonnegative or
    strictly-positive processes are produced.
    """

    family: str
    horizon: int
    law: IncrementLaw | None = None
    shock: IncrementLaw | None = None
    weights: tuple[float, ...] | None = None
    covariance: np.ndarray | None = None
    centered: bool = False
    offset: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        if self.family in ("iid", "shared_shock", "moving_sum", "adversarial_sign_flip"):
            if self.law is None:
                raise ValueError(f"family {self.family!r} requires a law")
        if self.family == "shared_shock" and self.shock is None:
            raise ValueError("shared_shock requires a shock law")
        if self.family == "moving_sum":
            if not self.weights:
                raise ValueError("moving_sum requires nonempty weights")
            if any(w < 0 for w in self.weights):
                raise ValueError("moving_sum weights must be nonnegative")
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.family == "gaussian_assoc":
            cov = np.asarray(self.covariance, dtype=np.float64)
            if cov.shape != (self.horizon, self.horizon):
                raise ValueError("covariance must be (horizon, horizon)")
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError("covariance must be symmetric")
            if np.any(cov < 0):
                raise ValueError("covariance entries must be nonnegative")
            eigmin = float(np.linalg.eigvalsh(cov).min())
            if eigmin < -_PSD_EIG_TOL:
                raise ValueError(f"covariance not PSD (min eigenvalue {eigmin:.3e})")
            object.__setattr__(self, "covariance", cov)
        if self.centered and self.family == "adversarial_sign_flip":
            raise ValueError("cannot center adversarial_sign_flip: its step means alternate")

    @property
    def generator_id(self) -> str:
        parts = [self.family, f"n={self.horizon}"]
        if self.law is not None:
            parts.append(f"law={_law_id(self.law)}")
        if self.shock is not None:
            parts.append(f"shock={_law_id(self.shock)}")
        if self.weights is not None:
            parts.append("w=(" + ",".join(repr(w) for w in self.weights) + ")")
        if self.covariance is not None:
            parts.append(f"cov=sha[{_cov_digest(self.covariance)}]")
        if self.offset:
            parts.append(f"offset={self.offset!r}")
        if self.centered:
            parts.append("centered")
        return "/".join(parts)


def _law_id(law: IncrementLaw) -> str:
    if law.name == "bernoulli":
        return f"bernoulli({law.p!r})"
    if law.name == "uniform":
        return f"uniform({law.a!r},{law.b!r})"
    return law.name


def _cov_digest(cov: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(cov).tobytes()).hexdigest()[:12]


def iid_spec(law: IncrementLaw, horizon: int, offset: float = 0.0) -> GeneratorSpec:
    return GeneratorSpec("iid", horizon, law=law, offset=offset)


def shared_shock_spec(
    base: IncrementLaw, shock: IncrementLaw, horizon: int, offset: float = 0.0
) -> GeneratorSpec:
    return GeneratorSpec("shared_shock", horizon, law=base, shock=shock, offset=offset)


def gaussian_assoc_spec(covariance, horizon: int, offset: float = 0.0) -> GeneratorSpec:
    return GeneratorSpec(
        "gaussian_assoc", horizon, covariance=np.asarray(covariance), offset=offset
    )


def centered(spec: GeneratorSpec, offset: float = 0.0) -> GeneratorSpec:
    """``spec`` with its drift subtracted at every step, then started at
    ``offset``: S_i = offset + sum_{k<=i} (X_k - drift)."""
    if spec.centered:
        raise ValueError("the family is already centered")
    if spec.offset != 0.0:
        raise ValueError("center the family first, then apply an offset")
    return replace(spec, centered=True, offset=offset)


def adversarial_spec(horizon: int, law: IncrementLaw | None = None) -> GeneratorSpec:
    return GeneratorSpec("adversarial_sign_flip", horizon, law=law or rademacher())


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _draws(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator):
    """The independent draws of n_paths paths of a family with a law, as
    ``IncrementLaw.draw_rows`` gives them: the time-major (c, n_paths) rows
    of its c draws (``_draw_rows``), a lattice law's as 0/1 digits, and the
    (1, n_paths) row of shared shocks or None.  The one statement of how a
    family uses its stream: the shocks come from a jumped copy of the
    stream, taken before the base draws, so path p's shock does not depend
    on n_paths."""
    shocks = None
    if spec.family == "shared_shock":
        shocks = np.random.Generator(_jumpable(rng).jumped())
    rows = spec.law.draw_rows(rng, n_paths, len(_draw_rows(spec)[1]))
    return rows, None if shocks is None else spec.shock.draw_rows(shocks, n_paths, 1)


def sample_increments(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_paths, horizon) matrix of increments X_i (offset excluded).

    iid draws come as drawn (int8 steps for a lattice law).  Every other
    family with a law sums at step j, from 0.0 and oldest draw first, w * y
    over the draws y whose row entry w reaches it (``_draw_rows``,
    ``_reach``), then adds the shared shock: the sums ``oracle.iter_blocks``
    forms, so a sampled path is its enumerated one bit for bit.  Both are
    built time-major and returned transposed, column-major.  These are the
    family's draws before centering: ``sample_paths`` and
    ``sample_final_sums`` take the drift off the sums, not the steps.
    """
    n = spec.horizon
    if spec.family == "gaussian_assoc":
        return rng.standard_normal((n_paths, n)) @ _factor(spec.covariance).T
    rows, shocks = _draws(spec, n_paths, rng)
    y = spec.law.values(rows)
    if spec.family == "iid":
        return y.T
    y = np.ascontiguousarray(y)  # a uniform law's rows are a transposed view
    row, starts = _draw_rows(spec)
    # per step, the (entry, draw row) pairs that reach it, oldest draw first
    terms = [[] for _ in range(n)]
    for draw, start, cut in zip(y, starts, _reach(starts, len(row), n)):
        for i in range(*cut):
            if row[i]:  # a 0.0 term changes no sum that starts at 0.0
                terms[start + i].append((row[i], draw))
    shock = None if shocks is None else spec.shock.values(shocks)[0].astype(np.float64)
    x = np.zeros((n, n_paths))
    term = np.empty(n_paths)
    for xj, step in zip(x, terms):
        for w, draw in step:
            xj += np.multiply(w, draw, out=term)
        if shock is not None:
            xj += shock
    return x.T


def sample_outcomes(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """The int64 outcome index in ``to_chain(spec)`` of each of n_paths
    paths, from the draws ``sample_paths`` makes with the same stream: the
    path ``oracle.iter_blocks`` builds for index p's value is row p of
    ``sample_paths`` bit for bit, and the generator ends in the same state.

    An index is mixed-radix over the chain's draws, most significant first,
    with the shared shock above them all; a digit is the position of the
    drawn value in its law's ``support()``, which for a lattice law is the
    0/1 digit row ``_draws`` hands over, or 0 for a one-atom law (Bernoulli
    0 or 1).  A lattice law has at most two atoms, so the index is built by
    doubling, idx += idx then idx += digit per draw, in the narrowest
    unsigned type that holds ``outcome_count - 1`` (uint16 up to 2**16
    outcomes), then widened.  ValueError for a family without a chain.
    """
    chain = to_chain(spec)
    rows, shocks = _draws(spec, n_paths, rng)
    idx = np.zeros(n_paths, dtype=np.min_scalar_type(chain.outcome_count - 1))
    # the shock's digit first: each draw's doubling lifts it one place
    if shocks is not None and len(chain.shared_component) > 1:
        idx += shocks[0]
    if len(chain.atoms) > 1:
        for row in rows:
            idx += idx
            idx += row
    return idx.astype(np.int64)


def _factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F F^T = cov, built from the eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_paths(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_paths, horizon) matrix of partial-sum paths S_1..S_n.

    The matrix is column-major: it is the transpose of a time-major
    (horizon, n_paths) build in which S_j = S_{j-1} + X_j is one contiguous
    row, so each column S_j is contiguous.  The values are those of
    ``np.cumsum(increments, axis=1, dtype=np.float64)`` bit for bit: float
    increments are added in that cumsum's order, and int8 lattice steps
    are summed exactly in the narrowest signed integer type that holds
    +-horizon, then cast to float64 once.

    A centered family sums its uncentered draws, then subtracts i * drift
    from S_i as the exact oracle does, so lattice paths stay exactly on their
    shifted lattice (summing x - drift step by step drifts off it by ulps).
    """
    # the time-major rows (as drawn for lattice steps and a moving sum, a
    # transposed copy of continuous draws), then the running sum in place
    rows = np.ascontiguousarray(sample_increments(spec, n_paths, rng).T)
    if rows.dtype == np.int8 and spec.horizon >= 128:
        rows = rows.astype(np.int16 if spec.horizon < 1 << 15 else np.int64)
    s = _accumulate_rows(np.add, rows, rows).astype(np.float64, copy=False).T
    if spec.centered:
        s -= _parts(spec)[1] * np.arange(1, spec.horizon + 1)
    if spec.offset:
        s += spec.offset
    return s


def _row_sums(inc: np.ndarray) -> np.ndarray:
    """Per-path float64 sums of an (n_paths, horizon) increment matrix,
    summed from a row-major copy when it is column-major (built time-major):
    numpy's row sum is pairwise along a contiguous row but sequential
    across columns, and the two differ in the last bits."""
    return np.ascontiguousarray(inc).sum(axis=1, dtype=np.float64)


def sample_final_sums(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw S_n alone for n_paths paths, from the draws ``sample_paths`` makes.

    No partial-sum matrix is built, and iid lattice steps are counted
    straight from their bits, without building a step matrix.
    Integer-valued draws sum exactly, so on lattice families this equals
    ``sample_paths(...)[:, -1]`` bit for bit and leaves the generator in the
    same state; a centered family subtracts n * drift once from the
    uncentered sum, so its S_n stays on the shifted lattice.
    """
    if spec.family == "iid" and spec.law.name != "uniform":
        s = _bit_sums(_lattice_bits(spec.law, rng, n_paths, spec.horizon), spec.law)
    else:
        s = _row_sums(sample_increments(spec, n_paths, rng))
    if spec.centered:
        s -= spec.horizon * _parts(spec)[1]
    if spec.offset:
        s += spec.offset
    return s


def generate(spec: GeneratorSpec, n_paths: int, seed: int) -> np.ndarray:
    """The (n_paths, horizon) path matrix of ``sample_paths`` over the chunks
    of ``iter_chunks``, so values depend only on (seed, path index)."""
    if n_paths < 1:
        raise ValueError("paths must be >= 1")
    return np.vstack(list(iter_chunks(sample_paths, spec, n_paths, seed)))


# ---------------------------------------------------------------------------
# Exact moments and structural classification
# ---------------------------------------------------------------------------


class _Window(NamedTuple):
    """sum_k w_k Y_k over independent draws Y_k of one law, with the step
    facts of an ``IncrementLaw``: a moving-sum step's one part."""

    mean: float
    second_moment: float
    abs_bound: float
    min_value: float
    log_mgf: Callable[[float], float]


def _window(law: IncrementLaw, weights: tuple[float, ...]) -> _Window:
    """The window's own closed forms: even at weights (1.0,) they are not a
    draw's, as Var Y * sum w^2 + (E Y sum w) ** 2 can differ from E Y^2."""
    mu, wsum = law.mean, sum(weights)
    var = law.second_moment - mu * mu
    return _Window(
        mean=mu * wsum,
        second_moment=var * sum(w * w for w in weights) + (mu * wsum) ** 2,
        abs_bound=law.abs_bound * wsum,
        min_value=sum(w * law.min_value for w in weights),
        log_mgf=lambda theta: sum(law.log_mgf(theta * w) for w in weights),
    )


def _parts(spec: GeneratorSpec) -> tuple[tuple, float]:
    """A step X_i (i >= 2) as the independent parts it sums, each a draw of
    a law or a window, and the drift a centered family subtracts from it:
    the uncentered step mean (else 0.0).  A Gaussian step has no parts, nor
    has the sign flip's, one draw with alternating signs."""
    if spec.family in ("gaussian_assoc", "adversarial_sign_flip"):
        return (), 0.0
    if spec.family == "moving_sum":
        parts = (_window(spec.law, spec.weights),)
    elif spec.family == "shared_shock":
        parts = (spec.law, spec.shock)
    else:
        parts = (spec.law,)
    return parts, _sum(p.mean for p in parts) if spec.centered else 0.0


def _sum(values) -> float:
    """Left-to-right sum: -0.0 is the one start that changes no value."""
    return sum(values, -0.0)


def step_mean(spec: GeneratorSpec) -> float:
    """E X_i for steps i >= 2 (the start offset rides on step 1 only)."""
    if spec.family == "adversarial_sign_flip":
        raise ValueError("adversarial_sign_flip has alternating step means")
    parts, drift = _parts(spec)
    return _sum(p.mean for p in parts) - drift if parts else 0.0


def _first_step_mean(spec: GeneratorSpec) -> float:
    """E X_1, which for the sign-flip family is the mean of its law."""
    if spec.family == "adversarial_sign_flip":
        return spec.law.mean
    return step_mean(spec)


def step_second_moment(spec: GeneratorSpec) -> float:
    """E X_i^2 for steps i >= 2: each further independent part Q of the
    sum P adds 2 E P E Q + E Q^2."""
    if spec.family == "adversarial_sign_flip":
        return spec.law.second_moment
    parts, drift = _parts(spec)
    if not parts:
        raise ValueError("gaussian_assoc has per-step second moments; use v_n")
    m2, mean = parts[0].second_moment, parts[0].mean
    for part in parts[1:]:
        m2 = m2 + 2.0 * mean * part.mean + part.second_moment
        mean = mean + part.mean
    return m2 - drift * drift


def v_n(spec: GeneratorSpec) -> float:
    """Cumulative increment second moment V_n = sum_i E (S_i - S_{i-1})^2.

    The first step includes the start offset (S_0 = 0 convention), so an
    offset inflates V_n through E (offset + X_1)^2.  Gaussian steps are mean
    zero, so centering them changes nothing.
    """
    if spec.family == "gaussian_assoc":
        return float(np.trace(spec.covariance)) + spec.offset * spec.offset
    m2 = step_second_moment(spec)
    first = m2 + 2.0 * spec.offset * _first_step_mean(spec) + spec.offset * spec.offset
    return first + (spec.horizon - 1) * m2


def sigma_n_exact(spec: GeneratorSpec) -> float | None:
    """sqrt(E S_n^2) in closed form (centering keeps Var S_n), or None when
    only sampling can estimate it."""
    n = spec.horizon
    if spec.family == "iid":
        var = n * (spec.law.second_moment - spec.law.mean**2)
    elif spec.family == "shared_shock":
        var_b = spec.law.second_moment - spec.law.mean**2
        var_w = spec.shock.second_moment - spec.shock.mean**2
        var = n * var_b + n * n * var_w
    elif spec.family == "gaussian_assoc":
        var = float(spec.covariance.sum())
    else:
        return None
    mean_sn = spec.offset + n * step_mean(spec)
    return math.sqrt(mean_sn * mean_sn + var)


def mean_s1(spec: GeneratorSpec) -> float:
    """E S_1 = offset + E X_1."""
    return spec.offset + _first_step_mean(spec)


def step_log_mgf(spec: GeneratorSpec, theta: float) -> float:
    """log E exp(theta X_i) for one increment, exact from the parametric law:
    the sum over the step's independent parts, less theta * drift."""
    parts, drift = _parts(spec)
    if not parts:
        raise ValueError(f"no closed-form log-MGF for family {spec.family!r}")
    total = _sum(p.log_mgf(theta) for p in parts)
    return total - theta * drift if spec.centered else total


def increment_bound(spec: GeneratorSpec) -> float | None:
    """Almost-sure bound C with |S_i - S_{i-1}| <= C for i >= 2, None if unbounded."""
    if spec.family == "adversarial_sign_flip":
        return spec.law.abs_bound
    parts, drift = _parts(spec)
    return _sum(p.abs_bound for p in parts) + abs(drift) if parts else None


def first_step_bound(spec: GeneratorSpec) -> float | None:
    """Almost-sure bound on |S_1| = |offset + X_1|."""
    c = increment_bound(spec)
    return None if c is None else c + abs(spec.offset)


def step_min(spec: GeneratorSpec) -> float | None:
    """Almost-sure lower bound of one increment, None if unbounded."""
    if spec.family == "adversarial_sign_flip":
        return -spec.law.abs_bound
    parts, drift = _parts(spec)
    return _sum(p.min_value for p in parts) - drift if parts else None


def path_min_bound(spec: GeneratorSpec) -> float | None:
    """Deterministic lower bound on min_i S_i, None when increments are unbounded."""
    lo = step_min(spec)
    if lo is None:
        return None
    return spec.offset + (spec.horizon * lo if lo < 0 else lo)


@dataclass(frozen=True)
class StructuralClass:
    """What the parametric family guarantees about its paths.

    The projection property onto nondecreasing functions of the past only
    involves increments from step 2 onwards, so a constant start offset
    never affects it; ``mean_zero_process`` (E S_n = 0 for every n) is the
    stricter flag the concentration statements need.
    """

    associated: bool
    step_mean_zero: bool  # E X_i = 0 for i >= 2
    step_mean_nonneg: bool
    mean_zero_process: bool  # E S_n = 0 for every n (offset included)
    identically_distributed: bool

    @property
    def demimartingale(self) -> bool:
        return self.associated and self.step_mean_zero

    @property
    def demisubmartingale(self) -> bool:
        return self.associated and self.step_mean_nonneg


def classify(spec: GeneratorSpec) -> StructuralClass:
    if spec.family == "adversarial_sign_flip":
        mean_zero = spec.law.mean == 0.0 and spec.offset == 0.0
        return StructuralClass(False, False, False, mean_zero, False)
    mu = step_mean(spec)
    # The offset rides on step 1 only: it breaks identical distribution of
    # increments and shifts E S_n, but not association or step-mean signs.
    if spec.family == "gaussian_assoc":
        diag = np.diag(spec.covariance)
        ident = bool(np.all(diag == diag[0])) and spec.offset == 0.0
    else:
        ident = spec.offset == 0.0
    return StructuralClass(
        associated=True,
        step_mean_zero=mu == 0.0,
        step_mean_nonneg=mu >= 0.0,
        mean_zero_process=mu == 0.0 and spec.offset == 0.0,
        identically_distributed=ident,
    )


# ---------------------------------------------------------------------------
# Exact chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteChainSpec:
    """Finite-support chain for exact enumeration: increments
    X = Y_1 + ... + Y_d + W * (1, ..., 1) - drift, and S = offset + cumsum(X).

    Independent draws Y_k of the law ``atoms`` ((row, probability) pairs,
    rows of one length) add their row to X from 0-based step ``steps[k]`` on,
    cut at both ends of the horizon; W, from ``shared_component``, is
    independent of them.  An i.i.d. walk draws (v,) at every step, the sign
    flip v * (1, -1, 1, ...) at step 0, and a moving sum v * (w_0, ..., w_q)
    at each step from -q to n - 1.
    """

    atoms: tuple[tuple[tuple[float, ...], float], ...]
    steps: tuple[int, ...]
    horizon: int
    shared_component: tuple[tuple[float, float], ...] | None = None
    drift: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if len({len(row) for row, _ in self.atoms}) > 1:
            raise ValueError("atom rows must have one length")
        for sup in (self.atoms, self.shared_component or ((0.0, 1.0),)):
            if any(p <= 0 for _, p in sup):
                raise ValueError("support probabilities must be positive")
            if abs(math.fsum(p for _, p in sup) - 1.0) > _PROB_TOL:
                raise ValueError("support probabilities must sum to 1")
        if self.outcome_count > ENUMERATION_CAP:
            raise ValueError(
                f"enumeration cap exceeded: {self.outcome_count} outcomes "
                f"> {ENUMERATION_CAP}"
            )

    @property
    def outcome_count(self) -> int:
        shared = len(self.shared_component) if self.shared_component else 1
        return len(self.atoms) ** len(self.steps) * shared

    @cached_property
    def grid(self) -> int | None:
        """The least e with every atom entry and shared value a multiple of
        2**-e, or None when S_n may then lie more than ``_GRID_SPAN`` points
        of the lattice 2**-e Z from 0.  Scaled by 2**e, every sum the
        enumeration forms is an integer far below 2**53, exact in float64."""
        values = [x for row, _ in self.atoms for x in row]
        shared = [w for w, _ in self.shared_component or ()]
        e = max(x.as_integer_ratio()[1].bit_length() - 1 for x in values + shared)
        reach = len(self.steps) * max(sum(map(abs, row)) for row, _ in self.atoms)
        reach += self.horizon * max(map(abs, shared), default=0.0)
        return e if reach <= math.ldexp(_GRID_SPAN, -e) else None


def _draw_rows(spec: GeneratorSpec) -> tuple[tuple[float, ...], range]:
    """Each draw v of a family's law adds v times one row to its steps from
    its own on: that row, and the 0-based first steps of the draws in draw
    order, the order in which ``_draws`` takes them from the stream."""
    if spec.family == "moving_sum":
        return spec.weights, range(1 - len(spec.weights), spec.horizon)
    if spec.family == "adversarial_sign_flip":
        return tuple((-1.0) ** i for i in range(spec.horizon)), range(1)
    return (1.0,), range(spec.horizon)


def _reach(starts, width: int, horizon: int) -> list[tuple[int, int]]:
    """Per draw whose row of ``width`` entries is added from 0-based step
    ``start`` on, the bounds (first, stop) of the entries that reach a step,
    the row cut at both ends of the horizon: entry i goes to step start + i."""
    return [
        (-s if s < 0 else 0, width if s <= horizon - width else max(horizon - s, 0))
        for s in starts
    ]


def to_chain(spec: GeneratorSpec) -> DiscreteChainSpec:
    """Exact chain with the same path law, for finite-support families only."""
    if spec.family == "gaussian_assoc":
        raise ValueError(f"not enumerable: family {spec.family!r}")
    row, steps = _draw_rows(spec)
    atoms = tuple((tuple([v * w for w in row]), p) for v, p in spec.law.support())
    shared = tuple(spec.shock.support()) if spec.family == "shared_shock" else None
    # 0.0 + drift: a drift of -0.0 (a Bernoulli(-0.0) step) is stored as 0.0
    drift = 0.0 + _parts(spec)[1]
    return DiscreteChainSpec(atoms, tuple(steps), spec.horizon, shared, drift, spec.offset)
