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
    "sample_paths",
    "shared_shock_spec",
    "sigma_n_exact",
    "to_chain",
    "uniform",
    "v_n",
]

FAMILIES = (
    "iid",
    "moving_sum",
    "gaussian_assoc",
    "shared_shock",
    "centered_partial_sum",
    "adversarial_sign_flip",
)

# Total outcome count an exact chain may require.
ENUMERATION_CAP = 1 << 24

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
        if self.name == "rademacher":
            return 1.0
        if self.name == "bernoulli":
            return 1.0
        return max(abs(self.a), abs(self.b))

    @property
    def min_value(self) -> float:
        if self.name == "rademacher":
            return -1.0
        if self.name == "bernoulli":
            return 0.0
        return self.a

    @property
    def max_value(self) -> float:
        if self.name == "rademacher":
            return 1.0
        if self.name == "bernoulli":
            return 1.0
        return self.b

    def support(self) -> list[tuple[float, float]] | None:
        """Finite support as (value, probability) pairs, or None if continuous.

        Zero-probability atoms (degenerate bernoulli) are dropped.
        """
        if self.name == "rademacher":
            return [(-1.0, 0.5), (1.0, 0.5)]
        if self.name == "bernoulli":
            pairs = [(0.0, 1.0 - self.p), (1.0, self.p)]
            return [(v, p) for v, p in pairs if p > 0.0]
        return None

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw an array of ``shape``: int8 for the lattice laws, else float64.

        The lattice laws read raw 64-bit words.  They give bit for bit the
        values of numpy's ``rng.integers(0, 2, dtype=np.int8) * 2 - 1`` and
        ``rng.random() < p``, and leave the generator in the state those
        would leave it in.  ``integers`` on an 8-bit range of 2 (Lemire's
        multiply-shift, whose rejection threshold is 0 there) keeps the top
        bit of each byte of the buffered uint32 stream; ``random`` is
        ``(word >> 11) * 2**-53``, which is below p exactly when
        ``word >> 11 < ceil(p * 2**53)``.  They need one of the bit
        generators in ``_RAW64``; ``derive_stream`` gives Philox.
        """
        if self.name == "rademacher":
            count = int(np.prod(shape))
            steps = _uint32_stream_bytes(_raw64(rng), count)
            steps >>= 7
            steps <<= 1
            steps = steps.view(np.int8)
            steps -= 1
            return steps.reshape(shape)
        if self.name == "bernoulli":
            words = _raw64(rng).random_raw(shape)
            words >>= 11
            return (words < np.uint64(math.ceil(self.p * 2.0**53))).view(np.int8)
        return rng.uniform(self.a, self.b, size=shape)

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


# numpy bit generators whose raw output is one 64-bit word, handed out as
# uint32 halves low half first (MT19937's raw output is 32 bits wide)
_RAW64 = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _raw64(rng: np.random.Generator):
    bitgen = rng.bit_generator
    if not isinstance(bitgen, _RAW64):
        raise TypeError(
            f"lattice draws need a 64-bit bit generator, not {type(bitgen).__name__}"
        )
    return bitgen


def _uint32_stream_bytes(bitgen, count: int) -> np.ndarray:
    """The ``count`` bytes, writable, that numpy's buffered uint32 stream
    hands to an 8-bit ``integers`` draw.

    A 64-bit word gives two uint32s, low half first, and a uint32 gives its
    bytes least significant first, so the stream is the little-endian bytes of
    the raw words.  A half-word that an earlier draw left pending in the
    generator's state comes first.  The state is then written back as numpy
    leaves it: the high half of the last word fetched is stored, and it is
    pending exactly when this draw used an odd number of fresh uint32s.
    """
    if count == 0:
        return np.empty(0, dtype=np.uint8)
    state = bitgen.state
    head = 4 if state["has_uint32"] else 0
    halves = -(-max(count - head, 0) // 4)
    words = bitgen.random_raw((halves + 1) // 2)
    out = words.astype("<u8", copy=False).view(np.uint8)
    if head:
        pending = np.array([state["uinteger"]], dtype="<u4").view(np.uint8)
        out = np.concatenate([pending, out])
    state = bitgen.state
    state["has_uint32"] = halves % 2
    if words.size:
        state["uinteger"] = int(words[-1] >> np.uint64(32))
    bitgen.state = state
    return out[:count]


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
    centered_partial_sum
        The ``inner`` family with i * mean subtracted at step i, so the
        wrapped process has mean-zero increments.
    adversarial_sign_flip
        X_1 drawn from ``law``; afterwards X_{i+1} = -X_i.  Violates the
        nonnegative-projection property and exists to prove the harness can
        fail.

    ``offset`` shifts every S_i by a constant (a nonzero start), which
    preserves association-based structure and is how nonnegative or
    strictly-positive processes are produced.
    """

    family: str
    horizon: int
    law: IncrementLaw | None = None
    shock: IncrementLaw | None = None
    weights: tuple[float, ...] | None = None
    covariance: np.ndarray | None = None
    inner: "GeneratorSpec | None" = None
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
        if self.family == "centered_partial_sum":
            if self.inner is None:
                raise ValueError("centered_partial_sum requires an inner spec")
            if self.inner.horizon != self.horizon:
                raise ValueError("inner horizon must match")
            if self.inner.family in ("centered_partial_sum", "adversarial_sign_flip"):
                raise ValueError("cannot center this inner family")
            if self.inner.offset != 0.0:
                raise ValueError("center the family first, then apply an offset")

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
        if self.inner is not None:
            parts.append(f"inner=({self.inner.generator_id})")
        if self.offset:
            parts.append(f"offset={self.offset!r}")
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


def centered(inner: GeneratorSpec, offset: float = 0.0) -> GeneratorSpec:
    return GeneratorSpec(
        "centered_partial_sum", inner.horizon, inner=inner, offset=offset
    )


def adversarial_spec(horizon: int, law: IncrementLaw | None = None) -> GeneratorSpec:
    return GeneratorSpec("adversarial_sign_flip", horizon, law=law or rademacher())


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_increments(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_paths, horizon) matrix of increments X_i (offset excluded)."""
    n = spec.horizon
    if spec.family == "iid":
        return spec.law.sample(rng, (n_paths, n))
    if spec.family == "shared_shock":
        base = spec.law.sample(rng, (n_paths, n)).astype(np.float64, copy=False)
        w = spec.shock.sample(rng, (n_paths, 1)).astype(np.float64, copy=False)
        return base + w
    if spec.family == "moving_sum":
        q = len(spec.weights) - 1
        y = spec.law.sample(rng, (n_paths, n + q)).astype(np.float64, copy=False)
        x = np.zeros((n_paths, n))
        for k, w in enumerate(spec.weights):
            if w:
                x += w * y[:, q - k : q - k + n]
        return x
    if spec.family == "gaussian_assoc":
        z = rng.standard_normal((n_paths, n))
        return z @ _factor(spec.covariance).T
    if spec.family == "centered_partial_sum":
        inner = sample_increments(spec.inner, n_paths, rng)
        return inner.astype(np.float64, copy=False) - _inner_step_mean(spec.inner)
    if spec.family == "adversarial_sign_flip":
        first = spec.law.sample(rng, (n_paths, 1)).astype(np.float64, copy=False)
        alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return first * alt
    raise AssertionError(spec.family)


def _factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric factor F with F F^T = cov, built from the eigendecomposition."""
    vals, vecs = np.linalg.eigh(cov)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _inner_step_mean(inner: GeneratorSpec) -> float:
    if inner.family == "iid":
        return inner.law.mean
    if inner.family == "shared_shock":
        return inner.law.mean + inner.shock.mean
    if inner.family == "moving_sum":
        return inner.law.mean * sum(inner.weights)
    if inner.family == "gaussian_assoc":
        return 0.0
    raise AssertionError(inner.family)


def sample_paths(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (n_paths, horizon) matrix of partial-sum paths S_1..S_n.

    The matrix is column-major: it is the transpose of a time-major
    (horizon, n_paths) build in which S_j = S_{j-1} + X_j is one contiguous
    row, so each column S_j is contiguous.  The float64 adds run in the
    order of ``np.cumsum(increments, axis=1, dtype=np.float64)``, so the
    values are that cumsum's bit for bit.

    A centered family sums the inner draws first and then subtracts i * mean,
    as the exact oracle does, so lattice paths stay exactly on their shifted
    lattice (summing x - mean step by step drifts off it by ulps).
    """
    if spec.family == "centered_partial_sum":
        s = sample_paths(spec.inner, n_paths, rng)
        s -= _inner_step_mean(spec.inner) * np.arange(1, spec.horizon + 1)
    else:
        # one transposing cast (exact for the int8 lattice draws), then the
        # running sum in place, one contiguous row per step
        rows = sample_increments(spec, n_paths, rng).T.astype(np.float64, order="C")
        s = _accumulate_rows(np.add, rows, rows).T
    if spec.offset:
        s += spec.offset
    return s


def _row_sums(inc: np.ndarray) -> np.ndarray:
    # integer increment lattices sum exactly, and much faster, in integers:
    # fewer than 256 int8 steps cannot overflow int16, which halves the cast
    if inc.dtype == np.int8 and inc.shape[1] * 128 < 1 << 15:
        return inc.sum(axis=1, dtype=np.int16).astype(np.float64)
    if inc.dtype.kind in "iu":
        return inc.sum(axis=1, dtype=np.int64).astype(np.float64)
    return inc.sum(axis=1, dtype=np.float64)


def sample_final_sums(spec: GeneratorSpec, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Draw S_n alone for n_paths paths, from the draws ``sample_paths`` makes.

    No partial-sum matrix is built.  Integer-valued draws sum exactly, so on
    lattice families this equals ``sample_paths(...)[:, -1]`` bit for bit; a
    centered family subtracts n * mean once from the inner sum, so its S_n
    stays on the shifted lattice (the step-by-step sum drifts off it by ulps).
    """
    if spec.family == "centered_partial_sum":
        inner = sample_final_sums(spec.inner, n_paths, rng)
        s = inner - spec.horizon * _inner_step_mean(spec.inner)
    else:
        s = _row_sums(sample_increments(spec, n_paths, rng))
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


def step_mean(spec: GeneratorSpec) -> float:
    """E X_i for steps i >= 2 (the start offset rides on step 1 only)."""
    if spec.family == "centered_partial_sum":
        return 0.0
    if spec.family == "adversarial_sign_flip":
        raise ValueError("adversarial_sign_flip has alternating step means")
    return _inner_step_mean(spec)


def step_second_moment(spec: GeneratorSpec) -> float:
    """E X_i^2 for steps i >= 2."""
    if spec.family == "iid":
        return spec.law.second_moment
    if spec.family == "shared_shock":
        return (
            spec.law.second_moment
            + 2.0 * spec.law.mean * spec.shock.mean
            + spec.shock.second_moment
        )
    if spec.family == "moving_sum":
        m2, mu = spec.law.second_moment, spec.law.mean
        var = m2 - mu * mu
        wsum = sum(spec.weights)
        wsq = sum(w * w for w in spec.weights)
        return var * wsq + (mu * wsum) ** 2
    if spec.family == "gaussian_assoc":
        raise ValueError("gaussian_assoc has per-step second moments; use v_n")
    if spec.family == "centered_partial_sum":
        mu = _inner_step_mean(spec.inner)
        return step_second_moment(spec.inner) - mu * mu
    if spec.family == "adversarial_sign_flip":
        return spec.law.second_moment
    raise AssertionError(spec.family)


def v_n(spec: GeneratorSpec) -> float:
    """Cumulative increment second moment V_n = sum_i E (S_i - S_{i-1})^2.

    The first step includes the start offset (S_0 = 0 convention), so an
    offset inflates V_n through E (offset + X_1)^2.
    """
    n = spec.horizon
    if spec.family == "gaussian_assoc":
        base = float(np.trace(spec.covariance))
        first_extra = spec.offset * spec.offset  # Gaussian steps are mean zero
        return base + first_extra
    m2 = step_second_moment(spec)
    if spec.family == "adversarial_sign_flip":
        mu_first = spec.law.mean
    else:
        mu_first = step_mean(spec)
    first = m2 + 2.0 * spec.offset * mu_first + spec.offset * spec.offset
    return first + (n - 1) * m2


def _sum_variance(spec: GeneratorSpec) -> float | None:
    """Var(S_n) in closed form where the family permits it."""
    n = spec.horizon
    if spec.family == "iid":
        return n * (spec.law.second_moment - spec.law.mean**2)
    if spec.family == "shared_shock":
        var_b = spec.law.second_moment - spec.law.mean**2
        var_w = spec.shock.second_moment - spec.shock.mean**2
        return n * var_b + n * n * var_w
    if spec.family == "gaussian_assoc":
        return float(spec.covariance.sum())
    if spec.family == "centered_partial_sum":
        return _sum_variance(spec.inner)
    return None


def sigma_n_exact(spec: GeneratorSpec) -> float | None:
    """sqrt(E S_n^2) in closed form, or None when only sampling can estimate it."""
    var = _sum_variance(spec)
    if var is None:
        return None
    if spec.family in ("centered_partial_sum", "gaussian_assoc"):
        mean_sn = spec.offset
    else:
        mean_sn = spec.offset + spec.horizon * step_mean(spec)
    return math.sqrt(mean_sn * mean_sn + var)


def mean_s1(spec: GeneratorSpec) -> float:
    """E S_1 = offset + E X_1."""
    if spec.family == "adversarial_sign_flip":
        return spec.offset + spec.law.mean
    return spec.offset + step_mean(spec)


def step_log_mgf(spec: GeneratorSpec, theta: float) -> float:
    """log E exp(theta X_i) for one increment, exact from the parametric law.

    Available when increments are identically distributed with a tractable
    moment generating function (iid, shared_shock, moving_sum, and their
    centered wrappers).
    """
    if spec.family == "iid":
        return spec.law.log_mgf(theta)
    if spec.family == "shared_shock":
        return spec.law.log_mgf(theta) + spec.shock.log_mgf(theta)
    if spec.family == "moving_sum":
        return sum(spec.law.log_mgf(theta * w) for w in spec.weights)
    if spec.family == "centered_partial_sum":
        return -theta * _inner_step_mean(spec.inner) + step_log_mgf(spec.inner, theta)
    raise ValueError(f"no closed-form log-MGF for family {spec.family!r}")


def increment_bound(spec: GeneratorSpec) -> float | None:
    """Almost-sure bound C with |S_i - S_{i-1}| <= C for i >= 2, None if unbounded."""
    if spec.family == "iid":
        return spec.law.abs_bound
    if spec.family == "shared_shock":
        return spec.law.abs_bound + spec.shock.abs_bound
    if spec.family == "moving_sum":
        return spec.law.abs_bound * sum(spec.weights)
    if spec.family == "gaussian_assoc":
        return None
    if spec.family == "centered_partial_sum":
        inner = increment_bound(spec.inner)
        if inner is None:
            return None
        return inner + abs(_inner_step_mean(spec.inner))
    if spec.family == "adversarial_sign_flip":
        return spec.law.abs_bound
    raise AssertionError(spec.family)


def first_step_bound(spec: GeneratorSpec) -> float | None:
    """Almost-sure bound on |S_1| = |offset + X_1|."""
    c = increment_bound(spec)
    return None if c is None else c + abs(spec.offset)


def _step_min_max(spec: GeneratorSpec) -> tuple[float, float] | None:
    """Almost-sure pointwise range of one increment, None if unbounded."""
    if spec.family == "iid":
        return spec.law.min_value, spec.law.max_value
    if spec.family == "shared_shock":
        return (
            spec.law.min_value + spec.shock.min_value,
            spec.law.max_value + spec.shock.max_value,
        )
    if spec.family == "moving_sum":
        lo = sum(w * spec.law.min_value for w in spec.weights)
        hi = sum(w * spec.law.max_value for w in spec.weights)
        return lo, hi
    if spec.family == "centered_partial_sum":
        rng = _step_min_max(spec.inner)
        if rng is None:
            return None
        mu = _inner_step_mean(spec.inner)
        return rng[0] - mu, rng[1] - mu
    if spec.family == "adversarial_sign_flip":
        b = spec.law.abs_bound
        return -b, b
    return None


def path_min_bound(spec: GeneratorSpec) -> float | None:
    """Deterministic lower bound on min_i S_i, None when increments are unbounded."""
    rng = _step_min_max(spec)
    if rng is None:
        return None
    lo = rng[0]
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
    """Finite-support increment chain enabling exact enumeration.

    ``coupling`` is "independent" for i.i.d. increments (optionally plus the
    shared component W added to every step) or "alternating" for the
    sign-flip construction where a single draw fixes the whole path as
    X_i = (-1)^{i+1} X_1.
    """

    increment_support: tuple[tuple[float, float], ...]
    horizon: int
    shared_component: tuple[tuple[float, float], ...] | None = None
    drift: float = 0.0
    offset: float = 0.0
    coupling: str = "independent"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.coupling not in ("independent", "alternating"):
            raise ValueError("coupling must be 'independent' or 'alternating'")
        for sup in (self.increment_support, self.shared_component or ()):
            for _, p in sup:
                if p <= 0:
                    raise ValueError("support probabilities must be positive")
        for sup in (self.increment_support, self.shared_component):
            if sup is not None and abs(math.fsum(p for _, p in sup) - 1.0) > _PROB_TOL:
                raise ValueError("support probabilities must sum to 1")
        if self.outcome_count > ENUMERATION_CAP:
            raise ValueError(
                f"enumeration cap exceeded: {self.outcome_count} outcomes "
                f"> {ENUMERATION_CAP}"
            )

    @property
    def outcome_count(self) -> int:
        s = len(self.increment_support)
        w = len(self.shared_component) if self.shared_component else 1
        if self.coupling == "alternating":
            return s * w
        return (s**self.horizon) * w


def to_chain(spec: GeneratorSpec) -> DiscreteChainSpec:
    """Exact chain with the same path law, for finite-support families only."""
    if spec.family == "iid":
        sup = spec.law.support()
        if sup is None:
            raise ValueError("not enumerable: continuous increment law")
        return DiscreteChainSpec(
            increment_support=tuple(sup), horizon=spec.horizon, offset=spec.offset
        )
    if spec.family == "shared_shock":
        sup = spec.law.support()
        shock = spec.shock.support()
        if sup is None or shock is None:
            raise ValueError("not enumerable: continuous increment law")
        return DiscreteChainSpec(
            increment_support=tuple(sup),
            horizon=spec.horizon,
            shared_component=tuple(shock),
            offset=spec.offset,
        )
    if spec.family == "centered_partial_sum":
        inner = to_chain(spec.inner)
        mu = _inner_step_mean(spec.inner)
        return replace(inner, drift=inner.drift + mu, offset=spec.offset)
    if spec.family == "adversarial_sign_flip":
        sup = spec.law.support()
        if sup is None:
            raise ValueError("not enumerable: continuous increment law")
        return DiscreteChainSpec(
            increment_support=tuple(sup),
            horizon=spec.horizon,
            coupling="alternating",
            offset=spec.offset,
        )
    raise ValueError(f"not enumerable: family {spec.family!r}")
