"""Componentwise-nondecreasing test functions and monotonicity certification.

The defining inequality quantifies over every componentwise nondecreasing
function of the path prefix; a finite seeded battery stands in for that
class, mixing unbounded (linear), bounded (clipped), and indicator
(threshold) shapes.  The same perturbation machinery probes stopping-rule
indicators for a declared monotonicity direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _accumulate_rows, derive_stream

__all__ = [
    "CERTIFIED_BY_CONSTRUCTION",
    "COUNTEREXAMPLE",
    "SAMPLED_OK",
    "MonotoneTestFunction",
    "MonotonicityCertificate",
    "certify_indicator_monotonicity",
    "evaluate",
    "evaluate_batch",
    "evaluate_prefixes",
    "sample_battery",
]

KINDS = (
    "linear_nonneg",
    "clipped_linear",
    "coordinate_max_threshold",
    "last_coordinate",
    "constant_one",
)

CERTIFIED_BY_CONSTRUCTION = "CERTIFIED_BY_CONSTRUCTION"
SAMPLED_OK = "SAMPLED_OK"
COUNTEREXAMPLE = "COUNTEREXAMPLE"

# Perturbation sizes are drawn log-uniformly from this range so probes catch
# both local and global monotonicity breaks.
_DELTA_LO, _DELTA_HI = 1e-6, 1.0


@dataclass(frozen=True)
class MonotoneTestFunction:
    """One battery member; monotone in every coordinate by construction.

    Kind semantics on a prefix (s_1..s_j), with weights/shifts padded by
    zeros or truncated to the prefix length:

    - linear_nonneg:            sum_i w_i s_i               (w_i >= 0)
    - clipped_linear:           clamp(sum_i w_i (s_i - c_i), floor, ceiling)
    - coordinate_max_threshold: 1 if max_i s_i >= c_1 else 0
    - last_coordinate:          s_j
    - constant_one:             1
    """

    kind: str
    weights: tuple[float, ...] = ()
    shifts: tuple[float, ...] = ()
    floor: float = -math.inf
    ceiling: float = math.inf
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        if not all(math.isfinite(c) for c in self.shifts):
            raise ValueError("shifts must be finite")
        if math.isnan(self.floor) or math.isnan(self.ceiling):
            raise ValueError("floor and ceiling must not be NaN")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if self.floor > self.ceiling:
            raise ValueError("floor must not exceed ceiling")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    @property
    def nonnegative(self) -> bool:
        """True when the function cannot take negative values anywhere."""
        if self.kind in ("constant_one", "coordinate_max_threshold"):
            return True
        if self.kind == "clipped_linear":
            return self.floor >= 0.0
        return False


def evaluate(f: MonotoneTestFunction, prefix) -> float:
    """Value of f on one prefix (s_1..s_j); NaN inputs are rejected."""
    arr = np.asarray(prefix, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("prefix must be a nonempty 1-d sequence")
    return float(evaluate_batch(f, arr[None, :])[0])


def evaluate_batch(f: MonotoneTestFunction, prefixes: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an (m, j) prefix matrix; NaN inputs are rejected."""
    p = np.asarray(prefixes, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError("prefixes must be a (paths, j) matrix with j >= 1")
    if np.isnan(p).any():
        raise ValueError("NaN in prefix")
    return evaluate_prefixes(f, p.T)[-1].copy()


def evaluate_prefixes(f: MonotoneTestFunction, paths: np.ndarray) -> np.ndarray:
    """Values of f at every prefix length of a time-major (j, m) path matrix.

    Row i holds f(s_1..s_{i+1}) for each of the m paths, so one pass serves
    every prefix: running sums for the weighted kinds, a running max for the
    threshold kind.  The result may be a view of ``paths``.  Inputs are not
    scanned for NaN; callers check each matrix once (evaluate_batch does).
    """
    j, m = paths.shape
    if f.kind == "constant_one":
        return np.ones((j, m))
    if f.kind == "last_coordinate":
        return paths
    if f.kind == "coordinate_max_threshold":
        c1 = f.shifts[0] if f.shifts else 0.0
        running_max = _accumulate_rows(np.maximum, paths, np.empty((j, m)))
        return (running_max >= c1).astype(np.float64)
    k = min(len(f.weights), j)
    out = np.zeros((j, m))
    if k:
        head = paths[:k]
        if f.kind == "clipped_linear":
            c = np.zeros((k, 1))
            c[: len(f.shifts[:k]), 0] = f.shifts[:k]
            head = head - c
        w = np.asarray(f.weights[:k], dtype=np.float64)[:, None]
        _accumulate_rows(np.add, head * w, out[:k])
        out[k:] = out[k - 1]
    if f.kind == "clipped_linear":
        np.clip(out, f.floor, f.ceiling, out=out)
    return out


def sample_battery(
    seed: int, count: int, require_nonnegative: bool
) -> list[MonotoneTestFunction]:
    """Deterministic battery of ``count`` monotone test functions.

    constant_one is always a fixed member; last_coordinate and a constant -1
    (a clipped member that catches drifting means) join whenever negative
    values are allowed.  The remainder cycles through the random kinds, all
    restricted to nonnegative shapes when ``require_nonnegative``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = derive_stream(seed, 0)
    battery = [MonotoneTestFunction("constant_one", label="f0:one")]
    if not require_nonnegative:
        battery.append(MonotoneTestFunction("last_coordinate", label="f1:last"))
        battery.append(
            MonotoneTestFunction(
                "clipped_linear", floor=-1.0, ceiling=-1.0, label="f2:minus_one"
            )
        )
    if require_nonnegative:
        kinds = ("clipped_linear", "coordinate_max_threshold")
    else:
        kinds = ("linear_nonneg", "clipped_linear", "coordinate_max_threshold")
    i = len(battery)
    while len(battery) < count:
        kind = kinds[i % len(kinds)]
        dim = int(rng.integers(1, 9))
        if kind == "linear_nonneg":
            w = tuple(np.round(rng.exponential(1.0, size=dim), 6))
            battery.append(
                MonotoneTestFunction(kind, weights=w, label=f"f{i}:linear")
            )
        elif kind == "clipped_linear":
            w = tuple(np.round(rng.exponential(1.0, size=dim), 6))
            c = tuple(np.round(rng.normal(0.0, 1.5, size=dim), 6))
            if require_nonnegative:
                floor = 0.0
            else:
                floor = float(np.round(-abs(rng.normal(0.0, 2.0)), 6))
            ceiling = floor + float(np.round(abs(rng.normal(0.0, 3.0)) + 0.5, 6))
            battery.append(
                MonotoneTestFunction(
                    kind,
                    weights=w,
                    shifts=c,
                    floor=floor,
                    ceiling=ceiling,
                    label=f"f{i}:clipped",
                )
            )
        else:
            c1 = float(np.round(rng.normal(0.0, 2.0), 6))
            battery.append(
                MonotoneTestFunction(kind, shifts=(c1,), label=f"f{i}:threshold")
            )
        i += 1
    return battery[:count]


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Result of certifying an indicator's monotonicity direction.

    COUNTEREXAMPLE carries the offending path, the (1-based) perturbed
    coordinate, and the perturbation size.
    """

    status: str
    path: np.ndarray | None = None
    coordinate: int | None = None
    delta: float | None = None
    probes: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (CERTIFIED_BY_CONSTRUCTION, SAMPLED_OK)


def certify_indicator_monotonicity(
    rule,
    direction: str,
    probe_paths,
    probes_per_path: int,
    seed: int,
    target: str = "le",
) -> MonotonicityCertificate:
    """Certify that the stopping indicator moves only in ``direction``.

    ``target`` selects the probed indicator: "le" probes I{tau <= j} as a
    function of S_1..S_j, "eq" probes I{tau = k} for k up to the rule's
    bound minus one.  A perturbation of coordinate i propagates to every
    later coordinate (it raises the increment X_i), matching how functions
    of partial sums respond to their inputs.

    Built-in rules whose indicator is monotone by construction short-circuit
    to CERTIFIED_BY_CONSTRUCTION; everything else is probed on the supplied
    (paths, horizon) matrix.
    """
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ValueError("direction must be nondecreasing or nonincreasing")
    if target not in ("le", "eq"):
        raise ValueError("target must be 'le' or 'eq'")
    if rule.has_analytic_certificate(direction, target):
        return MonotonicityCertificate(status=CERTIFIED_BY_CONSTRUCTION)

    paths = np.asarray(probe_paths, dtype=np.float64)
    m, n = paths.shape
    rng = derive_stream(seed, 0)
    bound = rule.bound() or n
    k_hi = max(bound - 1, 1) if target == "eq" else n

    total = m * probes_per_path
    tau0 = rule.tau_batch(paths)
    checked = 0
    batch = max(1, min(total, (1 << 16) // max(n, 1)))
    while checked < total:
        b = min(batch, total - checked)
        rows = rng.integers(0, m, size=b)
        js = rng.integers(1, k_hi + 1, size=b)  # probed step (j or k)
        coords = (rng.random(size=b) * js).astype(np.int64) + 1  # 1 <= i <= j
        deltas = np.exp(
            rng.uniform(math.log(_DELTA_LO), math.log(_DELTA_HI), size=b)
        )
        perturbed = paths[rows].copy()
        col = np.arange(n)[None, :]
        perturbed += np.where(col >= (coords - 1)[:, None], deltas[:, None], 0.0)
        tau1 = rule.tau_batch(perturbed)
        if target == "le":
            before = _ind_le(tau0[rows], js)
            after = _ind_le(tau1, js)
        else:
            before = (tau0[rows] == js).astype(np.int8)
            after = (tau1 == js).astype(np.int8)
        move = after.astype(np.int16) - before.astype(np.int16)
        bad = move < 0 if direction == "nondecreasing" else move > 0
        if np.any(bad):
            w = int(np.argmax(bad))
            return MonotonicityCertificate(
                status=COUNTEREXAMPLE,
                path=paths[rows[w]].copy(),
                coordinate=int(coords[w]),
                delta=float(deltas[w]),
                probes=checked + w + 1,
            )
        checked += b
    return MonotonicityCertificate(status=SAMPLED_OK, probes=total)


def _ind_le(tau: np.ndarray, j: np.ndarray) -> np.ndarray:
    """I{tau <= j} with the -1 sentinel meaning 'never stopped'."""
    return ((tau >= 1) & (tau <= j)).astype(np.int8)
