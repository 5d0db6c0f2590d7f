"""Distributional and complete-convergence diagnostics for partial sums.

The harness never claims a limit theorem: it reports finite-sample
statistics (Kolmogorov-Smirnov and empirical-characteristic-function
distances to the standard normal, per-horizon tail probabilities against
their exponential envelopes) and the trend of the hypothesis ratios along
the horizon grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import generators as gen
from .core import DEFAULT_TOLERANCE_Z, FAIL, SummaryStats, iter_chunks
from .registry import Instance, _check_result, _checked_tolerance_z, expectations, family_z, lookup

__all__ = [
    "ECF_T_GRID",
    "CltDiagnostics",
    "CompleteConvergenceDiagnostics",
    "TailRecord",
    "clt_diagnose",
    "complete_convergence_diagnose",
    "ecf_distance",
    "ks_critical_value",
    "ks_distance_to_normal",
    "ratio_cubed_decreasing",
]

# Frequencies probed by the empirical characteristic function.
ECF_T_GRID = (0.5, 1.0, 2.0, 4.0)

_erf = np.vectorize(math.erf, otypes=[np.float64])


def normal_cdf(x) -> np.ndarray:
    return 0.5 * (1.0 + _erf(np.asarray(x, dtype=np.float64) / math.sqrt(2.0)))


def ks_distance_to_normal(samples) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the empirical CDF and
    the standard normal CDF."""
    z = np.sort(np.asarray(samples, dtype=np.float64))
    if z.size == 0:
        raise ValueError("empty sample")
    n = z.size
    cdf = normal_cdf(z)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / n)))
    return max(d_plus, d_minus)


def ks_critical_value(n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided critical value sqrt(-ln(alpha/2)/2) / sqrt(n)."""
    if n < 1 or not 0.0 < alpha < 1.0:
        raise ValueError("need n >= 1 and alpha in (0, 1)")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ecf_distance(samples, t_grid=ECF_T_GRID) -> float:
    """max over the t grid of |empirical E e^{itZ} - e^{-t^2/2}|."""
    z = np.asarray(samples, dtype=np.float64)
    worst = 0.0
    for t in t_grid:
        emp = np.exp(1j * t * z).mean()
        worst = max(worst, abs(emp - math.exp(-0.5 * t * t)))
    return float(worst)


@dataclass(frozen=True)
class CltDiagnostics:
    """Per-horizon normal-approximation diagnostics for Z_n = S_n / sigma_n.

    sigma_n = sqrt(E S_n^2) is exact (``generators.sigma_n_exact``), never
    estimated from the sample it scales; ratio_cubed = (sqrt(V_n)/sigma_n)^3
    is the quantity whose decay drives the remainder in the normal limit.
    """

    n: int
    sigma_n: float
    V_n: float
    ratio_cubed: float
    ks_distance: float
    ecf_distance: float


def _horizons(n_grid) -> list[int]:
    """The horizons of a strictly increasing ``n_grid``."""
    n_grid = [int(n) for n in n_grid]
    if any(b >= a for a, b in zip(n_grid[1:], n_grid)):
        raise ValueError("n_grid must be strictly increasing")
    return n_grid


def clt_diagnose(
    spec: gen.GeneratorSpec, n_grid, paths: int, seed: int
) -> list[CltDiagnostics]:
    """Normal-approximation diagnostics along an increasing horizon grid.

    V_n and sigma_n come exactly from the family's law; only the
    distances to N(0, 1) of Z_n = S_n / sigma_n are sampled.
    """
    n_grid = _horizons(n_grid)
    if gen.increment_bound(spec) is None:
        raise ValueError("unbounded-increment generator")
    diags = []
    for i, n in enumerate(n_grid):
        sub = replace(spec, horizon=n)
        sigma = gen.sigma_n_exact(sub)
        if sigma <= 0:
            raise ValueError("sigma_n must be positive")
        chunks = iter_chunks(gen.sample_final_sums, sub, paths, seed, chunk_base=i << 32)
        z = np.concatenate(list(chunks)) / sigma
        v = gen.v_n(sub)
        diags.append(
            CltDiagnostics(
                n=n,
                sigma_n=sigma,
                V_n=float(v),
                ratio_cubed=float((math.sqrt(v) / sigma) ** 3),
                ks_distance=ks_distance_to_normal(z),
                ecf_distance=ecf_distance(z),
            )
        )
    return diags


def ratio_cubed_decreasing(diags: list[CltDiagnostics]) -> bool:
    """Whether the remainder-driving ratio decreases along the grid."""
    ratios = [d.ratio_cubed for d in diags]
    return all(b < a for a, b in zip(ratios, ratios[1:]))


@dataclass(frozen=True)
class TailRecord:
    """One horizon of the complete-convergence diagnostic."""

    n: int
    estimate: float
    stderr: float
    envelope: float
    vn_over_nr: float
    within_envelope: bool
    exact: bool


@dataclass(frozen=True)
class CompleteConvergenceDiagnostics:
    """Tail probabilities P(|S_n| >= n^r eps) against exponential envelopes.

    ``partial_sum`` is the running sum of tail estimates (the summability
    witness); ``geometric_fit`` is the least-squares slope of log tails
    against n^r over the horizons with positive estimates (NaN when fewer
    than two such horizons exist).
    """

    r: float
    epsilon: float
    tail_estimates: tuple[TailRecord, ...]
    partial_sum: tuple[float, ...]
    geometric_fit: float


def complete_convergence_diagnose(
    spec: gen.GeneratorSpec,
    r: float,
    epsilon: float,
    n_grid,
    paths: int,
    seed: int,
    tolerance_z: float = DEFAULT_TOLERANCE_Z,
) -> CompleteConvergenceDiagnostics:
    """T5.6's two-sided row, P(|S_n| >= t) <= 2 exp(-t^2 / (2 (V_n + t C/3))),
    at t = n^r eps along the grid, on a ``spec`` that meets T5.6's conditions.

    The tail is exact when the support makes it impossible (t above the
    largest reachable |S_n|) or when the family has a chain; otherwise it is
    sampled, and the grid's horizons are one family of checks gated at
    ``family_z``.  A sampled horizon whose envelope expects fewer than
    ``MIN_EXPECTED_HITS`` hits is INCONCLUSIVE, which counts as within it.
    """
    if r <= 0 or epsilon <= 0:
        raise ValueError("r and epsilon must be positive")
    _checked_tolerance_z(tolerance_z)
    n_grid = _horizons(n_grid)
    entry = lookup("T5.6")
    for check in entry.requires:
        check(Instance(spec, None, None, {}, seed))
    records = []
    running = []
    total = 0.0
    z = family_z(tolerance_z, len(n_grid))
    for i, n in enumerate(n_grid):
        sub = replace(spec, horizon=n)
        threshold = float(n**r * epsilon)
        checks = entry.build(Instance(sub, None, None, {"t": threshold}, seed))
        meta = checks.metas[1]
        if threshold > gen.first_step_bound(sub) + (n - 1) * gen.increment_bound(sub):
            stats, exact = SummaryStats(mean=0.0, stderr=0.0, count=1), True
        else:
            try:
                gen.to_chain(sub)
                exact = True
            except ValueError:
                exact = False
            mode = "exact" if exact else "monte_carlo"
            _, stats = expectations(sub, checks.evaluate, 2, mode, paths, seed,
                                    terminal_only=True, chunk_base=i << 32)
        result = _check_result(stats, meta, z, 0 if exact else paths)
        records.append(
            TailRecord(
                n=n,
                estimate=stats.mean,
                stderr=stats.stderr,
                envelope=meta.rhs,
                vn_over_nr=gen.v_n(sub) / n**r,
                within_envelope=result.verdict != FAIL,
                exact=exact,
            )
        )
        total += stats.mean
        running.append(total)
    pos = [(rec.n, rec.estimate) for rec in records if rec.estimate > 0.0]
    if len(pos) >= 2:
        xs = np.array([n**r for n, _ in pos])
        ys = np.log(np.array([e for _, e in pos]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    else:
        slope = math.nan
    return CompleteConvergenceDiagnostics(
        r=float(r),
        epsilon=float(epsilon),
        tail_estimates=tuple(records),
        partial_sum=tuple(running),
        geometric_fit=slope,
    )
