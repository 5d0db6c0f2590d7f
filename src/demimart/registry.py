"""Theorem registry: structural preconditions, check builders, and the
verification driver shared by the Monte-Carlo and exact-enumeration modes.

Every entry reduces its claim to a list of per-path statistics compared
against constants, so one statistic definition serves both modes: chunked
sampling averages it, the oracle folds it against exact outcome
probabilities.  A report FAILs only when a statistic violates its bound by
more than ``tolerance_z`` stderrs (Monte Carlo) or beyond a relative 1e-12
(exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds as bnd
from . import generators as gen
from .core import (
    DEFAULT_TOLERANCE_Z,
    EXACT_REL_EPS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    RunningStats,
    SummaryStats,
    VerificationReport,
    derive_stream,
    iter_chunks,
    tile_paths,
)
from .monotone import (
    COUNTEREXAMPLE,
    certify_indicator_monotonicity,
    evaluate_prefixes,
    sample_battery,
)
from .oracle import fold_expectations, fold_terminal
from .stopping import StoppingRule

__all__ = [
    "CheckResult",
    "PreconditionError",
    "all_entries",
    "check_definition",
    "lookup",
    "verify",
    "verify_detailed",
]

# Monte-Carlo tail checks need this many expected hits to be conclusive.
MIN_EXPECTED_HITS = 100.0

_PROBE_PATHS = 256
_PROBES_PER_PATH = 64
_PROBE_SEED_SALT = 0x9E3779B97F4A7C15


class PreconditionError(ValueError):
    """A structural precondition failed; distinct from a FAIL verdict."""

    def __init__(self, name: str, message: str):
        self.name = name
        self.message = message
        super().__init__(f"{name}: {message}")


@dataclass(frozen=True)
class CheckMeta:
    """One statistic vs one constant: E[stat] {<=,>=} rhs."""

    name: str
    rhs: float
    direction: str  # "<=" or ">="
    tail: bool = False  # probability estimate subject to the hit-count rule


@dataclass(frozen=True)
class CheckSet:
    """Statistics for one registry entry.

    ``evaluate`` maps an (m, horizon) path matrix to a (K, m) statistic
    matrix, or a list of K per-path vectors, with row k belonging to metas[k].
    """

    metas: tuple[CheckMeta, ...]
    evaluate: Callable[[np.ndarray], np.ndarray | list[np.ndarray]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    rhs: float
    direction: str
    stats: SummaryStats
    margin: float
    z: float | None
    verdict: str


@dataclass(frozen=True)
class Instance:
    """Resolved inputs for one verification run."""

    spec: gen.GeneratorSpec | None
    rule: StoppingRule | None
    rule2: StoppingRule | None
    params: dict
    seed: int

    @property
    def cls(self) -> gen.StructuralClass:
        return gen.classify(self.spec)


@dataclass(frozen=True)
class RegistryEntry:
    theorem_id: str
    aliases: tuple[str, ...]
    summary: str
    needs_generator: bool = True
    needs_rule: bool = False
    needs_rule2: bool = False
    required_params: tuple[str, ...] = ()
    exact_only: bool = False
    build: Callable[[Instance], CheckSet] | None = None
    direct: Callable[[Instance], list[tuple[CheckMeta, float, int]]] | None = None
    extra_checksets: Callable[[Instance], dict[str, CheckSet]] | None = None
    # the main checkset reads only S_n = paths[:, -1], so both modes run it
    # on the law of S_n alone: exact atoms, or sampled S_n as an (m, 1) matrix
    terminal_only: bool = False


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _require(cond: bool, name: str, message: str) -> None:
    if not cond:
        raise PreconditionError(name, message)


def _probe_seed(seed: int) -> int:
    return (int(seed) + _PROBE_SEED_SALT) & ((1 << 64) - 1)


def _certify(inst: Instance, rule: StoppingRule, direction: str, target: str) -> None:
    """Analytic certificate or sampled probe for the needed indicator direction."""
    if rule.has_analytic_certificate(direction, target):
        return
    probe = gen.generate(inst.spec, _PROBE_PATHS, _probe_seed(inst.seed))
    cert = certify_indicator_monotonicity(
        rule, direction, probe, _PROBES_PER_PATH, _probe_seed(inst.seed), target=target
    )
    if cert.status == COUNTEREXAMPLE:
        raise PreconditionError(
            "stopping.direction",
            f"indicator of {rule.label} is not {direction} "
            f"(target {target}): counterexample at coordinate {cert.coordinate} "
            f"with delta {cert.delta:.6g}",
        )


def _taus(rule: StoppingRule, paths: np.ndarray) -> np.ndarray:
    """Stopping indices with finiteness enforced on the evaluated paths."""
    tau = rule.tau_batch(paths)
    if np.any(tau == -1):
        raise PreconditionError(
            "stopping", "stopping time not a.s. finite at this horizon"
        )
    b = rule.bound()
    if b is not None and np.any(tau > b):
        raise PreconditionError(
            "stopping", f"a path stopped after the declared bound {b}"
        )
    return tau


def _values_at(paths: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return paths[np.arange(paths.shape[0]), idx - 1]


def _stopped_at(paths: np.ndarray, tau: np.ndarray, s_tau: np.ndarray, j: int) -> np.ndarray:
    """S_(tau^j) from the column S_j and the gathered S_tau, for tau >= 1.

    One gather of S_tau serves every j: where tau >= j the value is the
    column S_j, contiguous in a sampled chunk, so no per-j gather is made.
    """
    return np.where(tau >= j, paths[:, j - 1], s_tau)


def _wedge(tau: np.ndarray, j: int) -> np.ndarray:
    """tau ^ j with the -1 sentinel treated as +infinity."""
    return np.where(tau == -1, j, np.minimum(tau, j))


def _battery(inst: Instance, nonneg: bool, default_size: int = 16):
    size = int(inst.params.get("battery_size", default_size))
    seed = int(inst.params.get("battery_seed", inst.seed))
    return sample_battery(seed, size, require_nonnegative=nonneg)


def _rule_direction(rule: StoppingRule) -> str:
    _require(
        rule.declared_direction in ("nondecreasing", "nonincreasing"),
        "stopping.direction",
        "declared_direction (nondecreasing or nonincreasing) required",
    )
    return rule.declared_direction


def _require_bounded(rule: StoppingRule, horizon: int, name: str = "stopping") -> int:
    b = rule.bound()
    _require(b is not None, name, "a bounded (capped or deterministic) rule is required")
    _require(b <= horizon, name, f"rule bound {b} exceeds the horizon {horizon}")
    return b


# ---------------------------------------------------------------------------
# Entry builders: defining inequality
# ---------------------------------------------------------------------------


def _battery_stats(battery, weights: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """Statistic matrix weights[r] * f(prefix rows 0..r) for every row r and
    battery member f, ordered row-major by (r, f).

    ``prefixes`` is a time-major (rows, m) matrix, scanned for NaN once;
    ``weights`` broadcasts against it.
    """
    if np.isnan(prefixes).any():
        raise ValueError("NaN in prefix")
    rows, m = prefixes.shape
    stats = np.empty((rows, len(battery), m))
    for i, f in enumerate(battery):
        np.multiply(weights, evaluate_prefixes(f, prefixes), out=stats[:, i])
    return stats.reshape(rows * len(battery), m)


def _projection_checkset(battery, n: int, name_prefix: str, transform=None) -> CheckSet:
    """E[(M_{j+1} - M_j) f(M_1..M_j)] >= 0 for every j < n and battery f,
    with M = transform(S) applied to the time-major chunk (identity if None)."""
    metas = tuple(
        CheckMeta(f"{name_prefix}j={j}|{f.label}", 0.0, ">=")
        for j in range(1, n)
        for f in battery
    )

    def evaluate(paths: np.ndarray) -> np.ndarray:
        s = np.ascontiguousarray(paths.T)
        if transform is not None:
            s = transform(s)
        return _battery_stats(battery, s[1:] - s[:-1], s[:-1])

    return CheckSet(metas, evaluate)


def _build_definition(inst: Instance, nonneg: bool) -> CheckSet:
    n = inst.spec.horizon
    _require(n >= 2, "generator.horizon", "definition check needs horizon >= 2")
    return _projection_checkset(_battery(inst, nonneg, default_size=32), n, "")


# ---------------------------------------------------------------------------
# Entry builders: optional sampling
# ---------------------------------------------------------------------------


def _build_t14(inst: Instance) -> CheckSet:
    rule = inst.rule
    n_small = int(inst.params["n"])
    m_big = int(inst.params["m"])
    h = inst.spec.horizon
    _require(1 <= n_small <= m_big <= h, "params.n", "need 1 <= n <= m <= horizon")
    direction = _rule_direction(rule)
    if direction == "nondecreasing":
        _require(
            inst.cls.demimartingale,
            "generator",
            "nondecreasing-indicator ordering requires a demimartingale family",
        )
    else:
        _require(
            inst.cls.demisubmartingale,
            "generator",
            "nonincreasing-indicator ordering requires a demisubmartingale family",
        )
    _certify(inst, rule, direction, "le")
    sign = 1.0 if direction == "nonincreasing" else -1.0
    metas = (
        CheckMeta(f"E[S_(tau^{m_big})] vs E[S_(tau^{n_small})]", 0.0, ">="),
        CheckMeta(f"E[S_(tau^{n_small})] vs E[S_1]", 0.0, ">="),
    )

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        tau = rule.tau_batch(paths)
        w_m = _values_at(paths, _wedge(tau, m_big))
        w_n = _values_at(paths, _wedge(tau, n_small))
        return [sign * (w_m - w_n), sign * (w_n - paths[:, 0])]

    return CheckSet(metas, evaluate)


def _build_t21(inst: Instance) -> CheckSet:
    rule = inst.rule
    m_bound = _require_bounded(rule, inst.spec.horizon)
    _require(
        inst.cls.demisubmartingale,
        "generator",
        "stopped-pair inequality requires a demisubmartingale family",
    )
    _certify(inst, rule, "nondecreasing", "eq")
    battery = _battery(inst, nonneg=True)
    metas = tuple(
        CheckMeta(f"E[(S_M - S_tau) {f.label}(S_tau)]", 0.0, ">=") for f in battery
    )

    def evaluate(paths: np.ndarray) -> np.ndarray:
        tau = _taus(rule, paths)
        s_tau = _values_at(paths, tau)
        gap = paths[:, m_bound - 1] - s_tau
        return _battery_stats(battery, gap, s_tau[None, :])

    return CheckSet(metas, evaluate)


def _build_c22(inst: Instance) -> CheckSet:
    rule = inst.rule
    _require(
        inst.cls.demisubmartingale,
        "generator",
        "stop-vs-fixed comparison requires a demisubmartingale family",
    )
    direction = _rule_direction(rule)
    _certify(inst, rule, direction, "le")
    h = inst.spec.horizon
    metas = tuple(CheckMeta(f"E[S_{j}] vs E[S_(tau^{j})]", 0.0, ">=") for j in range(1, h + 1))

    def evaluate(paths: np.ndarray) -> np.ndarray:
        # tau ^ h has the same wedge with every j <= h as tau, -1 included
        tau = _wedge(rule.tau_batch(paths), h)
        s_tau = _values_at(paths, tau)
        out = np.empty((h, len(paths)))
        for j in range(1, h + 1):
            np.subtract(paths[:, j - 1], _stopped_at(paths, tau, s_tau, j), out=out[j - 1])
        return out

    return CheckSet(metas, evaluate)


def _build_t23(inst: Instance) -> CheckSet:
    rule1, rule2 = inst.rule, inst.rule2
    _require(rule2 is not None, "stopping2", "a second stopping rule is required")
    _require(
        gen.increment_bound(inst.spec) is not None,
        "generator",
        "two-stop inequality requires bounded increments",
    )
    _require_bounded(rule2, inst.spec.horizon, name="stopping2")
    _require(
        inst.cls.demisubmartingale,
        "generator",
        "two-stop inequality requires a demisubmartingale family",
    )
    _certify(inst, rule1, "nondecreasing", "eq")
    battery = _battery(inst, nonneg=True)
    metas = tuple(
        CheckMeta(f"E[(S_tau2 - S_tau1) {f.label}(S_tau1)]", 0.0, ">=") for f in battery
    )

    def evaluate(paths: np.ndarray) -> np.ndarray:
        t1 = _taus(rule1, paths)
        t2 = _taus(rule2, paths)
        if np.any(t2 < t1):
            raise PreconditionError("stopping", "tau1 <= tau2 violated on a path")
        s_t1 = _values_at(paths, t1)
        return _battery_stats(battery, _values_at(paths, t2) - s_t1, s_t1[None, :])

    return CheckSet(metas, evaluate)


def _stopped_vs_start(inst: Instance, direction: str) -> CheckSet:
    rule = inst.rule
    metas = (CheckMeta("E[S_tau - S_1]", 0.0, direction),)

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        tau = _taus(rule, paths)
        return [_values_at(paths, tau) - paths[:, 0]]

    return CheckSet(metas, evaluate)


def _build_t31(inst: Instance) -> CheckSet:
    _require(
        inst.cls.demimartingale,
        "generator",
        "optional-sampling upper bound requires a demimartingale family",
    )
    _certify(inst, inst.rule, "nondecreasing", "le")
    return _stopped_vs_start(inst, "<=")


def _build_t32(inst: Instance) -> CheckSet:
    _require(
        inst.cls.demimartingale,
        "generator",
        "requires a demimartingale family",
    )
    pmin = gen.path_min_bound(inst.spec)
    _require(
        pmin is not None and pmin >= 0.0,
        "generator",
        "requires a pathwise-nonnegative process (use a start offset)",
    )
    _certify(inst, inst.rule, "nondecreasing", "le")
    return _stopped_vs_start(inst, "<=")


def _build_t33(inst: Instance) -> CheckSet:
    _require(
        inst.cls.demisubmartingale,
        "generator",
        "optional-sampling lower bound requires a demisubmartingale family",
    )
    _certify(inst, inst.rule, "nonincreasing", "le")
    return _stopped_vs_start(inst, ">=")


def _build_l51(inst: Instance) -> CheckSet:
    rule = inst.rule
    _require(
        inst.cls.demimartingale,
        "generator",
        "the stopped-moment bound is stated for demimartingale families",
    )
    c = gen.increment_bound(inst.spec)
    c1 = gen.first_step_bound(inst.spec)
    _require(c is not None, "generator", "requires bounded increments")
    big_m = max(c, c1)
    h = inst.spec.horizon
    metas = []
    for n in range(1, h + 1):
        metas.append(CheckMeta(f"n={n}: M E[tau^n] vs E|S_(tau^n)|", 0.0, ">="))
        metas.append(CheckMeta(f"n={n}: M E[tau] vs M E[tau^n]", 0.0, ">="))

    def evaluate(paths: np.ndarray) -> np.ndarray:
        tau = _taus(rule, paths)
        s_tau = _values_at(paths, tau)
        # rows 2n - 2 and 2n - 1: M (tau^n) - |S_(tau^n)| and M (tau - tau^n)
        out = np.empty((2 * h, len(paths)))
        for n in range(1, h + 1):
            w = np.minimum(tau, n)
            moment, tail = out[2 * n - 2], out[2 * n - 1]
            np.multiply(big_m, w, out=moment)
            moment -= np.abs(_stopped_at(paths, tau, s_tau, n))
            np.multiply(big_m, tau - w, out=tail)
        return out

    return CheckSet(tuple(metas), evaluate)


# ---------------------------------------------------------------------------
# Entry builders: maximal / concentration / random-sum
# ---------------------------------------------------------------------------


def _build_t41(inst: Instance) -> CheckSet:
    lam = float(inst.params["lambda"])
    _require(lam > 0, "params.lambda", "lambda must be positive")
    j = int(inst.params.get("j", inst.spec.horizon))
    _require(1 <= j <= inst.spec.horizon, "params.j", "j must lie in 1..horizon")
    _require(
        inst.cls.demimartingale,
        "generator",
        "running-max bound requires a demimartingale family",
    )
    pmin = gen.path_min_bound(inst.spec)
    _require(
        pmin is not None and pmin >= 0.0,
        "generator",
        "running-max bound is verified for pathwise-nonnegative processes",
    )
    rhs = bnd.doob_max_bound(gen.mean_s1(inst.spec), lam)
    metas = (CheckMeta(f"P(max_(i<={j}) S_i >= {lam!r})", rhs, "<=", tail=True),)

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        return [(paths[:, :j].max(axis=1) >= lam).astype(np.float64)]

    return CheckSet(metas, evaluate)


def _build_c43(inst: Instance) -> CheckSet:
    p = float(inst.params["p"])
    _require(0.0 < p < 1.0, "params.p", "p must lie in (0, 1)")
    j = int(inst.params.get("j", inst.spec.horizon))
    _require(1 <= j <= inst.spec.horizon, "params.j", "j must lie in 1..horizon")
    _require(
        inst.cls.demisubmartingale,
        "generator",
        "requires a demi(sub)martingale family",
    )
    pmin = gen.path_min_bound(inst.spec)
    _require(
        pmin is not None and pmin > 0.0,
        "generator",
        "requires a pathwise bound S_i >= M > 0 (use a start offset)",
    )
    rhs = bnd.lp_max_bound(p, pmin, gen.mean_s1(inst.spec))
    metas = (CheckMeta(f"E[(max_(i<={j}) S_i)^{p!r}]", rhs, "<="),)

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        return [paths[:, :j].max(axis=1) ** p]

    return CheckSet(metas, evaluate)


def _grid_margins(inst: Instance) -> list[tuple[CheckMeta, float, int]]:
    """Analytic lemma suite: relative margins over dense grids."""
    gsize = int(inst.params.get("grid", 10_000))
    u = 3.0 * (np.arange(1, gsize + 1)) / (gsize + 1)
    phi_rel = (bnd.phi_bound(u) - bnd.phi(u)) / bnd.phi_bound(u)
    v = np.linspace(0.0, 1e3, gsize + 1)
    gap = bnd.h1(v) - bnd.h1_lower(v)
    h1_rel = gap / np.maximum(bnd.h1_lower(v), 1e-30)
    rng = derive_stream(inst.seed, 0)
    t = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    vv = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    cc = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    psi_rel = np.empty(1000)
    for i in range(1000):
        lower = t[i] * t[i] / (2.0 * (vv[i] + t[i] * cc[i] / 3.0))
        psi_rel[i] = (bnd.psi_sup(t[i], vv[i], cc[i]) - lower) / lower
    return [
        (CheckMeta("min rel margin: phi <= phi_bound on (0,3)", 0.0, ">="),
         float(phi_rel.min()), gsize),
        (CheckMeta("min rel margin: h1 >= h1_lower on [0,1e3]", 0.0, ">="),
         float(h1_rel.min()), gsize + 1),
        (CheckMeta("min rel margin: psi_sup >= t^2/(2(V+tC/3))", 0.0, ">="),
         float(psi_rel.min()), 1000),
    ]


def _mgf_margins(inst: Instance) -> list[tuple[CheckMeta, float, int]]:
    """Exact log-MGF of the step law vs the quadratic bound on a lambda grid."""
    spec = inst.spec
    _require(gen.step_mean(spec) == 0.0, "generator", "requires mean-zero steps")
    c = gen.increment_bound(spec)
    _require(c is not None, "generator", "requires bounded increments")
    ex2 = gen.step_second_moment(spec)
    gsize = int(inst.params.get("grid", 64))
    lams = (3.0 / c) * np.arange(1, gsize + 1) / (gsize + 1)
    margins = np.empty(gsize)
    for i, lam in enumerate(lams):
        upper = bnd.mgf_log_bound(lam, c, ex2)
        margins[i] = (upper - gen.step_log_mgf(spec, lam)) / max(upper, 1e-30)
    return [
        (CheckMeta("min rel margin: log mgf <= quadratic bound", 0.0, ">="),
         float(margins.min()), gsize)
    ]


def _build_bernstein(inst: Instance, need_assoc_label: str) -> CheckSet:
    t = float(inst.params["t"])
    _require(t > 0, "params.t", "t must be positive")
    _require(
        inst.cls.demimartingale and inst.cls.mean_zero_process,
        "generator",
        f"{need_assoc_label} requires mean-zero associated increments "
        "with E S_n = 0",
    )
    c = gen.increment_bound(inst.spec)
    _require(c is not None, "generator", "requires bounded increments")
    v = gen.v_n(inst.spec)
    one = bnd.bernstein_tail(t, v, c)
    metas = (
        CheckMeta(f"P(S_n >= {t!r})", one, "<=", tail=True),
        CheckMeta(f"P(|S_n| >= {t!r})", 2.0 * one, "<=", tail=True),
    )

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        s_n = paths[:, -1]
        return [
            (s_n >= t).astype(np.float64),
            (np.abs(s_n) >= t).astype(np.float64),
        ]

    return CheckSet(metas, evaluate)


def _exp_stopped_stat(rule: StoppingRule, theta: float, h_slope: float):
    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        tau = _taus(rule, paths)
        return [np.exp(theta * _values_at(paths, tau) - h_slope * tau)]

    return evaluate


def _build_c410(inst: Instance) -> CheckSet:
    theta = float(inst.params["theta"])
    _require(theta > 0, "params.theta", "theta must be positive")
    h_slope = float(inst.params.get("h_slope", 0.0))
    _require(
        inst.cls.demisubmartingale,
        "generator",
        "exponential stopped inequality requires a demi(sub)martingale family",
    )
    direction = _rule_direction(inst.rule)
    _certify(inst, inst.rule, direction, "le")
    cmp_dir = "<=" if direction == "nondecreasing" else ">="
    metas = (CheckMeta(f"E[exp({theta!r} S_tau - {h_slope!r} tau)]", 1.0, cmp_dir),)
    return CheckSet(metas, _exp_stopped_stat(inst.rule, theta, h_slope))


def _c410_precheck(inst: Instance) -> dict[str, CheckSet]:
    """Independent battery check that the transformed process is a
    demisubmartingale before the stopped inequality is trusted."""
    theta = float(inst.params["theta"])
    h_slope = float(inst.params.get("h_slope", 0.0))
    n = inst.spec.horizon
    if n < 2:
        return {}
    battery = _battery(inst, nonneg=True, default_size=12)
    steps = np.arange(1, n + 1, dtype=np.float64)[:, None]

    def transform(s: np.ndarray) -> np.ndarray:
        return np.exp(theta * s - h_slope * steps)

    checkset = _projection_checkset(battery, n, "transformed ", transform)
    return {"demisub_precheck": checkset}


def _build_wald_first(inst: Instance) -> CheckSet:
    rule = inst.rule
    _require(
        inst.cls.associated and inst.cls.identically_distributed,
        "generator",
        "random-sum mean inequality requires identically distributed "
        "associated increments",
    )
    if rule.bound() is None:
        _require(
            gen.increment_bound(inst.spec) is not None,
            "generator",
            "an unbounded rule needs bounded increments (finite E tau route)",
        )
    direction = _rule_direction(rule)
    _certify(inst, rule, direction, "le")
    mu = gen.step_mean(inst.spec)
    cmp_dir = ">=" if direction == "nonincreasing" else "<="
    metas = (CheckMeta("E[S_tau - mu tau]", 0.0, cmp_dir),)

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        tau = _taus(rule, paths)
        return [_values_at(paths, tau) - mu * tau]

    return CheckSet(metas, evaluate)


def _build_wald_second(inst: Instance) -> CheckSet:
    rule = inst.rule
    _require(
        inst.cls.associated and inst.cls.identically_distributed,
        "generator",
        "requires identically distributed associated increments",
    )
    rng = gen._step_min_max(inst.spec)
    _require(
        rng is not None and rng[0] >= 0.0,
        "generator",
        "requires nonnegative increments",
    )
    _require_bounded(rule, inst.spec.horizon)
    direction = _rule_direction(rule)
    _certify(inst, rule, direction, "le")
    ex2 = gen.step_second_moment(inst.spec)
    cmp_dir = ">=" if direction == "nonincreasing" else "<="
    metas = (CheckMeta("E[S_tau^2 - EX^2 tau]", 0.0, cmp_dir),)

    def evaluate(paths: np.ndarray) -> list[np.ndarray]:
        tau = _taus(rule, paths)
        s_tau = _values_at(paths, tau)
        return [s_tau * s_tau - ex2 * tau]

    return CheckSet(metas, evaluate)


def _build_wald_exp(inst: Instance) -> CheckSet:
    rule = inst.rule
    theta = float(inst.params["theta"])
    _require(theta > 0, "params.theta", "theta must be positive")
    _require(
        inst.cls.associated and inst.cls.step_mean_nonneg,
        "generator",
        "requires associated increments with nonnegative means",
    )
    _require(inst.spec.offset == 0.0, "generator", "start offset not supported here")
    _require_bounded(rule, inst.spec.horizon)
    direction = _rule_direction(rule)
    _certify(inst, rule, direction, "le")
    psi = gen.step_log_mgf(inst.spec, theta)
    cmp_dir = ">=" if direction == "nonincreasing" else "<="
    metas = (CheckMeta(f"E[exp({theta!r} S_tau - tau psi)]", 1.0, cmp_dir),)
    return CheckSet(metas, _exp_stopped_stat(rule, theta, psi))


# ---------------------------------------------------------------------------
# Registry table
# ---------------------------------------------------------------------------


def _entry_list() -> list[RegistryEntry]:
    return [
        RegistryEntry(
            "Def1.2-demi",
            ("Def1.2", "check-demi"),
            "E[(S_{j+1}-S_j) f(S_1..S_j)] >= 0 for every battery f and j < n "
            "(mean-zero / demimartingale variant)",
            build=lambda inst: _build_definition(inst, nonneg=False),
        ),
        RegistryEntry(
            "Def1.2-demisub",
            (),
            "same projection statistic over the nonnegative battery "
            "(demisubmartingale variant)",
            build=lambda inst: _build_definition(inst, nonneg=True),
        ),
        RegistryEntry(
            "T1.4-order",
            ("T1.4",),
            "E S_(tau^m) <= E S_(tau^n) <= E S_1 for nondecreasing indicators on "
            "demimartingales; reversed for nonincreasing on demisubmartingales",
            needs_rule=True,
            required_params=("n", "m"),
            build=_build_t14,
        ),
        RegistryEntry(
            "T2.1-stopped-pair",
            ("T2.1",),
            "bounded tau with nondecreasing I{tau=k}: E[(S_M - S_tau) f(S_tau)] >= 0 "
            "over the nonnegative battery (includes E S_tau <= E S_M)",
            needs_rule=True,
            build=_build_t21,
        ),
        RegistryEntry(
            "C2.2-stop-vs-fixed",
            ("C2.2",),
            "E S_(tau^j) <= E S_j for every j",
            needs_rule=True,
            build=_build_c22,
        ),
        RegistryEntry(
            "T2.3-two-stops",
            ("T2.3",),
            "tau1 <= tau2 with nondecreasing I{tau1=j}: "
            "E[(S_tau2 - S_tau1) g(S_tau1)] >= 0 over the nonnegative battery",
            needs_rule=True,
            needs_rule2=True,
            build=_build_t23,
        ),
        RegistryEntry(
            "T3.1-OST-upper",
            ("T3.1",),
            "demimartingale, nondecreasing indicator, finite tau: E S_tau <= E S_1",
            needs_rule=True,
            build=_build_t31,
        ),
        RegistryEntry(
            "T3.2-OST-nonneg",
            ("T3.2",),
            "nonnegative demimartingale, finite tau: E S_tau <= E S_1",
            needs_rule=True,
            build=_build_t32,
        ),
        RegistryEntry(
            "T3.3-OST-lower",
            ("T3.3",),
            "demisubmartingale, nonincreasing indicator: E S_tau >= E S_1",
            needs_rule=True,
            build=_build_t33,
        ),
        RegistryEntry(
            "L5.1-ui-proxy",
            ("L5.1",),
            "E|S_(tau^n)| <= M E(tau^n) <= M E tau for every n "
            "(bounded increments, finite E tau)",
            needs_rule=True,
            build=_build_l51,
        ),
        RegistryEntry(
            "T4.1-doob-max",
            ("T4.1",),
            "P(max_{i<=j} S_i >= lambda) <= E S_1 / lambda",
            needs_rule=False,
            required_params=("lambda",),
            build=_build_t41,
        ),
        RegistryEntry(
            "C4.3-lp-max",
            ("C4.3",),
            "E (max_{i<=j} S_i)^p <= p E S_1 / ((1-p) M^{1-p}) for S >= M > 0, p < 1",
            needs_rule=False,
            required_params=("p",),
            build=_build_c43,
        ),
        RegistryEntry(
            "L4.4/L4.6-lemma-grid",
            ("L4.4", "L4.6", "L4.4/L4.6"),
            "grid check: phi <= phi_bound on (0,3); h1 >= h1_lower on [0,1e3]; "
            "psi_sup >= t^2/(2(V+tC/3)) on random positive triples",
            needs_generator=False,
            exact_only=True,
            direct=_grid_margins,
        ),
        RegistryEntry(
            "L4.5-mgf",
            ("L4.5",),
            "exact step log-MGF <= lambda^2 EX^2 / (2(1 - lambda C/3)) on a "
            "lambda grid in (0, 3/C)",
            exact_only=True,
            direct=_mgf_margins,
        ),
        RegistryEntry(
            "T4.7-bernstein",
            ("T4.7",),
            "P(S_n >= t) <= exp(-t^2/(2(V_n + tC/3))), two-sided doubled",
            required_params=("t",),
            build=lambda inst: _build_bernstein(inst, "the concentration bound"),
            terminal_only=True,
        ),
        RegistryEntry(
            "C4.10-exp-stopped",
            ("C4.10",),
            "E[exp(theta S_tau - H(tau))] <= 1 for nondecreasing indicators "
            "(>= 1 for nonincreasing), H(k) = h_slope k",
            needs_rule=True,
            required_params=("theta",),
            build=_build_c410,
            extra_checksets=_c410_precheck,
        ),
        RegistryEntry(
            "C5.2/C5.3-wald-first",
            ("C5.2", "C5.3", "C5.2/C5.3"),
            "E S_tau >= E X_1 E tau for nonincreasing indicators "
            "(<= for nondecreasing with bounded tau)",
            needs_rule=True,
            build=_build_wald_first,
        ),
        RegistryEntry(
            "C5.4-wald-second",
            ("C5.4",),
            "E S_tau^2 >= (<=) E X_1^2 E tau for nonnegative identically "
            "distributed associated increments, bounded tau",
            needs_rule=True,
            build=_build_wald_second,
        ),
        RegistryEntry(
            "C5.5-wald-exp",
            ("C5.5",),
            "E[exp(theta S_tau - sum_{i<=tau} psi(theta))] >= (<=) 1 with "
            "psi = log E e^{theta X}",
            needs_rule=True,
            required_params=("theta",),
            build=_build_wald_exp,
        ),
        RegistryEntry(
            "T5.6-bernstein-assoc",
            ("T5.6",),
            "the concentration bound restricted to mean-zero associated "
            "increment families",
            required_params=("t",),
            build=lambda inst: _build_bernstein(inst, "the associated-sum bound"),
            terminal_only=True,
        ),
    ]


_ENTRIES: dict[str, RegistryEntry] = {e.theorem_id: e for e in _entry_list()}
_ALIASES: dict[str, str] = {}
for _e in _ENTRIES.values():
    for _a in _e.aliases:
        _ALIASES[_a] = _e.theorem_id


def all_entries() -> list[RegistryEntry]:
    return list(_ENTRIES.values())


def lookup(theorem_id: str) -> RegistryEntry:
    canon = _ALIASES.get(theorem_id, theorem_id)
    entry = _ENTRIES.get(canon)
    if entry is None:
        raise PreconditionError("theorem_id", f"unknown theorem id {theorem_id!r}")
    return entry


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _margin(mean: float, meta: CheckMeta) -> float:
    return (meta.rhs - mean) if meta.direction == "<=" else (mean - meta.rhs)


def _exact_result(value: float, meta: CheckMeta, count: int) -> CheckResult:
    margin = _margin(value, meta)
    scale = max(1.0, abs(value), abs(meta.rhs))
    verdict = FAIL if margin / scale < -EXACT_REL_EPS else PASS
    return CheckResult(
        name=meta.name,
        rhs=meta.rhs,
        direction=meta.direction,
        stats=SummaryStats(mean=value, stderr=0.0, count=count),
        margin=margin,
        z=None,
        verdict=verdict,
    )


def _mc_result(
    rs: RunningStats, meta: CheckMeta, tolerance_z: float, total_paths: int
) -> CheckResult:
    stats = rs.to_summary()
    margin = _margin(stats.mean, meta)
    scale = max(1.0, abs(stats.mean), abs(meta.rhs))
    if math.isinf(stats.stderr):
        return CheckResult(meta.name, meta.rhs, meta.direction, stats, margin, None, INCONCLUSIVE)
    if meta.tail and total_paths * meta.rhs < MIN_EXPECTED_HITS:
        z = margin / stats.stderr if stats.stderr > 0 else None
        return CheckResult(meta.name, meta.rhs, meta.direction, stats, margin, z, INCONCLUSIVE)
    if stats.stderr == 0.0:
        verdict = FAIL if margin / scale < -EXACT_REL_EPS else PASS
        return CheckResult(meta.name, meta.rhs, meta.direction, stats, margin, None, verdict)
    z = margin / stats.stderr
    verdict = FAIL if z < -tolerance_z else PASS
    return CheckResult(meta.name, meta.rhs, meta.direction, stats, margin, z, verdict)


def _sort_key(r: CheckResult):
    # FAIL first, then INCONCLUSIVE, then smallest headroom
    rank = {FAIL: 0, INCONCLUSIVE: 1, PASS: 2}[r.verdict]
    headroom = r.z if r.z is not None else r.margin / max(1.0, abs(r.rhs), abs(r.stats.mean))
    return (rank, headroom)


def _aggregate(theorem_id: str, results: list[CheckResult], exact: bool) -> VerificationReport:
    binding = min(results, key=_sort_key)
    if any(r.verdict == FAIL for r in results):
        verdict = FAIL
    elif any(r.verdict == INCONCLUSIVE for r in results):
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return VerificationReport(
        theorem_id=theorem_id,
        lhs=binding.stats,
        rhs=binding.rhs,
        direction=binding.direction,
        z_margin=binding.z,
        verdict=verdict,
        exact=exact,
    )


def _run_checkset(
    theorem_id: str,
    inst: Instance,
    checkset: CheckSet,
    mode: str,
    paths: int,
    tolerance_z: float,
    terminal_only: bool = False,
) -> tuple[VerificationReport, list[CheckResult]]:
    if mode == "exact":
        try:
            chain = gen.to_chain(inst.spec)
        except ValueError as exc:
            raise PreconditionError("mode", f"exact mode unavailable: {exc}") from exc
        if terminal_only:
            values = fold_terminal(chain, checkset.evaluate)
        else:
            block = tile_paths(len(checkset.metas))
            values = fold_expectations(chain, checkset.evaluate, block=block)
        results = [
            _exact_result(v, meta, chain.outcome_count)
            for v, meta in zip(values, checkset.metas)
        ]
        return _aggregate(theorem_id, results, exact=True), results
    if mode != "monte_carlo":
        raise PreconditionError("mode", f"unknown mode {mode!r}")
    if paths < 1:
        raise PreconditionError("paths", "paths must be >= 1")
    sample = _sample_terminal if terminal_only else gen.sample_paths
    tile = tile_paths(len(checkset.metas))
    acc = RunningStats()
    for block in iter_chunks(sample, inst.spec, paths, inst.seed):
        for lo in range(0, len(block), tile):
            stats = checkset.evaluate(block[lo : lo + tile])
            acc.update(stats)
            # release each tile before the next is evaluated, and the chunk
            # before the next is drawn
            del stats
        del block
    results = [
        _mc_result(RunningStats(acc.count, mean, m2), meta, tolerance_z, paths)
        for mean, m2, meta in zip(acc.mean.tolist(), acc.m2.tolist(), checkset.metas)
    ]
    return _aggregate(theorem_id, results, exact=False), results


def _sample_terminal(spec: gen.GeneratorSpec, m: int, rng) -> np.ndarray:
    return gen.sample_final_sums(spec, m, rng)[:, None]


def verify_detailed(
    theorem_id: str,
    generator: gen.GeneratorSpec | None = None,
    *,
    rule: StoppingRule | None = None,
    rule2: StoppingRule | None = None,
    params: dict | None = None,
    mode: str = "exact",
    paths: int = 100_000,
    seed: int = 0,
    tolerance_z: float = DEFAULT_TOLERANCE_Z,
) -> tuple[VerificationReport, list[CheckResult], dict[str, VerificationReport]]:
    """Run one registry entry; return the report, every per-check result, and
    any auxiliary reports (e.g. the transformed-process precheck)."""
    entry = lookup(theorem_id)
    for p in entry.required_params:
        if params is None or p not in params:
            raise PreconditionError(f"params.{p}", "required")
    if entry.needs_generator and generator is None:
        raise PreconditionError("generator", "generator spec required")
    if entry.needs_rule and rule is None:
        raise PreconditionError("stopping", "stopping rule required")
    if entry.needs_rule2 and rule2 is None:
        raise PreconditionError("stopping2", "second stopping rule required")
    inst = Instance(
        spec=generator, rule=rule, rule2=rule2, params=dict(params or {}), seed=int(seed)
    )

    if entry.direct is not None:
        if mode != "exact":
            raise PreconditionError("mode", "this entry is analytic; use exact mode")
        results = [
            _exact_result(value, meta, count)
            for meta, value, count in entry.direct(inst)
        ]
        return _aggregate(entry.theorem_id, results, exact=True), results, {}

    checkset = entry.build(inst)
    report, results = _run_checkset(
        entry.theorem_id, inst, checkset, mode, paths, tolerance_z, entry.terminal_only
    )
    extras: dict[str, VerificationReport] = {}
    if entry.extra_checksets is not None:
        for name, cs in entry.extra_checksets(inst).items():
            extras[name], _ = _run_checkset(
                f"{entry.theorem_id}:{name}", inst, cs, mode, paths, tolerance_z
            )
    return report, results, extras


def verify(theorem_id: str, generator=None, **kwargs) -> VerificationReport:
    """Run one registry entry and return its verification report."""
    report, _, _ = verify_detailed(theorem_id, generator, **kwargs)
    return report


def check_definition(
    spec: gen.GeneratorSpec,
    variant: str = "demimartingale",
    *,
    mode: str = "exact",
    paths: int = 100_000,
    seed: int = 0,
    battery_size: int = 32,
    tolerance_z: float = DEFAULT_TOLERANCE_Z,
) -> VerificationReport:
    """Battery check of the defining projection inequality for an ensemble."""
    if variant not in ("demimartingale", "demisubmartingale"):
        raise PreconditionError("variant", "demimartingale or demisubmartingale")
    tid = "Def1.2-demi" if variant == "demimartingale" else "Def1.2-demisub"
    return verify(
        tid,
        spec,
        params={"battery_size": battery_size},
        mode=mode,
        paths=paths,
        seed=seed,
        tolerance_z=tolerance_z,
    )
