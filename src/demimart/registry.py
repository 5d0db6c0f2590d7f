"""Theorem registry: structural preconditions, check builders, and the
verification driver shared by the Monte-Carlo and exact-enumeration modes.

Every entry reduces its claim to K per-path statistics compared against
constants, so one statistic definition serves both modes: ``expectations``,
the one engine, averages them over chunked samples or folds them against
exact outcome probabilities.  A report FAILs only when a statistic violates
its bound by more than ``family_z(tolerance_z, K)`` stderrs, K the number of
checks in its family (Monte Carlo), or beyond a relative 1e-12 (exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from . import bounds as bnd
from . import generators as gen
from .core import (
    CHUNK_PATHS,
    DEFAULT_TOLERANCE_Z,
    EXACT_REL_EPS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    Pieces,
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
from .oracle import fold_expectations, fold_terminal, iter_blocks, terminal_cost
from .stopping import StoppingRule, _wedge, deterministic

__all__ = [
    "CheckResult",
    "DEFINITION_IDS",
    "PreconditionError",
    "all_entries",
    "check_definition",
    "expectations",
    "family_z",
    "lookup",
    "read_param",
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

    ``evaluate`` maps an (m, horizon) path matrix to its K float64
    statistic rows, row k belonging to metas[k]: a (K, m) matrix, or an
    iterator of (rows, block) pieces covering every row once, consumed in
    order, that may share one buffer (``core.statistic_pieces``).
    """

    metas: tuple[CheckMeta, ...]
    evaluate: Callable[[np.ndarray], np.ndarray | Pieces]


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
    # preconditions, each raising PreconditionError, run in this order
    # before ``build`` or ``direct``
    requires: tuple[Callable[[Instance], None], ...] = ()
    build: Callable[[Instance], CheckSet] | None = None
    direct: Callable[[Instance], list[tuple[CheckMeta, float, int]]] | None = None
    extra_checksets: Callable[[Instance], dict[str, CheckSet]] | None = None
    # the main checkset reads only S_n = paths[:, -1], so both modes run it
    # on the law of S_n alone: exact atoms, or sampled S_n as an (m, 1) matrix
    terminal_only: bool = False


# ---------------------------------------------------------------------------
# Preconditions: one function per structural condition.  An entry lists
# them in ``requires`` and they run in that order before its builder:
# presence, then structure, then certification.  Builders keep only the
# conditions that read a parameter or feed a constant.
# ---------------------------------------------------------------------------


def _require(cond: bool, name: str, message: str) -> None:
    if not cond:
        raise PreconditionError(name, message)


_REQUIRED = object()


def read_param(params: dict, name: str, kind: type, default=_REQUIRED, prefix: str = "params"):
    """``_coerce(kind, params[name])``, or ``default`` as given when the key
    is absent.

    A missing required value or one ``kind`` cannot convert raises a
    PreconditionError that names the key ``<prefix>.<name>`` (``name``
    alone for an empty prefix).
    """
    field = f"{prefix}.{name}" if prefix else name
    if name not in params:
        if default is _REQUIRED:
            raise PreconditionError(field, "required")
        return default
    value = params[name]
    try:
        return _coerce(kind, value)
    except (TypeError, ValueError):
        raise PreconditionError(field, f"expected {kind.__name__}, got {value!r}") from None


def _coerce(kind: type, value):
    """``kind(value)``, refusing what a numeric ``kind`` would coerce: a bool
    (``float(True)`` is 1.0), or for int a float that is not a whole number
    (an integral one such as ``1e6`` is kept)."""
    fraction = isinstance(value, float) and not value.is_integer()
    if kind in (int, float) and isinstance(value, bool) or kind is int and fraction:
        raise TypeError(value)
    return kind(value)


def _checked_tolerance_z(tolerance_z: float) -> float:
    """``tolerance_z`` if it is positive and finite: a NaN or infinite one
    would disable the Monte-Carlo gate (``z < -nan`` is never true), and a
    nonpositive one would FAIL true claims."""
    _require(0.0 < tolerance_z < math.inf, "tolerance_z", "must be positive and finite")
    return tolerance_z


def _generator(inst: Instance) -> None:
    _require(inst.spec is not None, "generator", "generator spec required")


def _rule(inst: Instance) -> None:
    _require(inst.rule is not None, "stopping", "stopping rule required")


def _rule2(inst: Instance) -> None:
    _require(inst.rule2 is not None, "stopping2", "second stopping rule required")


def _demimartingale(inst: Instance) -> None:
    _require(inst.cls.demimartingale, "generator", "requires a demimartingale family")


def _demisubmartingale(inst: Instance) -> None:
    _require(inst.cls.demisubmartingale, "generator", "requires a demisubmartingale family")


def _mean_zero_process(inst: Instance) -> None:
    _require(inst.cls.mean_zero_process, "generator", "requires a mean-zero process (E S_n = 0)")


def _mean_zero_steps(inst: Instance) -> None:
    _require(inst.cls.step_mean_zero, "generator", "requires mean-zero steps")


def _closed_form_mgf(inst: Instance) -> None:
    try:
        gen.step_log_mgf(inst.spec, 0.0)
    except ValueError:
        raise PreconditionError("generator", "requires a closed-form step log-MGF") from None


def _iid_associated(inst: Instance) -> None:
    _require(
        inst.cls.associated and inst.cls.identically_distributed,
        "generator",
        "requires identically distributed associated increments",
    )


def _bounded_increments(inst: Instance) -> None:
    _require(
        gen.increment_bound(inst.spec) is not None, "generator", "requires bounded increments"
    )


def _nonnegative(inst: Instance) -> None:
    pmin = gen.path_min_bound(inst.spec)
    _require(
        pmin is not None and pmin >= 0.0,
        "generator",
        "requires a pathwise-nonnegative process (use a start offset)",
    )


def _bounded(rule: StoppingRule, horizon: int, name: str) -> None:
    b = rule.bound()
    _require(
        b is not None and b <= horizon,
        name,
        f"requires a rule bounded by the horizon {horizon} (capped or deterministic)",
    )


def _bounded_rule(inst: Instance) -> None:
    _bounded(inst.rule, inst.spec.horizon, "stopping")


def _bounded_rule2(inst: Instance) -> None:
    _bounded(inst.rule2, inst.spec.horizon, "stopping2")


def _declared_direction(inst: Instance) -> str:
    direction = inst.rule.declared_direction
    _require(
        direction in ("nondecreasing", "nonincreasing"),
        "stopping.direction",
        "declared_direction (nondecreasing or nonincreasing) required",
    )
    return direction


def _t14_class(inst: Instance) -> None:
    """T1.4's family follows the rule: demimartingale for a nondecreasing
    indicator, demisubmartingale for a nonincreasing one."""
    if _declared_direction(inst) == "nondecreasing":
        _demimartingale(inst)
    else:
        _demisubmartingale(inst)


def _certified(direction: str | None, target: str) -> Callable[[Instance], None]:
    """The rule's indicator is monotone in ``direction`` (its declared one
    when None) for ``target`` "le" (I{tau <= j}) or "eq" (I{tau = k})."""

    def check(inst: Instance) -> None:
        _certify(inst, inst.rule, direction or _declared_direction(inst), target)

    return check


def _probe_seed(seed: int) -> int:
    return (int(seed) + _PROBE_SEED_SALT) & ((1 << 64) - 1)


def _certify(inst: Instance, rule: StoppingRule, direction: str, target: str) -> None:
    """Analytic certificate for the needed indicator direction, or a sampled
    probe for a rule with a user predicate.  A built-in rule without one is
    refused: the probe moves S by at most 1, so on a lattice of spacing 2 a
    first passage the wrong way never shows."""
    if rule.has_analytic_certificate(direction, target):
        return
    _require(rule.user_defined, "stopping.direction",
             f"indicator of {rule.label} is not {direction} (target {target})")
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


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _stopped(
    rule: StoppingRule, paths: np.ndarray, cap: int | None = None, field: str = "stopping"
):
    """(tau, S_tau) of every path: the one gather of every stopped entry.

    Raises, under ``field``, where a path stops after the rule's declared
    bound and, without ``cap``, first where a path never stops (tau = -1).
    With ``cap`` it is (tau ^ cap, S_(tau ^ cap)), so a path that never
    stops reads the cap, unless the declared bound is within the horizon:
    such a path then stopped after the bound too.
    """
    tau = rule.tau_batch(paths)
    if cap is None and np.any(tau == -1):
        raise PreconditionError(field, "stopping time not a.s. finite at this horizon")
    b = rule.bound()
    # as uint64 the sentinel -1 exceeds every bound
    if b is not None and np.any(tau.view(np.uint64) > b if b <= paths.shape[1] else tau > b):
        raise PreconditionError(field, f"a path stopped after the declared bound {b}")
    if cap is not None:
        tau = _wedge(tau, cap)
    return tau, paths[np.arange(len(paths)), tau - 1]


def _stopped_at(
    paths: np.ndarray, tau: np.ndarray, s_tau: np.ndarray, j: int, out: np.ndarray | None = None
) -> np.ndarray:
    """S_(tau^j) from the column S_j and the gathered S_tau, for an int64
    tau that is -1 or >= 1; written into the float64 row ``out`` if given.

    One gather of S_tau serves every j: where tau >= j the value is the
    column S_j, contiguous in a sampled chunk, so no per-j gather is made.
    The choice is a bitwise select on the int64 views, with no branch on
    the data: ``(j - 1 - tau) >> 63`` is all ones exactly where tau >= j,
    and ``((S_j ^ S_tau) & sel) ^ S_tau`` is S_j there and S_tau elsewhere.
    Each value is one of its two inputs bit for bit, -0.0, infinities and
    NaN payloads included, as with ``np.where(tau >= j, S_j, S_tau)``; the
    sentinel selects S_tau.
    """
    sel = np.subtract(j - 1, tau)
    sel >>= 63
    s_tau = s_tau.view(np.int64)
    if out is None:
        out = np.empty(len(s_tau))
    bits = np.bitwise_xor(paths[:, j - 1].view(np.int64), s_tau, out=out.view(np.int64))
    bits &= sel
    bits ^= s_tau
    return out


def _battery(inst: Instance, nonneg: bool, default_size: int = 16):
    size = read_param(inst.params, "battery_size", int, default_size)
    return sample_battery(inst.seed, size, require_nonnegative=nonneg)


# ---------------------------------------------------------------------------
# Entry builders: defining inequality
# ---------------------------------------------------------------------------


def _battery_stats(battery, weights: np.ndarray, prefixes: np.ndarray) -> Pieces:
    """Statistics weights[r] * f(prefix rows 0..r) for every row r and
    battery member f, ordered row-major by (r, f), as one piece per member:
    rows ``slice(i, K, len(battery))`` of member i.

    ``prefixes`` is a time-major (rows, m) matrix, scanned for NaN once;
    ``weights`` broadcasts against it.  Every piece is computed, when it is
    asked for, into one (rows, m) buffer, so the (K, m) matrix is never
    built and each piece is reduced while it is still in cache.
    """
    if np.isnan(prefixes).any():
        raise ValueError("NaN in prefix")
    rows, m = prefixes.shape
    k = rows * len(battery)
    piece = np.empty((rows, m))
    for i, f in enumerate(battery):
        np.multiply(weights, evaluate_prefixes(f, prefixes, out=piece), out=piece)
        yield slice(i, k, len(battery)), piece


def _projection_checkset(battery, n: int, name_prefix: str, transform=None) -> CheckSet:
    """E[(M_{j+1} - M_j) f(M_1..M_j)] >= 0 for every j < n and battery f,
    with M = transform(S) applied to the time-major chunk (identity if None)."""
    metas = tuple(
        CheckMeta(f"{name_prefix}j={j}|{f.label}", 0.0, ">=")
        for j in range(1, n)
        for f in battery
    )

    def evaluate(paths: np.ndarray) -> Pieces:
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
    n_small = read_param(inst.params, "n", int)
    m_big = read_param(inst.params, "m", int)
    h = inst.spec.horizon
    _require(1 <= n_small <= m_big <= h, "params.n", "need 1 <= n <= m <= horizon")
    sign = 1.0 if rule.declared_direction == "nonincreasing" else -1.0
    metas = (
        CheckMeta(f"E[S_(tau^{m_big})] vs E[S_(tau^{n_small})]", 0.0, ">="),
        CheckMeta(f"E[S_(tau^{n_small})] vs E[S_1]", 0.0, ">="),
    )

    def evaluate(paths: np.ndarray) -> np.ndarray:
        # tau ^ m has the same wedge with n <= m as tau, -1 included
        tau, w_m = _stopped(rule, paths, cap=m_big)
        out = np.empty((2, len(paths)))
        w_n = _stopped_at(paths, tau, w_m, n_small, out=out[1])
        np.subtract(w_m, w_n, out=out[0])
        w_n -= paths[:, 0]
        out *= sign
        return out

    return CheckSet(metas, evaluate)


def _build_t21(inst: Instance) -> CheckSet:
    # T2.3's pair with tau2 = M, the rule's bound
    return _pair_checkset(inst, inst.rule, deterministic(inst.rule.bound()), "S_M", "S_tau")


def _build_c22(inst: Instance) -> CheckSet:
    rule = inst.rule
    h = inst.spec.horizon
    metas = tuple(CheckMeta(f"E[S_{j}] vs E[S_(tau^{j})]", 0.0, ">=") for j in range(1, h + 1))

    def evaluate(paths: np.ndarray) -> np.ndarray:
        # tau ^ h has the same wedge with every j <= h as tau, -1 included
        tau, s_tau = _stopped(rule, paths, cap=h)
        out = np.empty((h, len(paths)))
        for j, row in enumerate(out, start=1):
            np.subtract(paths[:, j - 1], _stopped_at(paths, tau, s_tau, j, out=row), out=row)
        return out

    return CheckSet(metas, evaluate)


def _build_t23(inst: Instance) -> CheckSet:
    return _pair_checkset(inst, inst.rule, inst.rule2)


def _pair_checkset(
    inst: Instance, rule1: StoppingRule, rule2: StoppingRule, late="S_tau2", early="S_tau1"
) -> CheckSet:
    """E[(S_tau2 - S_tau1) f(S_tau1)] >= 0 over the nonnegative battery, for
    tau1 <= tau2 on every path, with S_tau2 and S_tau1 named ``late`` and
    ``early`` in the check names."""
    battery = _battery(inst, nonneg=True)
    metas = tuple(
        CheckMeta(f"E[({late} - {early}) {f.label}({early})]", 0.0, ">=") for f in battery
    )

    def evaluate(paths: np.ndarray) -> Pieces:
        t1, s_t1 = _stopped(rule1, paths)
        t2, s_t2 = _stopped(rule2, paths, field="stopping2")
        if np.any(t2 < t1):
            raise PreconditionError("stopping", "tau1 <= tau2 violated on a path")
        return _battery_stats(battery, s_t2 - s_t1, s_t1[None, :])

    return CheckSet(metas, evaluate)


def _stopped_checkset(rule: StoppingRule, meta: CheckMeta, g: Callable) -> CheckSet:
    """One check, E[g(tau, S_tau, S_1)] against ``meta``: a single-row
    stopped statistic declared as a function of the stopped state alone,
    with tau an int64 array and S_tau, S_1 float64 arrays over the paths."""

    def evaluate(paths: np.ndarray) -> np.ndarray:
        tau, s_tau = _stopped(rule, paths)
        return g(tau, s_tau, paths[:, 0])[None]

    return CheckSet((meta,), evaluate)


def _stopped_vs_start(inst: Instance, direction: str) -> CheckSet:
    meta = CheckMeta("E[S_tau - S_1]", 0.0, direction)
    return _stopped_checkset(inst.rule, meta, lambda tau, s_tau, s_1: s_tau - s_1)


def _stopped_cmp(rule: StoppingRule) -> str:
    """E[g] >= its constant for a nonincreasing indicator, <= for a
    nondecreasing one (``_certified(None, ...)`` admits no other)."""
    return ">=" if rule.declared_direction == "nonincreasing" else "<="


def _build_l51(inst: Instance) -> CheckSet:
    rule = inst.rule
    big_m = max(gen.increment_bound(inst.spec), gen.first_step_bound(inst.spec))
    h = inst.spec.horizon
    metas = []
    for n in range(1, h + 1):
        metas.append(CheckMeta(f"n={n}: M E[tau^n] vs E|S_(tau^n)|", 0.0, ">="))
        metas.append(CheckMeta(f"n={n}: M E[tau] vs M E[tau^n]", 0.0, ">="))

    def evaluate(paths: np.ndarray) -> Pieces:
        tau, s_tau = _stopped(rule, paths)
        # one piece per n from one buffer, rows 2n - 2 and 2n - 1:
        # M (tau^n) - |S_(tau^n)| and M (tau - tau^n); tau, tau^n and their
        # difference are small integers, exact in float64
        tau_f = tau.astype(np.float64)
        stopped = np.empty(len(paths))
        out = np.empty((2, len(paths)))
        moment, tail = out
        for n in range(1, h + 1):
            np.minimum(tau_f, n, out=moment)
            np.subtract(tau_f, moment, out=tail)
            tail *= big_m
            moment *= big_m
            np.abs(_stopped_at(paths, tau, s_tau, n, out=stopped), out=stopped)
            moment -= stopped
            yield slice(2 * n - 2, 2 * n), out

    return CheckSet(tuple(metas), evaluate)


# ---------------------------------------------------------------------------
# Entry builders: maximal / concentration / random-sum
# ---------------------------------------------------------------------------


def _build_t41(inst: Instance) -> CheckSet:
    lam = read_param(inst.params, "lambda", float)
    _require(lam > 0, "params.lambda", "lambda must be positive")
    j = read_param(inst.params, "j", int, inst.spec.horizon)
    _require(1 <= j <= inst.spec.horizon, "params.j", "j must lie in 1..horizon")
    rhs = bnd.doob_max_bound(gen.mean_s1(inst.spec), lam)
    metas = (CheckMeta(f"P(max_(i<={j}) S_i >= {lam!r})", rhs, "<=", tail=True),)

    def evaluate(paths: np.ndarray) -> np.ndarray:
        return (paths[:, :j].max(axis=1) >= lam).astype(np.float64)[None]

    return CheckSet(metas, evaluate)


def _build_c43(inst: Instance) -> CheckSet:
    pmin = gen.path_min_bound(inst.spec)
    _require(
        pmin > 0.0, "generator", "requires a pathwise bound S_i >= M > 0 (use a start offset)"
    )
    p = read_param(inst.params, "p", float)
    _require(0.0 < p < 1.0, "params.p", "p must lie in (0, 1)")
    j = read_param(inst.params, "j", int, inst.spec.horizon)
    _require(1 <= j <= inst.spec.horizon, "params.j", "j must lie in 1..horizon")
    rhs = bnd.lp_max_bound(p, pmin, gen.mean_s1(inst.spec))
    metas = (CheckMeta(f"E[(max_(i<={j}) S_i)^{p!r}]", rhs, "<="),)

    def evaluate(paths: np.ndarray) -> np.ndarray:
        return (paths[:, :j].max(axis=1) ** p)[None]

    return CheckSet(metas, evaluate)


def _grid_margins(inst: Instance) -> list[tuple[CheckMeta, float, int]]:
    """Analytic lemma suite: relative margins over dense grids."""
    gsize = read_param(inst.params, "grid", int, 10_000)
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
    c = gen.increment_bound(spec)
    ex2 = gen.step_second_moment(spec)
    gsize = read_param(inst.params, "grid", int, 64)
    lams = (3.0 / c) * np.arange(1, gsize + 1) / (gsize + 1)
    margins = np.empty(gsize)
    for i, lam in enumerate(lams):
        upper = bnd.mgf_log_bound(lam, c, ex2)
        margins[i] = (upper - gen.step_log_mgf(spec, lam)) / max(upper, 1e-30)
    return [
        (CheckMeta("min rel margin: log mgf <= quadratic bound", 0.0, ">="),
         float(margins.min()), gsize)
    ]


def _build_bernstein(inst: Instance) -> CheckSet:
    t = read_param(inst.params, "t", float)
    _require(t > 0, "params.t", "t must be positive")
    one = bnd.bernstein_tail(t, gen.v_n(inst.spec), gen.increment_bound(inst.spec))
    metas = (
        CheckMeta(f"P(S_n >= {t!r})", one, "<=", tail=True),
        CheckMeta(f"P(|S_n| >= {t!r})", 2.0 * one, "<=", tail=True),
    )

    def evaluate(paths: np.ndarray) -> np.ndarray:
        s_n = paths[:, -1]
        return np.array([s_n >= t, np.abs(s_n) >= t], dtype=np.float64)

    return CheckSet(metas, evaluate)


def _build_c410(inst: Instance) -> CheckSet:
    theta = read_param(inst.params, "theta", float)
    _require(theta > 0, "params.theta", "theta must be positive")
    h_slope = read_param(inst.params, "h_slope", float, 0.0)
    meta = CheckMeta(f"E[exp({theta!r} S_tau - {h_slope!r} tau)]", 1.0, _stopped_cmp(inst.rule))
    return _stopped_checkset(
        inst.rule, meta, lambda tau, s_tau, s_1: np.exp(theta * s_tau - h_slope * tau)
    )


def _c410_precheck(inst: Instance) -> dict[str, CheckSet]:
    """Independent battery check that the transformed process is a
    demisubmartingale before the stopped inequality is trusted."""
    theta = read_param(inst.params, "theta", float)
    h_slope = read_param(inst.params, "h_slope", float, 0.0)
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
        rule.bound() is not None or gen.increment_bound(inst.spec) is not None,
        "generator",
        "an unbounded rule needs bounded increments (finite E tau route)",
    )
    mu = gen.step_mean(inst.spec)
    meta = CheckMeta("E[S_tau - mu tau]", 0.0, _stopped_cmp(rule))
    return _stopped_checkset(rule, meta, lambda tau, s_tau, s_1: s_tau - mu * tau)


def _build_wald_second(inst: Instance) -> CheckSet:
    lo = gen.step_min(inst.spec)
    _require(lo is not None and lo >= 0.0, "generator", "requires nonnegative increments")
    ex2 = gen.step_second_moment(inst.spec)
    meta = CheckMeta("E[S_tau^2 - EX^2 tau]", 0.0, _stopped_cmp(inst.rule))
    return _stopped_checkset(inst.rule, meta, lambda tau, s_tau, s_1: s_tau * s_tau - ex2 * tau)


def _build_wald_exp(inst: Instance) -> CheckSet:
    _require(inst.spec.offset == 0.0, "generator", "start offset not supported here")
    theta = read_param(inst.params, "theta", float)
    _require(theta > 0, "params.theta", "theta must be positive")
    psi = gen.step_log_mgf(inst.spec, theta)
    meta = CheckMeta(f"E[exp({theta!r} S_tau - tau psi)]", 1.0, _stopped_cmp(inst.rule))
    return _stopped_checkset(
        inst.rule, meta, lambda tau, s_tau, s_1: np.exp(theta * s_tau - psi * tau)
    )


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
            requires=(_generator,),
            build=lambda inst: _build_definition(inst, nonneg=False),
        ),
        RegistryEntry(
            "Def1.2-demisub",
            (),
            "same projection statistic over the nonnegative battery "
            "(demisubmartingale variant)",
            requires=(_generator,),
            build=lambda inst: _build_definition(inst, nonneg=True),
        ),
        RegistryEntry(
            "T1.4-order",
            ("T1.4",),
            "E S_(tau^m) <= E S_(tau^n) <= E S_1 for nondecreasing indicators on "
            "demimartingales; reversed for nonincreasing on demisubmartingales",
            requires=(_generator, _rule, _t14_class, _certified(None, "le")),
            build=_build_t14,
        ),
        RegistryEntry(
            "T2.1-stopped-pair",
            ("T2.1",),
            "bounded tau with nondecreasing I{tau=k}: E[(S_M - S_tau) f(S_tau)] >= 0 "
            "over the nonnegative battery (includes E S_tau <= E S_M)",
            requires=(_generator, _rule, _demisubmartingale, _bounded_rule,
                      _certified("nondecreasing", "eq")),
            build=_build_t21,
        ),
        RegistryEntry(
            "C2.2-stop-vs-fixed",
            ("C2.2",),
            "E S_(tau^j) <= E S_j for every j (nondecreasing indicator)",
            requires=(_generator, _rule, _demisubmartingale, _certified("nondecreasing", "le")),
            build=_build_c22,
        ),
        RegistryEntry(
            "T2.3-two-stops",
            ("T2.3",),
            "tau1 <= tau2 with nondecreasing I{tau1=j}: "
            "E[(S_tau2 - S_tau1) g(S_tau1)] >= 0 over the nonnegative battery",
            requires=(_generator, _rule, _rule2, _demisubmartingale, _bounded_increments,
                      _bounded_rule2, _certified("nondecreasing", "eq")),
            build=_build_t23,
        ),
        RegistryEntry(
            "T3.1-OST-upper",
            ("T3.1",),
            "demimartingale, nondecreasing indicator, finite tau: E S_tau <= E S_1",
            requires=(_generator, _rule, _demimartingale, _certified("nondecreasing", "le")),
            build=lambda inst: _stopped_vs_start(inst, "<="),
        ),
        RegistryEntry(
            "T3.2-OST-nonneg",
            ("T3.2",),
            "nonnegative demimartingale, finite tau: E S_tau <= E S_1",
            requires=(_generator, _rule, _demimartingale, _nonnegative,
                      _certified("nondecreasing", "le")),
            build=lambda inst: _stopped_vs_start(inst, "<="),
        ),
        RegistryEntry(
            "T3.3-OST-lower",
            ("T3.3",),
            "demisubmartingale, nonincreasing indicator: E S_tau >= E S_1",
            requires=(_generator, _rule, _demisubmartingale, _certified("nonincreasing", "le")),
            build=lambda inst: _stopped_vs_start(inst, ">="),
        ),
        RegistryEntry(
            "L5.1-ui-proxy",
            ("L5.1",),
            "E|S_(tau^n)| <= M E(tau^n) <= M E tau for every n "
            "(bounded increments, finite E tau)",
            requires=(_generator, _rule, _demimartingale, _bounded_increments),
            build=_build_l51,
        ),
        RegistryEntry(
            "T4.1-doob-max",
            ("T4.1",),
            "P(max_{i<=j} S_i >= lambda) <= E S_1 / lambda",
            requires=(_generator, _demimartingale, _nonnegative),
            build=_build_t41,
        ),
        RegistryEntry(
            "C4.3-lp-max",
            ("C4.3",),
            "E (max_{i<=j} S_i)^p <= p E S_1 / ((1-p) M^{1-p}) for S >= M > 0, p < 1",
            requires=(_generator, _demisubmartingale, _nonnegative),
            build=_build_c43,
        ),
        RegistryEntry(
            "L4.4/L4.6-lemma-grid",
            ("L4.4", "L4.6", "L4.4/L4.6"),
            "grid check: phi <= phi_bound on (0,3); h1 >= h1_lower on [0,1e3]; "
            "psi_sup >= t^2/(2(V+tC/3)) on random positive triples",
            direct=_grid_margins,
        ),
        RegistryEntry(
            "L4.5-mgf",
            ("L4.5",),
            "exact step log-MGF <= lambda^2 EX^2 / (2(1 - lambda C/3)) on a "
            "lambda grid in (0, 3/C)",
            requires=(_generator, _mean_zero_steps, _bounded_increments),
            direct=_mgf_margins,
        ),
        RegistryEntry(
            "T4.7-bernstein",
            ("T4.7",),
            "P(S_n >= t) <= exp(-t^2/(2(V_n + tC/3))), two-sided doubled",
            requires=(_generator, _demimartingale, _mean_zero_process, _bounded_increments),
            build=_build_bernstein,
            terminal_only=True,
        ),
        RegistryEntry(
            "C4.10-exp-stopped",
            ("C4.10",),
            "E[exp(theta S_tau - H(tau))] <= 1 for nondecreasing indicators "
            "(>= 1 for nonincreasing), H(k) = h_slope k",
            requires=(_generator, _rule, _demisubmartingale, _certified(None, "le")),
            build=_build_c410,
            extra_checksets=_c410_precheck,
        ),
        RegistryEntry(
            "C5.2/C5.3-wald-first",
            ("C5.2", "C5.3", "C5.2/C5.3"),
            "E S_tau >= E X_1 E tau for nonincreasing indicators "
            "(<= for nondecreasing with bounded tau)",
            requires=(_generator, _rule, _iid_associated, _certified(None, "le")),
            build=_build_wald_first,
        ),
        RegistryEntry(
            "C5.4-wald-second",
            ("C5.4",),
            "E S_tau^2 >= (<=) E X_1^2 E tau for nonnegative identically "
            "distributed associated increments, bounded tau",
            requires=(_generator, _rule, _iid_associated, _bounded_rule,
                      _certified(None, "le")),
            build=_build_wald_second,
        ),
        RegistryEntry(
            "C5.5-wald-exp",
            ("C5.5",),
            "E[exp(theta S_tau - sum_{i<=tau} psi(theta))] >= (<=) 1 with "
            "psi = log E e^{theta X}",
            requires=(_generator, _rule, _demisubmartingale, _closed_form_mgf,
                      _bounded_rule, _certified(None, "le")),
            build=_build_wald_exp,
        ),
        RegistryEntry(
            "T5.6-bernstein-assoc",
            ("T5.6",),
            "the concentration bound restricted to mean-zero associated "
            "increment families",
            requires=(_generator, _demimartingale, _mean_zero_process, _bounded_increments),
            build=_build_bernstein,
            terminal_only=True,
        ),
    ]


_ENTRIES: dict[str, RegistryEntry] = {e.theorem_id: e for e in _entry_list()}
# the defining-inequality entry for each variant of ``check_definition``
DEFINITION_IDS = {"demimartingale": "Def1.2-demi", "demisubmartingale": "Def1.2-demisub"}
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


def family_z(tolerance_z: float, checks: int) -> float:
    """The z a Monte-Carlo check must fall below to FAIL, in a family of
    ``checks`` = K checks: the one-sided level Phi(-tolerance_z) split over
    the family (Bonferroni), z_K = Phi^-1(1 - Phi(-tolerance_z) / K).  A
    family FAILs when any check rejects, and Holm's step-down rejects one
    exactly when Bonferroni does.  K = 1 keeps ``tolerance_z``, as does a
    level too small to split in floating point."""
    level = NormalDist().cdf(-tolerance_z) / checks
    return -NormalDist().inv_cdf(level) if checks > 1 and level > 0.0 else tolerance_z


def _check_result(
    stats: SummaryStats, meta: CheckMeta, tolerance_z: float = DEFAULT_TOLERANCE_Z, paths: int = 0
) -> CheckResult:
    """The verdict on one check, for every entry and the complete-convergence
    sweep.  ``paths`` is the Monte-Carlo path count, 0 for an exact value,
    which the hit-count rule of ``tail`` checks never reaches."""
    margin = _margin(stats.mean, meta)
    z = margin / stats.stderr if 0.0 < stats.stderr < math.inf else None
    if math.isinf(stats.stderr) or (paths and meta.tail and paths * meta.rhs < MIN_EXPECTED_HITS):
        verdict = INCONCLUSIVE
    elif z is None:
        scale = max(1.0, abs(stats.mean), abs(meta.rhs))
        verdict = FAIL if margin / scale < -EXACT_REL_EPS else PASS
    else:
        verdict = FAIL if z < -tolerance_z else PASS
    return CheckResult(meta.name, meta.rhs, meta.direction, stats, margin, z, verdict)


def _sort_key(r: CheckResult):
    # FAIL first, then INCONCLUSIVE, then smallest headroom: the binding
    # check holds the worst verdict
    rank = {FAIL: 0, INCONCLUSIVE: 1, PASS: 2}[r.verdict]
    headroom = r.z if r.z is not None else r.margin / max(1.0, abs(r.rhs), abs(r.stats.mean))
    return (rank, headroom)


def _aggregate(theorem_id: str, results: list[CheckResult], exact: bool) -> VerificationReport:
    binding = min(results, key=_sort_key)
    return VerificationReport(
        theorem_id=theorem_id,
        lhs=binding.stats,
        rhs=binding.rhs,
        direction=binding.direction,
        z_margin=binding.z,
        verdict=binding.verdict,
        exact=exact,
    )


def expectations(
    spec: gen.GeneratorSpec,
    evaluate: Callable[[np.ndarray], np.ndarray | Pieces],
    checks: int,
    mode: str,
    paths: int = 0,
    seed: int = 0,
    terminal_only: bool = False,
    chunk_base: int = 0,
) -> list[SummaryStats]:
    """E[row k of evaluate(paths)] for each of the ``checks`` statistic rows,
    given as a matrix or as pieces (``core.statistic_pieces``), which both
    engines consume one at a time.

    This is the one place an engine is chosen, and the one place the spec's
    chain is looked up.  Exact mode folds outcome probabilities: over the
    law of S_n alone when ``terminal_only`` is set, S_n is a lattice sum
    (the chain has a ``grid``) and its convolutions
    (``oracle.terminal_cost``) cost less than building every path (outcomes
    x horizon), else over every enumerated path, ``tile_paths(checks)``
    outcomes per block; each result has stderr 0 and the chain's outcome
    count.  A spec without a chain raises PreconditionError("mode").  Monte
    Carlo averages ``paths`` sampled paths from chunk ``chunk_base`` of
    ``seed`` on (S_n alone as an (m, 1) matrix when ``terminal_only``:
    ``gen.sample_final_sums``, the paths' last column bit for bit),
    evaluated and reduced one tile of ``tile_paths(checks)`` paths at a
    time.  On a chain of at most CHUNK_PATHS outcomes, the chunks are drawn
    as outcome indices (``gen.sample_outcomes``) and counted, and each
    distinct sampled path is built (``oracle.iter_blocks``) and evaluated
    once, weighted by its count: the same sample, the same values up to the
    order of summation, in memory that the counts and one tile bound
    whatever ``paths``.
    """
    if mode not in ("exact", "monte_carlo"):
        raise PreconditionError("mode", f"unknown mode {mode!r}")
    try:
        chain = gen.to_chain(spec)
    except ValueError as exc:
        if mode == "exact":
            raise PreconditionError("mode", f"exact mode unavailable: {exc}") from exc
        chain = None
    if mode == "exact":
        build_cost = chain.outcome_count * chain.horizon
        if terminal_only and chain.grid is not None and terminal_cost(chain) < build_cost:
            values = fold_terminal(chain, evaluate, checks)
        else:
            values = fold_expectations(chain, evaluate, block=tile_paths(checks), checks=checks)
        return [SummaryStats(mean=v, stderr=0.0, count=chain.outcome_count) for v in values]
    if paths < 1:
        raise PreconditionError("paths", "paths must be >= 1")
    tile = tile_paths(checks)
    acc = RunningStats()
    if chain is not None and chain.outcome_count <= CHUNK_PATHS:
        counts = np.zeros(chain.outcome_count, dtype=np.int64)
        for idx in iter_chunks(gen.sample_outcomes, spec, paths, seed, chunk_base):
            counts += np.bincount(idx, minlength=len(counts))
            # release the chunk before the next is drawn
            del idx
        (hits,) = np.nonzero(counts)
        blocks = iter_blocks(chain, tile, hits)
        for lo, (block, _) in zip(range(0, len(hits), tile), blocks):
            stats = evaluate(block[:, -1:] if terminal_only else block)
            acc.update(stats, checks, weights=counts[hits[lo : lo + tile]])
        return acc.summaries()
    sample = gen.sample_final_sums if terminal_only else gen.sample_paths
    for block in iter_chunks(sample, spec, paths, seed, chunk_base):
        # a view: S_n alone becomes an (m, 1) matrix, paths keep their shape
        block = block.reshape(len(block), -1)
        for lo in range(0, len(block), tile):
            # each tile's statistics are released once reduced
            acc.update(evaluate(block[lo : lo + tile]), checks)
        # release the chunk before the next is drawn
        del block
    return acc.summaries()


def _run_checkset(
    theorem_id: str,
    inst: Instance,
    checkset: CheckSet,
    mode: str,
    paths: int,
    tolerance_z: float,
    terminal_only: bool = False,
) -> tuple[VerificationReport, list[CheckResult]]:
    stats = expectations(
        inst.spec, checkset.evaluate, len(checkset.metas), mode, paths, inst.seed, terminal_only
    )
    exact = mode == "exact"
    z = family_z(tolerance_z, len(checkset.metas))
    results = [
        _check_result(st, meta, z, 0 if exact else paths) for st, meta in zip(stats, checkset.metas)
    ]
    return _aggregate(theorem_id, results, exact), results


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
    _checked_tolerance_z(tolerance_z)
    inst = Instance(
        spec=generator, rule=rule, rule2=rule2, params=dict(params or {}), seed=int(seed)
    )
    for check in entry.requires:
        check(inst)

    if entry.direct is not None:
        if mode != "exact":
            raise PreconditionError("mode", "this entry is analytic; use exact mode")
        results = [
            _check_result(SummaryStats(mean=value, stderr=0.0, count=count), meta)
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
    tid = DEFINITION_IDS.get(variant)
    _require(tid is not None, "variant", "demimartingale or demisubmartingale")
    return verify(
        tid,
        spec,
        params={"battery_size": battery_size},
        mode=mode,
        paths=paths,
        seed=seed,
        tolerance_z=tolerance_z,
    )
