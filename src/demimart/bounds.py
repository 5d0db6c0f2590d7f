"""Closed-form bound evaluators: exponential-moment lemmas, maximal and
Bernstein-type tail bounds, and moment bounds.

Every evaluator accepts scalars or numpy arrays and raises ValueError on
domain violations.  The grid checks in the registry lean on these being
numerically stable, so the algebra below prefers cancellation-free forms.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bernstein_tail",
    "doob_max_bound",
    "h1",
    "h1_lower",
    "lp_max_bound",
    "mgf_log_bound",
    "moment_bound",
    "phi",
    "phi_bound",
    "psi_sup",
]


def _as_array(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr, arr.ndim == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def phi(u):
    """phi(u) = e^u - u - 1, the centered exponential remainder (total)."""
    arr, scalar = _as_array(u)
    return _ret(np.expm1(arr) - arr, scalar)


def phi_bound(u):
    """Upper bound u^2 / (2 (1 - u/3)) for phi on the open interval (0, 3)."""
    arr, scalar = _as_array(u)
    if np.any(arr <= 0.0) or np.any(arr >= 3.0):
        raise ValueError("phi_bound requires 0 < u < 3")
    return _ret(arr * arr / (2.0 * (1.0 - arr / 3.0)), scalar)


def mgf_log_bound(lam, C, EX2):
    """Bound on log E e^{lam X} for |X| <= C, E X = 0: lam^2 EX2 / (2(1 - lam C/3)).

    Valid for 0 < lam < 3/C.
    """
    arr, scalar = _as_array(lam)
    if C <= 0:
        raise ValueError("C must be positive")
    if EX2 < 0:
        raise ValueError("EX2 must be nonnegative")
    if np.any(arr <= 0.0) or np.any(arr >= 3.0 / C):
        raise ValueError("lambda must lie in (0, 3/C)")
    return _ret(arr * arr * EX2 / (2.0 * (1.0 - arr * C / 3.0)), scalar)


def h1(u):
    """h1(u) = 1 + u - sqrt(1 + 2u), computed as u^2 / (1 + u + sqrt(1 + 2u)).

    The conjugate form is algebraically identical and avoids the subtractive
    cancellation that would otherwise swamp small u.
    """
    arr, scalar = _as_array(u)
    if np.any(arr < 0.0):
        raise ValueError("h1 requires u >= 0")
    return _ret(arr * arr / (1.0 + arr + np.sqrt(1.0 + 2.0 * arr)), scalar)


def h1_lower(u):
    """Lower bound u^2 / (2 (1 + u)) <= h1(u) for u >= 0."""
    arr, scalar = _as_array(u)
    if np.any(arr < 0.0):
        raise ValueError("h1_lower requires u >= 0")
    return _ret(arr * arr / (2.0 * (1.0 + arr)), scalar)


def psi_sup(t, V_n, C):
    """Optimized exponent (9 V_n / C^2) h1(C t / (3 V_n)); >= t^2/(2(V_n + tC/3))."""
    arr, scalar = _as_array(t)
    if np.any(arr <= 0.0) or V_n <= 0.0 or C <= 0.0:
        raise ValueError("psi_sup requires positive t, V_n, C")
    return _ret(9.0 * V_n / (C * C) * h1(C * arr / (3.0 * V_n)), scalar)


def bernstein_tail(t, V_n, C):
    """exp(-t^2 / (2 (V_n + t C / 3))), one-sided; a two-sided tail is twice it."""
    arr, scalar = _as_array(t)
    if np.any(arr <= 0.0) or V_n <= 0.0 or C <= 0.0:
        raise ValueError("bernstein_tail requires positive t, V_n, C")
    return _ret(np.exp(-arr * arr / (2.0 * (V_n + arr * C / 3.0))), scalar)


def doob_max_bound(ES1: float, lam: float) -> float:
    """Bound E S_1 / lambda on P(max_{i <= j} S_i >= lambda), lambda > 0."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return ES1 / lam


def lp_max_bound(p: float, M: float, ES1: float) -> float:
    """Bound p E S_1 / ((1-p) M^{1-p}) on E (max_i S_i)^p for S >= M > 0, p in (0,1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if M <= 0:
        raise ValueError("M must be positive")
    return p * ES1 / ((1.0 - p) * M ** (1.0 - p))


def moment_bound(p: float, V_n: float) -> float:
    """Asymptotic moment bound 2^p p V_n^{p/2} Gamma(p/2) for E |S_n|^p.

    The vanishing remainder is dropped; reports quoting this value flag it
    as asymptotic.
    """
    if p <= 0 or V_n <= 0:
        raise ValueError("p and V_n must be positive")
    return 2.0**p * p * V_n ** (p / 2.0) * math.gamma(p / 2.0)
