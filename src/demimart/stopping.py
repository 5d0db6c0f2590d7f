"""Stopping rules: first passage, deterministic and user-defined, each capped or not.

A rule maps a path to the first step at which it triggers; NOT_STOPPED (None
in the scalar API, -1 in batch arrays) means the rule never fired within the
horizon.  Rules are prefix-measurable: whether tau = k depends only on
S_1..S_k.  Each built-in rule knows which indicator monotonicity directions
it satisfies by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import _accumulate_rows

__all__ = [
    "NOT_STOPPED",
    "StoppingRule",
    "capped",
    "deterministic",
    "first_passage_down",
    "first_passage_up",
    "jump_if_high",
    "user_rule",
]

NOT_STOPPED = None


@dataclass(frozen=True)
class StoppingRule:
    """A path functional tau with a declared indicator-monotonicity direction.

    ``declared_direction`` is how the rule is *claimed* to behave; built-in
    kinds carry analytic certificates, user rules are certified by probing.
    A set ``cap`` stops every path by that step: tau is the kind's tau
    wedge cap.
    """

    kind: str  # first_passage_up | first_passage_down | deterministic | user
    threshold: float = math.nan
    step: int = 0
    cap: int | None = None
    predicate: Callable | None = field(default=None, compare=False)
    declared_direction: str = "none"
    user_bound: int | None = None
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("first_passage_up", "first_passage_down", "deterministic", "user"):
            raise ValueError(f"unknown stopping kind {self.kind!r}")
        if self.declared_direction not in ("nondecreasing", "nonincreasing", "none"):
            raise ValueError("invalid declared_direction")
        if self.kind == "deterministic" and self.step < 1:
            raise ValueError("deterministic rule needs step >= 1")
        if self.cap is not None and self.cap < 1:
            raise ValueError("a cap must be >= 1")
        if self.kind == "user" and self.predicate is None:
            raise ValueError("user rule needs a predicate")
        if not self.label:
            cap = "" if self.cap is None else f"^cap{self.cap}"
            object.__setattr__(self, "label", self._default_label() + cap)

    def _default_label(self) -> str:
        if self.kind == "first_passage_up":
            return f"up({self.threshold!r})"
        if self.kind == "first_passage_down":
            return f"down({self.threshold!r})"
        if self.kind == "deterministic":
            return f"fixed({self.step})"
        return "user"

    # -- evaluation ---------------------------------------------------------

    def tau_batch(self, paths: np.ndarray) -> np.ndarray:
        """First triggering step per row of an (m, n) path matrix; -1 if none."""
        p = np.asarray(paths, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError("paths must be an (m, n) matrix")
        m, n = p.shape
        if self.kind == "first_passage_up":
            tau = _first_true(p >= self.threshold)
        elif self.kind == "first_passage_down":
            tau = _first_true(p <= self.threshold)
        elif self.kind == "deterministic":
            tau = np.full(m, self.step if self.step <= n else -1, dtype=np.int64)
        else:
            # user predicate: first j with predicate(prefix) true
            tau = np.full(m, -1, dtype=np.int64)
            open_rows = np.ones(m, dtype=bool)
            for j in range(1, n + 1):
                if not open_rows.any():
                    break
                fired = np.asarray(self.predicate(p[:, :j]), dtype=bool)
                if fired.shape != (m,):
                    raise ValueError("user predicate must return one bool per path")
                fired = fired & open_rows  # not in place: the array is the predicate's
                tau[fired] = j
                open_rows &= ~fired
        return tau if self.cap is None else _wedge(tau, min(self.cap, n))

    def tau(self, path) -> int | None:
        """First triggering step of one path S_1..S_n; None if it never fires."""
        t = int(self.tau_batch(np.asarray(path, dtype=np.float64)[None, :])[0])
        return None if t == -1 else t

    # -- structure ----------------------------------------------------------

    def bound(self) -> int | None:
        """An integer M with tau <= M almost surely, when one is known: the
        smaller of the cap and the kind's own bound.

        User rules may declare a bound; the verification driver re-checks it
        against every evaluated path.
        """
        own = {"deterministic": self.step, "user": self.user_bound}.get(self.kind)
        return min((b for b in (own, self.cap) if b is not None), default=None)

    @property
    def user_defined(self) -> bool:
        """Whether a user predicate decides tau."""
        return self.kind == "user"

    def has_analytic_certificate(self, direction: str, target: str = "le") -> bool:
        """Monotonicity of the indicator, known by construction.

        first_passage_up: I{tau <= j} = max_{i <= j} I{S_i >= lambda}, which
        is nondecreasing in every coordinate; first_passage_down is the
        mirror image.  Deterministic indicators ignore the path entirely.
        A cap replaces the indicator by 1 at and beyond the cap, which
        preserves either monotonicity type; for the "eq" target only the
        below-cap steps (the ones a bounded-stop theorem inspects) inherit.
        """
        if self.kind == "deterministic":
            return True
        if target == "le":
            if self.kind == "first_passage_up":
                return direction == "nondecreasing"
            if self.kind == "first_passage_down":
                return direction == "nonincreasing"
        return False


def _wedge(tau: np.ndarray, j: int) -> np.ndarray:
    """tau ^ j of an int64 tau with the -1 sentinel treated as +infinity.

    Read as uint64, -1 is 2**64 - 1 and every tau >= 0 is itself, so the
    unsigned minimum with j >= 1 maps the sentinel to j.
    """
    return np.minimum(tau.view(np.uint64), j).view(np.int64)


def _first_true(hit: np.ndarray) -> np.ndarray:
    """First True step per row of an (m, n) bool matrix, 1-based; -1 if none.

    Counted time-major, with no transposing argmax: once each row j holds
    "hit at some step <= j", a path first hit at step k is True in the
    n + 1 - k rows k..n.  The comparison keeps the paths' layout, so the
    time-major view is free on column-major paths (sampled chunks and exact
    blocks alike); a row-major matrix costs a one-byte transpose.  ``hit``
    may be overwritten.
    """
    hit = np.ascontiguousarray(hit.T)
    n = hit.shape[0]
    _accumulate_rows(np.logical_or, hit, hit)
    count = hit.view(np.uint8).sum(axis=0, dtype=np.uint8 if n < 256 else np.int64)
    tau = (n + 1) - count.astype(np.int64)
    tau[~hit[-1]] = -1
    return tau


def first_passage_up(threshold: float) -> StoppingRule:
    """tau = min{k : S_k >= threshold}."""
    return StoppingRule(
        "first_passage_up", threshold=float(threshold), declared_direction="nondecreasing"
    )


def first_passage_down(threshold: float) -> StoppingRule:
    """tau = min{k : S_k <= threshold}."""
    return StoppingRule(
        "first_passage_down", threshold=float(threshold), declared_direction="nonincreasing"
    )


def deterministic(step: int, direction: str = "nondecreasing") -> StoppingRule:
    """tau = step, ignoring the path (certified for both directions)."""
    return StoppingRule("deterministic", step=int(step), declared_direction=direction)


def capped(rule: StoppingRule, cap: int) -> StoppingRule:
    """tau wedge cap; always stops by ``cap``.  Caps nest by ``min``."""
    cap = int(cap)
    return replace(
        rule, cap=cap if rule.cap is None else min(cap, rule.cap), label=f"{rule.label}^cap{cap}"
    )


def user_rule(
    predicate: Callable,
    declared_direction: str = "none",
    label: str = "user",
    bound: int | None = None,
) -> StoppingRule:
    """Rule from a vectorized predicate: predicate(prefix (m, j)) -> bool (m,).

    The predicate is consulted step by step; tau is the first j at which it
    fires.  At every step it sees the prefix of every row, including rows
    that have already stopped; only a row's first firing counts.  No
    analytic certificate: monotonicity claims are probed.
    """
    return StoppingRule(
        "user",
        predicate=predicate,
        declared_direction=declared_direction,
        label=label,
        user_bound=bound,
    )


def jump_if_high(watch_step: int, threshold: float, early: int, late: int) -> StoppingRule:
    """Stop at ``early`` when S_{watch_step} >= threshold, else at ``late``.

    Requires watch_step <= early < late.  The event {tau = early} is a
    nondecreasing function of the path, which makes this the canonical
    nontrivial rule for bounded-stop theorems keyed on I{tau = k}.
    """
    if not 1 <= watch_step <= early < late:
        raise ValueError("need 1 <= watch_step <= early < late")

    def pred(prefix: np.ndarray) -> np.ndarray:
        j = prefix.shape[1]
        if j == early:
            return prefix[:, watch_step - 1] >= threshold
        if j == late:
            return np.ones(prefix.shape[0], dtype=bool)
        return np.zeros(prefix.shape[0], dtype=bool)

    return StoppingRule(
        "user",
        predicate=pred,
        declared_direction="nondecreasing",
        user_bound=late,
        label=f"jump_if_high(S_{watch_step}>={threshold!r};{early}|{late})",
    )
