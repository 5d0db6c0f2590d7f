"""Exact enumeration over finite-support chains.

Ground truth for every Monte-Carlo check: expectations, tail probabilities,
and the defining projection statistic are computed by walking the full
product space of increment outcomes.  Enumeration streams fixed-size blocks
(no full outcome list is materialized above the block cap) and combines
probabilities with Kahan-compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import ProcessPath
from .generators import DiscreteChainSpec
from .monotone import MonotoneTestFunction, evaluate_batch

__all__ = [
    "MATERIALIZE_CAP",
    "KahanSum",
    "OutcomeTable",
    "enumerate_table",
    "exact_demi_check",
    "exact_expectation",
    "fold_expectations",
    "iter_blocks",
]

# Outcome tables above this size are never materialized; use fold_expectations.
MATERIALIZE_CAP = 1 << 20

_BLOCK = 1 << 16


class KahanSum:
    """Compensated accumulator, elementwise on arrays; 2^24 additions stay
    well inside 1e-12."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, value: float) -> None:
        y = value - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class OutcomeTable:
    """Materialized outcome space: path matrix, per-outcome probabilities."""

    values: np.ndarray  # (outcomes, horizon)
    probabilities: np.ndarray  # (outcomes,)
    total_probability: float

    @property
    def outcome_count(self) -> int:
        return int(self.values.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.values.shape[1])

    @property
    def outcomes(self) -> list[tuple[ProcessPath, float]]:
        return [
            (ProcessPath(row), float(p))
            for row, p in zip(self.values, self.probabilities)
        ]


def iter_blocks(
    chain: DiscreteChainSpec, block: int = _BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (paths, probabilities) blocks covering every outcome exactly once.

    Outcomes are indexed base-|support| over the independent steps; the
    shared component, when present, multiplies the space.  Paths are
    cumulative sums of (increment + shared) minus the per-step drift, plus
    the start offset.
    """
    n = chain.horizon
    vals = np.array([v for v, _ in chain.increment_support])
    probs = np.array([p for _, p in chain.increment_support])
    shared = chain.shared_component or ((0.0, 1.0),)
    drift_line = chain.drift * np.arange(1, n + 1, dtype=np.float64)

    if chain.coupling == "alternating":
        alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        for w_val, w_prob in shared:
            inc = vals[:, None] * alt[None, :] + w_val
            paths = np.cumsum(inc, axis=1) - drift_line + chain.offset
            yield paths, probs * w_prob
        return

    s = len(vals)
    per_shared = s**n
    strides = s ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for w_val, w_prob in shared:
        for lo in range(0, per_shared, block):
            idx = np.arange(lo, min(lo + block, per_shared), dtype=np.int64)
            digits = (idx[:, None] // strides[None, :]) % s
            inc = vals[digits] + w_val
            p = np.prod(probs[digits], axis=1) * w_prob
            paths = np.cumsum(inc, axis=1) - drift_line + chain.offset
            yield paths, p


def enumerate_table(chain: DiscreteChainSpec) -> OutcomeTable:
    """Materialize the full outcome space (small chains only).

    Raises when the chain needs more than MATERIALIZE_CAP outcomes; larger
    (still capped) chains must go through the streaming fold.
    """
    if chain.outcome_count > MATERIALIZE_CAP:
        raise ValueError(
            f"chain requires {chain.outcome_count} outcomes; "
            f"materialization cap is {MATERIALIZE_CAP}, use fold_expectations"
        )
    paths_blocks, prob_blocks = [], []
    for paths, probs in iter_blocks(chain):
        paths_blocks.append(paths)
        prob_blocks.append(probs)
    values = np.vstack(paths_blocks)
    probabilities = np.concatenate(prob_blocks)
    total = math.fsum(probabilities.tolist()) if probabilities.size < 4096 else None
    if total is None:
        acc = KahanSum()
        for p in prob_blocks:
            acc.add(float(np.sum(p)))
        total = acc.total
    _check_total(total)
    return OutcomeTable(
        values=values, probabilities=probabilities, total_probability=total
    )


def _check_total(total: float) -> None:
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


def exact_expectation(table: OutcomeTable, functional: Callable) -> float:
    """Sum of probability * functional(path) over every outcome.

    ``functional`` takes the (outcomes, horizon) path matrix and returns one
    value per row, so the same statistic code serves sampling and exact runs.
    """
    stat = np.asarray(functional(table.values), dtype=np.float64)
    if stat.shape != (table.outcome_count,):
        raise ValueError("functional must return one value per outcome")
    return float(np.dot(table.probabilities, stat))


def fold_expectations(
    chain: DiscreteChainSpec, functionals: Callable
) -> list[float]:
    """Streaming exact expectations for every statistic at once.

    ``functionals`` maps a path-matrix block to a (K, block) statistic
    matrix, or a list of K per-path vectors; the K statistics are folded
    together with Kahan compensation and the total probability is verified
    to be 1 within 1e-12.
    """
    sums = KahanSum()
    total = KahanSum()
    blocks = 0
    for paths, probs in iter_blocks(chain):
        stats = functionals(paths)
        sums.add(np.array([np.dot(probs, np.asarray(s, np.float64)) for s in stats]))
        total.add(float(np.sum(probs)))
        blocks += 1
    if not blocks:
        raise ValueError("chain produced no outcomes")
    _check_total(total.total)
    return sums.total.tolist()


def exact_demi_check(table: OutcomeTable, j: int, f: MonotoneTestFunction) -> float:
    """Exact value of E[(S_{j+1} - S_j) f(S_1..S_j)].

    The sign decides the defining inequality at this (j, f): nonnegative for
    a demimartingale against any nondecreasing f, and for a demisubmartingale
    against nonnegative nondecreasing f.
    """
    if not 1 <= j < table.horizon:
        raise ValueError("j must satisfy 1 <= j < horizon")
    step = table.values[:, j] - table.values[:, j - 1]
    fvals = evaluate_batch(f, table.values[:, :j])
    return float(np.dot(table.probabilities, step * fvals))
