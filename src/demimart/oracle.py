"""Exact enumeration over finite-support chains.

Ground truth for every Monte-Carlo check: expectations, tail probabilities,
and the defining projection statistic are computed by walking the full
product space of increment outcomes.  Enumeration streams fixed-size blocks
(no full outcome list is ever materialized) and combines probabilities with
Kahan-compensated summation.  Statistics of S_n alone fold over the law of
S_n instead, convolved from the integer step law.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .core import _accumulate_rows, statistic_pieces
from .generators import DiscreteChainSpec

__all__ = [
    "KahanSum",
    "fold_expectations",
    "fold_terminal",
    "iter_blocks",
    "terminal_law",
]

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


def iter_blocks(
    chain: DiscreteChainSpec, block: int = _BLOCK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (paths, probabilities) blocks covering every outcome exactly once.

    Outcomes are indexed base-|support| over the independent steps; the
    shared component, when present, multiplies the space.  Paths are
    cumulative sums of (increment + shared) minus the per-step drift, plus
    the start offset.  Each block is built time-major, one contiguous row
    per step, and yielded as its column-major ``(outcomes, n)`` transpose,
    the layout of a sampled chunk; the values are those of the row-wise
    ``np.cumsum`` and ``np.prod`` bit for bit.
    """
    n = chain.horizon
    # float64 even for integer atoms: the block is built in place from vals
    vals = np.array([v for v, _ in chain.increment_support], dtype=np.float64)
    probs = np.array([p for _, p in chain.increment_support], dtype=np.float64)
    shared = chain.shared_component or ((0.0, 1.0),)
    drift_line = chain.drift * np.arange(1, n + 1, dtype=np.float64)[:, None]

    def paths(rows: np.ndarray, w_val: float) -> np.ndarray:
        # the operations of cumsum(inc + w, axis=1) - drift_line + offset, in
        # place along the time axis; += offset runs even at 0.0, as the
        # expression does, so a -0.0 comes out as 0.0 there too
        rows += w_val
        _accumulate_rows(np.add, rows, rows)
        rows -= drift_line
        rows += chain.offset
        return rows.T

    if chain.coupling == "alternating":
        alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        for w_val, w_prob in shared:
            yield paths(np.multiply.outer(alt, vals), w_val), probs * w_prob
        return

    s = len(vals)
    per_shared = s**n
    strides = s ** np.arange(n - 1, -1, -1, dtype=np.int64)

    def outcomes(lo: int, w_val: float, w_prob: float) -> tuple[np.ndarray, np.ndarray]:
        idx = np.arange(lo, min(lo + block, per_shared), dtype=np.int64)
        rows = np.empty((n, idx.size))
        p = np.ones(idx.size)
        for j in range(n):
            digit = idx // strides[j]
            digit %= s
            np.take(vals, digit, out=rows[j])
            p *= probs[digit]  # np.prod's left-to-right product, a step at a time
        p *= w_prob
        return paths(rows, w_val), p

    # the generator keeps no reference to a block it has yielded
    for w_val, w_prob in shared:
        for lo in range(0, per_shared, block):
            yield outcomes(lo, w_val, w_prob)


def _check_total(total: float) -> None:
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


def _integer_atoms(support) -> list[tuple[int, float]]:
    atoms = [(int(v), p) for v, p in support]
    if any(k != v for (k, _), (v, _) in zip(atoms, support)):
        raise ValueError("terminal law needs integer-valued atoms")
    return atoms


def terminal_law(chain: DiscreteChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of S_n and their probabilities, without enumerating paths.

    The integer step law is convolved n times and mixed over the shared
    component.  Each atom is float(K) - drift * n + offset for its integer
    sum K, the operations that give the last column of ``iter_blocks``, so
    atoms equal the enumerated S_n bit for bit.  Zero-probability atoms are
    dropped.  Raises ValueError for non-integer atoms and for alternating
    coupling.
    """
    if chain.coupling != "independent":
        raise ValueError("terminal law needs independent coupling")
    n = chain.horizon
    steps = _integer_atoms(chain.increment_support)
    shared = _integer_atoms(chain.shared_component or ((0.0, 1.0),))
    lo = min(k for k, _ in steps)
    step_pmf = np.zeros(max(k for k, _ in steps) - lo + 1)
    for k, p in steps:
        step_pmf[k - lo] += p
    base = np.ones(1)
    for _ in range(n):
        base = np.convolve(base, step_pmf)
    # S_n = n * lo + j + n * w for index j of base and shared atom w
    w_lo = min(w for w, _ in shared)
    pmf = np.zeros(base.size + n * (max(w for w, _ in shared) - w_lo))
    for w, p in shared:
        start = n * (w - w_lo)
        pmf[start : start + base.size] += p * base
    (keep,) = np.nonzero(pmf)
    values = (n * (lo + w_lo) + keep).astype(np.float64) - chain.drift * n + chain.offset
    probs = pmf[keep]
    _check_total(math.fsum(probs.tolist()))
    return values, probs


def fold_expectations(
    chain: DiscreteChainSpec,
    functionals: Callable,
    block: int = _BLOCK,
    checks: int | None = None,
) -> list[float]:
    """Streaming exact expectations for every statistic at once.

    ``functionals`` maps a path-matrix block of at most ``block`` outcomes to
    its K = ``checks`` statistic rows: a (K, block) matrix or its pieces
    (``core.statistic_pieces``; ``checks`` is required for pieces), each
    piece folded before the next is asked for.  The K statistics are folded
    together with Kahan compensation, one add per block, and the total
    probability is verified to be 1 within 1e-12.  Blocks come from
    ``iter_blocks``: column-major ``(block, n)`` views, as sampled chunks
    are, and each block with its statistics is freed before the next is
    built.
    """
    return _fold(iter_blocks(chain, block), functionals, checks)


def fold_terminal(
    chain: DiscreteChainSpec, functionals: Callable, checks: int | None = None
) -> list[float]:
    """``fold_expectations`` for statistics that read only S_n = paths[:, -1]:
    ``functionals`` sees an (atoms, 1) matrix of the atoms of ``terminal_law``.
    """
    values, probs = terminal_law(chain)
    return _fold([(values[:, None], probs)], functionals, checks)


def _fold(outcome_blocks, functionals: Callable, checks: int | None) -> list[float]:
    sums = KahanSum()
    total = KahanSum()
    blocks = 0
    for paths, probs in outcome_blocks:
        sums.add(_block_expectations(probs, functionals(paths), checks))
        total.add(float(np.sum(probs)))
        blocks += 1
        # free this block before the next one is built
        del paths, probs
    if not blocks:
        raise ValueError("chain produced no outcomes")
    _check_total(total.total)
    return sums.total.tolist()


def _block_expectations(probs: np.ndarray, stats, checks: int | None) -> np.ndarray:
    """One block's probability-weighted sum of every statistic row, a piece
    at a time."""
    k, pieces = statistic_pieces(stats, checks)
    dots = np.empty(k)
    for rows, block in pieces:
        dots[rows] = [np.dot(probs, row) for row in block]
    return dots
