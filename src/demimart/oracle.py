"""Exact enumeration over finite-support chains.

Ground truth for every Monte-Carlo check: expectations, tail probabilities,
and the defining projection statistic are computed by walking the full
product space of the chain's independent draws.  Enumeration streams
fixed-size blocks (no full outcome list is ever materialized) and combines
probabilities with Kahan-compensated summation.  Statistics of S_n alone
fold over the law of S_n instead when it is a lattice sum (on a grid of
2**-e), convolved from each draw's law of row sums.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .core import _accumulate_rows, statistic_pieces
from .generators import DiscreteChainSpec, _reach

__all__ = [
    "KahanSum",
    "fold_expectations",
    "fold_terminal",
    "iter_blocks",
    "terminal_cost",
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
    chain: DiscreteChainSpec, block: int = _BLOCK, outcomes: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (paths, probabilities) blocks covering every outcome exactly once,
    or only ``outcomes``, an array of outcome indices, in that order.

    Outcomes are indexed mixed-radix over the draws (digit k picks draw k's
    atom); the shared component, when present, is the most significant
    digit, and every block of the full enumeration lies within one shared
    atom.  A step's increment sums the entries of the draws reaching it, in
    draw order.  Paths are cumulative sums of (increment + shared) minus the
    per-step drift, plus the start offset.  Each block is built time-major,
    one contiguous row per step, and yielded as its column-major
    ``(outcomes, n)`` transpose, the layout of a sampled chunk; the values
    are those of the row-wise ``np.cumsum`` and ``np.prod`` bit for bit, so
    an outcome's path does not depend on the block it is built in.
    """
    n = chain.horizon
    # float64 even for integer atoms; cols[c] is entry c of every atom's row
    cols = np.array([row for row, _ in chain.atoms], dtype=np.float64).T.copy()
    probs = np.array([p for _, p in chain.atoms], dtype=np.float64)
    w_vals, w_probs = np.array(chain.shared_component or ((0.0, 1.0),), dtype=np.float64).T
    drift_line = chain.drift * np.arange(1, n + 1, dtype=np.float64)[:, None]
    s = len(probs)
    per_shared = s ** len(chain.steps)
    strides = s ** np.arange(len(chain.steps) - 1, -1, -1, dtype=np.int64)
    # per draw, (step, column, whether an earlier draw reached it) for each step
    writes, reached = [], set()
    for start, cut in zip(chain.steps, _reach(chain.steps, len(cols), n)):
        steps = range(start + cut[0], start + cut[1])
        writes.append([(j, cols[j - start], j in reached) for j in steps])
        reached.update(steps)
    unreached = [j for j in range(n) if j not in reached]

    def paths_of(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.empty((n, idx.size))
        rows[unreached] = 0.0
        p = np.ones(idx.size)
        w = idx // per_shared
        # draw k's digit is q_k - s * q_(k-1) for q_k = idx // stride_k, the
        # shared quotient w above the first: one floor-divide per draw, no %
        q = w.copy()
        for stride, draw in zip(strides, writes):
            digit, q = q, idx // stride
            digit *= s
            np.subtract(q, digit, out=digit)
            for j, col, added in draw:
                if added:
                    rows[j] += col[digit]
                else:
                    np.take(col, digit, out=rows[j])
            p *= probs[digit]  # np.prod's left-to-right product, a draw at a time
        p *= w_probs[w]
        # the operations of cumsum(inc + w, axis=1) - drift_line + offset, in
        # place along the time axis; += offset runs even at 0.0, as the
        # expression does, so a -0.0 comes out as 0.0 there too
        rows += w_vals[w]
        _accumulate_rows(np.add, rows, rows)
        rows -= drift_line
        rows += chain.offset
        return rows.T, p

    # the generator keeps no reference to a block it has yielded
    if outcomes is not None:
        for lo in range(0, len(outcomes), block):
            yield paths_of(outcomes[lo : lo + block])
        return
    for first in range(0, len(w_vals) * per_shared, per_shared):
        for lo in range(first, first + per_shared, block):
            yield paths_of(np.arange(lo, min(lo + block, first + per_shared), dtype=np.int64))


def _check_total(total: float) -> None:
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {total!r}, not 1")


def terminal_law(chain: DiscreteChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Atoms of S_n and their probabilities, without enumerating paths.

    Every entry is scaled by 2**e (``DiscreteChainSpec.grid``) to an
    integer, exactly.  The laws of the draws' integer row sums (each row cut
    to the horizon) are convolved in draw order and mixed over the shared
    component, which adds n times its value.  Each atom is float(K) * 2**-e
    - drift * n + offset for its integer sum K: the exact sum of the entries
    the enumeration adds, then the operations that give the last column of
    ``iter_blocks``, so atoms equal the enumerated S_n bit for bit.
    Zero-probability atoms are dropped.  Raises ValueError unless the chain
    has a ``grid``.
    """
    lo, base = 0, np.ones(1)
    for k_lo, pmf in _draw_laws(chain):
        lo += k_lo
        base = np.convolve(base, pmf)
    e, n = chain.grid, chain.horizon
    shared = [(int(math.ldexp(w, e)), p) for w, p in chain.shared_component or ((0, 1.0),)]
    # S_n = (lo + j + n * w) * 2**-e for index j of base and shared atom w
    w_lo = min(w for w, _ in shared)
    pmf = np.zeros(base.size + n * (max(w for w, _ in shared) - w_lo))
    for w, p in shared:
        start = n * (w - w_lo)
        pmf[start : start + base.size] += p * base
    (keep,) = np.nonzero(pmf)
    sums = np.ldexp((lo + n * w_lo + keep).astype(np.float64), -e)
    values = sums - chain.drift * n + chain.offset
    probs = pmf[keep]
    _check_total(math.fsum(probs.tolist()))
    return values, probs


def _draw_laws(chain: DiscreteChainSpec) -> list[tuple[int, np.ndarray]]:
    """(lowest sum, pmf from it) of each draw's integer row sum, each row cut
    to the horizon and scaled by 2**e (``DiscreteChainSpec.grid``), exactly,
    in draw order.  Raises ValueError unless the chain has a ``grid``."""
    e = chain.grid
    if e is None:
        raise ValueError("terminal law needs atoms on a coarse grid of 2**-e")
    n = chain.horizon
    width = len(chain.atoms[0][0])
    # once per cut of the row
    pmfs: dict[tuple[int, int], tuple[int, np.ndarray]] = {}
    laws = []
    for cut in _reach(chain.steps, width, n):
        draw = pmfs.get(cut)
        if draw is None:
            sums = [(int(math.ldexp(sum(row[slice(*cut)]), e)), p) for row, p in chain.atoms]
            k_lo = min(k for k, _ in sums)
            pmf = np.zeros(max(k for k, _ in sums) - k_lo + 1)
            for k, p in sums:
                pmf[k - k_lo] += p
            draw = pmfs[cut] = k_lo, pmf
        laws.append(draw)
    return laws


def terminal_cost(chain: DiscreteChainSpec) -> int:
    """Multiply-adds of ``terminal_law``: each draw's pmf convolved with the
    law of the draws before it, then that law added once per shared atom.
    Raises ValueError unless the chain has a ``grid``."""
    size, cost = 1, 0
    for _, pmf in _draw_laws(chain):
        cost += size * pmf.size
        size += pmf.size - 1
    return cost + size * len(chain.shared_component or ((0.0, 1.0),))


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
    for paths, probs in outcome_blocks:
        sums.add(_block_expectations(probs, functionals(paths), checks))
        total.add(float(np.sum(probs)))
        # free this block before the next one is built
        del paths, probs
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
