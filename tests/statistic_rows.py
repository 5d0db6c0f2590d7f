"""A statistic's value as one (K, m) matrix, for tests that read it whole.

A statistic returns a (K, m) matrix or an iterator of (rows, block) pieces
that may share one buffer, so the matrix is assembled while iterating, each
block copied as it arrives.  The piece contract is asserted on the way:
float64 blocks of one m, row slices covering every row exactly once.
"""

from collections.abc import Iterator

import numpy as np


def assemble(stats, checks: int) -> np.ndarray:
    if not isinstance(stats, Iterator):
        assert isinstance(stats, np.ndarray) and stats.dtype == np.float64
        assert stats.ndim == 2 and len(stats) == checks
        return stats
    out = None
    hits = np.zeros(checks, dtype=np.int64)
    for rows, block in stats:
        assert isinstance(rows, slice)
        assert isinstance(block, np.ndarray) and block.dtype == np.float64
        if out is None:
            out = np.full((checks, block.shape[1]), np.nan)
        assert block.shape == (len(range(checks)[rows]), out.shape[1])
        out[rows] = block
        hits[rows] += 1
    assert out is not None and np.all(hits == 1), hits
    return out


def evaluate_rows(checkset, paths: np.ndarray) -> np.ndarray:
    """``checkset.evaluate(paths)`` as a (K, m) matrix."""
    return assemble(checkset.evaluate(paths), len(checkset.metas))
