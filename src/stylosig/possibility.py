"""Probability-to-possibility transform.

The possibility of outcome j is the sum of min(p_a, p_j) over all
outcomes a.  Computed directly that is quadratic; sorting once turns each
entry into (sum of the probabilities <= p_j) + p_j * (count of larger
ones), which a cumulative sum answers in O(S log S) total.
"""

from __future__ import annotations

import numpy as np

SUM_TOLERANCE = 1e-6


def to_possibility(p) -> np.ndarray:
    """Map a probability vector, or each row of an (n, S) matrix, to its possibility distribution.

    Every row must be non-negative and sum to 1 within 1e-6.  Its argmax entries come out
    exactly 1.0, the output is clamped to [0, 1], and p_i <= p_j implies pi_i <= pi_j.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.size == 0:
        raise ValueError("expected a non-empty probability vector or (n, S) matrix")
    rows = p.reshape(-1, p.shape[-1])
    if np.any(rows < 0.0) or not np.all(np.isfinite(rows)):
        raise ValueError("probabilities must be finite and non-negative")
    totals = rows.sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > SUM_TOLERANCE)
    if bad.size:
        raise ValueError(f"probabilities must sum to 1 within {SUM_TOLERANCE}, got {totals[bad[0]]!r} in row {bad[0]}")

    size = rows.shape[1]
    order = np.argsort(rows, axis=1)
    sorted_p = np.take_along_axis(rows, order, axis=1)
    # last[i, k]: sorted position of the last entry equal to sorted_p[i, k], so last + 1 entries are <= it
    ends = np.append(sorted_p[:, 1:] != sorted_p[:, :-1], np.ones((len(rows), 1), dtype=bool), axis=1)
    last = np.minimum.accumulate(np.where(ends, np.arange(size), size)[:, ::-1], axis=1)[:, ::-1]
    sorted_pi = np.take_along_axis(np.cumsum(sorted_p, axis=1), last, axis=1) + sorted_p * (size - 1 - last)
    pi = np.empty_like(rows)
    np.put_along_axis(pi, order, sorted_pi, axis=1)
    pi[rows == rows.max(axis=1, keepdims=True)] = 1.0  # the sum above lands within float error of 1
    return np.clip(pi, 0.0, 1.0).reshape(p.shape)
