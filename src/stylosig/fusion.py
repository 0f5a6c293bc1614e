"""Score-level fusion of two match-score sources and the final decision rule."""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputWarning

OPERATORS = ("average", "product")


def fuse(a, b, operator: str) -> np.ndarray:
    """Combine two aligned score vectors (or matrices) elementwise.

    Both keep scores on the [0, 1] scale of the inputs, but they can rank
    differently: (0.5, 0.5) beats (0.9, 0.2) under "product", not "average".
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"score shapes differ: {a.shape} vs {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    if operator == "average":
        return (a + b) / 2.0
    if operator == "product":
        return a * b
    raise ValueError(f"unknown fusion operator {operator!r}")


class Decision(NamedTuple):
    subject: np.ndarray
    tie: np.ndarray


def decide(scores) -> Decision:
    """Pick the best-scoring subject of each row of an (n, S) matrix; exact ties go to the lowest id, flagged."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.size == 0:
        raise ValueError("expected a non-empty (n, S) score matrix")
    best = scores.argmax(axis=1)
    ties = np.count_nonzero(scores == scores[np.arange(len(scores)), best][:, None], axis=1) > 1
    if ties.any():
        message = f"tied top score in {int(ties.sum())} row(s), keeping the lowest subject id"
        warnings.warn(message, DegenerateInputWarning)
    return Decision(best, ties)
