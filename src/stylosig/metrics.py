"""Evaluation metrics for identification and verification experiments.

Verification metrics run over claims: every (test item, claimed subject)
pair, genuine when the claim names the item's true subject.  A claim is
accepted at threshold t when its score is >= t.  Each claim class is sorted
once, so F-measure, recall, DET and the match-score histograms all count
the claims at or above a threshold by binary search.  Identification
metrics (accuracy, CMC) run over the per-item score rows directly.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateInputWarning
from .signature import ScoreMatrix


def default_grid(points: int) -> np.ndarray:
    """Evenly spaced thresholds covering [0, 1] inclusive."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    return np.arange(points) / (points - 1)


# ---------------------------------------------------------------------------
# claims

@dataclass(frozen=True)
class ClaimSet:
    genuine: np.ndarray  # (n_genuine,) float64 scores of the genuine claims, ascending
    imposter: np.ndarray  # (n_imposter,) float64 scores of the imposter claims, ascending

    def __post_init__(self):
        if not (self.genuine.size and self.imposter.size):
            raise ValueError("a claim set needs both genuine and imposter claims")
        if min(self.genuine[0], self.imposter[0]) < 0.0 or max(self.genuine[-1], self.imposter[-1]) > 1.0:
            raise ValueError("match scores must lie in [0, 1]")

    @property
    def n_genuine(self) -> int:
        return self.genuine.size

    @property
    def n_imposter(self) -> int:
        return self.imposter.size

    def __len__(self):
        return self.genuine.size + self.imposter.size


def _checked_truth(matrix: ScoreMatrix, truth: Sequence[int]) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    n_items, n_subjects = matrix.scores.shape
    if truth.shape != (n_items,):
        raise ValueError("need one true subject per matrix row")
    if truth.min() < 0 or truth.max() >= n_subjects:
        raise ValueError("true subject out of range")
    return truth


def expand_claims(matrix: ScoreMatrix, truth: Sequence[int]) -> ClaimSet:
    """One claim per (item, subject) pair, genuine when the subject is the item's true one; each class sorted once."""
    truth = _checked_truth(matrix, truth)
    genuine = np.arange(matrix.scores.shape[1]) == truth[:, None]
    return ClaimSet(np.sort(matrix.scores[genuine]), np.sort(matrix.scores[~genuine]))


# ---------------------------------------------------------------------------
# accuracy with confidence intervals

def load_special():
    """``scipy.special``, imported on the first call: only an eval's intervals and t-tests run its kernels, so no other command loads it."""
    from scipy import special

    return special


@dataclass(frozen=True)
class AccuracyReport:
    accuracy: float
    ci_low: float
    ci_high: float
    method: str
    n: int
    confidence: float


def accuracy(correct=None, *, folds=None, confidence: float) -> AccuracyReport:
    """Point accuracy with a confidence interval.

    Pass ``correct`` (per-item booleans) for a normal-approximation
    interval, or ``folds`` (per-fold accuracies) for a Student-t interval
    over the fold mean.  Bounds are reported raw, without clamping to
    [0, 1].
    """
    special = load_special()  # the kernels of stats.norm.ppf and t.ppf
    if (correct is None) == (folds is None):
        raise ValueError("pass exactly one of correct= or folds=")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if correct is not None:
        correct = np.asarray(correct, dtype=bool)
        n = correct.size
        if n == 0:
            raise ValueError("no decisions to score")
        p = float(correct.mean())
        z = float(special.ndtri(1.0 - (1.0 - confidence) / 2.0))
        half = z * math.sqrt(p * (1.0 - p) / n)
        return AccuracyReport(p, p - half, p + half, "wald", n, confidence)
    folds = np.asarray(folds, dtype=np.float64)
    n = folds.size
    if n < 2:
        raise ValueError("need at least 2 folds for a t interval")
    mean = float(folds.mean())
    sd = float(folds.std(ddof=1))
    t = float(special.stdtrit(n - 1, 1.0 - (1.0 - confidence) / 2.0))
    half = t * sd / math.sqrt(n)
    return AccuracyReport(mean, mean - half, mean + half, "student-t", n, confidence)


# ---------------------------------------------------------------------------
# threshold curves

@dataclass(frozen=True)
class Curve:
    xs: np.ndarray
    ys: np.ndarray
    x_name: str
    y_name: str


@dataclass(frozen=True)
class DetCurve:
    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    area: float


def _accept_counts(claims: ClaimSet, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # genuine and imposter claims scoring >= each threshold: in a sorted
    # class, the first index holding a score >= t splits it
    return (
        claims.n_genuine - np.searchsorted(claims.genuine, thresholds, side="left"),
        claims.n_imposter - np.searchsorted(claims.imposter, thresholds, side="left"),
    )


def fscore_curve(claims: ClaimSet, grid: np.ndarray) -> Curve:
    """F-measure 2TP / (2TP + FP + FN) across the sweep; TP + FN is the genuine count, so no denominator is 0."""
    grid = np.asarray(grid, dtype=np.float64)
    tp, fp = _accept_counts(claims, grid)
    return Curve(grid, 2.0 * tp / (2 * tp + fp + (claims.n_genuine - tp)), "threshold", "fscore")


def recall_curve(claims: ClaimSet, grid: np.ndarray) -> Curve:
    """Recall (true accept rate over genuine claims) across the threshold sweep."""
    grid = np.asarray(grid, dtype=np.float64)
    tp, _ = _accept_counts(claims, grid)
    return Curve(grid, tp / claims.n_genuine, "threshold", "recall")


def det_curve(claims: ClaimSet, grid: np.ndarray) -> DetCurve:
    """FAR/FRR tradeoff over the sweep, with trapezoid area under FRR(FAR)."""
    grid = np.asarray(grid, dtype=np.float64)
    tp, fp = _accept_counts(claims, grid)
    far = fp / claims.n_imposter
    frr = (claims.n_genuine - tp) / claims.n_genuine
    area = float(abs(np.trapezoid(frr, far)))
    return DetCurve(grid, far, frr, area)


# ---------------------------------------------------------------------------
# identification: ranks and CMC

def genuine_ranks(matrix: ScoreMatrix, truth: Sequence[int]) -> np.ndarray:
    """Pessimistic rank of each item's true subject (ties count as worse)."""
    truth = _checked_truth(matrix, truth)
    own = matrix.scores[np.arange(truth.size), truth]
    return (matrix.scores >= own[:, None]).sum(axis=1)


def cmc_curve(matrix: ScoreMatrix, truth: Sequence[int]) -> Curve:
    """Fraction of items whose true subject ranks within the top k, for k=1..S."""
    ranks = genuine_ranks(matrix, truth)
    n_subjects = matrix.scores.shape[1]
    ys = np.cumsum(np.bincount(ranks, minlength=n_subjects + 1)[1:]) / ranks.size
    return Curve(np.arange(1, n_subjects + 1, dtype=np.float64), ys, "rank", "identification_rate")


# ---------------------------------------------------------------------------
# match-score histograms

@dataclass(frozen=True)
class MatchScoreHistogram:
    edges: np.ndarray  # (bins + 1,)
    genuine: np.ndarray  # (bins,) frequencies, sum 1
    imposter: np.ndarray
    n_genuine: int
    n_imposter: int
    overlap: float


def msh(claims: ClaimSet, bins: int) -> MatchScoreHistogram:
    """Genuine and imposter score histograms over [0, 1] plus their overlap.

    Bins are right-open except the last, which also takes 1.0: a bin's
    count is the claims scoring at or above its low edge less those at or
    above the next edge.  Overlap is the summed bin-wise minimum of the two
    normalized histograms: 0 for perfectly separated classes, 1 for
    identical ones.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.arange(bins + 1) / bins
    freqs = []
    for at_least, n in zip(_accept_counts(claims, edges), (claims.n_genuine, claims.n_imposter)):
        at_least[-1] = 0  # the last bin also keeps the scores of 1.0
        counts = (at_least[:-1] - at_least[1:]).astype(np.float64)  # differences in integers, so no -0.0
        freqs.append(counts / n)
    genuine, imposter = freqs
    overlap = float(np.minimum(genuine, imposter).sum())
    return MatchScoreHistogram(edges, genuine, imposter, claims.n_genuine, claims.n_imposter, overlap)


# ---------------------------------------------------------------------------
# paired comparison

@dataclass(frozen=True)
class TTestResult:
    statistic: float
    pvalue: float
    df: int
    degenerate: bool


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on matched samples.

    Zero-variance differences make the statistic undefined; that case is
    flagged and scored p=0 when the means differ, p=1 when they do not.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D and the same length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        warnings.warn("zero-variance differences, t statistic undefined", DegenerateInputWarning)
        if mean == 0.0:
            return TTestResult(0.0, 1.0, df, True)
        return TTestResult(math.copysign(math.inf, mean), 0.0, df, True)
    special = load_special()  # the kernel of stats.t.sf
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return TTestResult(t, p, df, False)


# ---------------------------------------------------------------------------
# deterministic exports

def _fmt(value) -> str:
    return repr(float(value))


def _write_columns(path: str | Path, header: Sequence[str], *columns) -> None:
    """A CSV of ``header`` and one row per position of the equal-length ``columns``, every value exact."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(map(_fmt, column) for column in columns)))


def write_curve_csv(curve: Curve, path: str | Path) -> None:
    _write_columns(path, [curve.x_name, curve.y_name], curve.xs, curve.ys)


def write_det_csv(det: DetCurve, path: str | Path) -> None:
    _write_columns(path, ["threshold", "far", "frr"], det.thresholds, det.far, det.frr)


def write_msh_csv(hist: MatchScoreHistogram, path: str | Path) -> None:
    _write_columns(
        path, ["bin_low", "bin_high", "genuine", "imposter"], hist.edges[:-1], hist.edges[1:], hist.genuine, hist.imposter
    )


def write_summary_json(summary: dict, path: str | Path) -> None:
    """Stable JSON: sorted keys, two-space indent, trailing newline."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
