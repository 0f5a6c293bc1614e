"""Subject classifiers over feature count matrices: multinomial and Poisson naive Bayes.

Both train per-subject parameters from pooled in-vocabulary counts, score
every row of a (documents, m) count matrix in log space with one sparse
product, and normalize each row with a max-shifted softmax.  Priors are
uniform.  Model files round-trip bit-exactly.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, DegenerateInputWarning
from .features import FeatureModel, Vocabulary

ALPHA_FLOOR = 1e-10
FORMAT_VERSION = 1


@dataclass(frozen=True)
class MnbModel:
    vocab: Vocabulary
    subject_labels: tuple[str, ...]
    alpha: float
    log_params: np.ndarray  # (S, m) log feature probabilities
    log_priors: np.ndarray  # (S,)

    @property
    def n_subjects(self) -> int:
        return len(self.subject_labels)


@dataclass(frozen=True)
class PnbModel:
    vocab: Vocabulary
    subject_labels: tuple[str, ...]
    alpha: float
    rates: np.ndarray  # (S, m) per-document expected counts
    log_priors: np.ndarray  # (S,)

    @property
    def n_subjects(self) -> int:
        return len(self.subject_labels)

    @cached_property
    def log_rates(self) -> np.ndarray:
        """(S, m), -inf where the rate is zero."""
        with np.errstate(divide="ignore"):
            return np.log(self.rates)

    @cached_property
    def rate_totals(self) -> np.ndarray:
        return self.rates.sum(axis=1)


def _subject_counts(counts, subjects, n_subjects: int):
    """Pool training rows per subject: a subject-indicator matrix times the counts."""
    subjects = np.asarray(subjects, dtype=np.int64)
    unknown = subjects[(subjects < 0) | (subjects >= n_subjects)]
    if unknown.size:
        raise DataError(f"training vector labeled with unknown subject {unknown[0]}")
    docs_per_subject = np.bincount(subjects, minlength=n_subjects)
    missing = [str(s) for s in np.flatnonzero(docs_per_subject == 0)]
    if missing:
        raise DataError("subjects without training vectors: " + ", ".join(missing))
    n = len(subjects)
    indicator = sparse.csr_array((np.ones(n), (subjects, np.arange(n))), shape=(n_subjects, n))
    return (indicator @ counts).toarray(), docs_per_subject


def mnb_train(counts, subjects, vocab: Vocabulary, alpha: float, subject_labels: Sequence[str]) -> MnbModel:
    """Fit multinomial feature probabilities with additive smoothing.

    ``counts`` is a sparse (documents, m) matrix over the vocabulary and
    ``subjects`` the subject id of each row.  alpha=0 is replaced by a
    1e-10 floor so that log probabilities stay finite; negative alpha is
    rejected.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    a = alpha if alpha > 0 else ALPHA_FLOOR
    labels = tuple(subject_labels)
    m = len(vocab)
    pooled, _ = _subject_counts(counts, subjects, len(labels))
    totals = pooled.sum(axis=1)
    log_params = np.log(pooled + a) - np.log(totals + a * m)[:, None]
    log_priors = np.full(len(labels), -np.log(len(labels)))
    return MnbModel(vocab, labels, alpha, log_params, log_priors)


def pnb_train(counts, subjects, vocab: Vocabulary, alpha: float, subject_labels: Sequence[str]) -> PnbModel:
    """Fit one Poisson rate per (subject, feature): smoothed count / document count.

    alpha=0 is kept as-is here; a zero rate is a legal degenerate Poisson
    and its -inf log is handled at scoring time.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    labels = tuple(subject_labels)
    pooled, docs_per_subject = _subject_counts(counts, subjects, len(labels))
    rates = (pooled + alpha) / docs_per_subject[:, None]
    return PnbModel(vocab, labels, alpha, rates, np.full(len(labels), -np.log(len(labels))))


def posterior(model, counts) -> np.ndarray:
    """Posterior over subjects, one row per row of a sparse (documents, m) count matrix.

    Rows that no subject explains (empty under MNB, of zero likelihood for every
    subject under PNB) fall back on the uniform posterior, with a warning.
    """
    posteriors, fallback = posterior_rows(model, counts)
    warn_fallback(model, int(fallback.sum()))
    return posteriors


def posterior_rows(model, counts) -> tuple[np.ndarray, np.ndarray]:
    """``posterior`` without the warning: the posteriors and the mask of rows that fell back."""
    counts = sparse.csr_array(counts, dtype=np.float64)
    if isinstance(model, MnbModel):
        log_scores = model.log_priors + counts @ model.log_params.T
        degenerate = counts.sum(axis=1) == 0
    elif isinstance(model, PnbModel):
        # only stored counts meet the log rates, so a zero rate costs nothing where a row has no count
        log_scores = (model.log_priors - model.rate_totals) + counts @ model.log_rates.T
        degenerate = np.all(np.isneginf(log_scores), axis=1)
    else:
        raise TypeError(f"not a classifier model: {type(model).__name__}")
    log_scores[degenerate] = 0.0
    shifted = np.exp(log_scores - log_scores.max(axis=1, keepdims=True))
    posteriors = shifted / shifted.sum(axis=1, keepdims=True)
    posteriors[degenerate] = 1.0 / model.n_subjects
    return posteriors, degenerate


def warn_fallback(model, n_rows: int) -> None:
    if n_rows:
        what = "empty feature vector" if isinstance(model, MnbModel) else "every subject has zero likelihood"
        warnings.warn(f"{what} in {n_rows} row(s), returning uniform posterior", DegenerateInputWarning)


# ---------------------------------------------------------------------------
# persistence

def save_model(model, path: str | Path) -> None:
    """Write a model as .npz; floats survive the round trip bit-exactly."""
    header = {
        "format_version": FORMAT_VERSION,
        "alpha": model.alpha,
        "feature_family": model.vocab.model.family,
        "feature_orders": list(model.vocab.model.orders),
        "feature_element": model.vocab.model.element,
        "profile_size": model.vocab.profile_size,
    }
    arrays = {
        "subject_labels": np.array(model.subject_labels, dtype=np.str_),
        "features": np.array(model.vocab.features, dtype=np.str_),
        "log_priors": model.log_priors,
    }
    if isinstance(model, MnbModel):
        header["kind"] = "mnb"
        arrays["log_params"] = model.log_params
    elif isinstance(model, PnbModel):
        header["kind"] = "pnb"
        arrays["rates"] = model.rates
    else:
        raise TypeError(f"not a classifier model: {type(model).__name__}")
    arrays["header"] = np.array(json.dumps(header))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path: str | Path):
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            if header.get("format_version") != FORMAT_VERSION:
                raise DataError(f"{path}: unsupported model format {header.get('format_version')!r}")
            fmodel = FeatureModel(
                header["feature_family"],
                tuple(header["feature_orders"]),
                header["feature_element"],
            )
            vocab = Vocabulary(fmodel, header["profile_size"], tuple(data["features"]))
            labels = tuple(data["subject_labels"])
            if header["kind"] == "mnb":
                return MnbModel(vocab, labels, header["alpha"], data["log_params"], data["log_priors"])
            if header["kind"] == "pnb":
                return PnbModel(vocab, labels, header["alpha"], data["rates"], data["log_priors"])
            raise DataError(f"{path}: unknown model kind {header['kind']!r}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot load model from {path}: {exc}") from exc
