"""Subject classifiers over feature count matrices: multinomial and Poisson naive Bayes.

Both estimators pool the in-vocabulary training counts per subject and
give one linear model: the log scores of a (documents, m) count matrix
are ``bias + counts @ weights``, one sparse product, and each row is
normalized with a max-shifted softmax.  Priors are uniform.  Only the
rule for rows that fall back on the uniform posterior depends on the
estimator.  Model files round-trip bit-exactly.

Count matrices are CSR: a ``features.CsrMatrix`` or a scipy CSR.  The
product is scipy's CSR kernel, called on the count matrix's own arrays.
Its one extension module is loaded at import from scipy's install
directory, without the ``scipy.sparse`` package, so no command imports it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import warnings
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateInputWarning
from .features import FeatureModel, Vocabulary

ALPHA_FLOOR = 1e-10
FORMAT_VERSION = 1

# the classifier kinds; the estimator of each is ``<kind>_train``
KINDS = ("mnb", "pnb")
# the name of each kind's table in a model file
_TABLE_NAMES = {"mnb": "log_params", "pnb": "rates"}
# the rows each kind cannot score
_FALLBACKS = {"mnb": "empty feature vector", "pnb": "every subject has zero likelihood"}


@dataclass(frozen=True)
class NbModel:
    """A trained naive Bayes model of one of ``KINDS``.

    ``table`` is the (S, m) array its estimator fit: log feature
    probabilities for "mnb", per-document expected counts for "pnb".  A
    model trained in this run holds it as the transpose of an (m, S)
    C-contiguous block, the layout in which ``counts @ weights`` reads it;
    a loaded model holds it C-ordered, as its model file stores it.
    """

    kind: str
    subject_labels: tuple[str, ...]
    alpha: float
    table: np.ndarray

    @property
    def n_subjects(self) -> int:
        return len(self.subject_labels)

    @property
    def log_priors(self) -> np.ndarray:
        return np.full(self.n_subjects, -np.log(self.n_subjects))

    @property
    def linear(self) -> tuple[np.ndarray, np.ndarray]:
        """(bias (S,), weights (m, S)) of the log scores ``bias + counts @ weights``.

        Made on each access, not cached: a model is scored once per run, and
        a cached array would outlive the scoring, e.g. into the next fold's training.
        """
        if self.kind == "mnb":
            return self.log_priors, self.table.T
        # a zero rate weighs -inf, which only a stored count meets: it costs nothing where a row has no count
        with np.errstate(divide="ignore"):
            log_rates = np.log(self.table.T, order="C")
        # each subject's rate total summed pairwise along a C-ordered row, whatever the table's layout
        return self.log_priors - np.ascontiguousarray(self.table).sum(axis=1), log_rates


def _check_csr(counts) -> None:
    """Refuse a count matrix in any layout but CSR, whose three arrays would be misread as CSR's, or that stores a count not above 0.

    A stored zero would meet a PNB zero rate's -inf weight as 0 * -inf, which is NaN.
    """
    if getattr(counts, "format", None) != "csr":
        raise TypeError(f"counts must be a CSR matrix, not {type(counts).__name__}")
    if not counts.data.min(initial=1) > 0:  # one pass; a NaN fails it too
        raise ValueError("counts must store only positive counts")


def _import_sparsetools():
    """``scipy.sparse._sparsetools``, loaded from scipy's install directory without running ``scipy.sparse``'s package import."""
    name = "scipy.sparse._sparsetools"
    scipy = importlib.util.find_spec("scipy")  # finds the package without importing it
    spec = scipy and importlib.machinery.PathFinder.find_spec(name, [f"{path}/sparse" for path in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _import_sparsetools()


def _product(counts, weights) -> np.ndarray:
    """``counts @ weights`` as a C-ordered (n, S) array, by the CSR kernel that scipy's ``csr_array @ weights`` calls.

    Each row adds its products one at a time, in stored order, to 0.0.
    C-contiguous (m, S) weights take one ``csr_matvecs`` call, as scipy's
    product does.  F-ordered weights, a loaded model's (S, m) table, take one
    ``csr_matvec`` per subject on the table's rows in place, where scipy's
    product would copy the table to C order first.
    """
    (n, m), n_subjects = counts.shape, weights.shape[1]
    # the kernel reads the arrays in place and trusts every offset and column in them
    bounds = min(counts.indices.size, counts.data.size)
    if counts.indptr.shape != (n + 1,) or not 0 <= counts.indptr.min() <= counts.indptr.max() <= bounds:
        raise ValueError(f"counts' indptr does not fit {n} rows of {bounds} entries")
    if counts.indices.min(initial=0) < 0 or counts.indices.max(initial=-1) >= m:
        raise ValueError(f"counts store a column outside 0..{m - 1}")
    width = np.promote_types(counts.indptr.dtype, counts.indices.dtype)  # the kernel's index arrays are of one width
    arrays = (
        counts.indptr.astype(width, copy=False),
        counts.indices.astype(width, copy=False),
        counts.data.astype(np.float64, copy=False),
    )
    if weights.flags.f_contiguous and not weights.flags.c_contiguous:
        products = np.zeros((n_subjects, n))
        for subject, row in zip(weights.T, products):
            _sparsetools.csr_matvec(n, m, *arrays, subject, row)
        # C order, so that the softmax's row sums add in the order they do on a C-ordered product
        return np.ascontiguousarray(products.T)
    products = np.zeros((n, n_subjects))
    _sparsetools.csr_matvecs(n, m, n_subjects, *arrays, np.ascontiguousarray(weights).ravel(), products.ravel())
    return products


def _pool(counts, subjects, alpha: float, n_subjects: int):
    """Pool training rows per subject: each (subject, column) cell adds its entries in row order, then stored order.

    That is the order in which a subject-indicator matrix times the counts adds
    them, so one ``np.bincount`` gives that product's table to the bit.  The
    table is bincounted as an (m, S) C-contiguous block and returned as its
    (S, m) transpose, so estimators fit it in place in the layout that scoring reads.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    subjects = np.asarray(subjects, dtype=np.int64)
    unknown = subjects[(subjects < 0) | (subjects >= n_subjects)]
    if unknown.size:
        raise DataError(f"training vector labeled with unknown subject {unknown[0]}")
    docs_per_subject = np.bincount(subjects, minlength=n_subjects)
    missing = [str(s) for s in np.flatnonzero(docs_per_subject == 0)]
    if missing:
        raise DataError("subjects without training vectors: " + ", ".join(missing))
    _check_csr(counts)
    n_rows, m = counts.shape
    if n_rows != len(subjects):
        raise ValueError(f"{n_rows} training rows for {len(subjects)} subject ids")
    cells = counts.indices * np.int64(n_subjects)  # column * S + subject
    cells += np.repeat(subjects, np.diff(counts.indptr))
    pooled = np.bincount(cells, weights=counts.data, minlength=m * n_subjects)
    # np.bincount returns int64 when there are no entries
    return pooled.astype(np.float64, copy=False).reshape(m, n_subjects).T, docs_per_subject


def mnb_train(counts, subjects, alpha: float, subject_labels: Sequence[str]) -> NbModel:
    """Fit multinomial feature probabilities with additive smoothing.

    ``counts`` is a CSR (documents, m) matrix over the m profile features
    and ``subjects`` the subject id of each row.  alpha=0 is replaced by a
    1e-10 floor so that log probabilities stay finite; negative alpha is
    rejected.
    """
    labels = tuple(subject_labels)
    table, _ = _pool(counts, subjects, alpha, len(labels))
    a = alpha if alpha > 0 else ALPHA_FLOOR
    # the row sums add integer-valued floats, which any order sums to the same bits
    norm = np.log(table.sum(axis=1) + a * table.shape[1])
    table += a
    np.log(table, out=table)
    table -= norm[:, None]
    return NbModel("mnb", labels, alpha, table)


def pnb_train(counts, subjects, alpha: float, subject_labels: Sequence[str]) -> NbModel:
    """Fit one Poisson rate per (subject, feature): smoothed count / document count.

    alpha=0 is kept as-is here; a zero rate is a legal degenerate Poisson
    and its -inf log is handled at scoring time.
    """
    labels = tuple(subject_labels)
    table, docs_per_subject = _pool(counts, subjects, alpha, len(labels))
    table += alpha
    table /= docs_per_subject[:, None]
    return NbModel("pnb", labels, alpha, table)


def posterior(model: NbModel, counts) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors over subjects, one row per row of a CSR (documents, m) count matrix, and the fallback mask.

    Rows that no subject explains (empty under MNB, of zero likelihood for every
    subject under PNB) fall back on the uniform posterior and are set in the
    mask; the caller reports them through ``warn_fallback``.
    """
    _check_csr(counts)
    bias, weights = model.linear
    if counts.shape[1] != weights.shape[0]:
        raise ValueError(f"counts have {counts.shape[1]} columns for a model of {weights.shape[0]} features")
    posteriors = _product(counts, weights)
    # normalized in place: the scores become the posteriors
    posteriors += bias
    if model.kind == "mnb":
        # every stored count is positive (``_check_csr``), so a row sums to 0 only if it stores none
        degenerate = np.diff(counts.indptr) == 0
    else:
        degenerate = np.all(np.isneginf(posteriors), axis=1)
    posteriors[degenerate] = 0.0
    posteriors -= posteriors.max(axis=1, keepdims=True)
    np.exp(posteriors, out=posteriors)
    posteriors /= posteriors.sum(axis=1, keepdims=True)
    posteriors[degenerate] = 1.0 / model.n_subjects
    return posteriors, degenerate


def warn_fallback(model: NbModel, n_rows: int) -> None:
    if n_rows:
        message = f"{_FALLBACKS[model.kind]} in {n_rows} row(s), returning uniform posterior"
        warnings.warn(message, DegenerateInputWarning)


# ---------------------------------------------------------------------------
# persistence

def save_model(model: NbModel, path: str | Path, vocab: Vocabulary) -> None:
    """Write a model and the vocabulary of its table's columns as .npz; floats survive the round trip bit-exactly."""
    header = {
        "format_version": FORMAT_VERSION,
        "alpha": model.alpha,
        "feature_family": vocab.model.family,
        "feature_orders": list(vocab.model.orders),
        "feature_element": vocab.model.element,
        "profile_size": vocab.profile_size,
        "kind": model.kind,
    }
    with open(path, "wb") as fh:
        np.savez(
            fh,
            subject_labels=np.array(model.subject_labels, dtype=np.str_),
            features=np.array(vocab.features, dtype=np.str_),
            log_priors=model.log_priors,
            **{_TABLE_NAMES[model.kind]: np.ascontiguousarray(model.table)},  # C order, whatever the layout held
            header=np.array(json.dumps(header)),
        )


def _strings(data, name: str) -> tuple:
    """The 1-d array ``name`` as a tuple of plain Python values; iterating it would make an ``np.str_`` each."""
    array = data[name]
    if array.ndim != 1:
        raise ValueError(f"{name} is not a 1-d array")
    return tuple(array.tolist())


def load_model(path: str | Path) -> tuple[NbModel, Vocabulary]:
    """Read a model file and its vocabulary; one whose arrays do not fit its labels and features, or whose table its kind cannot score, is a DataError.

    Its features are checked where they are extracted: ``extract_matrix``
    refuses features that repeat or that extraction never gives.
    """
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy array
            raise ValueError("not an .npz model archive")
        with data:
            header = json.loads(str(data["header"]))
            if not isinstance(header, dict):
                raise ValueError("header is not a JSON object")
            if header.get("format_version") != FORMAT_VERSION:
                raise DataError(f"{path}: unsupported model format {header.get('format_version')!r}")
            kind = header["kind"]
            if kind not in KINDS:
                raise DataError(f"{path}: unknown model kind {kind!r}")
            fmodel = FeatureModel(header["feature_family"], tuple(header["feature_orders"]), header["feature_element"])
            vocab = Vocabulary(fmodel, header["profile_size"], _strings(data, "features"))
            model = NbModel(kind, _strings(data, "subject_labels"), header["alpha"], data[_TABLE_NAMES[kind]])
            log_priors = data["log_priors"]
            # the table's ends, for the value check below; a NaN makes both NaN
            low, high = model.table.min(initial=0.0), model.table.max(initial=0.0)
    # not an .npz archive, or a header or array of the wrong type
    except (OSError, EOFError, zipfile.BadZipFile, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot load model from {path}: {exc}") from exc
    if not model.subject_labels:
        raise DataError(f"{path}: no subject labels")
    shape = (model.n_subjects, len(vocab))
    if model.table.shape != shape or not np.array_equal(log_priors, model.log_priors):
        raise DataError(
            f"{path}: {_TABLE_NAMES[kind]} {model.table.shape} and log_priors {log_priors.shape} do not fit "
            f"{shape[0]} subject labels with uniform priors and {shape[1]} features"
        )
    # the values that neither estimator gives
    if not (-np.inf < low and high < np.inf and (kind == "mnb" or low >= 0)):
        rule = "finite" if kind == "mnb" else "finite and not negative"
        raise DataError(f"{path}: {_TABLE_NAMES[kind]} must be {rule}")
    return model, vocab
