"""Experiment drivers: fit stylome models, run protocols, write result bundles.

A "bundle" is one directory per scored system (stylome, signature, fused,
and optional external routes) holding deterministic CSV curves plus a
summary.json.  Timings go to run.json only, so every CSV byte is
reproducible across runs.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, classifiers, metrics
from .config import ExperimentConfig
from .corpus import build_chimeric, keep_largest, load_text_corpus, rolling_folds
from .errors import DataError, DegenerateInputWarning
from .features import FeatureMatrix, FeatureModel, Vocabulary, build_vocabulary, extract_matrix, take_columns
from .fusion import decide, fuse
from .possibility import to_possibility
from .signature import ScoreMatrix, load_score_matrix, load_svc, score_matrix_from_templates


def build_feature_model(config: ExperimentConfig) -> FeatureModel:
    if config.feature_family == "ngram":
        return FeatureModel("ngram", config.ngram_orders)
    return FeatureModel("sngram", (config.sngram_order,), config.sngram_element)


def fit_stylome(config: ExperimentConfig, features: FeatureMatrix, rows, subjects, subject_labels: Sequence[str]):
    """Rank the vocabulary on the training ``rows`` of ``subjects`` and train the configured classifier.

    Returns the model, the vocabulary's columns in ``features`` and each column's training count.
    """
    train = features.counts.take_rows(rows)
    totals = train.column_sums()
    columns = build_vocabulary(features, totals, config.profile_size)
    fit = getattr(classifiers, f"{config.classifier}_train")  # the estimator of a kind in classifiers.KINDS
    return fit(take_columns(train, columns), subjects, config.alpha, tuple(subject_labels)), columns, totals[columns]


def possibility_rows(model, counts) -> tuple[np.ndarray, np.ndarray]:
    """Fuzzified posteriors, one row per row of a (documents, m) count matrix over the model's vocabulary.

    The one scoring step of every command.  Also returns the mask of rows that
    fell back on the uniform posterior, for the caller's one ``classifiers.warn_fallback``.
    """
    posteriors, fallback = classifiers.posterior(model, counts)
    return to_possibility(posteriors), fallback


@contextmanager
def _timed(seconds: dict[str, float], stage: str):
    """Record the wall seconds of one stage of a run, for run.json."""
    started = time.perf_counter()
    yield
    seconds[stage] = time.perf_counter() - started


def _write_run_json(out_dir: Path, config: ExperimentConfig, stages: dict, started: float, **facts) -> dict:
    """Write run.json: the resolved config, the versions, the protocol's ``facts`` and the seconds per stage and in all.

    Scores are bit-exact only under the numpy whose summation order
    ``signature`` follows and the scipy whose product kernel scores, so both
    versions are recorded next to the program's.
    """
    import scipy  # loaded already, with its product and statistics kernels

    versions = {"version": __version__, "numpy_version": np.__version__, "scipy_version": scipy.__version__}
    run_info = {"config": config.to_json(), **versions, **facts, "stage_seconds": stages}
    run_info["elapsed_seconds"] = time.perf_counter() - started
    metrics.write_summary_json(run_info, out_dir / "run.json")
    return run_info


def score_folds(config: ExperimentConfig, docs, folds, subjects: np.ndarray, labels, stages: dict):
    """Extract ``docs`` once, then train on and fuzzify each fold's (train rows, test rows).

    Callers put the training documents first: the documents up to the last
    training row of any fold index the features.  Returns each fold's
    possibility rows, the feature statistics and one record per fold for
    run.json, and adds the extract and folds seconds to ``stages``.  Uniform
    posterior fallbacks get one warning with their total row count.  A
    record's ``tied_rows`` comes later, from the decisions (``_record_ties``).
    """
    with _timed(stages, "extract"):
        n_indexed = 1 + max(train.max() for train, _ in folds)
        features = extract_matrix(build_feature_model(config), docs, n_indexed)
    scores, records, in_vocab = [], [], 0
    with _timed(stages, "folds"):
        for train, test in folds:
            started = time.perf_counter()
            model, columns, _ = fit_stylome(config, features, train, subjects[train], labels)
            test_counts = take_columns(features.counts.take_rows(test), columns)
            rows, fallback = possibility_rows(model, test_counts)
            scores.append(rows)
            test_mass = features.mass[test]
            mass = int(test_mass.sum())
            fold_in_vocab = int(test_counts.data.sum())
            in_vocab += fold_in_vocab
            records.append({
                "seconds": time.perf_counter() - started,
                "vocabulary": len(columns),
                "test_mass": mass,
                "test_oov_rate": _oov_rate(fold_in_vocab, mass),
                "uniform_fallback_rows": int(fallback.sum()),
                "empty_test_rows": int(np.count_nonzero(test_mass == 0)),
            })
    fallbacks = sum(record["uniform_fallback_rows"] for record in records)
    classifiers.warn_fallback(model, fallbacks)
    oov_rate = _oov_rate(in_vocab, sum(record["test_mass"] for record in records))
    stats = {
        "indexed": features.counts.shape[1],
        "entries": features.counts.nnz,
        "index_bits": 8 * features.counts.indices.itemsize,
        "tokens": features.tokens,
        "test_oov_rate": oov_rate,
    }
    return scores, {**stats, "uniform_fallback_rows": fallbacks}, records


def _oov_rate(in_vocab: int, mass: int) -> float:
    """The share of the extracted test mass outside the vocabulary; 0 without test mass."""
    return 1.0 - in_vocab / mass if mass else 0.0


def _record_ties(records: list[dict], ties: np.ndarray) -> None:
    """Add each fold's tied decisions to its run.json record; the items are the folds' test rows in fold order."""
    for record, tied in zip(records, np.split(ties, len(records))):
        record["tied_rows"] = int(tied.sum())


def write_bundle(
    out_dir: Path,
    name: str,
    matrix: ScoreMatrix,
    truth: Sequence[int],
    config: ExperimentConfig,
    n_folds: int | None = None,
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Decide each item once, score the system and write its curves.

    Returns the summary dict, each item's correctness and its tie flag.  With
    ``n_folds``, the items are that many equal folds in order, and the
    summary also gets each fold's accuracy.
    """
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    truth = np.asarray(truth, dtype=np.int64)
    grid = metrics.default_grid(config.grid_points)

    decided, ties = decide(matrix.scores)
    correct = decided == truth
    acc = asdict(metrics.accuracy(correct=correct, confidence=config.confidence))
    acc["value"] = acc.pop("accuracy")

    claims = metrics.expand_claims(matrix, truth)
    fcurve = metrics.fscore_curve(claims, grid)
    rcurve = metrics.recall_curve(claims, grid)
    det = metrics.det_curve(claims, grid)
    cmc = metrics.cmc_curve(matrix, truth)
    hist = metrics.msh(claims, config.msh_bins)
    best_at = int(np.argmax(fcurve.ys))

    metrics.write_curve_csv(fcurve, out / "fscore.csv")
    metrics.write_curve_csv(rcurve, out / "recall.csv")
    metrics.write_det_csv(det, out / "det.csv")
    metrics.write_curve_csv(cmc, out / "cmc.csv")
    metrics.write_msh_csv(hist, out / "msh.csv")

    summary = {
        "system": name,
        "n_items": len(matrix.item_ids),
        "n_subjects": len(matrix.subject_labels),
        "n_claims": len(claims),
        "n_genuine": claims.n_genuine,
        "n_imposter": claims.n_imposter,
        "n_tied_decisions": int(ties.sum()),
        "accuracy": acc,
        "best_fscore": {"threshold": float(grid[best_at]), "value": float(fcurve.ys[best_at])},
        "det_area": det.area,
        "cmc_rank1": float(cmc.ys[0]),
        "msh_overlap": hist.overlap,
    }
    if n_folds is not None:
        fold_accuracies = correct.reshape(n_folds, -1).mean(axis=1)
        fold_acc = asdict(metrics.accuracy(folds=fold_accuracies, confidence=config.confidence))
        fold_acc["mean"] = fold_acc.pop("accuracy")
        del fold_acc["confidence"]
        summary["fold_accuracy"] = {"per_fold": [float(a) for a in fold_accuracies], **fold_acc}
    metrics.write_summary_json(summary, out / "summary.json")
    return summary, correct, ties


def _ttest_on_correctness(correct: dict[str, np.ndarray], pairs) -> dict:
    return {f"{a}_vs_{b}": asdict(metrics.paired_ttest(correct[a], correct[b])) for a, b in pairs}


# ---------------------------------------------------------------------------
# chimeric protocol

def _load_external(path: Path, kind: str, item_ids, labels) -> ScoreMatrix:
    """Load a foreign system's score matrix for the chimeric plan, whose rows must carry ``item_ids`` in plan order.

    Its columns are the plan's ``labels`` by position, as a foreign system names its own.
    """
    matrix = load_score_matrix(path)
    if matrix.scores.shape != (len(item_ids), len(labels)):
        raise DataError(
            f"{path}: expected {len(item_ids)}x{len(labels)} scores, got "
            f"{matrix.scores.shape[0]}x{matrix.scores.shape[1]}"
        )
    for k, (got, want) in enumerate(zip(matrix.item_ids, item_ids)):
        if got != want:
            raise DataError(f"{path}: item id {k + 1} is {got!r}, expected {want!r}")
    scores = matrix.scores
    if kind == "probability":
        try:
            scores = to_possibility(scores)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    return ScoreMatrix(tuple(item_ids), tuple(labels), scores)


def _lookup(path: Path, what: str, names: Sequence[str], wanted: Sequence[str]) -> list[int]:
    """The position of each ``wanted`` name in ``names``; a missing or repeated one is a DataError."""
    at = {name: k for k, name in enumerate(names)}
    if len(at) != len(names):
        raise DataError(f"{path}: duplicate {what}s")
    missing = [name for name in wanted if name not in at]
    if missing:
        raise DataError(f"{path}: no {what} {missing[0]!r} ({len(missing)} missing)")
    return [at[name] for name in wanted]


def _load_signature_matrix(path: Path, item_ids, labels, subjects) -> ScoreMatrix:
    """sigscore's scores for the chimeric plan: the paired writers' rows by sample id, their columns by ``w<writer>``.

    The file's other rows and columns, those of unpaired writers, are ignored.
    """
    matrix = load_score_matrix(path)
    rows = _lookup(path, "item id", matrix.item_ids, [sig.item_id for subj in subjects for sig in subj.test_sigs])
    columns = _lookup(path, "subject label", matrix.subject_labels, [f"w{subj.writer}" for subj in subjects])
    return ScoreMatrix(tuple(item_ids), tuple(labels), matrix.scores[np.ix_(rows, columns)])


def _load_chimeric(config: ExperimentConfig):
    if config.signature_dir is None:
        raise DataError("chimeric run needs signature_dir (raw capture files)")
    text = load_text_corpus(config.corpus_dir)
    signatures = load_svc(config.signature_dir)
    return build_chimeric(text, signatures, config.train_docs, config.test_docs), signatures


def _chimeric_counts(dataset) -> dict:
    return {
        "subjects": dataset.n_subjects,
        "test_items": dataset.n_test_items,
        "claims": dataset.n_claims,
        "genuine": dataset.n_genuine,
        "imposter": dataset.n_imposter,
    }


def _signature_counts(signatures, matrix: ScoreMatrix) -> dict:
    samples = [sample for samples in signatures.by_writer.values() for sample in samples]
    return {
        "samples": len(samples),
        "points": sum(len(sample.points) for sample in samples),
        "checked_parse_files": signatures.checked_parse_files,
        "still_probes": matrix.still_probes,
        "still_subjects": matrix.still_subjects,
    }


def run_chimeric(config: ExperimentConfig) -> dict:
    """Full bimodal run: stylome route, signature route, and their fusion."""
    metrics.load_special()  # before the clock starts, so that no stage times a library import
    started = time.perf_counter()
    stages: dict[str, float] = {}
    with _timed(stages, "load"):
        dataset, signatures = _load_chimeric(config)
    if dataset.n_subjects < 2:  # a claim curve needs imposter claims
        raise DataError(f"chimeric eval needs at least 2 author+writer subjects, found {dataset.n_subjects}")
    labels = dataset.subject_labels

    item_ids = tuple(
        f"s{subj.id:02d}i{j:02d}" for subj in dataset.subjects for j in range(config.test_docs)
    )
    truth = np.repeat(np.arange(dataset.n_subjects), config.test_docs)

    # stylome route, one fold; only the training documents index features
    docs = [doc for subj in dataset.subjects for doc in subj.train_docs]
    n_train = len(docs)
    docs += [doc for subj in dataset.subjects for doc in subj.test_docs]
    subjects = np.concatenate([np.repeat(np.arange(dataset.n_subjects), config.train_docs), truth])
    fold = (np.arange(n_train), np.arange(n_train, len(docs)))
    (scores,), feature_stats, fold_records = score_folds(config, docs, [fold], subjects, labels, stages)
    stylome = ScoreMatrix(item_ids, labels, scores)

    # signature route
    with _timed(stages, "signature"):
        if config.signature_matrix is not None:
            signature = _load_signature_matrix(config.signature_matrix, item_ids, labels, dataset.subjects)
        else:
            probes = list(zip(item_ids, [sig for subj in dataset.subjects for sig in subj.test_sigs]))
            signature = score_matrix_from_templates(
                probes, [subj.train_sigs for subj in dataset.subjects], labels, config.delta_alpha
            )

    fused_name = f"{config.classifier}+signature"
    matrices = {
        config.classifier: stylome,
        "signature": signature,
        fused_name: ScoreMatrix(
            item_ids, labels, fuse(stylome.scores, signature.scores, config.fusion_operator)
        ),
    }
    ttest_pairs = [(fused_name, config.classifier), (fused_name, "signature")]
    if config.external_matrix is not None:
        external = _load_external(config.external_matrix, config.external_kind, item_ids, labels)
        matrices["external"] = external
        matrices["external+signature"] = ScoreMatrix(
            item_ids, labels, fuse(external.scores, signature.scores, config.fusion_operator)
        )
        ttest_pairs.append(("external+signature", "external"))

    out_dir = Path(config.output_dir)
    summaries, correct = {}, {}
    with _timed(stages, "write"):
        for name, m in matrices.items():
            summaries[name], correct[name], ties = write_bundle(out_dir, name, m, truth, config)
            if name == config.classifier:
                _record_ties(fold_records, ties)

    run_info = _write_run_json(
        out_dir, config, stages, started, protocol="chimeric", systems=sorted(matrices),
        counts=_chimeric_counts(dataset), features=feature_stats, folds=fold_records,
        signature=_signature_counts(signatures, signature),
        ttests=_ttest_on_correctness(correct, ttest_pairs),
    )
    return {"run": run_info, "summaries": summaries}


# ---------------------------------------------------------------------------
# rolling-window protocol

def run_rolling(config: ExperimentConfig) -> dict:
    """Per-fold attribution over a uniform corpus; curves pool all folds.

    Every document trains in some fold, so every document indexes features.
    Subjects short of train_window + test_window documents are dropped, with a warning.
    """
    metrics.load_special()  # before the clock starts, so that no stage times a library import
    started = time.perf_counter()
    stages: dict[str, float] = {}
    n_docs = config.train_window + config.test_window
    with _timed(stages, "load"):
        loaded = load_text_corpus(config.corpus_dir)
        corpus = keep_largest(loaded, n_docs)
        folds = rolling_folds(corpus, config.train_window, config.test_window)
    labels = corpus.subject_labels
    dropped = [label for label in loaded.subject_labels if label not in labels]
    if dropped:
        message = f"{len(dropped)} subject(s) with fewer than {n_docs} documents dropped: " + ", ".join(dropped)
        warnings.warn(message, DegenerateInputWarning)
    if len(labels) < 2:  # a claim curve needs imposter claims
        raise DataError(f"rolling eval needs at least 2 subjects with {n_docs} documents, found {len(labels)}")
    docs = corpus.documents
    subjects = np.array([doc.subject for doc in docs], dtype=np.int64)
    fold_rows, feature_stats, fold_records = score_folds(config, docs, folds, subjects, labels, stages)
    pooled_ids = tuple(f"f{k:02d}/{docs[r].doc_id}" for k, (_, test) in enumerate(folds) for r in test)
    matrix = ScoreMatrix(pooled_ids, labels, np.vstack(fold_rows))
    truth = subjects[np.concatenate([test for _, test in folds])]

    out_dir = Path(config.output_dir)
    with _timed(stages, "write"):
        summary, _, ties = write_bundle(out_dir, config.classifier, matrix, truth, config, n_folds=len(folds))
    _record_ties(fold_records, ties)

    counts = {"subjects": len(labels), "folds": len(folds), "test_items": len(pooled_ids), "dropped_subjects": dropped}
    run_info = _write_run_json(
        out_dir, config, stages, started, protocol="rolling", systems=[config.classifier], counts=counts,
        features=feature_stats, folds=fold_records,
    )
    return {"run": run_info, "summaries": {config.classifier: summary}}


# ---------------------------------------------------------------------------
# standalone fitting / scoring used by the CLI

def train_on_corpus(config: ExperimentConfig):
    """Fit the configured classifier on every document of a corpus.

    Returns the model, the vocabulary of its columns and each vocabulary feature's count.
    """
    corpus = load_text_corpus(config.corpus_dir)
    features = extract_matrix(build_feature_model(config), corpus.documents)
    subjects = [doc.subject for doc in corpus.documents]
    model, columns, totals = fit_stylome(config, features, np.arange(len(corpus)), subjects, corpus.subject_labels)
    return model, Vocabulary(features.model, config.profile_size, features.decode(columns)), totals


def signature_matrix_from_dir(config: ExperimentConfig) -> ScoreMatrix:
    """Baseline scores of every held-out genuine sample against every writer."""
    sig = load_svc(config.signature_dir)
    need = config.train_docs + config.test_docs
    short = [str(w) for w in sig.writers if len(sig.by_writer[w]) < need]
    if short:
        raise DataError(
            f"writers with fewer than {need} genuine samples: " + ", ".join(short)
        )
    templates = [sig.by_writer[w][: config.train_docs] for w in sig.writers]
    probes = [
        (sample.item_id, sample)
        for w in sig.writers
        for sample in sig.by_writer[w][config.train_docs : need]
    ]
    labels = tuple(f"w{w}" for w in sig.writers)
    return score_matrix_from_templates(probes, templates, labels, config.delta_alpha)


def chimeric_manifest(config: ExperimentConfig) -> dict:
    """The pairing plan as plain data, for inspection or downstream tooling."""
    dataset, _ = _load_chimeric(config)
    return {
        "train_n": dataset.train_n,
        "test_n": dataset.test_n,
        "counts": _chimeric_counts(dataset),
        "subjects": [
            {
                "id": subj.id,
                "author": subj.author_label,
                "writer": subj.writer,
                "train_docs": [d.doc_id for d in subj.train_docs],
                "test_docs": [d.doc_id for d in subj.test_docs],
                "train_sigs": [s.item_id for s in subj.train_sigs],
                "test_sigs": [s.item_id for s in subj.test_sigs],
            }
            for subj in dataset.subjects
        ],
    }
