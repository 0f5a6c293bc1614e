"""Experiment drivers: fit stylome models, run protocols, write result bundles.

A "bundle" is one directory per scored system (stylome, signature, fused,
and optional external routes) holding deterministic CSV curves plus a
summary.json.  Timings go to run.json only, so every CSV byte is
reproducible across runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, classifiers, metrics
from .config import ExperimentConfig
from .corpus import build_chimeric, keep_largest, load_text_corpus, rolling_folds
from .errors import DataError
from .features import FeatureMatrix, FeatureModel, build_vocabulary, extract_matrix
from .fusion import decide, fuse
from .possibility import to_possibility
from .signature import ScoreMatrix, load_score_matrix, load_svc, score_matrix_from_templates


def build_feature_model(config: ExperimentConfig) -> FeatureModel:
    if config.feature_family == "ngram":
        return FeatureModel("ngram", config.ngram_orders)
    return FeatureModel("sngram", (config.sngram_order,), config.sngram_element)


def fit_stylome(config: ExperimentConfig, features: FeatureMatrix, rows, subjects, subject_labels: Sequence[str]):
    """Rank the vocabulary on the training ``rows`` of ``subjects`` and train the configured classifier.

    Returns the model and the vocabulary's columns in ``features``.
    """
    train = features.counts[np.asarray(rows, dtype=np.int64)]
    vocab, columns = build_vocabulary(features, train.sum(axis=0), config.profile_size)
    fit = classifiers.mnb_train if config.classifier == "mnb" else classifiers.pnb_train
    return fit(train[:, columns], subjects, vocab, config.alpha, tuple(subject_labels)), columns


def possibility_rows(model, counts) -> np.ndarray:
    """Fuzzified posteriors, one row per row of a (documents, m) count matrix over the model's vocabulary."""
    return to_possibility(classifiers.posterior(model, counts))


@contextmanager
def _timed(seconds: dict[str, float], stage: str):
    """Record the wall seconds of one stage of a run, for run.json."""
    started = time.perf_counter()
    yield
    seconds[stage] = time.perf_counter() - started


def score_folds(config: ExperimentConfig, docs, n_indexed: int, folds, subjects: np.ndarray, labels, stages: dict):
    """Extract ``docs`` once, then train on and fuzzify each fold's (train rows, test rows).

    Returns each fold's possibility rows and the feature statistics, and
    adds the extract and folds seconds to ``stages``.
    """
    with _timed(stages, "extract"):
        features = extract_matrix(build_feature_model(config), docs, n_indexed)
    scores = []
    test_mass = in_vocab = 0
    with _timed(stages, "folds"):
        for train, test in folds:
            model, columns = fit_stylome(config, features, train, subjects[train], labels)
            test_counts = features.counts[test][:, columns]
            scores.append(possibility_rows(model, test_counts))
            test_mass += int(features.mass[test].sum())
            in_vocab += int(test_counts.sum())
    oov_rate = 1.0 - in_vocab / test_mass if test_mass else 0.0
    return scores, {"indexed": len(features.features), "test_oov_rate": oov_rate}


def write_bundle(
    out_dir: Path,
    name: str,
    matrix: ScoreMatrix,
    truth: Sequence[int],
    config: ExperimentConfig,
    n_folds: int | None = None,
) -> tuple[dict, np.ndarray]:
    """Decide each item once, score the system and write its curves.

    Returns the summary dict and each item's correctness.  With
    ``n_folds``, the items are that many equal folds in order, and the
    summary also gets each fold's accuracy.
    """
    out = Path(out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    truth = np.asarray(truth, dtype=np.int64)
    grid = metrics.default_grid(config.grid_points)

    decided, ties = decide(matrix.scores)
    correct = decided == truth
    acc = metrics.accuracy(correct=correct, confidence=config.confidence)

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
        "accuracy": {
            "value": acc.accuracy,
            "ci_low": acc.ci_low,
            "ci_high": acc.ci_high,
            "method": acc.method,
            "n": acc.n,
            "confidence": acc.confidence,
        },
        "best_fscore": {"threshold": float(grid[best_at]), "value": float(fcurve.ys[best_at])},
        "det_area": det.area,
        "cmc_rank1": float(cmc.ys[0]),
        "msh_overlap": hist.overlap,
    }
    if n_folds is not None:
        fold_accuracies = correct.reshape(n_folds, -1).mean(axis=1)
        fold_acc = metrics.accuracy(folds=fold_accuracies, confidence=config.confidence)
        summary["fold_accuracy"] = {
            "per_fold": [float(a) for a in fold_accuracies],
            "mean": fold_acc.accuracy,
            "ci_low": fold_acc.ci_low,
            "ci_high": fold_acc.ci_high,
            "method": fold_acc.method,
            "n": fold_acc.n,
        }
    metrics.write_summary_json(summary, out / "summary.json")
    return summary, correct


def _ttest_on_correctness(correct: dict[str, np.ndarray], pairs) -> dict:
    out = {}
    for name_a, name_b in pairs:
        result = metrics.paired_ttest(correct[name_a].astype(np.float64), correct[name_b].astype(np.float64))
        out[f"{name_a}_vs_{name_b}"] = {
            "statistic": result.statistic,
            "pvalue": result.pvalue,
            "df": result.df,
            "degenerate": result.degenerate,
        }
    return out


# ---------------------------------------------------------------------------
# chimeric protocol

def _load_external(path: Path, kind: str, n_items: int, labels, expect=None) -> ScoreMatrix:
    """Load a score matrix for the chimeric plan, whose rows are fused by position.

    ``expect`` is the (item ids, subject labels) the file must carry, if any.
    """
    matrix = load_score_matrix(path)
    if matrix.scores.shape != (n_items, len(labels)):
        raise DataError(
            f"{path}: expected {n_items}x{len(labels)} scores, got "
            f"{matrix.scores.shape[0]}x{matrix.scores.shape[1]}"
        )
    if expect is not None:
        for what, got, want in zip(("item id", "subject label"), (matrix.item_ids, matrix.subject_labels), expect):
            for k, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    raise DataError(f"{path}: {what} {k + 1} is {g!r}, expected {w!r}")
    scores = matrix.scores
    if kind == "probability":
        try:
            scores = to_possibility(scores)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
    return ScoreMatrix(matrix.item_ids, tuple(labels), scores)


def _load_chimeric(config: ExperimentConfig):
    if config.signature_dir is None:
        raise DataError("chimeric run needs signature_dir (raw capture files)")
    text = load_text_corpus(config.corpus_dir)
    return build_chimeric(text, load_svc(config.signature_dir), config.train_docs, config.test_docs)


def _chimeric_counts(dataset) -> dict:
    return {
        "subjects": dataset.n_subjects,
        "test_items": dataset.n_test_items,
        "claims": dataset.n_claims,
        "genuine": dataset.n_genuine,
        "imposter": dataset.n_imposter,
    }


def run_chimeric(config: ExperimentConfig) -> dict:
    """Full bimodal run: stylome route, signature route, and their fusion."""
    started = time.perf_counter()
    stages: dict[str, float] = {}
    with _timed(stages, "load"):
        dataset = _load_chimeric(config)
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
    (scores,), feature_stats = score_folds(config, docs, n_train, [fold], subjects, labels, stages)
    stylome = ScoreMatrix(item_ids, labels, scores)

    # signature route
    with _timed(stages, "signature"):
        probes = list(zip(item_ids, [sig for subj in dataset.subjects for sig in subj.test_sigs]))
        if config.signature_matrix is not None:
            # sigscore's ids and labels for the paired writers, in plan order
            expect = ([sample.item_id for _, sample in probes], [f"w{subj.writer}" for subj in dataset.subjects])
            signature = _load_external(config.signature_matrix, "fuzzy", len(item_ids), labels, expect)
        else:
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
        external = _load_external(config.external_matrix, config.external_kind, len(item_ids), labels)
        matrices["external"] = external
        matrices["external+signature"] = ScoreMatrix(
            item_ids, labels, fuse(external.scores, signature.scores, config.fusion_operator)
        )
        ttest_pairs.append(("external+signature", "external"))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries, correct = {}, {}
    with _timed(stages, "write"):
        for name, m in matrices.items():
            summaries[name], correct[name] = write_bundle(out_dir, name, m, truth, config)

    run_info = {
        "config": config.to_json(),
        "version": __version__,
        "protocol": "chimeric",
        "systems": sorted(matrices),
        "counts": _chimeric_counts(dataset),
        "features": feature_stats,
        "ttests": _ttest_on_correctness(correct, ttest_pairs),
        "stage_seconds": stages,
        "elapsed_seconds": time.perf_counter() - started,
    }
    metrics.write_summary_json(run_info, out_dir / "run.json")
    return {"run": run_info, "summaries": summaries}


# ---------------------------------------------------------------------------
# rolling-window protocol

def run_rolling(config: ExperimentConfig) -> dict:
    """Per-fold attribution over a uniform corpus; curves pool all folds.

    Every document trains in some fold, so every document indexes features.
    """
    started = time.perf_counter()
    stages: dict[str, float] = {}
    n_docs = config.train_window + config.test_window
    with _timed(stages, "load"):
        corpus = keep_largest(load_text_corpus(config.corpus_dir), n_docs)
        folds = rolling_folds(corpus, config.train_window, config.test_window)
    labels = corpus.subject_labels
    docs = corpus.documents
    subjects = np.array([doc.subject for doc in docs], dtype=np.int64)
    fold_rows, feature_stats = score_folds(config, docs, len(docs), folds, subjects, labels, stages)
    pooled_ids = tuple(f"f{k:02d}/{docs[r].doc_id}" for k, (_, test) in enumerate(folds) for r in test)
    matrix = ScoreMatrix(pooled_ids, labels, np.vstack(fold_rows))
    truth = subjects[np.concatenate([test for _, test in folds])]

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with _timed(stages, "write"):
        summary, _ = write_bundle(out_dir, config.classifier, matrix, truth, config, n_folds=len(folds))

    run_info = {
        "config": config.to_json(),
        "version": __version__,
        "protocol": "rolling",
        "systems": [config.classifier],
        "counts": {
            "subjects": len(labels),
            "folds": len(folds),
            "test_items": len(pooled_ids),
        },
        "features": feature_stats,
        "stage_seconds": stages,
        "elapsed_seconds": time.perf_counter() - started,
    }
    metrics.write_summary_json(run_info, out_dir / "run.json")
    return {"run": run_info, "summaries": {config.classifier: summary}}


# ---------------------------------------------------------------------------
# standalone fitting / scoring used by the CLI

def train_on_corpus(config: ExperimentConfig):
    """Fit the configured classifier on every document of a corpus; also returns each vocabulary feature's count."""
    corpus = load_text_corpus(config.corpus_dir)
    features = extract_matrix(build_feature_model(config), corpus.documents)
    subjects = [doc.subject for doc in corpus.documents]
    model, columns = fit_stylome(config, features, np.arange(len(corpus)), subjects, corpus.subject_labels)
    return model, features.counts.sum(axis=0)[columns]


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
    dataset = _load_chimeric(config)
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
