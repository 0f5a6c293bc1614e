"""Acceptance gate: one test per shipping criterion.

`pytest -v tests/test_acceptance.py` prints exactly one PASSED/FAILED line
per criterion.  Each test states its tolerances inline; the checks lean on
the independent reference implementations in oracles.py, never on the code
under test.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from stylosig import classifiers, metrics
from stylosig.bench import run_scaling, synthetic_corpus, time_attribution
from stylosig.config import ExperimentConfig, build_config
from stylosig.corpus import build_chimeric, load_text_corpus
from stylosig.experiment import build_feature_model, fit_stylome, possibility_rows, run_rolling
from stylosig.features import extract_matrix
from stylosig.fusion import decide, fuse
from stylosig.possibility import to_possibility
from stylosig.signature import ScoreMatrix, load_svc, score_matrix_from_templates

from .conftest import write_svc_dir, write_text_corpus
from .oracles import (
    as_scipy,
    cmc_reference,
    confusion_reference,
    far_frr_reference,
    flat_claims_reference,
    fscore_reference,
    mnb_posterior_reference,
    msh_reference,
    possibility_naive,
    trapezoid_reference,
)


# -- criterion 1: possibility transform --------------------------------------

def test_criterion_01_possibility_matches_oracle_within_1e12_and_under_1s():
    rng = np.random.default_rng(101)
    vectors = [np.full(5, 0.2), np.array([1.0, 0.0, 0.0]), np.array([0.25, 0.25, 0.25, 0.25])]
    while len(vectors) < 1000:
        p = rng.random(int(rng.integers(1, 51)))
        vectors.append(p / p.sum())

    started = time.perf_counter()
    results = [to_possibility(p) for p in vectors]
    elapsed = time.perf_counter() - started

    worst = 0.0
    for p, pi in zip(vectors, results):
        worst = max(worst, float(np.max(np.abs(pi - possibility_naive(p)))))
        assert pi[np.argmax(p)] == 1.0  # exactly, not approximately
        order = np.argsort(p)
        assert np.all(np.diff(pi[order]) >= 0.0)  # order preservation
        assert pi.min() >= 0.0 and pi.max() <= 1.0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"PASS possibility transform: 1000 vectors, max dev {worst:.3e} <= 1e-12, {elapsed:.3f}s < 1s")


# -- criterion 2: classifier vs literal model --------------------------------

def _count_grids(n_features, values):
    return list(itertools.product(values, repeat=n_features))


def _split_two_docs(pooled):
    first = [c // 2 for c in pooled]
    second = [c - f for c, f in zip(pooled, first)]
    return first, second


def test_criterion_02_mnb_matches_literal_posterior_within_1e9():
    checked = 0
    worst = 0.0
    cases = [
        (2, 2, (0, 1, 2), (0, 1, 2)),
        (3, 2, (0, 1, 2), (0, 1, 2)),
        (2, 3, (0, 2), (0, 1, 2)),
        (3, 3, (0, 2), (0, 1, 2)),
    ]
    for n_subjects, n_features, train_values, doc_values in cases:
        labels = tuple(f"s{i}" for i in range(n_subjects))
        subject_grids = _count_grids(n_features, train_values)
        docs = [d for d in _count_grids(n_features, doc_values) if sum(d)]
        doc_counts = sparse.csr_array(np.array(docs, dtype=np.int64))
        for rows in itertools.product(subject_grids, repeat=n_subjects):
            train_rows = []
            subjects = []
            for s, pooled in enumerate(rows):
                for part in _split_two_docs(pooled):
                    train_rows.append(part)
                    subjects.append(s)
            train = sparse.csr_array(np.array(train_rows, dtype=np.int64))
            for alpha in (0.01, 1.0):
                model = classifiers.mnb_train(train, subjects, alpha, labels)
                # every document of the grid is scored in one batched call
                posteriors = classifiers.posterior(model, doc_counts)[0]
                for doc, ours in zip(docs, posteriors):
                    ref = mnb_posterior_reference([list(r) for r in rows], alpha, list(doc))
                    worst = max(worst, float(np.max(np.abs(ours - ref))))
                    # argmax must agree except inside an exact tie band,
                    # where either pick is a correct answer
                    ours_best = int(np.argmax(ours))
                    ref_best = int(np.argmax(ref))
                    assert ours_best == ref_best or abs(ref[ours_best] - ref[ref_best]) <= 1e-9
                    checked += 1
    assert worst <= 1e-9
    print(f"PASS classifier vs literal model: {checked} posteriors, max dev {worst:.3e} <= 1e-9")


# -- criterion 3: posterior normalization ------------------------------------

def test_criterion_03_posteriors_sum_to_one_within_1e9():
    rng = np.random.default_rng(33)
    worst = 0.0
    for alpha in (0.01, 1.0):
        for _ in range(200):
            n_subjects = int(rng.integers(2, 7))
            n_features = int(rng.integers(2, 9))
            labels = tuple(f"s{i}" for i in range(n_subjects))
            # one draw per row, in the order of the original per-vector cases
            train = sparse.csr_array(np.array([rng.integers(0, 21, n_features) for _ in range(n_subjects)]))
            subjects = list(range(n_subjects))
            doc = sparse.csr_array(rng.integers(0, 13, n_features)[None, :])
            if doc.sum() == 0:
                continue
            mnb = classifiers.mnb_train(train, subjects, alpha, labels)
            pnb = classifiers.pnb_train(train, subjects, alpha, labels)
            for posterior in (classifiers.posterior(mnb, doc)[0], classifiers.posterior(pnb, doc)[0]):
                worst = max(worst, abs(float(posterior.sum()) - 1.0))
    assert worst <= 1e-9
    print(f"PASS posterior normalization: alpha in {{0.01, 1}}, max |sum-1| {worst:.3e} <= 1e-9")


# -- shared synthetic reference data -----------------------------------------

@pytest.fixture(scope="module")
def reference_scale_data(tmp_path_factory):
    """40 text authors with 20 docs each, 40 writers with 20 genuine samples."""
    root = tmp_path_factory.mktemp("reference")
    subjects = {
        f"author{a:02d}": [
            " ".join(f"a{a:02d}w{(d + i) % 8}" for i in range(30)) for d in range(20)
        ]
        for a in range(40)
    }
    text_dir = write_text_corpus(root / "texts", subjects)
    sig_dir = write_svc_dir(root / "sigs", n_writers=40, n_samples=20)
    return text_dir, sig_dir


# -- criterion 4: chimeric dataset counts ------------------------------------

def test_criterion_04_chimeric_counts_exact(reference_scale_data):
    text_dir, sig_dir = reference_scale_data
    dataset = build_chimeric(load_text_corpus(text_dir), load_svc(sig_dir), train_n=5, test_n=15)
    assert dataset.n_subjects == 40
    assert dataset.n_test_items == 600
    assert dataset.n_claims == 24000
    assert dataset.n_genuine == 600
    assert dataset.n_imposter == 23400
    print("PASS chimeric counts: 40 subjects, 600 items, 24000 claims = 600 genuine + 23400 imposter")


# -- criterion 5: fusion under dominance --------------------------------------

def test_criterion_05_fusion_dominance_gives_perfect_identification():
    rng = np.random.default_rng(55)
    n_items, n_subjects = 60, 8
    truth = rng.integers(0, n_subjects, size=n_items)
    route_a = rng.uniform(0.0, 0.6, size=(n_items, n_subjects))
    route_b = rng.uniform(0.0, 0.6, size=(n_items, n_subjects))
    rows = np.arange(n_items)
    route_a[rows, truth] = rng.uniform(0.8, 1.0, size=n_items)
    route_b[rows, truth] = rng.uniform(0.8, 1.0, size=n_items)

    fused = fuse(route_a, route_b, "average")
    decisions = decide(fused).subject
    assert np.array_equal(decisions, truth)
    report = metrics.accuracy(correct=decisions == truth, confidence=ExperimentConfig().confidence)
    assert report.accuracy == 1.0

    matrix = ScoreMatrix(tuple(f"i{k}" for k in range(n_items)), tuple(f"s{k}" for k in range(n_subjects)), fused)
    cmc = metrics.cmc_curve(matrix, truth)
    assert cmc.ys[0] == 1.0
    print("PASS fusion dominance: accuracy 1.0 and CMC(1) = 1.0 when the true subject leads both routes")


# -- criterion 6: metric recounts on a 10x10 instance -------------------------

def test_criterion_06_metrics_match_brute_force_recount():
    rng = np.random.default_rng(66)
    scores = rng.random((10, 10))
    truth = rng.integers(0, 10, size=10)
    matrix = ScoreMatrix(tuple(f"i{k}" for k in range(10)), tuple(f"s{k}" for k in range(10)), scores)
    claims = metrics.expand_claims(matrix, truth)
    assert len(claims) == 100
    flat_scores, flat_genuine = flat_claims_reference(scores, truth)

    grid = metrics.default_grid(101)
    det = metrics.det_curve(claims, grid)
    rec = metrics.recall_curve(claims, grid)
    fc = metrics.fscore_curve(claims, grid)
    for k, t in enumerate(grid):
        tp, fp, fn, tn = confusion_reference(flat_scores, flat_genuine, t)
        recount = (rec.ys[k] * claims.n_genuine, det.far[k] * claims.n_imposter, det.frr[k] * claims.n_genuine)
        assert tuple(round(c) for c in recount) == (tp, fp, fn) and fp + tn == claims.n_imposter
        assert fc.ys[k] == fscore_reference(flat_scores, flat_genuine, t)
        far, frr = far_frr_reference(flat_scores, flat_genuine, t)
        assert det.far[k] == far and det.frr[k] == frr
        assert rec.ys[k] == tp / claims.n_genuine

    # endpoints: threshold 0 accepts everything
    assert det.far[0] == 1.0 and det.frr[0] == 0.0 and rec.ys[0] == 1.0
    assert abs(det.area - abs(trapezoid_reference(det.frr, det.far))) <= 1e-12

    cmc = metrics.cmc_curve(matrix, truth)
    assert np.array_equal(cmc.ys, cmc_reference(scores.tolist(), truth.tolist()))
    assert cmc.ys[-1] == 1.0

    hist = metrics.msh(claims, bins=20)
    gen, imp, overlap = msh_reference(flat_scores, flat_genuine, 20)
    assert np.array_equal(hist.genuine, gen)
    assert np.array_equal(hist.imposter, imp)
    assert abs(hist.overlap - overlap) <= 1e-12
    print("PASS metric recounts: 10x10 instance, 101 thresholds, loop recounts agree exactly")


# -- criterion 7: separable end-to-end ----------------------------------------

def test_criterion_07_separable_corpus_end_to_end(tmp_path):
    subjects = {}
    for s in range(5):
        private = [f"s{s}word{j}" for j in range(6)]
        subjects[f"writer{s}"] = [
            " ".join(private[(d + i) % 6] for i in range(40)) for d in range(10)
        ]
    corpus_dir = write_text_corpus(tmp_path / "texts", subjects)
    config = build_config(
        {
            "corpus_dir": str(corpus_dir),
            "protocol": "rolling",
            "train_window": "5",
            "test_window": "5",
            "feature_family": "ngram",
            "ngram_orders": "1,2",
            "profile_size": "100",
            "alpha": "0.01",
            "output_dir": str(tmp_path / "out"),
        }
    )
    result = run_rolling(config)
    summary = result["summaries"]["mnb"]
    assert summary["accuracy"]["value"] == 1.0
    assert all(a == 1.0 for a in summary["fold_accuracy"]["per_fold"])
    assert summary["best_fscore"]["value"] == 1.0
    assert summary["msh_overlap"] == 0.0
    print(
        "PASS separable end-to-end: 5 disjoint-vocabulary subjects, accuracy 1.0, "
        "best F 1.0, MSH overlap 0.0"
    )


# -- criterion 8: linear scaling ----------------------------------------------

def test_criterion_08_pipeline_scales_linearly():
    # calibrate the base size so the smallest measured point costs >= 1s
    config = ExperimentConfig(profile_size=500)
    size = 8
    while time_attribution(synthetic_corpus(10, size), config) < 1.0:
        size *= 2
        assert size <= 2**15, "calibration ran away"
    report = run_scaling([size, 2 * size, 4 * size], config, repeats=5)
    assert all(r <= 2.5 for r in report.ratios), report
    assert 0.8 <= report.loglog_slope <= 1.3, report
    print(
        f"PASS linear scaling: base {size} docs/subject at "
        f"{report.mean_seconds[0]:.2f}s >= 1s, doubling ratios "
        f"{[round(r, 3) for r in report.ratios]} all <= 2.5, "
        f"log-log slope {report.loglog_slope:.3f} in [0.8, 1.3]"
    )


# -- criterion 9: signature matcher sanity -------------------------------------

def test_criterion_09_signature_selfmatch_and_invariance(reference_scale_data):
    _, sig_dir = reference_scale_data
    corpus = load_svc(sig_dir)
    samples = [s for w in corpus.writers for s in corpus.by_writer[w]]
    assert len(samples) == 800
    delta_alpha = ExperimentConfig().delta_alpha

    def own_template_scores(probes, templates):
        # probe k against the template set [templates[k]]: the diagonal of one batched matrix
        labels = [t.item_id for t in templates]
        matrix = score_matrix_from_templates(probes, [[t] for t in templates], labels, delta_alpha)
        return np.diag(matrix.scores)

    self_scores = own_template_scores([(s.item_id, s) for s in samples], samples)
    assert self_scores.size == 800
    worst = float(np.max(np.abs(self_scores - 1.0)))
    assert worst <= 1e-9

    probes = []
    for sample in samples[:100]:
        moved = sample.points.copy()
        moved[:, 0] += 7919
        moved[:, 1] -= 104729
        moved[:, 2] += 1_000_000
        probes.append((sample.item_id, type(sample)(sample.writer, sample.index, moved)))
    shift_scores = own_template_scores(probes, samples[:100])
    assert shift_scores.size == 100
    worst_shift = float(np.max(np.abs(shift_scores - 1.0)))
    assert worst_shift <= 1e-9
    print(
        f"PASS signature matcher: 800 self-matches within {worst:.1e} of 1, "
        f"100 translated/time-shifted probes within {worst_shift:.1e} of 1 (tol 1e-9)"
    )


# -- criterion 10: public-corpus attribution (conditional) ---------------------

def _find_ccat50() -> Path | None:
    candidates = []
    if os.environ.get("CCAT50_DIR"):
        candidates.append(Path(os.environ["CCAT50_DIR"]))
    candidates += [
        Path("/root/data/CCAT50"),
        Path("/root/data/ccat50"),
        Path("/root/pkg/data/CCAT50"),
        Path("/root/pkg/data/ccat50"),
    ]
    for base in candidates:
        if (base / "C50train").is_dir() and (base / "C50test").is_dir():
            return base
    return None


def test_criterion_10_ccat50_accuracy_if_available():
    base = _find_ccat50()
    if base is None:
        pytest.skip("CCAT50 corpus not present (set CCAT50_DIR to run this check)")
    train_corpus = load_text_corpus(base / "C50train")
    test_corpus = load_text_corpus(base / "C50test")
    assert train_corpus.subject_labels == test_corpus.subject_labels
    config = build_config(
        {
            "corpus_dir": str(base / "C50train"),
            "feature_family": "ngram",
            "ngram_orders": "1,2",
            "profile_size": "10000",
            "alpha": "0.01",
        }
    )
    docs = train_corpus.documents + test_corpus.documents
    features = extract_matrix(build_feature_model(config), docs, len(train_corpus.documents))
    train = np.arange(len(train_corpus.documents))
    subjects = [doc.subject for doc in train_corpus.documents]
    model, columns, _ = fit_stylome(config, features, train, subjects, train_corpus.subject_labels)
    rows, _ = possibility_rows(model, as_scipy(features.counts)[len(train) :][:, columns])
    truth = np.array([doc.subject for doc in test_corpus.documents])
    accuracy = float((rows.argmax(axis=1) == truth).mean())
    assert accuracy >= 10 * (1.0 / len(train_corpus.subjects))
    print(f"PASS public-corpus attribution: accuracy {accuracy:.4f} >= 0.2")
