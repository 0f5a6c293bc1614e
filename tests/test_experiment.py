import json
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import stylosig
from stylosig import experiment
from stylosig.config import ExperimentConfig, build_config
from stylosig.corpus import load_text_corpus
from stylosig.errors import DegenerateInputWarning
from stylosig.features import FeatureModel
from stylosig.fusion import decide
from stylosig.experiment import (
    build_feature_model,
    chimeric_manifest,
    run_chimeric,
    run_rolling,
    signature_matrix_from_dir,
)

from .conftest import write_svc_dir, write_text_corpus
from .oracles import mnb_posterior_reference, pnb_posterior_reference, possibility_naive, rolling_plan_reference


def disjoint_corpus(tmp_path, n_subjects=3, docs=4, words=6, tokens=30):
    """Every subject writes from a private vocabulary, so attribution is easy."""
    subjects = {}
    for s in range(n_subjects):
        vocab = [f"s{s}w{j}" for j in range(words)]
        docs_text = []
        for d in range(docs):
            seq = [vocab[(d + i) % words] for i in range(tokens)]
            docs_text.append(" ".join(seq))
        subjects[f"subj{s}"] = docs_text
    return write_text_corpus(tmp_path / "texts", subjects)


def test_build_feature_model_variants():
    ngram = build_feature_model(build_config({"feature_family": "ngram", "ngram_orders": "1,2"}))
    assert ngram.family == "ngram" and ngram.orders == (1, 2)
    sngram = build_feature_model(
        build_config({"feature_family": "sngram", "sngram_order": "3", "sngram_element": "upos"})
    )
    assert sngram.family == "sngram" and sngram.orders == (3,) and sngram.element == "upos"


def test_run_rolling_separable(tmp_path):
    corpus_dir = disjoint_corpus(tmp_path)
    config = build_config(
        {
            "corpus_dir": str(corpus_dir),
            "protocol": "rolling",
            "train_window": "3",
            "test_window": "1",
            "profile_size": "100",
            "output_dir": str(tmp_path / "out"),
        }
    )
    result = run_rolling(config)
    summary = result["summaries"]["mnb"]
    assert summary["accuracy"]["value"] == 1.0
    assert summary["fold_accuracy"]["per_fold"] == [1.0, 1.0, 1.0, 1.0]
    assert summary["fold_accuracy"]["mean"] == 1.0
    assert summary["cmc_rank1"] == 1.0
    assert result["run"]["counts"]["folds"] == 4
    assert result["run"]["counts"]["test_items"] == 12
    out = tmp_path / "out" / "mnb"
    for name in ("fscore.csv", "recall.csv", "det.csv", "cmc.csv", "msh.csv", "summary.json"):
        assert (out / name).is_file()


def test_run_rolling_csvs_are_reproducible(tmp_path):
    corpus_dir = disjoint_corpus(tmp_path)
    outputs = []
    for run in ("one", "two"):
        config = build_config(
            {
                "corpus_dir": str(corpus_dir),
                "train_window": "3",
                "test_window": "1",
                "output_dir": str(tmp_path / run),
            }
        )
        run_rolling(config)
        outputs.append(
            {
                name: (tmp_path / run / "mnb" / name).read_bytes()
                for name in ("fscore.csv", "recall.csv", "det.csv", "cmc.csv", "msh.csv", "summary.json")
            }
        )
    assert outputs[0] == outputs[1]


def test_rolling_eval_warns_once_about_tied_decisions(tmp_path):
    # both subjects write the same texts, so every decision of every fold ties
    texts = ["one two three", "two three four", "three four five"]
    corpus_dir = write_text_corpus(tmp_path / "texts", {"a": texts, "b": texts})
    config = build_config(
        {"corpus_dir": str(corpus_dir), "train_window": "2", "test_window": "1", "output_dir": str(tmp_path / "out")}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_rolling(config)
    ties = [str(w.message) for w in caught if "tied top score" in str(w.message)]
    assert ties == ["tied top score in 6 row(s), keeping the lowest subject id"]
    assert result["summaries"]["mnb"]["n_tied_decisions"] == 6


def chimeric_setup(tmp_path, n=3):
    corpus_dir = disjoint_corpus(tmp_path, n_subjects=n, docs=4)
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=n, n_samples=4)
    return build_config(
        {
            "corpus_dir": str(corpus_dir),
            "signature_dir": str(sig_dir),
            "protocol": "chimeric",
            "train_docs": "2",
            "test_docs": "2",
            "profile_size": "200",
            "output_dir": str(tmp_path / "out"),
        }
    )


def test_run_chimeric_systems_and_counts(tmp_path):
    config = chimeric_setup(tmp_path)
    result = run_chimeric(config)
    assert sorted(result["summaries"]) == ["mnb", "mnb+signature", "signature"]
    counts = result["run"]["counts"]
    assert counts == {
        "subjects": 3,
        "test_items": 6,
        "claims": 18,
        "genuine": 6,
        "imposter": 12,
    }
    stylome = result["summaries"]["mnb"]
    assert stylome["n_claims"] == 18
    assert stylome["accuracy"]["value"] == 1.0  # disjoint vocabularies are trivial
    ttests = result["run"]["ttests"]
    assert set(ttests) == {"mnb+signature_vs_mnb", "mnb+signature_vs_signature"}
    for name in ("mnb", "signature", "mnb+signature"):
        assert (tmp_path / "out" / name / "summary.json").is_file()


def test_each_system_is_decided_once(tmp_path, monkeypatch):
    calls = []

    def counting_decide(scores):
        calls.append(np.shape(scores))
        return decide(scores)

    monkeypatch.setattr(experiment, "decide", counting_decide)
    result = run_chimeric(chimeric_setup(tmp_path))
    assert len(result["summaries"]) == 3 and calls == [(6, 3)] * 3
    calls.clear()
    run_rolling(
        build_config(
            {
                "corpus_dir": str(disjoint_corpus(tmp_path / "rolling")),
                "train_window": "3",
                "test_window": "1",
                "output_dir": str(tmp_path / "rolling-out"),
            }
        )
    )
    assert calls == [(12, 3)]


def test_run_chimeric_with_external_matrix(tmp_path):
    config = chimeric_setup(tmp_path)
    # simulate another classifier's already-fuzzy scores: perfect oracle
    from stylosig.signature import ScoreMatrix, save_score_matrix

    ids = tuple(f"s{s:02d}i{j:02d}" for s in range(3) for j in range(2))
    scores = np.full((6, 3), 0.1)
    for k, sid in enumerate([0, 0, 1, 1, 2, 2]):
        scores[k, sid] = 1.0
    path = tmp_path / "external.csv"
    save_score_matrix(ScoreMatrix(ids, ("a", "b", "c"), scores), path)
    config.external_matrix = path
    result = run_chimeric(config)
    assert "external" in result["summaries"]
    assert "external+signature" in result["summaries"]
    assert result["summaries"]["external"]["accuracy"]["value"] == 1.0
    assert "external+signature_vs_external" in result["run"]["ttests"]


def test_run_chimeric_external_shape_mismatch(tmp_path):
    config = chimeric_setup(tmp_path)
    from stylosig.errors import DataError
    from stylosig.signature import ScoreMatrix, save_score_matrix

    path = tmp_path / "external.csv"
    save_score_matrix(ScoreMatrix(("x",), ("a",), np.array([[0.5]])), path)
    config.external_matrix = path
    with pytest.raises(DataError, match="expected 6x3"):
        run_chimeric(config)


def test_signature_matrix_from_dir(tmp_path):
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=3, n_samples=5)
    config = build_config(
        {"signature_dir": str(sig_dir), "train_docs": "2", "test_docs": "3"}
    )
    matrix = signature_matrix_from_dir(config)
    assert matrix.scores.shape == (9, 3)
    assert matrix.subject_labels == ("w1", "w2", "w3")
    assert matrix.item_ids[:3] == ("U1S3", "U1S4", "U1S5")


def test_signature_matrix_short_writer_rejected(tmp_path):
    from stylosig.errors import DataError

    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=2, n_samples=3)
    config = build_config({"signature_dir": str(sig_dir), "train_docs": "2", "test_docs": "3"})
    with pytest.raises(DataError, match="fewer than 5"):
        signature_matrix_from_dir(config)


def test_chimeric_manifest_contents(tmp_path):
    config = chimeric_setup(tmp_path)
    manifest = chimeric_manifest(config)
    assert manifest["counts"]["subjects"] == 3
    assert manifest["subjects"][0]["author"] == "subj0"
    assert manifest["subjects"][0]["writer"] == 1
    assert manifest["subjects"][0]["train_docs"] == ["subj0/doc00.txt", "subj0/doc01.txt"]
    assert manifest["subjects"][0]["test_sigs"] == ["U1S3", "U1S4"]
    assert json.dumps(manifest)  # JSON-serializable as written


# -- the matrix path against the per-document reference ------------------------

def degenerate_corpus(tmp_path):
    """3 subjects x 4 short documents; subject s always writes s{s}w0 and mixes in shared words.

    subj0/doc03 shares no word with anything else, so in the fold that tests
    it (fold 0) it is entirely out of vocabulary.  subj2/doc03 uses one
    private word of subj0 and one of subj1, so under Poisson rates without
    smoothing every subject has zero likelihood for it.
    """
    rng = np.random.default_rng(8)
    subjects = {}
    for s in range(3):
        words = [f"s{s}w{j}" for j in range(4)] + ["c0", "c1", "c2"]
        subjects[f"subj{s}"] = [
            " ".join([f"s{s}w0"] + [words[int(j)] for j in rng.integers(0, len(words), 6)]) for _ in range(4)
        ]
    subjects["subj0"][3] = "only here"
    subjects["subj2"][3] = "s0w0 s1w0"
    return write_text_corpus(tmp_path / "texts", subjects)


def reference_rolling_rows(corpus_dir, classifier, alpha, profile_size):
    """Rolling possibility rows computed one document at a time with the literal oracles."""
    corpus = load_text_corpus(corpus_dir)
    fmodel = FeatureModel("ngram", (1, 2))
    n_docs = len(corpus.by_subject[0])
    rows = {}
    for fold, (train_pos, test_pos) in enumerate(rolling_plan_reference(n_docs, 3, 1)):
        train = {s: [fmodel.extract(corpus.by_subject[s][p]) for p in train_pos] for s in corpus.by_subject}
        pooled = Counter()
        for counts in train.values():
            for c in counts:
                pooled.update(c)
        vocab = [f for f, _ in sorted(pooled.items(), key=lambda kv: (-kv[1], kv[0]))[:profile_size]]
        train_counts = [[sum(c[f] for c in train[s]) for f in vocab] for s in sorted(train)]
        for s in sorted(corpus.by_subject):
            for p in test_pos:
                doc = corpus.by_subject[s][p]
                counts = fmodel.extract(doc)
                vector = [counts[f] for f in vocab]
                if classifier == "mnb":
                    post = mnb_posterior_reference(train_counts, alpha, vector)
                else:
                    post = pnb_posterior_reference(train_counts, [len(train_pos)] * len(train), alpha, vector)
                rows[f"f{fold:02d}/{doc.doc_id}"] = possibility_naive(post)
    return rows


@pytest.mark.parametrize(
    "classifier, alpha, warning",
    [("mnb", 0.01, "empty feature vector"), ("pnb", 0.0, "zero likelihood")],
)
def test_rolling_matrix_path_matches_per_document_reference(tmp_path, monkeypatch, classifier, alpha, warning):
    corpus_dir = degenerate_corpus(tmp_path)
    captured = {}
    original = experiment.write_bundle

    def capture(out_dir, name, matrix, truth, config, **kwargs):
        captured["matrix"] = matrix
        return original(out_dir, name, matrix, truth, config, **kwargs)

    monkeypatch.setattr(experiment, "write_bundle", capture)
    config = build_config(
        {
            "corpus_dir": str(corpus_dir),
            "train_window": "3",
            "test_window": "1",
            "profile_size": "20",
            "classifier": classifier,
            "alpha": str(alpha),
            "output_dir": str(tmp_path / "out"),
        }
    )
    with pytest.warns(DegenerateInputWarning, match=warning):
        result = run_rolling(config)
    matrix = captured["matrix"]
    reference = reference_rolling_rows(corpus_dir, classifier, alpha, 20)
    assert sorted(matrix.item_ids) == sorted(reference)
    ref_ties = 0
    ref_correct = {}  # fold -> whether the reference's first best subject is the true one, per item
    for item_id, row in zip(matrix.item_ids, matrix.scores):
        ref = reference[item_id]
        assert np.max(np.abs(row - ref)) <= 1e-9
        assert np.argmax(row) == np.argmax(ref)
        ref_ties += int(np.count_nonzero(ref == ref.max()) > 1)
        fold, subject = item_id.split("/")[:2]
        ref_correct.setdefault(fold, []).append(np.argmax(ref) == int(subject.removeprefix("subj")))
    summary = result["summaries"][classifier]
    assert summary["n_tied_decisions"] == ref_ties
    assert summary["fold_accuracy"]["per_fold"] == [np.mean(ref_correct[f]) for f in sorted(ref_correct)]
    if classifier == "mnb":
        # the out-of-vocabulary row falls back on the uniform posterior
        assert np.all(matrix.scores[matrix.item_ids.index("f00/subj0/doc03.txt")] == 1.0)
        assert ref_ties >= 1


def test_run_json_records_stages_and_feature_stats(tmp_path):
    corpus_dir = degenerate_corpus(tmp_path)
    config = build_config(
        {"corpus_dir": str(corpus_dir), "train_window": "3", "test_window": "1", "output_dir": str(tmp_path / "out")}
    )
    with pytest.warns(DegenerateInputWarning):
        run_rolling(config)
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert set(run["stage_seconds"]) == {"load", "extract", "folds", "write"}
    assert all(t >= 0.0 for t in run["stage_seconds"].values())
    assert run["features"]["indexed"] > 0
    assert 0.0 < run["features"]["test_oov_rate"] < 1.0
    assert run["version"] == stylosig.__version__
    assert run["config"] == json.loads(json.dumps(config.to_json()))
    assert set(run["config"]) == {f.name for f in fields(ExperimentConfig)}
    assert run["config"]["corpus_dir"] == str(corpus_dir)
    assert run["config"]["ngram_orders"] == [1, 2]


def test_chimeric_run_json_records_config_and_version(tmp_path):
    config = chimeric_setup(tmp_path)
    run_chimeric(config)
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run["version"] == stylosig.__version__
    assert run["config"]["protocol"] == "chimeric"
    assert run["config"]["signature_dir"] == str(config.signature_dir)
    assert run["config"]["signature_matrix"] is None
    assert set(run["config"]) == {f.name for f in fields(ExperimentConfig)}
