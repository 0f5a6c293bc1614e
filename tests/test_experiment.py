import json
import sys
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import stylosig
from stylosig import classifiers, experiment, features
from stylosig.cli import main
from stylosig.config import ExperimentConfig, build_config
from stylosig.corpus import load_text_corpus
from stylosig.errors import DegenerateInputWarning
from stylosig.features import FeatureModel, _token_bytes
from stylosig.fusion import decide
from stylosig.signature import save_score_matrix
from stylosig.experiment import (
    build_feature_model,
    chimeric_manifest,
    run_chimeric,
    run_rolling,
    signature_matrix_from_dir,
)

from .conftest import write_svc_dir, write_svc_file, write_text_corpus
from .oracles import (
    extract_counts,
    mnb_posterior_reference,
    pnb_posterior_reference,
    possibility_naive,
    rolling_plan_reference,
)


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


def test_rolling_eval_reports_dropped_subjects(tmp_path):
    texts = ["one two three", "two three four", "three four five"]
    subjects = {"a": texts, "b": texts[::-1], "short": texts[:2], "tiny": texts[:1]}
    corpus_dir = write_text_corpus(tmp_path / "texts", subjects)
    config = build_config(
        {"corpus_dir": str(corpus_dir), "train_window": "2", "test_window": "1", "output_dir": str(tmp_path / "out")}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_rolling(config)
    dropped = [str(w.message) for w in caught if "dropped" in str(w.message)]
    assert dropped == ["2 subject(s) with fewer than 3 documents dropped: short, tiny"]
    assert all(w.category is DegenerateInputWarning for w in caught if "dropped" in str(w.message))
    assert result["run"]["counts"]["subjects"] == 2
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run["counts"]["dropped_subjects"] == ["short", "tiny"]


def test_rolling_eval_without_dropped_subjects_records_none(tmp_path):
    config = build_config(
        {
            "corpus_dir": str(disjoint_corpus(tmp_path, docs=4)),
            "train_window": "3",
            "test_window": "1",
            "output_dir": str(tmp_path / "out"),
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateInputWarning)
        run_rolling(config)
    assert json.loads((tmp_path / "out" / "run.json").read_text())["counts"]["dropped_subjects"] == []


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


@pytest.fixture
def scoring_calls(monkeypatch):
    """The rows of each experiment.possibility_rows call, and the count of classifiers.posterior calls."""
    calls = {"rows": [], "posterior": 0}
    possibility_rows, posterior = experiment.possibility_rows, classifiers.posterior

    def counting_rows(model, counts):
        calls["rows"].append(counts.shape[0])
        return possibility_rows(model, counts)

    def counting_posterior(model, counts):
        calls["posterior"] += 1
        return posterior(model, counts)

    monkeypatch.setattr(experiment, "possibility_rows", counting_rows)
    monkeypatch.setattr(classifiers, "posterior", counting_posterior)
    return calls


def train_model(tmp_path, corpus_dir):
    assert main(["train", "-O", f"corpus_dir={corpus_dir}", "--output-dir", str(tmp_path / "model")]) == 0
    return str(tmp_path / "model" / "model.npz")


def test_every_command_scores_through_one_possibility_rows(tmp_path, scoring_calls):
    # 13 documents per subject and the default 8 + 5 windows: 13 folds of 3 x 5 test rows
    corpus_dir = disjoint_corpus(tmp_path / "rolling", docs=13)
    run_rolling(build_config({"corpus_dir": str(corpus_dir), "output_dir": str(tmp_path / "rolling-out")}))
    assert scoring_calls == {"rows": [15] * 13, "posterior": 13}

    scoring_calls.update(rows=[], posterior=0)
    run_chimeric(chimeric_setup(tmp_path / "chimeric"))
    assert scoring_calls == {"rows": [6], "posterior": 1}

    model = train_model(tmp_path, corpus_dir)
    probe = tmp_path / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2", encoding="utf-8")
    scoring_calls.update(rows=[], posterior=0)
    assert main(["attribute", "--model", model, str(probe), str(probe)]) == 0
    assert main(["attribute", "--model", model, str(probe)]) == 0
    assert scoring_calls == {"rows": [2, 1], "posterior": 2}


def fallback_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    messages = [str(w.message) for w in caught if issubclass(w.category, DegenerateInputWarning)]
    return [message for message in messages if "uniform posterior" in message]


def test_uniform_fallbacks_warn_once_with_their_count(tmp_path, scoring_calls):
    model = train_model(tmp_path, disjoint_corpus(tmp_path))
    empty, probe = tmp_path / "empty.txt", tmp_path / "probe.txt"
    empty.write_text("... !!!\n", encoding="utf-8")  # no token
    probe.write_text("s1w0 s1w1 s1w2", encoding="utf-8")
    messages = fallback_warnings(lambda: main(["attribute", "--model", model, str(empty), str(probe), str(empty)]))
    assert messages == ["empty feature vector in 2 row(s), returning uniform posterior"]
    assert scoring_calls == {"rows": [3], "posterior": 1}

    scoring_calls.update(rows=[], posterior=0)
    out = tmp_path / "out"
    config = build_config(
        {
            "corpus_dir": str(degenerate_corpus(tmp_path / "rolling")),
            "train_window": "3",
            "test_window": "1",
            "classifier": "pnb",
            "alpha": "0",
            "output_dir": str(out),
        }
    )
    messages = fallback_warnings(lambda: run_rolling(config))
    assert json.loads((out / "run.json").read_text())["features"]["uniform_fallback_rows"] == 2
    assert messages == ["every subject has zero likelihood in 2 row(s), returning uniform posterior"]
    assert scoring_calls == {"rows": [3] * 4, "posterior": 4}


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
        train = {s: [extract_counts(fmodel, corpus.by_subject[s][p]) for p in train_pos] for s in corpus.by_subject}
        pooled = Counter()
        for counts in train.values():
            for c in counts:
                pooled.update(c)
        vocab = [f for f, _ in sorted(pooled.items(), key=lambda kv: (-kv[1], kv[0]))[:profile_size]]
        train_counts = [[sum(c[f] for c in train[s]) for f in vocab] for s in sorted(train)]
        for s in sorted(corpus.by_subject):
            for p in test_pos:
                doc = corpus.by_subject[s][p]
                counts = extract_counts(fmodel, doc)
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


@pytest.mark.parametrize(
    "classifier, alpha, message, rows",
    [
        ("mnb", "0.01", "empty feature vector", 1),
        ("pnb", "0", "every subject has zero likelihood", 2),
    ],
)
def test_rolling_eval_warns_once_about_uniform_fallbacks(tmp_path, monkeypatch, classifier, alpha, message, rows):
    corpus_dir = degenerate_corpus(tmp_path)
    config = build_config(
        {
            "corpus_dir": str(corpus_dir),
            "train_window": "3",
            "test_window": "1",
            "profile_size": "20",
            "classifier": classifier,
            "alpha": alpha,
            "output_dir": str(tmp_path / "out"),
        }
    )
    captured = {}
    original = experiment.write_bundle

    def capture(out_dir, name, matrix, truth, config, **kwargs):
        captured["matrix"] = matrix
        return original(out_dir, name, matrix, truth, config, **kwargs)

    monkeypatch.setattr(experiment, "write_bundle", capture)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_rolling(config)
    fallbacks = [str(w.message) for w in caught if "uniform posterior" in str(w.message)]
    assert len(fallbacks) == 1 and fallbacks[0].startswith(message)
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    total = run["features"]["uniform_fallback_rows"]
    assert fallbacks == [f"{message} in {total} row(s), returning uniform posterior"]
    # a fallback row is uniform, so its possibility row is all ones
    all_ones = int(np.all(captured["matrix"].scores == 1.0, axis=1).sum())
    assert total == all_ones == rows


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
    corpus = load_text_corpus(corpus_dir)
    assert run["features"]["tokens"] == sum(len(_token_bytes(doc.text).decode().split()) for doc in corpus.documents)
    assert run["features"]["uniform_fallback_rows"] == 1
    assert run["version"] == stylosig.__version__
    assert run["config"] == json.loads(json.dumps(config.to_json()))
    assert set(run["config"]) == {f.name for f in fields(ExperimentConfig)}
    assert run["config"]["corpus_dir"] == str(corpus_dir)
    assert run["config"]["ngram_orders"] == [1, 2]


@pytest.mark.parametrize("protocol", ["rolling", "chimeric"])
def test_run_json_records_the_matrix_entries_and_index_width(tmp_path, monkeypatch, protocol):
    # the benchmark only ever takes 32-bit keys, so a lowered bound runs the same eval at 64 bits
    bundles = {}
    for bits, bound in ((32, features._INT32_KEYS), (64, 0)):
        monkeypatch.setattr(features, "_INT32_KEYS", bound)
        if protocol == "chimeric":
            config = chimeric_setup(tmp_path / str(bits))
            run_chimeric(config)
        else:
            corpus_dir = disjoint_corpus(tmp_path / str(bits))
            options = {"corpus_dir": str(corpus_dir), "train_window": "2", "test_window": "2"}
            config = build_config({**options, "output_dir": str(tmp_path / str(bits) / "out")})
            run_rolling(config)
        out = tmp_path / str(bits) / "out"
        run = json.loads((out / "run.json").read_text())
        assert run["features"]["index_bits"] == bits
        bundles[bits] = {p.relative_to(out): p.read_bytes() for p in out.glob("*/*")}
        bundles[bits]["entries"] = run["features"]["entries"]
    assert bundles[32]["entries"] > 0
    assert bundles[32] == bundles[64]  # the same entries and the same bytes in every bundle file


def test_chimeric_run_json_records_config_and_version(tmp_path):
    config = chimeric_setup(tmp_path)
    run_chimeric(config)
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run["version"] == stylosig.__version__
    assert run["config"]["protocol"] == "chimeric"
    assert run["config"]["signature_dir"] == str(config.signature_dir)
    assert run["config"]["signature_matrix"] is None
    assert set(run["config"]) == {f.name for f in fields(ExperimentConfig)}


@pytest.fixture
def index_sorts(monkeypatch):
    """The function that called each ``sort_indices`` that found unsorted CSR indices."""
    from scipy.sparse import _compressed

    callers, original = [], _compressed._cs_matrix.sort_indices

    def counted(self):
        if not self.has_sorted_indices:
            callers.append(sys._getframe(1).f_code.co_name)
        original(self)

    monkeypatch.setattr(_compressed._cs_matrix, "sort_indices", counted)
    return callers


def test_an_eval_makes_no_csr_index_sort(tmp_path, index_sorts):
    # extraction builds its CSR with columns ascending, and no fold reorders one
    config = build_config(
        {"corpus_dir": str(disjoint_corpus(tmp_path)), "train_window": "3", "test_window": "1", "output_dir": str(tmp_path / "out")}
    )
    assert run_rolling(config)["run"]["counts"]["folds"] == 4
    assert index_sorts == []

    run_chimeric(chimeric_setup(tmp_path / "chimeric"))
    assert index_sorts == []


@pytest.fixture
def scipy_column_takes(monkeypatch):
    """The number of scipy fancy column takes made."""
    from scipy.sparse import _compressed

    calls, original = [], _compressed._cs_matrix._minor_index_fancy

    def counted(self, idx):
        calls.append(len(idx))
        return original(self, idx)

    monkeypatch.setattr(_compressed._cs_matrix, "_minor_index_fancy", counted)
    return calls


def test_an_eval_makes_no_scipy_column_take(tmp_path, scipy_column_takes):
    # both takes of a fold go through features.take_columns
    config = build_config(
        {"corpus_dir": str(disjoint_corpus(tmp_path)), "train_window": "3", "test_window": "1", "output_dir": str(tmp_path / "out")}
    )
    assert run_rolling(config)["run"]["counts"]["folds"] == 4
    assert scipy_column_takes == []

    run_chimeric(chimeric_setup(tmp_path / "chimeric"))
    assert scipy_column_takes == []


FOLD_KEYS = {"seconds", "vocabulary", "test_mass", "test_oov_rate", "uniform_fallback_rows", "empty_test_rows", "tied_rows"}


def test_run_json_records_each_fold(tmp_path):
    config = build_config(
        {
            "corpus_dir": str(degenerate_corpus(tmp_path)),
            "train_window": "3",
            "test_window": "1",
            "profile_size": "20",
            "classifier": "pnb",
            "alpha": "0",
            "output_dir": str(tmp_path / "out"),
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        run_rolling(config)
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    folds = run["folds"]
    assert len(folds) == run["counts"]["folds"] == 4
    assert all(set(fold) == FOLD_KEYS for fold in folds)
    assert all(fold["seconds"] >= 0.0 and 0 < fold["vocabulary"] <= 20 for fold in folds)
    assert sum(fold["uniform_fallback_rows"] for fold in folds) == run["features"]["uniform_fallback_rows"] == 2
    summary = json.loads((tmp_path / "out" / "pnb" / "summary.json").read_text())
    assert sum(fold["tied_rows"] for fold in folds) == summary["n_tied_decisions"] == 2
    assert all(fold["empty_test_rows"] == 0 for fold in folds)
    # the run's rate is the folds' rates weighed by their test mass
    mass = sum(fold["test_mass"] for fold in folds)
    in_vocab = sum((1.0 - fold["test_oov_rate"]) * fold["test_mass"] for fold in folds)
    assert 1.0 - in_vocab / mass == pytest.approx(run["features"]["test_oov_rate"], rel=1e-12, abs=1e-15)
    assert sum(fold["seconds"] for fold in folds) <= run["stage_seconds"]["folds"]
    assert "seconds" not in (tmp_path / "out" / "pnb" / "summary.json").read_text()  # timings stay in run.json


def test_fold_records_count_empty_test_rows_and_their_ties(tmp_path):
    # a document of punctuation only extracts nothing: under mnb it falls back on the uniform posterior, a tie
    subjects = {f"subj{s}": [" ".join([f"s{s}w{d}", f"s{s}w{d + 1}", "c0"]) for d in range(4)] for s in range(3)}
    subjects["subj1"][2] = "?!"
    config = build_config(
        {
            "corpus_dir": str(write_text_corpus(tmp_path / "texts", subjects)),
            "train_window": "3",
            "test_window": "1",
            "output_dir": str(tmp_path / "out"),
        }
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_rolling(config)
    folds = result["run"]["folds"]
    assert [fold["empty_test_rows"] for fold in folds] == [fold["uniform_fallback_rows"] for fold in folds]
    assert sum(fold["empty_test_rows"] for fold in folds) == 1
    (empty,) = [fold for fold in folds if fold["empty_test_rows"]]
    assert empty["tied_rows"] >= 1
    assert sum(fold["tied_rows"] for fold in folds) == result["summaries"]["mnb"]["n_tied_decisions"]
    # the decisions are made once: one tie warning
    assert sum("tied top score" in str(w.message) for w in caught) == 1


# the accuracy records summary.json writes and the t-test records run.json writes, key by key
ACCURACY_TYPES = {"value": float, "ci_low": float, "ci_high": float, "method": str, "n": int, "confidence": float}
FOLD_ACCURACY_TYPES = {"per_fold": list, "mean": float, "ci_low": float, "ci_high": float, "method": str, "n": int}
TTEST_TYPES = {"statistic": float, "pvalue": float, "df": int, "degenerate": bool}


def value_types(record: dict) -> dict:
    return {key: type(value) for key, value in record.items()}


def test_summary_and_ttest_records_keep_their_keys(tmp_path):
    rolling = build_config(
        {
            "corpus_dir": str(disjoint_corpus(tmp_path)),
            "train_window": "3",
            "test_window": "1",
            "output_dir": str(tmp_path / "rolling"),
        }
    )
    run_rolling(rolling)
    summary = json.loads((tmp_path / "rolling" / "mnb" / "summary.json").read_text())
    assert value_types(summary["accuracy"]) == ACCURACY_TYPES
    assert value_types(summary["fold_accuracy"]) == FOLD_ACCURACY_TYPES
    assert [type(a) for a in summary["fold_accuracy"]["per_fold"]] == [float] * 4

    run_chimeric(chimeric_setup(tmp_path / "chimeric"))
    run = json.loads((tmp_path / "chimeric" / "out" / "run.json").read_text())
    assert set(run["ttests"]) == {"mnb+signature_vs_mnb", "mnb+signature_vs_signature"}
    assert all(value_types(record) == TTEST_TYPES for record in run["ttests"].values())
    for system in run["systems"]:
        summary = json.loads((tmp_path / "chimeric" / "out" / system / "summary.json").read_text())
        assert value_types(summary["accuracy"]) == ACCURACY_TYPES
        assert "fold_accuracy" not in summary


def test_chimeric_run_json_records_its_one_fold(tmp_path):
    result = run_chimeric(chimeric_setup(tmp_path))
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    (fold,) = run["folds"]
    assert set(fold) == FOLD_KEYS
    assert fold["tied_rows"] == result["summaries"]["mnb"]["n_tied_decisions"]
    assert fold["empty_test_rows"] == 0
    assert fold["uniform_fallback_rows"] == run["features"]["uniform_fallback_rows"]
    assert fold["test_oov_rate"] == run["features"]["test_oov_rate"]
    assert fold["vocabulary"] <= 200 and fold["test_mass"] > 0


def test_chimeric_run_json_counts_still_signatures(tmp_path):
    config = chimeric_setup(tmp_path)
    run_chimeric(config)
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert (run["signature"]["still_probes"], run["signature"]["still_subjects"]) == (0, 0)
    still = np.array([[5, 5, 0, 1], [5, 5, 10, 1]])
    write_svc_file(config.signature_dir / "U1S3.txt", still)  # a probe: samples 3 and 4 are tested
    for sample in (1, 2):  # every template of writer 2
        write_svc_file(config.signature_dir / f"U2S{sample}.txt", still)
    with pytest.warns(DegenerateInputWarning) as record:
        run_chimeric(config)
    messages = [str(w.message) for w in record if "pen-down" in str(w.message)]
    assert messages == [
        "1 probe(s) have no pen-down motion and score 0 (first: s00i00)",
        "1 subject(s) have no template with pen-down motion and score 0 (first: subj1+w2)",
    ]
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert (run["signature"]["still_probes"], run["signature"]["still_subjects"]) == (1, 1)
    # scores read from a matrix come with no histograms to count
    with pytest.warns(DegenerateInputWarning):
        save_score_matrix(signature_matrix_from_dir(config), tmp_path / "scores.csv")
    config.signature_matrix, config.output_dir = tmp_path / "scores.csv", tmp_path / "from-matrix"
    run_chimeric(config)
    run = json.loads((tmp_path / "from-matrix" / "run.json").read_text())
    assert (run["signature"]["still_probes"], run["signature"]["still_subjects"]) == (None, None)


# each kind of DegenerateInputWarning an eval can raise, and the count of it that run.json or summary.json keeps
WARNING_COUNTS = {
    "uniform posterior": lambda run, summaries: run["features"]["uniform_fallback_rows"],
    "tied top score": lambda run, summaries: sum(s["n_tied_decisions"] for s in summaries.values()),
    "zero-variance differences": lambda run, summaries: sum(t["degenerate"] for t in run["ttests"].values()),
    "probe(s) have no pen-down motion": lambda run, summaries: run["signature"]["still_probes"],
    "subject(s) have no template with pen-down motion": lambda run, summaries: run["signature"]["still_subjects"],
    "documents dropped": lambda run, summaries: len(run["counts"]["dropped_subjects"]),
}


def warnings_and_counts(run, out):
    """Each DegenerateInputWarning ``run`` raises, with the count its eval's run.json or summary.json keeps of it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    record = json.loads((out / "run.json").read_text())
    summaries = {system: json.loads((out / system / "summary.json").read_text()) for system in record["systems"]}
    counted = {}
    for message in (str(w.message) for w in caught if issubclass(w.category, DegenerateInputWarning)):
        (kind,) = [kind for kind in WARNING_COUNTS if kind in message]  # an unknown kind fails here
        counted[message] = WARNING_COUNTS[kind](record, summaries)
    return counted


def test_every_eval_warning_is_counted_in_the_bundle(tmp_path):
    texts = ["one two three", "two three four", "three four five"]
    subjects = {"a": texts, "b": [*texts[:2], "... !!!"], "short": texts[:1]}  # b tests one empty document
    config = build_config(
        {
            "corpus_dir": str(write_text_corpus(tmp_path / "texts", subjects)),
            "train_window": "2",
            "test_window": "1",
            "output_dir": str(tmp_path / "rolling"),
        }
    )
    counted = warnings_and_counts(lambda: run_rolling(config), tmp_path / "rolling")
    assert any("documents dropped" in message for message in counted)
    assert any("empty feature vector" in message for message in counted)

    config = chimeric_setup(tmp_path / "chimeric")
    still = np.array([[5, 5, 0, 1], [5, 5, 10, 1]])
    write_svc_file(config.signature_dir / "U1S3.txt", still)  # a probe: samples 3 and 4 are tested
    for sample in (1, 2):  # every template of writer 2
        write_svc_file(config.signature_dir / f"U2S{sample}.txt", still)
    chimeric = warnings_and_counts(lambda: run_chimeric(config), config.output_dir)
    assert sum("pen-down motion" in message for message in chimeric) == 2
    counted.update(chimeric)
    assert all(counted.values()), {message: count for message, count in counted.items() if not count}
