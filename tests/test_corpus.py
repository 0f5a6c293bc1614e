import numpy as np
import pytest

from stylosig.corpus import (
    build_chimeric,
    keep_largest,
    load_text_corpus,
    rolling_folds,
    rolling_windows,
    split_documents,
)
from stylosig.errors import DataError
from stylosig.signature import load_svc

from .conftest import write_svc_dir, write_text_corpus
from .oracles import rolling_plan_reference


def test_load_orders_subjects_and_docs(tiny_corpus_dir):
    corpus = load_text_corpus(tiny_corpus_dir)
    assert corpus.subject_labels == ("alpha", "beta", "gamma")
    assert [d.doc_id for d in corpus.by_subject[0]] == [
        "alpha/doc00.txt",
        "alpha/doc01.txt",
        "alpha/doc02.txt",
    ]
    assert len(corpus) == 9


def test_load_is_deterministic(tiny_corpus_dir):
    a = load_text_corpus(tiny_corpus_dir)
    b = load_text_corpus(tiny_corpus_dir)
    assert a == b


def test_load_reads_conllu_sidecar(tmp_path):
    conllu = "1\tHello\thello\tINTJ\t_\t_\t0\troot\t_\t_\n"
    root = write_text_corpus(tmp_path / "c", {"solo": ["Hello"]}, conllu={"solo": [conllu]})
    corpus = load_text_corpus(root)
    doc = corpus.documents[0]
    assert doc.tree is not None and doc.tree[0].tokens[0].form == "Hello"


def test_load_rejects_missing_root(tmp_path):
    with pytest.raises(DataError, match="not a directory"):
        load_text_corpus(tmp_path / "nowhere")


def test_load_rejects_empty_subject_dir(tmp_path):
    root = tmp_path / "c"
    (root / "empty").mkdir(parents=True)
    with pytest.raises(DataError, match="no .txt documents"):
        load_text_corpus(root)


def test_keep_largest_by_bytes_with_filename_ties(tmp_path):
    subjects = {
        "a": ["xxxx", "yy", "zzz"],  # sizes 4, 2, 3
        "b": ["aa", "bb", "cc"],  # all ties, filename order wins
        "c": ["1"],  # too few, dropped
    }
    corpus = load_text_corpus(write_text_corpus(tmp_path / "c", subjects))
    trimmed = keep_largest(corpus, 2)
    assert trimmed.subject_labels == ("a", "b")
    assert [d.doc_id for d in trimmed.by_subject[0]] == ["a/doc00.txt", "a/doc02.txt"]
    assert [d.doc_id for d in trimmed.by_subject[1]] == ["b/doc00.txt", "b/doc01.txt"]
    # ids are re-densified after the drop
    assert [s.id for s in trimmed.subjects] == [0, 1]


def test_keep_largest_counts_bytes_not_chars(tmp_path):
    subjects = {"a": ["éé", "xyz"]}  # 4 utf-8 bytes beat 3
    corpus = load_text_corpus(write_text_corpus(tmp_path / "c", subjects))
    trimmed = keep_largest(corpus, 1)
    assert trimmed.documents[0].doc_id == "a/doc00.txt"


def test_keep_largest_no_survivors(tmp_path):
    corpus = load_text_corpus(write_text_corpus(tmp_path / "c", {"a": ["x"]}))
    with pytest.raises(DataError, match="no subject"):
        keep_largest(corpus, 5)


def test_rolling_windows_match_rotation_oracle():
    for n, tr, te in [(13, 8, 5), (2, 1, 1), (7, 4, 3), (6, 5, 1)]:
        plan = rolling_windows(n, tr, te)
        expected = rolling_plan_reference(n, tr, te)
        assert len(plan) == n
        for fold, (train, test) in zip(plan.folds, expected):
            assert fold.train_positions == train
            assert fold.test_positions == test


def test_rolling_window_wraparound_example():
    plan = rolling_windows(13, 8, 5)
    last = plan.folds[12]
    assert last.train_positions == (12, 0, 1, 2, 3, 4, 5, 6)
    assert last.test_positions == (7, 8, 9, 10, 11)


def test_every_position_tested_uniformly():
    plan = rolling_windows(9, 6, 3)
    seen = np.zeros(9, dtype=int)
    for fold in plan.folds:
        for p in fold.test_positions:
            seen[p] += 1
    assert np.all(seen == 3)


def test_rolling_windows_rejects_bad_sizes():
    with pytest.raises(ValueError):
        rolling_windows(5, 3, 1)
    with pytest.raises(ValueError):
        rolling_windows(3, 3, 0)


def test_rolling_folds_validates_doc_counts(tiny_corpus_dir):
    corpus = load_text_corpus(tiny_corpus_dir)
    plan = rolling_folds(corpus, 2, 1)
    assert len(plan) == 3
    with pytest.raises(DataError, match="alpha has 3"):
        rolling_folds(corpus, 3, 1)


def test_split_documents(tiny_corpus_dir):
    corpus = load_text_corpus(tiny_corpus_dir)
    plan = rolling_folds(corpus, 2, 1)
    train, test = split_documents(corpus, plan.folds[1])
    assert [d.doc_id for d in test] == ["alpha/doc00.txt", "beta/doc00.txt", "gamma/doc00.txt"]
    assert [d.doc_id for d in train][:2] == ["alpha/doc01.txt", "alpha/doc02.txt"]
    assert len(train) == 6


def _chimeric_fixtures(tmp_path, n_authors=3, docs=4, n_writers=3, sigs=4):
    texts = {
        f"auth{a}": [f"word{a} text sample {k}" for k in range(docs)] for a in range(n_authors)
    }
    text_corpus = load_text_corpus(write_text_corpus(tmp_path / "texts", texts))
    sig_corpus = load_svc(write_svc_dir(tmp_path / "sigs", n_writers, sigs))
    return text_corpus, sig_corpus


def test_build_chimeric_pairs_positionally(tmp_path):
    text_corpus, sig_corpus = _chimeric_fixtures(tmp_path)
    dataset = build_chimeric(text_corpus, sig_corpus, train_n=2, test_n=2)
    assert dataset.n_subjects == 3
    first = dataset.subjects[0]
    assert first.author_label == "auth0" and first.writer == 1
    assert [d.doc_id for d in first.train_docs] == ["auth0/doc00.txt", "auth0/doc01.txt"]
    assert [d.doc_id for d in first.test_docs] == ["auth0/doc02.txt", "auth0/doc03.txt"]
    assert [s.index for s in first.train_sigs] == [1, 2]
    assert [s.index for s in first.test_sigs] == [3, 4]


def test_build_chimeric_claim_counts(tmp_path):
    text_corpus, sig_corpus = _chimeric_fixtures(tmp_path)
    dataset = build_chimeric(text_corpus, sig_corpus, train_n=2, test_n=2)
    assert dataset.n_test_items == 6
    assert dataset.n_claims == 18
    assert dataset.n_genuine == 6
    assert dataset.n_imposter == 12


def test_build_chimeric_drops_unmatched_extras(tmp_path):
    text_corpus, sig_corpus = _chimeric_fixtures(tmp_path, n_authors=5, n_writers=3)
    dataset = build_chimeric(text_corpus, sig_corpus, train_n=2, test_n=2)
    assert dataset.n_subjects == 3


def test_build_chimeric_reports_shortages(tmp_path):
    text_corpus, sig_corpus = _chimeric_fixtures(tmp_path, docs=3)
    with pytest.raises(DataError, match="auth0 has 3 documents"):
        build_chimeric(text_corpus, sig_corpus, train_n=2, test_n=2)
