import itertools

import numpy as np
import pytest

from stylosig.corpus import (
    Corpus,
    Document,
    Subject,
    build_chimeric,
    keep_largest,
    load_text_corpus,
    rolling_folds,
)
from stylosig.errors import DataError
from stylosig.signature import load_svc

from .conftest import write_svc_dir, write_text_corpus
from .oracles import load_text_corpus_reference, rolling_plan_reference


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
    assert doc.tree is not None and doc.tree.form == ("Hello",)


def test_load_rejects_missing_root(tmp_path):
    with pytest.raises(DataError, match="not a directory"):
        load_text_corpus(tmp_path / "nowhere")


def test_load_rejects_empty_subject_dir(tmp_path):
    root = tmp_path / "c"
    (root / "empty").mkdir(parents=True)
    with pytest.raises(DataError, match="no .txt documents"):
        load_text_corpus(root)


def _conllu(form):
    return f"1\t{form}\t{form.lower()}\tX\t_\t_\t0\troot\t_\t_\n"


def odd_corpus(root):
    """A tree of every listing case: line ends, sidecar kinds, case, dot files and names with two dots."""
    a, b = root / "a", root / "b"
    a.mkdir(parents=True)
    b.mkdir()
    (a / "crlf.txt").write_bytes(b"one two\r\nthree\r\n")
    # two sentences: CRLF line ends, then a lone CR as the blank line between them and as a line end
    crlf, cr = _conllu("Crlf").encode().replace(b"\n", b"\r\n"), _conllu("Cr").encode().replace(b"\n", b"\r")
    (a / "crlf.conllu").write_bytes(b"# crlf\r\n" + crlf + b"\r" + cr)
    (a / "cr.txt").write_bytes(b"one\rtwo\r")
    (a / "crcrlf.txt").write_bytes(b"one\r\r\ntwo\r\n\rthree\r")
    (a / "bom.txt").write_bytes(b"\xef\xbb\xbfstarts with a byte order mark\r\n")
    (a / "plain.txt").write_text("sidecar is a file", encoding="utf-8")
    (a / "plain.conllu").write_text(_conllu("Plain"), encoding="utf-8")
    (a / "dangling.txt").write_text("sidecar is a dangling symlink", encoding="utf-8")
    (a / "dangling.conllu").symlink_to(root / "nowhere.conllu")
    (a / "folder.txt").write_text("sidecar is a directory", encoding="utf-8")
    (a / "folder.conllu").mkdir()
    (a / "loop.txt").write_text("sidecar is a symlink loop", encoding="utf-8")
    (a / "loop.conllu").symlink_to(a / "loop.conllu")
    (a / "linked.txt").write_text("sidecar is a symlink to a file", encoding="utf-8")
    (a / "linked.conllu").symlink_to(a / "plain.conllu")
    (a / "A.TXT").write_text("not read", encoding="utf-8")
    (a / "notes.md").write_text("not read", encoding="utf-8")
    (b / ".a.txt").write_text("a dot file", encoding="utf-8")
    (b / ".a.conllu").write_text(_conllu("Dot"), encoding="utf-8")
    (b / ".txt").write_text("only a suffix", encoding="utf-8")
    (b / ".txt.conllu").write_text(_conllu("Suffix"), encoding="utf-8")
    (b / "a.b.txt").write_text("two dots", encoding="utf-8")
    (b / "a.b.conllu").write_text(_conllu("Dots"), encoding="utf-8")
    (b / "a.conllu").write_text(_conllu("Unused"), encoding="utf-8")
    return root


def _d_txt_directory(root):
    (root / "a" / "d.txt").mkdir()


def _subject_without_txt(root):
    (root / "c").mkdir()
    (root / "c" / "doc.md").write_text("no document", encoding="utf-8")


def _not_utf8(root):
    (root / "b" / "latin1.txt").write_bytes("caf\xe9".encode("latin-1"))


def _not_utf8_past_64_kib(root):
    (root / "b" / "late.txt").write_bytes(b"x" * 70_000 + b"\xff")


def _bad_sidecar(root):
    (root / "b" / "a.b.conllu").write_text("1\tonly three\tcolumns\n", encoding="utf-8")


def _not_utf8_sidecar(root):
    (root / "b" / "a.b.conllu").write_bytes(_conllu("Caf\xe9").encode("latin-1"))


def _bad_line_after_lone_cr(root):
    # a lone CR ends a line, so the bad line is line 4 of the sidecar
    (root / "a" / "crlf.conllu").write_bytes(b"# crlf\r\n" + _conllu("Crlf").encode() + b"\r1\tthree\tcolumns\r\n")


@pytest.mark.parametrize(
    "edit, error",
    [
        (None, None),
        (_d_txt_directory, "cannot read {root}/a/d.txt: [Errno 21] Is a directory"),
        (_subject_without_txt, "subject directory {root}/c contains no .txt documents"),
        (_not_utf8, "cannot read {root}/b/latin1.txt: 'utf-8' codec can't decode"),
        (_not_utf8_past_64_kib, "cannot read {root}/b/late.txt: 'utf-8' codec can't decode byte 0xff in position 70000"),
        (_bad_sidecar, "{root}/b/a.b.conllu:1: expected 10 tab-separated columns"),
        (_not_utf8_sidecar, "cannot read {root}/b/a.b.conllu: 'utf-8' codec can't decode byte 0xe9 in position 5"),
        (_bad_line_after_lone_cr, "{root}/a/crlf.conllu:4: expected 10 tab-separated columns, got 3"),
    ],
    ids=[
        "readable", "d.txt-directory", "subject-without-txt", "not-utf8", "not-utf8-past-64-kib", "bad-sidecar",
        "not-utf8-sidecar", "bad-line-after-lone-cr",
    ],
)
def test_load_matches_pathlib_reference(tmp_path, edit, error):
    root = odd_corpus(tmp_path / "c")
    if edit is not None:
        edit(root)
        with pytest.raises(DataError) as want:
            load_text_corpus_reference(root)
        with pytest.raises(DataError) as got:
            load_text_corpus(root)
        assert str(got.value) == str(want.value) and str(got.value).startswith(error.format(root=root))
        return
    want = load_text_corpus_reference(root)
    corpus = load_text_corpus(root)
    assert corpus == want
    texts = {doc.doc_id: doc.text for doc in corpus.documents}
    assert texts["a/crlf.txt"] == "one two\nthree\n" and texts["a/cr.txt"] == "one\ntwo\n"
    assert texts["a/crcrlf.txt"] == "one\n\ntwo\n\nthree\n"
    assert texts["a/bom.txt"] == "\ufeffstarts with a byte order mark\n"
    trees = {doc.doc_id: doc.tree and doc.tree.form for doc in corpus.documents}
    assert trees == {
        "a/bom.txt": None, "a/cr.txt": None, "a/crcrlf.txt": None, "a/crlf.txt": ("Crlf", "Cr"),
        "a/dangling.txt": None, "a/folder.txt": None,
        "a/linked.txt": ("Plain",), "a/loop.txt": None, "a/plain.txt": ("Plain",),
        "b/.a.txt": ("Dot",), "b/.txt": ("Suffix",), "b/a.b.txt": ("Dots",),
    }


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


def ring_corpus(n_subjects: int, n_docs: int, interleave: bool = False) -> Corpus:
    """In-memory corpus whose doc id ``s<subject>/p<position>`` names each document's place.

    With ``interleave`` the documents come position by position, so the
    subjects alternate in ``documents`` and no subject's rows are contiguous.
    """
    places = [(s, p) for s in range(n_subjects) for p in range(n_docs)]
    if interleave:
        places.sort(key=lambda place: (place[1], place[0]))
    docs = tuple(Document(f"s{s}/p{p:02d}", s, "text") for s, p in places)
    return Corpus(tuple(Subject(s, f"s{s}") for s in range(n_subjects)), docs)


def doc_ids(corpus: Corpus, rows) -> list[str]:
    return [corpus.documents[r].doc_id for r in rows]


def test_rolling_folds_match_rotation_oracle():
    for (n, tr, te), interleave in itertools.product([(13, 8, 5), (2, 1, 1), (7, 4, 3), (6, 5, 1)], (False, True)):
        corpus = ring_corpus(3, n, interleave)
        folds = rolling_folds(corpus, tr, te)
        expected = rolling_plan_reference(n, tr, te)
        assert len(folds) == n
        for (train, test), (train_pos, test_pos) in zip(folds, expected):
            # subjects in id order, positions in window order within each subject
            assert doc_ids(corpus, train) == [f"s{s}/p{p:02d}" for s in range(3) for p in train_pos]
            assert doc_ids(corpus, test) == [f"s{s}/p{p:02d}" for s in range(3) for p in test_pos]


def test_rolling_window_wraparound_example():
    corpus = ring_corpus(1, 13)
    train, test = rolling_folds(corpus, 8, 5)[12]
    assert doc_ids(corpus, train) == [f"s0/p{p:02d}" for p in (12, 0, 1, 2, 3, 4, 5, 6)]
    assert doc_ids(corpus, test) == [f"s0/p{p:02d}" for p in (7, 8, 9, 10, 11)]


def test_every_position_tested_uniformly():
    corpus = ring_corpus(2, 9, interleave=True)
    folds = rolling_folds(corpus, 6, 3)
    seen = np.bincount(np.concatenate([test for _, test in folds]), minlength=len(corpus))
    assert np.all(seen == 3)


def test_rolling_folds_rejects_bad_sizes():
    with pytest.raises(DataError, match="exactly 4 documents"):
        rolling_folds(ring_corpus(2, 5), 3, 1)
    with pytest.raises(ValueError):
        rolling_folds(ring_corpus(2, 3), 3, 0)
    with pytest.raises(ValueError):
        rolling_folds(ring_corpus(2, 3), 0, 3)


def test_rolling_folds_validates_doc_counts(tiny_corpus_dir):
    corpus = load_text_corpus(tiny_corpus_dir)
    folds = rolling_folds(corpus, 2, 1)
    assert len(folds) == 3
    with pytest.raises(DataError, match="alpha has 3"):
        rolling_folds(corpus, 3, 1)


def test_rolling_folds_fold_one(tiny_corpus_dir):
    corpus = load_text_corpus(tiny_corpus_dir)
    train, test = rolling_folds(corpus, 2, 1)[1]
    assert doc_ids(corpus, test) == ["alpha/doc00.txt", "beta/doc00.txt", "gamma/doc00.txt"]
    assert doc_ids(corpus, train)[:2] == ["alpha/doc01.txt", "alpha/doc02.txt"]
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
