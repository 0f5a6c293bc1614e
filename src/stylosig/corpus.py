"""Corpus loading, rolling-window splits, and chimeric subject assembly.

A text corpus on disk is one directory per subject; each ``.txt`` file is
a document, and an optional ``.conllu`` sidecar with the same stem carries
its dependency parse.  Subjects and documents are ordered by name so every
load of the same tree is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .conllu import DepSentence, read_conllu
from .errors import DataError


@dataclass(frozen=True)
class Subject:
    id: int
    label: str


@dataclass(frozen=True)
class Document:
    doc_id: str
    subject: int
    text: str
    tree: tuple[DepSentence, ...] | None = None

    @property
    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass(frozen=True)
class Corpus:
    subjects: tuple[Subject, ...]
    documents: tuple[Document, ...]

    @cached_property
    def by_subject(self) -> dict[int, tuple[Document, ...]]:
        groups: dict[int, list[Document]] = {s.id: [] for s in self.subjects}
        for doc in self.documents:
            groups[doc.subject].append(doc)
        return {sid: tuple(docs) for sid, docs in groups.items()}

    @property
    def subject_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subjects)

    def __len__(self):
        return len(self.documents)


def load_text_corpus(root: str | Path) -> Corpus:
    """Load a corpus from ``root``, one directory per subject.

    Subject ids are assigned densely in sorted-label order.  A
    ``doc.conllu`` next to ``doc.txt`` is parsed as its dependency tree.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")

    labels = sorted(d.name for d in root.iterdir() if d.is_dir())
    if not labels:
        raise DataError(f"corpus root {root} contains no subject directories")

    subjects = tuple(Subject(i, label) for i, label in enumerate(labels))
    documents: list[Document] = []
    for subj in subjects:
        subj_dir = root / subj.label
        txt_paths = sorted(subj_dir.glob("*.txt"))
        if not txt_paths:
            raise DataError(f"subject directory {subj_dir} contains no .txt documents")
        documents.extend(read_document(path, f"{subj.label}/{path.name}", subj.id) for path in txt_paths)
    return Corpus(subjects, tuple(documents))


def read_document(path: Path, doc_id: str, subject: int) -> Document:
    """Read one ``.txt`` document and its optional ``.conllu`` sidecar."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    sidecar = path.with_suffix(".conllu")
    tree = read_conllu(sidecar) if sidecar.is_file() else None
    return Document(doc_id, subject, text, tree)


def keep_largest(corpus: Corpus, n: int) -> Corpus:
    """Trim every subject to its ``n`` largest documents by byte size.

    Ties break toward the lexicographically smaller doc_id.  Subjects with
    fewer than ``n`` documents are dropped and ids are re-densified; kept
    documents stay in doc_id order within each subject.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    new_subjects: list[Subject] = []
    new_documents: list[Document] = []
    for subj in corpus.subjects:
        docs = corpus.by_subject[subj.id]
        if len(docs) < n:
            continue
        ranked = sorted(docs, key=lambda d: (-d.size_bytes, d.doc_id))[:n]
        kept = sorted(ranked, key=lambda d: d.doc_id)
        new_id = len(new_subjects)
        new_subjects.append(Subject(new_id, subj.label))
        for doc in kept:
            new_documents.append(Document(doc.doc_id, new_id, doc.text, doc.tree))
    if not new_subjects:
        raise DataError(f"no subject has {n} documents")
    return Corpus(tuple(new_subjects), tuple(new_documents))


# ---------------------------------------------------------------------------
# rolling-window splits

def rolling_folds(corpus: Corpus, train_window: int, test_window: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Build the circular rolling plan as (train rows, test rows) of ``corpus.documents``.

    Every subject needs exactly n = train_window + test_window documents.
    Fold k trains on each subject's window starting at its k-th document
    and tests on the window that follows it, both wrapping around; there
    are exactly n folds, so every document is tested test_window times.
    Rows come subject by subject in id order, positions in window order.
    """
    if train_window < 1 or test_window < 1:
        raise ValueError("window sizes must be >= 1")
    n = train_window + test_window
    bad = [
        f"{subj.label} has {len(corpus.by_subject[subj.id])}"
        for subj in corpus.subjects
        if len(corpus.by_subject[subj.id]) != n
    ]
    if bad:
        raise DataError(
            f"every subject needs exactly {n} documents for a "
            f"{train_window}+{test_window} rolling split: " + ", ".join(bad)
        )
    rows = np.argsort([doc.subject for doc in corpus.documents], kind="stable").reshape(len(corpus.subjects), n)
    rings = (np.arange(n)[:, None] + np.arange(n)) % n  # ring k lists positions k, k+1, ... mod n
    return [(rows[:, ring[:train_window]].ravel(), rows[:, ring[train_window:]].ravel()) for ring in rings]


# ---------------------------------------------------------------------------
# chimeric subjects: text author i + signature writer i

@dataclass(frozen=True)
class ChimericSubject:
    id: int
    author_label: str
    writer: int
    train_docs: tuple[Document, ...]
    test_docs: tuple[Document, ...]
    train_sigs: tuple
    test_sigs: tuple


@dataclass(frozen=True)
class ChimericDataset:
    subjects: tuple[ChimericSubject, ...]
    train_n: int
    test_n: int

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_test_items(self) -> int:
        return self.n_subjects * self.test_n

    @property
    def n_claims(self) -> int:
        return self.n_test_items * self.n_subjects

    @property
    def n_genuine(self) -> int:
        return self.n_test_items

    @property
    def n_imposter(self) -> int:
        return self.n_claims - self.n_genuine

    @property
    def subject_labels(self) -> tuple[str, ...]:
        return tuple(f"{s.author_label}+w{s.writer}" for s in self.subjects)


def build_chimeric(text_corpus: Corpus, sig_corpus, train_n: int = 5, test_n: int = 15) -> ChimericDataset:
    """Pair text authors with signature writers positionally.

    Authors sorted by label meet writers sorted by id; the pairing index is
    the chimeric subject id.  The first train_n documents and signatures of
    each subject train, the next test_n test.  Extra subjects on the larger
    side are dropped.
    """
    if train_n < 1 or test_n < 1:
        raise ValueError("train_n and test_n must be >= 1")
    need = train_n + test_n
    writers = sig_corpus.writers
    n_pairs = min(len(text_corpus.subjects), len(writers))
    if n_pairs == 0:
        raise DataError("cannot build chimeric subjects from an empty corpus")

    subjects = []
    problems = []
    for i in range(n_pairs):
        author = text_corpus.subjects[i]
        writer = writers[i]
        docs = text_corpus.by_subject[author.id]
        sigs = sig_corpus.by_writer[writer]
        if len(docs) < need:
            problems.append(f"author {author.label} has {len(docs)} documents, needs {need}")
            continue
        if len(sigs) < need:
            problems.append(f"writer {writer} has {len(sigs)} genuine signatures, needs {need}")
            continue
        subjects.append(
            ChimericSubject(
                id=len(subjects),
                author_label=author.label,
                writer=writer,
                train_docs=tuple(docs[:train_n]),
                test_docs=tuple(docs[train_n:need]),
                train_sigs=tuple(sigs[:train_n]),
                test_sigs=tuple(sigs[train_n:need]),
            )
        )
    if problems:
        raise DataError("chimeric pairing failed: " + "; ".join(problems))
    return ChimericDataset(tuple(subjects), train_n, test_n)
