"""Shared fixtures and data builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from stylosig.conllu import DepTree


def write_text_corpus(root, subjects: dict[str, list[str]], conllu: dict[str, list[str]] | None = None):
    """Lay out one directory per subject; doc k of a subject is doc{k:02d}.txt.

    ``conllu`` optionally maps a subject to per-document CoNLL-U sidecar
    texts (same indexing).
    """
    root.mkdir(parents=True, exist_ok=True)
    for label, texts in subjects.items():
        subj_dir = root / label
        subj_dir.mkdir()
        for k, text in enumerate(texts):
            (subj_dir / f"doc{k:02d}.txt").write_text(text, encoding="utf-8")
            if conllu and label in conllu:
                (subj_dir / f"doc{k:02d}.conllu").write_text(conllu[label][k], encoding="utf-8")
    return root


def signature_points(writer: int, index: int, columns: int = 4) -> np.ndarray:
    """Deterministic polyline with pen-up gaps and guaranteed motion."""
    rng = np.random.default_rng(100_000 + writer * 1_000 + index)
    n = 60 + (index % 5) * 8
    dx = rng.integers(-15, 16, size=n - 1) + 3  # drift guarantees nonzero steps exist
    dy = rng.integers(-15, 16, size=n - 1) + (writer % 7) - 3
    x = np.concatenate([[1000], 1000 + np.cumsum(dx)])
    y = np.concatenate([[2000], 2000 + np.cumsum(dy)])
    t = np.arange(n) * 10 + rng.integers(0, 3, size=n)
    pen = np.ones(n, dtype=np.int64)
    gap = n // 3
    pen[gap : gap + 4] = 0  # one pen-up stretch mid-signature
    cols = [x, y, t, pen]
    if columns == 7:
        cols += [
            rng.integers(0, 3600, size=n),
            rng.integers(0, 900, size=n),
            rng.integers(0, 1024, size=n),
        ]
    return np.column_stack(cols).astype(np.int64)


def write_svc_file(path, points: np.ndarray):
    lines = [str(len(points))]
    lines += [" ".join(str(v) for v in row) for row in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_svc_dir(root, n_writers: int, n_samples: int, start_writer: int = 1):
    """U{w}S{s}.txt capture files for writers start..start+n_writers-1."""
    root.mkdir(parents=True, exist_ok=True)
    for w in range(start_writer, start_writer + n_writers):
        for s in range(1, n_samples + 1):
            columns = 7 if w % 2 == 0 else 4
            write_svc_file(root / f"U{w}S{s}.txt", signature_points(w, s, columns))
    return root


def make_sentence(heads: list[int], forms: list[str] | None = None) -> DepTree:
    """Sentence from 0-based head indices (-1 marks the root)."""
    n = len(heads)
    forms = forms or [f"tok{i}" for i in range(n)]
    return DepTree(
        tuple(forms),
        tuple(f"lemma{i}" for i in range(n)),
        tuple(f"POS{i % 4}" for i in range(n)),
        tuple(f"rel{i % 3}" for i in range(n)),
        tuple(heads),
    )


def join_sentences(sentences) -> DepTree:
    """One file's tree of ``sentences``: each sentence's heads offset by the nodes before it."""
    heads, start = [], 0
    for sentence in sentences:
        heads += [head + start if head >= 0 else -1 for head in sentence.head]
        start += len(sentence.head)
    columns = [sum((getattr(s, name) for s in sentences), ()) for name in ("form", "lemma", "upos", "deprel")]
    return DepTree(*columns, tuple(heads))


@pytest.fixture
def tiny_corpus_dir(tmp_path):
    """Three subjects, three docs each, word-disjoint texts."""
    subjects = {
        "alpha": ["apple apple banana", "apple banana banana", "banana apple apple"],
        "beta": ["cherry cherry date", "date cherry date", "cherry date date"],
        "gamma": ["elder fig elder", "fig fig elder", "elder elder fig"],
    }
    return write_text_corpus(tmp_path / "corpus", subjects)
