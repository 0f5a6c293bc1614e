"""Seeded input generators for the benchmark workloads.

Texts are drawn from a Zipf distribution over a fixed synthetic word list,
with each author's own skew (a few hundred favourite words weighted up),
so every document of an author differs, the pooled vocabulary grows with
the corpus, and test documents carry out-of-vocabulary mass.  Signatures
follow the capture-file generator of ``scripts/demo_chimeric.py``: each
writer favours one heading, with generous angular noise.

Only numpy is used, so generation never touches the program under test.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

WORD_TYPES = 20_000
ZIPF_EXPONENT = 1.1
SKEW_WORDS = 200
SKEW_WEIGHT = 3.0
WORDS_PER_LINE = 15

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def word_list(n: int = WORD_TYPES) -> list[str]:
    """``n`` distinct three-syllable pseudo-words, in a fixed order."""
    base = len(_SYLLABLES)
    if n > base**3:
        raise ValueError(f"at most {base**3} words")
    return [
        _SYLLABLES[i // base**2] + _SYLLABLES[(i // base) % base] + _SYLLABLES[i % base]
        for i in range(n)
    ]


def author_cdfs(rng: np.random.Generator, n_authors: int) -> np.ndarray:
    """One cumulative word distribution per author: Zipf plus a private skew."""
    base = 1.0 / np.arange(1, WORD_TYPES + 1) ** ZIPF_EXPONENT
    cdfs = np.empty((n_authors, WORD_TYPES))
    for a in range(n_authors):
        weights = base.copy()
        weights[rng.choice(WORD_TYPES, SKEW_WORDS, replace=False)] *= SKEW_WEIGHT
        cdf = np.cumsum(weights)
        cdfs[a] = cdf / cdf[-1]
    return cdfs


def sample_text(rng: np.random.Generator, cdf: np.ndarray, words: list[str], n_tokens: int) -> str:
    """``n_tokens`` words from one author's distribution, as short lines."""
    ids = np.minimum(np.searchsorted(cdf, rng.random(n_tokens), side="right"), len(cdf) - 1)
    tokens = [words[i] for i in ids]
    lines = [
        " ".join(tokens[i : i + WORDS_PER_LINE]) + "."
        for i in range(0, n_tokens, WORDS_PER_LINE)
    ]
    return "\n".join(lines) + "\n"


def write_corpus(
    root: Path,
    rng: np.random.Generator,
    cdfs: np.ndarray,
    docs_per_author: int,
    doc_tokens: int,
) -> None:
    """One directory per author, ``docs_per_author`` documents each."""
    words = word_list()
    for a, cdf in enumerate(cdfs):
        author_dir = root / f"author{a:03d}"
        author_dir.mkdir(parents=True)
        for d in range(docs_per_author):
            text = sample_text(rng, cdf, words, doc_tokens)
            (author_dir / f"doc{d:02d}.txt").write_text(text, encoding="utf-8")


def write_signatures(root: Path, rng: np.random.Generator, n_writers: int, samples_per_writer: int) -> None:
    """``U{w}S{s}.txt`` capture files with one favoured heading per writer."""
    root.mkdir(parents=True)
    for w in range(1, n_writers + 1):
        base = 2.0 * math.pi * (w - 1) / n_writers
        for s in range(1, samples_per_writer + 1):
            n_points = int(rng.integers(60, 90))
            angles = base + rng.normal(0.0, 1.4, n_points)
            steps = rng.uniform(4.0, 9.0, n_points)
            x, y, t = 1000, 1000, 0
            lines = []
            for i in range(n_points):
                pen = 0 if n_points // 3 <= i < n_points // 3 + 4 else 1
                lines.append(f"{x} {y} {t} {pen}")
                x += int(round(steps[i] * math.cos(angles[i]))) or 1
                y += int(round(steps[i] * math.sin(angles[i])))
                t += 10
            (root / f"U{w}S{s}.txt").write_text(f"{n_points}\n" + "\n".join(lines) + "\n", encoding="utf-8")


def write_questioned(
    root: Path,
    rng: np.random.Generator,
    cdfs: np.ndarray,
    n_texts: int,
    base_tokens: int,
    length_factors: tuple[float, ...],
) -> None:
    """Questioned texts ``q000.txt``, ``q001.txt``, ... by known authors.

    Text ``i`` is by author ``i % n_authors`` and has
    ``length_factors[i % len(length_factors)] * base_tokens`` tokens, so
    the length mix is the same for every seed and only the words change.
    """
    words = word_list()
    root.mkdir(parents=True)
    for i in range(n_texts):
        n_tokens = max(1, round(length_factors[i % len(length_factors)] * base_tokens))
        text = sample_text(rng, cdfs[i % len(cdfs)], words, n_tokens)
        (root / f"q{i:03d}.txt").write_text(text, encoding="utf-8")
