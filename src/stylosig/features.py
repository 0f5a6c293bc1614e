"""Feature extraction: word n-grams, syntactic n-grams, count matrices, profile vocabularies.

Features are strings; the parts of a gram are joined with the unit
separator (U+001F) so multi-word features can never collide with each
other or with single tokens.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .conllu import DepSentence
from .corpus import Document
from .errors import DataError

SEP = "\x1f"

_TOKEN_RE = re.compile(r"[^\W_]+")

NGRAM_FAMILY = "ngram"
SNGRAM_FAMILY = "sngram"
SNGRAM_ELEMENTS = ("word", "lemma", "upos", "deprel")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on anything that is not a letter or digit."""
    return _TOKEN_RE.findall(text.lower())


def extract_ngrams(tokens: list[str], k: int) -> Counter:
    """Count contiguous k-grams; a text shorter than k yields nothing."""
    if k < 1:
        raise ValueError("n-gram order must be >= 1")
    if k == 1:
        return Counter(tokens)
    return Counter(SEP.join(tokens[i : i + k]) for i in range(len(tokens) - k + 1))


def _node_label(token, element: str) -> str:
    if element == "word":
        return token.form.lower()
    if element == "lemma":
        return token.lemma.lower()
    if element == "upos":
        return token.upos
    if element == "deprel":
        return token.deprel
    raise ValueError(f"unknown sn-gram element {element!r}")


def extract_sngrams(sentence: DepSentence, element: str, k: int) -> Counter:
    """Count continuous syntactic k-grams of one sentence.

    A syntactic k-gram is a head-to-dependent chain of exactly k nodes,
    written root-side first.  Each node closes exactly one chain (the one
    ending at it), so a sentence yields one k-gram per token at depth
    >= k-1 and the walk below touches every node once.
    """
    if k < 1:
        raise ValueError("sn-gram order must be >= 1")
    if element not in SNGRAM_ELEMENTS:
        raise ValueError(f"unknown sn-gram element {element!r}")
    tokens = sentence.tokens
    n = len(tokens)
    children: list[list[int]] = [[] for _ in range(n)]
    root = -1
    for i, tok in enumerate(tokens):
        if tok.head == -1:
            if root != -1:
                raise ValueError("sentence has multiple roots")
            root = i
        else:
            children[tok.head].append(i)
    if root == -1:
        raise ValueError("sentence has no root")

    counts: Counter = Counter()
    labels = [_node_label(t, element) for t in tokens]
    # iterative DFS keeping the ancestor chain; cycles would revisit a node
    # and overflow the chain past n, so guard on its length
    chain: list[int] = []
    stack: list[tuple[int, int]] = [(root, 0)]  # (node, next child index)
    visited = 0
    while stack:
        node, ci = stack[-1]
        if ci == 0:
            chain.append(node)
            visited += 1
            if len(chain) > n:
                raise ValueError("dependency structure is cyclic")
            if len(chain) >= k:
                counts[SEP.join(labels[j] for j in chain[-k:])] += 1
        if ci < len(children[node]):
            stack[-1] = (node, ci + 1)
            stack.append((children[node][ci], 0))
        else:
            stack.pop()
            chain.pop()
    if visited != n:
        raise ValueError("dependency structure is not a single tree")
    return counts


@dataclass(frozen=True)
class FeatureModel:
    """What to count in a document.

    family "ngram" counts word n-grams of every order in ``orders`` (a
    union profile when more than one); family "sngram" counts continuous
    syntactic n-grams over the labels picked by ``element``.
    """

    family: str
    orders: tuple[int, ...]
    element: str = "word"

    def __post_init__(self):
        if self.family not in (NGRAM_FAMILY, SNGRAM_FAMILY):
            raise ValueError(f"unknown feature family {self.family!r}")
        if not self.orders or any(k < 1 for k in self.orders):
            raise ValueError("orders must be a non-empty tuple of positive ints")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError("orders must not repeat")
        if self.element not in SNGRAM_ELEMENTS:
            raise ValueError(f"unknown sn-gram element {self.element!r}")

    def extract(self, doc: Document) -> Counter:
        counts: Counter = Counter()
        if self.family == NGRAM_FAMILY:
            tokens = tokenize(doc.text)
            for k in self.orders:
                counts.update(extract_ngrams(tokens, k))
        else:
            if doc.tree is None:
                raise DataError(f"document {doc.doc_id} has no dependency tree")
            for sentence in doc.tree:
                for k in self.orders:
                    counts.update(extract_sngrams(sentence, self.element, k))
        return counts


@dataclass(frozen=True)
class Vocabulary:
    """A frozen feature profile: the top-m training features, most frequent first."""

    model: FeatureModel
    profile_size: int
    features: tuple[str, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return {f: i for i, f in enumerate(self.features)}

    def __len__(self):
        return len(self.features)


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature counts of a document list: row i is document i, column j counts ``features[j]``."""

    model: FeatureModel
    features: tuple[str, ...]
    counts: sparse.csr_array  # (documents, features) int64
    mass: np.ndarray  # per document: every extracted count, features outside the columns included

    @cached_property
    def lex_rank(self) -> np.ndarray:
        """Position of each column's feature in ascending string order."""
        return np.argsort(sorted(range(len(self.features)), key=self.features.__getitem__))


def extract_matrix(model: FeatureModel, docs: Sequence[Document], n_indexed=None, index=None) -> FeatureMatrix:
    """Extract each document once into a sparse count matrix over the columns of ``index``.

    The first ``n_indexed`` documents add their features to ``index`` in
    first-seen order: by default all of them to a new index, none to a
    given one.  The others lose the features outside it, which no
    vocabulary ranked on the indexed documents can hold; ``mass`` still
    counts them.
    """
    if n_indexed is None:
        n_indexed = len(docs) if index is None else 0
    index = {} if index is None else index
    add, get = index.setdefault, index.get
    cols: list[int] = []
    vals: list[int] = []
    lengths = np.zeros(len(docs), dtype=np.int64)
    for i, doc in enumerate(docs):
        counts = model.extract(doc)
        if i < n_indexed:
            cols.extend([add(f, len(index)) for f in counts])
        else:
            cols.extend([get(f, -1) for f in counts])  # -1: outside the index, dropped below
        vals.extend(counts.values())
        lengths[i] = len(counts)
    col = np.array(cols, dtype=np.int64)
    val = np.array(vals, dtype=np.int64)
    row = np.repeat(np.arange(len(docs)), lengths)
    kept = col >= 0
    counts = sparse.csr_array((val[kept], (row[kept], col[kept])), shape=(len(docs), len(index)))
    mass = np.bincount(row, weights=val, minlength=len(docs)).astype(np.int64)
    return FeatureMatrix(model, tuple(index), counts, mass)


def build_vocabulary(matrix: FeatureMatrix, totals: np.ndarray, m: int) -> tuple[Vocabulary, np.ndarray]:
    """Keep the top m columns with a nonzero training count in ``totals``: most frequent first, ties lexicographic.

    Returns the vocabulary and its columns in ``matrix``; no such column is a DataError.
    """
    if m < 1:
        raise ValueError("profile size must be >= 1")
    seen = np.flatnonzero(totals)
    if seen.size == 0:
        orders = ",".join(map(str, matrix.model.orders))
        raise DataError(f"empty vocabulary: the training documents have no {matrix.model.family} of order {orders}")
    ranked = seen[np.lexsort((matrix.lex_rank[seen], -totals[seen]))][:m]
    return Vocabulary(matrix.model, m, tuple(matrix.features[j] for j in ranked)), ranked


def write_feature_tsv(pairs, path: str | Path) -> None:
    """Write (feature, count) rows as a two-column TSV."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
        for feature, count in pairs:
            writer.writerow([feature, count])


def read_feature_tsv(path: str | Path) -> list[tuple[str, int]]:
    path = Path(path)
    out = []
    with path.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh, delimiter="\t"):
            if len(row) != 2:
                raise DataError(f"{path}: expected 2 columns, got {len(row)}")
            out.append((row[0], int(row[1])))
    return out
