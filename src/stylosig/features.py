"""Feature extraction: word n-grams, syntactic n-grams, count matrices, profile vocabularies.

Features are strings; the parts of a gram are joined with the unit
separator (U+001F) so multi-word features can never collide with each
other or with single tokens.  Extraction counts integer codes and makes
strings only for the matrix columns.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import count, filterfalse
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .corpus import Document
from .errors import DataError

SEP = "\x1f"

_TOKEN_RE = re.compile(r"[^\W_]+")

NGRAM_FAMILY = "ngram"
SNGRAM_FAMILY = "sngram"
FAMILIES = (NGRAM_FAMILY, SNGRAM_FAMILY)
_NODE_LABELS = {
    "word": lambda token: token.form.lower(),
    "lemma": lambda token: token.lemma.lower(),
    "upos": attrgetter("upos"),
    "deprel": attrgetter("deprel"),
}
SNGRAM_ELEMENTS = tuple(_NODE_LABELS)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on anything that is not a letter or digit."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class FeatureModel:
    """What to count in a document.

    family "ngram" counts word n-grams (runs of k tokens) of every order in ``orders``,
    a union profile when more than one; family "sngram" counts continuous syntactic
    n-grams (head-to-dependent chains of k nodes, root-side first) over ``element`` labels.
    """

    family: str
    orders: tuple[int, ...]
    element: str = "word"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown feature family {self.family!r}")
        if not self.orders or any(k < 1 for k in self.orders):
            raise ValueError("orders must be a non-empty tuple of positive ints")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError("orders must not repeat")
        if self.element not in SNGRAM_ELEMENTS:
            raise ValueError(f"unknown sn-gram element {self.element!r}")


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
    """Feature counts of a document list: row i is document i, column j counts ``features[j]``.

    Extracted without an index, the columns are in string order, the tie order of ``build_vocabulary``.
    """

    model: FeatureModel
    features: tuple[str, ...]
    counts: sparse.csr_array  # (documents, features) int64
    mass: np.ndarray  # per document: every extracted count, features outside the columns included
    tokens: int  # extracted positions: tokens, or tree nodes for sn-grams


def _positions(model: FeatureModel, docs: Sequence[Document], ids: dict[str, int]):
    """Label id and predecessor of every position, and each document's position count.

    The predecessor is the previous token (word n-grams) or the head (syntactic
    n-grams), -1 for none.  Labels get ids in first-seen order, one document at a time.
    """
    labels, heads = [np.zeros(0, dtype=np.int32)], []
    lengths = np.zeros(len(docs), dtype=np.int64)
    for i, doc in enumerate(docs):
        if model.family == NGRAM_FAMILY:
            tokens = tokenize(doc.text)
        elif doc.tree is None:
            raise DataError(f"document {doc.doc_id} has no dependency tree")
        else:
            tokens = []
            for sentence in doc.tree:
                start = len(heads)
                heads.extend(start + t.head if t.head >= 0 else -1 for t in sentence.tokens)
                tokens.extend(map(_NODE_LABELS[model.element], sentence.tokens))
        ids.update(zip(filterfalse(ids.__contains__, dict.fromkeys(tokens)), count(len(ids))))
        labels.append(np.fromiter(map(ids.__getitem__, tokens), dtype=np.int32, count=len(tokens)))
        lengths[i] = len(tokens)
    label = np.concatenate(labels)
    if model.family == NGRAM_FAMILY:
        pred = np.arange(-1, label.size - 1)
        pred[(np.cumsum(lengths) - lengths)[lengths > 0]] = -1
    else:
        pred = np.array(heads, dtype=np.int64)
    return label, pred, lengths


def extract_matrix(model: FeatureModel, docs: Sequence[Document], n_indexed=None, index=None) -> FeatureMatrix:
    """Extract each document once into a sparse count matrix.

    Without ``index``, the columns are the features of the first
    ``n_indexed`` documents (default: all), in string order; the others lose
    the features outside them, which no vocabulary ranked on the indexed
    documents can hold.  With ``index`` (feature -> column), its columns, and
    no document adds to it.  ``mass`` counts every extracted feature either way.

    The order-k code at a position is the dense rank of (the order-(k-1)
    code at its predecessor, its label id): one ``np.unique`` per order for
    both families.  Gram ids number the codes of each counted order in turn.
    """
    ids: dict[str, int] = {}
    label, pred, lengths = _positions(model, docs, ids)
    stride = len(ids) + label.size * len(model.orders) + 1  # exceeds every gram id
    row = np.repeat(np.arange(len(docs)) * stride, lengths)
    code, tables, keys, blocks, n_grams = label, [], [np.zeros(0, dtype=np.int64)], [], 0
    for k in range(1, max(model.orders) + 1):
        if k > 1:
            has = pred >= 0
            has[has] = code[pred[has]] >= 0
            if not has.any():
                break  # no chain reaches order k, so none reaches a higher one
            table, dense = np.unique(code[pred[has]].astype(np.int64) * len(ids) + label[has], return_inverse=True)
            tables.append(np.divmod(table, len(ids)))  # (prefix code, last label) of each order-k code
            code = np.full(label.size, -1, dtype=np.int32)
            code[has] = dense
        if k in model.orders:
            at = code >= 0
            keys.append(row[at] + n_grams + code[at])  # document * stride + gram id
            blocks.append((k, n_grams, n_grams + (len(ids) if k == 1 else table.size)))
            n_grams = blocks[-1][2]
    del label, pred, code, row
    keys, hits = np.unique(np.concatenate(keys), return_counts=True)
    rows, gram = np.divmod(keys, stride)
    del keys
    if index is None:  # the columns: every gram of the indexed documents
        indexed = gram[rows < (len(docs) if n_indexed is None else n_indexed)]
        wanted = np.flatnonzero(np.bincount(indexed, minlength=n_grams))
    else:  # every gram of the batch, looked up in the index below
        wanted = np.arange(n_grams)
    names, strings = np.array(list(ids), dtype=object), []
    for k, lo, hi in blocks:
        codes, parts = wanted[(wanted >= lo) & (wanted < hi)] - lo, []
        for prefix, last in reversed(tables[: k - 1]):  # walk back from the last label to the first
            parts.append(names[last[codes]])
            codes = prefix[codes]
        strings += map(SEP.join, zip(names[codes], *reversed(parts)))
    if index is None:
        order = sorted(range(len(strings)), key=strings.__getitem__)
        features, column = tuple(map(strings.__getitem__, order)), np.full(n_grams, -1, dtype=np.int64)
        column[wanted[order]] = np.arange(len(order))
    else:
        features, column = tuple(index), np.array([index.get(f, -1) for f in strings], dtype=np.int64)
    mass = np.bincount(rows, weights=hits, minlength=len(docs)).astype(np.int64)
    cols = column[gram]
    kept = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=len(docs)))])
    counts = sparse.csr_array((hits[kept], cols[kept], indptr), shape=(len(docs), len(features)))
    counts.sort_indices()  # columns are not numbered in gram id order
    return FeatureMatrix(model, features, counts, mass, int(lengths.sum()))


def build_vocabulary(matrix: FeatureMatrix, totals: np.ndarray, m: int) -> np.ndarray:
    """The top m columns of ``matrix`` with a nonzero count in ``totals``: most frequent first, ties in column order.

    No such column is a DataError.  Column order is string order, and the
    columns' features, ``matrix.features[j]``, make a ``Vocabulary`` where one is saved.
    """
    if m < 1:
        raise ValueError("profile size must be >= 1")
    seen = np.flatnonzero(totals)
    if seen.size == 0:
        orders = ",".join(map(str, matrix.model.orders))
        raise DataError(f"empty vocabulary: the training documents have no {matrix.model.family} of order {orders}")
    return seen[np.argsort(-totals[seen], kind="stable")][:m]


def write_feature_tsv(pairs, path: str | Path) -> None:
    """Write (feature, count) rows as a two-column TSV."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(pairs)
