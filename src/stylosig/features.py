"""Feature extraction: word n-grams, syntactic n-grams, count matrices, profile vocabularies.

A feature's name is its labels joined with the unit separator (U+001F),
which no label holds, so multi-word features can never collide with each
other or with single tokens.  Extraction counts integer codes; label ids are
numbered in string order, so columns are ordered as their names without
making them, and names are decoded only where they are written or looked up.
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
# ASCII bytes to token bytes: A-Z lowered, a-z and 0-9 kept, every other byte a space
_ASCII_TOKENS = bytes(c | 0x20 if 65 <= c <= 90 else c if 97 <= c <= 122 or 48 <= c <= 57 else 32 for c in range(256))

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
    """Lowercase and split on anything that is not a letter or digit.

    ASCII text goes through a byte table, which gives the regex's tokens.
    """
    if text.isascii():
        return text.encode().translate(_ASCII_TOKENS).decode().split()
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
    """Feature counts of a document list: row i is document i, column j counts the gram ``grams[j]``.

    Extracted without an index, the columns are in string order, the tie order of ``build_vocabulary``.
    Extracted through an index, the columns are the index's, whose features the caller holds:
    ``labels`` and ``grams`` are None and there is nothing to decode.
    """

    model: FeatureModel
    labels: np.ndarray | None  # the label strings (object), ascending
    grams: np.ndarray | None  # (features, max order) label ids of each column, padded with -1
    counts: sparse.csr_array  # (documents, features) int64
    mass: np.ndarray  # per document: every extracted count, features outside the columns included
    tokens: int  # extracted positions: tokens, or tree nodes for sn-grams

    def decode(self, columns) -> tuple[str, ...]:
        """The feature strings of ``columns``."""
        return tuple(_join(self.labels, self.grams[np.asarray(columns, dtype=np.int64)]))


def _join(labels: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """Each row of label ids as a feature string (object array), one join per gram order."""
    strings, width = np.empty(len(grams), dtype=object), (grams >= 0).sum(axis=1)
    for k in np.unique(width):
        at = width == k
        strings[at] = list(map(SEP.join, zip(*labels[grams[at, :k]].T)))
    return strings


def _positions(model: FeatureModel, docs: Sequence[Document]):
    """The distinct labels, ascending; the label id and predecessor of every position; each document's position count.

    The predecessor is the previous token (word n-grams) or the head (syntactic
    n-grams), -1 for none.  Labels are interned one document at a time, then
    numbered in string order.
    """
    ids: dict[str, int] = {}
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
    names = np.array(sorted(ids), dtype=object)
    rank = np.empty(len(ids), dtype=np.int32)
    rank[np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(ids))] = np.arange(len(ids))
    label = rank[np.concatenate(labels)]
    if model.family == NGRAM_FAMILY:
        pred = np.arange(-1, label.size - 1)
        pred[(np.cumsum(lengths) - lengths)[lengths > 0]] = -1
    else:
        pred = np.array(heads, dtype=np.int64)
    return names, label, pred, lengths


def _label_ids(blocks, tables, wanted: np.ndarray, width: int) -> np.ndarray:
    """The label ids of each ``wanted`` gram id (ascending), walked back from its last label to its first, padded with -1."""
    grams = np.full((wanted.size, width), -1, dtype=np.int32)
    for k, lo, hi in blocks:
        start, stop = np.searchsorted(wanted, (lo, hi))
        codes = wanted[start:stop] - lo
        for j in range(k - 1, 0, -1):
            prefix, last = tables[j - 1]  # order j + 1
            grams[start:stop, j] = last[codes]
            codes = prefix[codes]
        grams[start:stop, 0] = codes
    return grams


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
    Label ids are in string order and every label character sorts above
    ``SEP``, so the order of codes, and of label-id tuples padded with -1
    across orders, is the order of the feature strings.
    """
    names, label, pred, lengths = _positions(model, docs)
    stride = names.size + label.size * len(model.orders) + 1  # exceeds every gram id
    row = np.repeat(np.arange(len(docs)) * stride, lengths)
    code, tables, keys, blocks, n_grams = label, [], [np.zeros(0, dtype=np.int64)], [], 0
    for k in range(1, max(model.orders) + 1):
        if k > 1:
            has = pred >= 0
            has[has] = code[pred[has]] >= 0
            if not has.any():
                break  # no chain reaches order k, so none reaches a higher one
            table, dense = np.unique(code[pred[has]].astype(np.int64) * names.size + label[has], return_inverse=True)
            tables.append(np.divmod(table, names.size))  # (prefix code, last label) of each order-k code
            code = np.full(label.size, -1, dtype=np.int32)
            code[has] = dense
        if k in model.orders:
            at = code >= 0
            keys.append(row[at] + n_grams + code[at])  # document * stride + gram id
            blocks.append((k, n_grams, n_grams + (names.size if k == 1 else table.size)))
            n_grams = blocks[-1][2]
    del label, pred, code, row
    keys, hits = np.unique(np.concatenate(keys), return_counts=True)
    rows, gram = np.divmod(keys, stride)
    del keys
    column = np.full(n_grams, -1, dtype=np.int64)
    if index is None:  # the columns: every gram of the indexed documents, in label-id tuple order
        indexed = gram[rows < (len(docs) if n_indexed is None else n_indexed)]
        wanted = np.flatnonzero(np.bincount(indexed, minlength=n_grams))
        grams = _label_ids(blocks, tables, wanted, max(model.orders))
        order = np.lexsort(grams.T[::-1])
        grams = grams[order]
        n_columns = wanted.size
        column[wanted[order]] = np.arange(n_columns)
    else:  # every gram of the batch, looked up in the index by its string
        strings = _join(names, _label_ids(blocks, tables, np.arange(n_grams), max(model.orders)))
        column[:] = [index.get(f, -1) for f in strings]
        names = grams = None
        n_columns = len(index)
    mass = np.bincount(rows, weights=hits, minlength=len(docs)).astype(np.int64)
    cols = column[gram]
    kept = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[kept], minlength=len(docs)))])
    counts = sparse.csr_array((hits[kept], cols[kept], indptr), shape=(len(docs), n_columns))
    counts.sort_indices()  # columns are not numbered in gram id order
    return FeatureMatrix(model, names, grams, counts, mass, int(lengths.sum()))


def build_vocabulary(matrix: FeatureMatrix, totals: np.ndarray, m: int) -> np.ndarray:
    """The top m columns of ``matrix`` with a nonzero count in ``totals``: most frequent first, ties in column order.

    No such column is a DataError.  Column order is string order, and the
    columns' features, ``matrix.decode(columns)``, make a ``Vocabulary`` where one is saved.
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
