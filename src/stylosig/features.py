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
from itertools import chain
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .corpus import Document
from .errors import DataError

SEP = "\x1f"

_TOKEN_RE = re.compile(r"[^\W_]+")
# ASCII bytes to token bytes: A-Z lowered, a-z and 0-9 kept, every other byte a space
_ASCII_TOKENS = bytes(c | 0x20 if 65 <= c <= 90 else c if 97 <= c <= 122 or 48 <= c <= 57 else 32 for c in range(256))
# the label packer: document bytes per chunk, the spaces that keep every 8-byte read
# in bounds, and _KEEP[v], the mask of a big-endian word's first v bytes
_CHUNK_BYTES = 1 << 20
_PAD = b" " * 24
_KEEP = np.array([((1 << 8 * v) - 1) << (64 - 8 * v) for v in range(9)], dtype=np.uint64)
# keys whose bound is at most this are formed as int32, others as int64
_INT32_KEYS = np.iinfo(np.int32).max

NGRAM_FAMILY = "ngram"
SNGRAM_FAMILY = "sngram"
FAMILIES = (NGRAM_FAMILY, SNGRAM_FAMILY)
# each sn-gram element's column of a ``conllu.DepTree``, and whether its labels are lowercased
_NODE_COLUMNS = {"word": ("form", True), "lemma": ("lemma", True), "upos": ("upos", False), "deprel": ("deprel", False)}
SNGRAM_ELEMENTS = tuple(_NODE_COLUMNS)


def _token_bytes(text: str) -> bytes:
    """The lowercased tokens of ``text`` as UTF-8 between spaces: a byte table for ASCII text, which gives the regex's tokens, else the regex."""
    if text.isascii():
        return text.encode().translate(_ASCII_TOKENS)
    return " ".join(_TOKEN_RE.findall(text.lower())).encode()


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

    def __len__(self):
        return len(self.features)


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A compressed sparse row matrix of counts, as scipy lays one out.

    Row i stores ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, in stored order: the order in
    which a sparse product sums the row.  The arrays are kept as given, so
    the index arrays keep the width their maker chose.
    ``classifiers.posterior`` hands them to scipy's CSR product kernel.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    format: ClassVar[str] = "csr"  # scipy's name for the layout; classifiers refuses every other

    @property
    def nnz(self) -> int:
        return self.data.size

    def take_rows(self, rows) -> CsrMatrix:
        """``rows``, in their order and with repeats, each keeping its stored entries.

        Each run of consecutive rows is one slice of the arrays, and the
        slices are concatenated: no per-entry index is built.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and not 0 <= rows.min() <= rows.max() < self.shape[0]:
            raise IndexError(f"row take outside 0..{self.shape[0] - 1}")
        # the first and the last row of each run: rows are at least 0, so -2 never continues a run
        starts = self.indptr[rows[np.diff(rows, prepend=-2) != 1]].tolist()
        stops = self.indptr[rows[np.diff(rows, append=-2) != 1] + 1].tolist()
        spans = [slice(a, b) for a, b in zip(starts, stops)]
        indptr = np.zeros(rows.size + 1, dtype=self.indptr.dtype)
        np.cumsum(np.diff(self.indptr)[rows], out=indptr[1:])
        data = np.concatenate([self.data[:0], *(self.data[span] for span in spans)])
        indices = np.concatenate([self.indices[:0], *(self.indices[span] for span in spans)])
        return CsrMatrix(data, indices, indptr, (rows.size, self.shape[1]))

    def column_sums(self) -> np.ndarray:
        """Each column's total, int64; integer counts add to the same total in any order."""
        totals = np.zeros(self.shape[1], dtype=np.int64)
        np.add.at(totals, self.indices, self.data)
        return totals


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature counts of a document list: row i is document i, column j counts the gram ``grams[j]``.

    Extracted without ``features``, the columns are in string order, the tie order of ``build_vocabulary``.
    Extracted onto given features, the columns are those features in their order, which the caller
    holds: ``labels`` and ``grams`` are None and there is nothing to decode.
    """

    model: FeatureModel
    labels: np.ndarray | None  # the label strings (object), ascending
    grams: np.ndarray | None  # (features, highest order with a gram) label ids of each column, padded with -1
    counts: CsrMatrix  # (documents, features): int64 data, index arrays int32 where the keys fit, else int64
    mass: np.ndarray  # per document: every extracted count, features outside the columns included
    tokens: int  # extracted positions: tokens, or tree nodes for sn-grams

    def decode(self, columns) -> tuple[str, ...]:
        """The feature strings of ``columns``."""
        return tuple(_join(self.labels, self.grams[np.asarray(columns, dtype=np.int64)]))


def _join(labels: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """Each row of label ids as a feature string (object array), one join per gram order."""
    strings, width = np.empty(len(grams), dtype=object), (grams >= 0).sum(axis=1)
    for k in np.flatnonzero(np.bincount(width)):  # not np.unique, which imports numpy.ma
        at = width == k
        strings[at] = list(map(SEP.join, zip(*labels[grams[at, :k]].T)))
    return strings


def _chain_preds(lengths: np.ndarray) -> np.ndarray:
    """The predecessor of every position of chains of ``lengths`` positions laid end to end: the one before, -1 at each chain's start."""
    pred = np.arange(-1, lengths.sum() - 1)
    pred[(np.cumsum(lengths) - lengths)[lengths > 0]] = -1
    return pred


def _feature_chains(model: FeatureModel, features: Sequence[str]):
    """The labels of ``features`` as one blob in their documents' form, and each feature's order; None if ``model`` never extracts some feature.

    The features are joined by a byte that no label of the family holds, a
    space between word n-grams and a line feed between sn-grams, so every
    label ends at a ``SEP``, a joint or the end.  The blob holds word n-gram
    labels between spaces, or each sn-gram label followed by ``SEP``.
    Extraction gives features of the model's orders only, word labels that
    are nonempty tokens, and sn-gram labels without a control character,
    lowercased where the element is.
    """
    if not features:
        return b"", np.zeros(0, dtype=np.int64)
    ngram = model.family == NGRAM_FAMILY
    joint = " " if ngram else "\n"
    text = joint.join(features)
    raw = text.encode()
    codes = np.frombuffer(raw, dtype=np.uint8)
    # where labels end; a control byte other than SEP or the joint ends one too, and is refused below
    stops = np.flatnonzero(codes <= ord(" ") if ngram else codes < ord(" "))
    marks = codes[stops]
    joints = np.flatnonzero(marks == ord(joint))
    orders = np.diff(joints, prepend=-1, append=stops.size)  # the labels up to each joint, and after the last
    if joints.size != len(features) - 1 or not set(np.flatnonzero(np.bincount(orders)).tolist()) <= set(model.orders):
        return None
    if ngram:
        blob = raw.replace(SEP.encode(), b" ")
        empty = (np.diff(stops, prepend=-1, append=len(raw)) == 1).any()
        return None if empty or _token_bytes(blob.decode()) != blob else (blob, orders)
    if np.count_nonzero(marks != ord(SEP)) != joints.size or (_NODE_COLUMNS[model.element][1] and text.lower() != text):
        return None
    return raw.replace(joint.encode(), SEP.encode()) + SEP.encode(), orders


def _positions(model: FeatureModel, docs: Sequence[Document], features: Sequence[str] = ()):
    """The distinct labels, ascending; the label id and predecessor of every position; each chain's position count.

    The chains are each feature of ``features`` and then each document.  The
    predecessor is the previous token (word n-grams and features) or the
    head (syntactic n-grams), -1 for none.  The features become one blob
    and each document its own, its tokens between spaces or each of its node
    labels followed by ``SEP``, and one packer numbers the labels of the whole batch.
    A feature that ``model`` never extracts is a ValueError naming it.
    """
    chains = _feature_chains(model, features)
    if chains is None:
        bad = next(f for f in features if _feature_chains(model, (f,)) is None)
        element = f" of {model.element} labels" if model.family == SNGRAM_FAMILY else ""
        raise ValueError(f"{model.family}{element} of order {','.join(map(str, model.orders))} gives no feature {bad!r}")
    feature_blob, orders = chains
    if model.family == NGRAM_FAMILY:
        names, label, lengths = _packed_labels([feature_blob, *(_token_bytes(doc.text) for doc in docs)], ended=False)
        lengths = np.concatenate([orders, lengths[1:]])
        return names, label, _chain_preds(lengths), lengths
    for doc in docs:
        if doc.tree is None:
            raise DataError(f"document {doc.doc_id} has no dependency tree")
    column, lowered = _NODE_COLUMNS[model.element]
    sizes = np.array([len(doc.tree.head) for doc in docs], dtype=np.int64)
    heads = np.fromiter(chain.from_iterable(doc.tree.head for doc in docs), dtype=np.int64, count=sizes.sum())
    # each document's heads count from its first node: offset them by the positions before it
    heads = np.where(heads >= 0, heads + np.repeat(np.cumsum(sizes) - sizes + orders.sum(), sizes), -1)
    blobs = [SEP.join((*getattr(doc.tree, column), "")) for doc in docs]  # each label followed by SEP
    # SEP is neither cased nor case-ignorable, so a joined column lowercases as its labels one by one
    names, label, lengths = _packed_labels([feature_blob, *((blob.lower() if lowered else blob).encode() for blob in blobs)], ended=True)
    return names, label, np.concatenate([_chain_preds(orders), heads]), np.concatenate([orders, lengths[1:]])


def _packed_labels(blobs: list[bytes], ended: bool):
    """``_positions``' labels, label ids and lengths for documents' bytes, with no object per label of up to 24 bytes.

    Each such label's bytes, zero-padded, are read as big-endian 64-bit
    words, so integer order is string order, and the empty label is all
    zeros.  Chunks of documents are numbered on their own, then their
    distinct keys once more, to bound the per-byte arrays.  A longer label is
    decoded, and the distinct ones are merged into the others by string
    comparison: UTF-8 byte order is code-point order.
    """
    # a chunk ends with each document whose bytes reach a further multiple of _CHUNK_BYTES
    crossed = np.cumsum([len(blob) + 1 for blob in blobs]) // _CHUNK_BYTES
    bounds = [0, *np.flatnonzero(np.diff(crossed, prepend=0)) + 1, len(blobs)]
    keys, ids, longs, long_at, lengths, n_short = [], [], [], [], [], 0
    for lo, hi in zip(bounds, bounds[1:]):
        words, chunk_longs, at, n_tokens = _packed_tokens(blobs[lo:hi], ended)
        distinct, inverse = _unique_rows(words)
        keys.append(distinct)
        ids.append(inverse.astype(np.int32))
        longs.extend(chunk_longs)
        long_at.append(at + n_short)
        lengths.append(n_tokens)
        n_short += inverse.size
    width, starts = max(map(len, keys)), np.cumsum([0] + [len(words[0]) for words in keys])
    # every chunk's keys, padded with zero words to the widest
    words = [np.concatenate([w[j] if j < len(w) else np.zeros_like(w[0]) for w in keys]) for j in range(width)]
    distinct, inverse = _unique_rows(words)
    raw = np.stack(distinct, axis=1).astype(">u8").view(f"S{8 * width}").ravel()  # zero bytes drop off the end
    short = np.array(list(map(bytes.decode, raw.tolist())), dtype=object)
    long, long_inverse = np.unique(np.array(longs, dtype=object), return_inverse=True)
    below = np.searchsorted(short, long)  # the short labels below each long one
    names, long_rank = np.insert(short, below, long), below + np.arange(long.size)
    short_rank = np.delete(np.arange(names.size, dtype=np.int32), long_rank)
    label = np.concatenate([short_rank[inverse[a:b]][chunk] for a, b, chunk in zip(starts, starts[1:], ids)])
    if longs:
        label = np.insert(label, np.concatenate(long_at), long_rank[long_inverse])
    return names, label, np.concatenate(lengths)


def _packed_tokens(blobs: list[bytes], ended: bool):
    """The tokens of documents' bytes: those of up to 24 bytes as ``ceil(longest / 8)`` big-endian words, the longer as strings.

    A token is a run of bytes other than space, or, where ``ended``, the
    bytes before each ``SEP``.  Also gives where each longer token goes
    among the shorter ones (before the one at that index) and each
    document's token count.
    """
    joint = b"" if ended else b" "
    raw = joint.join([*blobs, _PAD])
    if ended:
        ends = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord(SEP))
        starts = np.concatenate([[0], ends + 1])[:-1]
    else:
        edges = np.flatnonzero(np.diff(np.frombuffer(raw, dtype=np.uint8) != 32, prepend=False))
        starts, ends = edges[0::2], edges[1::2]
    offsets = np.cumsum([0] + [len(blob) + len(joint) for blob in blobs])
    n_tokens, size = np.diff(np.searchsorted(starts, offsets)), ends - starts
    long = np.flatnonzero(size > 3 * 8)
    longs = [raw[a:b].decode() for a, b in zip(starts[long].tolist(), ends[long].tolist())]
    if longs:
        starts, size = np.delete(starts, long), np.delete(size, long)
    window = np.ndarray((len(raw) - 7,), dtype=">u8", buffer=raw, strides=(1,))  # the 8 bytes from each offset
    n_words = -(-int(size.max(initial=1)) // 8)
    words = [window[starts + 8 * j].astype(np.uint64) & _KEEP[np.clip(size - 8 * j, 0, 8)] for j in range(n_words)]
    return words, longs, long - np.arange(long.size), n_tokens


def _unique_rows(words: list[np.ndarray]):
    """The distinct rows of the uint64 columns ``words``, ascending, and the index of each row among them."""
    if len(words) == 1:
        distinct, inverse = np.unique(words[0], return_inverse=True)
        return [distinct], inverse
    order = np.lexsort(words[::-1])
    words = [column[order] for column in words]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.logical_or.reduce([column[1:] != column[:-1] for column in words])
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return [column[new] for column in words], inverse


def _key_dtype(bound: int) -> type:
    """The type of keys that lie below ``bound``: int32 while ``bound`` is at most ``_INT32_KEYS``, else int64."""
    return np.int32 if bound <= _INT32_KEYS else np.int64


def _label_ids(blocks, tables, wanted: np.ndarray) -> np.ndarray:
    """The label ids of each ``wanted`` gram id (ascending), walked back from its last label, padded with -1 to the highest order in ``blocks``."""
    grams = np.full((wanted.size, blocks[-1][0] if blocks else 1), -1, dtype=np.int32)
    for k, lo, hi in blocks:
        start, stop = np.searchsorted(wanted, (lo, hi))
        codes = wanted[start:stop] - lo
        for j in range(k - 1, 0, -1):
            prefix, last = tables[j - 1]  # order j + 1
            grams[start:stop, j] = last[codes]
            codes = prefix[codes]
        grams[start:stop, 0] = codes
    return grams


def extract_matrix(model: FeatureModel, docs: Sequence[Document], n_indexed=None, features=None) -> FeatureMatrix:
    """Extract each document once into a sparse count matrix.

    Without ``features``, the columns are the grams of the first
    ``n_indexed`` documents (default: all), in string order; the others lose
    the grams outside them, which no vocabulary ranked on the indexed
    documents can hold.  With ``features`` (feature strings in column order),
    those columns, and no document adds to them.  ``mass`` counts every
    extracted gram either way.

    The order-k code at a position is the dense rank of (the order-(k-1)
    code at its predecessor, its label id): one ``np.unique`` per order for
    both families.  Gram ids number the codes of each counted order in turn,
    and each gram id gets its column before the (document, column) keys are
    sorted in place and counted by run, so the CSR is built with its columns
    ascending.  Both keys are int32 where they fit, and the CSR's index
    arrays take the width of its keys.  Label ids are in string order and
    every label character sorts above ``SEP``, so the order of codes, and of
    label-id tuples padded with -1 across orders, is the order of the
    feature strings.

    Given features are chains ahead of the documents, numbered with them, so
    feature i's column is the gram id at its chain's last label, at its own
    order, and no feature string is made.  They add to no row.  A feature
    that ``model`` never extracts, or two features of one gram, is a ValueError.
    """
    n_features = 0 if features is None else len(features)
    names, label, pred, lengths = _positions(model, docs, () if features is None else features)
    orders, lengths = lengths[:n_features], lengths[n_features:]
    offset = int(orders.sum())  # the first document position
    code, tables, codes, blocks, n_grams = label, [], [], [], 0
    n_codes = names.size  # of the order below
    # a chain is never longer than its document or feature: no order above the longest one is numbered
    top = max((k for k in model.orders if k <= max(lengths.max(initial=0), orders.max(initial=0))), default=0)
    for k in range(1, top + 1):
        if k > 1:
            has = pred >= 0
            has[has] = code[pred[has]] >= 0
            if not has.any():
                break  # no chain reaches order k, so none reaches a higher one
            key = code[pred[has]].astype(_key_dtype(n_codes * names.size))
            key *= names.size
            key += label[has]
            table, dense = np.unique(key, return_inverse=True)
            del key
            tables.append(np.divmod(table, names.size))  # (prefix code, last label) of each order-k code
            n_codes = table.size
            code = np.full(label.size, -1, dtype=np.int32)
            code[has] = dense
        if k in model.orders:
            codes.append((n_grams, code))  # gram id = n_grams + code
            blocks.append((k, n_grams, n_grams + (names.size if k == 1 else table.size)))
            n_grams = blocks[-1][2]
    del label, pred, code
    if features is None:  # the columns: every gram of the indexed documents, in label-id tuple order
        indexed, n_indexed = np.zeros(n_grams, dtype=bool), int(lengths[:n_indexed].sum())
        for lo, code in codes:
            indexed[lo + code[:n_indexed][code[:n_indexed] >= 0]] = True
        wanted = np.flatnonzero(indexed)
        grams = _label_ids(blocks, tables, wanted)
        # big-endian bytes of the ids + 1 compare as the padded tuples; each order's block is
        # already sorted, so the stable sort only merges runs
        key = grams.astype(">u4")
        key += 1
        order = np.argsort(key.view(f"V{key.itemsize * key.shape[1]}").ravel(), kind="stable")
        del key
        grams = grams[order]
        n_columns = wanted.size
        column = np.full(n_grams, n_columns, dtype=np.int64)
        column[wanted[order]] = np.arange(n_columns)
    else:  # the columns: each feature's gram id, at the last label of its chain
        ends, gram = np.cumsum(orders) - 1, np.empty(n_features, dtype=np.int64)
        for (k, *_), (lo, code) in zip(blocks, codes):
            at = orders == k
            gram[at] = lo + code[ends[at]]
        repeats = np.count_nonzero(np.diff(np.sort(gram)) == 0)
        if repeats:
            raise ValueError(f"features repeat a string: {n_features - repeats} distinct of {n_features}")
        names = grams = None
        n_columns = n_features
        column = np.full(n_grams, n_columns, dtype=np.int64)
        column[gram] = np.arange(n_columns)
    # a gram outside the columns has column n_columns: counted in mass, then dropped
    stride = n_columns + 1
    width = _key_dtype(len(docs) * stride)
    column = column.astype(width, copy=False)
    row = np.repeat(np.arange(0, len(docs) * stride, stride, dtype=width), lengths)
    keys = [np.zeros(0, dtype=width)]
    for lo, code in codes:
        code = code[offset:]  # the documents' positions
        at = code >= 0
        keys.append(row[at] + column[lo + code[at]])  # document * stride + column
    del codes, row, column
    keys = np.concatenate(keys)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)  # the first key of each run of equal keys
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    distinct, n_keys = keys[starts], keys.size
    del keys
    hits = np.diff(starts, append=n_keys)  # the length of each run
    del starts
    rows, cols = np.divmod(distinct, stride)
    del distinct
    mass = np.bincount(rows, weights=hits, minlength=len(docs)).astype(np.int64)
    kept = cols < n_columns
    indptr = np.zeros(len(docs) + 1, dtype=width)
    np.cumsum(np.bincount(rows[kept], minlength=len(docs)), out=indptr[1:])
    counts = CsrMatrix(hits[kept], cols[kept], indptr, (len(docs), n_columns))
    return FeatureMatrix(model, names, grams, counts, mass, int(lengths.sum()))


def build_vocabulary(matrix: FeatureMatrix, totals: np.ndarray, m: int) -> np.ndarray:
    """The top m columns of ``matrix`` with a nonzero count in ``totals``: most frequent first, ties in column order.

    No such column is a DataError.  Column order is string order, and the
    columns' features, ``matrix.decode(columns)``, make a ``Vocabulary`` where one is saved.
    """
    if m < 1:
        raise ValueError("profile size must be >= 1")
    seen = np.flatnonzero(totals != 0)
    if seen.size == 0:
        orders = ",".join(map(str, matrix.model.orders))
        raise DataError(f"empty vocabulary: the training documents have no {matrix.model.family} of order {orders}")
    totals = totals[seen]
    key = -totals
    if totals.dtype.kind in "iu" and totals.max() - totals.min() <= np.iinfo(np.uint16).max:
        key = (totals.max() - totals).astype(np.uint16)  # the same order, which numpy sorts stably by radix
    return seen[np.argsort(key, kind="stable")][:m]


def take_columns(counts: CsrMatrix, columns: np.ndarray) -> CsrMatrix:
    """scipy's ``counts[:, columns]`` for distinct ``columns``, each row's entries kept in stored order.

    Every stored column maps through one position array, -1 off ``columns``,
    and the kept entries are taken by index, with no boolean mask.  Stored
    order is the order in which a sparse product sums a row, so scores made
    from the take are the same to the bit as from scipy's.
    """
    position = np.full(counts.shape[1], -1, dtype=counts.indices.dtype)  # the input's index width
    position[columns] = np.arange(len(columns))
    mapped = position[counts.indices]
    kept = np.flatnonzero(mapped >= 0)
    indptr = np.searchsorted(kept, counts.indptr).astype(counts.indptr.dtype)
    return CsrMatrix(counts.data[kept], mapped[kept], indptr, (counts.shape[0], len(columns)))


def write_feature_tsv(pairs, path: str | Path) -> None:
    """Write (feature, count) rows as a two-column TSV."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter="\t", lineterminator="\n").writerows(pairs)
