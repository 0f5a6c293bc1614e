"""Minimal CoNLL-U parser producing validated dependency trees.

Only the columns needed downstream are kept (FORM, LEMMA, UPOS, HEAD,
DEPREL).  Multiword-token ranges and empty nodes are skipped; comment
lines are ignored.  Every sentence must form a single-rooted tree.  A
label column (FORM, LEMMA, UPOS, DEPREL) may hold no character at or below
U+001F, the feature separator, so no two syntactic n-grams share a name and
label order gives feature-string order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DataError

N_COLUMNS = 10
_LABEL_COLUMNS = {1: "FORM", 2: "LEMMA", 3: "UPOS", 7: "DEPREL"}
_CONTROL = re.compile("[\x00-\x1f]")


@dataclass(frozen=True)
class DepToken:
    form: str
    lemma: str
    upos: str
    head: int  # 0-based index of the parent token, -1 for the root
    deprel: str


@dataclass(frozen=True)
class DepSentence:
    tokens: tuple[DepToken, ...]
    root: int

    def __len__(self):
        return len(self.tokens)


def _flush(rows, source, start_line):
    # rows: list of (id, form, lemma, upos, head, deprel) with 1-based ids
    ids = [r[0] for r in rows]
    index_of = {tid: i for i, tid in enumerate(ids)}
    if len(index_of) != len(ids):
        raise DataError(f"{source}: duplicate token id in sentence at line {start_line}")
    tokens = []
    for tid, form, lemma, upos, head, deprel in rows:
        if head == 0:
            parent = -1
        elif head in index_of:
            parent = index_of[head]
        else:
            raise DataError(
                f"{source}: HEAD {head} of token {tid} missing in sentence at line {start_line}"
            )
        tokens.append(DepToken(form, lemma, upos, parent, deprel))

    roots = [i for i, t in enumerate(tokens) if t.head == -1]
    if len(roots) != 1:
        raise DataError(
            f"{source}: sentence at line {start_line} has {len(roots)} roots, expected exactly 1"
        )
    # every node must reach the root: walk up from each node until the root or
    # a node already known to reach it, so each node is walked over once
    state = [0] * len(tokens)  # 0 unseen, 1 on the current walk, 2 reaches the root
    for i in range(len(tokens)):
        walk, node = [], i
        while node != -1 and state[node] != 2:
            if state[node] == 1:
                raise DataError(f"{source}: cycle in sentence at line {start_line}")
            state[node] = 1
            walk.append(node)
            node = tokens[node].head
        for node in walk:
            state[node] = 2
    return DepSentence(tuple(tokens), roots[0])


def parse_conllu(text: str, source: str = "<string>") -> tuple[DepSentence, ...]:
    """Parse CoNLL-U text into a tuple of dependency sentences."""
    sentences = []
    rows: list[tuple] = []
    start_line = 1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if rows:
                sentences.append(_flush(rows, source, start_line))
                rows = []
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != N_COLUMNS:
            raise DataError(f"{source}:{lineno}: expected {N_COLUMNS} tab-separated columns, got {len(cols)}")
        tid = cols[0]
        if "-" in tid or "." in tid:
            continue  # multiword range / empty node
        try:
            token_id = int(tid)
        except ValueError:
            raise DataError(f"{source}:{lineno}: bad token id {tid!r}") from None
        try:
            head = int(cols[6])
        except ValueError:
            raise DataError(f"{source}:{lineno}: bad HEAD {cols[6]!r}") from None
        for at, column in _LABEL_COLUMNS.items():
            if _CONTROL.search(cols[at]):
                raise DataError(f"{source}:{lineno}: {column} {cols[at]!r} holds a control character (U+0000-U+001F)")
        if not rows:
            start_line = lineno
        rows.append((token_id, cols[1], cols[2], cols[3], head, cols[7]))
    if rows:
        sentences.append(_flush(rows, source, start_line))
    return tuple(sentences)

