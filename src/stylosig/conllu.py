"""Minimal CoNLL-U parser producing validated dependency trees.

Only the columns needed downstream are kept (FORM, LEMMA, UPOS, HEAD,
DEPREL), as one tuple per column over the nodes of the whole file.
Multiword-token ranges and empty nodes are skipped; comment lines are
ignored.  Every sentence must form a single-rooted tree.  A label column
(FORM, LEMMA, UPOS, DEPREL) may hold no character at or below U+001F, the
feature separator, so no two syntactic n-grams share a name and label order
gives feature-string order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DataError

N_COLUMNS = 10
_LABEL_COLUMNS = {1: "FORM", 2: "LEMMA", 3: "UPOS", 7: "DEPREL"}
_CONTROL = re.compile("[\x00-\x1f]")


@dataclass(frozen=True)
class DepTree:
    """The nodes of a CoNLL-U file in file order: each label column, and each node's head.

    ``head`` holds the file-wide index of each node's parent, -1 at each
    sentence root, so every sentence is one tree and the file a forest of them.
    """

    form: tuple[str, ...]
    lemma: tuple[str, ...]
    upos: tuple[str, ...]
    deprel: tuple[str, ...]
    head: tuple[int, ...]


def _heads(ids, heads, first, source, start_line):
    """The file-wide parent of each node of a sentence whose first node is node ``first``, checked to form one tree."""
    index_of = dict(zip(ids, range(first, first + len(ids))))
    if len(index_of) != len(ids):
        raise DataError(f"{source}: duplicate token id in sentence at line {start_line}")
    index_of[0] = -1  # HEAD 0: the root
    try:
        parents = [index_of[head] for head in heads]
    except KeyError:
        tid, head = next((tid, head) for tid, head in zip(ids, heads) if head not in index_of)
        raise DataError(f"{source}: HEAD {head} of token {tid} missing in sentence at line {start_line}") from None
    roots = parents.count(-1)
    if roots != 1:
        raise DataError(f"{source}: sentence at line {start_line} has {roots} roots, expected exactly 1")
    # every node must reach the root: walk up from each node until the root or
    # a node already known to reach it, so each node is walked over once
    state = [0] * len(parents)  # 0 unseen, 1 on the current walk, 2 reaches the root
    for i in range(len(parents)):
        walk, node = [], i
        while node != -1 and state[node] != 2:
            if state[node] == 1:
                raise DataError(f"{source}: cycle in sentence at line {start_line}")
            state[node] = 1
            walk.append(node)
            node = parents[node] - first if parents[node] >= 0 else -1
        for node in walk:
            state[node] = 2
    return parents


def parse_conllu(text: str, source: str = "<string>") -> DepTree:
    """Parse CoNLL-U text into the dependency tree of its sentences."""
    form, lemma, upos, deprel, parents = [], [], [], [], []
    ids: list[int] = []  # token ids and HEADs of the sentence being read
    heads: list[int] = []
    start_line = 1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            if ids:
                parents += _heads(ids, heads, len(parents), source, start_line)
                ids, heads = [], []
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
        if not ids:
            start_line = lineno
        ids.append(token_id)
        heads.append(head)
        form.append(cols[1])
        lemma.append(cols[2])
        upos.append(cols[3])
        deprel.append(cols[7])
    if ids:
        parents += _heads(ids, heads, len(parents), source, start_line)
    return DepTree(tuple(form), tuple(lemma), tuple(upos), tuple(deprel), tuple(parents))
