"""Write a seeded CoNLL-U sidecar next to every .txt document under a corpus root.

Each sidecar holds the document's tokens as extraction tokenizes them, 12 to
a sentence.  Every token but a sentence's first takes its head among the
earlier tokens of its sentence, so each sentence is a tree rooted at its
first token.  The lemma is the token's first four characters, and the UPOS
and DEPREL labels are drawn from fixed sets.  Heads and labels come from one
generator seeded by --seed, over the documents in path order, so the same
corpus and seed give the same sidecars.  The sidecars make any text corpus an
sn-gram corpus, for example to time ``eval -O feature_family=sngram``.

    python3 scripts/sngram_sidecars.py ROOT --seed S
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from stylosig.corpus import read_text
from stylosig.errors import DataError
from stylosig.features import _token_bytes

SENTENCE = 12
UPOS = ("ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM", "PART", "PRON", "PROPN", "VERB", "X")
DEPREL = ("acl", "advmod", "amod", "aux", "case", "cc", "conj", "det", "nmod", "nsubj", "obj", "obl")


def sidecar(tokens: list[str], rng: np.random.Generator) -> str:
    """The CoNLL-U text of ``tokens``: sentences of ``SENTENCE`` tokens, each a random tree rooted at its first token."""
    n = len(tokens)
    at = np.arange(n) % SENTENCE  # each token's place in its sentence
    heads = (rng.random(n) * at).astype(np.int64) + 1  # 1-based, among the earlier tokens of the sentence
    heads[at == 0] = 0
    upos = [UPOS[k] for k in rng.integers(len(UPOS), size=n).tolist()]
    deprel = [DEPREL[k] if head else "root" for k, head in zip(rng.integers(len(DEPREL), size=n).tolist(), heads.tolist())]
    rows = [
        f"{place}\t{token}\t{token[:4]}\t{pos}\t_\t_\t{head}\t{rel}\t_\t_\n"
        for place, token, pos, head, rel in zip((at + 1).tolist(), tokens, upos, heads.tolist(), deprel)
    ]
    bodies = ["".join(rows[start : start + SENTENCE]) for start in range(0, n, SENTENCE)]
    return "\n".join(f"# sent_id = {k}\n{body}" for k, body in enumerate(bodies, start=1))


def write_sidecars(root: Path, seed: int) -> int:
    """Write ``doc.conllu`` next to every ``doc.txt`` under ``root``; returns the number written."""
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    rng = np.random.default_rng(seed)
    paths = sorted(root.rglob("*.txt"))
    for path in paths:
        path.with_suffix(".conllu").write_text(sidecar(_token_bytes(read_text(path)).decode().split(), rng), encoding="utf-8")
    return len(paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="corpus root (one directory per subject)")
    parser.add_argument("--seed", type=int, required=True, help="seed of the heads and labels")
    args = parser.parse_args(argv)
    try:
        n = write_sidecars(args.root, args.seed)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {n} sidecars under {args.root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
