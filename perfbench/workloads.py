"""The three benchmark workloads: their inputs and the CLI calls they make.

Each workload is a closed loop with one client.  A *unit* is the work
timed as one wall-time sample: one ``eval`` for ``rolling`` and
``chimeric``, one pass of ``attribute`` calls over every questioned text
for ``attribute``.

Inputs depend on ``seed % VARIANTS`` only, so that every input the
benchmark can generate has an expected output recorded in ``reference/``
from the commit that defined the benchmark.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

VARIANTS = 8

ROLLING_AUTHORS = 20
ROLLING_DOCS = 13  # train_window 8 + test_window 5, the defaults
ROLLING_TOKENS = 450

CHIMERIC_SUBJECTS = 100
CHIMERIC_ITEMS = 20  # train_docs 5 + test_docs 15, the defaults
CHIMERIC_TOKENS = 200

ATTRIBUTE_AUTHORS = 40
ATTRIBUTE_DOCS = 10
ATTRIBUTE_TOKENS = 1000
QUESTIONED_TEXTS = 64
TEXTS_PER_CALL = 8
# questioned-text length as a share of the training length, cycled
LENGTH_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)

NAMES = ("rolling", "chimeric", "attribute")


def variant(seed: int) -> int:
    return seed % VARIANTS


@dataclass(frozen=True)
class Inputs:
    """Generated files of one workload variant."""

    root: Path

    @property
    def corpus(self) -> Path:
        return self.root / "corpus"

    @property
    def signatures(self) -> Path:
        return self.root / "signatures"

    @property
    def questioned(self) -> list[Path]:
        return sorted((self.root / "questioned").glob("*.txt"))


def _generate(name: str, var: int, root: Path) -> None:
    corpus_ss, questioned_ss = np.random.SeedSequence([NAMES.index(name), var]).spawn(2)
    rng = np.random.default_rng(corpus_ss)
    if name == "rolling":
        cdfs = gen.author_cdfs(rng, ROLLING_AUTHORS)
        gen.write_corpus(root / "corpus", rng, cdfs, ROLLING_DOCS, ROLLING_TOKENS)
    elif name == "chimeric":
        cdfs = gen.author_cdfs(rng, CHIMERIC_SUBJECTS)
        gen.write_corpus(root / "corpus", rng, cdfs, CHIMERIC_ITEMS, CHIMERIC_TOKENS)
        gen.write_signatures(root / "signatures", rng, CHIMERIC_SUBJECTS, CHIMERIC_ITEMS)
    else:
        cdfs = gen.author_cdfs(rng, ATTRIBUTE_AUTHORS)
        gen.write_corpus(root / "corpus", rng, cdfs, ATTRIBUTE_DOCS, ATTRIBUTE_TOKENS)
        gen.write_questioned(
            root / "questioned",
            np.random.default_rng(questioned_ss),
            cdfs,
            QUESTIONED_TEXTS,
            ATTRIBUTE_TOKENS,
            LENGTH_FACTORS,
        )


def prepare(name: str, seed: int, cache: Path) -> Inputs:
    """Generate the inputs of ``name`` for ``seed`` once; later calls reuse them."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    root = cache / f"{name}-v{variant(seed)}"
    done = root / "complete"
    if not done.is_file():
        shutil.rmtree(root, ignore_errors=True)
        _generate(name, variant(seed), root)
        done.write_text("ok\n", encoding="utf-8")
    return Inputs(root)


def setup_calls(name: str, inputs: Inputs, model_dir: Path) -> list[list[str]]:
    """CLI calls that prepare the workload; timed as part of ``setup_s``."""
    if name == "attribute":
        return [["train", "-O", f"corpus_dir={inputs.corpus}", "--output-dir", str(model_dir)]]
    return []


def unit_calls(name: str, inputs: Inputs, model_dir: Path, out_dir: Path) -> list[list[str]]:
    """CLI calls that make up one unit of the workload."""
    if name == "rolling":
        return [["eval", "-O", f"corpus_dir={inputs.corpus}", "--output-dir", str(out_dir)]]
    if name == "chimeric":
        return [
            [
                "eval",
                "-O", "protocol=chimeric",
                "-O", f"corpus_dir={inputs.corpus}",
                "-O", f"signature_dir={inputs.signatures}",
                "--output-dir", str(out_dir),
            ]
        ]
    model = str(model_dir / "model.npz")
    return [["attribute", "--model", model, *texts] for texts in attribute_batches(inputs)]


def attribute_batches(inputs: Inputs) -> list[list[str]]:
    """The questioned texts each ``attribute`` call of a unit names, in call order."""
    texts = [str(p) for p in inputs.questioned]
    return [texts[i : i + TEXTS_PER_CALL] for i in range(0, len(texts), TEXTS_PER_CALL)]
