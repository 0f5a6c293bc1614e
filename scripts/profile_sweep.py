"""Sweep the vocabulary profile size over a rolling-window evaluation.

For each profile size the full protocol is rerun from scratch and one line
is printed: accuracy with its interval, best F score, and the match score
histogram overlap.  Reports land in OUT/m{size} for closer inspection.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from stylosig.classifiers import KINDS
from stylosig.config import build_config
from stylosig.errors import ConfigError, DataError
from stylosig.experiment import run_rolling


def main(argv=None) -> int:
    # a config flag left out stays off the namespace, so ExperimentConfig holds the only defaults
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS)
    parser.add_argument("corpus_dir", type=Path, help="corpus root (one directory per subject)")
    parser.add_argument("--sizes", default="500,1000,2000,5000,10000", help="comma-separated profile sizes")
    parser.add_argument("--train-window", type=int)
    parser.add_argument("--test-window", type=int)
    parser.add_argument("--orders", dest="ngram_orders", metavar="ORDERS", help="n-gram orders, e.g. 1,2")
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--classifier", choices=KINDS)
    parser.add_argument("--out", type=Path, default=Path("out/sweep"))
    given = vars(parser.parse_args(argv))
    # exit codes and messages as the stylosig CLI's
    try:
        sweep(given)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    return 0


def sweep(given: dict) -> None:
    """Run and report one rolling eval per profile size of ``given``, the parsed flags."""
    raw = given.pop("sizes")
    try:
        sizes = [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigError([f"--sizes {raw!r}: expected comma-separated integers"]) from None
    out = given.pop("out")
    overrides = {key: str(value) for key, value in given.items()}  # corpus_dir and the config flags given

    for m in sizes:
        config = build_config(overrides={**overrides, "profile_size": str(m), "output_dir": str(out / f"m{m}")})
        summary = run_rolling(config)["summaries"][config.classifier]
        acc = summary["accuracy"]
        fold = summary["fold_accuracy"]
        print(
            f"m={m:>6}  accuracy {acc['value']:.4f} [{acc['ci_low']:.4f}, {acc['ci_high']:.4f}]  "
            f"fold mean {fold['mean']:.4f}  best F {summary['best_fscore']['value']:.4f}  "
            f"MSH overlap {summary['msh_overlap']:.4f}"
        )


if __name__ == "__main__":
    raise SystemExit(main())
