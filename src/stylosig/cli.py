"""Command-line entry points.

Exit codes: 0 success, 1 data problem (missing or malformed inputs),
2 configuration problem (bad keys, values, or command usage).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import classifiers, experiment, metrics
from .config import ExperimentConfig, build_config, parse_config_file, validate_for
from .corpus import read_document
from .errors import ConfigError, DataError
from .features import extract_matrix, write_feature_tsv
from .fusion import decide
from .signature import ScoreMatrix, save_score_matrix


def _config_from_args(args) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    problems = []
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            problems.append(f"override {item!r} is not KEY=VALUE")
            continue
        overrides[key.strip()] = value.strip()
    if problems:
        raise ConfigError(problems)
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    return build_config(file_values, overrides)


def cmd_train(args, config: ExperimentConfig) -> int:
    model, vocab, counts = experiment.train_on_corpus(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.npz"
    classifiers.save_model(model, model_path, vocab)
    write_feature_tsv(zip(vocab.features, counts.tolist()), out / "vocabulary.tsv")
    print(f"trained {config.classifier} on {model.n_subjects} subjects, {len(vocab)} features -> {model_path}")
    return 0


def cmd_attribute(args, config: ExperimentConfig) -> int:
    if args.scores and (Path(args.scores).is_dir() or not Path(args.scores).parent.is_dir()):
        raise ConfigError([f"--scores {args.scores}: not a file in an existing directory"])
    model, vocab = classifiers.load_model(args.model)
    docs = [read_document(Path(name), name, 0) for name in args.texts]
    try:
        counts = extract_matrix(vocab.model, docs, features=vocab.features).counts
    except ValueError as exc:  # features that no extraction gives: the model file is malformed
        raise DataError(f"{Path(args.model)}: {exc}") from None
    scores, fallback = experiment.possibility_rows(model, counts)
    classifiers.warn_fallback(model, int(fallback.sum()))
    for name, subject, tie in zip(args.texts, *decide(scores)):
        print(f"{name}\t{model.subject_labels[subject]}{' (tie)' if tie else ''}")
    if args.scores:
        try:
            save_score_matrix(ScoreMatrix(tuple(args.texts), model.subject_labels, scores), args.scores)
        except OSError as exc:
            raise ConfigError([f"cannot write --scores {args.scores}: {exc}"]) from exc
    return 0


def cmd_sigscore(args, config: ExperimentConfig) -> int:
    matrix = experiment.signature_matrix_from_dir(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "signature_scores.csv"
    save_score_matrix(matrix, path)
    print(f"scored {len(matrix.item_ids)} probes against {len(matrix.subject_labels)} writers -> {path}")
    return 0


def cmd_chimeric(args, config: ExperimentConfig) -> int:
    manifest = experiment.chimeric_manifest(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "chimeric.json"
    metrics.write_summary_json(manifest, path)
    counts = manifest["counts"]
    print(
        f"{counts['subjects']} chimeric subjects, {counts['test_items']} test items, "
        f"{counts['claims']} claims -> {path}"
    )
    return 0


def cmd_eval(args, config: ExperimentConfig) -> int:
    if config.protocol == "chimeric":
        result = experiment.run_chimeric(config)
    else:
        result = experiment.run_rolling(config)
    for name in sorted(result["summaries"]):
        summary = result["summaries"][name]
        acc = summary["accuracy"]
        print(
            f"{name}: accuracy {acc['value']:.4f} "
            f"[{acc['ci_low']:.4f}, {acc['ci_high']:.4f}], "
            f"best F {summary['best_fscore']['value']:.4f}, "
            f"MSH overlap {summary['msh_overlap']:.4f}"
        )
    print(f"bundles under {config.output_dir}")
    return 0


def cmd_bench(args, config: ExperimentConfig) -> int:
    from . import bench as benchmod  # only this command needs it

    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigError([f"--sizes {args.sizes!r} is not a comma-separated int list"]) from None
    try:
        report = benchmod.run_scaling(sizes, config, repeats=args.repeats)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_summary_json({"config": config.to_json(), **asdict(report)}, out / "bench.json")
    for size, mean in zip(report.sizes, report.mean_seconds):
        print(f"{size:6d} docs/subject: {mean:.4f}s")
    print(f"ratios: {', '.join(f'{r:.3f}' for r in report.ratios)}; log-log slope {report.loglog_slope:.3f}")
    return 0


_COMMANDS = {  # name: (handler, help line), in --help order
    "train": (cmd_train, "fit a stylome model on a whole corpus"),
    "attribute": (cmd_attribute, "attribute text files with a trained model"),
    "sigscore": (cmd_sigscore, "baseline-score held-out signatures"),
    "chimeric": (cmd_chimeric, "write the author+writer pairing manifest"),
    "eval": (cmd_eval, "run the configured protocol end to end"),
    "bench": (cmd_bench, "measure pipeline scaling on synthetic corpora"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, whose usage line still lists every one."""
    parser = argparse.ArgumentParser(prog="stylosig", description=__doc__)
    # one subcommand's usage line lists every one through the metavar; the full parser keeps
    # none, since a metavar also renames the argument in its errors ("argument command: ...")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_line) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        p.add_argument("-c", "--config", help="key = value config file")
        p.add_argument(
            "-O",
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--output-dir", help="shortcut for -O output_dir=...")
        if name == "attribute":
            p.add_argument("--model", required=True, help="model .npz written by train")
            p.add_argument("--scores", help="also write the possibility matrix as CSV")
            p.add_argument("texts", nargs="+", help=".txt files to attribute")
        elif name == "bench":
            p.add_argument("--sizes", default="8,16,32", help="comma-separated docs per subject")
            p.add_argument("--repeats", type=int, default=5)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand needs only its own parser; anything else, help or an error, needs every one
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        config = _config_from_args(args)
        validate_for(config, args.command)
        return _COMMANDS[args.command][0](args, config)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
