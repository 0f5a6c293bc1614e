import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylosig import classifiers, cli, config, features
from stylosig.cli import main
from stylosig.errors import DegenerateInputWarning
from stylosig.signature import ScoreMatrix, load_score_matrix, save_score_matrix

from .conftest import write_svc_dir, write_text_corpus
from .test_experiment import disjoint_corpus


def test_train_then_attribute_roundtrip(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["train", "-O", f"corpus_dir={corpus_dir}", "-O", "profile_size=50", "--output-dir", str(out)]
    )
    assert code == 0
    assert (out / "model.npz").is_file()
    vocab_lines = (out / "vocabulary.tsv").read_text().splitlines()
    assert 0 < len(vocab_lines) <= 50
    assert all("\t" in line for line in vocab_lines)
    _, vocab = classifiers.load_model(out / "model.npz")
    assert vocab.profile_size == 50 and list(vocab.features) == [line.split("\t")[0] for line in vocab_lines]

    probe = tmp_path / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2 s1w0", encoding="utf-8")
    scores_csv = tmp_path / "scores.csv"
    code = main(
        ["attribute", "--model", str(out / "model.npz"), "--scores", str(scores_csv), str(probe)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "subj1" in stdout
    matrix = load_score_matrix(scores_csv)
    assert matrix.scores.shape == (1, 3)
    assert matrix.scores[0, 1] == 1.0  # the claimed subject carries full possibility


def test_attribute_missing_model_is_data_error(tmp_path):
    probe = tmp_path / "probe.txt"
    probe.write_text("words", encoding="utf-8")
    assert main(["attribute", "--model", str(tmp_path / "no.npz"), str(probe)]) == 1


def test_attribute_makes_no_feature_string(tmp_path, capsys, monkeypatch):
    # the texts' grams meet the model's features as label ids: only train turns columns into strings
    out = tmp_path / "out"
    assert main(["train", "-O", f"corpus_dir={disjoint_corpus(tmp_path)}", "--output-dir", str(out)]) == 0
    probes = [tmp_path / "p1.txt", tmp_path / "p2.txt"]
    probes[0].write_text("s1w0 s1w1 s1w2 s1w0 s0w3", encoding="utf-8")
    probes[1].write_text("S2W5, s2w4 unseen s0w1 s2w5", encoding="utf-8")
    outputs = []
    for run in ("strings", "no-strings"):
        if run == "no-strings":
            monkeypatch.setattr(features, "_join", lambda *args: pytest.fail("attribute made feature strings"))
        scores = tmp_path / f"{run}.csv"
        capsys.readouterr()
        assert main(["attribute", "--model", str(out / "model.npz"), "--scores", str(scores), *map(str, probes)]) == 0
        outputs.append((capsys.readouterr().out, scores.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[1][0] == f"{probes[0]}\tsubj1\n{probes[1]}\tsubj2\n"


@pytest.mark.parametrize("text", [".", "/", ""])
def test_attribute_text_path_with_no_file_name_is_data_error(tmp_path, capsys, text):
    # such a path has no sidecar name, and the text is read before one is made
    out = tmp_path / "out"
    assert main(["train", "-O", f"corpus_dir={disjoint_corpus(tmp_path)}", "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["attribute", "--model", str(out / "model.npz"), text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"data error: cannot read {Path(text)}: [Errno 21] Is a directory") and captured.err.count("\n") == 1


def _resave(edit):
    """Rewrite a model file with some of its arrays replaced by ``edit(arrays)``."""
    def write(path, arrays):
        np.savez(path, **{**arrays, **edit(arrays)})
    return write


def _write_npy(path, arrays):
    with path.open("wb") as fh:
        np.save(fh, arrays["log_params"])


def _header(edit):
    return _resave(lambda arrays: {"header": np.array(json.dumps(edit(json.loads(str(arrays["header"])))))})


def _last_feature(feature, id):
    """A case that rewrites a model file with ``feature`` for its last feature, one that ``train`` never writes."""
    message = f"{{path}}: ngram of order 1,2 gives no feature {feature!r}\n"
    return pytest.param(_resave(lambda arrays: {"features": np.append(arrays["features"][:-1], feature)}), message, id=id)


def _first_cell(value, kind="mnb"):
    """Rewrite a trained mnb model file as a model of ``kind`` whose table's first cell is ``value``.

    As a pnb model, its rates are the mnb model's feature probabilities.
    """
    def write(path, arrays):
        header = {**json.loads(str(arrays.pop("header"))), "kind": kind}
        table = arrays.pop("log_params") if kind == "mnb" else np.exp(arrays.pop("log_params"))
        table[0, 0] = value
        np.savez(path, **arrays, **{"log_params" if kind == "mnb" else "rates": table}, header=np.array(json.dumps(header)))
    return write


@pytest.mark.parametrize(
    "write, message",
    [
        pytest.param(
            _resave(lambda arrays: {"log_params": arrays["log_params"][:, :-5]}), "{path}: log_params",
            id="five-columns-short",
        ),
        pytest.param(
            _resave(lambda arrays: {"subject_labels": arrays["subject_labels"][:-1]}), "{path}: log_params",
            id="one-label-short",
        ),
        pytest.param(
            lambda path, arrays: path.write_bytes(b"PK\x03\x04" + bytes(60)), "cannot load model from {path}",
            id="bad-zip",
        ),
        pytest.param(_write_npy, "cannot load model from {path}: not an .npz model archive\n", id="npy"),
        pytest.param(
            _header(lambda header: {**header, "feature_orders": 3}), "cannot load model from {path}",
            id="orders-not-a-list",
        ),
        pytest.param(_header(lambda header: list(header)), "cannot load model from {path}", id="header-a-list"),
        pytest.param(
            _resave(lambda arrays: {"features": arrays["features"][None]}),
            "cannot load model from {path}: features is not a 1-d array\n",
            id="features-2-d",
        ),
        pytest.param(
            _resave(lambda arrays: {"subject_labels": arrays["subject_labels"][0]}),
            "cannot load model from {path}: subject_labels is not a 1-d array\n",
            id="labels-0-d",
        ),
        pytest.param(
            _resave(lambda arrays: {"features": np.append(arrays["features"][:-1], arrays["features"][0])}),
            "{path}: features repeat a string: 35 distinct of 36\n",
            id="features-repeat",
        ),
        _last_feature("s1w0 s1w1", id="feature-label-with-a-space"),
        _last_feature(f"s1w0{features.SEP}", id="feature-empty-label"),
        _last_feature("S1W0", id="feature-upper-case"),
        _last_feature(features.SEP.join(["s1w0"] * 3), id="feature-order-3"),
        pytest.param(
            _resave(lambda arrays: {name: arrays[name][:0] for name in ("subject_labels", "log_params", "log_priors")}),
            "{path}: no subject labels\n",
            id="no-labels",
        ),
        pytest.param(_first_cell(np.nan), "{path}: log_params must be finite\n", id="mnb-nan"),
        pytest.param(_first_cell(np.inf), "{path}: log_params must be finite\n", id="mnb-inf"),
        pytest.param(_first_cell(-1.0, "pnb"), "{path}: rates must be finite and not negative\n", id="pnb-negative"),
        pytest.param(_first_cell(np.nan, "pnb"), "{path}: rates must be finite and not negative\n", id="pnb-nan"),
        pytest.param(_first_cell(np.inf, "pnb"), "{path}: rates must be finite and not negative\n", id="pnb-inf"),
    ],
)
def test_attribute_model_that_does_not_fit_is_data_error(tmp_path, capsys, write, message):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "-O", f"corpus_dir={corpus_dir}", "--output-dir", str(out)]) == 0
    path = out / "model.npz"
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    write(path, arrays)
    probe = tmp_path / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2 s1w0", encoding="utf-8")
    capsys.readouterr()
    assert main(["attribute", "--model", str(path), str(probe)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("data error: " + message.format(path=path))
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "scores, message",
    [
        pytest.param("missing/x.csv", "--scores {scores}: not a file in an existing directory", id="missing-dir"),
        pytest.param(".", "--scores {scores}: not a file in an existing directory", id="a-directory"),
    ],
)
def test_attribute_scores_path_that_cannot_be_written_is_config_error(tmp_path, capsys, scores, message):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "-O", f"corpus_dir={corpus_dir}", "--output-dir", str(out)]) == 0
    probe = tmp_path / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2 s1w0", encoding="utf-8")
    scores = tmp_path / scores
    capsys.readouterr()
    assert main(["attribute", "--model", str(out / "model.npz"), "--scores", str(scores), str(probe)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # checked before any text is attributed
    assert captured.err == f"config error: {message.format(scores=scores)}\n"


def test_attribute_scores_write_failure_is_config_error(tmp_path, capsys, monkeypatch):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "-O", f"corpus_dir={corpus_dir}", "--output-dir", str(out)]) == 0
    probe = tmp_path / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2 s1w0", encoding="utf-8")

    def denied(matrix, path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "save_score_matrix", denied)
    scores = tmp_path / "x.csv"
    capsys.readouterr()
    assert main(["attribute", "--model", str(out / "model.npz"), "--scores", str(scores), str(probe)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write --scores {scores}: ")


def test_missing_required_config_is_config_error(tmp_path, capsys):
    assert main(["train"]) == 2
    assert "corpus_dir" in capsys.readouterr().err


def test_bad_override_is_config_error(capsys):
    assert main(["train", "-O", "nonsense"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    assert main(["train", "-O", f"corpus_dir={corpus_dir}", "-O", "turbo=yes"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_file_drives_eval(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "out"
    conf = tmp_path / "exp.conf"
    conf.write_text(
        f"corpus_dir = {corpus_dir}\n"
        "protocol = rolling\n"
        "train_window = 3\n"
        "test_window = 1\n"
        f"output_dir = {out}\n",
        encoding="utf-8",
    )
    assert main(["eval", "-c", str(conf)]) == 0
    stdout = capsys.readouterr().out
    assert "mnb: accuracy 1.0000" in stdout
    assert (out / "run.json").is_file()


def test_eval_chimeric_via_cli(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=3, n_samples=4)
    out = tmp_path / "out"
    code = main(
        [
            "eval",
            "-O", f"corpus_dir={corpus_dir}",
            "-O", f"signature_dir={sig_dir}",
            "-O", "protocol=chimeric",
            "-O", "train_docs=2",
            "-O", "test_docs=2",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "mnb+signature" in stdout
    assert (out / "mnb+signature" / "det.csv").is_file()


def test_eval_builds_no_vocabulary(tmp_path, monkeypatch):
    # feature strings belong to model files: training and scoring see count matrices only
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a Vocabulary")

    for name, module in list(sys.modules.items()):
        if name.startswith("stylosig") and getattr(module, "Vocabulary", None) is features.Vocabulary:
            monkeypatch.setattr(module, "Vocabulary", refuse)
    assert main(chimeric_args(tmp_path)) == 0
    rolling = ["eval", "-O", f"corpus_dir={tmp_path / 'texts'}", "-O", "train_window=3", "-O", "test_window=1"]
    assert main([*rolling, "--output-dir", str(tmp_path / "rolling")]) == 0


def test_eval_decodes_no_feature_string(tmp_path, monkeypatch):
    # columns are ordered as their strings without them: only a written profile is decoded
    def refuse(self, columns):
        raise AssertionError("eval decoded feature strings")

    monkeypatch.setattr(features.FeatureMatrix, "decode", refuse)
    assert main(chimeric_args(tmp_path)) == 0
    rolling = ["eval", "-O", f"corpus_dir={tmp_path / 'texts'}", "-O", "train_window=3", "-O", "test_window=1"]
    assert main([*rolling, "--output-dir", str(tmp_path / "rolling")]) == 0


def test_train_decodes_only_the_profile(tmp_path, monkeypatch):
    decoded, decode = [], features.FeatureMatrix.decode

    def count(self, columns):
        decoded.append(len(columns))
        return decode(self, columns)

    monkeypatch.setattr(features.FeatureMatrix, "decode", count)
    corpus_dir = disjoint_corpus(tmp_path)  # 36 distinct unigrams and bigrams
    out = tmp_path / "out"
    assert main(["train", "-O", f"corpus_dir={corpus_dir}", "-O", "profile_size=20", "--output-dir", str(out)]) == 0
    assert decoded == [20] and len((out / "vocabulary.tsv").read_text().splitlines()) == 20


def test_sigscore_writes_matrix(tmp_path):
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=2, n_samples=5)
    out = tmp_path / "out"
    code = main(
        [
            "sigscore",
            "-O", f"signature_dir={sig_dir}",
            "-O", "train_docs=2",
            "-O", "test_docs=3",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    matrix = load_score_matrix(out / "signature_scores.csv")
    assert matrix.scores.shape == (6, 2)


def test_sigscore_value_beyond_int64_is_data_error(tmp_path, capsys):
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=2, n_samples=5)
    (sig_dir / "U2S3.txt").write_text("1\n1 99999999999999999999 3 1\n", encoding="utf-8")
    code = main(["sigscore", "-O", f"signature_dir={sig_dir}", "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "data error" in err and "U2S3.txt:2: value outside the 64-bit integer range" in err
    assert "Traceback" not in err


def test_chimeric_manifest_command(tmp_path):
    corpus_dir = disjoint_corpus(tmp_path)
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=3, n_samples=4)
    out = tmp_path / "out"
    code = main(
        [
            "chimeric",
            "-O", f"corpus_dir={corpus_dir}",
            "-O", f"signature_dir={sig_dir}",
            "-O", "train_docs=2",
            "-O", "test_docs=2",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "chimeric.json").read_text())
    assert manifest["counts"]["claims"] == 18


def test_missing_corpus_data_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "-O", f"corpus_dir={empty}"]) == 1
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_empty_vocabulary_is_data_error(tmp_path, capsys, command):
    corpus_dir = disjoint_corpus(tmp_path)
    args = [command, "-O", f"corpus_dir={corpus_dir}", "-O", "train_window=3", "-O", "test_window=1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*args, "-O", "ngram_orders=10000", "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "data error: empty vocabulary" in err and "ngram of order 10000" in err


def test_bench_command_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["bench", "--sizes", "2,4", "--repeats", "1", "--output-dir", str(out)]
    )
    assert code == 0
    report = json.loads((out / "bench.json").read_text())
    assert report["sizes"] == [2, 4]
    assert len(report["ratios"]) == 1
    assert "loglog_slope" in report
    assert sorted(report["stage_mean_seconds"]) == sorted(report["stage_loglog_slope"]) == ["extract", "folds"]
    for stage, means in report["stage_mean_seconds"].items():
        assert len(means) == 2 and all(m > 0.0 for m in means)
        assert isinstance(report["stage_loglog_slope"][stage], float)
    assert "docs/subject" in capsys.readouterr().out


def test_bench_runs_under_the_resolved_config(tmp_path, monkeypatch):
    trained = []
    pnb_train = classifiers.pnb_train
    monkeypatch.setattr(classifiers, "pnb_train", lambda *args: trained.append(args) or pnb_train(*args))
    out = tmp_path / "out"
    args = ["bench", "--sizes", "2,4", "--repeats", "1", "-O", "classifier=pnb", "-O", "profile_size=50"]
    assert main([*args, "--output-dir", str(out)]) == 0
    assert len(trained) == 2  # one pass at each size
    assert [counts.shape[1] for counts, *_ in trained] == [50, 50]  # a 50-feature profile
    report = json.loads((out / "bench.json").read_text())
    assert (report["config"]["classifier"], report["config"]["profile_size"]) == ("pnb", 50)


def test_bench_bad_sizes_is_config_error(tmp_path, capsys):
    assert main(["bench", "--sizes", "two,four", "--output-dir", str(tmp_path)]) == 2


def test_env_var_redirects_output(tmp_path, monkeypatch):
    corpus_dir = disjoint_corpus(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("STYLOSIG_OUTPUT_DIR", str(env_out))
    assert main(["train", "-O", f"corpus_dir={corpus_dir}"]) == 0
    assert (env_out / "model.npz").is_file()


SUBCOMMANDS = [
    ("train", "fit a stylome model on a whole corpus"),
    ("attribute", "attribute text files with a trained model"),
    ("sigscore", "baseline-score held-out signatures"),
    ("chimeric", "write the author+writer pairing manifest"),
    ("eval", "run the configured protocol end to end"),
    ("bench", "measure pipeline scaling on synthetic corpora"),
]
# (flags or positional name, default, required) of every subcommand's options, in --help order
COMMON_OPTIONS = [
    (("-h", "--help"), argparse.SUPPRESS, False),
    (("-c", "--config"), None, False),
    (("-O", "--override"), [], False),
    (("--output-dir",), None, False),
]
EXTRA_OPTIONS = {
    "attribute": [(("--model",), None, True), (("--scores",), None, False), ("texts", None, True)],
    "bench": [(("--sizes",), "8,16,32", False), (("--repeats",), 5, False)],
}


def test_help_lists_the_subcommands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as caught:
        main(["--help"])
    assert caught.value.code == 0
    out = capsys.readouterr().out
    names = ",".join(name for name, _ in SUBCOMMANDS)
    assert out.startswith(f"usage: stylosig [-h] {{{names}}} ...\n")
    lines = [re.search(rf"^ +{name} +{re.escape(help_line)}$", out, re.M) for name, help_line in SUBCOMMANDS]
    assert all(lines)
    assert [line.start() for line in lines] == sorted(line.start() for line in lines)


def test_each_subcommand_keeps_its_options():
    (sub,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    assert [(action.dest, action.help) for action in sub._choices_actions] == SUBCOMMANDS
    for name, parser in sub.choices.items():
        options = [(tuple(a.option_strings) or a.dest, a.default, a.required) for a in parser._actions]
        assert options == COMMON_OPTIONS + EXTRA_OPTIONS.get(name, []), name


TOP_USAGE = "usage: stylosig [-h] {train,attribute,sigscore,chimeric,eval,bench} ...\n"
TOP_HELP = TOP_USAGE + """
Command-line entry points. Exit codes: 0 success, 1 data problem (missing or malformed inputs), 2
configuration problem (bad keys, values, or command usage).

positional arguments:
  {train,attribute,sigscore,chimeric,eval,bench}
    train               fit a stylome model on a whole corpus
    attribute           attribute text files with a trained model
    sigscore            baseline-score held-out signatures
    chimeric            write the author+writer pairing manifest
    eval                run the configured protocol end to end
    bench               measure pipeline scaling on synthetic corpora

options:
  -h, --help            show this help message and exit
"""
COMMON_HELP = """options:
  -h, --help            show this help message and exit
  -c CONFIG, --config CONFIG
                        key = value config file
  -O KEY=VALUE, --override KEY=VALUE
                        override one config key (repeatable)
  --output-dir OUTPUT_DIR
                        shortcut for -O output_dir=...
"""
ATTRIBUTE_USAGE = """usage: stylosig attribute [-h] [-c CONFIG] [-O KEY=VALUE] [--output-dir OUTPUT_DIR] --model MODEL
                          [--scores SCORES]
                          texts [texts ...]
"""
ATTRIBUTE_HELP = ATTRIBUTE_USAGE + """
positional arguments:
  texts                 .txt files to attribute

""" + COMMON_HELP + """  --model MODEL         model .npz written by train
  --scores SCORES       also write the possibility matrix as CSV
"""
BENCH_HELP = """usage: stylosig bench [-h] [-c CONFIG] [-O KEY=VALUE] [--output-dir OUTPUT_DIR] [--sizes SIZES]
                      [--repeats REPEATS]

""" + COMMON_HELP + """  --sizes SIZES         comma-separated docs per subject
  --repeats REPEATS
"""


def _plain_help(name):
    return f"usage: stylosig {name} [-h] [-c CONFIG] [-O KEY=VALUE] [--output-dir OUTPUT_DIR]\n\n{COMMON_HELP}"


# every usage, help and error text of the parser, byte for byte: (exit code, stdout, stderr)
PARSER_TEXTS = [
    (["--help"], 0, TOP_HELP, ""),
    ([], 2, "", TOP_USAGE + "stylosig: error: the following arguments are required: command\n"),
    (
        ["nosuch"], 2, "",
        TOP_USAGE + "stylosig: error: argument command: invalid choice: 'nosuch' "
        "(choose from 'train', 'attribute', 'sigscore', 'chimeric', 'eval', 'bench')\n",
    ),
    (["attribute", "t.txt"], 2, "", ATTRIBUTE_USAGE + "stylosig attribute: error: the following arguments are required: --model\n"),
    (["train", "extra"], 2, "", TOP_USAGE + "stylosig: error: unrecognized arguments: extra\n"),
    *[([name, "--help"], 0, _plain_help(name), "") for name in ("train", "sigscore", "chimeric", "eval")],
    (["attribute", "--help"], 0, ATTRIBUTE_HELP, ""),
    (["bench", "--help"], 0, BENCH_HELP, ""),
]


@pytest.mark.parametrize("argv, code, out, err", PARSER_TEXTS, ids=[" ".join(case[0]) or "no-arguments" for case in PARSER_TEXTS])
def test_parser_texts_are_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv, built", [(["train", "--help"], "train"), (["--help"], None), (["nosuch"], None), ([], None)])
def test_main_builds_only_the_named_subcommand(monkeypatch, capsys, argv, built):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command) or build(command))
    with pytest.raises(SystemExit):
        main(argv)
    assert calls == [built]
    (sub,) = [action for action in build(built)._actions if isinstance(action, argparse._SubParsersAction)]
    assert list(sub.choices) == ([built] if built else [name for name, _ in SUBCOMMANDS])


@pytest.mark.parametrize("protocol", ["rolling", "chimeric"])
def test_one_subject_eval_is_data_error(tmp_path, capsys, protocol):
    # one subject gives no imposter claim to draw a curve from
    out = tmp_path / "out"
    args = ["eval", "-O", f"corpus_dir={disjoint_corpus(tmp_path, n_subjects=1, docs=13)}", "--output-dir", str(out)]
    if protocol == "chimeric":
        sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=1, n_samples=4)
        args += ["-O", "protocol=chimeric", "-O", f"signature_dir={sig_dir}", "-O", "train_docs=2", "-O", "test_docs=2"]
        message = "chimeric eval needs at least 2 author+writer subjects, found 1"
    else:
        message = "rolling eval needs at least 2 subjects with 13 documents, found 1"
    assert main(args) == 1
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


def chimeric_args(tmp_path, *extra, signatures=True):
    corpus_dir = disjoint_corpus(tmp_path)
    args = ["eval", "-O", f"corpus_dir={corpus_dir}", "-O", "protocol=chimeric"]
    if signatures:
        sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=3, n_samples=4)
        args += ["-O", f"signature_dir={sig_dir}"]
    return args + ["-O", "train_docs=2", "-O", "test_docs=2", "--output-dir", str(tmp_path / "out"), *extra]


def test_fusion_sum_is_config_error(tmp_path, capsys):
    assert main(chimeric_args(tmp_path, "-O", "fusion_operator=sum")) == 2
    err = capsys.readouterr().err
    assert "config error: fusion_operator='sum'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "chimeric", "sigscore"])
def test_signature_dir_that_is_no_directory_is_config_error(tmp_path, capsys, command):
    not_a_dir = tmp_path / "sigs.txt"
    not_a_dir.write_text("x", encoding="utf-8")
    args = chimeric_args(tmp_path, "-O", f"signature_dir={not_a_dir}", signatures=False)
    assert main([command, *args[1:]]) == 2
    assert f"config error: signature_dir {not_a_dir} is not a directory" in capsys.readouterr().err


def test_signature_matrix_without_signature_dir_is_config_error(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    save_score_matrix(ScoreMatrix(("x",), ("a",), np.array([[0.5]])), scores)
    assert main(chimeric_args(tmp_path, "-O", f"signature_matrix={scores}", signatures=False)) == 2
    assert "config error: chimeric eval needs signature_dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, row, message",
    [
        ("probability", [0.5, 0.4, 0.0], "must sum to 1"),
        ("fuzzy", [1.5, 0.0, 0.0], "within \\[0, 1\\]"),
    ],
)
def test_bad_external_scores_are_data_errors(tmp_path, capsys, kind, row, message):
    path = tmp_path / "external.csv"
    ids = tuple(f"s{s:02d}i{j:02d}" for s in range(3) for j in range(2))
    save_score_matrix(ScoreMatrix(ids, ("a", "b", "c"), np.array([row] * 6)), path)
    args = chimeric_args(tmp_path, "-O", f"external_matrix={path}", "-O", f"external_kind={kind}")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert re.search(message, err)


def test_reordered_external_matrix_is_data_error(tmp_path, capsys):
    path = tmp_path / "external.csv"
    ids = tuple(f"s{s:02d}i{j:02d}" for s in range(3) for j in range(2))
    scores = np.eye(3)[[0, 0, 1, 1, 2, 2]]
    save_score_matrix(ScoreMatrix(ids[::-1], ("a", "b", "c"), scores[::-1]), path)
    assert main(chimeric_args(tmp_path, "-O", f"external_matrix={path}")) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "item id 1 is 's02i01', expected 's00i00'" in err


def sigscore_args(sig_dir, out, *extra):
    return [
        "sigscore", "-O", f"signature_dir={sig_dir}", "-O", "train_docs=2", "-O", "test_docs=2", "--output-dir", str(out),
        *extra,
    ]


def signature_matrix_run(tmp_path, extra_writers=0, edit=None, options=()) -> int:
    """Run a chimeric eval from signature_dir into direct/, and from sigscore's matrix of that directory into matrix/.

    ``extra_writers`` more writers than the corpus has authors are scored; ``edit``
    rewrites the matrix's lines first; ``options`` go to all three commands.
    Returns the exit code of the matrix run.
    """
    args = chimeric_args(tmp_path, *options)
    write_svc_dir(tmp_path / "sigs", n_writers=extra_writers, n_samples=4, start_writer=4)
    assert main(sigscore_args(tmp_path / "sigs", tmp_path / "scored", *options)) == 0
    path = tmp_path / "scored" / "signature_scores.csv"
    if edit is not None:
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n", encoding="utf-8")
    assert main(args + ["--output-dir", str(tmp_path / "direct")]) == 0
    return main(args + ["-O", f"signature_matrix={path}", "--output-dir", str(tmp_path / "matrix")])


def assert_same_signature_bundle(tmp_path):
    names = sorted(p.name for p in (tmp_path / "direct" / "signature").iterdir())
    assert names == ["cmc.csv", "det.csv", "fscore.csv", "msh.csv", "recall.csv", "summary.json"]
    for name in names:
        direct = (tmp_path / "direct" / "signature" / name).read_bytes()
        assert (tmp_path / "matrix" / "signature" / name).read_bytes() == direct


def test_sigscore_matrix_round_trip_matches_signature_dir_run(tmp_path):
    assert signature_matrix_run(tmp_path) == 0
    assert_same_signature_bundle(tmp_path)


def test_one_bin_histograms_score_at_most_one(tmp_path):
    # with one bin a moving sample's histogram sums its shares to 1 give or take a few ulp
    assert signature_matrix_run(tmp_path, options=("-O", "delta_alpha=360")) == 0
    assert_same_signature_bundle(tmp_path)
    scores = load_score_matrix(tmp_path / "scored" / "signature_scores.csv").scores
    assert scores.max() == 1.0


@pytest.mark.parametrize(
    "extra_writers, edit",
    [
        pytest.param(2, None, id="extra-writers"),
        pytest.param(0, lambda lines: [lines[0], *reversed(lines[1:])], id="reversed-rows"),
    ],
)
def test_signature_matrix_is_read_by_id(tmp_path, extra_writers, edit):
    # rows are taken by sample id and columns by writer label, so neither order nor unpaired writers matter
    assert signature_matrix_run(tmp_path, extra_writers, edit) == 0
    assert_same_signature_bundle(tmp_path)


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda lines: [lines[0].replace("w2", "w9"), *lines[1:]], "no subject label 'w2' (1 missing)",
            id="relabelled-column",
        ),
        pytest.param(lambda lines: lines[:-1], "no item id 'U3S4' (1 missing)", id="missing-row"),
        pytest.param(
            lambda lines: [lines[0].replace("w2", "w1"), *lines[1:]], "duplicate subject labels", id="repeated-column"
        ),
    ],
)
def test_misaligned_signature_matrix_is_data_error(tmp_path, capsys, edit, message):
    assert signature_matrix_run(tmp_path, edit=edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert message in err


# -- every config value either runs or fails cleanly --------------------------

@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-values")
    corpus_dir = disjoint_corpus(root)
    sig_dir = write_svc_dir(root / "sigs", n_writers=3, n_samples=4)
    assert main(sigscore_args(sig_dir, root / "scored")) == 0
    scores = root / "scored" / "signature_scores.csv"
    reversed_scores = root / "reversed.csv"
    lines = scores.read_text().splitlines()
    reversed_scores.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n", encoding="utf-8")
    external = root / "external.csv"
    ids = tuple(f"s{s:02d}i{j:02d}" for s in range(3) for j in range(2))
    save_score_matrix(ScoreMatrix(ids, ("a", "b", "c"), np.full((6, 3), 1.0 / 3.0)), external)
    a_file = root / "a_file.txt"
    a_file.write_text("not a directory\n", encoding="utf-8")
    paths = [corpus_dir, sig_dir, root / "missing", a_file]
    matrices = [scores, reversed_scores, external, root / "missing.csv", a_file, corpus_dir]
    return {
        "base": [
            "-O", f"corpus_dir={corpus_dir}", "-O", f"signature_dir={sig_dir}", "-O", f"output_dir={root / 'out'}",
            "-O", "train_window=3", "-O", "test_window=1", "-O", "train_docs=2", "-O", "test_docs=2",
        ],
        "paths": paths,
        "matrices": matrices,
        "outputs": [root / "out", root / "out" / "nested", a_file, a_file / "below"],
    }


def _config_values(inputs):
    """A strategy of raw values per config key, valid and invalid alike; none of them allocates much."""
    ints = st.one_of(st.integers(-3, 12), st.integers(-10_000, 10_000)).map(str)
    floats = st.one_of(
        st.floats(-2.0, 2.0).map(repr),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1e308"]),
    )
    junk = st.text(min_size=1, max_size=6)

    def one_of(values):
        return st.one_of(st.sampled_from([str(v) for v in values]), junk)

    return {
        "corpus_dir": one_of(inputs["paths"]),
        "protocol": one_of(config.PROTOCOLS),
        "train_window": ints,
        "test_window": ints,
        "train_docs": ints,
        "test_docs": ints,
        "feature_family": one_of(config.FAMILIES),
        "ngram_orders": st.lists(st.integers(-1, 10_000), max_size=3).map(lambda xs: ",".join(map(str, xs))),
        "sngram_element": one_of(config.ELEMENTS),
        "sngram_order": ints,
        "profile_size": ints,
        "classifier": one_of(config.CLASSIFIERS),
        "alpha": floats,
        "fusion_operator": one_of((*config.FUSION_OPERATORS, "sum")),
        "signature_dir": one_of(inputs["paths"]),
        "signature_matrix": one_of(inputs["matrices"]),
        "external_matrix": one_of(inputs["matrices"]),
        "external_kind": one_of(config.EXTERNAL_KINDS),
        # the config accepts at least 0.25 degrees, so at most 1440 histogram bins
        "delta_alpha": st.one_of(st.floats(0.25, 360.0).map(repr), floats, one_of(["0", "1e-6", "400"])),
        "msh_bins": ints,
        "grid_points": ints,
        "confidence": floats,
        # never a relative path: the run would write below the working directory
        "output_dir": st.sampled_from([str(v) for v in inputs["outputs"]]),
    }


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["eval", "train", "sigscore", "chimeric", "bench"]), data=st.data())
def test_any_config_value_runs_or_fails_cleanly(cli_inputs, command, data):
    values = _config_values(cli_inputs)
    assert set(values) == {f.name for f in fields(config.ExperimentConfig)}
    keys = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True, min_size=1, max_size=5))
    args = [command, *cli_inputs["base"]]
    if command == "bench":
        args += ["--sizes", "2,4", "--repeats", "1"]
    for key in keys:
        args += ["-O", f"{key}={data.draw(values[key], label=key)}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        code = main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- every input file either loads or fails cleanly ---------------------------

@pytest.fixture(scope="module")
def file_inputs(tmp_path_factory, cli_inputs):
    """Per input file: its path, and the CLI call that reads it; the call writes below the fixture's root."""
    root = tmp_path_factory.mktemp("cli-files")
    sidecar_corpus = disjoint_corpus(root)
    model_out = root / "model"
    corpus_arg = cli_inputs["base"][:2]
    assert main(["train", *corpus_arg, "--output-dir", str(model_out)]) == 0
    probe = root / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2 s1w0", encoding="utf-8")
    out = ["--output-dir", str(root / "out")]
    chimeric = ["eval", *cli_inputs["base"], "-O", "protocol=chimeric", *out]
    config_path, external, signature_scores = root / "exp.conf", root / "external.csv", root / "signature.csv"
    return {
        "config": (config_path, ["train", "-c", str(config_path), *corpus_arg, *out]),
        "conllu": (sidecar_corpus / "subj0" / "doc00.conllu", ["train", "-O", f"corpus_dir={sidecar_corpus}", *out]),
        "external_matrix": (external, [*chimeric, "-O", f"external_matrix={external}"]),
        "signature_matrix": (signature_scores, [*chimeric, "-O", f"signature_matrix={signature_scores}"]),
        "model": (model_out / "model.npz", ["attribute", "--model", str(model_out / "model.npz"), str(probe)]),
    }


def _run_on_file(file_inputs, target, content):
    """Write ``content`` to the target's file and run the call that reads it: (exit code, stderr)."""
    path, args = file_inputs[target]
    path.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        code = main(args)
    return code, err.getvalue()


@pytest.mark.parametrize("target", ["config", "conllu", "external_matrix", "signature_matrix"])
def test_undecodable_input_file_is_clean_error(file_inputs, target):
    path = file_inputs[target][0]
    expected = (2, f"config error: cannot read config {path}") if target == "config" else (1, f"data error: cannot read {path}")
    assert _run_on_file(file_inputs, target, b"item_id\xff\n") == (
        expected[0],
        f"{expected[1]}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n",
    )


def test_conllu_label_with_separator_is_data_error(file_inputs):
    path = file_inputs["conllu"][0]
    row = "1\ta\x1fb\ta\tX\t_\t_\t0\troot\t_\t_\n"
    assert _run_on_file(file_inputs, "conllu", row.encode()) == (
        1,
        f"data error: {path}:1: FORM 'a\\x1fb' holds a control character (U+0000-U+001F)\n",
    )


@settings(max_examples=40, deadline=None)
@given(
    target=st.sampled_from(["config", "conllu", "external_matrix", "model"]),
    prefix=st.sampled_from([b"", b"PK\x03\x04", b"\x93NUMPY", b"\xff"]),
    rest=st.binary(max_size=64),
)
def test_any_input_file_content_runs_or_fails_cleanly(file_inputs, target, prefix, rest):
    code, err = _run_on_file(file_inputs, target, prefix + rest)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_process(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter on this checkout's ``src``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_loads_neither_scipy_stats_nor_bench():
    # scipy.stats alone cost most of a fresh CLI import, scipy.special over a tenth of a
    # second more, and scipy.sparse about 0.19 s; bench is for its command only
    modules = ("scipy.stats", "scipy.special", "scipy.sparse", "stylosig.bench")
    code = f"import json, sys, stylosig.cli; print(json.dumps([stylosig.cli.__file__] + [m in sys.modules for m in {modules!r}]))"
    module, *loaded = _fresh_process(code)
    assert Path(module).parent == SRC / "stylosig"
    assert loaded == [False] * len(modules)


# the scipy modules a process has loaded
SCIPY_MODULES = "{m for m in sys.modules if m.split('.')[0] == 'scipy'}"


def test_train_sigscore_and_chimeric_load_no_scipy(tmp_path):
    # scoring loads only the product kernel's extension module, and only eval's statistics call scipy.special
    corpus_dir = disjoint_corpus(tmp_path)
    sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=3, n_samples=4)
    probe = tmp_path / "probe.txt"
    probe.write_text("s1w0 s1w1 s1w2", encoding="utf-8")
    sizes = ["-O", "train_docs=2", "-O", "test_docs=2"]
    calls = [
        ["train", "-O", f"corpus_dir={corpus_dir}", "--output-dir", str(tmp_path / "model")],
        ["attribute", "--model", str(tmp_path / "model" / "model.npz"), "--scores", str(tmp_path / "scores.csv"), str(probe)],
        ["sigscore", "-O", f"signature_dir={sig_dir}", *sizes, "--output-dir", str(tmp_path / "sig")],
        ["chimeric", "-O", f"corpus_dir={corpus_dir}", "-O", f"signature_dir={sig_dir}", *sizes, "--output-dir", str(tmp_path / "plan")],
    ]
    code = f"import json, sys; from stylosig.cli import main; codes = [main(argv) for argv in {calls!r}]; print(json.dumps([codes, sorted({SCIPY_MODULES})]))"
    assert _fresh_process(code) == [[0, 0, 0, 0], ["scipy.sparse._sparsetools"]]


@pytest.mark.parametrize("protocol", ["rolling", "chimeric"])
def test_no_stage_of_a_fresh_eval_imports_scipy(tmp_path, protocol):
    # the kernels load before the eval's clock starts, so run.json's stage seconds time the program's own work,
    # and the product kernel loads without the scipy.sparse package
    corpus_dir = disjoint_corpus(tmp_path)
    argv = ["eval", "-O", f"corpus_dir={corpus_dir}", "-O", "train_window=3", "-O", "test_window=1"]
    if protocol == "chimeric":
        sig_dir = write_svc_dir(tmp_path / "sigs", n_writers=3, n_samples=4)
        argv += ["-O", "protocol=chimeric", "-O", f"signature_dir={sig_dir}", "-O", "train_docs=2", "-O", "test_docs=2"]
    argv += ["--output-dir", str(tmp_path / "out")]
    code = (
        "import contextlib, json, sys; from stylosig import experiment; from stylosig.cli import main\n"
        "timed, new = experiment._timed, {}\n"
        "@contextlib.contextmanager\n"
        "def watched(seconds, stage):\n"
        f"    before = {SCIPY_MODULES}\n"
        "    with timed(seconds, stage):\n"
        "        yield\n"
        f"    new[stage] = sorted({SCIPY_MODULES} - before)\n"
        "experiment._timed = watched\n"
        f"print(json.dumps([main({argv!r}), new, 'scipy.sparse' in sys.modules]))"
    )
    rc, new, sparse_loaded = _fresh_process(code)
    stages = ["load", "extract", "folds", "write"] + (["signature"] if protocol == "chimeric" else [])
    assert rc == 0 and sorted(new) == sorted(stages) and not sparse_loaded
    assert new == {stage: [] for stage in stages}
