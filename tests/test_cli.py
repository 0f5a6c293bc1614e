import contextlib
import io
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylosig import config
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
    assert "docs/subject" in capsys.readouterr().out


def test_bench_bad_sizes_is_config_error(tmp_path, capsys):
    assert main(["bench", "--sizes", "two,four", "--output-dir", str(tmp_path)]) == 2


def test_env_var_redirects_output(tmp_path, monkeypatch):
    corpus_dir = disjoint_corpus(tmp_path)
    env_out = tmp_path / "envout"
    monkeypatch.setenv("STYLOSIG_OUTPUT_DIR", str(env_out))
    assert main(["train", "-O", f"corpus_dir={corpus_dir}"]) == 0
    assert (env_out / "model.npz").is_file()


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


def sigscore_args(sig_dir, out):
    return ["sigscore", "-O", f"signature_dir={sig_dir}", "-O", "train_docs=2", "-O", "test_docs=2", "--output-dir", str(out)]


def test_sigscore_matrix_round_trip_matches_signature_dir_run(tmp_path):
    args = chimeric_args(tmp_path)
    sig_dir = tmp_path / "sigs"
    assert main(sigscore_args(sig_dir, tmp_path / "scored")) == 0
    assert main(args + ["--output-dir", str(tmp_path / "direct")]) == 0
    matrix_arg = f"signature_matrix={tmp_path / 'scored' / 'signature_scores.csv'}"
    assert main(args + ["-O", matrix_arg, "--output-dir", str(tmp_path / "matrix")]) == 0
    names = sorted(p.name for p in (tmp_path / "direct" / "signature").iterdir())
    assert names == ["cmc.csv", "det.csv", "fscore.csv", "msh.csv", "recall.csv", "summary.json"]
    for name in names:
        direct = (tmp_path / "direct" / "signature" / name).read_bytes()
        assert (tmp_path / "matrix" / "signature" / name).read_bytes() == direct


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0], *reversed(lines[1:])], "item id 1 is 'U3S4', expected 'U1S3'"),
        (lambda lines: [lines[0].replace("w2", "w9"), *lines[1:]], "subject label 2 is 'w9', expected 'w2'"),
    ],
)
def test_misaligned_signature_matrix_is_data_error(tmp_path, capsys, edit, message):
    args = chimeric_args(tmp_path)
    assert main(sigscore_args(tmp_path / "sigs", tmp_path / "scored")) == 0
    path = tmp_path / "scored" / "signature_scores.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(args + ["-O", f"signature_matrix={path}"]) == 1
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
@given(command=st.sampled_from(["eval", "train", "sigscore", "chimeric"]), data=st.data())
def test_any_config_value_runs_or_fails_cleanly(cli_inputs, command, data):
    values = _config_values(cli_inputs)
    assert set(values) == {f.name for f in fields(config.ExperimentConfig)}
    keys = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True, min_size=1, max_size=5))
    args = [command, *cli_inputs["base"]]
    for key in keys:
        args += ["-O", f"{key}={data.draw(values[key], label=key)}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        code = main(args)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
