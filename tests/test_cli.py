import json
import re

import numpy as np
import pytest

from stylosig.cli import main
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
