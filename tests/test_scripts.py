"""Smoke tests: the example scripts run end to end and write their bundles."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stylosig import cli
from stylosig.config import ExperimentConfig
from stylosig.corpus import read_conllu
from stylosig.features import _token_bytes
from stylosig.signature import load_svc

from .test_experiment import disjoint_corpus

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_chimeric_writes_every_bundle(tmp_path, capsys):
    out = tmp_path / "demo"
    assert load_script("demo_chimeric").main(["--subjects", "6", "--out", str(out)]) == 0
    assert (out / "run.json").is_file()
    for system in ("mnb", "signature", "mnb+signature"):
        assert (out / system / "summary.json").is_file()
        assert (out / system / "det.csv").is_file()
    assert "mnb+signature" in capsys.readouterr().out
    corpus = load_svc(out / "data" / "signatures")
    points = sum(len(s.points) for samples in corpus.by_writer.values() for s in samples)
    signature = json.loads((out / "run.json").read_text(encoding="utf-8"))["signature"]
    assert signature == {
        "samples": 6 * 20, "points": points, "checked_parse_files": 0, "still_probes": 0, "still_subjects": 0,
    }


def test_demo_signatures_take_the_fast_parse(tmp_path):
    # a silent fall back to the line-by-line parse would show here, not as a failure
    root = tmp_path / "sigs"
    load_script("demo_chimeric").synth_signatures(root, 3, 4, np.random.default_rng(5))
    corpus = load_svc(root)
    assert len(corpus) == 12
    assert corpus.checked_parse_files == 0
    (root / "U1S5.txt").write_text("2\n1 2 3 1\x0c4 5 6 1\n", encoding="utf-8")  # a line end for splitlines()
    assert load_svc(root).checked_parse_files == 0
    (root / "U1S6.txt").write_text("2\n1 2 3 1\n1_000 5 6 1\n", encoding="utf-8")  # int() alone reads 1_000
    assert load_svc(root).checked_parse_files == 1


def test_profile_sweep_writes_one_bundle_per_size(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "sweep"
    argv = [str(corpus_dir), "--sizes", "50,100", "--train-window", "3", "--test-window", "1", "--out", str(out)]
    assert load_script("profile_sweep").main(argv) == 0
    for m in (50, 100):
        assert (out / f"m{m}" / "run.json").is_file()
        assert (out / f"m{m}" / "mnb" / "summary.json").is_file()
    assert capsys.readouterr().out.count("m=") == 2


def test_profile_sweep_passes_on_only_the_flags_given(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    sweep = load_script("profile_sweep").main
    windows = [str(corpus_dir), "--sizes", "50", "--train-window", "3", "--test-window", "1"]
    assert sweep([*windows, "--out", str(tmp_path / "defaults")]) == 0
    assert sweep([*windows, "--orders", "1", "--alpha", "0.5", "--classifier", "pnb", "--out", str(tmp_path / "given")]) == 0
    keys = ("ngram_orders", "alpha", "classifier")
    defaults = json.loads((tmp_path / "defaults" / "m50" / "run.json").read_text())["config"]
    assert [defaults[key] for key in keys] == [json.loads(json.dumps(ExperimentConfig().to_json()))[key] for key in keys]
    given = json.loads((tmp_path / "given" / "m50" / "run.json").read_text())["config"]
    assert [given[key] for key in keys] == [[1], 0.5, "pnb"]
    assert (given["train_window"], given["test_window"], given["profile_size"]) == (3, 1, 50)
    assert (tmp_path / "given" / "m50" / "pnb" / "summary.json").is_file()


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--sizes", "a"], 2, "config error: --sizes 'a': expected comma-separated integers\n"),
        (["--train-window", "0"], 2, "config error: train_window='0': must be >= 1\n"),
        ([], 1, "data error: corpus root {missing} is not a directory\n"),
    ],
)
def test_profile_sweep_reports_bad_input_as_the_cli_does(tmp_path, capsys, flags, code, message):
    corpus_dir = disjoint_corpus(tmp_path) if code == 2 else tmp_path / "missing"
    argv = [str(corpus_dir), "--sizes", "50", *flags, "--out", str(tmp_path / "sweep")]
    assert load_script("profile_sweep").main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == message.format(missing=corpus_dir)
    assert "Traceback" not in captured.err and captured.out == ""


def test_sngram_sidecars_parse_and_give_a_reproducible_eval(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)  # 12 documents of 30 tokens
    script = load_script("sngram_sidecars")
    assert script.main([str(corpus_dir), "--seed", "3"]) == 0
    assert capsys.readouterr().out == f"wrote 12 sidecars under {corpus_dir}\n"
    sidecars = {path: path.with_suffix(".conllu").read_bytes() for path in sorted(corpus_dir.rglob("*.txt"))}
    for path in sidecars:
        tree = read_conllu(path.with_suffix(".conllu"))
        assert tree.form == tuple(_token_bytes(path.read_text(encoding="utf-8")).decode().split())
        # 12 nodes a sentence, rooted at its first; every other node's head is an earlier node of its sentence
        assert all(head == -1 if i % 12 == 0 else i - i % 12 <= head < i for i, head in enumerate(tree.head))
    assert script.main([str(corpus_dir), "--seed", "3"]) == 0
    assert sidecars == {path: path.with_suffix(".conllu").read_bytes() for path in sidecars}
    assert script.sidecar([], np.random.default_rng(0)) == ""
    bundles = []
    for run in ("first", "second"):
        out = tmp_path / run
        overrides = ["feature_family=sngram", f"corpus_dir={corpus_dir}", "train_window=3", "test_window=1"]
        assert cli.main(["eval", *(arg for key in overrides for arg in ("-O", key)), "--output-dir", str(out)]) == 0
        bundles.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file() and p.name != "run.json"})
    assert bundles[0] and bundles[0] == bundles[1]


def test_sngram_sidecars_of_a_missing_root_is_a_data_error(tmp_path, capsys):
    assert load_script("sngram_sidecars").main([str(tmp_path / "missing"), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"data error: corpus root {tmp_path / 'missing'} is not a directory\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--workload", "nosuch", "--seeds", "1-1"], "--workload 'nosuch': not one of rolling, chimeric, attribute"),
        (["--workload", "attribute", "--seeds", "3,5"], "--seeds '3,5': not a range A-B of integers"),
        (["--workload", "attribute", "--seeds", "5-3"], "--seeds '5-3': need 0 <= A <= B"),
        (["--workload", "attribute", "--seeds", "1-1", "--parent", "no-such-commit"], "git rev-parse --verify no-such-commit^{commit}"),
        (["--seeds", "1-1"], "the following arguments are required: --workload"),
    ],
)
def test_bench_record_refuses_a_bad_argument_before_it_runs_anything(tmp_path, argv, message):
    output = tmp_path / "bench.json"
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "bench_record.py"), *argv, "--output", str(output)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert message in result.stderr and "Traceback" not in result.stderr
    assert not output.exists()


def test_bench_record_gives_the_parent_copy_bytecode(tmp_path):
    # the working tree may hold bytecode, and a fresh interpreter without it compiles all of src
    load_script("bench_record").prepare("HEAD", tmp_path / "parent")
    cli = tmp_path / "parent" / "src" / "stylosig" / "cli.py"
    assert cli.is_file() and Path(importlib.util.cache_from_source(str(cli))).is_file()


def test_bench_record_times_attribute_calls_in_a_fresh_process(tmp_path):
    script = load_script("bench_record")
    ms = script.cpu_ms_per_call(script.ROOT, tmp_path / "data", 3, 1)
    assert len(ms) == 8 and all(t > 0 for t in ms)  # one timed pass of a unit's 8 calls
    assert [path.name for path in (tmp_path / "data").iterdir()] == ["attribute-v3"]


def test_bench_record_summarizes_cpu_time_per_call():
    pairs = [
        {"cpu_ms": {"parent": [3.0, 5.0, 4.0], "change": [2.0, 2.5, 3.0]}},
        {"cpu_ms": {"parent": [1.0], "change": [2.0]}},
    ]
    summary = load_script("bench_record").summarize_cpu(pairs)
    assert (summary["wins"], summary["pairs"], summary["unit"], summary["better"]) == (1, 2, "ms", "lower")
    assert summary["parent"] == {"median": 3.5, "q1": 2.5, "q3": 4.25}  # over every call: 1, 3, 4, 5
    assert summary["change"] == {"median": 2.25, "q1": 2.0, "q3": 2.625}
