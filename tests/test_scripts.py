"""Smoke tests: the example scripts run end to end and write their bundles."""

import importlib.util
from pathlib import Path

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


def test_profile_sweep_writes_one_bundle_per_size(tmp_path, capsys):
    corpus_dir = disjoint_corpus(tmp_path)
    out = tmp_path / "sweep"
    argv = [str(corpus_dir), "--sizes", "50,100", "--train-window", "3", "--test-window", "1", "--out", str(out)]
    assert load_script("profile_sweep").main(argv) == 0
    for m in (50, 100):
        assert (out / f"m{m}" / "run.json").is_file()
        assert (out / f"m{m}" / "mnb" / "summary.json").is_file()
    assert capsys.readouterr().out.count("m=") == 2
