"""Tests of the benchmark harness itself (not of the program it measures).

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import gen
import tracer
import workloads
from tracer import Probe, Span, Tracer

BENCH = Path(__file__).resolve().parents[1]


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    a = _tree_bytes(workloads.prepare(name, 3, tmp_path / "a").root)
    b = _tree_bytes(workloads.prepare(name, 3, tmp_path / "b").root)
    c = _tree_bytes(workloads.prepare(name, 4, tmp_path / "c").root)
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_seeds_in_one_variant_share_inputs(tmp_path):
    first = workloads.prepare("attribute", 1, tmp_path)
    again = workloads.prepare("attribute", 1 + workloads.VARIANTS, tmp_path)
    assert first.root == again.root


def test_author_texts_differ_and_vocabulary_grows(tmp_path):
    rng = np.random.default_rng(0)
    cdfs = gen.author_cdfs(rng, 2)
    gen.write_corpus(tmp_path, rng, cdfs, 3, 400)
    docs = [p.read_text(encoding="utf-8") for p in sorted(tmp_path.rglob("*.txt"))]
    assert len(set(docs)) == len(docs)
    types = [set(d.replace(".", " ").split()) for d in docs]
    assert len(set().union(*types)) > max(len(t) for t in types)


def test_signature_files_follow_the_capture_format(tmp_path):
    gen.write_signatures(tmp_path / "sigs", np.random.default_rng(0), 2, 3)
    path = tmp_path / "sigs" / "U2S3.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert int(lines[0]) == len(lines) - 1
    assert all(len(line.split()) == 4 for line in lines[1:])


# ---------------------------------------------------------------------------
# self time


def test_self_time_is_span_minus_child_spans():
    tr = Tracer()
    tr.spans = [
        Span("cli.main", "cli", 0.0, 10.0, -1),
        Span("features.extract", "features", 1.0, 4.0, 0),
        Span("experiment.fit", "experiment", 5.0, 9.0, 0),
        Span("features.extract", "features", 6.0, 7.5, 2),
    ]
    assert tr.self_times() == [3.0, 3.0, 2.5, 1.5]
    metrics = tracer.unit_metrics(tr)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["features.self_s"] == 4.5
    assert metrics["experiment.self_s"] == 2.5
    assert sum(metrics[m] for m in tracer.LAYER_METRICS.values()) == metrics["trace.root_s"] == 10.0


def test_wrapped_calls_nest_and_bookkeeping_is_its_own_layer():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap(lambda x: x + 1, Probe("m", "inner", "b", lambda t, args, result: None))
    outer = tr.wrap(lambda x: inner(inner(x)), Probe("m", "outer", "a"))
    assert outer(1) == 3
    names = [s.name for s in tr.spans]
    assert names == ["a.outer", "b.inner", "trace.count", "b.inner", "trace.count"]
    assert all(s.parent == 0 for s in tr.spans[1:])
    own = tr.self_times()
    assert sum(own) == tr.spans[0].end - tr.spans[0].start


# ---------------------------------------------------------------------------
# output check


def _bundle():
    return {
        "mnb": {
            "summary.json": {
                "n_claims": 60,
                "n_tied_decisions": 0,
                "accuracy": {"value": 0.25, "method": "wilson"},
            },
            "fscore.csv": {"header": ["threshold", "fscore"], "rows": [[0.0, 0.1], [1.0, 0.0]]},
        }
    }


def test_check_accepts_differences_within_tolerance_and_new_keys():
    actual = _bundle()
    actual["mnb"]["summary.json"]["accuracy"]["value"] += 0.5 * check.TOLERANCE
    actual["mnb"]["summary.json"]["fold_count"] = 13
    assert check.compare(_bundle(), actual) == []


@pytest.mark.parametrize(
    "perturb",
    [
        lambda b: b["mnb"]["summary.json"].update(n_tied_decisions=1),
        lambda b: b["mnb"]["summary.json"].update(n_claims=60.0),
        lambda b: b["mnb"]["summary.json"]["accuracy"].update(value=0.25 + 3 * check.TOLERANCE),
        lambda b: b["mnb"]["fscore.csv"]["rows"][0].__setitem__(1, 0.2),
        lambda b: b["mnb"]["fscore.csv"]["rows"].pop(),
        lambda b: b["mnb"]["summary.json"].pop("accuracy"),
    ],
)
def test_check_rejects_a_perturbed_summary(perturb):
    actual = copy.deepcopy(_bundle())
    perturb(actual)
    assert check.compare(_bundle(), actual)


def test_attribute_labels_need_each_text_once():
    out = "a.txt\tauthor001\nb.txt\tauthor002 (tie)\n"
    assert check.attribute_labels(out, ["a.txt", "b.txt"]) == ["author001", "author002 (tie)"]
    assert check.attribute_labels(out, ["a.txt", "c.txt"]) is None
    assert check.attribute_labels(out + "a.txt\tauthor001\n", ["a.txt"]) is None


def test_digest_ignores_run_json_only(tmp_path):
    (tmp_path / "mnb").mkdir()
    (tmp_path / "mnb" / "fscore.csv").write_text("x\n", encoding="utf-8")
    (tmp_path / "run.json").write_text("{}", encoding="utf-8")
    before = check.digest(tmp_path)
    (tmp_path / "run.json").write_text('{"elapsed_seconds": 1}', encoding="utf-8")
    assert check.digest(tmp_path) == before
    (tmp_path / "mnb" / "fscore.csv").write_text("y\n", encoding="utf-8")
    assert check.digest(tmp_path) != before


# ---------------------------------------------------------------------------
# traced runs of the real program


def _small_rolling_corpus(root: Path) -> Path:
    rng = np.random.default_rng(5)
    gen.write_corpus(root, rng, gen.author_cdfs(rng, 3), 13, 60)
    return root


def _traced_eval(corpus: Path, out: Path) -> dict:
    import stylosig.cli as cli

    tr = Tracer()
    tr.install()
    try:
        rc = cli.main(["eval", "-O", f"corpus_dir={corpus}", "--output-dir", str(out)])
    finally:
        tr.uninstall()
    assert rc == 0
    assert tr.absent == [] and not tr.broken
    return tracer.unit_metrics(tr)


def test_counts_repeat_exactly_across_traced_runs(tmp_path, capsys):
    corpus = _small_rolling_corpus(tmp_path / "corpus")
    first = _traced_eval(corpus, tmp_path / "out1")
    second = _traced_eval(corpus, tmp_path / "out2")
    capsys.readouterr()
    assert {k: first[k] for k in tracer.COUNT_METRICS} == {k: second[k] for k in tracer.COUNT_METRICS}
    assert first["features.extracts_per_doc"] == 13
    assert first["experiment.folds"] == 13
    assert first["classifiers.load_s"] == 0.0
    assert 0.0 < first["features.oov_rate"] < 1.0
    assert first["metrics.bytes_written"] > 0


def test_uninstall_restores_every_binding():
    import stylosig.cli as cli
    import stylosig.experiment as experiment
    import stylosig.features as features

    before = (features.vectorize, experiment.vectorize, cli.vectorize, features.FeatureModel.extract, cli.main)
    tr = Tracer()
    tr.install()
    assert experiment.vectorize is cli.vectorize is features.vectorize
    assert features.vectorize is not before[0]
    assert features.FeatureModel.extract is not before[3]
    tr.uninstall()
    after = (features.vectorize, experiment.vectorize, cli.vectorize, features.FeatureModel.extract, cli.main)
    assert all(a is b for a, b in zip(before, after))


def test_a_deleted_function_is_reported_absent():
    tr = Tracer()
    tr.install([Probe("stylosig.features", "no_such_function", "features"), Probe("no_such_module", "f", "x")])
    tr.uninstall()
    assert tr.absent == ["features.no_such_function", "x.f"]


# ---------------------------------------------------------------------------
# the command outside a source checkout


def test_run_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rolling", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_metric_the_tracer_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]}
    assert set(tracer.SPAN_METRICS) | set(tracer.LAYER_METRICS.values()) | set(tracer.COUNT_METRICS) <= names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_variant_has_a_reference(name):
    import run

    for seed in range(workloads.VARIANTS):
        assert run.load_reference(name, seed)
