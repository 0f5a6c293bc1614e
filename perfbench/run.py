"""Benchmark of the stylosig CLI on three seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload rolling|chimeric|attribute \\
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and driven through
``stylosig.cli.main`` in a child process with one thread.  Inputs are
generated from the seed before anything is timed and cached under
``perfbench/.work``.  Every run checks the program's outputs against
``perfbench/reference``.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics of
a traced run (see ``tracer.py``).  Each metric is printed on its own line
with its unit, and the last line of standard output is one JSON object.
The run exits with code 1 without a result if the program or its inputs
cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference"

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MEASURE_GRACE_S = 100  # one unit may overrun the budget; a hung worker may not
ACCOUNTING_TOLERANCE_S = 1e-6
MAX_PROBLEMS = 20  # failures printed; all are counted


class BenchError(Exception):
    """The workload could not be run; no result is printed."""


def _worker(mode: str, spec: dict, run_dir: Path, timeout: float) -> dict:
    spec_path = run_dir / f"{mode}-spec.json"
    result_path = run_dir / f"{mode}-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(result_path)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"stylosig was imported from {result['module']}, not from {SRC}")
    return result


def run_probes(name: str, inputs: workloads.Inputs, run_dir: Path, count: int) -> list[float]:
    """Fresh interpreters that import the CLI and run the set-up calls."""
    setup_s = []
    for _ in range(count):
        spec = {"setup_calls": workloads.setup_calls(name, inputs, run_dir / "model")}
        result = _worker("probe", spec, run_dir, PROBE_TIMEOUT_S)
        if result["problems"]:
            raise BenchError("; ".join(result["problems"]))
        setup_s.append(result["import_s"] + result["setup_calls_s"])
    return setup_s


def run_measure(name: str, inputs: workloads.Inputs, run_dir: Path, seconds: float, trace: bool) -> dict:
    out = run_dir / "out"
    spec = {
        "unit_calls": workloads.unit_calls(name, inputs, run_dir / "model", out / "u{unit}"),
        "warmup_units": 1 if name == "attribute" else 0,
        "seconds": seconds,
        "trace": trace,
        "spans_path": str(run_dir / "spans.jsonl"),
    }
    return _worker("measure", spec, run_dir, seconds + MEASURE_GRACE_S)


def load_reference(name: str, seed: int) -> dict:
    path = REFERENCE / f"{name}.json"
    try:
        variants = json.loads(path.read_text(encoding="utf-8"))["variants"]
        return variants[str(workloads.variant(seed))]
    except (OSError, KeyError, json.JSONDecodeError) as exc:
        raise BenchError(f"no reference output for {name} seed {seed} in {path}: {exc}") from None


def failed_calls(name: str, inputs: workloads.Inputs, run_dir: Path, result: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every call of the run.

    A call fails when it raises, exits non-zero, or its output differs
    from the reference; an ``eval`` also fails when its bundle bytes
    differ from those of the run's first ``eval``.
    """
    attempted = failed = 0
    problems: list[str] = list(result["errors"])
    first_digest = None
    call_texts = workloads.attribute_batches(inputs) if name == "attribute" else None
    for u, unit in enumerate(result["units"]):
        for i, (rc, out_id) in enumerate(zip(unit["exit_codes"], unit["outputs"])):
            attempted += 1
            found: list[str] = []
            if rc != 0:
                found.append(f"unit {u} call {i} exited {rc}")
            elif call_texts is not None:
                labels = check.attribute_labels(result["outputs"][out_id], call_texts[i])
                per = workloads.TEXTS_PER_CALL
                if labels != reference["labels"][i * per : (i + 1) * per]:
                    found.append(f"unit {u} call {i}: labels {labels} differ from the reference")
            else:
                out_dir = run_dir / "out" / f"u{u}"
                try:
                    found.extend(check.compare(reference, check.capture_bundles(out_dir), f"u{u}"))
                    digest = check.digest(out_dir)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    found.append(f"unit {u}: unreadable outputs: {exc}")
                else:
                    first_digest = first_digest or digest
                    if digest != first_digest:
                        found.append(f"unit {u}: output bytes differ from unit 0 of this run")
            if found:
                failed += 1
                problems.extend(found[: max(0, MAX_PROBLEMS - len(problems))])
    return attempted, failed, problems


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, setup_s: list[float]) -> dict[str, float]:
    """End-to-end metrics of the untraced units.

    Unit wall times are summarised by their 90th percentile and call
    latencies by their 95th: on a shared 2-vCPU host (Intel Xeon) the CPU
    speed was seen to drift over seconds between a slower, steady level and
    faster, variable ones, and the upper percentiles track the steady level.
    The medians are printed as well.
    """
    units = [u for u in result["units"] if not u["traced"]]
    walls = [u["wall_s"] for u in units]
    latencies_ms = [1000.0 * t for u in units for t in u["latencies_s"]]
    return {
        "wall_p90_s": _percentile(walls, 90),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "call_p95_ms": _percentile(latencies_ms, 95),
        "wall_s": statistics.median(walls),
        "call_p50_ms": statistics.median(latencies_ms),
    }


UNBOUNDED_UNITS = {"wall_s": "s", "call_p50_ms": "ms"}  # printed, not in BENCHMARK.json


def per_layer(result: dict) -> tuple[dict[str, float], list[str]]:
    """Mean per-unit layer metrics of the traced units, with any warnings."""
    import tracer

    traced = [u for u in result["units"] if u["traced"]]
    plain = [u for u in result["units"] if not u["traced"]]
    layers = [u["layers"] for u in traced]
    metrics = {k: statistics.fmean(m[k] for m in layers) for k in layers[0]}
    notes = []
    for k in tracer.COUNT_METRICS:
        metrics[k] = layers[0][k]
        if any(m[k] != layers[0][k] for m in layers):
            notes.append(f"count {k} differs between traced units")
    traced_wall = statistics.fmean(u["wall_s"] for u in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.fmean(u["wall_s"] for u in plain)
    metrics["trace.outside_s"] = traced_wall - metrics.pop("trace.root_s")  # harness, between calls
    metrics["trace.absent_spans"] = len(result["absent"])
    metrics["trace.broken_counters"] = sum(sum(u["broken"].values()) for u in traced)
    accounted = sum(metrics[m] for m in tracer.LAYER_METRICS.values())
    if abs(accounted + metrics["trace.outside_s"] - traced_wall) > ACCOUNTING_TOLERANCE_S:
        notes.append(f"layer self times add up to {accounted:.6f} s, not to the traced calls")
    notes.extend(f"absent span {name}" for name in result["absent"])
    return metrics, notes


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def execute(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "stylosig" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'stylosig'}")
    spec = benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    reference = load_reference(name, seed)
    inputs = workloads.prepare(name, seed, WORK / "data")
    run_dir = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # a traced run needs set-up only for the model file attribute reads
    probes = SETUP_PROBES if not trace else int(name == "attribute")
    setup_s = run_probes(name, inputs, run_dir, probes)
    result = run_measure(name, inputs, run_dir, seconds, trace)
    attempted, failed, problems = failed_calls(name, inputs, run_dir, result, reference)
    if trace:
        values, notes = per_layer(result)
    else:
        values, notes = end_to_end(result, setup_s), []
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "unbounded": {k: {"value": values[k], "unit": u} for k, u in UNBOUNDED_UNITS.items() if k in values},
        "units": sum(not u["traced"] for u in result["units"]),
        "notes": notes + problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for note in outcome["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name, metric in [*outcome["metrics"].items(), *outcome["unbounded"].items()]:
        value = metric["value"]
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {metric['unit']}")
    print(
        f"attempted = {outcome['attempted']} calls in {outcome['units']} untraced units, "
        f"failed = {outcome['failed']}, fail_ratio = {outcome['failed'] / outcome['attempted']:.6g}"
    )
    print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
