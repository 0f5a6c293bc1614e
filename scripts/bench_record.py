"""Record the benchmark of the working tree against a parent commit, in alternating pairs, as one JSON file.

For every seed and workload it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the ``run_seconds`` of ``BENCHMARK.json``, once in a copy of the
parent commit (``git archive`` into a temporary directory) and once in the
working tree, the side that goes first taking turns from pair to pair, so
that a drift of the host's speed falls on both sides alike.  Before the
first pair it compiles the bytecode of ``src`` and ``perfbench`` on both
sides, so that no fresh interpreter on either side compiles the program,
even where ``PYTHONDONTWRITEBYTECODE`` is set.  It keeps the JSON line that
each run prints last and writes, per workload and end-to-end metric of
``BENCHMARK.json``, the median and quartiles of each side and the number of
pairs in which the working tree did better.  The file also holds the
commits, the host's CPU count and the seeds.

On ``attribute`` each pair also measures the CPU time of calls made in
process, where the host's drifting speed spreads wall times more widely:
one fresh interpreter per side, the sides taking turns as above, trains
the model of the seed's inputs (``perfbench/.work/data/attribute-v<k>``,
which the pair's runs generate) and makes the benchmark's ``attribute``
calls, one untimed pass and then ``CPU_PASSES`` timed ones.  Each side's
median and quartiles of CPU ms per call, over every timed call, go under
``cpu_ms_per_call``, with the pairs in which the working tree's median was lower.

    python3 scripts/bench_record.py --parent HEAD --workload attribute \\
        --seeds 1-10 --output BENCH_N.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CPU_PASSES = 10
WORK_DATA = ROOT / "perfbench" / ".work" / "data"  # perfbench's input cache, shared by both sides' probes
# run in a checkout with arguments CACHE SEED PASSES: prints the CPU ms of each timed attribute call as JSON
CPU_PROBE = """
import contextlib, io, json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
from stylosig.cli import main
inputs = workloads.prepare("attribute", int(sys.argv[2]), Path(sys.argv[1]))
ms = []
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    if any(main(call) for call in workloads.setup_calls("attribute", inputs, Path(tmp))):
        sys.exit("train failed")
    calls = workloads.unit_calls("attribute", inputs, Path(tmp), Path(tmp))
    for k in range(1 + int(sys.argv[3])):
        for call in calls:
            start = time.process_time()
            if main(call):
                sys.exit("attribute failed")
            if k:
                ms.append(round(1000 * (time.process_time() - start), 4))
print(json.dumps(ms))
"""


class UsageError(Exception):
    """A bad argument: exit 2."""


def parse_seeds(text: str) -> list[int]:
    """``A-B``: the seeds A to B, at least 0."""
    try:
        first, last = (int(part) for part in text.split("-"))
    except ValueError:
        raise UsageError(f"--seeds {text!r}: not a range A-B of integers") from None
    if not 0 <= first <= last:
        raise UsageError(f"--seeds {text!r}: need 0 <= A <= B")
    return list(range(first, last + 1))


def git(*args: str) -> str:
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if result.returncode:
        raise UsageError(f"git {' '.join(args)}: {result.stderr.strip()}")
    return result.stdout.strip()


def check_args(args) -> tuple[dict, list[int]]:
    """``BENCHMARK.json`` and the seeds; a bad argument is a ``UsageError``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        raise UsageError(f"--workload {unknown[0]!r}: not one of {', '.join(names)}")
    if not Path(args.output).resolve().parent.is_dir():
        raise UsageError(f"--output {args.output}: its directory does not exist")
    return spec, parse_seeds(args.seeds)


def extract(commit: str, into: Path) -> None:
    """The tree of ``commit`` under ``into``, as ``git archive`` gives it."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the archive is the repo's own; Python releases before 3.10.12 and 3.11.4 have no extraction filters
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def compile_bytecode(checkout: Path) -> None:
    """Write the bytecode of ``src`` and ``perfbench`` under ``checkout``; a ``git archive`` copy holds none."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout, check=True)


def prepare(commit: str, into: Path) -> None:
    """The tree of ``commit`` under ``into``, with its bytecode compiled, as the parent side runs it."""
    extract(commit, into)
    compile_bytecode(into)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line that one perfbench run in ``checkout`` prints."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited with code {result.returncode}: {result.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def cpu_ms_per_call(checkout: Path, cache: Path, seed: int, passes: int) -> list[float]:
    """The CPU ms of each timed ``attribute`` call that one fresh interpreter in ``checkout`` makes on the inputs of ``seed`` under ``cache``."""
    argv = [sys.executable, "-c", CPU_PROBE, str(cache), str(seed), str(passes)]
    result = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if result.returncode:
        raise RuntimeError(f"the CPU probe in {checkout} exited with code {result.returncode}: {result.stderr.strip()[-500:]}")
    return json.loads(result.stdout)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize_cpu(pairs: list[dict]) -> dict:
    """Each side's median and quartiles of CPU ms per call over every pair, and the pairs whose change median is lower."""
    medians = [{side: statistics.median(pair["cpu_ms"][side]) for side in ("parent", "change")} for pair in pairs]
    summary = {"unit": "ms", "better": "lower", "wins": sum(m["change"] < m["parent"] for m in medians), "pairs": len(pairs)}
    for side in ("parent", "change"):
        summary[side] = quartiles([ms for pair in pairs for ms in pair["cpu_ms"][side]])
    return summary


def summarize(pairs: list[dict], metrics: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs in which the change did better."""
    summary = {}
    for name, metric in metrics.items():
        sides = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in ("parent", "change")}
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = {"unit": metric["unit"], "better": metric["better"], "wins": wins, "pairs": len(pairs)}
        for side, values in sides.items():
            summary[name][side] = quartiles(values)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare with (default HEAD)")
    parser.add_argument("--workload", action="append", required=True, help="a workload of BENCHMARK.json (repeatable)")
    parser.add_argument("--seeds", required=True, help="one run pair per seed and workload: A-B")
    parser.add_argument("--output", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    try:
        spec, seeds = check_args(args)
        parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        head = git("rev-parse", "HEAD")
    except UsageError as exc:
        parser.error(str(exc))
    record = {
        "commit": head,
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "parent": parent,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        copy = Path(tmp) / "parent"
        prepare(parent, copy)
        compile_bytecode(ROOT)
        checkouts = {"parent": copy, "change": ROOT}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    try:
                        pair[side] = run_once(checkouts[side], workload, seed, spec["run_seconds"])
                    except RuntimeError as exc:
                        print(f"bench_record: {exc}", file=sys.stderr)
                        return 1
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
                if workload == "attribute":
                    pair["cpu_ms"] = {}
                    for side in order:
                        try:
                            pair["cpu_ms"][side] = cpu_ms_per_call(checkouts[side], WORK_DATA, seed, CPU_PASSES)
                        except RuntimeError as exc:
                            print(f"bench_record: {exc}", file=sys.stderr)
                            return 1
                        print(f"{workload} seed {seed} {side}: CPU {statistics.median(pair['cpu_ms'][side]):.2f} ms per call", file=sys.stderr)
                pairs.append(pair)
            results = [pair[side] for pair in pairs for side in ("parent", "change")]
            record["workloads"][workload] = {
                "correct": all(result["correct"] for result in results),
                "failed": sum(result["failed"] for result in results),
                "metrics": summarize(pairs, {m["name"]: m for m in spec["end_to_end"]}),
                "runs": pairs,
            }
            if workload == "attribute":
                record["workloads"][workload]["cpu_ms_per_call"] = summarize_cpu(pairs)
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(seeds)} pairs of {', '.join(args.workload)} -> {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
