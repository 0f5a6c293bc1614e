"""Record the expected outputs that every benchmark run is checked against.

Usage, from the root of a source checkout:
``python3 perfbench/record.py [WORKLOAD ...]`` (default: every workload).

For each workload and each input variant it runs one unit of the workload
and writes ``perfbench/reference/<workload>.json``: the summary and curve
values of every ``eval`` bundle, or the label ``attribute`` printed for
each questioned text.  Run it only at the commit that defines the
benchmark; later commits are checked against what it recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import run
import workloads


def record(name: str, var: int) -> dict:
    inputs = workloads.prepare(name, var, run.WORK / "data")
    run_dir = run.WORK / "record" / f"{name}-v{var}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run.run_probes(name, inputs, run_dir, 1)
    result = run.run_measure(name, inputs, run_dir, 0, False)
    unit = result["units"][0]
    if any(rc != 0 for rc in unit["exit_codes"]):
        raise run.BenchError(f"{name} variant {var}: {result['errors']}")
    if name != "attribute":
        return check.capture_bundles(run_dir / "out" / "u0")
    labels = []
    for texts, out_id in zip(workloads.attribute_batches(inputs), unit["outputs"]):
        found = check.attribute_labels(result["outputs"][out_id], texts)
        if found is None:
            raise run.BenchError(f"attribute variant {var}: unreadable output")
        labels.extend(found)
    return {"labels": labels}


def main(argv: list[str]) -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for name in argv or workloads.NAMES:
        variants = [record(name, var) for var in range(workloads.VARIANTS)]
        lines = ",\n".join(f'"{var}": {json.dumps(ref, sort_keys=True)}' for var, ref in enumerate(variants))
        path = run.REFERENCE / f"{name}.json"
        path.write_text('{"variants": {\n' + lines + "\n}}\n", encoding="utf-8")
        print(f"{path}: {len(variants)} variants", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
