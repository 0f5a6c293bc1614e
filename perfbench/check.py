"""Output checks: compare a run's outputs with the recorded reference.

Counts and labels must match exactly; floats (accuracy, curve points,
histogram masses) must agree within ``TOLERANCE``, the tolerance of the
acceptance suite's criterion 02.  Keys the reference does not know are
ignored, so a later commit may add fields to ``summary.json``.  CSV bytes
may differ from the reference, but every unit of one run must write the
same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TOLERANCE = 1e-9
EXCLUDED_FROM_DIGEST = ("run.json",)  # holds elapsed time


def _read_csv(path: Path) -> dict:
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}


def capture_bundles(out_dir: Path) -> dict:
    """Summary and curves of every system bundle under ``out_dir``."""
    captured = {}
    for system_dir in sorted(p for p in out_dir.iterdir() if p.is_dir()):
        bundle = {"summary.json": json.loads((system_dir / "summary.json").read_text(encoding="utf-8"))}
        for path in sorted(system_dir.glob("*.csv")):
            bundle[path.name] = _read_csv(path)
        captured[system_dir.name] = bundle
    return captured


def digest(out_dir: Path) -> str:
    """Hash of every deterministic output file under ``out_dir``."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name in EXCLUDED_FROM_DIGEST:
            continue
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def compare(expected, actual, where: str = "") -> list[str]:
    """Every difference between ``expected`` and ``actual`` beyond the tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}/{key}: missing")
            else:
                problems.extend(compare(value, actual[key], f"{where}/{key}"))
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems.extend(compare(e, a, f"{where}[{i}]"))
        return problems
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if expected == actual or abs(expected - actual) <= TOLERANCE:
            return []
        return [f"{where}: {actual!r} differs from {expected!r} by more than {TOLERANCE}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def attribute_labels(stdout: str, texts: list[str]) -> list[str] | None:
    """The label printed for each of ``texts``, in order; None if any is missing or doubled."""
    found: dict[str, list[str]] = {}
    for line in stdout.splitlines():
        name, sep, label = line.partition("\t")
        if sep:
            found.setdefault(name, []).append(label)
    labels = [found.get(t, []) for t in texts]
    if any(len(ls) != 1 for ls in labels):
        return None
    return [ls[0] for ls in labels]
