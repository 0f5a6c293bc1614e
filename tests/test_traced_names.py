"""The benchmark's span tracer names functions of the package; each name must still resolve.

A traced function that is deleted or renamed makes its span read as absent,
and the per-layer metrics built on it read 0 without an error.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# spans whose functions were gone before this check existed (ROADMAP item 1)
KNOWN_ABSENT = {"corpus.split_documents", "features.FeatureModel.extract", "features.vectorize"}


def traced_names() -> list[str]:
    """Every ``<layer>.<name>`` of the tracer's TRACED map, read without installing the tracer."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [f"{layer}.{attr}" for layer, attrs in tracer.TRACED.items() for attr in attrs]


def resolves(name: str) -> bool:
    layer, *path = name.split(".")
    target = importlib.import_module(f"stylosig.{layer}")
    for part in path:
        target = getattr(target, part, None)
    return callable(target)


def test_every_traced_function_resolves():
    names = traced_names()
    assert len(names) > len(KNOWN_ABSENT)
    unresolved = {name for name in names if not resolves(name)}
    assert unresolved <= KNOWN_ABSENT, f"traced but missing from stylosig: {sorted(unresolved - KNOWN_ABSENT)}"
