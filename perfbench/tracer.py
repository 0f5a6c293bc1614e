"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` wraps the public functions of each ``stylosig`` module
under every name a caller can reach them by: a function bound elsewhere
with ``from module import name`` is replaced in that module too, and
``FeatureModel.extract`` is replaced on its class.  Each wrapped call
records a span (name, layer, start, end, parent) in memory.  Counts are
computed from call arguments and return values after the span closes,
inside a ``trace`` span of their own, so the bookkeeping never inflates a
layer's self time.  A probe whose function no longer exists is reported
as absent.

A layer's self time is the duration of its spans minus the time their
child spans cover; over a whole call the self times of all layers add up
to the root span, ``cli.main``.
"""

from __future__ import annotations

import importlib
import re
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

_WORD = re.compile(r"[^\W_]+")  # a token as stylosig defines it, counted without its code


class Span(NamedTuple):
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Probe(NamedTuple):
    module: str
    attr: str  # "function" or "Class.method"
    layer: str
    counter: Callable | None = None

    @property
    def span_name(self) -> str:
        return f"{self.layer}.{self.attr}"


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.seen_docs: set[str] = set()
        self.absent: list[str] = []
        self.broken: Counter = Counter()
        self._open: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counts, keeping the installed probes."""
        self.spans = []
        self.counts = Counter()
        self.seen_docs = set()
        self.broken = Counter()

    def _enter(self, name: str, layer: str) -> int:
        parent = self._open[-1][0] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)  # placeholder keeps parents before children
        self._open.append([index, name, layer, parent, self.clock()])
        return index

    def _exit(self) -> None:
        end = self.clock()
        index, name, layer, parent, start = self._open.pop()
        self.spans[index] = Span(name, layer, start, end, parent)

    def inside(self, span_name: str) -> bool:
        """Whether a span of this name is open now."""
        return any(entry[1] == span_name for entry in self._open)

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        name, layer, counter = probe.span_name, probe.layer, probe.counter

        def traced(*args, **kwargs):
            self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                self._enter("trace.count", "trace")
                try:
                    counter(self, args, result)
                except Exception:  # a refactor changed what the probe sees
                    self.broken[name] += 1
                finally:
                    self._exit()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, probes=None) -> None:
        probes = PROBES if probes is None else probes
        self.absent = []
        for probe in probes:
            try:
                module = importlib.import_module(probe.module)
            except ImportError:
                self.absent.append(probe.span_name)
                continue
            owner_name, _, attr = probe.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(probe.span_name)
                continue
            wrapper = self.wrap(original, probe)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            package = probe.module.split(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, bound, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


def self_time_by(spans: list[Span], own: list[float], key) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, t in zip(spans, own):
        k = key(span)
        totals[k] = totals.get(k, 0.0) + t
    return totals


# ---------------------------------------------------------------------------
# counters: run after the span closes, see (tracer, args, result)

def _count_extract(tr: Tracer, args, result) -> None:
    doc = args[1]
    tr.counts["features.extract_calls"] += 1
    if doc.doc_id not in tr.seen_docs:
        tr.seen_docs.add(doc.doc_id)
        tr.counts["features.docs"] += 1
        tr.counts["features.tokens"] += len(_WORD.findall(doc.text.lower()))


def _count_vocab(tr: Tracer, args, result) -> None:
    tr.counts["features.vocab_calls"] += 1
    tr.counts["features.vocab_input_types"] += len(set().union(*args[0]))


def _count_vectorize(tr: Tracer, args, result) -> None:
    if tr.inside("experiment.fit_stylome"):
        return  # only test-document mass counts towards the OOV rate
    total = sum(args[0].values())
    tr.counts["features.test_mass"] += total
    tr.counts["features.test_oov_mass"] += total - sum(result.counts.values())


def _count_fold(tr: Tracer, args, result) -> None:
    tr.counts["experiment.folds"] += 1


def _count_score(tr: Tracer, args, result) -> None:
    tr.counts["classifiers.score_calls"] += 1


def _count_model_loaded(tr: Tracer, args, result) -> None:
    tr.counts["classifiers.model_bytes"] = Path(args[0]).stat().st_size


def _count_model_saved(tr: Tracer, args, result) -> None:
    tr.counts["classifiers.model_bytes"] = Path(args[1]).stat().st_size


def _count_possibility(tr: Tracer, args, result) -> None:
    tr.counts["possibility.calls"] += 1
    tr.counts["possibility.rows"] += 1 if result.ndim == 1 else result.shape[0]


def _count_points(tr: Tracer, args, result) -> None:
    tr.counts["signature.points"] += sum(
        len(sample.points) for samples in result.by_writer.values() for sample in samples
    )


def _count_comparisons(tr: Tracer, args, result) -> None:
    probes, template_sets = args[0], args[1]
    tr.counts["signature.comparisons"] += len(probes) * sum(len(t) for t in template_sets)


def _count_claims(tr: Tracer, args, result) -> None:
    tr.counts["metrics.claims"] += len(result)


def _count_written(tr: Tracer, args, result) -> None:
    path = Path(args[1])
    if path.name != "run.json":  # its elapsed time has a varying number of digits
        tr.counts["metrics.bytes_written"] += path.stat().st_size


def _count_read(tr: Tracer, args, result) -> None:
    tr.counts["corpus.bytes_read"] += sum(doc.size_bytes for doc in result.documents)


# layer (a module of the package) -> the public functions traced in it
TRACED = {
    "cli": ("main",),
    "corpus": ("load_text_corpus", "keep_largest", "rolling_folds", "split_documents", "build_chimeric"),
    "features": ("FeatureModel.extract", "build_vocabulary", "vectorize", "write_feature_tsv"),
    "experiment": (
        "run_rolling", "run_chimeric", "fit_stylome", "possibility_rows", "write_bundle",
        "train_on_corpus", "signature_matrix_from_dir", "chimeric_manifest",
    ),
    "classifiers": ("mnb_train", "pnb_train", "posterior", "load_model", "save_model"),
    "possibility": ("to_possibility",),
    "signature": ("load_svc", "score_matrix_from_templates", "save_score_matrix", "load_score_matrix"),
    "metrics": (
        "expand_claims", "fscore_curve", "recall_curve", "det_curve", "cmc_curve",
        "genuine_ranks", "msh", "accuracy", "paired_ttest",
        "write_curve_csv", "write_det_csv", "write_msh_csv", "write_summary_json",
    ),
    "fusion": ("fuse", "decide"),
}

# span name -> counter run after each call
COUNTERS = {
    "corpus.load_text_corpus": _count_read,
    "features.FeatureModel.extract": _count_extract,
    "features.build_vocabulary": _count_vocab,
    "features.vectorize": _count_vectorize,
    "experiment.fit_stylome": _count_fold,
    "classifiers.posterior": _count_score,
    "classifiers.load_model": _count_model_loaded,
    "classifiers.save_model": _count_model_saved,
    "possibility.to_possibility": _count_possibility,
    "signature.load_svc": _count_points,
    "signature.score_matrix_from_templates": _count_comparisons,
    "metrics.expand_claims": _count_claims,
    "metrics.write_curve_csv": _count_written,
    "metrics.write_det_csv": _count_written,
    "metrics.write_msh_csv": _count_written,
    "metrics.write_summary_json": _count_written,
}

PROBES = [
    Probe(f"stylosig.{layer}", attr, layer, COUNTERS.get(f"{layer}.{attr}"))
    for layer, attrs in TRACED.items()
    for attr in attrs
]

# per-layer metric -> spans whose self time it sums
SPAN_METRICS = {
    "features.extract_s": ("features.FeatureModel.extract",),
    "features.vocab_s": ("features.build_vocabulary",),
    "features.vectorize_s": ("features.vectorize",),
    "classifiers.train_s": ("classifiers.mnb_train", "classifiers.pnb_train"),
    "classifiers.score_s": ("classifiers.posterior",),
    "classifiers.load_s": ("classifiers.load_model",),
    "signature.load_s": ("signature.load_svc",),
    "signature.score_s": ("signature.score_matrix_from_templates",),
    "metrics.curves_s": ("metrics.fscore_curve", "metrics.recall_curve", "metrics.det_curve"),
    "metrics.cmc_s": ("metrics.cmc_curve", "metrics.genuine_ranks"),
    "metrics.msh_s": ("metrics.msh",),
    "metrics.write_s": (
        "metrics.write_curve_csv", "metrics.write_det_csv",
        "metrics.write_msh_csv", "metrics.write_summary_json",
    ),
}

# layer -> metric holding the layer's whole self time
LAYER_METRICS = {
    "cli": "cli.self_s",
    "corpus": "corpus.busy_s",
    "features": "features.self_s",
    "experiment": "experiment.self_s",
    "classifiers": "classifiers.self_s",
    "possibility": "possibility.busy_s",
    "signature": "signature.self_s",
    "metrics": "metrics.self_s",
    "fusion": "fusion.busy_s",
    "trace": "trace.self_s",
}

COUNT_METRICS = (
    "features.extract_calls",
    "features.extracts_per_doc",
    "features.tokens",
    "features.vocab_input_types",
    "features.oov_rate",
    "experiment.folds",
    "classifiers.score_calls",
    "classifiers.model_bytes",
    "possibility.calls",
    "possibility.rows_per_call",
    "signature.points",
    "signature.comparisons",
    "metrics.claims",
    "metrics.bytes_written",
    "corpus.bytes_read",
    "trace.spans",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans and counts recorded since the last reset."""
    own = tracer.self_times()
    by_name = self_time_by(tracer.spans, own, lambda s: s.name)
    by_layer = self_time_by(tracer.spans, own, lambda s: s.layer)
    out = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in SPAN_METRICS.items()}
    out.update({metric: by_layer.get(layer, 0.0) for layer, metric in LAYER_METRICS.items()})
    c = tracer.counts
    out.update(
        {
            "features.extract_calls": c["features.extract_calls"],
            "features.extracts_per_doc": _ratio(c["features.extract_calls"], c["features.docs"]),
            "features.tokens": c["features.tokens"],
            "features.vocab_input_types": _ratio(c["features.vocab_input_types"], c["features.vocab_calls"]),
            "features.oov_rate": _ratio(c["features.test_oov_mass"], c["features.test_mass"]),
            "experiment.folds": c["experiment.folds"],
            "classifiers.score_calls": c["classifiers.score_calls"],
            "classifiers.model_bytes": c["classifiers.model_bytes"],
            "possibility.calls": c["possibility.calls"],
            "possibility.rows_per_call": _ratio(c["possibility.rows"], c["possibility.calls"]),
            "signature.points": c["signature.points"],
            "signature.comparisons": c["signature.comparisons"],
            "metrics.claims": c["metrics.claims"],
            "metrics.bytes_written": c["metrics.bytes_written"],
            "corpus.bytes_read": c["corpus.bytes_read"],
            "trace.spans": len(tracer.spans),
        }
    )
    out["trace.root_s"] = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    return out
