"""Scaling benchmark over synthetic corpora of controlled size.

The corpora are fully deterministic (no RNG): token counts decay
harmonically over a fixed vocabulary with subject-dependent offsets, so
doubling docs_per_subject doubles the data volume while keeping the text
statistics comparable.  Repeats therefore measure timing noise only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .corpus import Corpus, Document, Subject
from .experiment import score_folds

DEFAULT_SUBJECTS = 10
DEFAULT_DOC_TOKENS = 400
DEFAULT_VOCAB_WORDS = 2000


def synthetic_corpus(n_subjects: int, docs_per_subject: int, doc_tokens: int = DEFAULT_DOC_TOKENS) -> Corpus:
    """Deterministic corpus with ``doc_tokens`` tokens in every document, over ``DEFAULT_VOCAB_WORDS`` words."""
    if n_subjects < 1 or docs_per_subject < 2 or doc_tokens < 1:
        raise ValueError("need >= 1 subject, >= 2 docs each, >= 1 token per doc")
    subjects = tuple(Subject(s, f"subject{s:03d}") for s in range(n_subjects))
    documents = []
    for s in range(n_subjects):
        for d in range(docs_per_subject):
            parts = []
            remaining = doc_tokens
            rank = 0
            while remaining > 0:
                count = min(max(1, doc_tokens // (2 * (rank + 1))), remaining)
                # word choice depends on the subject only, so test documents
                # stay in-vocabulary no matter how the corpus is split
                word_id = (31 * s + 7 * rank) % DEFAULT_VOCAB_WORDS
                parts.append(f"w{word_id:05d} " * count)
                remaining -= count
                rank += 1
            documents.append(Document(f"subject{s:03d}/doc{d:04d}.txt", s, "".join(parts)))
    return Corpus(subjects, tuple(documents))


def time_attribution(corpus: Corpus, config: ExperimentConfig, stages: dict | None = None) -> float:
    """Seconds for one end-to-end pass of the eval path under ``config``: extract, build vocabulary, train, score.

    With ``stages``, the pass also records its extract and folds seconds there.
    """
    started = time.perf_counter()
    train_docs = []
    test_docs = []
    for subj in corpus.subjects:
        docs = corpus.by_subject[subj.id]
        cut = max(1, (4 * len(docs)) // 5)
        train_docs.extend(docs[:cut])
        test_docs.extend(docs[cut:])
    docs = train_docs + test_docs
    fold = (np.arange(len(train_docs)), np.arange(len(train_docs), len(docs)))
    subjects = np.array([doc.subject for doc in docs])
    score_folds(config, docs, [fold], subjects, corpus.subject_labels, {} if stages is None else stages)
    return time.perf_counter() - started


@dataclass(frozen=True)
class ScalingReport:
    sizes: tuple[int, ...]  # docs per subject at each scale point
    seconds: tuple[tuple[float, ...], ...]  # per-repeat wall times
    mean_seconds: tuple[float, ...]
    ratios: tuple[float, ...]  # consecutive mean-time ratios
    loglog_slope: float
    stage_mean_seconds: dict[str, tuple[float, ...]]  # per stage (extract, folds), one mean per size
    stage_loglog_slope: dict[str, float]


def _loglog_slope(sizes, means) -> float:
    return float(np.polyfit(np.log(sizes), np.log(means), 1)[0])


def run_scaling(
    sizes,
    config: ExperimentConfig,
    repeats: int = 5,
    n_subjects: int = DEFAULT_SUBJECTS,
    doc_tokens: int = DEFAULT_DOC_TOKENS,
) -> ScalingReport:
    """Time the pipeline under ``config`` at each corpus size and fit a log-log growth slope, in total and per stage."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 2 for s in sizes) or sorted(sizes) != list(sizes):
        raise ValueError("sizes must be >= 2 each, ascending, at least two of them")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    per_size = []
    per_stage = {"extract": [], "folds": []}
    for size in sizes:
        corpus = synthetic_corpus(n_subjects, size, doc_tokens)
        runs = [{} for _ in range(repeats)]
        per_size.append(tuple(time_attribution(corpus, config, stages) for stages in runs))
        for stage, means in per_stage.items():
            means.append(float(np.mean([stages[stage] for stages in runs])))
    means = tuple(float(np.mean(t)) for t in per_size)
    ratios = tuple(means[i + 1] / means[i] for i in range(len(means) - 1))
    return ScalingReport(
        sizes,
        tuple(per_size),
        means,
        ratios,
        _loglog_slope(sizes, means),
        {stage: tuple(m) for stage, m in per_stage.items()},
        {stage: _loglog_slope(sizes, m) for stage, m in per_stage.items()},
    )
