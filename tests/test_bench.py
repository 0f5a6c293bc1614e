import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stylosig.bench import run_scaling, synthetic_corpus, time_attribution
from stylosig.config import ExperimentConfig
from stylosig.features import _token_bytes


def test_synthetic_corpus_shape_and_token_budget():
    corpus = synthetic_corpus(3, 4, doc_tokens=100)
    assert len(corpus.subjects) == 3
    assert len(corpus.documents) == 12
    for doc in corpus.documents:
        assert len(_token_bytes(doc.text).decode().split()) == 100


def test_synthetic_corpus_is_deterministic():
    assert synthetic_corpus(2, 3) == synthetic_corpus(2, 3)


def test_synthetic_corpus_subjects_differ():
    corpus = synthetic_corpus(2, 2, doc_tokens=50)
    texts = {doc.subject: doc.text for doc in corpus.documents}
    assert texts[0] != texts[1]


def test_synthetic_corpus_validates():
    with pytest.raises(ValueError):
        synthetic_corpus(0, 4)
    with pytest.raises(ValueError):
        synthetic_corpus(2, 1)


def test_time_attribution_returns_positive_seconds():
    corpus = synthetic_corpus(3, 5, doc_tokens=50)
    assert time_attribution(corpus, ExperimentConfig(profile_size=50)) > 0.0


def test_run_scaling_structure():
    report = run_scaling([2, 4], ExperimentConfig(profile_size=50), repeats=2, n_subjects=2, doc_tokens=50)
    assert report.sizes == (2, 4)
    assert len(report.seconds) == 2 and all(len(t) == 2 for t in report.seconds)
    assert len(report.ratios) == 1
    assert report.mean_seconds[0] > 0.0


def test_run_scaling_validates():
    with pytest.raises(ValueError):
        run_scaling([4], ExperimentConfig(), repeats=2)
    with pytest.raises(ValueError):
        run_scaling([4, 2], ExperimentConfig(), repeats=2)
    with pytest.raises(ValueError):
        run_scaling([2, 4], ExperimentConfig(), repeats=0)


def test_no_timed_pass_of_a_fresh_run_imports_a_module():
    # a timed pass that imported a module would time the import; the product kernel loads without scipy.sparse
    code = (
        "import json, sys; from stylosig import bench; from stylosig.config import ExperimentConfig\n"
        "timed, new = bench.time_attribution, []\n"
        "def watched(*args):\n"
        "    before = set(sys.modules)\n"
        "    seconds = timed(*args)\n"
        "    new.append(sorted(set(sys.modules) - before))\n"
        "    return seconds\n"
        "bench.time_attribution = watched\n"
        "bench.run_scaling([2, 4], ExperimentConfig(profile_size=50), repeats=2, n_subjects=2, doc_tokens=50)\n"
        "print(json.dumps([new, 'scipy.sparse' in sys.modules]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == [[[]] * 4, False]
