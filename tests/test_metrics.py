import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stylosig.config import ExperimentConfig
from stylosig.errors import DegenerateInputWarning
from stylosig.metrics import (
    ClaimSet,
    accuracy,
    cmc_curve,
    default_grid,
    det_curve,
    expand_claims,
    fscore_curve,
    genuine_ranks,
    msh,
    paired_ttest,
    recall_curve,
    write_curve_csv,
    write_det_csv,
    write_msh_csv,
)
from stylosig.signature import ScoreMatrix

from .oracles import (
    cmc_reference,
    confusion_reference,
    far_frr_reference,
    flat_claims_reference,
    fscore_reference,
    msh_reference,
    trapezoid_reference,
)


def random_claims(n_items=6, n_subjects=4, seed=0):
    rng = np.random.default_rng(seed)
    matrix = ScoreMatrix(
        tuple(f"i{k}" for k in range(n_items)),
        tuple(f"s{k}" for k in range(n_subjects)),
        rng.random((n_items, n_subjects)),
    )
    truth = rng.integers(0, n_subjects, size=n_items)
    return matrix, truth


GRID = default_grid(ExperimentConfig().grid_points)
CONFIDENCE = ExperimentConfig().confidence


def confusion_at(claims, grid):
    """(TP, FP, FN, TN) at each threshold, recounted from the recall and DET curves."""
    tp = np.rint(recall_curve(claims, grid).ys * claims.n_genuine).astype(int).tolist()
    fp = np.rint(det_curve(claims, grid).far * claims.n_imposter).astype(int).tolist()
    return [(a, b, claims.n_genuine - a, claims.n_imposter - b) for a, b in zip(tp, fp)]


def test_default_grid_is_hundredths():
    grid = GRID
    assert len(grid) == 101
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.array_equal(grid, np.arange(101) / 100)


def test_default_grid_rejects_tiny():
    with pytest.raises(ValueError):
        default_grid(1)


# -- claims -----------------------------------------------------------------

def test_expand_claims_layout():
    matrix, truth = random_claims(3, 2)
    claims = expand_claims(matrix, truth)
    assert len(claims) == 6
    assert claims.n_genuine == 3
    assert claims.n_imposter == 3
    # each class holds its claims' scores in ascending order
    assert claims.genuine.tolist() == sorted(matrix.scores[k, truth[k]] for k in range(3))
    assert claims.imposter.tolist() == sorted(matrix.scores[k, 1 - truth[k]] for k in range(3))


def test_expand_claims_validates_truth():
    matrix, _ = random_claims(3, 2)
    with pytest.raises(ValueError):
        expand_claims(matrix, [0])
    with pytest.raises(ValueError):
        expand_claims(matrix, [0, 2, 0])


def test_confusion_hand_case():
    matrix = ScoreMatrix(("a", "b"), ("x", "y"), np.array([[0.9, 0.2], [0.4, 0.6]]))
    claims = expand_claims(matrix, [0, 1])
    # at 0.5: accepts 0.9 (genuine) and 0.6 (genuine)
    # at 0.3: also accepts 0.4 (imposter)
    assert confusion_at(claims, [0.5, 0.3]) == [(2, 0, 0, 2), (2, 1, 0, 1)]


def test_confusion_threshold_is_inclusive():
    matrix = ScoreMatrix(("a",), ("x", "y"), np.array([[0.5, 0.1]]))
    claims = expand_claims(matrix, [0])
    [(tp, fp, fn, tn)] = confusion_at(claims, [0.5])
    assert (tp, fn) == (1, 0)


def test_counts_match_loop_reference():
    matrix, truth = random_claims(8, 5, seed=3)
    claims = expand_claims(matrix, truth)
    scores, genuine = flat_claims_reference(matrix.scores, truth)
    grid = default_grid(21)
    assert confusion_at(claims, grid) == [confusion_reference(scores, genuine, t) for t in grid]
    fscores = [fscore_reference(scores, genuine, t) for t in grid]
    assert fscore_curve(claims, grid).ys.tolist() == fscores


# -- accuracy ---------------------------------------------------------------

def test_item_accuracy_hand_value():
    report = accuracy(correct=[True] * 8 + [False] * 2, confidence=CONFIDENCE)
    z = 1.9599639845400545
    half = z * math.sqrt(0.8 * 0.2 / 10)
    assert report.accuracy == 0.8
    assert math.isclose(report.ci_low, 0.8 - half, rel_tol=1e-12)
    assert math.isclose(report.ci_high, 0.8 + half, rel_tol=1e-12)
    assert report.method == "wald" and report.n == 10


def test_fold_accuracy_t_interval_unclamped():
    report = accuracy(folds=[1.0, 0.9], confidence=CONFIDENCE)
    sd = np.std([1.0, 0.9], ddof=1)
    half = 12.706204736174698 * sd / math.sqrt(2)
    assert math.isclose(report.accuracy, 0.95, rel_tol=1e-12)
    assert math.isclose(report.ci_high, 0.95 + half, rel_tol=1e-9)
    assert report.ci_high > 1.0  # bounds are reported raw
    assert report.method == "student-t"


def test_fold_accuracy_zero_variance_collapses():
    report = accuracy(folds=[0.75, 0.75, 0.75], confidence=CONFIDENCE)
    assert report.ci_low == report.ci_high == 0.75


def test_accuracy_argument_validation():
    with pytest.raises(ValueError):
        accuracy(confidence=CONFIDENCE)
    with pytest.raises(ValueError):
        accuracy(correct=[True], folds=[0.5, 0.6], confidence=CONFIDENCE)
    with pytest.raises(ValueError):
        accuracy(correct=[], confidence=CONFIDENCE)
    with pytest.raises(ValueError):
        accuracy(folds=[0.5], confidence=CONFIDENCE)
    with pytest.raises(ValueError):
        accuracy(correct=[True], confidence=1.0)


# -- curves -----------------------------------------------------------------

def test_recall_curve_endpoints_and_monotonicity():
    matrix, truth = random_claims(10, 4, seed=5)
    claims = expand_claims(matrix, truth)
    curve = recall_curve(claims, GRID)
    assert curve.ys[0] == 1.0  # threshold 0 accepts everything
    assert np.all(np.diff(curve.ys) <= 0)


def test_recall_needs_genuine_claims():
    matrix, _ = random_claims(3, 3)
    claims = expand_claims(matrix, [0, 0, 0])
    with pytest.raises(ValueError, match="needs both genuine and imposter claims"):
        recall_curve(ClaimSet(claims.genuine[:0], claims.imposter), GRID)


def test_det_curve_endpoints_and_reference():
    matrix, truth = random_claims(10, 5, seed=8)
    claims = expand_claims(matrix, truth)
    scores, genuine = flat_claims_reference(matrix.scores, truth)
    det = det_curve(claims, GRID)
    assert det.far[0] == 1.0 and det.frr[0] == 0.0
    for k in (0, 25, 50, 75, 100):
        far, frr = far_frr_reference(scores, genuine, det.thresholds[k])
        assert det.far[k] == far and det.frr[k] == frr
    assert math.isclose(det.area, abs(trapezoid_reference(det.frr, det.far)), rel_tol=1e-12)


def test_det_area_zero_for_perfect_separation():
    matrix = ScoreMatrix(("a", "b"), ("x", "y"), np.array([[1.0, 0.0], [0.0, 1.0]]))
    claims = expand_claims(matrix, [0, 1])
    assert det_curve(claims, GRID).area == 0.0


def test_fscore_curve_peaks_at_separating_threshold():
    matrix = ScoreMatrix(("a", "b"), ("x", "y"), np.array([[0.9, 0.1], [0.2, 0.8]]))
    claims = expand_claims(matrix, [0, 1])
    curve = fscore_curve(claims, GRID)
    assert curve.ys.max() == 1.0
    assert curve.ys[50] == 1.0  # threshold 0.5


def test_fscore_undefined_scores_zero_with_warning():
    """The one claim set whose F score was undefined (no genuine claim) is refused with a ValueError.

    Every claim set that can be built has a genuine claim, so a threshold above all scores,
    which accepts nothing, scores F = 0 with no warning.
    """
    matrix = ScoreMatrix(("a",), ("x", "y"), np.array([[0.2, 0.3]]))
    claims = expand_claims(matrix, [0])
    with pytest.raises(ValueError, match="needs both genuine and imposter claims"):
        fscore_curve(ClaimSet(claims.genuine[:0], claims.imposter), [0.9])
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateInputWarning)
        assert fscore_curve(claims, [0.9]).ys.tolist() == [0.0]


def test_claim_set_needs_both_classes():
    matrix, truth = random_claims(3, 3)
    claims = expand_claims(matrix, truth)
    for dropped in ("genuine", "imposter"):
        with pytest.raises(ValueError, match="needs both genuine and imposter claims"):
            replace(claims, **{dropped: getattr(claims, dropped)[:0]})
    one_subject = ScoreMatrix(("a", "b"), ("x",), np.array([[0.2], [0.7]]))
    with pytest.raises(ValueError, match="needs both genuine and imposter claims"):
        expand_claims(one_subject, [0, 0])


@pytest.mark.parametrize("genuine, imposter", [([-0.1, 0.5], [0.5]), ([0.5], [0.5, 1.0000000000000002])])
def test_claim_set_scores_lie_in_unit_interval(genuine, imposter):
    with pytest.raises(ValueError, match=r"match scores must lie in \[0, 1\]"):
        ClaimSet(np.array(genuine), np.array(imposter))


# -- identification ---------------------------------------------------------

def test_ranks_count_ties_pessimistically():
    matrix = ScoreMatrix(("a", "b"), ("x", "y", "z"), np.array([[0.5, 0.5, 0.1], [0.9, 0.3, 0.3]]))
    assert list(genuine_ranks(matrix, [0, 0])) == [2, 1]


def test_cmc_curve_hand_case_and_reference():
    matrix, truth = random_claims(12, 6, seed=13)
    curve = cmc_curve(matrix, truth)
    ref = cmc_reference(matrix.scores.tolist(), list(truth))
    assert np.allclose(curve.ys, ref)
    assert curve.ys[-1] == 1.0
    assert np.all(np.diff(curve.ys) >= 0)


def test_cmc_last_rank_always_one():
    matrix = ScoreMatrix(("a",), ("x", "y"), np.array([[0.0, 0.0]]))
    curve = cmc_curve(matrix, [1])
    assert curve.ys[-1] == 1.0


# -- match score histograms --------------------------------------------------

def test_msh_hand_case():
    matrix = ScoreMatrix(("a", "b"), ("x", "y"), np.array([[0.93, 0.07], [0.12, 0.88]]))
    claims = expand_claims(matrix, [0, 1])
    hist = msh(claims, bins=20)
    assert hist.n_genuine == 2 and hist.n_imposter == 2
    assert hist.genuine[18] == 0.5 and hist.genuine[17] == 0.5  # 0.93, 0.88
    assert hist.imposter[1] == 0.5 and hist.imposter[2] == 0.5  # 0.07, 0.12
    assert hist.overlap == 0.0
    assert abs(hist.genuine.sum() - 1.0) < 1e-9
    assert abs(hist.imposter.sum() - 1.0) < 1e-9


def test_msh_last_bin_takes_score_one():
    matrix = ScoreMatrix(("a",), ("x", "y"), np.array([[1.0, 0.0]]))
    claims = expand_claims(matrix, [0])
    hist = msh(claims, bins=20)
    assert hist.genuine[19] == 1.0
    assert hist.imposter[0] == 1.0


def test_msh_matches_loop_reference():
    matrix, truth = random_claims(15, 4, seed=23)
    claims = expand_claims(matrix, truth)
    scores, genuine = flat_claims_reference(matrix.scores, truth)
    for bins in (2, 7, 20):
        hist = msh(claims, bins=bins)
        gen, imp, overlap = msh_reference(scores, genuine, bins)
        assert np.array_equal(hist.genuine, gen)
        assert np.array_equal(hist.imposter, imp)
        # bin frequencies are identical; the overlap sum may differ in the
        # last bit because the summation order differs
        assert abs(hist.overlap - overlap) < 1e-12


def test_msh_identical_distributions_overlap_one():
    scores = np.array([0.1, 0.5, 0.9])
    claims = ClaimSet(scores, scores.copy())
    assert abs(msh(claims, bins=10).overlap - 1.0) < 1e-12


def test_msh_validates():
    matrix, truth = random_claims()
    claims = expand_claims(matrix, truth)
    with pytest.raises(ValueError):
        msh(claims, bins=0)


@st.composite
def claim_cases(draw):
    """A score matrix and its truth, a threshold grid and a bin count, and which claim class to drop, if any.

    Scores are drawn from 0, 1, every bin edge, every grid point and
    anywhere in [0, 1], so ties and scores on a threshold are common.
    """
    bins = draw(st.integers(1, 12))
    grid = default_grid(draw(st.integers(2, 30)))
    n_items, n_subjects = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from([0.0, 1.0, *(np.arange(bins + 1) / bins), *grid]), st.floats(0.0, 1.0))
    scores = np.array(draw(st.lists(value, min_size=n_items * n_subjects, max_size=n_items * n_subjects)))
    truth = draw(st.lists(st.integers(0, n_subjects - 1), min_size=n_items, max_size=n_items))
    matrix = ScoreMatrix(
        tuple(f"i{k}" for k in range(n_items)),
        tuple(f"s{k}" for k in range(n_subjects)),
        scores.reshape(n_items, n_subjects),
    )
    return matrix, truth, grid, bins, draw(st.sampled_from([None, None, "genuine", "imposter"]))


@settings(max_examples=300, deadline=None)
@given(claim_cases())
def test_threshold_statistics_equal_loop_references(case):
    matrix, truth, grid, bins, dropped = case
    if matrix.scores.shape[1] == 1:  # one subject: no imposter claim
        with pytest.raises(ValueError, match="needs both genuine and imposter claims"):
            expand_claims(matrix, truth)
        return
    claims = expand_claims(matrix, truth)
    if dropped is not None:  # a claim set with one class empty
        with pytest.raises(ValueError, match="needs both genuine and imposter claims"):
            replace(claims, **{dropped: getattr(claims, dropped)[:0]})
        return
    scores, genuine = flat_claims_reference(matrix.scores, truth)
    references = [confusion_reference(scores, genuine, t) for t in grid]
    assert fscore_curve(claims, grid).ys.tolist() == [fscore_reference(scores, genuine, t) for t in grid]
    hist = msh(claims, bins)
    gen, imp, overlap = msh_reference(scores, genuine, bins)
    assert (hist.n_genuine, hist.n_imposter) == (genuine.sum(), (~genuine).sum())
    # repr tells -0.0 from 0.0, as msh.csv does
    freqs = [*hist.genuine.tolist(), *hist.imposter.tolist()]
    assert list(map(repr, freqs)) == list(map(repr, [*gen.tolist(), *imp.tolist()]))
    assert abs(hist.overlap - overlap) < 1e-12  # the two sums add in different orders
    assert recall_curve(claims, grid).ys.tolist() == [tp / (tp + fn) for tp, _, fn, _ in references]
    det = det_curve(claims, grid)
    far_frr = [far_frr_reference(scores, genuine, t) for t in grid]
    assert list(zip(det.far.tolist(), det.frr.tolist())) == far_frr


# -- paired t-test ----------------------------------------------------------

def test_paired_ttest_hand_value():
    a = [1.0, 0.0, 1.0, 0.0, 1.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    result = paired_ttest(a, b)
    assert math.isclose(result.statistic, 0.6 / (math.sqrt(0.3) / math.sqrt(5)), rel_tol=1e-12)
    assert result.df == 4
    scipy_result = stats.ttest_rel(a, b)
    assert math.isclose(result.statistic, float(scipy_result.statistic), rel_tol=1e-12)
    assert math.isclose(result.pvalue, float(scipy_result.pvalue), rel_tol=1e-12)
    assert not result.degenerate


def test_paired_ttest_is_symmetric_in_sign():
    a = [0.9, 0.8, 0.95]
    b = [0.7, 0.75, 0.8]
    fwd, rev = paired_ttest(a, b), paired_ttest(b, a)
    assert fwd.pvalue == rev.pvalue
    assert fwd.statistic == -rev.statistic


def test_paired_ttest_degenerate_equal_means():
    with pytest.warns(DegenerateInputWarning):
        result = paired_ttest([0.5, 0.5], [0.5, 0.5])
    assert result.pvalue == 1.0 and result.statistic == 0.0 and result.degenerate


def test_paired_ttest_degenerate_constant_gap():
    with pytest.warns(DegenerateInputWarning):
        result = paired_ttest([0.6, 0.7], [0.5, 0.6])
    assert result.pvalue == 0.0 and math.isinf(result.statistic) and result.degenerate


def test_paired_ttest_validates():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [0.5])
    with pytest.raises(ValueError):
        paired_ttest([1.0, 0.5], [0.5])


# -- parity with scipy.stats ------------------------------------------------
# metrics calls the scipy.special kernels behind stats.norm.ppf, t.ppf and
# t.sf; exact equality keeps summary.json and run.json byte-identical.

@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999])
def test_intervals_equal_scipy_stats_exactly(confidence):
    q = 1.0 - (1.0 - confidence) / 2.0
    report = accuracy(correct=[True] * 7 + [False] * 3, confidence=confidence)
    half = float(stats.norm.ppf(q)) * math.sqrt(0.7 * 0.3 / 10)
    assert (report.ci_low, report.ci_high) == (0.7 - half, 0.7 + half)
    rng = np.random.default_rng(7)
    for n in range(2, 201):
        folds = rng.random(n)
        report = accuracy(folds=folds, confidence=confidence)
        mean = float(folds.mean())
        half = float(stats.t.ppf(q, df=n - 1)) * float(folds.std(ddof=1)) / math.sqrt(n)
        assert (report.ci_low, report.ci_high) == (mean - half, mean + half), n


def test_paired_ttest_pvalues_equal_scipy_stats_exactly():
    rng = np.random.default_rng(11)
    for k in range(2000):
        n = int(rng.integers(2, 201))
        # shifts from normal and Cauchy draws reach |t| from ~0 to far in the tails
        shift = rng.normal() if k % 2 else rng.standard_cauchy()
        a = rng.normal(size=n)
        b = a - shift - 0.1 * rng.normal(size=n)
        result = paired_ttest(a, b)
        expected = 2.0 * float(stats.t.sf(abs(result.statistic), df=n - 1))
        assert result.pvalue == expected, (n, result.statistic)


# -- exports ----------------------------------------------------------------

def test_curve_csv_is_deterministic_and_readable(tmp_path):
    matrix, truth = random_claims(5, 3, seed=31)
    claims = expand_claims(matrix, truth)
    curve = recall_curve(claims, default_grid(11))
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_curve_csv(curve, p1)
    write_curve_csv(curve, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "threshold,recall"
    assert len(lines) == 12
    assert float(lines[1].split(",")[1]) == curve.ys[0]


def test_det_and_msh_csv_shapes(tmp_path):
    matrix, truth = random_claims(6, 3, seed=37)
    claims = expand_claims(matrix, truth)
    write_det_csv(det_curve(claims, default_grid(5)), tmp_path / "det.csv")
    write_msh_csv(msh(claims, bins=4), tmp_path / "msh.csv")
    det_lines = (tmp_path / "det.csv").read_text().splitlines()
    msh_lines = (tmp_path / "msh.csv").read_text().splitlines()
    assert det_lines[0] == "threshold,far,frr" and len(det_lines) == 6
    assert msh_lines[0] == "bin_low,bin_high,genuine,imposter" and len(msh_lines) == 5
