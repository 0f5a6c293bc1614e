import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylosig.errors import DataError, DegenerateInputWarning
from stylosig import signature
from stylosig.signature import (
    ScoreMatrix,
    SignatureSample,
    _n_bins,
    _parse_sample,
    _sum_in_numpy_order,
    direction_histograms,
    load_score_matrix,
    load_svc,
    save_score_matrix,
    score_matrix_from_templates,
)

from .conftest import signature_points, write_svc_dir, write_svc_file
from .oracles import (
    direction_histogram_per_sample,
    direction_histogram_reference,
    parse_capture_reference,
    score_matrix_per_subject,
)


DELTA_ALPHA = 25.0


def sample_from(points, writer=1, index=1):
    return SignatureSample(writer, index, np.asarray(points, dtype=np.int64))


def segment(deltas, pen=None):
    # build points from (dx, dy) steps starting at the origin
    xs, ys = [0], [0]
    for dx, dy in deltas:
        xs.append(xs[-1] + dx)
        ys.append(ys[-1] + dy)
    n = len(xs)
    pen = [1] * n if pen is None else pen
    t = list(range(0, 10 * n, 10))
    return sample_from(list(zip(xs, ys, t, pen)))


def match(templates, probe):
    """The probe's score against one template set: a one-cell score matrix."""
    matrix = score_matrix_from_templates([(probe.item_id, probe)], [templates], ("t",), DELTA_ALPHA)
    return float(matrix.scores[0, 0])


# -- file loading -----------------------------------------------------------

def test_load_svc_filters_and_orders(tmp_path):
    root = write_svc_dir(tmp_path / "svc", n_writers=2, n_samples=3)
    # decoys: a forgery-range sample and an unrelated file
    write_svc_file(root / "U1S25.txt", signature_points(1, 25))
    (root / "README.md").write_text("notes", encoding="utf-8")
    corpus = load_svc(root)
    assert corpus.writers == (1, 2)
    assert [s.index for s in corpus.by_writer[1]] == [1, 2, 3]
    assert len(corpus) == 6


def test_load_svc_seven_column_files(tmp_path):
    root = tmp_path / "svc"
    root.mkdir()
    write_svc_file(root / "U3S1.txt", signature_points(3, 1, columns=7))
    corpus = load_svc(root)
    assert corpus.by_writer[3][0].points.shape[1] == 7


def test_load_svc_errors(tmp_path):
    root = tmp_path / "svc"
    root.mkdir()
    (root / "U1S1.txt").write_text("2\n1 2 3 1\n", encoding="utf-8")
    with pytest.raises(DataError, match="declared 2 points"):
        load_svc(root)
    (root / "U1S1.txt").write_text("1\n1 2 3\n", encoding="utf-8")
    with pytest.raises(DataError, match="4 or 7 columns"):
        load_svc(root)
    (root / "U1S1.txt").write_text("1\n1 2 x 1\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-integer"):
        load_svc(root)
    (root / "U1S1.txt").unlink()
    with pytest.raises(DataError, match="no signature files"):
        load_svc(root)


@pytest.mark.parametrize("duplicate", ["U01S01.txt", "u1s1.TXT"])
def test_load_svc_rejects_two_files_of_one_sample(tmp_path, duplicate):
    root = write_svc_dir(tmp_path / "svc", n_writers=1, n_samples=3)
    write_svc_file(root / duplicate, signature_points(1, 2))
    with pytest.raises(DataError, match="both hold sample U1S1") as err:
        load_svc(root)
    assert "U1S1.txt" in str(err.value) and duplicate in str(err.value)


@pytest.mark.parametrize(
    "content, message",
    [
        ("2\n1 2 3 1\n1 2 x 1\n1 2 3\n", r"U1S1.txt:3: non-integer value"),
        ("2\n1 2 3 1\n\n1 2 3\n1 2 x 1\n", r"U1S1.txt:4: expected 4 columns, got 3"),
        ("1\n\n1 2 3 4 5\n", r"U1S1.txt:3: expected 4 or 7 columns, got 5"),
        ("3\n1 2 3 1\n1 2 3 1\n", r"U1S1.txt: declared 3 points but found 2"),
        ("4\n\n", r"U1S1.txt: declared 4 points but found 0"),
        ("0\n", r"U1S1.txt: no points"),
        ("\n1 2 3 1\n", r"U1S1.txt:1: expected the point count"),
        ("", r"U1S1.txt: empty file"),
    ],
)
def test_load_svc_error_messages(tmp_path, content, message):
    root = tmp_path / "svc"
    root.mkdir()
    (root / "U1S1.txt").write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_svc(root)


@pytest.mark.parametrize("value", ["+5", "1_000", "٣", "１", "-7", "-9223372036854775808"])
def test_load_svc_parses_values_as_int_does(tmp_path, value):
    root = tmp_path / "svc"
    root.mkdir()
    (root / "U1S1.txt").write_text(f"2\n{value} 0 0 1\n\n1 2 3 1\n", encoding="utf-8")
    points = load_svc(root).by_writer[1][0].points
    assert points.dtype == np.int64
    assert points.tolist() == [[int(value), 0, 0, 1], [1, 2, 3, 1]]


@pytest.mark.parametrize("value", ["99999999999999999999", "9223372036854775808", "-9223372036854775809"])
def test_load_svc_value_beyond_int64_is_data_error(tmp_path, value):
    root = tmp_path / "svc"
    root.mkdir()
    (root / "U1S1.txt").write_text(f"2\n1 2 3 1\n1 {value} 3 1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"U1S1.txt:3: value outside the 64-bit integer range"):
        load_svc(root)


def test_load_svc_mixed_widths_and_crlf_take_the_fast_path(tmp_path):
    root = tmp_path / "svc"
    root.mkdir()
    four, seven = signature_points(1, 1), signature_points(1, 2, columns=7)
    write_svc_file(root / "U1S1.txt", four)
    write_svc_file(root / "U1S2.txt", seven)
    crlf = "\r\n".join([str(len(four)), *(" ".join(map(str, row)) for row in four)]) + "\r\n"
    (root / "U1S3.txt").write_bytes(crlf.encode("utf-8"))
    corpus = load_svc(root)
    assert corpus.checked_parse_files == 0
    got = [s.points for s in corpus.by_writer[1]]
    for points, want in zip(got, (four, seven, four)):
        assert points.dtype == np.int64
        assert np.array_equal(points, want)


@pytest.mark.parametrize(
    "content, message",
    [
        ("2\n1 2 3 1\n1 2 3 1 # pen down\n", r"U1S1.txt:3: expected 4 columns, got 7"),
        ("2\n1 2 3 1\n1 2 3 1#\n", r"U1S1.txt:3: non-integer value"),
        ("1\n# x y t pen\n1 2 3 1\n", r"U1S1.txt:2: expected 4 or 7 columns, got 5"),
        ("1\n1 2 \x0c3 1\n", r"U1S1.txt:2: expected 4 or 7 columns, got 2"),
        ("2\n1 2 3 1\n1 2 3 1\u01fe\n", r"U1S1.txt:3: non-integer value"),
    ],
)
def test_load_svc_keeps_messages_where_numpy_reads_otherwise(tmp_path, content, message):
    # numpy's reader alone would take # for a comment, \x0c for a space and U+01FE for the
    # digits 462; it gets the lines of splitlines(), no comment character and ASCII text only
    root = tmp_path / "svc"
    root.mkdir()
    (root / "U1S1.txt").write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_svc(root)


# int64 edges; values beyond them come from _ODD_TEXT digits run into a value
_EDGE_VALUES = [0, 1, -1, 2**63 - 1, -(2**63)]
# line ends for splitlines() that numpy's reader reads as spaces
_NUMPY_SPACES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x0c1 2 3 1", "\x1e1 2 3 1 5 6 7"]
# a comment for numpy's reader, values that int() alone accepts, a letter numpy reads as
# digits, and values that are no int64
_ODD_TEXT = [
    "#", "# c", "1#", "\r", "1_000", "\u0663", "\uff11", "\u01fe", "x", "+", "-", "+-1",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
]
# non-ASCII letters and digits as whole values: int() reads U+0663 and U+FF11 and
# refuses U+01FE, which numpy's reader would take for the digits 462
_NON_ASCII_VALUES = ["\u01fe", "1\u01fe", "\u0663", "\uff11"]


@st.composite
def capture_texts(draw):
    """Capture text, a third of it without odd text, often with a flaw of its own.

    A point line may hold a non-ASCII letter or digit as one of its values.
    """
    width = draw(st.sampled_from([4, 4, 4, 7, 7, 7, 3, 5, 8]))
    value = st.one_of(st.integers(-(10**6), 10**6), st.sampled_from(_EDGE_VALUES))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 8 + ["non-ascii"] * 2 + ["blank", "spaces", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
        else:
            n = draw(st.sampled_from([3, 4, 5, 7, 8])) if kind == "ragged" else width
            tokens = []
            for v in draw(st.lists(value, min_size=n, max_size=n)):
                sign = "-" if v < 0 else draw(st.sampled_from(["", "", "+"]))
                tokens.append(sign + "0" * draw(st.sampled_from([0, 0, 1, 2])) + str(abs(v)))
            if kind == "non-ascii":
                tokens[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_NON_ASCII_VALUES))
            gap = draw(st.sampled_from([" ", " ", "\t", "  ", " \t"]))
            pad = st.sampled_from(["", "", " ", "\t"])
            lines.append(draw(pad) + gap.join(tokens) + draw(pad))
    rows = sum(1 for line in lines if line.strip())
    header = draw(st.sampled_from([str(rows)] * 6 + [f"+{rows}", f" {rows} x", str(rows + 1), str(max(rows - 1, 0)), ""]))
    text = header
    for line in lines:
        text += draw(st.sampled_from(["\n", "\r\n", "\r"])) + line
    text += draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    odd = draw(st.one_of(st.none(), st.sampled_from(_NUMPY_SPACES), st.sampled_from(_ODD_TEXT)))
    if odd is not None:
        # next to a space or line end, or anywhere
        gaps = [0] + [k for k, c in enumerate(text) if c in " \t\r\n"]
        at = draw(st.one_of(st.sampled_from(gaps), st.integers(0, len(text))))
        text = text[:at] + odd + text[at:]
    return text


def parsed(parse, path):
    try:
        points = parse(path)
    except DataError as exc:
        return str(exc)
    return points.dtype, points.shape, points.tolist()


@settings(max_examples=600, deadline=None)
@given(capture_texts())
def test_parse_sample_matches_line_by_line_parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "U1S1.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input without data
            ours = parsed(lambda p: _parse_sample(p, 1, 1)[0].points, path)
        assert ours == parsed(parse_capture_reference, path)


def test_load_svc_missing_dir(tmp_path):
    with pytest.raises(DataError, match="not a directory"):
        load_svc(tmp_path / "nope")


# -- stroke angles, seen through 90-degree bins centered on the axes ---------

def test_angles_skip_pen_up_and_stationary():
    s = segment([(1, 0), (0, 0), (0, 1), (1, 1), (-1, 0)], pen=[1, 1, 1, 1, 0, 1])
    # steps: (1,0) and (0,1) kept; (0,0) stationary; (1,1) ends pen-up; (-1,0) starts pen-up
    assert direction_histograms([s], 90.0)[0].tolist() == [0.5, 0.5, 0.0, 0.0]


def test_angle_quadrants():
    steps = [segment([step]) for step in [(1, 0), (0, 1), (-1, 0), (0, -1)]]
    # 0, 90, 180 and 270 degrees, one sample each
    assert np.array_equal(direction_histograms(steps, 90.0), np.eye(4))


# -- direction histograms ---------------------------------------------------

def test_histogram_mass_and_normalization():
    s = segment([(1, 0), (0, 1)])
    hist = direction_histograms([s], 25.0)[0]
    assert hist.shape == (15,)
    assert abs(hist.sum() - 1.0) < 1e-12
    # 0 degrees sits exactly on bin 0; 90 degrees splits between bins 3 and 4
    assert hist[0] == 0.5
    assert np.isclose(hist[3], 0.2)
    assert np.isclose(hist[4], 0.3)


def test_histogram_wraparound_seam():
    # ~354.9 degrees with 25-degree bins: offset 14.19, so the neighbor
    # share must wrap from the last bin into bin 0
    s = segment([(100, -9)])
    hist = direction_histograms([s], 25.0)[0]
    assert hist[14] > 0.5
    assert hist[0] > 0
    assert np.isclose(hist.sum(), 1.0)


def test_histogram_matches_loop_reference():
    rng = np.random.default_rng(21)
    samples = [sample_from(signature_points(int(rng.integers(1, 9)), int(rng.integers(1, 9)))) for _ in range(30)]
    for delta in (25.0, 30.0, 45.0):
        for sample, ours in zip(samples, direction_histograms(samples, delta)):
            ref_hist, _ = direction_histogram_reference(sample.points, delta)
            assert np.max(np.abs(ours - ref_hist)) < 1e-12


def test_histograms_bit_identical_to_per_sample_pass():
    samples = [sample_from(signature_points(w, i, columns=4 + 3 * (i % 2)), w, i) for w in (1, 2) for i in (1, 2, 3)]
    # most neighbours below meet pen down at different points: a step that counts unless masked
    samples += [
        sample_from([[5, 5, 0, 1]]),  # one point
        segment([(1, 0)]),
        segment([(0, 0), (0, 0)]),  # stationary
        segment([(3, 1), (-2, 4)], pen=[0, 0, 0]),  # all pen up
        segment([(0, 1), (7, -3)]),
        sample_from(signature_points(3, 4, columns=7)),
        sample_from([[9, 9, 0, 1]]),
    ]
    for delta in (0.25, 7.0, 25.0, 100.0, 360.0):
        batched = direction_histograms(samples, delta)
        want = np.array([direction_histogram_per_sample(s.points, delta) for s in samples])
        assert batched.shape == want.shape
        assert np.array_equal(batched.view(np.int64), want.view(np.int64))
        for sample, row in zip(samples, want):
            assert np.array_equal(direction_histograms([sample], delta)[0].view(np.int64), row.view(np.int64))


def test_histogram_empty_when_no_motion():
    s = segment([(0, 0), (0, 0)])
    hist = direction_histograms([s], 25.0)[0]
    assert hist.shape == (15,)
    assert np.all(hist == 0)


def test_histogram_rejects_bad_width():
    s = segment([(1, 0)])
    with pytest.raises(ValueError):
        direction_histograms([s], 0.0)
    with pytest.raises(ValueError):
        direction_histograms([s], 400.0)


# -- matching ---------------------------------------------------------------

def test_self_match_is_one():
    s = sample_from(signature_points(4, 2))
    assert abs(match([s], s) - 1.0) < 1e-12


def test_perpendicular_strokes_do_not_match():
    horizontal = segment([(5, 0), (7, 0), (3, 0)])
    vertical = segment([(0, 5), (0, 7), (0, 3)])
    assert match([horizontal], vertical) == 0.0
    # and regardless of drawing direction
    reversed_h = segment([(-5, 0), (-7, 0)])
    reversed_v = segment([(0, -5), (0, -7)])
    assert match([reversed_h], reversed_v) == 0.0


def test_translation_invariance():
    pts = signature_points(5, 3)
    shifted = pts.copy()
    shifted[:, 0] += 10_000
    shifted[:, 1] -= 4_321
    score = match([sample_from(pts)], sample_from(shifted))
    assert abs(score - 1.0) < 1e-9


def test_time_shift_invariance():
    pts = signature_points(6, 4)
    shifted = pts.copy()
    shifted[:, 2] += 999_999
    assert abs(match([sample_from(pts)], sample_from(shifted)) - 1.0) < 1e-9


def test_best_template_wins():
    probe = segment([(1, 0), (1, 0)])
    same = segment([(2, 0)])
    other = segment([(0, 2)])
    assert match([other, same], probe) == 1.0


def test_score_is_symmetric_for_single_templates():
    a = sample_from(signature_points(1, 1))
    b = sample_from(signature_points(2, 2))
    assert np.isclose(match([a], b), match([b], a))


def test_motionless_probe_scores_zero_with_warning():
    template = segment([(1, 0)])
    probe = segment([(0, 0)])
    with pytest.warns(DegenerateInputWarning, match="1 probe"):
        assert match([template], probe) == 0.0


def test_motionless_templates_score_zero_with_warning():
    template = segment([(0, 0)])
    probe = segment([(1, 0)])
    with pytest.warns(DegenerateInputWarning, match="1 subject"):
        assert match([template], probe) == 0.0


def test_no_templates_rejected():
    with pytest.raises(ValueError):
        match([], segment([(1, 0)]))


def test_scores_bounded():
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = sample_from(signature_points(int(rng.integers(1, 20)), 1))
        p = sample_from(signature_points(int(rng.integers(1, 20)), 2))
        assert 0.0 <= match([t], p) <= 1.0 + 1e-12


# -- score matrices ---------------------------------------------------------

def test_score_matrix_from_templates(tmp_path):
    corpus = load_svc(write_svc_dir(tmp_path / "svc", n_writers=3, n_samples=4))
    templates = [corpus.by_writer[w][:2] for w in corpus.writers]
    probes = [(s.item_id, s) for w in corpus.writers for s in corpus.by_writer[w][2:]]
    matrix = score_matrix_from_templates(probes, templates, [f"w{w}" for w in corpus.writers], DELTA_ALPHA)
    assert matrix.scores.shape == (6, 3)
    assert matrix.scores.min() >= 0.0 and matrix.scores.max() <= 1.0


def per_pair_scores(probes, template_sets, delta):
    """Min-sum of every probe x template pair over the loop histograms, max per template set."""
    rows = np.zeros((len(probes), len(template_sets)))
    for i, (_, probe) in enumerate(probes):
        p, _ = direction_histogram_reference(probe.points, delta)
        for j, templates in enumerate(template_sets):
            for template in templates:
                t, _ = direction_histogram_reference(template.points, delta)
                rows[i, j] = max(rows[i, j], sum(min(a, b) for a, b in zip(p, t)))
    return rows


@pytest.mark.parametrize("delta", [25.0, 45.0])
def test_score_matrix_matches_per_pair_oracle(delta):
    still = segment([(0, 0), (0, 0)])
    moving = [sample_from(signature_points(w, i), w, i) for w in (1, 2, 3) for i in range(1, 5)]
    # ragged sets; one set without motion; one mixing a motionless template in
    template_sets = [moving[0:1], moving[1:4], [still, still], [still, moving[4]]]
    probes = [("still0", still)] + [(s.item_id, s) for s in moving[5:]] + [("still1", still)]
    with pytest.warns(DegenerateInputWarning) as record:
        matrix = score_matrix_from_templates(probes, template_sets, ("a", "b", "c", "d"), delta)
    messages = [str(w.message) for w in record if issubclass(w.category, DegenerateInputWarning)]
    assert len(messages) == 2
    assert "2 probe(s)" in messages[0] and "first: still0" in messages[0]
    assert "1 subject(s)" in messages[1] and "first: c" in messages[1]
    assert matrix.item_ids == tuple(item_id for item_id, _ in probes)
    assert np.max(np.abs(matrix.scores - per_pair_scores(probes, template_sets, delta))) < 1e-12
    assert np.all(matrix.scores[[0, -1]] == 0.0)
    assert np.all(matrix.scores[:, 2] == 0.0)
    assert np.all(matrix.scores[1:-1, [0, 1, 3]] > 0.0)


def test_sum_in_numpy_order_is_numpys_row_sum():
    # if numpy changes the order in which it sums a row, this fails before any score shifts
    rng, differ = np.random.default_rng(3), []
    for n in [*range(1, 301), 1440]:
        rows = rng.standard_normal((5, n))
        rows[0] = -0.0  # numpy's sum starts at 0.0
        rows[1] *= 10.0 ** rng.integers(-12, 13, n)  # sums whose rounding depends on the order
        got = _sum_in_numpy_order(lambda i: rows[:, i].copy(), n)
        if got.tobytes() != np.add.reduce(rows, axis=-1).tobytes():
            differ.append(n)
    assert differ == []


# each bin count's delta_alpha: one bin, under 8, a block of 8 and a remainder, 128 and 129 (the pairwise split), 1,440
BIN_DELTAS = {1: 360.0, 8: 45.0, 15: 24.0, 128: 2.8125, 129: 2.8, 1440: 0.25}
# ragged sets, one of a single template, 60 templates in all
SET_SIZES = (1, 3, 2, 5, 4, 1, 6, 2, 3, 4, 5, 2, 3, 1, 7, 2, 3, 6)
BLOCK = signature._PLANE_CELLS // sum(SET_SIZES)


def blocked_scores_and_oracle(bins, n_probes):
    still = segment([(0, 0), (0, 0)])
    template_sets, n = [], 0
    for size in SET_SIZES:
        template_sets.append([sample_from(signature_points(n + i, 1), n + i) for i in range(size)])
        n += size
    template_sets[4][2] = still  # a set that holds one motionless template
    probes = [(f"p{i}", sample_from(signature_points(1000 + i, 2), 1000 + i)) for i in range(n_probes)]
    if n_probes > 1:  # a lone probe keeps its motion
        probes[n_probes // 2] = ("still", still)
    labels = [f"w{j}" for j in range(len(SET_SIZES))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateInputWarning)
        matrix = score_matrix_from_templates(probes, template_sets, labels, BIN_DELTAS[bins])
    return matrix.scores, score_matrix_per_subject(probes, template_sets, BIN_DELTAS[bins])


@pytest.mark.parametrize("bins", sorted(BIN_DELTAS))
def test_blocked_scores_are_the_per_subject_broadcast_bit_for_bit(bins):
    assert _n_bins(BIN_DELTAS[bins]) == bins
    scores, oracle = blocked_scores_and_oracle(bins, BLOCK + 1)
    assert scores.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n_probes", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_blocked_scores_match_the_per_subject_broadcast_at_every_block_edge(n_probes):
    assert BLOCK > 1
    scores, oracle = blocked_scores_and_oracle(15, n_probes)
    assert scores.shape == (n_probes, len(SET_SIZES)) and scores.tobytes() == oracle.tobytes()


def test_score_matrix_rejects_bad_template_sets_before_histograms():
    # the probe is not a sample: any histogram computed before the check would fail otherwise
    probes = [("x", None)]
    with pytest.raises(ValueError, match="one template set per subject"):
        score_matrix_from_templates(probes, [[segment([(1, 0)])]], ("a", "b"), DELTA_ALPHA)
    with pytest.raises(ValueError, match="at least one template"):
        score_matrix_from_templates(probes, [[segment([(1, 0)])], []], ("a", "b"), DELTA_ALPHA)


def test_score_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    matrix = ScoreMatrix(("i0", "i1", "i2"), ("a", "b"), rng.random((3, 2)))
    path = tmp_path / "scores.csv"
    save_score_matrix(matrix, path)
    loaded = load_score_matrix(path)
    assert loaded.item_ids == matrix.item_ids
    assert loaded.subject_labels == matrix.subject_labels
    assert np.array_equal(loaded.scores, matrix.scores)


def test_score_matrix_save_is_deterministic(tmp_path):
    matrix = ScoreMatrix(("x",), ("a",), np.array([[0.25]]))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_score_matrix(matrix, p1)
    save_score_matrix(matrix, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "content,message",
    [
        ("", "empty"),
        ("wrong,a\nx,0.5\n", "header"),
        ("item_id\n", "header"),
        ("item_id,a\nx,0.5,0.7\n", "columns"),
        ("item_id,a\nx,high\n", "non-numeric"),
        ("item_id,a\nx,1.5\n", "within"),
        ("item_id,a\nx,nan\n", "within"),
        ("item_id,a\nx,0.5\nx,0.7\n", "duplicate"),
        ("item_id,a\n", "no score rows"),
    ],
)
def test_load_score_matrix_rejects(tmp_path, content, message):
    path = tmp_path / "scores.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=message):
        load_score_matrix(path)
