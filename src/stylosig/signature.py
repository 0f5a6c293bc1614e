"""Online signature data, the direction-histogram matcher, and score matrices.

Signature capture files hold one point per line (x y t pen, optionally
azimuth altitude pressure) after a first line giving the point count.
The baseline matcher reduces a signature to a histogram of stroke
directions and scores a probe against a set of templates by histogram
intersection, so it is translation- and time-shift-invariant by
construction.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import read_text
from .errors import DataError, DegenerateInputWarning

GENUINE_PER_WRITER = 20

_SVC_NAME = re.compile(r"^U(\d+)S(\d+)\.txt$", re.IGNORECASE)


@dataclass(frozen=True)
class SignatureSample:
    writer: int
    index: int
    points: np.ndarray  # (P, 4) or (P, 7) int64: x y t pen [az alt pressure]

    @property
    def item_id(self) -> str:
        return f"U{self.writer}S{self.index}"


@dataclass(frozen=True)
class SignatureCorpus:
    writers: tuple[int, ...]
    by_writer: dict[int, tuple[SignatureSample, ...]]
    checked_parse_files: int  # files that needed the line-by-line parse

    def __len__(self):
        return sum(len(v) for v in self.by_writer.values())


def _parse_sample(path: Path, writer: int, index: int) -> tuple[SignatureSample, bool]:
    """One capture file's sample, and whether it needed the line-by-line parse.

    numpy's C reader takes the point lines of an ASCII file first.  On ASCII
    text it splits each line on the whitespace str.split does and reads a
    strict subset of what int() reads, so whatever it refuses, errors
    included, goes to _parse_lines, as do values such as 1_000 that int()
    alone reads.  Other text goes there too: numpy reads some letters as
    digits, e.g. U+01FE as 462.
    """
    text = read_text(path)
    lines = text.splitlines()
    try:
        declared = int(lines[0].split()[0])
        if text.isascii() and any(map(str.strip, lines[1:])):  # loadtxt warns on lines without a point
            points = np.loadtxt(lines[1:], dtype=np.int64, ndmin=2, comments=None)
            if points.shape[1] in (4, 7) and len(points) == declared:
                return SignatureSample(writer, index, points), False
    except (ValueError, IndexError):
        pass
    return SignatureSample(writer, index, _parse_lines(path, lines)), True


def _parse_lines(path: Path, lines: list[str]) -> np.ndarray:
    """The points of a capture file's lines, parsed one line at a time, or the DataError naming what is wrong."""
    if not lines:
        raise DataError(f"{path}: empty file")
    try:
        declared = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise DataError(f"{path}:1: expected the point count") from None
    rows = []
    for lineno, parts in enumerate(map(str.split, lines[1:]), start=2):
        if not parts:
            continue
        width = len(rows[0]) if rows else len(parts)
        if width not in (4, 7) or len(parts) != width:
            expected = width if width in (4, 7) else "4 or 7"
            raise DataError(f"{path}:{lineno}: expected {expected} columns, got {len(parts)}")
        try:
            rows.append(np.array(parts, dtype=np.int64))  # parses each value as int() does
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer value") from None
        except OverflowError:
            raise DataError(f"{path}:{lineno}: value outside the 64-bit integer range") from None
    if len(rows) != declared:
        raise DataError(f"{path}: declared {declared} points but found {len(rows)}")
    if not rows:
        raise DataError(f"{path}: no points")
    return np.array(rows)


def load_svc(root: str | Path) -> SignatureCorpus:
    """Load U{writer}S{sample}.txt capture files under ``root``.

    Samples numbered above ``GENUINE_PER_WRITER`` are skilled forgeries in
    this naming scheme and are skipped; only genuine samples are returned.
    Two files naming the same sample, such as U1S1.txt and u01s01.TXT, are
    a DataError.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"signature root {root} is not a directory")
    found: dict[int, list[SignatureSample]] = {}
    names: dict[tuple[int, int], str] = {}  # the file of each (writer, sample)
    checked_parse_files = 0
    for path in sorted(root.iterdir(), key=lambda p: p.name):  # Path order, without Path comparisons
        match = _SVC_NAME.match(path.name)
        if not match:
            continue
        writer, index = int(match.group(1)), int(match.group(2))
        if index > GENUINE_PER_WRITER:
            continue
        first = names.setdefault((writer, index), path.name)
        if first != path.name:
            raise DataError(f"{root}: {first} and {path.name} both hold sample U{writer}S{index}")
        sample, checked = _parse_sample(path, writer, index)
        found.setdefault(writer, []).append(sample)
        checked_parse_files += checked
    if not found:
        raise DataError(f"no signature files named like U1S1.txt under {root}")
    writers = tuple(sorted(found))
    by_writer = {w: tuple(sorted(found[w], key=lambda s: s.index)) for w in writers}
    return SignatureCorpus(writers, by_writer, checked_parse_files)


# ---------------------------------------------------------------------------
# direction histograms

def _n_bins(delta_alpha: float) -> int:
    if not 0.0 < delta_alpha <= 360.0:
        raise ValueError("delta_alpha must be in (0, 360]")
    return math.ceil(360.0 / delta_alpha)


def direction_histograms(samples, delta_alpha: float) -> np.ndarray:
    """Soft-binned histograms of stroke directions, an (n, B) array with one row per sample.

    The directions are those of the pen-down steps with real motion inside a
    sample.  Bin centers sit at multiples of delta_alpha; each angle splits
    unit mass linearly between its two nearest centers, the last wrapping to
    the 0 bin as if a full delta_alpha away (at 25, 355 degrees gives 0.8 to
    350 and 0.2 to 0), and a row is normalized by its sample's number of
    angles, so a one-bin row is 1 only up to rounding.  A sample with no
    pen-down motion gives the all-zero row.

    One bincount adds every lower-bin share, then every upper-bin share, so
    each bin sums its shares in the order a per-sample np.add.at would.
    """
    n_bins = _n_bins(delta_alpha)
    lengths = [len(s.points) for s in samples]
    points = np.concatenate([s.points[:, :4] for s in samples])
    sample = np.repeat(np.arange(len(samples)), lengths)  # each point's sample
    pen = points[:, 3]
    dx = np.diff(points[:, 0].astype(np.float64))
    dy = np.diff(points[:, 1].astype(np.float64))
    # a step from one sample into the next is no stroke
    keep = (pen[:-1] == 1) & (pen[1:] == 1) & ((dx != 0) | (dy != 0)) & (sample[:-1] == sample[1:])
    angles = np.degrees(np.arctan2(dy[keep], dx[keep])) % 360.0
    sample = sample[1:][keep]  # each angle's sample
    offset = angles / delta_alpha
    lower = np.floor(offset).astype(np.int64) % n_bins
    frac = offset - np.floor(offset)
    first = sample * n_bins
    bins = np.concatenate([first + lower, first + (lower + 1) % n_bins])
    sums = np.bincount(bins, np.concatenate([1.0 - frac, frac]), len(samples) * n_bins)
    counts = np.bincount(sample, minlength=len(samples))[:, None]
    hists = np.zeros((len(samples), n_bins))
    return np.divide(sums.reshape(hists.shape), counts, out=hists, where=counts > 0)


# ---------------------------------------------------------------------------
# score matrices (ours, or imported from an external matcher)

@dataclass(frozen=True)
class ScoreMatrix:
    item_ids: tuple[str, ...]
    subject_labels: tuple[str, ...]
    scores: np.ndarray  # (items, subjects) float64 in [0, 1]
    # probes, and subjects none of whose templates moves, without pen-down motion; None unless scored from templates
    still_probes: int | None = None
    still_subjects: int | None = None

    def __post_init__(self):
        if self.scores.shape != (len(self.item_ids), len(self.subject_labels)):
            raise ValueError("score matrix shape does not match its labels")


def _warn_still(what: str, still: np.ndarray, names) -> int:
    """Warn once about the ``still`` items of ``names``, if any; their count."""
    if still.any():
        first = names[int(np.argmax(still))]
        warnings.warn(f"{int(still.sum())} {what} and score 0 (first: {first})", DegenerateInputWarning)
    return int(still.sum())


def _sum_in_numpy_order(term, n: int) -> np.ndarray:
    """``term(0) + ... + term(n - 1)``, float64 arrays added as ``np.add.reduce`` adds a contiguous row of n values.

    numpy 2 sums such a row pairwise into a result that starts at 0.0: under
    8 values one by one; up to 128 in eight running sums over blocks of 8,
    joined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    rest one by one; above 128 as two halves, the first rounded down to a
    multiple of 8.  Each term must be a new array: running sums are kept in
    place, so at most nine terms are alive at once below 129 values.
    """

    def pairwise(lo: int, n: int) -> np.ndarray:
        if n < 8:
            total = term(lo)
            for i in range(lo + 1, lo + n):
                total += term(i)
            return total
        if n <= 128:
            sums, end = [term(lo + j) for j in range(8)], lo + n - n % 8
            for i in range(lo + 8, end, 8):
                for j, total in enumerate(sums):
                    total += term(i + j)
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
                sums[a] += sums[b]
            for i in range(end, lo + n):
                sums[0] += term(i)
            return sums[0]
        half = n // 2 - n // 2 % 8
        total = pairwise(lo, half)
        total += pairwise(lo + half, n - half)
        return total

    total = pairwise(0, n)
    total += 0.0  # numpy's starting 0.0, which turns a sum of -0.0 into 0.0
    return total


# cells of one (probes, templates) plane of minima: the probe block follows from the template count
_PLANE_CELLS = 1 << 15


def score_matrix_from_templates(probes, template_sets, subject_labels, delta_alpha: float) -> ScoreMatrix:
    """Score every probe against every subject's template set.

    ``probes`` is a list of (item_id, sample).  A probe's score for a
    subject is its best histogram intersection (sum of bin-wise minima)
    with any of the subject's templates.  All histograms are computed in
    one pass, each sample's once, so the matrix costs time linear in
    probes x templates.  Blocks of probes meet all templates at once, one
    (probes, templates) plane of minima per bin, and the planes are added in
    the order numpy sums a row of bins, so every score is the bit-exact
    ``np.minimum(probe, template).sum()`` of its best pair.

    Degenerate inputs: an empty template set, or a template set count
    that differs from the label count, is a ValueError.  A histogram
    without pen-down motion is all zero, so probes without motion, and
    subjects none of whose templates has any, score 0, with one warning
    per kind and call; the matrix counts both kinds.
    """
    template_sets = [tuple(templates) for templates in template_sets]
    if len(template_sets) != len(subject_labels):
        raise ValueError("one template set per subject label required")
    if not all(template_sets):
        raise ValueError("need at least one template signature per subject")
    item_ids = tuple(item_id for item_id, _ in probes)
    samples = [sample for _, sample in probes] + [t for templates in template_sets for t in templates]
    hists = direction_histograms(samples, delta_alpha)
    probe_hists, template_bins = hists[: len(item_ids)], np.ascontiguousarray(hists[len(item_ids) :].T)
    starts = np.cumsum([0] + [len(templates) for templates in template_sets[:-1]])  # each subject's first template
    still_probes = _warn_still("probe(s) have no pen-down motion", ~probe_hists.any(axis=1), item_ids)
    moving = np.logical_or.reduceat(template_bins.any(axis=0), starts)
    still_subjects = _warn_still("subject(s) have no template with pen-down motion", ~moving, subject_labels)
    rows = np.zeros((len(item_ids), len(template_sets)), dtype=np.float64)
    block = max(1, _PLANE_CELLS // template_bins.shape[1])
    for lo in range(0, len(item_ids), block):
        probe_bins = np.ascontiguousarray(probe_hists[lo : lo + block].T)
        sums = _sum_in_numpy_order(lambda b: np.minimum(probe_bins[b, :, None], template_bins[b]), hists.shape[1])
        rows[lo : lo + block] = np.maximum.reduceat(sums, starts, axis=1)
    np.minimum(rows, 1.0, out=rows)  # a one-bin histogram sums its shares to 1 give or take a few ulp
    return ScoreMatrix(item_ids, tuple(subject_labels), rows, still_probes, still_subjects)


def save_score_matrix(matrix: ScoreMatrix, path: str | Path) -> None:
    """Write scores as CSV; floats are printed with repr so they reload bit-exactly."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", *matrix.subject_labels])
        for item_id, row in zip(matrix.item_ids, matrix.scores):
            writer.writerow([item_id, *(repr(float(v)) for v in row)])


def load_score_matrix(path: str | Path) -> ScoreMatrix:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty score matrix") from None
            if not header or header[0] != "item_id" or len(header) < 2:
                raise DataError(f"{path}: header must be item_id followed by subject labels")
            labels = tuple(header[1:])
            item_ids = []
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                item_ids.append(row[0])
                try:
                    values = [float(v) for v in row[1:]]
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric score") from None
                rows.append(values)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no score rows")
    if len(set(item_ids)) != len(item_ids):
        raise DataError(f"{path}: duplicate item ids")
    scores = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(scores)) or scores.min() < 0.0 or scores.max() > 1.0:
        raise DataError(f"{path}: scores must be finite and within [0, 1]")
    return ScoreMatrix(tuple(item_ids), labels, scores)
