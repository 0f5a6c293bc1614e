"""Independent reference implementations used to check the production code.

Everything here favors literal, obviously-correct formulations (explicit
loops, exact factorials) over speed, and deliberately avoids the
vectorized shortcuts the library uses.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
from scipy import sparse

from stylosig.conllu import parse_conllu
from stylosig.corpus import Corpus, Document, Subject
from stylosig.errors import DataError
from stylosig.features import NGRAM_FAMILY, SNGRAM_ELEMENTS
from stylosig.signature import direction_histograms

SEP = "\x1f"


def tokenize_reference(text):
    """Lowercase, then every maximal run of Unicode letters and digits (``\\w`` less ``_``)."""
    return re.findall(r"[^\W_]+", text.lower())


def positions_reference(texts):
    """Word n-gram positions of ``texts``: the distinct tokens, sorted; each token's id among them and its predecessor (-1 at a text's start); each text's token count."""
    tokens = [tokenize_reference(text) for text in texts]
    names = sorted(set().union(*tokens))
    ids = {name: i for i, name in enumerate(names)}
    label, pred = [], []
    for words in tokens:
        for j, word in enumerate(words):
            pred.append(len(label) - 1 if j else -1)
            label.append(ids[word])
    return names, label, pred, [len(words) for words in tokens]


def possibility_naive(p):
    """Literal quadratic transform: pi_j = sum_a min(p_a, p_j)."""
    p = list(map(float, p))
    return np.array([sum(min(pa, pj) for pa in p) for pj in p])


def mnb_posterior_reference(train_counts, alpha, doc, alpha_floor=1e-10):
    """Literal multinomial posterior with the full coefficient.

    train_counts: per-subject feature count lists (pooled over that
    subject's documents).  doc: the test document's feature counts.
    Uniform priors; smoothing (N_fs + a) / (N_s + a*n) with a = alpha or
    the floor when alpha is zero.
    """
    a = alpha if alpha > 0 else alpha_floor
    n_features = len(doc)
    total = sum(doc)
    coeff = math.factorial(total)
    for c in doc:
        coeff //= math.factorial(c)
    likelihoods = []
    for counts in train_counts:
        n_s = sum(counts)
        lik = float(coeff)
        for f in range(n_features):
            p_fs = (counts[f] + a) / (n_s + a * n_features)
            lik *= p_fs ** doc[f]
        likelihoods.append(lik)
    prior = 1.0 / len(train_counts)
    joint = [prior * lik for lik in likelihoods]
    z = sum(joint)
    if z == 0.0:
        return np.full(len(train_counts), 1.0 / len(train_counts))
    return np.array([j / z for j in joint])


def pnb_posterior_reference(train_counts, docs_per_subject, alpha, doc):
    """Literal Poisson posterior, rate (N_fs + alpha) / D_s, with 0**0 = 1."""
    n_features = len(doc)
    likelihoods = []
    for counts, d_s in zip(train_counts, docs_per_subject):
        lik = 1.0
        for f in range(n_features):
            lam = (counts[f] + alpha) / d_s
            c = doc[f]
            lik *= lam**c * math.exp(-lam) / math.factorial(c)
        likelihoods.append(lik)
    prior = 1.0 / len(train_counts)
    joint = [prior * lik for lik in likelihoods]
    z = sum(joint)
    if z == 0.0:
        return np.full(len(train_counts), 1.0 / len(train_counts))
    return np.array([j / z for j in joint])


def extract_ngrams(tokens, k):
    """Count contiguous k-grams by joining each window; a text shorter than k yields nothing."""
    if k < 1:
        raise ValueError("n-gram order must be >= 1")
    if k == 1:
        return Counter(tokens)
    return Counter(SEP.join(tokens[i : i + k]) for i in range(len(tokens) - k + 1))


def _node_labels(tree, element):
    """Every node's label for ``element``, node by node."""
    labels = []
    for i in range(len(tree.head)):
        if element == "word":
            labels.append(tree.form[i].lower())
        elif element == "lemma":
            labels.append(tree.lemma[i].lower())
        elif element == "upos":
            labels.append(tree.upos[i])
        elif element == "deprel":
            labels.append(tree.deprel[i])
        else:
            raise ValueError(f"unknown sn-gram element {element!r}")
    return labels


def extract_sngrams(tree, element, k):
    """Count continuous syntactic k-grams of a dependency tree by a depth-first walk from each sentence root.

    A syntactic k-gram is a head-to-dependent chain of exactly k nodes,
    written root-side first.  Each node closes exactly one chain (the one
    ending at it), so a sentence yields one k-gram per token at depth
    >= k-1.
    """
    if k < 1:
        raise ValueError("sn-gram order must be >= 1")
    if element not in SNGRAM_ELEMENTS:
        raise ValueError(f"unknown sn-gram element {element!r}")
    n = len(tree.head)
    children = [[] for _ in range(n)]
    roots = []
    for i, head in enumerate(tree.head):
        if head == -1:
            roots.append(i)
        else:
            children[head].append(i)

    counts = Counter()
    labels = _node_labels(tree, element)
    visited = 0
    for root in roots:
        # iterative DFS keeping the ancestor chain; cycles would revisit a node
        # and overflow the chain past n, so guard on its length
        chain = []
        stack = [(root, 0)]  # (node, next child index)
        while stack:
            node, ci = stack[-1]
            if ci == 0:
                chain.append(node)
                visited += 1
                if len(chain) > n:
                    raise ValueError("dependency structure is cyclic")
                if len(chain) >= k:
                    counts[SEP.join(labels[j] for j in chain[-k:])] += 1
            if ci < len(children[node]):
                stack[-1] = (node, ci + 1)
                stack.append((children[node][ci], 0))
            else:
                stack.pop()
                chain.pop()
    if visited != n:
        raise ValueError("dependency structure is not a forest of trees")
    return counts


def extracted_feature(model, feature):
    """Whether some document gives ``feature`` under ``model``: its order is one of the model's and each of its labels is one a document holds."""
    labels = feature.split(SEP)
    if len(labels) not in model.orders:
        return False
    if model.family == NGRAM_FAMILY:
        return all(tokenize_reference(label) == [label] for label in labels)
    lowered = model.element in ("word", "lemma")
    return not any(re.search("[\x00-\x1f]", label) or (lowered and label.lower() != label) for label in labels)


def extract_counts(model, doc):
    """One document's feature counts under a ``FeatureModel``, one order at a time."""
    counts = Counter()
    if model.family == NGRAM_FAMILY:
        tokens = tokenize_reference(doc.text)
        for k in model.orders:
            counts.update(extract_ngrams(tokens, k))
    else:
        if doc.tree is None:
            raise DataError(f"document {doc.doc_id} has no dependency tree")
        for k in model.orders:
            counts.update(extract_sngrams(doc.tree, model.element, k))
    return counts


def sngrams_recursive(tree, element, k):
    """Enumerate head-to-dependent chains by walking up from every node."""
    labels = _node_labels(tree, element)
    counts = Counter()
    for i in range(len(tree.head)):
        path = [i]
        node = i
        while len(path) < k and tree.head[node] != -1:
            node = tree.head[node]
            path.append(node)
        if len(path) == k:
            counts[SEP.join(labels[j] for j in reversed(path))] += 1
    return counts


def rolling_plan_reference(n_docs, train_window, test_window):
    """Window positions via explicit ring rotation instead of modular arithmetic."""
    plans = []
    ring = list(range(n_docs))
    for k in range(n_docs):
        rotated = ring[k:] + ring[:k]
        plans.append((tuple(rotated[:train_window]), tuple(rotated[train_window : train_window + test_window])))
    return plans


def flat_claims_reference(score_rows, truth):
    """Every (item, subject) claim's score, and whether the subject is the item's true one, item by item."""
    scores, genuine = [], []
    for row, own in zip(score_rows, truth):
        for subject, score in enumerate(row):
            scores.append(score)
            genuine.append(subject == own)
    return np.array(scores, dtype=np.float64), np.array(genuine, dtype=bool)


def confusion_reference(scores, genuine, threshold):
    tp = fp = fn = tn = 0
    for s, g in zip(scores, genuine):
        accepted = s >= threshold
        if g and accepted:
            tp += 1
        elif g:
            fn += 1
        elif accepted:
            fp += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def fscore_reference(scores, genuine, threshold):
    tp, fp, fn, _ = confusion_reference(scores, genuine, threshold)
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def far_frr_reference(scores, genuine, threshold):
    tp, fp, fn, tn = confusion_reference(scores, genuine, threshold)
    return fp / (fp + tn), fn / (tp + fn)


def cmc_reference(score_rows, truth):
    """Identification rates at every rank, ties counted pessimistically."""
    n_items = len(score_rows)
    n_subjects = len(score_rows[0])
    ranks = []
    for i in range(n_items):
        own = score_rows[i][truth[i]]
        ranks.append(sum(1 for v in score_rows[i] if v >= own))
    return [sum(1 for r in ranks if r <= k) / n_items for k in range(1, n_subjects + 1)]


def msh_reference(scores, genuine, bins):
    """Per-score loop over the same bin edges the library builds."""
    edges = np.arange(bins + 1) / bins
    gen_counts = [0] * bins
    imp_counts = [0] * bins
    for s, g in zip(scores, genuine):
        for b in range(bins):
            last = b == bins - 1
            if edges[b] <= s < edges[b + 1] or (last and s == edges[b + 1]):
                (gen_counts if g else imp_counts)[b] += 1
                break
    n_gen = sum(gen_counts)
    n_imp = sum(imp_counts)
    gen = [c / n_gen if n_gen else 0.0 for c in gen_counts]
    imp = [c / n_imp if n_imp else 0.0 for c in imp_counts]
    overlap = sum(min(a, b) for a, b in zip(gen, imp))
    return np.array(gen), np.array(imp), overlap


def trapezoid_reference(ys, xs):
    area = 0.0
    for i in range(len(xs) - 1):
        area += (xs[i + 1] - xs[i]) * (ys[i + 1] + ys[i]) / 2.0
    return area


def direction_histogram_reference(points, delta_alpha):
    """Per-angle loop: soft binning between the two nearest centers."""
    n_bins = math.ceil(360.0 / delta_alpha)
    hist = [0.0] * n_bins
    count = 0
    for i in range(1, len(points)):
        if points[i - 1][3] != 1 or points[i][3] != 1:
            continue
        dx = float(points[i][0] - points[i - 1][0])
        dy = float(points[i][1] - points[i - 1][1])
        if dx == 0 and dy == 0:
            continue
        angle = math.degrees(math.atan2(dy, dx)) % 360.0
        offset = angle / delta_alpha
        low = int(math.floor(offset)) % n_bins
        frac = offset - math.floor(offset)
        hist[low] += 1.0 - frac
        hist[(low + 1) % n_bins] += frac
        count += 1
    if count:
        hist = [h / count for h in hist]
    return np.array(hist), count


def direction_histogram_per_sample(points, delta_alpha):
    """One sample's histogram with np.add.at, the per-sample numpy route that the batched pass replaced.

    Its additions per bin come in the batched pass's order, so the two agree
    bit for bit; the per-angle loop above agrees only within rounding.
    """
    n_bins = math.ceil(360.0 / delta_alpha)
    pen = points[:, 3]
    dx = np.diff(points[:, 0].astype(np.float64))
    dy = np.diff(points[:, 1].astype(np.float64))
    keep = (pen[:-1] == 1) & (pen[1:] == 1) & ((dx != 0) | (dy != 0))
    angles = np.degrees(np.arctan2(dy[keep], dx[keep])) % 360.0
    weights = np.zeros(n_bins, dtype=np.float64)
    if angles.size:
        offset = angles / delta_alpha
        lower = np.floor(offset).astype(np.int64) % n_bins
        frac = offset - np.floor(offset)
        np.add.at(weights, lower, 1.0 - frac)
        np.add.at(weights, (lower + 1) % n_bins, frac)
        weights /= angles.size
    return weights


def score_matrix_per_subject(probes, template_sets, delta_alpha):
    """The (probes, subjects) scores of the per-subject broadcast that the blocked scorer replaced.

    One subject at a time: the (probes, templates, bins) minima, summed over
    the bins by numpy, then the best of the subject's templates, at most 1
    (a one-bin histogram of a moving sample is 1 only up to rounding).
    """
    samples = [sample for _, sample in probes] + [t for templates in template_sets for t in templates]
    hists = direction_histograms(samples, delta_alpha)
    stacked = hists[: len(probes)]
    template_hists = np.split(hists[len(probes) :], np.cumsum([len(ts) for ts in template_sets])[:-1])
    rows = np.zeros((len(probes), len(template_sets)), dtype=np.float64)
    for j, subject_hists in enumerate(template_hists):
        rows[:, j] = np.minimum(stacked[:, None, :], subject_hists[None, :, :]).sum(axis=2).max(axis=1)
    return np.minimum(rows, 1.0)


def parse_capture_reference(path):
    """A capture file's (P, 4) or (P, 7) int64 points, parsed one line and one value at a time.

    Values are parsed by int(); the DataError names the first malformed
    line, or the count that does not match, in the library's words.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    try:
        declared = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise DataError(f"{path}:1: expected the point count") from None
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        width = len(rows[0]) if rows else len(parts)
        if width not in (4, 7) or len(parts) != width:
            expected = width if width in (4, 7) else "4 or 7"
            raise DataError(f"{path}:{lineno}: expected {expected} columns, got {len(parts)}")
        row = []
        for part in parts:
            try:
                value = int(part)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer value") from None
            if not -(2**63) <= value < 2**63:
                raise DataError(f"{path}:{lineno}: value outside the 64-bit integer range")
            row.append(value)
        rows.append(row)
    if len(rows) != declared:
        raise DataError(f"{path}: declared {declared} points but found {len(rows)}")
    if not rows:
        raise DataError(f"{path}: no points")
    return np.array(rows, dtype=np.int64)


def as_scipy(counts):
    """A count matrix's arrays as a scipy ``csr_array``, for tests that use scipy's API on ``FeatureMatrix.counts``."""
    return sparse.csr_array((counts.data, counts.indices, counts.indptr), shape=counts.shape)


def pool_reference(counts, subjects, n_subjects):
    """Pooled training counts as a (subjects, documents) indicator matrix times the (documents, m) counts."""
    n = len(subjects)
    indicator = sparse.csr_array((np.ones(n), (np.asarray(subjects, dtype=np.int64), np.arange(n))), shape=(n_subjects, n))
    return (indicator @ counts).toarray()


def load_text_corpus_reference(root):
    """The pathlib loader: ``glob("*.txt")`` per subject, sorted, ``with_suffix(".conllu").is_file()``, ``read_text``.

    Documents and sidecars alike are read with ``Path.read_text``, so the
    reference shares no reader with ``load_text_corpus``.
    """

    def read_text(path):
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc

    root = Path(root)
    if not root.is_dir():
        raise DataError(f"corpus root {root} is not a directory")
    labels = sorted(d.name for d in root.iterdir() if d.is_dir())
    if not labels:
        raise DataError(f"corpus root {root} contains no subject directories")
    subjects = tuple(Subject(i, label) for i, label in enumerate(labels))
    documents = []
    for subj in subjects:
        subj_dir = root / subj.label
        paths = sorted(subj_dir.glob("*.txt"))
        if not paths:
            raise DataError(f"subject directory {subj_dir} contains no .txt documents")
        for path in paths:
            text = read_text(path)
            sidecar = path.with_suffix(".conllu")
            tree = parse_conllu(read_text(sidecar), source=str(sidecar)) if sidecar.is_file() else None
            documents.append(Document(f"{subj.label}/{path.name}", subj.id, text, tree))
    return Corpus(subjects, tuple(documents))
