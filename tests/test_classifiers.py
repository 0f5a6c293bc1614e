import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from stylosig.classifiers import (
    KINDS,
    NbModel,
    _pool,
    _product,
    load_model,
    mnb_train,
    pnb_train,
    posterior,
    save_model,
    warn_fallback,
)
from stylosig.errors import DataError, DegenerateInputWarning
from stylosig.features import CsrMatrix, FeatureModel, Vocabulary
from stylosig.fusion import decide

from .conftest import write_text_corpus
from .oracles import as_scipy, mnb_posterior_reference, pnb_posterior_reference, pool_reference


def make_vocab(n_features=4):
    model = FeatureModel("ngram", (1,))
    return Vocabulary(model, n_features, tuple(f"f{i}" for i in range(n_features)))


def vec(counts):
    """One document's counts as a 1-row sparse matrix."""
    return sparse.csr_array(np.array([counts], dtype=np.int64))


def docs(*rows):
    """Training rows as (count matrix, subject of each row)."""
    return sparse.csr_array(np.array([r for r, _ in rows], dtype=np.int64)), [s for _, s in rows]


def pairs_from_rows(rows):
    # one training document per subject, counts given densely
    return docs(*((row, s) for s, row in enumerate(rows)))



def test_smoothed_parameter_hand_value():
    # counts [3, 2, 6, 0], alpha=1, 4 features: p_f0 = (3+1)/(11+4) = 4/15
    model = mnb_train(*pairs_from_rows([[3, 2, 6, 0], [1, 1, 1, 1]]), 1.0, ("s0", "s1"))
    assert math.isclose(math.exp(model.table[0, 0]), 4 / 15, rel_tol=1e-12)
    assert math.isclose(math.exp(model.table[0, 3]), 1 / 15, rel_tol=1e-12)


def test_parameters_sum_to_one_per_subject():
    model = mnb_train(*pairs_from_rows([[3, 0, 1, 2], [5, 5, 0, 0]]), 0.01, ("a", "b"))
    sums = np.exp(model.table).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_posterior_matches_literal_reference():
    rng = np.random.default_rng(42)
    for alpha in (0.01, 1.0):
        for _ in range(50):
            rows = rng.integers(0, 5, size=(3, 3)).tolist()
            doc = rng.integers(0, 4, size=3).tolist()
            if sum(doc) == 0:
                continue
            model = mnb_train(*pairs_from_rows(rows), alpha, ("a", "b", "c"))
            (ours,), _ = posterior(model, vec(doc))
            ref = mnb_posterior_reference(rows, alpha, doc)
            assert np.max(np.abs(ours - ref)) < 1e-9


def test_posterior_sums_to_one():
    rng = np.random.default_rng(1)
    for alpha in (0.0, 0.01, 1.0):
        rows = rng.integers(0, 9, size=(4, 5)).tolist()
        model = mnb_train(*pairs_from_rows(rows), alpha, tuple("abcd"))
        doc = vec(rng.integers(0, 6, size=5).tolist())
        assert abs(posterior(model, doc)[0].sum() - 1.0) < 1e-9


def test_training_pools_documents_per_subject():
    split = docs(([2, 1], 0), ([1, 0], 0), ([0, 4], 1))
    pooled = docs(([3, 1], 0), ([0, 4], 1))
    a = mnb_train(*split, 0.5, ("x", "y"))
    b = mnb_train(*pooled, 0.5, ("x", "y"))
    assert np.array_equal(a.table, b.table)


@st.composite
def training_rows(draw):
    """A CSR of training counts as stored, with the subject of each row.

    Rows come in any subject order and may be empty; within a row, columns
    are unsorted and may repeat.  Float values differ in magnitude, so a
    different order of addition rounds differently.
    """
    n_subjects = draw(st.integers(1, 4))
    subjects = draw(st.permutations(list(range(n_subjects)) + draw(st.lists(st.integers(0, n_subjects - 1), max_size=5))))
    m = draw(st.integers(0, 5))
    if draw(st.booleans()):
        values, dtype = st.integers(1, 2**40), np.int64
    else:  # stored counts are positive (``_check_csr``)
        values, dtype = st.floats(0, 1e17, exclude_min=True, allow_subnormal=False) | st.sampled_from([0.1, 0.2, 0.3, 1e16]), np.float64
    entries = st.lists(st.tuples(st.integers(0, m - 1), values), max_size=6) if m else st.just([])
    rows = [draw(entries) for _ in subjects]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([c for row in rows for c, _ in row], dtype=np.int32)
    data = np.array([v for row in rows for _, v in row], dtype=dtype)
    return sparse.csr_array((data, indices, indptr), shape=(len(subjects), m)), subjects, n_subjects


@settings(max_examples=300, deadline=None)
@given(training_rows())
def test_pool_equals_indicator_product_bit_for_bit(case):
    counts, subjects, n_subjects = case
    stored = counts.indices.copy(), counts.data.copy()
    pooled, docs_per_subject = _pool(counts, subjects, 0.0, n_subjects)
    reference = pool_reference(counts, subjects, n_subjects)
    assert pooled.dtype == reference.dtype == np.float64
    assert np.array_equal(pooled, reference)
    assert np.array_equal(docs_per_subject, np.bincount(subjects, minlength=n_subjects))
    # pooling leaves the training rows as stored
    assert np.array_equal(counts.indices, stored[0]) and np.array_equal(counts.data, stored[1])


def test_pool_rejects_rows_that_do_not_fit_subjects():
    counts, subjects = docs(([1, 0], 0), ([0, 2], 1))
    with pytest.raises(ValueError):
        mnb_train(counts, subjects + [1], 0.1, ("a", "b"))


@pytest.mark.parametrize("layout", ["csc_array", "coo_array", "csc_matrix", "coo_matrix"])
def test_a_count_matrix_in_another_layout_is_refused(layout):
    # a CSC matrix has data, indices and indptr too, which read as CSR would be its transpose
    counts, subjects = docs(([2, 1], 0), ([0, 4], 1))
    other = getattr(sparse, layout)(counts)
    for train in (mnb_train, pnb_train):
        with pytest.raises(TypeError, match="must be a CSR matrix"):
            train(other, subjects, 1.0, ("a", "b"))
    model = mnb_train(counts, subjects, 1.0, ("a", "b"))
    with pytest.raises(TypeError, match="must be a CSR matrix"):
        posterior(model, other)


@pytest.mark.parametrize("as_matrix", [lambda *arrays: CsrMatrix(*arrays, (1, 2)), lambda *arrays: sparse.csr_array(arrays, shape=(1, 2))])
def test_a_stored_count_not_above_zero_is_refused(as_matrix):
    # a zero rate weighs -inf, and a stored 0 would meet it as 0 * -inf: a NaN posterior, not a fallback
    model = pnb_train(*pairs_from_rows([[2, 0], [0, 4]]), 0.0, ("a", "b"))
    indices, indptr = np.array([0, 1], dtype=np.int32), np.array([0, 2], dtype=np.int32)
    for stored in ([1, 0], [1, -1], [1, np.nan]):
        counts = as_matrix(np.array(stored, dtype=np.float64), indices, indptr)
        with pytest.raises(ValueError, match="^counts must store only positive counts$"):
            posterior(model, counts)
        for train in (mnb_train, pnb_train):
            with pytest.raises(ValueError, match="^counts must store only positive counts$"):
                train(counts, [0], 1.0, ("a",))
    assert posterior(model, as_matrix(np.array([1.0]), indices[:1], np.array([0, 1], dtype=np.int32)))[0].tolist() == [[1.0, 0.0]]


@st.composite
def scored_counts(draw):
    """A CSR count matrix whose rows store columns in any order, repeated or none, with int32 or int64 indices, and a model over its columns."""
    kind, n_subjects, m = draw(st.sampled_from(KINDS)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 2**20)), max_size=8), max_size=5))
    width = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(width)
    indices = np.array([c for row in rows for c, _ in row], dtype=width)
    data = np.array([v for row in rows for _, v in row], dtype=np.int64)
    # training counts of varied size, so that the weights differ in magnitude and the order of a row's sum matters
    train = draw(st.lists(st.integers(0, 10**6), min_size=n_subjects * m, max_size=n_subjects * m))
    alpha = draw(st.sampled_from([0.0, 0.01, 1.0]))
    fit = {"mnb": mnb_train, "pnb": pnb_train}[kind]
    model = fit(sparse.csr_array(np.array(train).reshape(n_subjects, m)), np.arange(n_subjects), alpha, tuple(map(str, range(n_subjects))))
    return model, CsrMatrix(data, indices, indptr, (len(rows), m))


@settings(max_examples=300, deadline=None)
@given(scored_counts())
def test_posterior_of_the_count_matrix_equals_scipy_csr_bit_for_bit(case):
    model, counts = case
    ours, theirs = posterior(model, counts), posterior(model, as_scipy(counts))
    for got, want in zip(ours, theirs):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# row lengths at the edges of numpy's pairwise blocks (8 and 128 entries), which a sum in another order would cross
ROW_LENGTHS = st.sampled_from([0, 1, 7, 8, 9, 128, 129]) | st.integers(1001, 1500) | st.integers(0, 40)


@st.composite
def products(draw):
    """Counts and weights for ``counts @ weights``, their values from a drawn seed.

    The weights are an mnb model's log probabilities or a pnb model's log
    rates with zero rates (-inf), over 1 to 50 subjects, C-ordered as a
    trained model's or F-ordered as a loaded model's, with a few zeros of
    either sign.  Rows repeat columns, in any order; counts are positive
    integers, or floats of mixed magnitude, so that the order of a row's
    sum matters.
    """
    kind, n_subjects, m = draw(st.sampled_from(KINDS)), draw(st.integers(1, 50) | st.just(1)), draw(st.integers(1, 300))
    lengths = draw(st.lists(ROW_LENGTHS, min_size=1, max_size=6))
    width, order = draw(st.sampled_from([np.int32, np.int64])), draw(st.sampled_from("CF"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr = np.cumsum([0, *lengths]).astype(width)
    indices = rng.integers(0, m, indptr[-1]).astype(width)
    if draw(st.booleans()):
        data = rng.integers(1, 2**20, indptr[-1])
    else:
        data = rng.random(indptr[-1]) * 10.0 ** rng.integers(-8, 9, indptr[-1]) + 1e-300
    weights = np.log(rng.random((m, n_subjects))) * 10.0 ** rng.integers(-6, 7, (m, n_subjects))
    if kind == "pnb":
        weights[rng.random((m, n_subjects)) < 0.2] = -np.inf
    weights[rng.random((m, n_subjects)) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    counts = CsrMatrix(data, indices, indptr, (len(lengths), m))
    return counts if draw(st.booleans()) else as_scipy(counts), np.asarray(weights, order=order)


# a row whose products are all -0.0: the kernel's sum starts from 0.0, so it is 0.0
NEGATIVE_ZEROS = CsrMatrix(np.array([3, 1]), np.array([0, 1], dtype=np.int32), np.array([0, 2], dtype=np.int32), (1, 2))


@settings(max_examples=300, deadline=None)
@given(products())
@example((NEGATIVE_ZEROS, np.full((2, 1), -0.0)))
@example((NEGATIVE_ZEROS, np.full((2, 3), -0.0)))
def test_product_is_scipys_csr_product_bit_for_bit(case):
    counts, weights = case
    got = _product(counts, weights)
    want = sparse.csr_array((counts.data, counts.indices, counts.indptr), shape=counts.shape, dtype=np.float64) @ weights
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("columns", [2, 4])
def test_a_count_matrix_of_another_width_is_refused(columns):
    # the kernel would score a narrower matrix on the model's first columns
    model = mnb_train(*pairs_from_rows([[2, 0, 1], [0, 4, 1]]), 1.0, ("a", "b"))
    counts = sparse.csr_array(np.ones((2, columns), dtype=np.int64))
    for matrix in (counts, CsrMatrix(counts.data, counts.indices, counts.indptr, counts.shape)):
        with pytest.raises(ValueError, match=f"^counts have {columns} columns for a model of 3 features$"):
            posterior(model, matrix)


@pytest.mark.parametrize(
    "indices, indptr, message",
    [
        ([0, 1], [0, 2, 2], "indptr does not fit 1 rows of 2 entries"),
        ([0, 1], [0, 3], "indptr does not fit 1 rows of 2 entries"),
        ([0, 1], [-1, 2], "indptr does not fit 1 rows of 2 entries"),
        ([0, 3], [0, 2], r"a column outside 0\.\.2"),
        ([-1, 1], [0, 2], r"a column outside 0\.\.2"),
    ],
)
def test_a_count_matrix_whose_arrays_point_outside_them_is_refused(indices, indptr, message):
    # the kernel would read outside the arrays
    model = mnb_train(*pairs_from_rows([[2, 0, 1], [0, 4, 1]]), 1.0, ("a", "b"))
    counts = CsrMatrix(np.ones(2), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32), (1, 3))
    with pytest.raises(ValueError, match=message):
        posterior(model, counts)


def test_alpha_zero_uses_floor():
    model = mnb_train(*pairs_from_rows([[4, 0], [1, 1]]), 0.0, ("a", "b"))
    assert np.all(np.isfinite(model.table))
    # unseen feature gets the floor mass, vastly smaller than a seen one
    assert model.table[0, 1] < model.table[0, 0] - 20


def test_negative_alpha_rejected():
    with pytest.raises(ValueError):
        mnb_train(*pairs_from_rows([[1, 1]]), -0.1, ("a",))


def test_subject_without_vectors_rejected():
    with pytest.raises(DataError, match="without training vectors"):
        mnb_train(*docs(([1, 0], 0)), 0.1, ("a", "b"))


def test_unknown_subject_rejected():
    with pytest.raises(DataError, match="unknown subject"):
        mnb_train(*docs(([1, 0], 5)), 0.1, ("a",))


def test_empty_document_gives_uniform_with_warning():
    model = mnb_train(*pairs_from_rows([[2, 1], [1, 2]]), 0.1, ("a", "b"))
    post, fallback = posterior(model, vec([0, 0]))
    assert np.array_equal(post, [[0.5, 0.5]]) and fallback.tolist() == [True]
    with pytest.warns(DegenerateInputWarning, match=r"^empty feature vector in 1 row\(s\)"):
        warn_fallback(model, int(fallback.sum()))


def test_attribute_breaks_ties_toward_lowest_id():
    # identical training counts make every posterior uniform
    model = mnb_train(*pairs_from_rows([[2, 2], [2, 2]]), 1.0, ("a", "b"))
    with pytest.warns(DegenerateInputWarning):
        assert decide(posterior(model, vec([3, 1]))[0]).subject[0] == 0


def test_attribute_picks_the_right_subject():
    model = mnb_train(*pairs_from_rows([[9, 1], [1, 9]]), 0.01, ("a", "b"))
    assert decide(posterior(model, vec([5, 0]))[0]).subject[0] == 0
    assert decide(posterior(model, vec([0, 5]))[0]).subject[0] == 1
    # one call decides every row of a matrix
    assert list(decide(posterior(model, sparse.vstack([vec([5, 0]), vec([0, 5])]))[0]).subject) == [0, 1]


def test_extreme_counts_stay_finite():
    # log-space scoring must survive counts that would underflow linearly
    model = mnb_train(*pairs_from_rows([[900, 5, 5], [5, 900, 5]]), 0.01, ("a", "b"))
    (post,), _ = posterior(model, vec([500, 0, 300]))
    assert np.all(np.isfinite(post))
    assert abs(post.sum() - 1.0) < 1e-9
    assert post[0] > 0.99


# -- Poisson benchmark ------------------------------------------------------

def test_poisson_rate_hand_value():
    # subject 0: 4 occurrences over 2 docs, alpha=0 -> rate 2
    train = docs(([3, 0], 0), ([1, 2], 0), ([0, 1], 1))
    model = pnb_train(*train, 0.0, ("a", "b"))
    assert model.kind == "pnb"
    assert model.table[0, 0] == 2.0
    assert model.table[0, 1] == 1.0
    _, weights = model.linear  # (m, S): feature 0 of subject 1
    assert np.isneginf(weights[0, 1])


def test_poisson_matches_literal_reference():
    rng = np.random.default_rng(9)
    for alpha in (0.01, 1.0):
        for _ in range(50):
            rows = rng.integers(0, 5, size=(3, 3)).tolist()
            doc = rng.integers(0, 4, size=3).tolist()
            model = pnb_train(*pairs_from_rows(rows), alpha, ("a", "b", "c"))
            ref = pnb_posterior_reference(rows, [1, 1, 1], alpha, doc)
            (ours,), _ = posterior(model, vec(doc))
            assert np.max(np.abs(ours - ref)) < 1e-9


def test_poisson_zero_rate_kills_subject():
    # alpha=0: subject b never produced f0, so a doc containing f0 rules b out
    model = pnb_train(*pairs_from_rows([[2, 2], [0, 4]]), 0.0, ("a", "b"))
    (post,), _ = posterior(model, vec([1, 1]))
    assert post[1] == 0.0
    assert post[0] == 1.0


def test_poisson_identical_subjects_are_uniform():
    model = pnb_train(*pairs_from_rows([[2, 1], [2, 1]]), 0.5, ("a", "b"))
    assert np.allclose(posterior(model, vec([4, 2]))[0], [[0.5, 0.5]], atol=1e-12)


def test_poisson_all_impossible_warns_uniform():
    # both subjects have zero rates everywhere the doc has counts
    model = pnb_train(*pairs_from_rows([[0, 2], [0, 3]]), 0.0, ("a", "b"))
    post, fallback = posterior(model, vec([2, 0]))
    assert np.array_equal(post, [[0.5, 0.5]]) and fallback.tolist() == [True]
    with pytest.warns(DegenerateInputWarning, match=r"^every subject has zero likelihood in 1 row\(s\)"):
        warn_fallback(model, int(fallback.sum()))


# -- persistence ------------------------------------------------------------

ROUNDTRIP_CASES = [
    pytest.param(mnb_train, [[3, 1, 0], [0, 2, 5]], 0.01, ("ann", "bob"), [1, 0, 2], id="mnb"),
    pytest.param(pnb_train, [[3, 1], [0, 2]], 0.0, ("a", "b"), [0, 2], id="pnb"),
]


@pytest.mark.parametrize("train, rows, alpha, labels, doc", ROUNDTRIP_CASES)
def test_roundtrip_is_bit_exact(tmp_path, train, rows, alpha, labels, doc):
    vocab = make_vocab(len(rows[0]))
    model = train(*pairs_from_rows(rows), alpha, labels)
    path = tmp_path / "model.npz"
    save_model(model, path, vocab)
    loaded, loaded_vocab = load_model(path)
    assert isinstance(loaded, NbModel)
    assert loaded.kind == model.kind
    assert loaded.subject_labels == model.subject_labels
    assert loaded.alpha == model.alpha
    assert loaded_vocab.features == vocab.features
    assert all(type(name) is str for name in loaded_vocab.features + loaded.subject_labels)  # not np.str_
    assert loaded_vocab.model == vocab.model
    assert np.array_equal(loaded.table, model.table)
    for ours, theirs in zip(loaded.linear, model.linear):
        assert np.array_equal(ours, theirs)
    assert np.array_equal(posterior(loaded, vec(doc))[0], posterior(model, vec(doc))[0])


def wide_training(n_subjects=40, m=2000):
    """Sparse integer counts of three training documents per subject over m columns, and each row's subject."""
    rng = np.random.default_rng(11)
    dense = rng.integers(1, 9, (3 * n_subjects, m)) * (rng.random((3 * n_subjects, m)) < 0.05)
    return sparse.csr_array(dense), np.repeat(np.arange(n_subjects), 3)  # pnb rates in thirds, which round


def test_trained_mnb_weights_are_its_table_in_the_layout_the_product_reads():
    counts, subjects = wide_training()
    model = mnb_train(counts, subjects, 0.5, tuple(map(str, range(40))))
    _, weights = model.linear
    assert weights.flags.c_contiguous and np.shares_memory(weights, model.table)


def test_posterior_of_a_trained_mnb_model_does_not_copy_its_table():
    counts, subjects = wide_training()
    model = mnb_train(counts, subjects, 0.5, tuple(map(str, range(40))))
    rows = counts[:8]
    tracemalloc.start()
    try:
        posterior(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.table.nbytes


@pytest.mark.parametrize("train", [mnb_train, pnb_train])
def test_model_file_and_scores_do_not_depend_on_the_table_layout(tmp_path, train):
    counts, subjects = wide_training(n_subjects=5, m=300)
    model = train(counts, subjects, 0.0, tuple("abcde"))  # pnb at alpha 0 has zero rates, which weigh -inf
    c_ordered = dataclasses.replace(model, table=np.ascontiguousarray(model.table))  # as load_model gives it
    assert not model.table.flags.c_contiguous and c_ordered.table.flags.c_contiguous
    vocab = make_vocab(300)
    save_model(model, tmp_path / "trained.npz", vocab)
    save_model(c_ordered, tmp_path / "c_ordered.npz", vocab)
    assert (tmp_path / "trained.npz").read_bytes() == (tmp_path / "c_ordered.npz").read_bytes()
    probe = sparse.vstack([counts, sparse.csr_array((1, 300), dtype=np.int64)]).tocsr()
    ours, theirs = posterior(model, probe), posterior(c_ordered, probe)
    for got, want in zip(ours, theirs):
        assert got.tobytes() == want.tobytes()
    assert ours[1].tolist() == [False] * 15 + [train is mnb_train]  # the empty row falls back under mnb only


@pytest.mark.parametrize("train, rows, alpha, labels, doc", ROUNDTRIP_CASES)
def test_loads_a_v1_archive_written_by_hand(tmp_path, train, rows, alpha, labels, doc):
    # pins the file format v1 apart from save_model: these arrays, with these names
    vocab = make_vocab(len(rows[0]))
    model = train(*pairs_from_rows(rows), alpha, labels)
    header = {
        "format_version": 1,
        "alpha": alpha,
        "feature_family": "ngram",
        "feature_orders": [1],
        "feature_element": "word",
        "profile_size": len(vocab),
        "kind": model.kind,
    }
    table_name = {"mnb": "log_params", "pnb": "rates"}[model.kind]
    path = tmp_path / "model.npz"
    np.savez(
        path,
        header=np.array(json.dumps(header)),
        subject_labels=np.array(labels),
        features=np.array(vocab.features),
        log_priors=np.full(len(labels), -np.log(len(labels))),
        **{table_name: model.table},
    )
    loaded, loaded_vocab = load_model(path)
    assert loaded.kind == model.kind
    assert loaded.subject_labels == labels
    assert loaded_vocab == vocab
    assert np.array_equal(posterior(loaded, vec(doc))[0], posterior(model, vec(doc))[0])


def rewrite_archive(path, **changes):
    """Rewrite a model file with some of its arrays replaced."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    np.savez(path, **{**arrays, **changes})


@pytest.mark.parametrize("train, table_name", [(mnb_train, "log_params"), (pnb_train, "rates")])
def test_load_rejects_table_that_does_not_fit_features(tmp_path, train, table_name):
    model = train(*pairs_from_rows([[3, 1, 0], [0, 2, 5]]), 0.01, ("a", "b"))
    path = tmp_path / "model.npz"
    save_model(model, path, make_vocab(3))
    rewrite_archive(path, **{table_name: model.table[:, :2]})
    with pytest.raises(DataError, match=rf"{re.escape(str(path))}: {table_name} \(2, 2\).*3 features"):
        load_model(path)


def test_load_rejects_labels_that_do_not_fit_table(tmp_path):
    model = mnb_train(*pairs_from_rows([[3, 1], [0, 2], [1, 1]]), 0.01, ("a", "b", "c"))
    path = tmp_path / "model.npz"
    save_model(model, path, make_vocab(2))
    rewrite_archive(path, subject_labels=np.array(["a", "b"]))
    with pytest.raises(DataError, match=rf"{re.escape(str(path))}: log_params \(3, 2\).*2 subject labels"):
        load_model(path)


def test_load_rejects_non_uniform_priors(tmp_path):
    model = mnb_train(*pairs_from_rows([[3, 1], [0, 2]]), 0.01, ("a", "b"))
    path = tmp_path / "model.npz"
    save_model(model, path, make_vocab(2))
    rewrite_archive(path, log_priors=np.log([0.9, 0.1]))
    with pytest.raises(DataError, match="uniform priors"):
        load_model(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not an archive")
    with pytest.raises(DataError):
        load_model(path)


def test_readme_library_use_block_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # three subjects with private words; the block's probe is the last document, of subj2
    subjects = {f"subj{s}": [" ".join(f"s{s}w{(d + i) % 5}" for i in range(20)) for d in range(3)] for s in range(3)}
    write_text_corpus(tmp_path / "corpus", subjects)
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(block, names)
    assert names["scores"].shape == (1, 3) and names["fallback"].tolist() == [False]
    assert names["subject"].tolist() == [2] and names["tie"].tolist() == [False]
