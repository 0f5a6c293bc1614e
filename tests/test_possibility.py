import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylosig.possibility import to_possibility

from .oracles import possibility_naive


def test_hand_example():
    pi = to_possibility([0.5, 0.3, 0.2])
    assert np.allclose(pi, [1.0, 0.8, 0.6], atol=1e-12)


def test_uniform_is_all_ones():
    assert np.array_equal(to_possibility(np.full(4, 0.25)), np.ones(4))


def test_degenerate_one_hot():
    pi = to_possibility([0.0, 1.0, 0.0])
    assert np.array_equal(pi, [0.0, 1.0, 0.0])


def test_max_is_exactly_one():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.random(rng.integers(1, 30))
        p /= p.sum()
        pi = to_possibility(p)
        assert pi[np.argmax(p)] == 1.0
        assert np.all(pi[p == p.max()] == 1.0)


def test_matches_naive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = rng.random(rng.integers(1, 40))
        p /= p.sum()
        assert np.max(np.abs(to_possibility(p) - possibility_naive(p))) < 1e-12


def test_ties_share_possibility():
    pi = to_possibility([0.25, 0.25, 0.4, 0.1])
    assert pi[0] == pi[1]


def test_order_preserved():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.random(12)
        p /= p.sum()
        order = np.argsort(p)
        pi = to_possibility(p)
        assert np.all(np.diff(pi[order]) >= 0)


def test_output_clamped():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rng.random(20)
        p /= p.sum()
        pi = to_possibility(p)
        assert pi.min() >= 0.0 and pi.max() <= 1.0


def test_dominates_input():
    # each possibility is at least its probability (the min with itself)
    rng = np.random.default_rng(13)
    p = rng.random(25)
    p /= p.sum()
    assert np.all(to_possibility(p) >= p - 1e-15)


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [[[0.5, 0.5]]],
        [0.7, 0.7],
        [0.5, 0.2],
        [-0.1, 1.1],
        [np.nan, 1.0],
        [[0.5, 0.5], [0.7, 0.7]],
        np.zeros((2, 0)),
    ],
)
def test_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        to_possibility(bad)


def test_matrix_rows_match_vectors():
    rng = np.random.default_rng(17)
    p = rng.random((50, 9))
    p[::4, :3] = p[::4, 3:6]  # rows with tied entries
    p /= p.sum(axis=1, keepdims=True)
    pi = to_possibility(p)
    assert pi.shape == p.shape
    for row, expected in zip(p, pi):
        assert np.array_equal(to_possibility(row), expected)


def test_matrix_error_names_the_row():
    with pytest.raises(ValueError, match="row 1"):
        to_possibility([[0.5, 0.5], [0.5, 0.2]])


def test_accepts_small_sum_slack():
    to_possibility([0.5, 0.5 + 5e-7])  # within the 1e-6 gate


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_property_oracle_and_permutation(weights):
    p = np.array(weights)
    p /= p.sum()
    pi = to_possibility(p)
    assert np.max(np.abs(pi - possibility_naive(p))) < 1e-12
    perm = np.random.default_rng(0).permutation(len(p))
    assert np.allclose(to_possibility(p[perm]), pi[perm], atol=1e-12)
