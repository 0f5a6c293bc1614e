import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylosig.errors import DegenerateInputWarning
from stylosig.fusion import Decision, decide, fuse


def test_average_hand_value():
    fused = fuse([1.0, 0.2], [0.5, 0.4], "average")
    assert np.allclose(fused, [0.75, 0.3])


def test_sum_and_product():
    a, b = np.array([0.5, 0.1]), np.array([0.25, 0.9])
    # a sum leaves [0, 1], which the metrics reject, so it is not an operator
    with pytest.raises(ValueError, match="operator"):
        fuse(a, b, "sum")
    assert np.allclose(fuse(a, b, "product"), [0.125, 0.09])


def test_product_can_rank_unlike_average():
    a, b = np.array([0.5, 0.9]), np.array([0.5, 0.2])
    assert np.argmax(fuse(a, b, "product")) == 0
    assert np.argmax(fuse(a, b, "average")) == 1


def test_average_stays_in_unit_interval():
    rng = np.random.default_rng(2)
    a, b = rng.random(50), rng.random(50)
    fused = fuse(a, b, "average")
    assert fused.min() >= 0.0 and fused.max() <= 1.0


def test_fuse_matrices_elementwise():
    a = np.arange(6, dtype=float).reshape(2, 3) / 10
    b = np.full((2, 3), 0.5)
    assert np.allclose(fuse(a, b, "average"), (a + 0.5) / 2)


def test_fuse_validates():
    with pytest.raises(ValueError, match="shapes"):
        fuse([0.1], [0.1, 0.2], "average")
    with pytest.raises(ValueError, match="finite"):
        fuse([np.nan], [0.1], "average")
    with pytest.raises(ValueError, match="operator"):
        fuse([0.1], [0.2], "median")


@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=10),
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=10),
    st.sampled_from(["average", "product"]),
)
@settings(max_examples=150, deadline=None)
def test_fusion_is_commutative(xs, ys, op):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    assert np.array_equal(fuse(a, b, op), fuse(b, a, op))


def unpacked(decision: Decision):
    return decision.subject.tolist(), decision.tie.tolist()


def test_decide_picks_argmax():
    assert unpacked(decide([[0.2, 0.9, 0.1]])) == ([1], [False])


def test_decide_tie_goes_to_lowest_id_and_flags():
    with pytest.warns(DegenerateInputWarning):
        decision = decide([[0.3, 0.7, 0.7]])
    assert unpacked(decision) == ([1], [True])
    with pytest.warns(DegenerateInputWarning):
        assert unpacked(decide([[0.5, 0.5]])) == ([0], [True])


def test_decide_rows_of_a_matrix():
    with pytest.warns(DegenerateInputWarning, match="1 row"):
        decision = decide([[0.2, 0.9, 0.1], [0.3, 0.7, 0.7], [0.5, 0.1, 0.4]])
    assert unpacked(decision) == ([1, 1, 0], [False, True, False])


def test_decide_validates():
    with pytest.raises(ValueError):
        decide([])
    with pytest.raises(ValueError):  # one score vector is the (1, S) matrix
        decide([0.2, 0.9])
    with pytest.raises(ValueError):
        decide([[[0.1, 0.2]]])
    with pytest.raises(ValueError):
        decide(np.zeros((3, 0)))
