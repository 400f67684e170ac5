"""Splitting-criteria kernels: known values, invariants, subset search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.criteria import (
    best_binary_subset,
    best_categorical_split,
    impurity,
    split_score_from_left,
    split_score_multiway,
)
from repro.core.kernels import KERNEL_MODES, forced_kernel_mode

# ---------------------------------------------------------------------------
# impurity
# ---------------------------------------------------------------------------

def test_gini_known_values():
    assert impurity(np.array([5, 5])) == pytest.approx(0.5)
    assert impurity(np.array([10, 0])) == 0.0
    assert impurity(np.array([1, 1, 1, 1])) == pytest.approx(0.75)


def test_entropy_known_values():
    assert impurity(np.array([5, 5]), "entropy") == pytest.approx(1.0)
    assert impurity(np.array([10, 0]), "entropy") == 0.0
    assert impurity(np.array([1, 1, 1, 1]), "entropy") == pytest.approx(2.0)


def test_impurity_matrix_form():
    out = impurity(np.array([[5, 5], [10, 0], [0, 0]]))
    np.testing.assert_allclose(out, [0.5, 0.0, 0.0])


def test_impurity_unknown_criterion():
    with pytest.raises(ValueError):
        impurity(np.array([1, 1]), "mse")


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 500), min_size=2, max_size=6))
def test_gini_bounds(counts):
    g = float(impurity(np.array(counts)))
    c = len(counts)
    assert 0.0 <= g <= 1.0 - 1.0 / c + 1e-12


@settings(deadline=None, max_examples=100)
@given(st.lists(st.integers(0, 500), min_size=2, max_size=6))
def test_entropy_bounds(counts):
    h = float(impurity(np.array(counts), "entropy"))
    assert -1e-12 <= h <= np.log2(len(counts)) + 1e-9


# ---------------------------------------------------------------------------
# binary split scores
# ---------------------------------------------------------------------------

def test_split_score_perfect_separation_is_zero():
    left = np.array([[10, 0]])
    totals = np.array([10, 10])
    assert split_score_from_left(left, totals)[0] == pytest.approx(0.0)


def test_split_score_useless_split_keeps_impurity():
    # both sides 50/50 → split gini == parent gini == 0.5
    left = np.array([[5, 5]])
    totals = np.array([10, 10])
    assert split_score_from_left(left, totals)[0] == pytest.approx(0.5)


def test_split_score_textbook_case():
    # paper formula: (n_L/n)·gini_L + (n_R/n)·gini_R
    left = np.array([[3, 1]])
    totals = np.array([5, 5])
    gini_l = 1 - (3 / 4) ** 2 - (1 / 4) ** 2
    gini_r = 1 - (2 / 6) ** 2 - (4 / 6) ** 2
    expected = 0.4 * gini_l + 0.6 * gini_r
    assert split_score_from_left(left, totals)[0] == pytest.approx(expected)


def test_split_score_vectorized_over_positions():
    left = np.array([[0, 0], [1, 0], [2, 0], [2, 1]])
    totals = np.array([2, 2])
    scores = split_score_from_left(left, totals)
    assert scores.shape == (4,)
    assert scores[2] == pytest.approx(0.0)  # perfect split


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.integers(0, 60), min_size=2, max_size=4).flatmap(
        lambda totals: st.tuples(
            st.just(totals),
            st.tuples(*[st.integers(0, t) for t in totals]),
        )
    )
)
def test_split_score_never_exceeds_parent_gini(pair):
    """Weighted child impurity ≤ parent impurity (concavity of gini)."""
    totals, left = np.array(pair[0]), np.array(pair[1])
    if totals.sum() == 0:
        return
    score = split_score_from_left(left[None, :], totals)[0]
    parent = float(impurity(totals))
    assert score <= parent + 1e-9


# ---------------------------------------------------------------------------
# multiway scores
# ---------------------------------------------------------------------------

def test_multiway_single_value_is_invalid():
    matrix = np.array([[5, 5], [0, 0]])
    assert split_score_multiway(matrix) == float("inf")


def test_multiway_matches_manual():
    matrix = np.array([[4, 0], [0, 4], [2, 2]])
    expected = (4 / 12) * 0 + (4 / 12) * 0 + (4 / 12) * 0.5
    assert split_score_multiway(matrix) == pytest.approx(expected)


def test_multiway_pure_partitions_zero():
    matrix = np.array([[7, 0], [0, 3]])
    assert split_score_multiway(matrix) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# binary subset search
# ---------------------------------------------------------------------------

def _brute_force_best_subset(matrix):
    occurring = [v for v in range(matrix.shape[0]) if matrix[v].sum() > 0]
    totals = matrix.sum(axis=0)
    best = (float("inf"), None)
    for bits in range(1, 1 << len(occurring)):
        chosen = [occurring[i] for i in range(len(occurring))
                  if bits >> i & 1]
        if len(chosen) == len(occurring):
            continue
        left = matrix[chosen].sum(axis=0)
        score = float(split_score_from_left(left[None, :],
                                            totals[None, :])[0])
        if score < best[0] - 1e-15:
            best = (score, chosen)
    return best[0]


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=2,
        max_size=5,
    )
)
def test_exhaustive_subset_matches_bruteforce(rows):
    matrix = np.array(rows, dtype=np.int64)
    score, mask = best_binary_subset(matrix)
    occurring = (matrix.sum(axis=1) > 0)
    if occurring.sum() < 2:
        assert score == float("inf")
        return
    assert score == pytest.approx(_brute_force_best_subset(matrix))
    # mask must partition occurring values into two non-empty sides
    assert mask[~occurring].sum() == 0
    assert 0 < mask[occurring].sum() < occurring.sum()


def test_subset_fewer_than_two_values():
    score, mask = best_binary_subset(np.array([[3, 2], [0, 0]]))
    assert score == float("inf")
    assert not mask.any()


def test_greedy_subset_is_valid_partition():
    rng = np.random.default_rng(0)
    matrix = rng.integers(0, 20, (20, 3)).astype(np.int64)
    score, mask = best_binary_subset(matrix, exhaustive_limit=4)  # force greedy
    occurring = matrix.sum(axis=1) > 0
    assert np.isfinite(score)
    assert 0 < mask[occurring].sum() < occurring.sum()
    # greedy can't beat exhaustive
    exact, _ = best_binary_subset(matrix, exhaustive_limit=25)
    assert score >= exact - 1e-12


def test_subset_tie_break_is_smallest_code():
    """Tied subsets resolve to the smallest subset code Σ 2^b over the
    left values occurring[b + 1] (occurring[0] always goes right), not
    to the lexicographically smallest mask: {v1, v2} (code 3) and {v3}
    (code 4) tie here, and {v1, v2} wins in both kernel modes."""
    matrix = np.array([[1, 1], [1, 0], [4, 2], [2, 5]], dtype=np.int64)
    totals = matrix.sum(axis=0)
    tied = split_score_from_left(
        np.array([matrix[1] + matrix[2], matrix[3]]), totals
    )
    assert tied[0] == tied[1]
    for mode in KERNEL_MODES:
        with forced_kernel_mode(mode):
            score, mask = best_binary_subset(matrix)
        assert score == tied[0], mode
        np.testing.assert_array_equal(mask, [False, True, True, False])


def test_best_categorical_split_dispatch():
    matrix = np.array([[4, 0], [0, 4]])
    multi, mask = best_categorical_split(matrix)
    assert mask is None and multi == pytest.approx(0.0)
    binary, mask2 = best_categorical_split(matrix, binary_subsets=True)
    assert mask2 is not None and binary == pytest.approx(0.0)


def test_subset_determinism():
    matrix = np.array([[2, 2], [2, 2], [2, 2]], dtype=np.int64)  # all ties
    s1, m1 = best_binary_subset(matrix)
    s2, m2 = best_binary_subset(matrix)
    assert s1 == s2
    np.testing.assert_array_equal(m1, m2)
