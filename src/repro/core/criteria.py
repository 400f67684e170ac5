"""Splitting criteria: impurity kernels shared by every classifier here.

The gini index of §2 — ``gini_i = 1 − Σ_j (n_ij / n_i)²`` per partition,
``gini_split = Σ_i (n_i / n) · gini_i`` — plus the information-gain
(entropy) criterion as an extension.

**Determinism contract**: ScalParC (any processor count), the serial
golden reference and the SPRINT baselines all call *these* functions on
*integer* count matrices.  Since the inputs are exact integers and the
floating-point expressions are evaluated elementwise in a fixed order, all
implementations obtain bit-identical scores — which is what lets the test
suite demand exact tree equality across processor counts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GINI",
    "ENTROPY",
    "CRITERIA",
    "impurity",
    "split_score_from_left",
    "split_score_multiway",
    "best_binary_subset",
    "best_categorical_split",
]

GINI = "gini"
ENTROPY = "entropy"
CRITERIA = (GINI, ENTROPY)


def _check_criterion(criterion: str) -> None:
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; expected {CRITERIA}")


def _row_totals(counts: np.ndarray) -> np.ndarray:
    """Per-row sums along the class axis of an (m, c) matrix.

    ``np.sum(axis=1)`` pays the full per-row ufunc-reduce machinery, which
    for the dominant two-class case is ~5× the cost of the single strided
    add computing the identical ``a + b`` (a two-element sum has exactly
    one association, so this is bit-for-bit the same number).
    """
    if counts.ndim == 2 and counts.shape[1] == 2:
        return counts[:, 0] + counts[:, 1]
    return counts.sum(axis=1)


def impurity(
    counts: np.ndarray, criterion: str = GINI, *,
    totals: np.ndarray | None = None,
) -> np.ndarray:
    """Impurity of one or many class-count vectors.

    ``counts`` has shape (c,) or (m, c); returns a scalar array or (m,).
    Empty partitions (zero total) have impurity 0 by convention.
    ``totals`` optionally passes the precomputed (m,) row sums so hot
    callers that already hold them skip the recomputation.
    """
    _check_criterion(criterion)
    counts = np.asarray(counts, dtype=np.float64)
    single = counts.ndim == 1
    if single:
        counts = counts[None, :]
        totals = None
    if totals is None:
        totals = _row_totals(counts)
    safe = np.maximum(totals, 1.0)
    frac = counts / safe[:, None]
    if criterion == GINI:
        out = 1.0 - _row_totals(frac * frac)
    else:
        logs = np.zeros_like(frac)
        np.log2(frac, out=logs, where=frac > 0.0)
        out = -_row_totals(frac * logs)
    out = np.where(totals > 0.0, out, 0.0)
    return out[0] if single else out


def split_score_from_left(
    left: np.ndarray, totals: np.ndarray, criterion: str = GINI
) -> np.ndarray:
    """Weighted split impurity of binary splits given their left counts.

    Parameters
    ----------
    left:
        (m, c) integer matrix: class counts of the left partition for m
        candidate split positions.
    totals:
        (m, c) or (c,) integer matrix: class counts of the node being
        split (broadcast against candidates).

    Returns
    -------
    (m,) float64
        ``(n_L/n)·imp(L) + (n_R/n)·imp(R)`` per candidate — the
        ``gini_split`` of §2 (or its entropy analogue).
    """
    left = np.asarray(left, dtype=np.float64)
    totals = np.broadcast_to(
        np.asarray(totals, dtype=np.float64), left.shape
    )
    right = totals - left
    n = _row_totals(totals)
    n_left = _row_totals(left)
    n_right = _row_totals(right)
    imp_left = impurity(left, criterion, totals=n_left)
    imp_right = impurity(right, criterion, totals=n_right)
    safe_n = np.maximum(n, 1.0)
    return (n_left / safe_n) * imp_left + (n_right / safe_n) * imp_right


def split_score_multiway(matrix: np.ndarray, criterion: str = GINI) -> float:
    """Weighted split impurity of the multiway categorical split.

    ``matrix`` is the (n_values, c) count matrix of §2; empty values form
    no partition.  Returns ``inf`` when fewer than two values occur (no
    valid split exists).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    part_sizes = matrix.sum(axis=1)
    occupied = part_sizes > 0.0
    if int(occupied.sum()) < 2:
        return float("inf")
    n = part_sizes.sum()
    imps = impurity(matrix, criterion)
    return float(np.sum((part_sizes / n) * imps))


def best_binary_subset(
    matrix: np.ndarray, criterion: str = GINI, exhaustive_limit: int = 12
) -> tuple[float, np.ndarray]:
    """Best binary subset split of a categorical attribute (footnote 1).

    Partitions the k occurring values into {S, complement}; returns
    ``(score, mask)`` where ``mask[v]`` is True for values routed left.
    The first occurring value ``occurring[0]`` always goes right (a split
    and its complement are the same split), so a candidate is named by its
    *subset code* ``Σ 2^b`` over the left values ``occurring[b + 1]``.

    * k ≤ ``exhaustive_limit``: exhaustive search over the 2^(k−1)−1
      codes.  Ties go to the **smallest code**: of two tied subsets, the
      one *without* the highest value index on which they differ
      (colexicographic order, not the lexicographically smallest mask —
      for ``[[1,1],[1,0],[4,2],[2,5]]`` the tied {v1, v2} (code 3) wins
      over {v3} (code 4)).
    * otherwise: the greedy hill-climb — start with an empty left side,
      and each round move the value whose move scores lowest (ties: the
      lowest value index) while that strictly improves on the current
      score, keeping the right side non-empty.

    Returns ``(inf, zeros)`` when fewer than two values occur.  The
    search runs in :func:`repro.core.kernels.binary_subset_search`
    (batched, or its per-subset reference twin under
    ``REPRO_KERNELS=reference``); this is the one entry point every
    caller uses per (node, attribute).
    """
    from . import kernels   # kernels imports this module at load time

    return kernels.binary_subset_search(matrix, criterion, exhaustive_limit)


def best_categorical_split(
    matrix: np.ndarray,
    criterion: str = GINI,
    *,
    binary_subsets: bool = False,
    exhaustive_limit: int = 12,
) -> tuple[float, np.ndarray | None]:
    """Best categorical candidate from a (n_values, c) count matrix.

    Returns ``(score, left_mask)`` — ``left_mask`` is None for the multiway
    (paper-default) split and the boolean left-subset mask in binary-subset
    mode.  In ScalParC this runs on the attribute's designated coordinator
    processor (§4); the serial reference calls the same function inline.
    """
    if binary_subsets:
        return best_binary_subset(matrix, criterion, exhaustive_limit)
    return split_score_multiway(matrix, criterion), None
