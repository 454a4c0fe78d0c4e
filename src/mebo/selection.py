"""Order statistics over point-to-center distances.

top_k_farthest returns the k points farthest from a center in expected
linear time via numpy's introselect partition (quickselect with a
median-of-medians style fallback, so worst-case linear as well).
Distances are compared squared; the reported pivot is the rooted
distance.  The tie rule (at equal distance the lower index enters the
far set) is stated once, in top_k_at_pivot, which the tree-growth
engine calls as well.

Squared distances are computed in the expanded one-matvec form, by the
single helper below.  Every consumer of these order statistics, the
tree-growth engine included, goes through the same expression, so a
distance tie resolves identically everywhere.  Mixing the expanded and
the direct (x - c)^2 forms is not safe: a center sitting exactly
mid-way between two points ties them in one form and splits them by a
few ulps in the other.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset

__all__ = ["top_k_farthest", "k_smallest_distance"]


def expanded_sq_dists(X: np.ndarray, sqn: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distances |x|^2 - 2 x.c + |c|^2 from one matrix-vector product.

    sqn must be einsum("ij,ij->i", X, X); callers that loop over many
    centers precompute it once.  Values can round a few ulps below zero
    for points nearly coincident with c.
    """
    d2 = X @ c
    d2 *= -2.0
    d2 += sqn
    d2 += float(c @ c)
    return d2


def top_k_at_pivot(d2: np.ndarray, pivot: float, k: int) -> np.ndarray:
    """The tie rule: the k indices of d2 above a pivot, ascending.

    pivot must be the k-th largest value of d2.  Strictly greater values
    all enter; the remaining slots go to pivot-tied indices, lowest
    first, so the set is unique and deterministic.
    """
    far = d2 > pivot
    need = k - int(np.count_nonzero(far))
    far[np.flatnonzero(d2 == pivot)[:need]] = True
    return np.flatnonzero(far)


def top_k_farthest(ds: Dataset, center, k: int) -> tuple[np.ndarray, float]:
    """The k dataset points farthest from center.

    Returns (indices, pivot): exactly k row indices, ascending, whose
    distances are >= every excluded point's distance, and the k-th
    largest distance itself.  Pivot-distance ties go to lower indices.
    """
    if not (1 <= k <= ds.n):
        raise ValueError(f"k must be in [1, {ds.n}], got {k}")
    c = np.asarray(center, dtype=np.float64)
    sqn = np.einsum("ij,ij->i", ds.points, ds.points)
    d2 = expanded_sq_dists(ds.points, sqn, c)
    # element at sorted position n-k is the k-th largest
    pivot2 = np.partition(d2, ds.n - k)[ds.n - k]
    return top_k_at_pivot(d2, pivot2, k), float(np.sqrt(max(pivot2, 0.0)))


def k_smallest_distance(ds: Dataset, center, m: int) -> float:
    """Distance from center to its m-th nearest dataset point."""
    if not (1 <= m <= ds.n):
        raise ValueError(f"m must be in [1, {ds.n}], got {m}")
    c = np.asarray(center, dtype=np.float64)
    sqn = np.einsum("ij,ij->i", ds.points, ds.points)
    d2 = expanded_sq_dists(ds.points, sqn, c)
    val = np.partition(d2, m - 1)[m - 1]
    return float(np.sqrt(max(val, 0.0)))
