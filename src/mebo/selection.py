"""Order statistics over point-to-center distances.

The distance of a point x to a center c is the direct squared distance
((x - c) ** 2).sum().  The k points farthest from c are the k largest
of these; at equal distance the lower index enters the far set.
split_far states that rule once.  The public ops below and the
tree-growth engine all split through it, for one center or for a
block of L centers at a time.

The direct form costs a subtraction per coordinate, so split_far first
orders the points by the expanded form |x|^2 - 2 x.c + |c|^2, which
takes one GEMM for a whole block of centers (expanded_sq_dists).  An
introselect (np.partition) finds each row's pivot p, its k-th largest
expanded value.  The expanded value differs from the direct one by
rounding alone.  For d coordinates that error is at most
a*(2|x - c|^2 + 3|c|^2), with a = (3d + 6) units in the last place,
since |x|^2 <= 2|x - c|^2 + 2|c|^2.  So a point whose expanded value is
more than 8a*(|p| + |c|^2) from p falls on the same side of the split
under both forms.  Only the points inside that band, almost always the
pivot alone, are placed by their direct distance.  The split is thus
the one the direct distances give, whatever the BLAS build, its thread
count or the number of centers in a block, and however far the data
lies from the origin.

For a block, split_far partitions one row at a time and reads the
largest value left of the pivot and the smallest right of it.  It then
tests every row's band at once, splits every row at its pivot with one
compare over the block, and splits again, from a copy of their
distances, the rare rows whose pivot is not alone in its band.  Two
measured alternatives were slower: a pivot bracketed from a sample of
each row (its boolean compress costs more than the partition it saves)
and partitioning at (m - 1, m, m + 1) instead of reading max and min.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Dataset, InvalidParamsError, as_int, as_reals

__all__ = ["top_k_farthest", "k_smallest_distance"]


def check_magnitude(X: np.ndarray, center: np.ndarray | None = None) -> None:
    """Refuse points, or a center, whose sums of squares could overflow.

    Every distance, inlier sum and score over n points in d dimensions
    is at most 4*n*max|x|^2 in size, and |x|^2 <= d*max|x_i|^2; a center
    within the same limit keeps every distance to it within it too.
    Only max() and min() are read, so the check makes no copy and cannot
    overflow itself.
    """
    n, d = X.shape
    limit = math.sqrt(np.finfo(np.float64).max / (4.0 * n * d))
    for what, A in (("coordinates", X), ("center coordinates", center)):
        if A is None:
            continue
        big = max(float(A.max()), -float(A.min()))
        if big > limit:
            raise InvalidParamsError(
                f"{what} must be at most {limit:.6g} in absolute value for "
                f"{n} points in {d} dimensions, or their sums of squares "
                f"overflow; got {big:.6g}")


def check_center(X: np.ndarray, center) -> np.ndarray:
    """center as a float64 vector of X's d coordinates, after refusing
    one of another shape, one that is not finite, and points or a center
    beyond check_magnitude's limit: any of these would give a far set
    and a pivot that mean nothing, or a numpy error or warning."""
    d = X.shape[1]
    c = as_reals("center", center)
    if c.shape != (d,):
        raise InvalidParamsError(f"center must have shape ({d},), got {c.shape}")
    if not np.isfinite(c).all():
        raise InvalidParamsError("center contains NaN or infinity")
    check_magnitude(X, c)
    return c


def expanded_sq_dists(X: np.ndarray, sqn: np.ndarray, C: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances |x|^2 - 2 x.c + |c|^2 of every row of X to a
    block of centers, from one matrix product.

    C is an L x d block; the result is L x n, written into out when it
    is given.  sqn must be einsum("ij,ij->i", X, X); callers that score
    many centers precompute it once.  The product is taken with -2C, so
    the L x n block gets no scaling pass; -2 is a power of two, so that
    product is -2 times C X^T bit for bit.  Values can round a few ulps
    below zero for points nearly coincident with a center.
    """
    E = np.matmul(C * -2.0, X.T, out=out)
    E += sqn
    E += np.einsum("ij,ij->i", C, C)[:, None]
    return E


def direct_sq_dists(X: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The direct squared distances ((X[rows] - c) ** 2).sum(axis=1)."""
    diff = X[rows]
    diff -= c
    return np.square(diff, out=diff).sum(axis=1)


def split_far(X: np.ndarray, C: np.ndarray, E: np.ndarray, k: int) -> np.ndarray:
    """Split the points at each center's k farthest, under the tie rule.

    E holds the expanded squared distances of the rows of X to the
    centers C (L x n, from expanded_sq_dists).  It is overwritten with
    the split and returned: 1.0 at each center's n - k nearest points,
    0.0 at its k farthest.
    """
    L, n = E.shape
    m = n - k
    scratch = np.empty(n)
    # each row's pivot p, and the largest value left of it and the
    # smallest right of it once the row is partitioned at p
    p, left, right = np.empty(L), np.full(L, -np.inf), np.full(L, np.inf)
    for i, e in enumerate(E):
        np.copyto(scratch, e)
        scratch.partition(m)
        p[i] = scratch[m]
        if m > 0:
            left[i] = scratch[:m].max()
        if k > 1:
            right[i] = scratch[m + 1:].min()
    # the band's half width over |p| + |c|^2: 8a for a = (3d + 6) ulps
    half = (12.0 * X.shape[1] + 24.0) * np.finfo(np.float64).eps
    w = half * (np.abs(p) + np.einsum("ij,ij->i", C, C))
    lo, hi = p - w, p + w
    wide = ~np.isfinite(w)
    lo[wide], hi[wide] = -np.inf, np.inf
    # where the pivot is alone in its band, the split is at the pivot;
    # the other rows are split again from a copy of their distances
    rows = np.flatnonzero(~((left < lo) & (right > hi)))
    banded = E[rows]
    np.less(E, p[:, None], out=E)
    for i, e in zip(rows, banded):
        far = e > hi[i]
        band = np.flatnonzero(~((e < lo[i]) | far))  # NaN from overflow too
        d2 = direct_sq_dists(X, band, C[i])
        # the tie rule: farthest first and, at equal distance, the lower
        # index first (a stable sort of the ascending band indices)
        take = band[np.argsort(-d2, kind="stable")[:k - np.count_nonzero(far)]]
        np.logical_not(far, out=E[i])
        E[i, take] = 0.0
    return E


def top_k_farthest(ds: Dataset, center, k: int) -> tuple[np.ndarray, float]:
    """The k dataset points farthest from center.

    Returns (indices, pivot): exactly k row indices, ascending, whose
    distances are >= every excluded point's distance, and the k-th
    largest distance itself.  Pivot-distance ties go to lower indices.
    """
    if not (1 <= as_int("k", k) <= ds.n):
        raise InvalidParamsError(f"k must be in [1, {ds.n}], got {k}")
    X = ds.points
    C = check_center(X, center)[None, :]
    E = expanded_sq_dists(X, np.einsum("ij,ij->i", X, X), C)
    far = np.flatnonzero(split_far(X, C, E, k)[0] == 0.0)
    return far, float(np.sqrt(direct_sq_dists(X, far, C[0]).min()))


def k_smallest_distance(ds: Dataset, center, m: int) -> float:
    """Distance from center to its m-th nearest dataset point."""
    if not (1 <= as_int("m", m) <= ds.n):
        raise InvalidParamsError(f"m must be in [1, {ds.n}], got {m}")
    # the m-th nearest is the (n - m + 1)-th farthest
    return top_k_farthest(ds, center, ds.n - m + 1)[1]
