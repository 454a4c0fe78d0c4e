"""Order statistics over point-to-center distances.

The distance of a point x to a center c is the direct squared distance
((x - c) ** 2).sum().  The k points farthest from c are the k largest
of these; at equal distance the lower index enters the far set.
split_far states that rule once.  The public ops below and the
tree-growth engine all split through it, for one center or for a
block of L centers at a time.

The direct form costs a subtraction per coordinate, so split_far first
orders the points by the expanded form |x|^2 - 2 x.c, which takes one
GEMM for a whole block of centers (expanded_sq_dists).  That block is
one per-row constant, |c|^2, short of the squared distance; a constant
orders no point before another, so no pass over the block adds it.  An
introselect (np.partition) finds each row's pivot p, its k-th largest
expanded value.  The expanded value plus |c|^2 differs from the direct
one by rounding alone.  For d coordinates that error is at most
a*(2|x - c|^2 + 3|c|^2), with a = (3d + 6) units in the last place,
since |x|^2 <= 2|x - c|^2 + 2|c|^2.  So a point whose expanded value is
more than 8a*(|p + |c|^2| + |c|^2) from p falls on the same side of the
split under both forms.  Only the points inside that band, almost
always the pivot alone, are placed by their direct distance.  The split
is thus the one the direct distances give, whatever the BLAS build, its
thread count or the number of centers in a block, and however far the data
lies from the origin.

For a block, split_far partitions a copy of a few rows at a time and
reads each row's largest value left of the pivot and smallest right of
it; these are the same whatever the order the partition leaves.  It then
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
    """|x|^2 - 2 x.c for every row x of X and every center c of a block,
    from one matrix product: the squared distance short of |c|^2.

    C is an L x d block; the result is L x n, written into out when it
    is given.  sqn must be einsum("ij,ij->i", X, X); callers that score
    many centers precompute it once.  Each row of the block lacks only
    its center's constant |c|^2, which orders no point before another,
    so the block gets no pass that adds it; split_far adds it to the
    pivot alone.  The product is taken with -2C, so the block gets no
    scaling pass either; -2 is a power of two, so that product is -2
    times C X^T bit for bit.
    """
    E = np.matmul(C * -2.0, X.T, out=out)
    E += sqn
    return E


def direct_sq_dists(X: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The direct squared distances ((X[rows] - c) ** 2).sum(axis=1)."""
    diff = X[rows]
    diff -= c
    return np.square(diff, out=diff).sum(axis=1)


# split_far partitions copies of a block's rows this many bytes at a
# time: one call per group of rows instead of per row, in a scratch that
# stays small next to the block
_SCRATCH_BYTES = 1 << 18


def split_far(X: np.ndarray, C: np.ndarray, E: np.ndarray, k: int) -> np.ndarray:
    """Split the points at each center's k farthest, under the tie rule.

    E holds |x|^2 - 2 x.c for the rows x of X and the centers c of C
    (L x n, from expanded_sq_dists).  It is overwritten with the split
    and returned: 1.0 at each center's n - k nearest points, 0.0 at its
    k farthest.  X and C must be within check_magnitude's limit, as every
    caller makes sure: then |x|^2 and |c|^2 are at most float max / 4n,
    so every entry of E, each pivot p, |c|^2 and the band's width are
    at most float max / n, and finite.
    """
    L, n = E.shape
    m = n - k
    step = max(1, _SCRATCH_BYTES // (8 * n))
    scratch = np.empty((min(step, L), n))
    # each row's pivot p, and the largest value left of it and the
    # smallest right of it once the row is partitioned at p
    p, left, right = np.empty(L), np.full(L, -np.inf), np.full(L, np.inf)
    for a in range(0, L, step):
        part = scratch[:min(step, L - a)]
        np.copyto(part, E[a:a + step])
        part.partition(m, axis=1)
        p[a:a + step] = part[:, m]
        if m > 0:
            left[a:a + step] = part[:, :m].max(axis=1)
        if k > 1:
            right[a:a + step] = part[:, m + 1:].min(axis=1)
    # the band's half width over |p + |c|^2| + |c|^2: 8a for a = (3d + 6)
    # ulps, p + |c|^2 being the pivot's expanded squared distance
    half = (12.0 * X.shape[1] + 24.0) * np.finfo(np.float64).eps
    cc = np.einsum("ij,ij->i", C, C)
    w = half * (np.abs(p + cc) + cc)
    lo, hi = p - w, p + w
    # where the pivot is alone in its band, the split is at the pivot;
    # the other rows are split again from a copy of their distances
    rows = np.flatnonzero(~((left < lo) & (right > hi)))
    banded = E[rows]
    np.less(E, p[:, None], out=E)
    for i, e in zip(rows, banded):
        far = e > hi[i]
        band = np.flatnonzero(~((e < lo[i]) | far))
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
    k = as_int("k", k, 1, ds.n)
    X = ds.points
    C = check_center(X, center)[None, :]
    E = expanded_sq_dists(X, np.einsum("ij,ij->i", X, X), C)
    far = np.flatnonzero(split_far(X, C, E, k)[0] == 0.0)
    return far, float(np.sqrt(direct_sq_dists(X, far, C[0]).min()))


def k_smallest_distance(ds: Dataset, center, m: int) -> float:
    """Distance from center to its m-th nearest dataset point."""
    m = as_int("m", m, 1, ds.n)
    # the m-th nearest is the (n - m + 1)-th farthest
    return top_k_farthest(ds, center, ds.n - m + 1)[1]
