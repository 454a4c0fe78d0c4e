"""Order statistics over point-to-center distances.

The distance of a point x to a center c is the direct squared distance
((x - c) ** 2).sum().  The k points farthest from c are the k largest
of these; at equal distance the lower index enters the far set.
split_far states that rule once.  The public ops below and the
tree-growth engine all split through it, for one center or for a
block of L centers at a time.

The direct form costs a subtraction per coordinate, so split_far first
orders the points by the expanded form |x|^2 - 2 x.c + |c|^2, whose
first two terms take one GEMM for a whole block of centers
(expanded_sq_dists).  The two forms differ by rounding alone, and
split_far bounds that difference: a point more than a band's width from
a row's pivot falls on the same side under both forms, and where a near
point lies inside the band, almost never, the band's points are placed
by their direct distance.  The split is thus the one the direct
distances give, whatever the BLAS build, its thread count or the number
of centers in a block, and however far the data lies from the origin
within the limit a Dataset holds its points to.  Measured alternatives
that were slower or gained nothing: a pivot bracketed from a sample of
each row (its boolean compress costs more than the partition it saves),
partitioning at (m - 1, m, m + 1) (4 times slower than at m plus a max
and a min), and an order-preserving int64 transform of the expanded
values without the |c|^2 add.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, as_int, check_center

__all__ = ["top_k_farthest", "k_smallest_distance"]


def expanded_sq_dists(X: np.ndarray, sqn: np.ndarray, C: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """|x|^2 - 2 x.c for every row x of X and every center c of a block,
    from one matrix product: the squared distance short of |c|^2.

    C is an L x d block; the result is L x n, written into out when it
    is given.  sqn must be einsum("ij,ij->i", X, X); callers that score
    many centers precompute it once.  split_far adds each row's |c|^2
    in the scratch it partitions.  The product is taken with -2C, so
    the block gets no scaling pass; -2 is a power of two, so that
    product is -2 times C X^T bit for bit.
    """
    E = np.matmul(C * -2.0, X.T, out=out)
    E += sqn
    return E


def direct_sq_dists(X: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The direct squared distances ((X[rows] - c) ** 2).sum(axis=1)."""
    diff = X[rows]
    diff -= c
    return np.square(diff, out=diff).sum(axis=1)


# split_far partitions a block's rows this many bytes at a time: one
# call per group of rows instead of per row, in a scratch that stays
# small next to the block
_SCRATCH_BYTES = 1 << 18


def split_far(X: np.ndarray, C: np.ndarray, E: np.ndarray, k: int) -> np.ndarray:
    """Split the points at each center's k farthest, under the tie rule.

    E holds |x|^2 - 2 x.c for the rows x of X and the centers c of C
    (L x n, from expanded_sq_dists).  It is overwritten with the split
    and returned: 1.0 at each center's n - k nearest points, 0.0 at its
    k farthest.  X (a Dataset's points) and C (centers check_center
    passed, or MEB centers, which lie in X's convex hull) are within
    core.check_limit's bound: then |x|^2 and |c|^2 are at most float
    max / 4n, so every value below is at most float max / n, and finite.

    A scratch of a few rows at a time gets S = E + |c|^2, the expanded
    squared distance, and its int64 view is partitioned: the bits of a
    double >= 0 order as the double does, and integers compare faster.
    S rounds at most a few units below zero, so that partition is the
    doubles' unless the pivot p has its sign bit set, and such a row is
    partitioned again as doubles.  The largest value left of p is the
    same whatever order the partition leaves.

    The bound, to first order in u = 2^-53, with D = |x - c|^2, N = |x|^2
    and K = |c|^2, for sums of d terms in any order: |x|^2 is off by
    d u N, the GEMM's x.c (times -2, exactly) by 2d u |x||c|, its add to
    |x|^2 by u (N + 2|x||c|), K by d u K, the add of K by u D, and the
    direct distance by (d + 2) u D.  As 2|x||c| <= N + K and
    N <= 2D + 2K, S and the direct distance differ by at most
    (5d + 6) u D + (6d + 3.5) u K.  a (2D + 3K) with a = (3d + 6) u still
    covers that for every d, so a need not become (3d + 7) u: the add of
    K takes one of the D term's spare units.  So a point whose S is more
    than w = 8a (|p| + K) from p is on the same side of p under both
    forms.  Where every point left of p lies below that band, the split
    at p is the direct one (the band above p holds far points only), and
    E is split at t = (p - K) - 4u (|p| + K) in one compare: E + K is
    within u|S| of S and t within 2u (|p| + K) of its exact value, so a
    far point (S >= p) has E >= p - K - u|p| > t, and a near point
    (S < p - w, w >= 72u (|p| + K)) has E < p - K - w + 2u|p| < t.  The
    other rows, rare, place the points of their band by direct distance.
    """
    L, n = E.shape
    m = n - k
    cc = np.einsum("ij,ij->i", C, C)
    step = max(1, _SCRATCH_BYTES // (8 * n))
    scratch = np.empty((min(step, L), n))
    # each row's pivot p, and the largest value left of it once the row
    # is partitioned at p, both in squared distance
    p, left = np.empty(L), np.full(L, -np.inf)
    for a in range(0, L, step):
        part = scratch[:min(step, L - a)]
        np.add(E[a:a + step], cc[a:a + step, None], out=part)
        part.view(np.int64).partition(m, axis=1)
        for r in np.flatnonzero(np.signbit(part[:, m])):
            part[r].partition(m)
        p[a:a + step] = part[:, m]
        if m > 0:
            left[a:a + step] = part[:, :m].max(axis=1)
    # the band's half width w over |p| + |c|^2: 8a for a = (3d + 6) u
    eps = np.finfo(np.float64).eps
    w = (12.0 * X.shape[1] + 24.0) * eps * (np.abs(p) + cc)
    lo, hi = p - w, p + w
    # where no near point is in its band, E is split at t; the other rows
    # are split again from a copy of their squared distances
    rows = np.flatnonzero(left >= lo)
    banded = E[rows] + cc[rows, None]
    np.less(E, ((p - cc) - 2.0 * eps * (np.abs(p) + cc))[:, None], out=E)
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
    C = check_center(ds, center)[None, :]
    E = expanded_sq_dists(X, np.einsum("ij,ij->i", X, X), C)
    far = np.flatnonzero(split_far(X, C, E, k)[0] == 0.0)
    return far, float(np.sqrt(direct_sq_dists(X, far, C[0]).min()))


def k_smallest_distance(ds: Dataset, center, m: int) -> float:
    """Distance from center to its m-th nearest dataset point."""
    m = as_int("m", m, 1, ds.n)
    # the m-th nearest is the (n - m + 1)-th farthest
    return top_k_farthest(ds, center, ds.n - m + 1)[1]
