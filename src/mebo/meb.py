"""Minimum enclosing ball: fast approximate center plus an exact small-instance oracle.

The approximate center follows the classic farthest-point recurrence:
start at a fixed point, then repeatedly step toward the farthest point
with shrinking step size 1/(t+1).  After N steps the center is within
r/sqrt(N) of the true center, r being the exact radius.  A fit calls
approx_meb_center once per tree node, on the node's few path points,
so it keeps only the current center and allocates nothing per step
beyond the distances to it.

The exact oracle enumerates boundary subsets and is intentionally
limited to tiny instances; it exists so tests have ground truth.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import Ball, EmptySubsetError, InstanceTooLargeError, InvalidParamsError, as_int

__all__ = [
    "approx_meb_center",
    "enclosing_radius",
    "exact_meb_oracle",
]


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptySubsetError("need a nonempty 2-d array of points")
    return pts


def approx_meb_center(points, iters: int) -> np.ndarray:
    """Approximate MEB center of a point subset after `iters` steps.

    Starts at the first point in the given order (deterministic) and
    applies c <- c + (q - c)/(t+1) with q the farthest point from c,
    ties broken by lowest row index.  Returns c_iters as a new array.
    """
    pts = _check_points(points)
    if as_int("iters", iters) < 1:
        raise InvalidParamsError(f"iters must be >= 1, got {iters}")
    c = pts[0]
    for t in range(1, iters):
        diff = pts - c
        q = np.einsum("ij,ij->i", diff, diff).argmax()
        nxt = pts[q] - c
        nxt /= t + 1.0
        nxt += c
        c = nxt
    return c.copy() if iters == 1 else c


def enclosing_radius(points, center) -> float:
    """Max Euclidean distance from center to any of the points."""
    pts = _check_points(points)
    c = np.asarray(center, dtype=np.float64)
    diff = pts - c
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))


def exact_meb_oracle(points, limit: int = 14) -> Ball:
    """Exact minimum enclosing ball of a tiny point set.

    Enumerates every subset of size <= d+1 as a potential boundary set,
    solves its circumscribing-sphere system (least-squares style, so
    affinely dependent subsets do not blow up), and returns the smallest
    ball that covers all points.  The returned radius is always the
    full covering radius of the best center, so degenerate candidate
    subsets can only lose, never produce an undersized ball.

    Instances beyond `limit` points or 6 dimensions are refused; the
    enumeration is exponential and this exists for test-scale ground
    truth only.
    """
    pts = _check_points(points)
    n, d = pts.shape
    if n > limit or d > 6:
        raise InstanceTooLargeError(
            f"exact oracle limited to {limit} points and 6 dims, got n={n}, d={d}"
        )

    best_center = pts[0]
    best_radius = enclosing_radius(pts, best_center)
    for size in range(2, min(n, d + 1) + 1):
        idx = np.array(list(combinations(range(n), size)))
        base = pts[idx[:, 0]]                     # (S, d)
        rest = pts[idx[:, 1:]]                    # (S, size-1, d)
        A = rest - base[:, None, :]               # offsets from the first point
        # circumcenter solves (A A^T) y = g with center = base + y^T A,
        # g_j = |p_j - p_0|^2 / 2
        g = 0.5 * np.einsum("sjd,sjd->sj", A, A)
        G = np.einsum("sjd,skd->sjk", A, A)        # (S, size-1, size-1) Gram
        y = np.linalg.pinv(G) @ g[..., None]       # pinv tolerates degenerate subsets
        centers = base + np.einsum("sj,sjd->sd", y[..., 0], A)
        # candidate must be equidistant from its subset; reject the rest
        dc = pts[idx] - centers[:, None, :]
        rr = np.einsum("sjd,sjd->sj", dc, dc)
        spread = rr.max(axis=1) - rr.min(axis=1)
        scale = np.maximum(rr.max(axis=1), 1e-30)
        ok = spread <= 1e-9 * scale
        for s_i in np.flatnonzero(ok):
            r = enclosing_radius(pts, centers[s_i])
            if r < best_radius:
                best_radius = r
                best_center = centers[s_i]
    return Ball(center=np.array(best_center, dtype=np.float64), radius=best_radius)
