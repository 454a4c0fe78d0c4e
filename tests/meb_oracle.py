"""Minimum enclosing ball oracles that tests compare the library against.

The library computes only the last center of the MEB recurrence
(mebo.approx_meb_center).  meb_iterates is a second, row-per-step
implementation of it: row t-1 must equal approx_meb_center(points, t)
bit for bit, and the convergence checks read the whole sequence.
exact_meb_oracle gives the exact ball of a tiny point set, the ground
truth of the convergence and coverage bounds.
"""

from itertools import combinations

import numpy as np

from mebo import Ball, EmptySubsetError


class InstanceTooLargeError(ValueError):
    """The exact oracle was asked for more than it can enumerate."""


def meb_iterates(points, iters: int) -> np.ndarray:
    """All centers c_1..c_iters of the recurrence, stacked row-wise:
    c_1 is the first point, c_{t+1} = c_t + (q - c_t)/(t+1) with q the
    point farthest from c_t, the lowest row index at a tie."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.empty((iters, pts.shape[1]))
    out[0] = pts[0]
    for t in range(1, iters):
        c = out[t - 1]
        diff = pts - c
        q = np.einsum("ij,ij->i", diff, diff).argmax()
        np.subtract(pts[q], c, out=out[t])
        out[t] /= t + 1.0
        out[t] += c
    return out


def _check_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptySubsetError("need a nonempty 2-d array of points")
    return pts


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
    enumeration is exponential.
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
