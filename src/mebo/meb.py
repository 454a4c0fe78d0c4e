"""Minimum enclosing ball: a fast approximate center.

The approximate center follows the classic farthest-point recurrence:
start at a fixed point, then repeatedly step toward the farthest point
with shrinking step size 1/(t+1).  After N steps the center is within
r/sqrt(N) of the true center, r being the exact radius.  A fit calls
approx_meb_center once per tree node, on the node's few path points,
so it keeps only the current center and allocates nothing per step
beyond the distances to it.
"""

from __future__ import annotations

import numpy as np

from .core import EmptySubsetError, InvalidParamsError, as_int, as_reals

__all__ = ["approx_meb_center"]


def approx_meb_center(points, iters: int) -> np.ndarray:
    """Approximate MEB center of a point subset after `iters` steps.

    Starts at the first point in the given order (deterministic) and
    applies c <- c + (q - c)/(t+1) with q the farthest point from c,
    ties broken by lowest row index.  Returns c_iters as a new array.
    """
    pts = as_reals("points", points)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise EmptySubsetError("need a nonempty 2-d array of points")
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
