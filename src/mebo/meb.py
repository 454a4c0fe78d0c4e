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

from .core import EmptySubsetError, as_int, as_reals

__all__ = ["approx_meb_center"]

# the kernel np.einsum runs when it is not asked to optimize, called
# without its Python wrapper: the same bits, about 1.5 us less per call.
# np.vecdot is as fast, but it sums in another order, so a near tie
# between two farthest points can go the other way.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


def approx_meb_center(points, iters: int) -> np.ndarray:
    """Approximate MEB center of a point subset after `iters` steps.

    Starts at the first point in the given order (deterministic) and
    applies c <- c + (q - c)/(t+1) with q the farthest point from c,
    ties broken by lowest row index.  Returns c_iters as a new array.
    """
    # a fit passes C-ordered float64 path points and an int, which the
    # conversions would return unchanged, so it pays only for the checks;
    # other input is copied to C order, as the row sums below round
    # differently over another layout
    pts = points
    if not (type(pts) is np.ndarray and pts.dtype == np.float64 and pts.flags.c_contiguous):
        pts = np.asarray(as_reals("points", pts), order="C")
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.size == 0:
        raise EmptySubsetError("need a nonempty 2-d array of points")
    if type(iters) is not int or iters < 1:
        iters = as_int("iters", iters, 1)
    c = pts[0]
    for t in range(1, iters):
        diff = pts - c
        # the step q - c is the farthest row of diff
        nxt = diff[_einsum("ij,ij->i", diff, diff).argmax()]
        nxt /= t + 1.0
        nxt += c
        c = nxt
    return c.copy() if iters == 1 else c
