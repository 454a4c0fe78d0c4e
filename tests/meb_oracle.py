"""Every iterate of the MEB center recurrence, kept in one matrix.

The library computes only the last center (mebo.approx_meb_center);
tests use this second, row-per-step implementation as an oracle: row
t-1 must equal approx_meb_center(points, t) bit for bit, and the
convergence checks read the whole sequence.
"""

import numpy as np


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
