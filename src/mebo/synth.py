"""Synthetic datasets with ground-truth labels.

Geometry defaults, used by every generator: inlier clusters are
spherical normals with standard deviation 1, scattered-cluster means
sit at distance >= 10 from the inlier mean, and uniform noise fills a
box of side 40 centered on the inlier region.  Counts are exact.

Labels: 0 marks an outlier, j >= 1 marks inlier class j.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, InvalidParamsError, as_fractions, as_int, as_real, as_seed

__all__ = ["gen_toy_2d", "gen_highdim", "gen_multiclass"]

_BOX_HALF = 20.0


def _group_sizes(total: int, parts: int) -> np.ndarray:
    """Split total into parts whose sizes differ by at most 1, exactly."""
    bounds = np.round(np.linspace(0.0, total, parts + 1)).astype(np.int64)
    return np.diff(bounds)


def _checked(n, d, gamma, seed):
    """The shared arguments as ints n, d >= 1, a float gamma and a seed;
    anything else raises InvalidParamsError."""
    return as_int("n", n, 1), as_int("d", d, 1), as_real("gamma", gamma), as_seed(seed)


def _one_ball_with_outliers(seed: int, n_in: int, sizes, d: int):
    """n_in inliers from the unit normal at the origin, then outliers in
    four groups of the given sizes: three unit normal clusters at
    distances 12, 15 and 18 along random directions, and one uniform
    over the box.  Returns (Dataset, labels)."""
    rng = np.random.default_rng(seed)
    inl = rng.standard_normal((n_in, d))
    groups = []
    for size, dist in zip(sizes[:3], (12.0, 15.0, 18.0)):
        v = rng.standard_normal(d)
        mean = dist * (v / np.linalg.norm(v))
        groups.append(mean + rng.standard_normal((int(size), d)))
    groups.append(rng.uniform(-_BOX_HALF, _BOX_HALF, size=(int(sizes[3]), d)))
    pts = np.vstack([inl] + groups)
    labels = np.zeros(pts.shape[0], dtype=np.int64)
    labels[:n_in] = 1
    return Dataset(pts), labels


def gen_toy_2d(seed: int):
    """Plane instance of 10000 points at outlier ratio 0.4: 6000 inliers
    from the unit normal at the origin, and 4000 outliers in three normal
    clusters of 800, 1200 and 800 points away from it plus 1200 points
    uniform over the box.  Returns (Dataset, labels)."""
    return _one_ball_with_outliers(as_seed(seed), 6000, (800, 1200, 800, 1200), 2)


def gen_highdim(n: int, d: int, gamma: float, seed: int):
    """gen_toy_2d's layout in d dimensions, with (1-gamma)n inliers and
    gamma*n outliers in four groups whose sizes differ by at most one.
    Returns (Dataset, labels)."""
    n, d, gamma, seed = _checked(n, d, gamma, seed)
    if not (0.0 < gamma < 1.0):
        raise InvalidParamsError(f"gamma must be in (0, 1), got {gamma}")
    n_out = int(round(gamma * n))
    n_in = n - n_out
    if n_in < 1 or n_out < 1:
        raise InvalidParamsError(f"degenerate split: {n_in} inliers, {n_out} outliers")
    return _one_ball_with_outliers(seed, n_in, _group_sizes(n_out, 4), d)


def _class_mean(j: int, d: int) -> np.ndarray:
    # axis-aligned placement: pairwise distances >= 12 by construction,
    # independent of d and of the class count
    mean = np.zeros(d)
    sign = -1.0 if j % 2 else 1.0
    mean[j % d] = sign * 12.0 * (1 + j // d)
    return mean


def gen_multiclass(n: int, d: int, fractions, gamma: float, seed: int):
    """One spherical normal cluster per class plus uniform outliers.

    fractions and gamma must sum to 1; class sizes are exact.  Class
    means are axis aligned at pairwise distance >= 12 (10x the cluster
    standard deviation).  Returns (Dataset, labels) with labels in
    {0 (outlier), 1..C}.
    """
    fr = as_fractions("fractions", fractions)
    n, d, gamma, seed = _checked(n, d, gamma, seed)
    if not (0.0 <= gamma < 1.0):
        raise InvalidParamsError(f"gamma must be in [0, 1), got {gamma}")
    if abs(sum(fr) + gamma - 1.0) > 1e-9:
        raise InvalidParamsError(
            f"fractions plus gamma must equal 1, got {sum(fr) + gamma}")
    rng = np.random.default_rng(seed)
    bounds = np.round(np.cumsum((0.0,) + fr) * n).astype(np.int64)
    sizes = np.diff(bounds)
    n_out = n - int(sizes.sum())
    blocks = []
    labels = []
    for j, size in enumerate(sizes):
        blocks.append(_class_mean(j, d) + rng.standard_normal((int(size), d)))
        labels.append(np.full(int(size), j + 1, dtype=np.int64))
    blocks.append(rng.uniform(-_BOX_HALF, _BOX_HALF, size=(n_out, d)))
    labels.append(np.zeros(n_out, dtype=np.int64))
    return Dataset(np.vstack(blocks)), np.concatenate(labels)
