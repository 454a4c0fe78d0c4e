"""Greedy peeling for datasets with several inlier classes.

Fit one ball for the largest-priority class, remove the points it
covers, and repeat on what remains.  Class fractions are caller
supplied; classes are peeled in the order given.  Each class is
reported as the RecognitionResult of its stage's fit, with its inliers
mapped back to rows of the original dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    InvalidParamsError,
    Params,
    RecognitionResult,
    SpecInfeasibleError,
    _ceil_snapped,
    as_real,
    derive_params,
)
from .recognition import recognize

__all__ = ["ClassSpec", "peel"]


@dataclass(frozen=True)
class ClassSpec:
    """Per-class inlier fractions; together with the outlier ratio they
    account for the whole dataset (sum + gamma <= 1 up to tolerance)."""

    fractions: tuple

    def __post_init__(self):
        fr = tuple(as_real("class fractions", f) for f in self.fractions)
        if len(fr) < 1:
            raise InvalidParamsError("need at least one class fraction")
        for f in fr:
            if not (0.0 < f <= 1.0) or not math.isfinite(f):
                raise InvalidParamsError(f"class fractions must be in (0, 1], got {f}")
        object.__setattr__(self, "fractions", fr)


def peel(ds: Dataset, spec: ClassSpec, p: Params) -> list[RecognitionResult]:
    """Fit one ball per class, removing covered points between fits.

    For class j over the n_j remaining points, the requested inlier
    count is m_j = ceil(fraction_j * n) with n the original size; the
    stage's fit is recognize(sub, p, m=m_j), whose farthest-set size is
    exactly k = n_j - m_j, so 1 - m_j/n_j is honored without slack.
    Returns one RecognitionResult per class: the ball, score and
    candidates_evaluated of that stage's fit, and its inliers as
    ascending row indices of the original dataset, pairwise disjoint
    across classes.
    """
    total = sum(spec.fractions) + p.gamma
    if total > 1.0 + 1e-9:
        raise SpecInfeasibleError(
            f"class fractions plus outlier ratio exceed 1: {total}")
    n = ds.n
    derive_params(p, n)  # p must leave inliers on the whole dataset too
    remaining = np.arange(n)
    out = []
    for frac in spec.fractions:
        n_j = remaining.shape[0]
        m_j = _ceil_snapped(frac * n)
        if m_j > n_j:
            raise SpecInfeasibleError(
                f"class needs {m_j} points but only {n_j} remain")
        sub = Dataset(ds.points[remaining])
        res = recognize(sub, p, m=m_j)
        out.append(replace(res, inliers=remaining[res.inliers]))
        keep = np.ones(n_j, dtype=bool)
        keep[res.inliers] = False
        remaining = remaining[keep]
    return out
