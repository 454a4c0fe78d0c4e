"""Greedy peeling for datasets with several inlier classes.

Fit one ball for the largest class, remove the points it covers, and
repeat on what remains.  Class fractions are caller supplied; classes
are peeled largest fraction first, equal fractions in the order given,
since a smaller class fitted first can take part of a larger one and
leave that one a mix.  Each class is reported, in the order given, as
the RecognitionResult of its stage's fit, with its inliers mapped back
to rows of the original dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Dataset,
    Params,
    RecognitionResult,
    SpecInfeasibleError,
    _ceil_snapped,
    as_fractions,
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
        object.__setattr__(self, "fractions", as_fractions("class fractions", self.fractions))


def peel(ds: Dataset, spec: ClassSpec, p: Params) -> list[RecognitionResult]:
    """Fit one ball per class, removing covered points between fits.

    For class j over the n_j remaining points, the requested inlier
    count is m_j = ceil(fraction_j * n) with n the original size; the
    stage's fit is recognize(sub, p, m=m_j), whose farthest-set size is
    exactly k = n_j - m_j, so 1 - m_j/n_j is honored without slack.
    Classes are fitted largest fraction first (a stable sort), and the
    first stage fits ds itself.  Returns one RecognitionResult per
    class, in the order of spec.fractions: the ball, score and
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
    fr = spec.fractions
    remaining = np.arange(n)
    out = [None] * len(fr)
    for j in sorted(range(len(fr)), key=lambda j: -fr[j]):
        n_j = remaining.shape[0]
        m_j = _ceil_snapped(fr[j] * n)
        if m_j > n_j:
            raise SpecInfeasibleError(
                f"class needs {m_j} points but only {n_j} remain")
        sub = ds if n_j == n else Dataset(ds.points[remaining])
        res = recognize(sub, p, m=m_j)
        out[j] = replace(res, inliers=remaining[res.inliers])
        remaining = np.delete(remaining, res.inliers)
    return out
