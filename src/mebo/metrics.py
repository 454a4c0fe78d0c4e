"""Precision, recall, and F1 over predicted vs true inlier index sets."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import InvalidParamsError, as_int

__all__ = ["F1Result", "f1"]


class F1Result(NamedTuple):
    """The precision, recall and F1 of one predicted inlier set."""

    precision: float
    recall: float
    f1: float


def as_index_set(name: str, idx, n: int) -> np.ndarray:
    """idx as a sorted set of row indices in [0, n).  They must be
    integers in a flat sequence, for f1 and for each inlier list `mebo
    eval` reads: a lone integer, nested lists, bools and floats are
    refused, not truncated."""
    refused = InvalidParamsError(f"{name} indices must be integers in a sequence")
    try:
        a = np.asarray(idx)
    except ValueError:  # sequences nested to uneven depths
        raise refused from None
    if a.ndim != 1:
        raise refused
    if a.size == 0:
        return np.empty(0, dtype=np.int64)
    if a.dtype.kind not in "iu" or (
            not isinstance(idx, np.ndarray)
            and any(isinstance(i, (bool, np.bool_)) for i in np.asarray(idx, dtype=object))):
        raise refused
    a = np.unique(a)
    if a[0] < 0 or a[-1] >= n:
        raise InvalidParamsError(f"{name} indices must lie in [0, {n})")
    return a.astype(np.int64)


def f1(predicted_inliers, true_inliers, n: int) -> F1Result:
    """Inliers are the positive class.

    precision = |pred & true| / |pred|, recall = |pred & true| / |true|,
    f1 their harmonic mean (0 when both rates are 0).  An empty
    prediction yields 0 precision.  Indices must lie in [0, n), n an
    integer >= 0.
    """
    n = as_int("n", n, 0)
    pred = as_index_set("predicted", predicted_inliers, n)
    true = as_index_set("true", true_inliers, n)
    hits = np.intersect1d(pred, true, assume_unique=True).size
    precision = 0.0 if pred.size == 0 else hits / pred.size
    recall = 0.0 if true.size == 0 else hits / true.size
    if precision + recall == 0.0:
        score = 0.0
    else:
        score = 2.0 * precision * recall / (precision + recall)
    return F1Result(precision, recall, score)
