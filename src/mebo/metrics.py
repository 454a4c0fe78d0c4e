"""Precision, recall, and F1 over predicted vs true inlier index sets."""

from __future__ import annotations

import numpy as np

from .core import InvalidParamsError, as_int

__all__ = ["F1Result", "f1"]


class F1Result(tuple):
    """(precision, recall, f1) triple; unpacks like a plain tuple.

    empty_prediction is True when the predicted set was empty, in which
    case precision is undefined and reported as 0.
    """

    def __new__(cls, precision, recall, f1_value, empty_prediction=False):
        self = super().__new__(cls, (precision, recall, f1_value))
        self.empty_prediction = bool(empty_prediction)
        return self

    @property
    def precision(self):
        return self[0]

    @property
    def recall(self):
        return self[1]

    @property
    def f1(self):
        return self[2]


def _as_index_set(name: str, idx, n: int) -> np.ndarray:
    """idx as a sorted set of row indices in [0, n).  They must be
    integers in a sequence, as `mebo eval` demands of a result file:
    a lone integer, bools and floats are refused, not truncated."""
    a = np.asarray(idx)
    if a.size == 0:
        return np.empty(0, dtype=np.int64)
    if a.ndim == 0 or a.dtype.kind not in "iu" or (
            not isinstance(idx, np.ndarray)
            and any(isinstance(i, (bool, np.bool_)) for i in np.asarray(idx, dtype=object).flat)):
        raise InvalidParamsError(f"{name} indices must be integers in a sequence")
    a = np.unique(a.ravel())
    if a[0] < 0 or a[-1] >= n:
        raise InvalidParamsError(f"{name} indices must lie in [0, {n})")
    return a.astype(np.int64)


def f1(predicted_inliers, true_inliers, n: int) -> F1Result:
    """Inliers are the positive class.

    precision = |pred & true| / |pred|, recall = |pred & true| / |true|,
    f1 their harmonic mean (0 when both rates are 0).  An empty
    prediction yields 0 precision and sets the empty_prediction flag.
    Indices must lie in [0, n), n an integer.
    """
    n = as_int("n", n)
    pred = _as_index_set("predicted", predicted_inliers, n)
    true = _as_index_set("true", true_inliers, n)
    hits = np.intersect1d(pred, true, assume_unique=True).size
    empty = pred.size == 0
    precision = 0.0 if empty else hits / pred.size
    recall = 0.0 if true.size == 0 else hits / true.size
    if precision + recall == 0.0:
        score = 0.0
    else:
        score = 2.0 * precision * recall / (precision + recall)
    return F1Result(precision, recall, score, empty)
