"""Precision/recall/F1 arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mebo import InvalidParamsError, f1


def test_perfect():
    r = f1(np.arange(5), np.arange(5), 10)
    assert r == (1.0, 1.0, 1.0)


def test_symmetric_half_overlap():
    r = f1([0, 1], [1, 2], 10)
    assert r.precision == 0.5
    assert r.recall == 0.5
    assert r.f1 == 0.5


def test_two_thirds():
    # precision 0.5, recall 1.0
    r = f1([0, 1], [0], 10)
    assert r.precision == 0.5
    assert r.recall == 1.0
    assert r.f1 == pytest.approx(2.0 / 3.0)


def test_disjoint():
    r = f1([0, 1], [2, 3], 10)
    assert r == (0.0, 0.0, 0.0)


def test_empty_prediction():
    r = f1([], [0, 1], 10)
    assert r.precision == 0.0
    assert r.f1 == 0.0
    assert r.recall == 0.0


def test_empty_truth():
    r = f1([0], [], 10)
    assert r.recall == 0.0
    assert r.f1 == 0.0


def test_duplicates_collapse():
    assert f1([3, 3, 3], [3], 5) == (1.0, 1.0, 1.0)


def test_unpacking():
    p, r, v = f1([1], [1], 4)
    assert (p, r, v) == (1.0, 1.0, 1.0)


def test_range_validation():
    with pytest.raises(InvalidParamsError):
        f1([5], [0], 5)
    with pytest.raises(InvalidParamsError):
        f1([0], [-1], 5)


@pytest.mark.parametrize("bad", [[1.5], np.array([1.0]), ["a"], [2**70], [True],
                                 [1, True], np.array([True]), 1, np.int64(1),
                                 [[1], [2, 3]]], ids=repr)
def test_indices_must_be_integers(bad):
    # as `mebo eval` demands of a result file: nothing is truncated
    for args in ((bad, [1], 3), ([1], bad, 3)):
        with pytest.raises(InvalidParamsError, match="must be integers"):
            f1(*args)


@pytest.mark.parametrize("n", ["5", True, 5.0, None], ids=repr)
def test_n_must_be_an_integer(n):
    with pytest.raises(InvalidParamsError, match="n must be an integer"):
        f1([1], [1], n)


def test_n_of_any_integer_type():
    assert f1([1], [1], np.int64(5)) == f1([1], [1], 5) == (1.0, 1.0, 1.0)


def test_integer_arrays_of_any_width():
    for dt in (np.int8, np.uint16, np.int64, np.uint64):
        assert f1(np.array([1, 2], dtype=dt), [1], 3) == f1([1, 2], [1], 3)


@given(st.sets(st.integers(0, 30)), st.sets(st.integers(0, 30)))
def test_bounds_property(pred, true):
    r = f1(sorted(pred), sorted(true), 31)
    assert 0.0 <= r.f1 <= 1.0
    assert r.f1 <= max(r.precision, r.recall) + 1e-12
    if len(pred) == len(true):
        swapped = f1(sorted(true), sorted(pred), 31)
        assert r.f1 == pytest.approx(swapped.f1)
        assert r.precision == pytest.approx(swapped.recall)
