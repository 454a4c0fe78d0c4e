"""Distance order statistics against a full-sort oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mebo import (
    Dataset,
    InvalidParamsError,
    Params,
    approx_meb_center,
    derive_params,
    f1,
    gen_highdim,
    gen_multiclass,
    grow_tree,
    k_smallest_distance,
    score_candidate,
    top_k_farthest,
)


def sort_oracle(X, c, k):
    """Top-k farthest by full sort: farthest first, pivot ties by lowest
    index.  Returns (ascending indices, pivot distance)."""
    d2 = ((X - np.asarray(c, dtype=float)) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(d2)), -d2))
    top = np.sort(order[:k])
    return top, float(np.sqrt(d2[order[k - 1]]))


def test_line_example():
    ds = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]))
    idx, pivot = top_k_farthest(ds, [0.0], 2)
    assert np.array_equal(idx, [2, 3])
    assert pivot == pytest.approx(2.0)


def test_k_equals_n():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    ds = Dataset(X)
    idx, pivot = top_k_farthest(ds, np.zeros(3), 10)
    assert np.array_equal(idx, np.arange(10))
    dmin = np.sqrt(((X) ** 2).sum(axis=1).min())
    assert pivot == pytest.approx(dmin)


def test_matches_sort_oracle_large():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(2000, 50))
    ds = Dataset(X)
    for k in (1, 7, 500, 1999):
        c = rng.normal(size=50)
        idx, pivot = top_k_farthest(ds, c, k)
        oidx, opivot = sort_oracle(X, c, k)
        assert np.array_equal(idx, oidx)
        assert pivot == pytest.approx(opivot, rel=1e-12)


def test_matches_sort_oracle_on_shifted_data():
    # 1e7 from the origin the expanded form |x|^2 - 2x.c + |c|^2 rounds
    # by about 0.03, more than the gaps between distances near the pivot;
    # the split and the pivot must still be those of the direct form
    for seed in range(200):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 3)) + 1e7
        c = X.mean(axis=0) + 0.1 * rng.normal(size=3)
        idx, pivot = top_k_farthest(Dataset(X), c, 30)
        oidx, opivot = sort_oracle(X, c, 30)
        assert np.array_equal(idx, oidx)
        assert pivot == opivot


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40], ids=["2^-40", "1", "2^40"])
def test_matches_sort_oracle_where_the_center_norm_dominates(scale):
    # 1e6 from the origin |c|^2 is about 1e12 times the pivot distance, so
    # the band around the pivot is sized by p + |c|^2, the pivot's expanded
    # squared distance; the scales are powers of two, so the grid's exact
    # ties stay exact
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        if seed % 2:
            X = (rng.normal(size=(200, d)) + 1e6) * scale
            c = X.mean(axis=0) + 0.1 * scale * rng.normal(size=d)
        else:
            X = (rng.integers(-3, 4, size=(200, d)) + 1e6) * scale
            c = X[seed] if seed % 4 else (np.full(d, 1e6) + 0.5) * scale
        for k in (1, 30, 199):
            idx, pivot = top_k_farthest(Dataset(X), c, k)
            oidx, opivot = sort_oracle(X, c, k)
            assert np.array_equal(idx, oidx)
            assert pivot == opivot


def test_tie_rule_lowest_index_first():
    # four points at equal distance, one farther, one nearer
    X = np.array([[2.0], [1.0], [-1.0], [1.0], [-1.0], [0.5]])
    ds = Dataset(X)
    idx, pivot = top_k_farthest(ds, [0.0], 3)
    # distances: 2, 1, 1, 1, 1, .5 ; k=3 takes index 0 then ties 1, 2
    assert np.array_equal(idx, [0, 1, 2])
    assert pivot == pytest.approx(1.0)
    # a far point just past the pivot, inside its rounding band, and every
    # near point below the band: the split at the pivot is the sort's
    X = np.array([[1.0 + 2.0**-50], [0.5], [1.0], [0.25]])
    idx, pivot = top_k_farthest(Dataset(X), [0.0], 2)
    oidx, opivot = sort_oracle(X, [0.0], 2)
    assert np.array_equal(idx, oidx)
    assert pivot == opivot == 1.0


def test_all_identical_points():
    ds = Dataset(np.ones((6, 2)))
    idx, pivot = top_k_farthest(ds, [0.0, 0.0], 4)
    assert np.array_equal(idx, [0, 1, 2, 3])
    assert pivot == pytest.approx(np.sqrt(2.0))


def test_partition_property_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        d = int(rng.integers(1, 6))
        X = rng.integers(-4, 5, size=(n, d)).astype(float)  # many exact ties
        ds = Dataset(X)
        k = int(rng.integers(1, n + 1))
        c = rng.integers(-4, 5, size=d).astype(float)
        idx, _ = top_k_farthest(ds, c, k)
        assert idx.shape[0] == k
        assert np.array_equal(idx, np.unique(idx))
        d2 = ((X - c) ** 2).sum(axis=1)
        outside = np.setdiff1d(np.arange(n), idx)
        if outside.size:
            assert d2[idx].min() >= d2[outside].max() - 1e-12
            # excluded pivot-tied indices must all exceed included ones
            pv = d2[idx].min()
            tied_in = idx[d2[idx] == pv]
            tied_out = outside[d2[outside] == pv]
            if tied_out.size:
                assert tied_in.max() < tied_out.min()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=60), st.data())
def test_sort_oracle_agreement_property(vals, data):
    X = np.array(vals, dtype=float)[:, None]
    ds = Dataset(X)
    k = data.draw(st.integers(1, len(vals)))
    c = float(data.draw(st.integers(-9, 9)))
    idx, pivot = top_k_farthest(ds, [c], k)
    oidx, opivot = sort_oracle(X, [c], k)
    assert np.array_equal(idx, oidx)
    assert pivot == pytest.approx(opivot, abs=1e-12)


def test_k_out_of_range():
    ds = Dataset(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        top_k_farthest(ds, [0.0], 0)
    with pytest.raises(ValueError):
        top_k_farthest(ds, [0.0], 4)
    with pytest.raises(ValueError):
        k_smallest_distance(ds, [0.0], 0)


def test_k_smallest_distance():
    X = np.array([[0.0], [3.0], [1.0], [7.0]])
    ds = Dataset(X)
    # distances from 0: 0, 3, 1, 7 sorted 0, 1, 3, 7
    for m, want in ((1, 0.0), (2, 1.0), (3, 3.0), (4, 7.0)):
        assert k_smallest_distance(ds, [0.0], m) == pytest.approx(want)
    rng = np.random.default_rng(4)
    Y = rng.normal(size=(100, 3))
    dsy = Dataset(Y)
    c = rng.normal(size=3)
    ds_sorted = np.sort(np.linalg.norm(Y - c, axis=1))
    for m in (1, 10, 99, 100):
        assert k_smallest_distance(dsy, c, m) == pytest.approx(ds_sorted[m - 1], rel=1e-12)


BAD_CENTERS = {
    "short": [0.0],
    "long": [0.0, 0.0, 0.0],
    "matrix": [[0.0, 0.0]],
    "ragged": [[0.0], [0.0, 0.0]],
    "not numbers": ["a", 0.0],
    "complex": [1 + 2j, 0.0],
    "complex array": np.array([1 + 2j, 0.0]),
    "mapping": {"x": 0.0},
    "nan": [np.nan, 0.0],
    "inf": [0.0, -np.inf],
    "beyond the overflow limit": [1e300, 0.0],
}
CENTER_OPS = {
    "top_k_farthest": lambda ds, c: top_k_farthest(ds, c, 3),
    "k_smallest_distance": lambda ds, c: k_smallest_distance(ds, c, 3),
    "score_candidate": lambda ds, c: score_candidate(ds, c, 5),
    "score_candidate m=n": lambda ds, c: score_candidate(ds, c, 20),
}
# arrays from outside the library, read through one conversion rule
UNREADABLE = {
    "complex": [[1 + 2j, 0.0]],
    # numpy would keep the real part, with only a ComplexWarning
    "complex array": np.array([[1 + 2j, 0.0]]),
    "text": [["a", 1.0]],
    "ragged": [[0.0], [0.0, 0.0]],
    "mapping": {"x": 0.0},
}
N = 20  # points in the dataset _refuses calls with


def _count_calls(name, call, lo, hi=None, real=2.0):
    """call(ds, v) for v a bool, a float, and the integers just outside
    the count's range [lo, hi], hi being N, N - 1 or unbounded."""
    bad = {"=True": True, f"={real!r}": real, f"={lo - 1}": lo - 1}
    if hi is not None:
        bad[">n" if hi == N else "=n"] = hi + 1
    return {name + key: lambda ds, v=v: call(ds, v) for key, v in bad.items()}


BAD_CALLS = {
    **{f"Dataset {name}": lambda ds, a=a: Dataset(a) for name, a in UNREADABLE.items()},
    **{f"approx_meb_center {name}": lambda ds, a=a: approx_meb_center(a, 2)
       for name, a in UNREADABLE.items()},
    # every count an entry point takes: a float or a bool is refused, not
    # truncated, and a value out of range is refused, not clipped
    **_count_calls("top_k_farthest k", lambda ds, v: top_k_farthest(ds, [0.0, 0.0], v), 1, N),
    **_count_calls("k_smallest_distance m",
                   lambda ds, v: k_smallest_distance(ds, [0.0, 0.0], v), 1, N, real=3.0),
    **_count_calls("score_candidate m",
                   lambda ds, v: score_candidate(ds, [0.0, 0.0], v), 1, N, real=5.0),
    **_count_calls("grow_tree root_index",
                   lambda ds, v: grow_tree(ds, Params(gamma=0.1), v), 0, N - 1, real=1.0),
    **_count_calls("derive_params m", lambda ds, v: derive_params(Params(gamma=0.1), N, v), 1, N),
    **_count_calls("approx_meb_center iters", lambda ds, v: approx_meb_center(ds.points, v), 1),
    **_count_calls("f1 n", lambda ds, v: f1([], [], v), 0),
    **_count_calls("Params forest_size", lambda ds, v: Params(gamma=0.1, forest_size=v), 1),
    **_count_calls("Params sequential_rounds",
                   lambda ds, v: Params(gamma=0.1, sequential_rounds=v), 0),
    **_count_calls("gen_highdim n", lambda ds, v: gen_highdim(v, 2, 0.2, 0), 1),
    **_count_calls("gen_multiclass d", lambda ds, v: gen_multiclass(N, v, (0.8,), 0.2, 0), 1),
}


def _refuses(call):
    """call raises InvalidParamsError, and no numpy warning comes first."""
    ds = Dataset(np.random.default_rng(0).normal(size=(N, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParamsError):
            call(ds)


@pytest.mark.parametrize("center", BAD_CENTERS.values(), ids=BAD_CENTERS.keys())
@pytest.mark.parametrize("op", CENTER_OPS.values(), ids=CENTER_OPS.keys())
def test_bad_center_refused(op, center):
    _refuses(lambda ds: op(ds, center))


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_bad_count_refused(call):
    _refuses(call)


def test_count_refusal_wording():
    # one wording for every count, from core.as_int
    ds = Dataset(np.zeros((N, 2)))
    for call, message in [
            (lambda: top_k_farthest(ds, [0.0, 0.0], 21), "k must be in [1, 20], got 21"),
            (lambda: grow_tree(ds, Params(gamma=0.1), -1), "root_index must be in [0, 19], got -1"),
            (lambda: approx_meb_center(ds.points, 0), "iters must be >= 1, got 0"),
            (lambda: f1([], [], -5), "n must be >= 0, got -5"),
            (lambda: score_candidate(ds, [0.0, 0.0], True), "m must be an integer, got True")]:
        with pytest.raises(InvalidParamsError) as exc:
            call()
        assert str(exc.value) == message
