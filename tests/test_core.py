"""Types, validation, and derived-parameter arithmetic."""

import copy
import dataclasses
import json
import math
import pickle
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mebo
from mebo import (
    Ball,
    Candidate,
    ClassSpec,
    Dataset,
    DegenerateDatasetError,
    InvalidParamsError,
    MeboError,
    Params,
    approx_meb_center,
    derive_params,
    f1,
    k_smallest_distance,
    recognize,
    score_candidate,
    top_k_farthest,
)


def test_derive_h_example():
    # h = ceil(2/epsilon) + 1
    p = Params(gamma=0.1, epsilon=0.5)
    assert derive_params(p, 100).h == 5


def test_derive_h_s_small_epsilon():
    # h = ceil(2/0.1)+1 = 21; s = ceil(3 * ln(21/0.1)) = ceil(16.04) = 17
    p = Params(gamma=0.1, epsilon=0.1, delta=0.5, mu=0.1)
    dp = derive_params(p, 1000)
    assert dp.h == 21
    assert dp.s == 17


def test_derive_k_m_example():
    p = Params(gamma=0.4, delta=0.1)
    dp = derive_params(p, 10000)
    assert dp.k == 4400
    assert dp.m == 5600


def test_derive_defaults_10000():
    dp = derive_params(Params(gamma=0.2), 10000)
    assert (dp.h, dp.k, dp.s, dp.m) == (4, 2300, 12, 7700)


def test_derive_is_pure():
    p = Params(gamma=0.3, epsilon=0.7, delta=0.2, mu=0.5)
    assert derive_params(p, 500) == derive_params(p, 500)


def test_meb_iter_count():
    assert Params(gamma=0.1).meb_iter_count == 2  # ceil(1/0.64)
    assert Params(gamma=0.1, epsilon=0.25).meb_iter_count == 16


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95),
       st.integers(10, 5000))
def test_m_plus_k_is_n(gamma, delta, mu, n):
    if (1 + delta) * gamma >= 1:
        return
    p = Params(gamma=gamma, delta=delta, mu=mu)
    try:
        dp = derive_params(p, n)
    except DegenerateDatasetError:
        return
    assert dp.m + dp.k == n
    assert dp.m >= 1
    assert dp.s >= 1 and dp.h >= 2


def test_h_nonincreasing_in_epsilon():
    hs = [derive_params(Params(gamma=0.1, epsilon=e), 100).h
          for e in (0.1, 0.2, 0.4, 0.8, 0.95)]
    assert hs == sorted(hs, reverse=True)


def test_s_nonincreasing_in_delta_and_mu():
    s_delta = [derive_params(Params(gamma=0.1, delta=d), 100).s
               for d in (0.05, 0.1, 0.3, 0.6)]
    assert s_delta == sorted(s_delta, reverse=True)
    s_mu = [derive_params(Params(gamma=0.1, mu=m), 100).s
            for m in (0.05, 0.2, 0.5, 0.9)]
    assert s_mu == sorted(s_mu, reverse=True)


def test_gamma_zero_gives_k_zero():
    dp = derive_params(Params(gamma=0.0), 50)
    assert dp.k == 0 and dp.m == 50


def test_k_exhausts_dataset():
    # k = ceil(1.15 * 0.8 * 5) = 5 >= n
    with pytest.raises(DegenerateDatasetError):
        derive_params(Params(gamma=0.8), 5)


def test_derive_given_inlier_count():
    p = Params(gamma=0.2)
    dp, own = derive_params(p, 1000, 600), derive_params(p, 1000)
    assert (dp.h, dp.s) == (own.h, own.s)
    assert (dp.k, dp.m) == (400, 600)
    # m = n needs no far set, even where the default k would leave no inliers
    assert derive_params(Params(gamma=0.8), 5, 5).k == 0


@pytest.mark.parametrize("n, m", [(10.5, None), (True, None), (10, 0), (10, 11),
                                  (10, 2.5), (10, True)])
def test_derive_refuses_bad_counts(n, m):
    with pytest.raises(InvalidParamsError):
        derive_params(Params(gamma=0.1), n, m)


def test_derive_refuses_empty_dataset():
    with pytest.raises(DegenerateDatasetError, match="need at least one point"):
        derive_params(Params(gamma=0.1), 0)


@pytest.mark.parametrize("kwargs", [
    dict(gamma=-0.1),
    dict(gamma=1.0),
    dict(gamma=0.1, epsilon=0.0),
    dict(gamma=0.1, epsilon=1.0),
    dict(gamma=0.1, delta=0.0),
    dict(gamma=0.1, delta=1.5),
    dict(gamma=0.1, mu=0.0),
    dict(gamma=0.1, mu=1.0),
    dict(gamma=0.9, delta=0.15),   # (1+delta)*gamma >= 1
    dict(gamma=0.1, forest_size=0),
    dict(gamma=0.1, sequential_rounds=-1),
    dict(gamma=0.1, seed=-1),
    # counts that numpy would truncate or fail on deep inside a fit
    dict(gamma=0.1, forest_size=2.5),
    dict(gamma=0.1, forest_size=True),
    dict(gamma=0.1, sequential_rounds=1.5),
    dict(gamma=0.1, sequential_rounds=False),
    dict(gamma=0.1, seed=1.5),
    dict(gamma=0.1, seed=True),
    # the real fields take real numbers only: no text, None, lists or bools
    dict(gamma="0.1"),
    dict(gamma=False),
    dict(gamma=0.1, epsilon=[0.5]),
    dict(gamma=0.1, delta=None),
    dict(gamma=0.1, mu=True),
    dict(gamma=0.1, mu=0.5 + 0j),
])
def test_params_validation(kwargs):
    with pytest.raises(InvalidParamsError):
        Params(**kwargs)


def test_params_accept_numpy_integers():
    p = Params(gamma=0.1, forest_size=np.int64(2), sequential_rounds=np.int32(0),
               seed=np.uint64(2**63))
    assert (p.forest_size, p.sequential_rounds, p.seed) == (2, 0, 2**63)
    # the checked values are kept: plain ints, which JSON can write
    assert [type(v) for v in (p.forest_size, p.sequential_rounds, p.seed)] == [int] * 3
    assert json.loads(json.dumps(dataclasses.asdict(p)))["seed"] == 2**63


def test_params_store_real_fields_as_floats():
    p = Params(gamma=0, epsilon=np.float32(0.5), delta=np.float64(0.25), mu=Fraction(1, 2))
    assert [type(v) for v in (p.gamma, p.epsilon, p.delta, p.mu)] == [float] * 4
    assert (p.gamma, p.epsilon, p.delta, p.mu) == (0.0, 0.5, 0.25, 0.5)


def test_errors_are_value_errors():
    # callers relying on ValueError semantics keep working
    assert issubclass(InvalidParamsError, ValueError)
    assert issubclass(InvalidParamsError, MeboError)
    assert issubclass(DegenerateDatasetError, MeboError)


def test_dataset_immutable():
    src = np.zeros((3, 2))
    ds = Dataset(src)
    src[0, 0] = 99.0
    assert ds.points[0, 0] == 0.0  # copied on construction
    with pytest.raises(ValueError):
        ds.points[0, 0] = 1.0
    with pytest.raises(AttributeError):
        ds.n = 5
    assert repr(ds) == "Dataset(n=3, d=2)"


def _same(a, b) -> bool:
    """a and b are of one type with equal fields, arrays bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, Dataset) or dataclasses.is_dataclass(a):
        names = Dataset.__slots__ if isinstance(a, Dataset) else [
            f.name for f in dataclasses.fields(a)]
        return all(_same(getattr(a, k), getattr(b, k)) for k in names)
    return a == b


_ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy, **{
    f"pickle{k}": lambda obj, k=k: pickle.loads(pickle.dumps(obj, protocol=k))
    for k in range(2, 6)}}
_RECORDS = ["Dataset", "Params", "DerivedParams", "Ball", "RecognitionResult",
            "Candidate", "ClassSpec", "F1Result"]


@pytest.mark.parametrize("trip", _ROUND_TRIPS)
@pytest.mark.parametrize("kind", _RECORDS)
def test_records_copy_and_pickle(kind, trip):
    ds = Dataset(np.random.default_rng(0).normal(size=(60, 3)))
    p = Params(gamma=0.2, forest_size=1, sequential_rounds=0, seed=0)
    res = recognize(ds, p)
    record = {
        "Dataset": ds, "Params": p, "DerivedParams": derive_params(p, ds.n),
        "Ball": res.ball, "RecognitionResult": res,
        "Candidate": Candidate(center=np.array([0.5, -1.0]), path=(3, 7), score=2.25),
        "ClassSpec": ClassSpec(fractions=(0.4, 0.4)), "F1Result": f1([0, 1], [1, 2], 4),
    }[kind]
    back = _ROUND_TRIPS[trip](record)
    assert _same(record, back)
    if kind == "Dataset":
        # rebuilt by the constructor: read-only, and it fits as the original
        assert not back.points.flags.writeable
        again = recognize(back, p)
        assert again.ball.center.tobytes() == res.ball.center.tobytes()
        assert np.array_equal(again.inliers, res.inliers)


@pytest.mark.parametrize("as_list", [False, True])
def test_dataset_converts_and_copies_in_one_pass(as_list):
    # input that is not float64 is converted straight into the copy the
    # Dataset keeps, so the points are never held twice during the call
    src = np.random.default_rng(0).integers(-50, 50, size=(2250, 60))
    if as_list:
        src = src.tolist()
    tracemalloc.start()
    try:
        ds = Dataset(src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.points.dtype == np.float64
    assert np.array_equal(ds.points, np.asarray(src))
    assert peak <= 1.25 * ds.points.nbytes


def test_dataset_shape_and_finiteness():
    with pytest.raises(InvalidParamsError):
        Dataset(np.zeros(4))
    with pytest.raises(InvalidParamsError):
        Dataset(np.zeros((0, 3)))
    with pytest.raises(InvalidParamsError):
        Dataset([[0.0, np.nan]])
    with pytest.raises(InvalidParamsError):
        Dataset([[np.inf, 1.0]])
    # finite, but its sums of squares would overflow: refused when made
    X = np.random.default_rng(0).normal(size=(50, 3))
    with pytest.raises(InvalidParamsError, match=r"at most 5\.47371e\+152 .* 50 points"):
        Dataset(X * 1e155)


def test_ball():
    b = Ball(center=[1.0, 0.0], radius=2)
    assert b.center.dtype == np.float64 and type(b.radius) is float
    with pytest.raises(InvalidParamsError):
        Ball(center=np.array([0.0]), radius=-1.0)
    with pytest.raises(InvalidParamsError):
        Ball(center=np.array([[0.0]]), radius=1.0)
    with pytest.raises(InvalidParamsError, match="finite"):
        Ball(center=[np.inf], radius=1.0)
    for radius in (np.inf, np.nan):
        with pytest.raises(InvalidParamsError, match=r"ball radius must be in \[0, inf\)"):
            Ball(center=[0.0], radius=radius)
    with pytest.raises(InvalidParamsError, match="nonempty"):
        Ball(center=[], radius=1.0)
    # what is not a real vector, or not a real number, is refused, not cast
    for center in ([1 + 2j], np.array([1 + 2j]), "ab", None):
        with pytest.raises(InvalidParamsError, match="ball center"):
            Ball(center=center, radius=1.0)
    for radius in (None, "x", True, 1 + 0j, np.array([1.0])):
        with pytest.raises(InvalidParamsError, match="ball radius"):
            Ball(center=[0.0], radius=radius)
    c = np.array([1.0, 2.0])
    assert not np.shares_memory(Ball(center=c, radius=np.float32(0.5)).center, c)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_one_rule_for_non_finite_coordinates(data, bad):
    # a NaN or an infinity anywhere in points, a center or a ball center
    # is refused by core.check_finite, with one wording
    X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
                             elements=st.floats(-1e100, 1e100)))
    n, d = X.shape
    ds = Dataset(X)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
    points, center = X.copy(), X[0].copy()
    points[i, j] = center[j] = bad
    calls = [("points", lambda: Dataset(points)),
             ("ball center", lambda: Ball(center=center, radius=1.0)),
             ("center", lambda: top_k_farthest(ds, center, 1)),
             ("center", lambda: k_smallest_distance(ds, center, 1)),
             ("center", lambda: score_candidate(ds, center, n))]
    calls += [("points", lambda form=form, iters=iters: approx_meb_center(form, iters))
              for form in (points, points.tolist()) for iters in (1, 2, 3)]
    for name, call in calls:
        # an infinite first point makes numpy warn in approx_meb_center's `pts - c`
        with np.errstate(invalid="ignore" if i == 0 else "warn"), \
                pytest.raises(InvalidParamsError) as exc:
            call()
        assert str(exc.value) == f"{name} must be finite, got NaN or infinity"


def test_s_formula_value():
    # s = ceil((1 + 1/delta) * ln(h/mu)) pinned against direct evaluation
    p = Params(gamma=0.2, epsilon=0.8, delta=0.15, mu=0.9)
    dp = derive_params(p, 1000)
    expect = math.ceil((1 + 1 / 0.15) * math.log(4 / 0.9))
    assert dp.s == expect == 12


def test_readme_library_section_names_every_export():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"\b\w+\b", library))
    assert [name for name in mebo.__all__ if name not in named] == []
