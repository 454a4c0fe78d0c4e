"""Synthetic generators: exact counts, determinism, geometry."""

import hashlib

import numpy as np
import pytest

from mebo import Dataset, InvalidParamsError, gen_highdim, gen_multiclass, gen_toy_2d


def test_toy2d_counts():
    ds, labels = gen_toy_2d(0)
    assert isinstance(ds, Dataset)
    assert ds.n == 10000 and ds.d == 2
    assert labels.shape == (10000,)
    assert int((labels == 1).sum()) == 6000
    assert int((labels == 0).sum()) == 4000


def test_toy2d_deterministic():
    a, la = gen_toy_2d(9)
    b, lb = gen_toy_2d(9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(la, lb)
    c, _ = gen_toy_2d(10)
    assert not np.array_equal(a.points, c.points)


def test_toy2d_geometry():
    ds, labels = gen_toy_2d(2)
    inl = ds.points[labels == 1]
    # inlier centroid concentrates near the origin
    assert np.abs(inl.mean(axis=0)).max() < 5.0 / np.sqrt(6000)
    assert np.abs(ds.points).max() <= 25.0  # box plus normal tails


def test_highdim_counts():
    ds, labels = gen_highdim(20000, 100, 0.3, seed=1)
    assert ds.n == 20000 and ds.d == 100
    assert int((labels == 1).sum()) == 14000
    assert int((labels == 0).sum()) == 6000


def test_highdim_centroid_bound():
    ds, labels = gen_highdim(4000, 10, 0.25, seed=3)
    inl = ds.points[labels == 1]
    bound = 5.0 / np.sqrt(4000 * 0.75)
    assert np.abs(inl.mean(axis=0)).max() < bound


def test_highdim_determinism_and_errors():
    a, _ = gen_highdim(500, 8, 0.2, seed=7)
    b, _ = gen_highdim(500, 8, 0.2, seed=7)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(InvalidParamsError):
        gen_highdim(100, 5, 0.0, seed=0)
    with pytest.raises(InvalidParamsError):
        gen_highdim(100, 5, 1.0, seed=0)
    with pytest.raises(InvalidParamsError):
        gen_highdim(100, 5, 1e-6, seed=0)  # rounds to zero outliers
    with pytest.raises(InvalidParamsError):
        gen_highdim(0, 5, 0.2, seed=0)


def test_multiclass_counts():
    ds, labels = gen_multiclass(10000, 20, (0.3, 0.3, 0.3), 0.1, seed=0)
    assert ds.n == 10000
    for lab in (1, 2, 3):
        assert int((labels == lab).sum()) == 3000
    assert int((labels == 0).sum()) == 1000


def test_multiclass_mean_separation():
    ds, labels = gen_multiclass(3000, 40, (0.25, 0.25, 0.25, 0.15), 0.1, seed=5)
    cents = [ds.points[labels == lab].mean(axis=0) for lab in (1, 2, 3, 4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(cents[i] - cents[j]) >= 10.0


def test_multiclass_validation():
    with pytest.raises(InvalidParamsError):
        gen_multiclass(100, 5, (0.5, 0.6), 0.1, seed=0)  # sums past 1
    with pytest.raises(InvalidParamsError):
        gen_multiclass(100, 5, (0.9,), 0.2, seed=0)
    with pytest.raises(InvalidParamsError):
        gen_multiclass(100, 5, (), 0.1, seed=0)
    with pytest.raises(InvalidParamsError):
        gen_multiclass(100, 5, (1.2, -0.2), 0.0, seed=0)
    with pytest.raises(InvalidParamsError, match="gamma must be in"):
        gen_multiclass(100, 5, (0.5,), 1.0, seed=0)


def test_multiclass_one_class_without_outliers():
    ds, labels = gen_multiclass(50, 3, (1.0,), 0.0, seed=0)
    assert ds.n == 50 and (labels == 1).all()


# counts and seeds must be integers and gamma and fractions real numbers,
# refused up front rather than by numpy deep inside a generator
BAD_GENERATOR_CALLS = {
    "highdim n=100.5": lambda: gen_highdim(100.5, 5, 0.2, seed=0),
    "highdim d=True": lambda: gen_highdim(100, True, 0.2, seed=0),
    "highdim gamma text": lambda: gen_highdim(100, 5, "0.1", seed=0),
    "highdim seed=1.5": lambda: gen_highdim(100, 5, 0.2, seed=1.5),
    "toy2d seed=-1": lambda: gen_toy_2d(-1),
    "toy2d seed=2**64": lambda: gen_toy_2d(2**64),
    "multiclass fraction None": lambda: gen_multiclass(100, 5, (None,), 0.1, seed=0),
    "multiclass n=100.0": lambda: gen_multiclass(100.0, 5, (0.9,), 0.1, seed=0),
}


@pytest.mark.parametrize("call", BAD_GENERATOR_CALLS.values(), ids=BAD_GENERATOR_CALLS.keys())
def test_generators_refuse_non_numbers(call):
    with pytest.raises(InvalidParamsError):
        call()


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), "0.5"], ids=repr)
def test_multiclass_fractions_must_be_a_sequence(bad):
    with pytest.raises(InvalidParamsError, match="must be a sequence"):
        gen_multiclass(100, 5, bad, 0.5, 0)


def test_multiclass_determinism():
    a, la = gen_multiclass(600, 12, (0.4, 0.4), 0.2, seed=21)
    b, lb = gen_multiclass(600, 12, (0.4, 0.4), 0.2, seed=21)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(la, lb)


def test_seed_0_digests():
    # the benchmark inputs, bit for bit: sha256[:16] of points and labels
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()[:16]

    cases = {
        "toy2d": (gen_toy_2d(0), "8b7043c735a8a2c8", "cd383ce8044cba29"),
        "highdim": (gen_highdim(20000, 100, 0.1, 0), "20ec052d7175822a", "032bf7465543be86"),
        "multiclass": (gen_multiclass(4500, 60, (0.3,) * 3, 0.1, 0),
                       "fea9339976a1b345", "d032ef3a338b098a"),
    }
    for name, ((ds, labels), points_digest, labels_digest) in cases.items():
        assert (digest(ds.points), digest(labels)) == (points_digest, labels_digest), name
