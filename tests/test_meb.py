"""Center recurrence, its convergence bound, and the exact oracle.

The oracle is the test bed for everything else here, so its own checks
come first and use only hand-derivable geometry.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mebo.meb
from mebo import EmptySubsetError, InvalidParamsError, approx_meb_center
from meb_oracle import (
    InstanceTooLargeError,
    enclosing_radius,
    exact_meb_oracle,
    meb_iterates,
)


# ------------------------------------------------------------- oracle


def test_oracle_symmetric_pair():
    b = exact_meb_oracle(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(b.center, [0.0, 0.0], atol=1e-12)
    assert b.radius == pytest.approx(1.0, abs=1e-12)


def test_oracle_three_points():
    # circle through (0,0) and (2,0) centered at (1,0); (1,1) lies on it
    b = exact_meb_oracle(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(b.center, [1.0, 0.0], atol=1e-9)
    assert b.radius == pytest.approx(1.0, abs=1e-9)


def test_oracle_single_point():
    b = exact_meb_oracle(np.array([[3.0, 4.0, 5.0]]))
    assert b.radius == 0.0
    assert np.allclose(b.center, [3.0, 4.0, 5.0])


def test_oracle_equilateral_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    b = exact_meb_oracle(pts)
    assert b.radius == pytest.approx(1 / np.sqrt(3), abs=1e-9)
    assert np.allclose(b.center, [0.5, np.sqrt(3) / 6], atol=1e-9)


def test_oracle_collinear():
    b = exact_meb_oracle(np.array([[0.0], [1.0], [10.0]]))
    assert b.radius == pytest.approx(5.0, abs=1e-9)
    assert b.center[0] == pytest.approx(5.0, abs=1e-9)


def test_oracle_duplicates():
    pts = np.array([[1.0, 1.0]] * 5 + [[3.0, 1.0]] * 3)
    b = exact_meb_oracle(pts)
    assert b.radius == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(b.center, [2.0, 1.0], atol=1e-9)


def test_oracle_covers_and_is_minimal():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        b = exact_meb_oracle(pts)
        cover = enclosing_radius(pts, b.center)
        assert cover <= b.radius + 1e-9 * max(1.0, b.radius)
        # no perturbed center does better; crude local optimality probe
        for _ in range(8):
            z = b.center + rng.normal(size=d) * 0.05 * (b.radius + 0.1)
            assert enclosing_radius(pts, z) >= b.radius - 1e-9


def test_oracle_limits():
    with pytest.raises(InstanceTooLargeError):
        exact_meb_oracle(np.zeros((15, 2)))
    with pytest.raises(InstanceTooLargeError):
        exact_meb_oracle(np.zeros((3, 7)))
    exact_meb_oracle(np.zeros((20, 2)), limit=20)  # explicit limit admits more
    with pytest.raises(EmptySubsetError):
        exact_meb_oracle(np.zeros((0, 2)))


# --------------------------------------------------------- recurrence


def test_recurrence_hand_trace():
    # c_1 = (-1,0); farthest is (1,0) so c_2 = midpoint (0,0);
    # then both points tie at distance 1, lowest index wins,
    # c_3 = (0,0) + ((-1,0) - (0,0))/3 = (-1/3, 0)
    pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
    it = meb_iterates(pts, 3)
    assert np.array_equal(it[0], [-1.0, 0.0])
    assert np.array_equal(it[1], [0.0, 0.0])
    assert np.allclose(it[2], [-1.0 / 3.0, 0.0], atol=1e-15)


def test_iterates_match_single_center():
    rng = np.random.default_rng(5)
    sets = (
        rng.normal(size=(9, 3)),
        np.array([[-1.0, 0.0], [1.0, 0.0]]),  # both points tie from step 2 on
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.repeat(rng.normal(size=(4, 3)), 3, axis=0),  # every point three times
        rng.integers(-2, 3, size=(12, 2)).astype(float),  # grid ties and repeats
        np.ones((5, 3)),
    )
    for pts in sets:
        it = meb_iterates(pts, 12)
        for t in (*range(1, 9), 12):
            c = approx_meb_center(pts, t)
            assert c.tobytes() == it[t - 1].tobytes()
            assert not np.shares_memory(c, pts)  # a new array, not a view


@st.composite
def point_sets(draw):
    """1-6 rows in 1-120 dimensions: floats, or a small integer grid whose
    distances tie exactly, with rows drawn again to repeat them."""
    rows, d = draw(st.integers(1, 6)), draw(st.integers(1, 120))
    elements = draw(st.sampled_from([
        st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
        st.integers(-2, 2).map(float),
    ]))
    base = draw(hnp.arrays(np.float64, (rows, d), elements=elements))
    order = draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=6))
    return base[order]


@settings(max_examples=300, deadline=None)
@given(point_sets(), st.integers(1, 4))
def test_center_is_the_oracle_recurrence(pts, iters):
    c = approx_meb_center(pts, iters)
    assert c.tobytes() == meb_iterates(pts, iters)[-1].tobytes()
    assert not np.shares_memory(c, pts)


def _near_tie_sets():
    # rows 1 and 2 lie at the same distance from row 0 up to rounding, so
    # which is farther depends on the order a row's squares are summed in:
    # in about 2 of 5 such sets np.vecdot's order picks the other row, and
    # so does einsum's over a Fortran-ordered copy
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 121))
        base, step = rng.normal(size=d), rng.normal(size=d)
        yield np.stack([base, base + step, base + step[rng.permutation(d)]])


NEAR_TIES = list(_near_tie_sets())


def test_near_ties_go_as_in_the_oracle():
    for pts in NEAR_TIES:
        it = meb_iterates(pts, 4)
        for iters in (2, 3, 4):
            want = it[iters - 1].tobytes()
            assert approx_meb_center(pts, iters).tobytes() == want
            assert approx_meb_center(np.asfortranarray(pts), iters).tobytes() == want


@settings(max_examples=300, deadline=None)
@given(st.one_of(point_sets(), st.sampled_from(NEAR_TIES)), st.integers(1, 5))
def test_einsum_fallback_gives_the_same_bits(pts, iters):
    # meb.py calls numpy's private c_einsum kernel, and np.einsum where
    # numpy has none to import; both must sum each row in one order
    want = approx_meb_center(pts, iters).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mebo.meb, "_einsum", np.einsum)
        assert approx_meb_center(pts, iters).tobytes() == want


@settings(max_examples=100, deadline=None)
@given(point_sets(), st.integers(1, 4))
def test_center_of_any_input_form_is_the_float64_one(pts, iters):
    want = approx_meb_center(pts, iters).tobytes()
    assert approx_meb_center(pts.tolist(), iters).tobytes() == want
    wide = np.repeat(pts, 2, axis=1)
    for view in (wide[:, ::2], np.asfortranarray(pts)):
        assert approx_meb_center(view, iters).tobytes() == want
    if pts.shape[0] == 1:
        assert approx_meb_center(pts[0], iters).tobytes() == want
    f32 = np.clip(pts, -3e38, 3e38).astype(np.float32)
    assert (approx_meb_center(f32, iters).tobytes()
            == approx_meb_center(f32.astype(np.float64), iters).tobytes())


def test_complex_and_empty_input_refused():
    for bad in (np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=np.complex64),
                [[1 + 2j, 0.0]]):
        with pytest.raises(InvalidParamsError):
            approx_meb_center(bad, 2)
    for empty in (np.zeros((2, 0)), [], [[]], np.float64(1.0), np.zeros((2, 2, 2))):
        with pytest.raises(EmptySubsetError):
            approx_meb_center(empty, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_refused(bad):
    for row, iters in itertools.product((0, 1, 3), (1, 2, 3, 4)):
        pts = np.arange(8.0).reshape(4, 2)
        pts[row, 1] = bad
        for form in (pts, pts.tolist()):
            # an infinite first point makes numpy warn in `pts - c` first
            with np.errstate(invalid="ignore"), \
                    pytest.raises(InvalidParamsError, match="^points must be finite, got NaN or infinity$"):
                approx_meb_center(form, iters)


@pytest.mark.parametrize("iters", [2, 3, 4])
def test_overflowing_distances_refused(iters):
    # every coordinate is finite, but the squared distance between the rows is not
    with pytest.raises(InvalidParamsError, match="overflow"):
        approx_meb_center([[1e200, 0.0], [-1e200, 1.0]], iters)
    # here the first step's distances are finite; from c = 5e153 the
    # second step's distance to the last row is not
    pts = [[0.0], [1e154], [-1e154]]
    if iters == 2:
        assert approx_meb_center(pts, iters).tolist() == [5e153]
    else:
        with pytest.raises(InvalidParamsError, match="overflow"):
            approx_meb_center(pts, iters)


def test_single_point_fixed_point():
    p = np.array([[2.0, -7.0]])
    for iters in (1, 3, 50):
        assert np.array_equal(approx_meb_center(p, iters), p[0])


def test_symmetric_pair_bound():
    # ||c_t|| <= 1/sqrt(t) for the unit pair, every step
    pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
    it = meb_iterates(pts, 64)
    for t in range(1, 65):
        assert np.linalg.norm(it[t - 1]) <= 1.0 / np.sqrt(t) + 1e-12


def test_random_3d_instance_bound():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(20, 3))
    b = exact_meb_oracle(pts, limit=20)
    c100 = approx_meb_center(pts, 100)
    assert np.linalg.norm(c100 - b.center) <= b.radius / 10.0 + 1e-12


def test_convergence_bound_random_instances():
    # quick local version of the full acceptance sweep
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.2, 4.0)
        b = exact_meb_oracle(pts)
        it = meb_iterates(pts, 32)
        dist = np.linalg.norm(it - b.center, axis=1)
        bound = b.radius / np.sqrt(np.arange(1, 33))
        assert (dist <= bound + 1e-9).all()


def test_monotone_coverage():
    # covering radius of c_N is at most r * (1 + 1/sqrt(N))
    rng = np.random.default_rng(41)
    for _ in range(20):
        pts = rng.normal(size=(int(rng.integers(2, 12)), 2))
        b = exact_meb_oracle(pts)
        for N in (1, 4, 16):
            c = approx_meb_center(pts, N)
            assert enclosing_radius(pts, c) <= b.radius * (1 + 1 / np.sqrt(N)) + 1e-9


def test_farthest_point_lower_bound():
    # for any probe p, the farthest point of the set is at least
    # sqrt(r^2 + K^2) away, K being the probe's distance to the center
    rng = np.random.default_rng(53)
    for _ in range(25):
        pts = rng.normal(size=(int(rng.integers(2, 13)), 3))
        b = exact_meb_oracle(pts)
        for _ in range(6):
            p = rng.normal(size=3) * rng.uniform(0.0, 5.0)
            K = np.linalg.norm(p - b.center)
            far = np.sqrt(((pts - p) ** 2).sum(axis=1).max())
            assert far >= np.sqrt(b.radius**2 + K**2) - 1e-9


def test_deterministic_in_order():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(7, 2))
    assert np.array_equal(approx_meb_center(pts, 9), approx_meb_center(pts, 9))
    perm = pts[::-1].copy()
    # a different input order legitimately changes the start point
    c1, c2 = approx_meb_center(pts, 1), approx_meb_center(perm, 1)
    assert np.array_equal(c1, pts[0]) and np.array_equal(c2, perm[0])


def test_enclosing_radius():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert enclosing_radius(pts, [0.0, 0.0]) == pytest.approx(5.0)
    assert enclosing_radius(np.array([[2.0, 2.0]]), [2.0, 2.0]) == 0.0
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 4))
    c = rng.normal(size=4)
    brute = max(float(np.linalg.norm(x - c)) for x in X)
    assert enclosing_radius(X, c) == pytest.approx(brute, rel=1e-12)


def test_iters_validation():
    with pytest.raises(ValueError):
        approx_meb_center(np.zeros((2, 2)), 0)
    for iters in (2.5, True, "2"):
        with pytest.raises(InvalidParamsError):
            approx_meb_center(np.zeros((2, 2)), iters)
    with pytest.raises(EmptySubsetError):
        approx_meb_center(np.zeros((0, 2)), 1)
