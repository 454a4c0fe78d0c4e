"""Greedy peeling of several ball classes out of one contaminated set."""

import hashlib

import numpy as np
import pytest

from mebo import (
    ClassSpec,
    Dataset,
    InvalidParamsError,
    Params,
    SpecInfeasibleError,
    derive_params,
    gen_multiclass,
    peel,
    recognize,
)


def two_far_blobs():
    a = np.tile([0.0, 0.0], (50, 1))
    b = np.tile([100.0, 0.0], (50, 1))
    return Dataset(np.vstack([a, b]))


def test_classspec_validation():
    spec = ClassSpec(fractions=(0.4, 0.4))
    assert spec.fractions == (0.4, 0.4)
    with pytest.raises(InvalidParamsError):
        ClassSpec(fractions=())
    with pytest.raises(InvalidParamsError):
        ClassSpec(fractions=(0.5, 0.0))
    with pytest.raises(InvalidParamsError):
        ClassSpec(fractions=(0.5, -0.1))
    with pytest.raises(InvalidParamsError):
        ClassSpec(fractions=(0.5, 1.2))
    for bad in (["x"], [None], [True]):
        with pytest.raises(InvalidParamsError):
            ClassSpec(fractions=bad)


@pytest.mark.parametrize("bad", [0.5, np.float64(0.5), "0.5", None], ids=repr)
def test_classspec_fractions_must_be_a_sequence(bad):
    with pytest.raises(InvalidParamsError, match="must be a sequence"):
        ClassSpec(bad)


@pytest.mark.parametrize("bad", [(), (0.5, 0.0), (0.5, 1.2), (float("nan"),)], ids=repr)
def test_one_fraction_rule(bad):
    # ClassSpec and gen_multiclass refuse a fraction outside (0, 1] alike
    with pytest.raises(InvalidParamsError) as spec:
        ClassSpec(bad)
    with pytest.raises(InvalidParamsError) as gen:
        gen_multiclass(100, 5, bad, 0.1, 0)
    assert str(spec.value) == "class " + str(gen.value)
    assert str(gen.value) == f"fractions must be one or more numbers in (0, 1], got {bad}"


def test_peel_budget_infeasible():
    ds = two_far_blobs()
    with pytest.raises(SpecInfeasibleError):
        peel(ds, ClassSpec(fractions=(0.6, 0.5)), Params(gamma=0.1, seed=0))


def test_peel_exhausted_remainder_infeasible():
    # after the first class takes ceil(0.5*11)=6 points, 5 remain but the
    # second class still demands 6 of the original n
    pts = np.arange(22, dtype=float).reshape(11, 2)
    ds = Dataset(pts)
    with pytest.raises(SpecInfeasibleError):
        peel(ds, ClassSpec(fractions=(0.5, 0.5)), Params(gamma=0.0, seed=0))


def test_peel_infeasible_spec_reported_in_fit_order():
    # ceil(0.7 * 11) = 8 and ceil(0.3 * 11) = 4 ask for 12 of 11 points;
    # the larger class is fitted first, so the smaller one runs short
    ds = Dataset(np.arange(22, dtype=float).reshape(11, 2))
    with pytest.raises(SpecInfeasibleError,
                       match="^class needs 4 points but only 3 remain$"):
        peel(ds, ClassSpec(fractions=(0.3, 0.7)), Params(gamma=0.0, seed=0))


def test_peel_two_identical_clusters_exact():
    ds = two_far_blobs()
    out = peel(ds, ClassSpec(fractions=(0.5, 0.5)), Params(gamma=0.0, seed=3))
    assert len(out) == 2
    covered = [set(r.inliers.tolist()) for r in out]
    assert covered[0].isdisjoint(covered[1])
    assert covered[0] | covered[1] == set(range(100))
    for r in out:
        assert len(r.inliers) == 50
        assert r.ball.radius == 0.0
        pts = ds.points[r.inliers]
        assert np.allclose(pts, pts[0])  # each class is one blob, not a mix


def test_peel_stage_of_one_point():
    # the whole set passes derive_params, and so does the last stage
    # with m = n = 1, though its own default k = ceil(1.15 * 0.1) would
    # leave that stage no inliers
    pts = np.vstack([np.zeros((9, 2)), [[50.0, 50.0]]])
    ds = Dataset(pts)
    p = Params(gamma=0.1, seed=0)
    out = peel(ds, ClassSpec(fractions=(0.85, 0.05)), p)
    assert [r.inliers.tolist() for r in out] == [list(range(9)), [9]]
    assert np.array_equal(out[1].ball.center, [50.0, 50.0])
    assert out[1].ball.radius == 0.0
    assert out[0].score == out[1].score == 0.0


def test_peel_single_class_matches_recognize():
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(size=(770, 6)), rng.normal(size=(230, 6)) * 3 + 25])
    ds = Dataset(X)
    p = Params(gamma=0.2, seed=5)
    # ceil(0.77 * 1000) = 770 = n - k for these params, so the peeled
    # class and the plain fit chase the same coverage target
    assert derive_params(p, ds.n).m == 770
    out = peel(ds, ClassSpec(fractions=(0.77,)), p)
    res = recognize(ds, p)
    (r,) = out
    assert np.array_equal(r.ball.center, res.ball.center)
    assert r.ball.radius == res.ball.radius
    assert np.array_equal(r.inliers, res.inliers)
    assert r.score == res.score
    assert r.candidates_evaluated == res.candidates_evaluated


def test_peel_sizes_disjoint_deterministic():
    rng = np.random.default_rng(11)
    blobs = [rng.normal(size=(300, 8)) + mu for mu in (0.0, 30.0, -30.0)]
    noise = rng.uniform(-60, 60, size=(100, 8))
    ds = Dataset(np.vstack(blobs + [noise]))
    p = Params(gamma=0.1, seed=2)
    spec = ClassSpec(fractions=(0.3, 0.3, 0.3))
    out = peel(ds, spec, p)
    assert [len(r.inliers) for r in out] == [300, 300, 300]  # ceil(0.3 * 1000)
    seen = np.concatenate([r.inliers for r in out])
    assert len(np.unique(seen)) == 900  # classes never share a point
    again = peel(ds, spec, p)
    for r1, r2 in zip(out, again):
        assert np.array_equal(r1.ball.center, r2.ball.center)
        assert r1.ball.radius == r2.ball.radius
        assert np.array_equal(r1.inliers, r2.inliers)


def test_peel_covered_indices_refer_to_original_rows():
    ds = two_far_blobs()
    out = peel(ds, ClassSpec(fractions=(0.5, 0.5)), Params(gamma=0.0, seed=1))
    for r in out:
        assert r.inliers.min() >= 0 and r.inliers.max() < ds.n
        d = np.linalg.norm(ds.points[r.inliers] - r.ball.center, axis=1)
        assert (d <= r.ball.radius + 1e-9).all()


def test_peel_three_gaussians_with_outliers_quality():
    from mebo.synth import gen_multiclass
    from mebo import f1

    fr = (0.8 / 3, 0.8 / 3, 0.8 / 3)
    ds, labels = gen_multiclass(900, 40, fr, 0.2, seed=4)
    out = peel(ds, ClassSpec(fractions=fr), Params(gamma=0.2, seed=0))
    # greedy best-overlap match between peeled classes and true labels
    scores = []
    taken = set()
    for r in out:
        best, best_lab = -1.0, None
        for lab in (1, 2, 3):
            if lab in taken:
                continue
            truth = np.flatnonzero(labels == lab)
            val = f1(r.inliers, truth, ds.n).f1
            if val > best:
                best, best_lab = val, lab
        taken.add(best_lab)
        scores.append(best)
    assert np.mean(scores) >= 0.90


@pytest.mark.parametrize("seed", [0, 1])
def test_peel_largest_class_first_whatever_the_order_given(seed):
    # fitted in the order given, the first 0.2 class would take a 0.2
    # share of the 0.5 class and leave the 0.5 class a mix (F1 near 0.6)
    from mebo.synth import gen_multiclass
    from mebo import f1

    ds, labels = gen_multiclass(3000, 30, (0.5, 0.2, 0.2), 0.1, seed)
    out = peel(ds, ClassSpec(fractions=(0.2, 0.5, 0.2)), Params(gamma=0.1, seed=seed))
    truth = {lab: np.flatnonzero(labels == lab) for lab in (1, 2, 3)}
    matched = [max(truth, key=lambda lab: np.intersect1d(r.inliers, truth[lab]).size)
               for r in out]
    assert matched[1] == 1 and sorted(matched) == [1, 2, 3]
    for r, lab in zip(out, matched):
        assert f1(r.inliers, truth[lab], ds.n).f1 >= 0.95


def test_peel_permuted_fractions_permute_the_classes():
    from mebo.synth import gen_multiclass

    ds, _ = gen_multiclass(600, 5, (0.4, 0.3, 0.2), 0.1, seed=6)
    p = Params(gamma=0.1, seed=4)
    fr = (0.4, 0.3, 0.2)
    base = peel(ds, ClassSpec(fractions=fr), p)
    for perm in ((2, 0, 1), (1, 2, 0), (0, 2, 1)):
        out = peel(ds, ClassSpec(fractions=tuple(fr[j] for j in perm)), p)
        for r, j in zip(out, perm):
            assert r.ball.center.tobytes() == base[j].ball.center.tobytes()
            assert r.ball.radius == base[j].ball.radius
            assert np.array_equal(r.inliers, base[j].inliers)
            assert r.score == base[j].score
            assert r.candidates_evaluated == base[j].candidates_evaluated


def test_peel_output_pinned():
    # each class's inliers on a fixed input, so a change that moves one
    # of them shows; the scores' last bits come from SIMD reductions
    ds, _ = gen_multiclass(1500, 20, (0.3, 0.3, 0.3), 0.1, 0)
    out = peel(ds, ClassSpec(fractions=(0.3, 0.3, 0.3)), Params(gamma=0.1, seed=0))
    digests = [hashlib.sha256(r.inliers.astype(np.int64).tobytes()).hexdigest()[:16]
               for r in out]
    assert digests == ["ddcafb669497aa73", "d7421895cc168aa2", "79f51ee9259865f2"]
    assert [r.score for r in out] == pytest.approx(
        [19.658327395784, 19.764505552497393, 19.9826643059369], rel=1e-12)
