"""Acceptance gates.

Run with -v to get one pass/fail line per numbered gate.  Every gate
re-derives its ground truth from scratch (exact small-instance oracle,
full-sort selection, naive variance) and checks the documented
tolerance and time budget.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from mebo import (
    ClassSpec,
    Dataset,
    Params,
    boost_forest,
    derive_params,
    f1,
    k_smallest_distance,
    peel,
    recognize,
    score_candidate,
    top_k_farthest,
)
from mebo.cli import main
from mebo.synth import gen_highdim, gen_multiclass, gen_toy_2d
from meb_oracle import enclosing_radius, exact_meb_oracle, meb_iterates


def test_criterion_1_center_convergence_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n = int(rng.integers(2, 15))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        ball = exact_meb_oracle(X)
        iters = meb_iterates(X, 64)
        for t in range(1, 65):
            err = float(np.linalg.norm(iters[t - 1] - ball.center))
            assert err <= ball.radius / np.sqrt(t) + 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_2_farthest_point_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(120):
        n = int(rng.integers(2, 15))
        d = int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        ball = exact_meb_oracle(X)
        for _ in range(12):
            v = rng.normal(size=d)
            norm = float(np.linalg.norm(v))
            if norm == 0.0:
                continue
            dist = float(rng.uniform(0.1, 4.0))
            probe = ball.center + dist * v / norm
            reach = enclosing_radius(X, probe)
            assert reach >= np.sqrt(ball.radius ** 2 + dist ** 2) - 1e-9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_tiny_instance_recovery_rate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal(size=(10, 2)),
                   [[50.0, 0.0], [-50.0, 50.0]]])
    ds = Dataset(X)
    # best radius that covers 10 of the 12 points, by brute force
    r_opt = min(exact_meb_oracle(X[[i for i in range(12) if i not in drop]]).radius
                for drop in itertools.combinations(range(12), 2))
    gamma, epsilon, delta, mu = 1 / 6, 0.3, 0.5, 0.1
    dp = derive_params(Params(gamma=gamma, epsilon=epsilon, delta=delta, mu=mu),
                       ds.n)
    thr = (1 + epsilon) * r_opt + 1e-12
    hits = 0
    for seed in range(200):
        p = Params(gamma=gamma, epsilon=epsilon, delta=delta, mu=mu,
                   seed=seed, forest_size=1)
        hits += any(k_smallest_distance(ds, c.center, dp.m) <= thr
                    for c in boost_forest(ds, p))
    bound = (1 - mu) * (1 - gamma)
    assert hits / 200 >= bound - 3 * np.sqrt(bound * (1 - bound) / 200)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_highdim_f1():
    t0 = time.perf_counter()
    for gamma, floor in ((0.1, 0.95), (0.5, 0.80)):
        scores = []
        for seed in range(5):
            ds, labels = gen_highdim(20000, 100, gamma, seed=seed)
            res = recognize(ds, Params(gamma=gamma, seed=seed))
            scores.append(f1(res.inliers, np.flatnonzero(labels == 1), ds.n).f1)
        assert float(np.median(scores)) >= floor
    assert time.perf_counter() - t0 < 300.0


def test_criterion_5_toy2d_f1():
    t0 = time.perf_counter()
    scores = []
    for seed in range(5):
        ds, labels = gen_toy_2d(seed=seed)
        res = recognize(ds, Params(gamma=0.4, seed=seed))
        scores.append(f1(res.inliers, np.flatnonzero(labels == 1), ds.n).f1)
    assert float(np.median(scores)) >= 0.90
    assert time.perf_counter() - t0 < 120.0


def test_criterion_6_multiclass_f1():
    t0 = time.perf_counter()
    for gamma in (0.1, 0.2, 0.3, 0.4):
        fr = ((1 - gamma) / 3,) * 3
        per_seed = []
        for seed in range(5):
            ds, labels = gen_multiclass(4500, 60, fr, gamma, seed=seed)
            out = peel(ds, ClassSpec(fractions=fr), Params(gamma=gamma, seed=seed))
            taken = set()
            scores = []
            for r in out:
                best, best_lab = -1.0, None
                for lab in (1, 2, 3):
                    if lab in taken:
                        continue
                    val = f1(r.inliers, np.flatnonzero(labels == lab), ds.n).f1
                    if val > best:
                        best, best_lab = val, lab
                taken.add(best_lab)
                scores.append(best)
            per_seed.append(float(np.mean(scores)))
        assert float(np.median(per_seed)) >= 0.90
    assert time.perf_counter() - t0 < 300.0


def _bench_medians(argv, path):
    rc = main(argv + ["--out", str(path)])
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,d,runs,median_ms"
    return [float(line.split(",")[3]) for line in lines[1:]]


@pytest.mark.slow
def test_criterion_7_bench_scaling(tmp_path):
    dims = _bench_medians(["bench", "--sizes", "10000",
                           "--dims", "25,50,100,200", "--runs", "5",
                           "--warmup", "1", "--seed", "0"],
                          tmp_path / "dims.csv")
    sizes = _bench_medians(["bench", "--sizes", "5000,10000,20000,40000",
                            "--dims", "50", "--runs", "5",
                            "--warmup", "1", "--seed", "0"],
                           tmp_path / "sizes.csv")
    for grid in (dims, sizes):
        assert len(grid) == 4
        for a, b in zip(grid, grid[1:]):
            ratio = b / a
            assert 1.5 <= ratio <= 3.0, f"doubling ratio {ratio:.3f} off band"


def test_criterion_8_selection_and_score_oracles():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 300))
        d = int(rng.integers(1, 8))
        k = int(rng.integers(1, n + 1))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 5.0)
        c = rng.normal(size=d) * 2.0
        ds = Dataset(X)
        d2 = ((X - c) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(n), -d2))  # farthest first, index ties up
        got, pivot = top_k_farthest(ds, c, k)
        assert np.array_equal(got, np.sort(order[:k]))
        assert pivot == pytest.approx(float(np.sqrt(d2[order[k - 1]])), rel=1e-12)
        m = n - k
        if m >= 1:
            score, inl = score_candidate(ds, c, m)
            keep = np.sort(order[k:])
            assert np.array_equal(inl, keep)
            pts = X[keep]
            cent = pts.mean(axis=0)
            naive = float(((pts - cent) ** 2).sum(axis=1).mean())
            assert score == pytest.approx(naive, rel=1e-9, abs=1e-12)


def test_criterion_9_cli_byte_identical(tmp_path):
    pts = tmp_path / "p.csv"
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(size=(90, 3)),
                   rng.normal(size=(30, 3)) * 2 + 15.0])
    np.savetxt(pts, X, fmt="%.10g", delimiter=",")

    def fit(*extra):
        r = subprocess.run([sys.executable, "-m", "mebo.cli", "fit", str(pts),
                            "--gamma", "0.25", "--seed", "5", *extra],
                           capture_output=True)
        assert r.returncode == 0
        return r.stdout

    first = fit()
    assert first == fit()
    assert first == fit("--threads", "4")
    out = tmp_path / "r.json"
    fit("--out", str(out))
    assert out.read_bytes() == first
