"""Randomized-behavior guarantees checked over many trials.

Each test pins its trial seeds, so the empirical rates below are exact
reruns of measured values, all of which clear their bound minus three
standard errors with real margin.
"""

import itertools
from dataclasses import replace

import numpy as np

from mebo import (
    Dataset,
    Params,
    boost_forest,
    boost_sequential,
    derive_params,
    f1,
    grow_tree,
    k_smallest_distance,
    score_candidate,
    top_k_farthest,
)
from mebo.recognition import make_node_rng
from mebo.synth import gen_highdim
from meb_oracle import exact_meb_oracle
from tree_oracle import TreeNode, expand_node

TRIALS = 200


def slack(bound, trials=TRIALS):
    return 3.0 * np.sqrt(bound * (1.0 - bound) / trials)


def tiny_two_cluster():
    """10 well-spread inliers plus 2 far points, d=2."""
    rng = np.random.default_rng(42)
    cluster = rng.normal(size=(10, 2))
    far = np.array([[50.0, 0.0], [-50.0, 50.0]])
    return Dataset(np.vstack([cluster, far]))


def test_far_set_sampling_hits_planted_inliers():
    # adversarial overlap: the planted inliers hold exactly k - gamma*n
    # slots of the far set, the smallest count the selection allows
    rng = np.random.default_rng(0)
    cluster = rng.normal(size=(180, 3)) * 0.5
    out = rng.normal(size=(20, 3)) * 0.5 + np.array([100.0, 0.0, 0.0])
    ds = Dataset(np.vstack([cluster, out]))
    p = Params(gamma=0.1)
    dp = derive_params(p, ds.n)
    assert (dp.k, dp.s, dp.h) == (23, 12, 4)
    topk, _ = top_k_farthest(ds, np.zeros(3), dp.k)
    n_in = int((topk < 180).sum())
    assert n_in == dp.k - 20  # 3 inlier slots out of 23
    node = TreeNode(path=(0,), depth=1, center=np.zeros(3), rng_stream=(0, 1))
    hits = 0
    for t in range(TRIALS):
        kids = expand_node(ds, node, dp, make_node_rng(t, (0, 1)))
        assert len(kids) == dp.s
        hits += any(k.path[-1] < 180 for k in kids)
    bound = 1.0 - p.mu / dp.h  # per-node hit probability the math promises
    assert hits / TRIALS >= bound - slack(bound)  # measured 0.865 vs 0.686


def test_full_depth_inlier_path_survives():
    # 8 circle inliers + 4 far points; k=6 leaves two inlier slots per
    # node, enough that a root-to-leaf path can stay inside the inliers
    ang = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    circle = np.c_[np.cos(ang), np.sin(ang)]
    far = np.array([[50.0, 0.0], [-50.0, 50.0], [0.0, -60.0], [40.0, 40.0]])
    ds = Dataset(np.vstack([circle, far]))
    gamma, mu = 1 / 3, 0.1
    dp = derive_params(Params(gamma=gamma, epsilon=0.8, delta=0.5, mu=mu), ds.n)
    assert (dp.h, dp.k, dp.s) == (4, 6, 12)
    hits = 0
    for j in range(TRIALS):
        p = Params(gamma=gamma, epsilon=0.8, delta=0.5, mu=mu, seed=j,
                   forest_size=1)
        cands = boost_forest(ds, p)
        hits += any(len(c.path) == dp.h and all(i < 8 for i in c.path)
                    for c in cands)
    bound = (1.0 - gamma) * (1.0 - mu)
    assert hits / TRIALS >= bound - slack(bound)  # measured 0.690 vs 0.496


def test_coverage_failure_forces_radius_growth():
    # any child q sits at least the parent's m-coverage radius away from
    # the parent's center (it comes from the far set), so the exact ball
    # of the extended path must grow to x/2 + r^2/(2x) for
    # x = max(coverage radius - center slack, r), r the parent's exact
    # path-ball radius; center slack r/sqrt(iters) covers the gap
    # between the iterated center and the true one
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(size=(11, 2)),
                   [[30.0, 0.0], [0.0, 35.0], [25.0, 25.0]]])
    ds = Dataset(X)
    checked = 0
    for seed in range(12):
        p = Params(gamma=0.2, epsilon=0.5, delta=0.5, seed=seed)
        dp = derive_params(p, ds.n)
        cands = grow_tree(ds, p, seed % ds.n)
        by_path = {c.path: c for c in cands}
        for c in cands:
            if len(c.path) < 2:
                continue
            parent = by_path[c.path[:-1]]
            r_p = exact_meb_oracle(X[np.array(parent.path)]).radius
            r_c = exact_meb_oracle(X[np.array(c.path)]).radius
            assert r_c >= r_p - 1e-9  # adding a point never shrinks the ball
            r_cov = k_smallest_distance(ds, parent.center, dp.m)
            e = r_p / np.sqrt(p.meb_iter_count)
            x = max(r_cov - e, r_p)
            if x > r_p:
                assert r_c >= x / 2 + r_p ** 2 / (2 * x) - 1e-9
            checked += 1
    assert checked > 1000


def recovers_nine_of_twelve(ds, seed, forest_size, r_opt):
    p = Params(gamma=1 / 6, epsilon=0.3, delta=0.5, mu=0.1, seed=seed,
               forest_size=forest_size)
    dp = derive_params(p, ds.n)
    thr = (1 + p.epsilon) * r_opt + 1e-12
    return any(k_smallest_distance(ds, c.center, dp.m) <= thr
               for c in boost_forest(ds, p))


def test_forest_size_boosts_success():
    ds = tiny_two_cluster()
    X = ds.points
    r_opt = min(exact_meb_oracle(X[[i for i in range(12) if i not in drop]]).radius
                for drop in itertools.combinations(range(12), 2))
    single = 0.75  # per-tree success floor the analysis gives
    for forest_size in (1, 2, 3):
        hits = sum(recovers_nine_of_twelve(ds, j, forest_size, r_opt)
                   for j in range(TRIALS))
        bound = 1.0 - (1.0 - single) ** forest_size
        # measured 0.865 / 0.985 / 1.000 vs 0.658 / 0.886 / 0.958
        assert hits / TRIALS >= bound - slack(bound)


def test_extra_rounds_never_hurt_f1():
    def run(seed, rounds):
        ds, labels = gen_highdim(1500, 100, 0.5, seed=seed)
        p = Params(gamma=0.5, seed=seed)
        dp = derive_params(p, ds.n)
        cands = boost_sequential(ds, replace(p, sequential_rounds=rounds - 1))
        best = min(range(len(cands)), key=lambda i: cands[i].score)
        _, inl = score_candidate(ds, cands[best].center, dp.m)
        return f1(inl, np.flatnonzero(labels == 1), ds.n).f1

    seeds = range(12)
    one = np.array([run(s, 1) for s in seeds])
    three = np.array([run(s, 3) for s in seeds])
    assert (three >= one - 1e-12).all()
    assert (three > one + 1e-9).any()  # seed 1500-instance set has a real win
    assert np.median(three) >= np.median(one)
