"""Tree growth, candidate scoring, boosting, and the full pipeline.

The engine splits every node through the same selection helper as
top_k_farthest, so a node's far set equals the public op's on any data,
ties and points far from the origin included.  Scores are compared with
a tolerance: the engine sums the inliers with a GEMM, the public op in
two passes.
"""

import numpy as np
import pytest

from mebo import (
    Candidate,
    Dataset,
    DerivedParams,
    InvalidParamsError,
    Params,
    RecognitionResult,
    approx_meb_center,
    boost_forest,
    boost_sequential,
    derive_params,
    grow_tree,
    make_node_rng,
    recognize,
    score_candidate,
    top_k_farthest,
)
from mebo.recognition import node_stream_key
from tree_oracle import TreeNode, expand_node


def planted(n_in=400, n_out=100, d=6, seed=0, spread=20.0):
    rng = np.random.default_rng(seed)
    inl = rng.normal(size=(n_in, d))
    out = rng.normal(size=(n_out, d)) * 2.0 + spread
    return Dataset(np.vstack([inl, out]))


def naive_score(X, center, m):
    """Independent scoring oracle: stable farthest-first sort, drop the
    top n-m, two-pass variance of the rest."""
    d2 = ((X - np.asarray(center, dtype=float)) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(len(d2)), -d2))
    keep = np.sort(order[len(d2) - m:])
    pts = X[keep]
    cent = pts.mean(axis=0)
    return float(((pts - cent) ** 2).sum(axis=1).mean()), keep


# ------------------------------------------------------------ scoring


def test_score_zero_spread():
    X = np.vstack([np.ones((5, 2)), np.array([[50.0, 50.0], [60.0, -60.0]])])
    score, inl = score_candidate(Dataset(X), [1.0, 1.0], 5)
    assert score == 0.0
    assert np.array_equal(inl, np.arange(5))


def test_score_two_points():
    X = np.array([[0.0, 0.0], [2.0, 0.0], [90.0, 90.0]])
    score, inl = score_candidate(Dataset(X), [1.0, 0.0], 2)
    assert score == pytest.approx(1.0)  # centroid (1,0), spread 1+1 over 2
    assert np.array_equal(inl, [0, 1])


def test_score_matches_naive_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 120))
        d = int(rng.integers(1, 7))
        X = rng.integers(-30, 30, size=(n, d)).astype(float)
        c = rng.integers(-30, 30, size=d).astype(float)
        m = int(rng.integers(1, n + 1))
        score, inl = score_candidate(Dataset(X), c, m)
        oscore, oinl = naive_score(X, c, m)
        assert np.array_equal(inl, oinl)
        assert score == pytest.approx(oscore, rel=1e-9, abs=1e-12)


def test_score_m_validation():
    ds = Dataset(np.zeros((4, 2)))
    with pytest.raises(InvalidParamsError):
        score_candidate(ds, [0.0, 0.0], 0)
    with pytest.raises(InvalidParamsError):
        score_candidate(ds, [0.0, 0.0], 5)


# ------------------------------------------------------- tree growth


def test_tree_candidate_count_defaults():
    ds = planted()
    p = Params(gamma=0.1, seed=3)
    dp = derive_params(p, ds.n)
    cands = grow_tree(ds, p, 0)
    # full tree: sum over depths of s^(depth-1)
    assert len(cands) == sum(dp.s ** i for i in range(dp.h))


def test_tree_counts_small_overrides():
    ds = planted(60, 20, 3, seed=1)
    p = Params(gamma=0.1, seed=1)
    dp7 = DerivedParams(h=3, k=10, s=2, m=ds.n - 10)
    assert len(grow_tree(ds, p, 4, derived=dp7)) == 7  # 1 + 2 + 4
    dp1 = DerivedParams(h=1, k=10, s=3, m=ds.n - 10)
    only = grow_tree(ds, p, 4, derived=dp1)
    assert len(only) == 1
    assert only[0].path == (4,)
    assert np.array_equal(only[0].center, ds.points[4])
    dp2 = DerivedParams(h=2, k=10, s=1, m=ds.n - 10)
    pair = grow_tree(ds, p, 4, derived=dp2)
    assert len(pair) == 2  # root plus a single leaf


def test_gamma_zero_single_node():
    ds = planted(50, 10, 2, seed=2)
    p = Params(gamma=0.0, seed=0)
    cands = grow_tree(ds, p, 7)
    assert len(cands) == 1  # no farthest set to sample from


def test_paths_are_valid():
    ds = planted(80, 40, 4, seed=5)
    p = Params(gamma=0.25, seed=11)
    dp = derive_params(p, ds.n)
    cands = grow_tree(ds, p, 13)
    seen = set()
    for cand in cands:
        assert cand.path[0] == 13
        assert len(cand.path) == len(set(cand.path))  # no repeats
        assert 1 <= len(cand.path) <= dp.h
        assert all(0 <= i < ds.n for i in cand.path)
        seen.add(cand.path)
    assert len(seen) == len(cands)  # paths identify nodes uniquely


def test_child_membership_in_parent_topk():
    # tie-heavy integers, and floats far from the origin, where the
    # expanded distance form rounds by more than the gaps near the pivot
    rng = np.random.default_rng(9)
    for X in (rng.integers(-40, 40, size=(150, 3)).astype(float),
              rng.normal(size=(150, 3)) + 1e7):
        ds = Dataset(X)
        p = Params(gamma=0.15, seed=2)
        dp = derive_params(p, ds.n)
        cands = grow_tree(ds, p, 0)
        by_path = {c.path: c for c in cands}
        for cand in cands:
            if len(cand.path) == 1:
                continue
            parent = by_path[cand.path[:-1]]
            topk, _ = top_k_farthest(ds, parent.center, dp.k)
            assert cand.path[-1] in set(topk.tolist())


def test_node_center_is_path_meb_center():
    ds = planted(70, 20, 3, seed=8)
    p = Params(gamma=0.2, seed=5)
    cands = grow_tree(ds, p, 3)
    for cand in cands[:40]:
        pts = ds.points[np.array(cand.path)]
        assert np.array_equal(cand.center, approx_meb_center(pts, p.meb_iter_count))


def test_tree_scores_match_public_op():
    ds = planted(90, 30, 5, seed=4)
    p = Params(gamma=0.2, seed=7)
    dp = derive_params(p, ds.n)
    cands = grow_tree(ds, p, 1)
    for cand in cands[::17]:
        score, _ = score_candidate(ds, cand.center, dp.m)
        assert cand.score == pytest.approx(score, rel=1e-9, abs=1e-12)


def test_grow_tree_root_validation():
    ds = planted(30, 10, 2)
    with pytest.raises(InvalidParamsError):
        grow_tree(ds, Params(gamma=0.1), -1)
    with pytest.raises(InvalidParamsError):
        grow_tree(ds, Params(gamma=0.1), ds.n)


def test_expand_node_reproduces_grow_tree():
    # the single-node API run as a manual BFS must rebuild the exact tree
    rng = np.random.default_rng(3)
    X = rng.integers(-50, 50, size=(200, 4)).astype(float)
    ds = Dataset(X)
    p = Params(gamma=0.1, seed=5)
    dp = derive_params(p, ds.n)
    cands = grow_tree(ds, p, 17, tree_id=0)

    root = TreeNode(path=(17,), depth=1,
                    center=approx_meb_center(X[[17]], p.meb_iter_count),
                    rng_stream=node_stream_key(0, (17,)))
    rebuilt = {}
    frontier = [root]
    while frontier:
        nxt = []
        for node in frontier:
            rebuilt[node.path] = node.center
            rng_n = make_node_rng(p.seed, node.rng_stream)
            nxt.extend(expand_node(ds, node, dp, rng_n, meb_iters=p.meb_iter_count))
        frontier = nxt
    assert len(rebuilt) == len(cands)
    for cand in cands:
        assert np.array_equal(rebuilt[cand.path], cand.center)


def test_expand_node_leaf_and_sample_cap():
    ds = planted(40, 10, 2, seed=6)
    p = Params(gamma=0.1, seed=0)
    dp = DerivedParams(h=2, k=5, s=50, m=ds.n - 5)
    node = TreeNode(path=(0,), depth=1, center=ds.points[0].copy(),
                    rng_stream=(0, 1))
    rng = make_node_rng(0, (0, 1))
    kids = expand_node(ds, node, dp, rng)
    assert len(kids) == 5  # capped at the pool size
    for kid in kids:
        assert kid.depth == 2
        assert kid.path[:1] == (0,)
    leaf = TreeNode(path=(0, 1), depth=2, center=ds.points[0].copy(),
                    rng_stream=(0, 1, 2))
    assert expand_node(ds, leaf, dp, rng) == []


def test_node_rng_streams_distinct():
    a = make_node_rng(0, (0, 1)).integers(0, 2**31, size=8)
    b = make_node_rng(0, (0, 1)).integers(0, 2**31, size=8)
    c = make_node_rng(0, (1, 1)).integers(0, 2**31, size=8)
    d = make_node_rng(0, (0, 1, 2)).integers(0, 2**31, size=8)
    e = make_node_rng(1, (0, 1)).integers(0, 2**31, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


# ----------------------------------------------------------- boosting


def test_boost_forest_count_and_equivalence():
    ds = planted(100, 25, 3, seed=10)
    p = Params(gamma=0.2, seed=8, forest_size=1)
    cands = boost_forest(ds, p)
    root = cands[0].path[0]
    again = grow_tree(ds, p, root, tree_id=0)
    assert len(cands) == len(again)
    for x, y in zip(cands, again):
        assert x.path == y.path
        assert np.array_equal(x.center, y.center)
        assert x.score == y.score


def test_boost_forest_distinct_roots():
    ds = planted(100, 25, 3, seed=10)
    p3 = Params(gamma=0.2, seed=8, forest_size=3)
    dp = derive_params(p3, ds.n)
    cands = boost_forest(ds, p3)
    per_tree = sum(dp.s ** i for i in range(dp.h))
    assert len(cands) == 3 * per_tree
    roots = {cands[j * per_tree].path[0] for j in range(3)}
    assert len(roots) == 3


def test_boost_forest_small_tree_arithmetic():
    ds = planted(60, 20, 2, seed=12)
    p = Params(gamma=0.2, seed=1, forest_size=3)
    dp = DerivedParams(h=3, k=12, s=2, m=ds.n - 12)
    cands = boost_forest(ds, p, derived=dp)
    assert len(cands) == 21  # 3 trees of 7


def test_boost_sequential_round1_is_grow_tree():
    ds = planted(100, 25, 3, seed=13)
    p = Params(gamma=0.2, seed=4)
    cands = boost_sequential(ds, p, rounds=1)
    root = cands[0].path[0]
    again = grow_tree(ds, p, root, tree_id=0)
    assert [c.path for c in cands] == [c.path for c in again]
    assert all(np.array_equal(x.center, y.center) for x, y in zip(cands, again))


def test_boost_sequential_virtual_root():
    ds = planted(100, 25, 3, seed=13)
    p = Params(gamma=0.2, seed=4)
    dp = derive_params(p, ds.n)
    per_tree = sum(dp.s ** i for i in range(dp.h))
    cands = boost_sequential(ds, p, rounds=2)
    assert len(cands) == 2 * per_tree
    round2 = cands[per_tree:]
    # virtual root contributes no dataset index anywhere in round 2
    assert round2[0].path == ()
    assert all(len(c.path) == len(set(c.path)) for c in round2)
    depth1 = [c for c in round2 if c.path == ()]
    assert len(depth1) == 1
    # the round-2 root candidate scores the previous best center
    best1 = min(cands[:per_tree], key=lambda c: c.score)
    s, _ = score_candidate(ds, best1.center, dp.m)
    assert round2[0].score == pytest.approx(s, rel=1e-9)


def test_boost_sequential_best_nonincreasing():
    ds = planted(150, 50, 4, seed=14)
    p = Params(gamma=0.25, seed=6)
    c1 = boost_sequential(ds, p, rounds=1)
    c3 = boost_sequential(ds, p, rounds=3)
    assert min(c.score for c in c3) <= min(c.score for c in c1) + 1e-12


def test_boost_sequential_validation():
    ds = planted(30, 10, 2)
    with pytest.raises(InvalidParamsError):
        boost_sequential(ds, Params(gamma=0.1), rounds=0)


# ---------------------------------------------------------- recognize


def test_recognize_zero_variance_cluster():
    rng = np.random.default_rng(15)
    cluster = np.tile([3.0, -2.0, 1.0], (40, 1))
    scatter = rng.normal(size=(10, 3)) * 5.0 + 40.0
    ds = Dataset(np.vstack([cluster, scatter]))
    p = Params(gamma=0.2, seed=0)
    dp = derive_params(p, ds.n)
    res = recognize(ds, p)
    assert isinstance(res, RecognitionResult)
    assert res.score == 0.0
    # all 40 duplicates tie at distance 0; the far set of size k=12 holds
    # the 10 scatter points plus the two lowest tied indices
    assert np.array_equal(res.inliers, np.arange(2, 2 + dp.m))
    assert np.array_equal(res.ball.center, [3.0, -2.0, 1.0])
    assert res.ball.radius == 0.0


def test_recognize_planted_recovery():
    ds = planted(800, 200, 8, seed=7, spread=14.0)
    res = recognize(ds, Params(gamma=0.2, seed=1))
    assert (res.inliers < 800).all()
    assert len(res.inliers) == derive_params(Params(gamma=0.2), 1000).m


def test_recognize_deterministic_and_thread_invariant():
    ds = planted(300, 100, 5, seed=16)
    p = Params(gamma=0.25, seed=9)
    a = recognize(ds, p)
    b = recognize(ds, p)
    c = recognize(ds, p, threads=4)
    for other in (b, c):
        assert np.array_equal(a.ball.center, other.ball.center)
        assert a.ball.radius == other.ball.radius
        assert np.array_equal(a.inliers, other.inliers)
        assert a.score == other.score
        assert a.candidates_evaluated == other.candidates_evaluated


def test_recognize_candidate_count():
    ds = planted(400, 100, 4, seed=18)
    p = Params(gamma=0.1, seed=2, forest_size=4, sequential_rounds=2)
    dp = derive_params(p, ds.n)
    per_tree = sum(dp.s ** i for i in range(dp.h))
    res = recognize(ds, p)
    assert res.candidates_evaluated == 6 * per_tree


def test_recognize_radius_covers_exactly_m():
    ds = planted(200, 50, 3, seed=19)
    p = Params(gamma=0.2, seed=3)
    dp = derive_params(p, ds.n)
    res = recognize(ds, p)
    d = np.linalg.norm(ds.points - res.ball.center, axis=1)
    assert int((d <= res.ball.radius + 1e-12).sum()) >= dp.m
    assert len(res.inliers) == dp.m
    # reported score is the public op's value for the winning center
    s, inl = score_candidate(ds, res.ball.center, dp.m)
    assert res.score == pytest.approx(s, rel=1e-12)
    assert np.array_equal(res.inliers, inl)


def test_recognize_gamma_zero_plain_ball():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(60, 4))
    ds = Dataset(X)
    res = recognize(ds, Params(gamma=0.0, seed=0))
    assert np.array_equal(res.inliers, np.arange(60))
    cover = np.linalg.norm(X - res.ball.center, axis=1).max()
    assert res.ball.radius == pytest.approx(cover, rel=1e-12)


def test_recognize_tie_heavy_integer_data():
    rng = np.random.default_rng(21)
    X = rng.integers(-3, 4, size=(120, 2)).astype(float)
    ds = Dataset(X)
    p = Params(gamma=0.3, seed=5)
    res1 = recognize(ds, p)
    res2 = recognize(ds, p, threads=3)
    assert np.array_equal(res1.inliers, res2.inliers)
    assert res1.score == res2.score


def test_candidate_inliers_lazy():
    ds = planted(60, 20, 2, seed=22)
    cands = grow_tree(ds, Params(gamma=0.1, seed=0), 0)
    assert all(isinstance(c, Candidate) for c in cands)
