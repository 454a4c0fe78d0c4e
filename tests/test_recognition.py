"""Tree growth, candidate scoring, boosting, and the full pipeline.

The engine splits every node through the same selection helper as
top_k_farthest, so a node's far set equals the public op's on any data,
ties and points far from the origin included.  Scores are compared with
a tolerance: the engine sums the inliers with a GEMM, the public op in
two passes.
"""

import hashlib
import importlib.util
import json
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mebo.recognition
from mebo import (
    Candidate,
    ClassSpec,
    k_smallest_distance,
    Dataset,
    DegenerateDatasetError,
    DerivedParams,
    InvalidParamsError,
    MeboError,
    Params,
    RecognitionResult,
    approx_meb_center,
    boost_forest,
    boost_sequential,
    derive_params,
    grow_tree,
    peel,
    recognize,
    score_candidate,
    gen_highdim,
    gen_multiclass,
    gen_toy_2d,
    top_k_farthest,
)
from mebo.recognition import make_node_rng, node_stream_key
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


@pytest.mark.parametrize("fit", ["recognize", "boost_sequential", "peel"])
def test_one_center_call_per_node(monkeypatch, fit):
    """Each depth j has trees * s^(j-1) approx_meb_center calls with j
    points: one per node, with its path's points.  perfbench counts the
    nodes per depth of a fit from these calls."""
    depths = Counter()
    meb = mebo.recognition.approx_meb_center

    def counted(points, iters):
        depths[len(points)] += 1
        return meb(points, iters)

    monkeypatch.setattr(mebo.recognition, "approx_meb_center", counted)
    p = Params(gamma=0.1, seed=4)
    ds = planted()
    if fit == "recognize":
        recognize(ds, p)
        trees = p.forest_size + p.sequential_rounds
    elif fit == "boost_sequential":
        boost_sequential(ds, p)  # two rounds with a virtual root
        trees = 1 + p.sequential_rounds
    else:
        ds, _ = gen_multiclass(600, 5, (0.45, 0.45), 0.1, 4)
        peel(ds, ClassSpec(fractions=(0.45, 0.45)), p)
        trees = 2 * (p.forest_size + p.sequential_rounds)
    dp = derive_params(p, ds.n)
    assert depths == {j: trees * dp.s ** (j - 1) for j in range(1, dp.h + 1)}


def _perfbench_hooks():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("perfbench_hooks",
                                                  root / "perfbench" / "hooks.py")
    hooks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hooks)
    listed = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    return hooks, listed


def _unmeasured(listed, values, absent):
    """The per-layer metrics of BENCHMARK.json with no value, but for the
    two perfbench/run.py measures itself."""
    return {m["name"]: absent.get(m["name"]) for m in listed
            if m["name"] not in ("core.dataset_s", "trace.overhead")
            and values.get(m["name"]) is None}


def test_benchmark_hooks_measure_every_layer():
    """perfbench/hooks.py times a fit by swapping wrappers into module
    attributes of mebo; a per-layer metric of BENCHMARK.json has no
    value when a target is renamed or stops being called.  A default
    fit under its tracer passes the self-checks and gives a value for
    every such metric except the two perfbench/run.py measures itself."""
    hooks, listed = _perfbench_hooks()
    p = Params(gamma=0.1, seed=4)
    ds = planted()
    dp = derive_params(p, ds.n)
    tracer = hooks.Tracer()
    with tracer, tracer.root():
        res = recognize(ds, p)
    values, absent, problems = hooks.analyse(
        tracer, multiclass=False, candidates=res.candidates_evaluated, s=dp.s, h=dp.h,
        trees=p.forest_size + p.sequential_rounds, out_bytes=None)
    assert problems == []
    assert _unmeasured(listed, values, absent) == {}


def test_benchmark_hooks_measure_every_layer_of_multifit(tmp_path):
    """The same for `mebo multifit` run through cli.main, as perfbench's
    multiclass_cli workload runs it: main reaches peel through
    mebo.cli.peel, and each stage through mebo.multiclass."""
    from mebo import cli

    hooks, listed = _perfbench_hooks()
    ds, _ = gen_multiclass(600, 5, (0.45, 0.45), 0.1, 4)
    pts, out = tmp_path / "p.csv", tmp_path / "r.json"
    np.savetxt(pts, ds.points, fmt="%.10g", delimiter=",")
    p = Params(gamma=0.1, seed=4)
    dp = derive_params(p, ds.n)
    tracer = hooks.Tracer()
    with tracer, tracer.root():
        code = cli.main(["multifit", str(pts), "--fractions", "0.45,0.45", "--gamma", "0.1",
                         "--seed", "4", "--out", str(out)])
    assert code == 0
    values, absent, problems = hooks.analyse(
        tracer, multiclass=True, candidates=None, s=dp.s, h=dp.h,
        trees=2 * (p.forest_size + p.sequential_rounds), out_bytes=out.stat().st_size)
    assert problems == []
    assert _unmeasured(listed, values, absent) == {}
    # a text-only metric, so the check above does not see it: it is timed
    # up to the first call through mebo.cli.peel
    assert "cli.load_s" in values, absent.get("cli.load_s")


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 60), st.integers(1, 15), st.integers(0, 2**64 - 1),
       st.integers(0, 9))
def test_child_draw_is_the_pool_draw(data, n, s, seed, tree_id):
    # the pool less the path, as the engine once built it with np.isin;
    # row numbers >= n stand for virtual roots
    far = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))),
                   dtype=np.int64)
    path = np.array(data.draw(st.lists(st.integers(0, n + 2), min_size=1, max_size=6,
                                       unique=True)), dtype=np.int64)
    got = mebo.recognition._draw_children(seed, tree_id, far, path, s)
    pool = far[~np.isin(far, path)]
    take = min(s, pool.shape[0])
    if take == 0:
        assert got.shape == (0,) and got.dtype == np.int64
    else:
        rng = make_node_rng(seed, node_stream_key(tree_id, path))
        assert np.array_equal(got, rng.choice(pool, size=take, replace=False))


def drive(ds, p, dp, roots, rounds=0):
    """Every candidate the engine grows from roots under dp.  Params
    alone cannot give these small trees: h >= 4 for every epsilon < 1."""
    cands = []
    mebo.recognition._drive(ds, p, dp, roots, rounds, out=cands)
    return cands


def test_tree_counts_small_overrides():
    ds = planted(60, 20, 3, seed=1)
    p = Params(gamma=0.1, seed=1)
    dp7 = DerivedParams(h=3, k=10, s=2, m=ds.n - 10)
    assert len(drive(ds, p, dp7, [4])) == 7  # 1 + 2 + 4
    dp1 = DerivedParams(h=1, k=10, s=3, m=ds.n - 10)
    only = drive(ds, p, dp1, [4])
    assert len(only) == 1
    assert only[0].path == (4,)
    assert np.array_equal(only[0].center, ds.points[4])
    dp2 = DerivedParams(h=2, k=10, s=1, m=ds.n - 10)
    pair = drive(ds, p, dp2, [4])
    assert len(pair) == 2  # root plus a single leaf


def test_gamma_zero_single_node():
    ds = planted(50, 10, 2, seed=2)
    p = Params(gamma=0.0, seed=0)
    cands = grow_tree(ds, p, 7)
    assert len(cands) == 1  # no farthest set to sample from
    # with m = n the score is the total variance of every point
    assert cands[0].score == pytest.approx(ds.points.var(axis=0).sum(), rel=1e-12)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.integers(1, 12),
       st.sampled_from(["normal", "integer"]),
       st.one_of(st.tuples(st.just("shift"), st.floats(-1e8, 1e8)),
                 st.tuples(st.just("scale"), st.integers(-500, 400))))
def test_in_tree_score_within_its_rounding_bound(seed, n, d, kind, move):
    # the bound _score_chunk's docstring derives, for every center of a
    # chunk, against score_candidate's two-pass score of the same inliers;
    # integer data and centers make distances tie
    rng = np.random.default_rng(seed)
    X = (rng.normal(size=(n, d)) if kind == "normal"
         else rng.integers(-3, 4, size=(n, d)).astype(float))
    how, by = move
    ds = Dataset(X + by if how == "shift" else X * 2.0**by)
    ctx = mebo.recognition._FitContext(ds)
    L = ctx.dists.shape[0]
    C = (X[rng.integers(0, n, size=L)] + rng.normal(size=(L, d)) if kind == "normal"
         else rng.integers(-3, 4, size=(L, d)).astype(float))
    C = C + by if how == "shift" else C * 2.0**by
    m = int(rng.integers(1, n + 1))
    scores, _ = mebo.recognition._score_chunk(ctx, C, n - m, m)
    X = ds.points
    for c, score in zip(C, scores):
        ref, inliers = score_candidate(ds, c, m)
        q = float(np.einsum("ij,ij->", X[inliers], X[inliers]))
        assert abs(score - ref) <= (3 * n + d + 4) * 2.0**-52 * (q / m)


def test_equal_centers_share_one_score():
    ds, _ = gen_highdim(1000, 20, 0.1, 0)
    cands = boost_forest(ds, Params(gamma=0.1, seed=0, forest_size=2))
    first = {}
    for cand in cands:
        assert cand.score == first.setdefault(cand.center.tobytes(), cand.score)
    assert len(first) < len(cands) // 10  # most nodes repeat a center


def test_each_center_scored_once(monkeypatch):
    """Record the centers of every distance block and the depth of every
    ball computation: a layer's blocks are the ones after its centers."""
    events = []
    meb, dists = mebo.recognition.approx_meb_center, mebo.recognition.expanded_sq_dists

    def record_meb(points, iters):
        if not events or events[-1][1] or events[-1][0] != len(points):
            events.append((len(points), []))
        return meb(points, iters)

    def record_dists(X, sqn, C, out=None):
        events[-1][1].extend(c.tobytes() for c in C)
        return dists(X, sqn, C, out=out)

    monkeypatch.setattr(mebo.recognition, "approx_meb_center", record_meb)
    monkeypatch.setattr(mebo.recognition, "expanded_sq_dists", record_dists)
    ds, _ = gen_highdim(1000, 20, 0.1, 1)
    p = Params(gamma=0.1, seed=3)
    dp = derive_params(p, ds.n)
    recognize(ds, p)
    scored = set()
    leaf_rows = 0
    for depth, rows in events:
        assert len(set(rows)) == len(rows)
        if depth == dp.h:
            assert scored.isdisjoint(rows)
            leaf_rows += len(rows)
        scored.update(rows)
    assert leaf_rows > 0


def test_recognize_winner_is_first_minimum():
    ds = planted(150, 50, 4, seed=14)
    p = Params(gamma=0.25, seed=6, forest_size=1, sequential_rounds=2)
    cands = boost_sequential(ds, p)
    best = min(range(len(cands)), key=lambda i: cands[i].score)
    res = recognize(ds, p)
    assert res.candidates_evaluated == len(cands)
    assert res.ball.center.tobytes() == cands[best].center.tobytes()


def test_chunk_size_changes_no_result(monkeypatch):
    # unshifted normal data: the one-pass in-tree score has no
    # cancellation to expose, so only summation order can differ
    ds = Dataset(np.random.default_rng(9).normal(size=(600, 8)))
    p = Params(gamma=0.1, seed=2, forest_size=2)
    rules = ((0, 0, 1),  # one center per chunk
             (0, mebo.recognition._CHUNK_PER_DIM, ds.d),  # the d floor binds
             (mebo.recognition._CHUNK_BYTES, mebo.recognition._CHUNK_PER_DIM,
              mebo.recognition._CHUNK_PER_DIM * ds.d))  # the default
    runs = []
    for chunk_bytes, per_dim, rows in rules:
        monkeypatch.setattr(mebo.recognition, "_CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(mebo.recognition, "_CHUNK_PER_DIM", per_dim)
        assert mebo.recognition._FitContext(ds).dists.shape[0] == rows
        runs.append((recognize(ds, p), boost_forest(ds, p)))
    (res0, cands0), others = runs[0], runs[1:]
    for res, cands in others:
        assert np.array_equal(res.inliers, res0.inliers)
        assert res.ball.center.tobytes() == res0.ball.center.tobytes()
        assert res.candidates_evaluated == res0.candidates_evaluated
        assert len(cands) == len(cands0)
        for a, b in zip(cands, cands0):
            assert a.path == b.path
            assert a.center.tobytes() == b.center.tobytes()
            assert a.score == pytest.approx(b.score, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n, d", [(1, 1), (10, 3), (10000, 2), (4500, 60), (20000, 100),
                                  (40000, 50), (5000, 200), (400000, 1)])
def test_fit_block_within_memory_bound(n, d):
    X = np.zeros((n, d))
    block = mebo.recognition._FitContext(Dataset(X)).dists
    assert block.shape[1] == n
    assert 1 <= block.shape[0] <= mebo.recognition._CHUNK_PER_DIM * d
    assert block.nbytes <= max(mebo.recognition._CHUNK_BYTES, X.nbytes)


def test_fit_holds_the_block_and_few_far_sets():
    # besides the data, a fit holds its distance block and the far sets of
    # the layers whose children draw again: at most s + 1 of them per tree,
    # plus the one its rows are drawing from; 1 MB covers the center keys,
    # the paths, the centers and split_far's scratch
    ds, _ = gen_toy_2d(0)
    p = Params(gamma=0.4, seed=0)
    dp = derive_params(p, ds.n)
    recognize(ds, p)  # numpy's lazy set-up is not the fit's
    tracemalloc.start()
    try:
        recognize(ds, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = mebo.recognition._FitContext(ds).dists.nbytes
    assert peak <= block + (dp.s + 2) * dp.k * 8 + (1 << 20)


def test_score_is_the_two_temporary_form():
    # score_candidate centers its gathered inliers in place, with the bits
    # of the form that centers a second copy
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        d = int(rng.integers(1, 9))
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        ds = Dataset(X)
        for m in (int(rng.integers(1, n + 1)), n):
            score, inliers = score_candidate(ds, rng.normal(size=d), m)
            diff = X[inliers] - X[inliers].mean(axis=0)
            assert score == float(np.einsum("ij,ij->i", diff, diff).mean())


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
    cands = grow_tree(ds, p, 17)

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
    again = grow_tree(ds, p, root)
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
    roots = mebo.recognition._random_roots(p.seed, ds.n, p.forest_size)
    cands = drive(ds, p, dp, roots)
    assert len(cands) == 21  # 3 trees of 7


def test_boost_sequential_round1_is_grow_tree():
    ds = planted(100, 25, 3, seed=13)
    p = Params(gamma=0.2, seed=4)
    cands = boost_sequential(ds, replace(p, sequential_rounds=0))
    root = cands[0].path[0]
    again = grow_tree(ds, p, root)
    assert [c.path for c in cands] == [c.path for c in again]
    assert all(np.array_equal(x.center, y.center) for x, y in zip(cands, again))


def test_boost_sequential_virtual_root():
    ds = planted(100, 25, 3, seed=13)
    p = Params(gamma=0.2, seed=4)
    dp = derive_params(p, ds.n)
    per_tree = sum(dp.s ** i for i in range(dp.h))
    cands = boost_sequential(ds, replace(p, sequential_rounds=1))
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
    c1 = boost_sequential(ds, replace(p, sequential_rounds=0))
    c3 = boost_sequential(ds, replace(p, sequential_rounds=2))
    assert min(c.score for c in c3) <= min(c.score for c in c1) + 1e-12


def test_boost_sequential_validation():
    # the round count is a Params field, refused where Params is made;
    # boost_sequential itself refuses a dataset too small for its Params
    with pytest.raises(DegenerateDatasetError):
        boost_sequential(Dataset([[0.0, 1.0]]), Params(gamma=0.1))


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


def test_recognize_toy2d_output_pinned():
    # the engine's output on a fixed input, so a change that moves a bit
    # of it shows; the inliers and the center follow from the tie rule and
    # elementwise arithmetic, the score's last bits from SIMD reductions
    res = recognize(gen_toy_2d(0)[0], Params(gamma=0.4, seed=0))
    digest = hashlib.sha256(res.inliers.astype(np.int64).tobytes()).hexdigest()[:16]
    assert digest == "4fd59640a81a0290"
    assert res.inliers.shape == (5400,)
    assert res.ball.center.tolist() == [float.fromhex("0x1.5618e9e823178p-3"),
                                        float.fromhex("0x1.bf3278fbc0410p-3")]
    assert res.candidates_evaluated == 11310
    assert res.score == pytest.approx(1.49104936620816, rel=1e-12)


# (epsilon, engine call) -> candidate count, digest of every path and
# center, then the sum, the position-weighted sum and the least score
_CANDIDATE_PINS = {
    (0.8, "grow_tree"): (156, "782c01cd46cc852e",
                         39684.454373573826, 3128189.4962361376, 5.287223464386832),
    (0.8, "boost_forest"): (624, "0e07138c2270b76c",
                            144030.84760140372, 41364954.41557359, 5.118908609424416),
    (0.8, "boost_sequential"): (468, "2f90dc47334bbd95",
                                104891.09840162165, 27710796.491833486, 5.18426091072423),
    (0.5, "grow_tree"): (1555, "4d66607eb142acd7",
                         375174.62949532724, 295406996.4756816, 5.12579945466762),
    (0.5, "boost_forest"): (6220, "1c28d5621f6948d0",
                            1520616.709960986, 4397234909.492522, 5.118908609424416),
    (0.5, "boost_sequential"): (4665, "3f6e27557ef1d466",
                                1266907.8848610707, 3182205481.936647, 5.131407151532255),
}


@pytest.mark.parametrize("epsilon, grow", list(_CANDIDATE_PINS))
def test_every_candidate_pinned(epsilon, grow):
    # every path and center bit for bit, in order, and the scores to
    # the last bits that SIMD reductions may move; epsilon 0.5 grows
    # five layers, so far sets are held across two of them
    ds = planted(340, 60, 6, seed=3)
    p = Params(gamma=0.15, epsilon=epsilon, delta=0.5, seed=4)
    count, digest, total, weighted, least = _CANDIDATE_PINS[epsilon, grow]
    cands = grow_tree(ds, p, 7) if grow == "grow_tree" else getattr(mebo, grow)(ds, p)
    h = hashlib.sha256()
    for c in cands:
        h.update(np.asarray(c.path, dtype=np.int64).tobytes())
        h.update(c.center.tobytes())
    scores = np.array([c.score for c in cands])
    assert len(cands) == count
    assert h.hexdigest()[:16] == digest
    assert scores.sum() == pytest.approx(total, rel=1e-12)
    assert scores @ np.arange(1, count + 1) == pytest.approx(weighted, rel=1e-12)
    assert scores.min() == pytest.approx(least, rel=1e-12)


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


def test_recognize_given_inlier_count():
    ds = planted(200, 50, 3, seed=19)
    p = Params(gamma=0.2, seed=3)
    res = recognize(ds, p, m=180)
    assert len(res.inliers) == 180
    assert res.ball.radius == k_smallest_distance(ds, res.ball.center, 180)


@pytest.mark.parametrize("m", [0, 251, 2.5, True])
def test_recognize_refuses_bad_inlier_count(m):
    ds = planted(200, 50, 3, seed=19)
    with pytest.raises(InvalidParamsError):
        recognize(ds, Params(gamma=0.2, seed=3), m=m)


def test_recognize_gamma_zero_plain_ball():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(60, 4))
    ds = Dataset(X)
    res = recognize(ds, Params(gamma=0.0, seed=0))
    assert np.array_equal(res.inliers, np.arange(60))
    cover = np.linalg.norm(X - res.ball.center, axis=1).max()
    assert res.ball.radius == pytest.approx(cover, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_gamma_zero_centers_share_one_score(seed):
    # with k = 0 every center keeps all n points, so the first root wins,
    # not whichever center rounding favoured, with the score reported
    ds = Dataset(np.random.default_rng(seed).normal(size=(500, 5)) + 3.0)
    p = Params(gamma=0.0, seed=seed)
    cands = boost_forest(ds, p) + boost_sequential(ds, p)
    assert len({c.score for c in cands}) == 1
    res = recognize(ds, p)
    assert res.ball.center.tobytes() == cands[0].center.tobytes()
    assert res.score == cands[0].score


def test_recognize_tie_heavy_integer_data():
    rng = np.random.default_rng(21)
    X = rng.integers(-3, 4, size=(120, 2)).astype(float)
    ds = Dataset(X)
    p = Params(gamma=0.3, seed=5)
    res1 = recognize(ds, p)
    res2 = recognize(ds, p, threads=3)
    assert np.array_equal(res1.inliers, res2.inliers)
    assert res1.score == res2.score


def test_coordinates_whose_squares_overflow_rejected():
    X = np.random.default_rng(0).normal(size=(50, 3))
    p = Params(gamma=0.2, seed=0)
    # a named error before any tree grows, not an infinite radius and score
    with pytest.raises(MeboError, match="at most"):
        recognize(Dataset(X * 1e155), p)
    with pytest.raises(MeboError, match="at most"):
        peel(Dataset(X * 1e155), ClassSpec(fractions=(0.4, 0.4)), p)
    # inside the limit the fit keeps the inliers of the unscaled data
    assert np.array_equal(recognize(Dataset(X * 1e150), p).inliers,
                          recognize(Dataset(X), p).inliers)


def test_public_ops_refuse_coordinates_whose_squares_overflow():
    X = np.random.default_rng(0).normal(size=(50, 3))
    c = X.mean(axis=0)
    # the data is refused when the Dataset is made (test_core), and a
    # center past the same limit by each op, with that message, not inf
    for op in (top_k_farthest, score_candidate, k_smallest_distance):
        with pytest.raises(MeboError, match=r"center coordinates must be at most "
                                            r"5\.47371e\+152 .* 50 points"):
            op(Dataset(X), c * 1e155, 10)
    # inside the limit each op keeps the inliers of the unscaled data
    big = Dataset(X * 1e150)
    assert np.array_equal(top_k_farthest(big, c * 1e150, 10)[0],
                          top_k_farthest(Dataset(X), c, 10)[0])
    score, inliers = score_candidate(big, c * 1e150, 40)
    assert np.isfinite(score)
    assert np.array_equal(inliers, score_candidate(Dataset(X), c, 40)[1])
    assert np.isfinite(k_smallest_distance(big, c * 1e150, 40))


def test_candidate_inliers_lazy():
    ds = planted(60, 20, 2, seed=22)
    cands = grow_tree(ds, Params(gamma=0.1, seed=0), 0)
    assert all(isinstance(c, Candidate) for c in cands)
