"""Randomized candidate-tree growth, scoring, boosting, and final selection.

A tree node carries the approximate enclosing-ball center of the points
along its root-to-node path.  Children are sampled from the k points
farthest from that center, so paths chase whatever the current center
fails to cover.  Every node contributes one candidate, scored by the
total variance of the m points nearest its center.

One loop grows every fit: a tree per dataset root, then sequential
rounds that re-root at the best center so far.  recognize,
boost_forest, boost_sequential and grow_tree differ only in the roots
and the number of rounds they hand it.

A node's score and far set depend on its center alone, and most nodes
repeat a center: a child whose new point is no farther from the root
keeps its parent's center bit for bit.  So scoring costs O(n*d) per
distinct center, and nodes with equal centers share one score, the
first the fit computed for that center.  The winner is picked where
that score enters the memo: a center wins if its score is below every
earlier one, and centers enter in the order of their first node, so the
winner is the first candidate with the least score.  A tree layer's
centers are computed first, one approx_meb_center call per node on its
path's points, which are gathered a bounded slice of the layer at a
time.  One table per layer, from a center's bytes to the ascending rows
with that center, gives the distinct centers that need a score or a far
set and the rows that draw from each far set.  Those centers are
stacked and scored a chunk at a time, and a chunk holds at least d
centers: one GEMM gives the chunk's expanded squared distances, the
selection module's split_far turns each row into its 0/1 split at the k
farthest points, and one GEMM of those splits with X (and one with the
squared norms) gives every center's inlier sums s1 and q, so its score
q/m - |s1/m|^2.  So X is streamed twice per chunk, not twice per node;
summing each center's far rows by a gather instead was 3.5-15 times
slower per center than that GEMM.
The nodes of an internal layer draw their children as soon as their
center's far set exists.  A far set is kept for the next layer only
when that layer draws too, so a child with its parent's center is not
split again, and a far set of the last internal layer lives only while
its nodes draw.
A node's split is the one top_k_farthest makes, by construction: both
go through split_far, which places the few points that rounding of the
expanded distance could move across the pivot by their direct distance
and the tie rule (lower index enters the far set).  A child is drawn by
its index into its parent's far set less the path, found by binary
search, so no pool of candidates is built per node.  Each node's
children are drawn from its own stream and noted by its row; the next
layer's paths are then assembled once, in row order, each parent's path
repeated once per child with the children as the last column.

Randomness: every node owns a stream keyed by (tree id, shifted path),
spawned from the user seed, so results depend on the input and the seed
only, and not on the order in which nodes are scored.  Growth is
breadth first.  numpy's BLAS is the only parallel layer (size it with
e.g. OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Ball,
    Candidate,
    Dataset,
    DerivedParams,
    Params,
    RecognitionResult,
    as_int,
    check_center,
    derive_params,
)
from .meb import approx_meb_center
from .selection import (
    expanded_sq_dists,
    k_smallest_distance,
    split_far,
    top_k_farthest,
)

__all__ = [
    "grow_tree",
    "score_candidate",
    "boost_forest",
    "boost_sequential",
    "recognize",
]

# stream id for root selection; node streams start with a small tree id
_DRIVER_KEY = 0xFFFFFFFF


def make_node_rng(seed: int, rng_stream: tuple) -> np.random.Generator:
    """The random stream owned by a node, derived from the run seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=rng_stream)
    return np.random.default_rng(ss)


def node_stream_key(tree_id: int, path) -> tuple:
    """Stream identity for a node: tree id plus the path shifted by one.

    The shift keeps index 0 distinct from the reserved driver stream and
    from tree ids themselves.
    """
    return (tree_id, *[i + 1 for i in np.asarray(path).tolist()])


def _random_roots(seed: int, n: int, size: int) -> np.ndarray:
    """size distinct dataset rows drawn from the root-selection stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_DRIVER_KEY,))
    return np.random.default_rng(ss).choice(n, size=size, replace=False)


# A chunk of centers is scored in one distance block.  Its two GEMMs
# stream all of X, so a chunk holds at least d centers: with fewer, the
# products are bound by memory bandwidth and each center pays for a
# growing share of a pass over X as n grows.  Past that floor the block
# fills up to 3 MiB, and it holds at most 8 centers per coordinate: on
# few coordinates a bigger block saves no time, and BLAS would run its
# products on threads that only add CPU time.  So the block (rows x n)
# is never larger than max(3 MiB, X.nbytes), and a fit's memory stays
# O(n*d).
_CHUNK_BYTES = 3 << 20
_CHUNK_PER_DIM = 8
# A layer's path points are gathered this many bytes at a time: one
# gather per slice instead of one per node, in a buffer that stays small
# next to the distance block, whatever the layer's size.
_GATHER_BYTES = 1 << 16


class _FitContext:
    """Per-run precomputed squared norms shared by every tree of a run,
    the distance block every chunk of centers is scored in, the first
    score computed for each center, keyed by the center's bytes, and the
    winner so far with its score."""

    def __init__(self, ds: Dataset):
        X = ds.points
        n, d = X.shape
        self.X = X
        self.sqn = np.einsum("ij,ij->i", X, X)
        rows = min(max(_CHUNK_BYTES // (8 * n), d), _CHUNK_PER_DIM * d)
        self.dists = np.empty((max(1, rows), n))
        self.scores, self.best, self.best_score = {}, None, math.inf


def _score_chunk(ctx: _FitContext, C: np.ndarray, k: int, m: int):
    """Scores of the centers C (L x d) and, when k > 0, their 0/1 splits
    (L x n, 0.0 at each center's k farthest points, written over ctx's
    distance block).

    The score is the total variance of a center's m nearest points from
    their sums s1 = sum x and q = sum |x|^2 alone, q/m - |s1/m|^2 clamped
    at 0.  To first order, with u = 2^-53, V the exact score and
    M = |s1/m|^2 = q/m - V: q/m is off by (n + d)u q/m, M by
    2(n - 1)u q/m + (d + 2)u M (Cauchy-Schwarz), the difference by uV and
    score_candidate's two passes by (m + d + 2)u V, so the two differ by
    at most (3n + d + 4) 2^-52 q/m.  With k == 0 every center gets X's
    total variance, in score_candidate's two passes.
    """
    if k == 0:
        dev = ctx.X - ctx.X.mean(axis=0)
        return np.full(C.shape[0], float(np.einsum("ij,ij->i", dev, dev).mean())), None
    E = expanded_sq_dists(ctx.X, ctx.sqn, C, out=ctx.dists[:C.shape[0]])
    near = split_far(ctx.X, C, E, k)
    mean = (near @ ctx.X) / m
    scores = (near @ ctx.sqn) / m - np.einsum("ij,ij->i", mean, mean)
    return np.where(scores > 0.0, scores, 0.0), near


def _path_centers(X: np.ndarray, paths: np.ndarray, iters: int,
                  point: np.ndarray) -> np.ndarray:
    """The MEB center of each path's points, one row per path.

    The points are gathered one bounded slice of paths at a time, into
    one buffer per slice: every path's points lead with point, the
    tree's root, and the rest are rows of X.
    """
    L, depth = paths.shape
    C = np.empty((L, X.shape[1]))
    step = max(1, _GATHER_BYTES // (8 * depth * X.shape[1]))
    for a in range(0, L, step):
        rows = paths[a:a + step]
        P = np.empty((len(rows), depth, X.shape[1]))
        P[:, 0] = point
        P[:, 1:] = X[rows[:, 1:]]
        C[a:a + step] = [approx_meb_center(pts, iters) for pts in P]
    return C


def _draw_children(seed: int, tree_id: int, far: np.ndarray, path: np.ndarray,
                   s: int) -> np.ndarray:
    """Up to s distinct points of the far set that are not on the path,
    drawn from the node's own stream; empty when none is left.

    far is nonempty and ascending.  The draw is the one
    rng.choice(far[~np.isin(far, path)], take, replace=False) makes,
    without building that pool: the at most len(path) path points in far
    are found by binary search, and an index j into the pool is index
    j + r into far, r the number of those points at or before it.
    """
    on = far.searchsorted(path)
    on = on[far.take(on, mode="clip") == path]
    size = far.shape[0] - on.shape[0]
    take = min(s, size)
    if take == 0:
        return np.empty(0, dtype=np.int64)
    j = make_node_rng(seed, node_stream_key(tree_id, path)).choice(size, take, replace=False)
    if on.shape[0]:
        on.sort()
        j += (on - np.arange(on.shape[0])).searchsorted(j, side="right")
    return far[j]


def _grow(ctx: _FitContext, p: Params, dp: DerivedParams, root: int, point: np.ndarray,
          tree_id: int):
    """Grow one tree breadth first, yielding each layer as (paths,
    centers): one row per node, in layer order.

    root is the root's row number (a dataset row, or >= n for a virtual
    root), which keys the streams and leads the paths; point is the
    root itself, which leads every path's points in the ball
    computation.  Each layer keeps one table, from center bytes to the
    ascending rows with that center; the centers scored and the draws
    read it.  A layer that does not draw scores the centers the fit has
    not scored yet; a layer that draws scores every center whose far set
    the previous layer did not hold.  A center's first score enters
    ctx.scores, and ctx.best with it.  Each node's children are drawn
    from its own stream, from its center's far set less its own path
    points, as soon as that far set exists: first from the previous
    layer's far sets, which are then let go, then from each chunk's.  A
    far set is held for the next layer only when that layer draws too.
    """
    X, iters, k = ctx.X, p.meb_iter_count, dp.k
    step = ctx.dists.shape[0]
    paths = np.array([[root]], dtype=np.int64)
    held = {}  # far sets of the previous layer's centers, by center bytes
    for depth in range(1, dp.h + 1):
        internal = depth < dp.h and k > 0
        C = _path_centers(X, paths, iters, point)
        rows = {}  # center bytes -> the ascending rows with that center
        for i, c in enumerate(C):
            rows.setdefault(c.tobytes(), []).append(i)
        kids = {}  # row -> its children

        def draw(key, far):
            for i in rows[key]:
                # paths never repeat a point
                kids[i] = _draw_children(p.seed, tree_id, far, paths[i], dp.s)

        for key in rows:  # held is empty unless this layer draws
            if key in held:
                draw(key, held[key])
        todo = [key for key in rows if key not in (held if internal else ctx.scores)]
        held = {}  # this layer's far sets that the next layer draws from
        for a in range(0, len(todo), step):
            chunk = todo[a:a + step]
            scores, near = _score_chunk(ctx, C[[rows[key][0] for key in chunk]], k, dp.m)
            for j, key in enumerate(chunk):
                if key not in ctx.scores:
                    ctx.scores[key] = score = float(scores[j])
                    if score < ctx.best_score:
                        ctx.best, ctx.best_score = C[rows[key][0]], score
                if internal:
                    far = np.flatnonzero(near[j] == 0.0)
                    draw(key, far)
                    if depth + 1 < dp.h:  # the next layer draws too
                        held[key] = far
        yield paths, C
        if not internal:
            break
        # the next layer is each row's path extended by one child, in row
        # order; each node draws from its own stream, so the order in
        # which rows drew changes nothing
        kids = [kids[i] for i in range(len(C))]
        sizes = [c.shape[0] for c in kids]
        if not any(sizes):
            break
        paths = np.column_stack((np.repeat(paths, sizes, axis=0), np.concatenate(kids)))


def _drive(ds: Dataset, p: Params, dp: DerivedParams, roots, rounds: int,
           out: list | None = None):
    """Grow one tree per dataset root, then `rounds` sequential rounds,
    each rooted at the winner so far, and return the winner _grow keeps
    and the number of candidates.

    When out is a list, every candidate is appended to it in order, with
    its center's score from the memo.  Tree ids count up from 0 over the
    roots and then the rounds.  Round j's virtual root is row n + j, a
    number that keys the random streams of that round's nodes.
    """
    ctx = _FitContext(ds)
    count = 0
    for t in range(len(roots) + rounds):
        root = int(roots[t]) if t < len(roots) else ds.n + t - len(roots)
        point = ds.points[root] if root < ds.n else ctx.best
        for paths, C in _grow(ctx, p, dp, root, point, t):
            count += len(C)
            if out is not None:
                out.extend(Candidate(center=c, path=tuple(int(v) for v in path if v < ds.n),
                                     score=ctx.scores[c.tobytes()]) for path, c in zip(paths, C))
    return ctx.best, count


def _candidates(ds: Dataset, p: Params, roots, rounds: int) -> list:
    """Every candidate of the trees _drive grows from roots and rounds."""
    cands = []
    _drive(ds, p, derive_params(p, ds.n), roots, rounds, out=cands)
    return cands


def grow_tree(ds: Dataset, p: Params, root_index: int) -> list:
    """All candidates of one tree rooted at a dataset point."""
    return _candidates(ds, p, [as_int("root_index", root_index, 0, ds.n - 1)], 0)


def score_candidate(ds: Dataset, center, m: int):
    """Total variance of the m dataset points nearest to center.

    Returns (score, inliers).  The inliers are the complement of the
    top-(n-m) farthest set under the documented tie rule, reported in
    ascending index order.  The score is the mean squared distance of
    those points to their own centroid (trace of their covariance),
    computed in a plain two-pass fashion.
    """
    m = as_int("m", m, 1, ds.n)
    c = check_center(ds, center)
    if m == ds.n:
        inliers = np.arange(ds.n)
    else:
        top, _ = top_k_farthest(ds, c, ds.n - m)
        inliers = np.delete(np.arange(ds.n), top)
    # the gather is a copy, so it is centered in place: a second m x d
    # array would set the peak memory of a fit
    pts = ds.points[inliers]
    pts -= pts.mean(axis=0)
    score = float(np.einsum("ij,ij->i", pts, pts).mean())
    return score, inliers


def boost_forest(ds: Dataset, p: Params) -> list:
    """Candidates of forest_size trees grown from distinct random roots."""
    return _candidates(ds, p, _random_roots(p.seed, ds.n, min(p.forest_size, ds.n)), 0)


def boost_sequential(ds: Dataset, p: Params) -> list:
    """Candidates of 1 + sequential_rounds trees: one from a random
    dataset point, then rounds rooted at the winner so far, a virtual
    point that leads every path's ball computation but never appears
    among reported path indices."""
    return _candidates(ds, p, _random_roots(p.seed, ds.n, 1), p.sequential_rounds)


def recognize(ds: Dataset, p: Params, *, threads: int = 1,
              m: int | None = None) -> RecognitionResult:
    """Full pipeline: forest boosting, sequential rounds, winner selection.

    Deterministic given p (seed included): the winner is the first
    candidate attaining the minimum score, its ball radius is the
    distance to its m-th nearest point, and its inlier set and score
    are re-derived with the public scoring op.  m is the inlier count
    derive_params(p, ds.n, m) gives; a given m in [1, n] sets k = n - m.

    threads has no effect: numpy's BLAS is the only parallel layer.  It
    is still accepted because callers pass it, perfbench/worker.py
    among them, just as the CLI keeps --threads as a no-op flag.
    """
    dp = derive_params(p, ds.n, m)
    roots = _random_roots(p.seed, ds.n, min(p.forest_size, ds.n))
    center, count = _drive(ds, p, dp, roots, p.sequential_rounds)
    score, inliers = score_candidate(ds, center, dp.m)
    radius = k_smallest_distance(ds, center, dp.m)
    ball = Ball(center=center, radius=radius)
    return RecognitionResult(ball=ball, inliers=inliers,
                             candidates_evaluated=count, score=score)
