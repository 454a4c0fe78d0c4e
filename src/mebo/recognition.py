"""Randomized candidate-tree growth, scoring, boosting, and final selection.

A tree node carries the approximate enclosing-ball center of the points
along its root-to-node path.  Children are sampled from the k points
farthest from that center, so paths chase whatever the current center
fails to cover.  Every node contributes one candidate; the candidate
whose m nearest points have the smallest total variance wins.

One loop grows every fit: a tree per dataset root, then sequential
rounds that re-root at the best center so far.  recognize,
boost_forest, boost_sequential and grow_tree differ only in the roots
and the number of rounds they hand it.

A node's score and far set depend on its center alone, and most nodes
repeat a center: a child whose new point is no farther from the root
keeps its parent's center bit for bit.  So scoring costs O(n*d) per
distinct center, and nodes with equal centers share one score, the
first the fit computed for that center.  A tree layer's centers are
computed first, one approx_meb_center call per node on its path's
points, which are gathered a bounded slice of the layer at a time.
The distinct centers the fit has not scored yet are stacked and scored
a chunk at a time, and a chunk holds at least d centers: one GEMM
gives the chunk's expanded squared distances, the selection module's
split_far turns each row into its 0/1 split at the k farthest points,
and one GEMM of those splits with X (and one with the squared norms)
gives every center's inlier sums.  So X is streamed twice per chunk,
not twice per node; summing each center's far rows by a gather instead
was 3.5-15 times slower per center than that GEMM.  The far sets of an
internal layer's centers are kept until the next layer is grown, so a
child with its parent's center is not split again.  A node's split is the
one top_k_farthest makes, by construction: both go through split_far,
which places the few points that rounding of the expanded distance
could move across the pivot by their direct distance and the tie rule
(lower index enters the far set).  A child is drawn by its index into
its parent's far set less the path, found by binary search, so no
pool of candidates is built per node.  Each node's children are drawn
from its own stream and noted as (parent row, child) pairs; the next
layer's paths are then assembled once, the parents' paths gathered by
row with the children as their last column.

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
    derive_params,
)
from .meb import approx_meb_center
from .selection import (
    check_center,
    check_magnitude,
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
    """Per-run precomputed arrays shared by every tree of a run, the
    distance block every chunk of centers is scored in, and the first
    score computed for each center, keyed by the center's bytes."""

    def __init__(self, ds: Dataset):
        X = ds.points
        check_magnitude(X)
        n, d = X.shape
        self.X = X
        self.n = n
        self.sqn = np.einsum("ij,ij->i", X, X)
        self.Sx = X.sum(axis=0)
        self.S_sqn = float(self.sqn.sum())
        rows = min(max(_CHUNK_BYTES // (8 * n), d), _CHUNK_PER_DIM * d)
        self.dists = np.empty((max(1, rows), n))
        self.scores = {}


def _score_chunk(ctx: _FitContext, C: np.ndarray, k: int, m: int):
    """Scores of the centers C (L x d) and, when k > 0, their 0/1 splits
    (L x n, 0.0 at each center's k farthest points, written over ctx's
    distance block).

    The score is the total variance of the m points nearest to a center
    c, from their sums s1 = sum x and q = sum |x|^2:
    (q - 2 c.s1)/m + |c|^2 - |s1/m - c|^2.  One GEMM gives the chunk's
    distances and one GEMM of its splits with X gives the sums.
    """
    if k == 0:
        near, s1, q = None, np.broadcast_to(ctx.Sx, C.shape), ctx.S_sqn
    else:
        E = expanded_sq_dists(ctx.X, ctx.sqn, C, out=ctx.dists[:C.shape[0]])
        near = split_far(ctx.X, C, E, k)
        s1, q = near @ ctx.X, near @ ctx.sqn
    dd = s1 / m - C
    scores = ((q - 2.0 * np.einsum("ij,ij->i", C, s1)) / m
              + np.einsum("ij,ij->i", C, C) - np.einsum("ij,ij->i", dd, dd))
    return np.where(scores > 0.0, scores, 0.0), near


def _path_centers(X: np.ndarray, paths: np.ndarray, iters: int,
                  head: np.ndarray | None) -> np.ndarray:
    """The MEB center of each path's points, one row per path.

    The points are gathered one bounded slice of paths at a time; a
    virtual root's row number is not a row of X, so with head given
    column 0 of every path holds head instead.
    """
    L, depth = paths.shape
    C = np.empty((L, X.shape[1]))
    step = max(1, _GATHER_BYTES // (8 * depth * X.shape[1]))
    for a in range(0, L, step):
        if head is None:
            P = X[paths[a:a + step]]
        else:
            P = np.empty((min(step, L - a), depth, X.shape[1]))
            P[:, 0] = head
            P[:, 1:] = X[paths[a:a + step, 1:]]
        C[a:a + step] = [approx_meb_center(pts, iters) for pts in P]
    return C


def _draw_children(seed: int, tree_id: int, far: np.ndarray, path: np.ndarray,
                   s: int) -> np.ndarray | None:
    """Up to s distinct points of the far set that are not on the path,
    drawn from the node's own stream, or None when none is left.

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
        return None
    j = make_node_rng(seed, node_stream_key(tree_id, path)).choice(size, take, replace=False)
    if on.shape[0]:
        on.sort()
        j += (on - np.arange(on.shape[0])).searchsorted(j, side="right")
    return far[j]


def _grow(ctx: _FitContext, p: Params, dp: DerivedParams, root: int, tree_id: int,
          head: np.ndarray | None = None):
    """Grow one tree breadth first, yielding each layer as (paths,
    centers, scores): one row per node, in layer order.

    root is a dataset row, or a row number >= n standing for the virtual
    point head.  A virtual root leads every path's points in the ball
    computation but never appears among reported path indices.  Only
    the layer's distinct centers that need a score (none yet in the
    fit) or a far set (an internal layer's center that the previous
    layer did not split) are scored; a center scored again for its far
    set keeps its first score.  Each node's children are drawn from its
    own stream, from its center's far set less its own path points.
    """
    X, iters, k = ctx.X, p.meb_iter_count, dp.k
    step = ctx.dists.shape[0]
    paths = np.array([[root]], dtype=np.int64)
    held = {}  # far sets of the previous layer's centers, by center bytes
    for depth in range(1, dp.h + 1):
        internal = depth < dp.h and k > 0
        C = _path_centers(X, paths, iters, head)
        first = {}  # center bytes -> the first row with that center
        rep = [first.setdefault(c.tobytes(), i) for i, c in enumerate(C)]
        todo = [(key, i) for key, i in first.items()
                if key not in ctx.scores or (internal and key not in held)]
        fars = {}
        for a in range(0, len(todo), step):
            chunk = todo[a:a + step]
            scores, near = _score_chunk(ctx, C[[i for _, i in chunk]], k, dp.m)
            for j, (key, _) in enumerate(chunk):
                ctx.scores.setdefault(key, float(scores[j]))
                if internal:
                    fars[key] = np.flatnonzero(near[j] == 0.0)
        score = [0.0] * len(rep)  # by the first row with each center
        for key, i in first.items():
            score[i] = ctx.scores[key]
        yield paths, C, [score[i] for i in rep]
        if not internal:
            break
        far = [None] * len(rep)  # by the first row with each center
        for key, i in first.items():
            far[i] = fars.setdefault(key, held.get(key))
        # the next layer is each parent row's path extended by one child
        parents, kids = [], []
        for i, path in enumerate(paths):
            # paths never repeat a point
            chosen = _draw_children(p.seed, tree_id, far[rep[i]], path, dp.s)
            if chosen is not None:
                parents += [i] * chosen.shape[0]
                kids.append(chosen)
        if not kids:
            break
        paths, held = np.column_stack((paths[parents], np.concatenate(kids))), fars


def _drive(ds: Dataset, p: Params, dp: DerivedParams, roots, rounds: int,
           out: list | None = None):
    """Grow one tree per dataset root, then `rounds` sequential rounds,
    each rooted at the best center found so far.

    Returns the best center (the first candidate attaining the minimum
    score) and the number of candidates; when out is a list, every
    candidate is appended to it in order.  Tree ids count up from 0
    over the roots and then the rounds.  Round j's virtual root is row
    n + j, a number that keys the random streams of that round's nodes.
    """
    ctx = _FitContext(ds)
    best, best_score, count = None, math.inf, 0
    for t in range(len(roots) + rounds):
        if t < len(roots):
            root, head = int(roots[t]), None
        else:
            root, head = ctx.n + t - len(roots), best
        for paths, C, scores in _grow(ctx, p, dp, root, t, head):
            i = scores.index(min(scores))
            if scores[i] < best_score:
                best, best_score = C[i], scores[i]
            count += len(scores)
            if out is not None:
                out.extend(Candidate(center=c, path=tuple(int(v) for v in path if v < ctx.n),
                                     score=s) for path, c, s in zip(paths, C, scores))
    return best, count


def grow_tree(ds: Dataset, p: Params, root_index: int) -> list:
    """All candidates of one tree rooted at a dataset point."""
    root = as_int("root_index", root_index, 0, ds.n - 1)
    cands = []
    _drive(ds, p, derive_params(p, ds.n), [root], 0, out=cands)
    return cands


def score_candidate(ds: Dataset, center, m: int):
    """Total variance of the m dataset points nearest to center.

    Returns (score, inliers).  The inliers are the complement of the
    top-(n-m) farthest set under the documented tie rule, reported in
    ascending index order.  The score is the mean squared distance of
    those points to their own centroid (trace of their covariance),
    computed in a plain two-pass fashion.
    """
    m = as_int("m", m, 1, ds.n)
    c = check_center(ds.points, center)
    if m == ds.n:
        inliers = np.arange(ds.n)
    else:
        top, _ = top_k_farthest(ds, c, ds.n - m)
        mask = np.ones(ds.n, dtype=bool)
        mask[top] = False
        inliers = np.flatnonzero(mask)
    # the gather is a copy, so it is centered in place: a second m x d
    # array would set the peak memory of a fit
    pts = ds.points[inliers]
    pts -= pts.mean(axis=0)
    score = float(np.einsum("ij,ij->i", pts, pts).mean())
    return score, inliers


def boost_forest(ds: Dataset, p: Params) -> list:
    """Candidates of forest_size trees grown from distinct random roots."""
    roots = _random_roots(p.seed, ds.n, min(p.forest_size, ds.n))
    cands = []
    _drive(ds, p, derive_params(p, ds.n), roots, 0, out=cands)
    return cands


def boost_sequential(ds: Dataset, p: Params) -> list:
    """Candidates of 1 + sequential_rounds trees, each after the first
    re-rooted at the best center so far.

    Round 1 grows from a random dataset point.  Later rounds root at the
    minimum-score candidate center found so far, treated as a virtual
    point that participates in every path's ball computation but never
    appears among reported path indices.
    """
    cands = []
    _drive(ds, p, derive_params(p, ds.n), _random_roots(p.seed, ds.n, 1),
           p.sequential_rounds, out=cands)
    return cands


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
    ball = Ball(center=np.array(center, dtype=np.float64), radius=radius)
    return RecognitionResult(ball=ball, inliers=inliers,
                             candidates_evaluated=count, score=score)
