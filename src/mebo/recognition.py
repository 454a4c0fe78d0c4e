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

Scoring one node costs O(n*d): squared distances come from the shared
expanded-form routine (one matrix-vector product), the very computation
the public selection ops run, so a node's split and top_k_farthest
agree bit for bit even on tied data.  That matters more than it looks:
a one-step ball center lands exactly mid-way between two points, which
ties their distances, and any second distance formula would break the
tie differently.  An introselect splits the distances at position m and
only the smaller side of the split is gathered to accumulate the inlier
sums, in cache-sized blocks that give the one-piece sum's exact bits;
the other side follows from precomputed totals.  Pivot-distance
ties are detected by an exact strict-less count and resolved by the
selection module's tie rule (lower index enters the top-k set).

Randomness: every node owns a stream keyed by (tree id, shifted path),
spawned from the user seed, so results depend on the input and the seed
only.  Growth is breadth first; a layer's nodes are all scored before
its children are drawn.  The `threads` arguments are accepted for
compatibility and have no effect: numpy's BLAS is the only parallel
layer (size it with e.g. OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import numpy as np

from .core import (
    Ball,
    Candidate,
    Dataset,
    DerivedParams,
    InvalidParamsError,
    Params,
    RecognitionResult,
    derive_params,
)
from .meb import approx_meb_center
from .selection import (
    expanded_sq_dists,
    k_smallest_distance,
    top_k_at_pivot,
    top_k_farthest,
)

__all__ = [
    "make_node_rng",
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
    return (tree_id,) + tuple(int(i) + 1 for i in path)


def _random_roots(seed: int, n: int, size: int) -> np.ndarray:
    """size distinct dataset rows drawn from the root-selection stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_DRIVER_KEY,))
    return np.random.default_rng(ss).choice(n, size=size, replace=False)


class _FitContext:
    """Per-run precomputed arrays shared by every tree of a run."""

    def __init__(self, ds: Dataset):
        X = ds.points
        self.X = X
        self.n = X.shape[0]
        self.sqn = np.einsum("ij,ij->i", X, X)
        self.Sx = X.sum(axis=0)
        self.S_sqn = float(self.sqn.sum())


# rows gathered per block by _row_sum: about 256 KB, so a block and its
# running sum stay in cache instead of streaming a copy of X[rows]
_BLOCK_BYTES = 1 << 18


def _row_sum(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """X[rows].sum(axis=0), bit for bit, gathered a block at a time.

    With two or more columns, numpy's axis-0 sum and einsum("ij->j")
    both add the rows of a C-ordered block one after another, starting
    from zero.  So folding the running total into the first row of the
    next block repeats exactly the additions of the one-piece sum, and
    einsum does them with less overhead per row.  A single column is
    summed pairwise instead, so it is done in one piece.
    """
    if X.shape[1] < 2:
        return X.take(rows, axis=0).sum(axis=0)
    step = max(1, _BLOCK_BYTES // X[0].nbytes)
    acc = np.einsum("ij->j", X.take(rows[:step], axis=0))
    for start in range(step, rows.shape[0], step):
        block = X.take(rows[start:start + step], axis=0)
        block[0] += acc
        acc = np.einsum("ij->j", block)
    return acc


def _node_eval(ctx: _FitContext, c: np.ndarray, k: int, m: int, want_topk: bool):
    """Score one center; optionally return its top-k index set.

    The score is the total variance of the m points nearest to c,
    obtained from the inlier sums via mean|x-c|^2 - |centroid - c|^2.
    """
    cn = float(c @ c)
    topk = None
    if k == 0:
        s1 = ctx.Sx
        sum_d2 = ctx.S_sqn - 2.0 * float(ctx.Sx @ c) + ctx.n * cn
    else:
        d2s = expanded_sq_dists(ctx.X, ctx.sqn, c)
        idx = np.argpartition(d2s, m)
        pivot = float(d2s[idx[m]])
        nless = np.count_nonzero(d2s < pivot)
        if nless != m:  # pivot value straddles the split
            topk = top_k_at_pivot(d2s, pivot, k)
            mask = np.ones(ctx.n, dtype=bool)
            mask[topk] = False
            inl = np.flatnonzero(mask)
            s1 = _row_sum(ctx.X, inl)
            sum_d2 = float(d2s[inl].sum())
        elif m <= k:
            inl = idx[:m]
            s1 = _row_sum(ctx.X, inl)
            sum_d2 = float(d2s[inl].sum())
            if want_topk:
                topk = idx[m:]
        else:
            out = idx[m:]
            s1 = ctx.Sx - _row_sum(ctx.X, out)
            total = ctx.S_sqn - 2.0 * float(ctx.Sx @ c) + ctx.n * cn
            sum_d2 = total - float(d2s[out].sum())
            if want_topk:
                topk = idx[m:]
    cent = s1 / m
    dd = cent - c
    score = sum_d2 / m - float(dd @ dd)
    return (score if score > 0.0 else 0.0), topk


def _grow(ctx: _FitContext, p: Params, dp: DerivedParams, root: int, tree_id: int,
          head: np.ndarray | None = None) -> list:
    """Grow one tree breadth first; every node becomes a Candidate.

    root is a dataset row, or a row number >= n standing for the virtual
    point head.  A virtual root leads every path's points in the ball
    computation but never appears among reported path indices.
    """
    n, X, iters = ctx.n, ctx.X, p.meb_iter_count
    layer = [np.array([root], dtype=np.int64)]
    candidates = []
    for depth in range(1, dp.h + 1):
        internal = depth < dp.h and dp.k > 0
        evals = []
        for path in layer:
            pts = X[path] if head is None else np.vstack([head, X[path[1:]]])
            c = approx_meb_center(pts, iters)
            evals.append((c,) + _node_eval(ctx, c, dp.k, dp.m, internal))

        next_layer = []
        for path, (c, score, topk) in zip(layer, evals):
            real = tuple(path[path < n].tolist())
            candidates.append(Candidate(center=c, path=real, score=score))
            if not internal:
                continue
            pool_mask = np.zeros(n, dtype=bool)
            pool_mask[topk] = True
            pool_mask[path[path < n]] = False  # paths never repeat a point
            pool = np.flatnonzero(pool_mask)
            take = min(dp.s, pool.shape[0])
            if take == 0:
                continue
            rng = make_node_rng(p.seed, node_stream_key(tree_id, path))
            chosen = rng.choice(pool, size=take, replace=False)
            for child in chosen:
                next_layer.append(np.append(path, child))
        if not internal or not next_layer:
            break
        layer = next_layer
    return candidates


def _best_index(candidates) -> int:
    return min(range(len(candidates)), key=lambda i: candidates[i].score)


def _drive(ds: Dataset, p: Params, dp: DerivedParams, roots, rounds: int,
           first_tree: int = 0) -> list:
    """All candidates of a fit: one tree per dataset root, then `rounds`
    sequential rounds, each rooted at the best center found so far.

    Tree ids count up from first_tree over the roots and then the
    rounds.  Round j's virtual root is row n + j, a number that keys the
    random streams of that round's nodes.
    """
    ctx = _FitContext(ds)
    cands = []
    for t, r in enumerate(roots):
        cands.extend(_grow(ctx, p, dp, int(r), first_tree + t))
    for j in range(rounds):
        best = cands[_best_index(cands)]
        cands.extend(_grow(ctx, p, dp, ctx.n + j, first_tree + len(roots) + j,
                           best.center))
    return cands


def grow_tree(ds: Dataset, p: Params, root_index: int, *, tree_id: int = 0,
              derived: DerivedParams | None = None, threads: int = 1) -> list:
    """All candidates of one tree rooted at a dataset point."""
    if not (0 <= root_index < ds.n):
        raise InvalidParamsError(f"root_index must be in [0, {ds.n}), got {root_index}")
    dp = derived if derived is not None else derive_params(p, ds.n)
    return _drive(ds, p, dp, [root_index], 0, tree_id)


def score_candidate(ds: Dataset, center, m: int):
    """Total variance of the m dataset points nearest to center.

    Returns (score, inliers).  The inliers are the complement of the
    top-(n-m) farthest set under the documented tie rule, reported in
    ascending index order.  The score is the mean squared distance of
    those points to their own centroid (trace of their covariance),
    computed in a plain two-pass fashion.
    """
    if not (1 <= m <= ds.n):
        raise InvalidParamsError(f"m must be in [1, {ds.n}], got {m}")
    c = np.asarray(center, dtype=np.float64)
    if m == ds.n:
        inliers = np.arange(ds.n)
    else:
        top, _ = top_k_farthest(ds, c, ds.n - m)
        mask = np.ones(ds.n, dtype=bool)
        mask[top] = False
        inliers = np.flatnonzero(mask)
    pts = ds.points[inliers]
    centroid = pts.mean(axis=0)
    diff = pts - centroid
    score = float(np.einsum("ij,ij->i", diff, diff).mean())
    return score, inliers


def boost_forest(ds: Dataset, p: Params, *, threads: int = 1,
                 derived: DerivedParams | None = None) -> list:
    """Candidates of forest_size trees grown from distinct random roots."""
    dp = derived if derived is not None else derive_params(p, ds.n)
    return _drive(ds, p, dp, _random_roots(p.seed, ds.n, min(p.forest_size, ds.n)), 0)


def boost_sequential(ds: Dataset, p: Params, rounds: int, *, threads: int = 1,
                     derived: DerivedParams | None = None) -> list:
    """Sequential boosting: each round re-roots at the best center so far.

    Round 1 grows from a random dataset point.  Later rounds root at the
    minimum-score candidate center found so far, treated as a virtual
    point that participates in every path's ball computation but never
    appears among reported path indices.
    """
    if rounds < 1:
        raise InvalidParamsError(f"rounds must be >= 1, got {rounds}")
    dp = derived if derived is not None else derive_params(p, ds.n)
    return _drive(ds, p, dp, _random_roots(p.seed, ds.n, 1), rounds - 1)


def recognize(ds: Dataset, p: Params, *, threads: int = 1,
              derived: DerivedParams | None = None) -> RecognitionResult:
    """Full pipeline: forest boosting, sequential rounds, winner selection.

    Deterministic given p (seed included): the winner is the first
    candidate attaining the minimum score, its ball radius is the
    distance to its m-th nearest point, and its inlier set and score
    are re-derived with the public scoring op.
    """
    dp = derived if derived is not None else derive_params(p, ds.n)
    roots = _random_roots(p.seed, ds.n, min(p.forest_size, ds.n))
    cands = _drive(ds, p, dp, roots, p.sequential_rounds)
    winner = cands[_best_index(cands)]
    score, inliers = score_candidate(ds, winner.center, dp.m)
    radius = k_smallest_distance(ds, winner.center, dp.m)
    ball = Ball(center=np.array(winner.center, dtype=np.float64), radius=radius)
    return RecognitionResult(ball=ball, inliers=inliers,
                             candidates_evaluated=len(cands), score=score)
