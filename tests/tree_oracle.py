"""Per-node tree expansion: a second, node-at-a-time implementation of
what the engine in mebo.recognition does a layer at a time.

Tests use it as an oracle: run as a manual breadth-first search it must
rebuild grow_tree's tree exactly, and it exposes one node's children
for sampling-rate checks.
"""

from dataclasses import dataclass

import numpy as np

from mebo import approx_meb_center, top_k_farthest
from mebo.recognition import node_stream_key


@dataclass(frozen=True)
class TreeNode:
    """One tree node: its path, depth, attached center, and rng identity."""

    path: tuple
    depth: int
    center: np.ndarray
    rng_stream: tuple


def expand_node(ds, node: TreeNode, dp, rng: np.random.Generator, *,
                meb_iters: int = 1) -> list:
    """Children of one node: sample s indices from its top-k set.

    Indices already on the path are excluded so paths never repeat a
    point; the sample size is capped by what remains.  Child centers
    are recomputed over the extended path.
    """
    if node.depth >= dp.h or dp.k == 0:
        return []
    topk, _ = top_k_farthest(ds, node.center, dp.k)
    pool = np.setdiff1d(topk, np.asarray(node.path, dtype=np.int64))
    take = min(dp.s, pool.shape[0])
    if take == 0:
        return []
    chosen = rng.choice(pool, size=take, replace=False)
    tree_id = node.rng_stream[0] if node.rng_stream else 0
    children = []
    for c_idx in chosen:
        cpath = node.path + (int(c_idx),)
        center = approx_meb_center(ds.points[np.array(cpath)], meb_iters)
        children.append(TreeNode(path=cpath, depth=node.depth + 1, center=center,
                                 rng_stream=node_stream_key(tree_id, cpath)))
    return children
