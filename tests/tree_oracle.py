"""Per-node tree expansion: a second, node-at-a-time implementation of
what the engine in mebo.recognition does a layer at a time.

Tests use it as an oracle: run as a manual breadth-first search it must
rebuild grow_tree's tree exactly, and it exposes one node's children
for sampling-rate checks.
"""

from dataclasses import dataclass

import numpy as np

from mebo import approx_meb_center, top_k_farthest


@dataclass(frozen=True)
class TreeNode:
    """One tree node: its path, depth and attached center."""

    path: tuple
    depth: int
    center: np.ndarray


def expand_node(ds, node: TreeNode, dp, rng: np.random.Generator, *,
                meb_iters: int = 1) -> list:
    """Children of one node: s points of its top-k set, off its path.

    rng is the tree's stream, and the nodes of a tree expand in
    breadth-first order.  An internal node takes min(k, s + depth)
    distinct positions into its ascending top-k set from rng; its
    children are the first s points at those positions that are not on
    the path, so paths never repeat a point.  Child centers are
    recomputed over the extended path.
    """
    if node.depth >= dp.h or dp.k == 0:
        return []
    topk, _ = top_k_farthest(ds, node.center, dp.k)
    far = np.sort(topk)
    picks = rng.choice(dp.k, min(dp.k, dp.s + node.depth), replace=False)
    chosen = [int(far[j]) for j in picks if far[j] not in node.path][:dp.s]
    children = []
    for c_idx in chosen:
        cpath = node.path + (c_idx,)
        center = approx_meb_center(ds.points[np.array(cpath)], meb_iters)
        children.append(TreeNode(path=cpath, depth=node.depth + 1, center=center))
    return children
