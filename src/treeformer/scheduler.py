"""Level-synchronous execution plans for batched tree propagation.

Bottom-up groups hold nodes of equal height (all children already computed);
within a group, nodes are laid out in power-of-two child-count buckets with
explicit masks so the bottom-up unit runs as rectangular batched operations.
Top-down groups hold nodes of equal depth (parents already computed) in one
width-1 bucket without padding: the top-down unit is row-wise, so each row is
one node and its parent.

A plan is built from each tree's cached index arrays (``trees.tree_arrays``):
the batch concatenates them with row offsets and sorts once per direction,
bottom-up by (height, width, tree, reversed preorder), top-down by (depth,
tree, breadth-first order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import SyntaxTree, leaves, parent_map, tree_arrays


class DependencyViolation(Exception):
    pass


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class Bucket:
    """Rectangular layout for one child-count range within a group.

    Bottom-up, row ``b`` describes the children of ``parents[b]``; slots past
    the real child count are padding and carry mask 0. A group's buckets come
    in increasing width; rows within a bucket follow tree order, then reversed
    preorder within a tree. Top-down, the width is 1 and row ``b`` is one
    child, ``child_rows[b, 0]``, and its parent, in tree order, then
    breadth-first order within a tree.
    """

    width: int
    parents: np.ndarray  # [B] global rows of the parent nodes
    child_rows: np.ndarray  # [B, width] global rows, padded with 0
    mask: np.ndarray  # [B, width] 1.0 real / 0.0 padding
    child_counts: np.ndarray  # [B]
    parent_members: list  # [(tree_idx, node_id)] aligned with rows


@dataclass(frozen=True)
class Group:
    """One sequential step: the nodes whose states are produced here."""

    members: list  # [(tree_idx, node_id)]
    buckets: list


@dataclass(frozen=True)
class Schedule:
    """A batch's plan. Tree ``t``'s rows are ``row_index[t]``: its node ids in
    ascending order, numbered on from the rows of the trees before it."""

    bottom_up_levels: list  # Group per height 1..max_height
    top_down_levels: list  # Group per depth 2..max_depth
    row_index: list  # per tree: node_id -> global row
    n_rows: int
    max_depth: int


def _runs(key: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) of each run of equal values in a sorted array."""
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(key)]
    return list(zip(bounds[:-1], bounds[1:])) if len(key) else []


def build_schedule(batch: list[SyntaxTree]) -> Schedule:
    """Plan bottom-up then top-down execution for a batch of valid trees."""
    if not batch:
        raise ValueError("empty batch")
    arrays = tree_arrays(batch)
    sizes = np.array([len(a.ids) for a in arrays], dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n_rows = int(offsets[-1])
    tree_of = np.repeat(np.arange(len(batch)), sizes)
    base = offsets[:-1][tree_of]  # first row of each row's tree

    def cat(name):
        return np.concatenate([getattr(a, name) for a in arrays])

    ids, height, depth = cat("ids"), cat("height"), cat("depth")
    counts = np.concatenate([np.diff(a.child_ptr) for a in arrays])
    ptr = np.concatenate([[0], np.cumsum(counts)])
    child_idx = cat("child_idx") + np.repeat(offsets[:-1], [len(a.child_idx) for a in arrays])
    parent = cat("parent") + base  # read at non-root rows only
    row_index = [
        dict(zip(a.ids.tolist(), range(int(o), int(o) + len(a.ids))))
        for a, o in zip(arrays, offsets)
    ]

    def members(rows):
        return list(zip(tree_of[rows].tolist(), ids[rows].tolist()))

    # bottom-up: inner nodes sorted by (height, width, tree, reversed preorder)
    inner = np.flatnonzero(height)
    pow2 = np.array([_next_pow2(c) for c in range(int(counts.max(initial=0)) + 1)], np.intp)
    width = pow2[counts[inner]]
    up_key = (base + cat("up_rank"))[inner]
    order = np.lexsort((up_key, width, height[inner]))
    rows, row_width = inner[order], width[order]
    up_members = inner[np.lexsort((up_key, height[inner]))]
    up_parent_members = members(rows)
    bottom_up = []
    for lo, hi in _runs(height[rows]):
        buckets = []
        for a, b in _runs(row_width[lo:hi]):
            a, b = lo + a, lo + b
            parents, w = rows[a:b], int(row_width[a])
            n = counts[parents]
            slot = np.arange(w)
            real = slot < n[:, None]
            child_rows = np.zeros((b - a, w), dtype=np.intp)
            child_rows[real] = child_idx[(ptr[parents][:, None] + slot)[real]]
            buckets.append(
                Bucket(w, parents, child_rows, real.astype(np.float64), n, up_parent_members[a:b])
            )
        bottom_up.append(Group(members(up_members[lo:hi]), buckets))

    # top-down: non-roots sorted by (depth, tree, breadth-first order), one
    # width-1 bucket per depth
    nonroot = np.flatnonzero(depth > 1)
    down_key = (base + cat("down_rank"))[nonroot]
    rows = nonroot[np.lexsort((down_key, depth[nonroot]))]
    down_members = members(rows)
    down_parent_members = members(parent[rows])
    top_down = []
    for lo, hi in _runs(depth[rows]):
        kids = rows[lo:hi]
        bucket = Bucket(
            1,
            parent[kids],
            kids[:, None].copy(),
            np.ones((hi - lo, 1)),
            np.ones(hi - lo, dtype=np.intp),
            down_parent_members[lo:hi],
        )
        top_down.append(Group(down_members[lo:hi], [bucket]))

    return Schedule(
        bottom_up_levels=bottom_up,
        top_down_levels=top_down,
        row_index=row_index,
        n_rows=n_rows,
        max_depth=int(depth.max()),
    )


def check_schedule(schedule: Schedule, batch: list[SyntaxTree]) -> None:
    """Brute-force verification of every schedule invariant."""
    n_trees = len(batch)

    def fail(tree_idx, node_id, why):
        raise DependencyViolation(f"tree {tree_idx}, node {node_id}: {why}")

    # Bottom-up: children strictly before parents, every node exactly once.
    computed = {(t, nid) for t, tree in enumerate(batch) for nid in leaves(tree)}
    seen = set(computed)
    for group in schedule.bottom_up_levels:
        produced_here = set()
        for t, nid in group.members:
            if t >= n_trees or nid not in batch[t].nodes:
                fail(t, nid, "not part of the batch")
            if (t, nid) in seen:
                fail(t, nid, "scheduled twice in bottom-up order")
            for c in batch[t].node(nid).children:
                if (t, c) not in computed:
                    fail(t, nid, f"child {c} not computed yet")
            produced_here.add((t, nid))
            seen.add((t, nid))
        _check_buckets(group, batch, schedule, set(group.members), fail)
        computed |= produced_here
    every = {(t, nid) for t, tree in enumerate(batch) for nid in tree.nodes}
    if computed != every:
        t, nid = sorted(every - computed)[0]
        fail(t, nid, "never scheduled in bottom-up order")

    # Top-down: one width-1 bucket per depth whose row b pairs a non-root node
    # (child_rows[b, 0]) with its parent's row; parents strictly before
    # children, every non-root exactly once.
    parents = [parent_map(tree) for tree in batch]
    node_at = {
        row: (t, nid) for t, index in enumerate(schedule.row_index) for nid, row in index.items()
    }
    reached = {(t, tree.root) for t, tree in enumerate(batch)}
    seen_down = set()
    for level, group in enumerate(schedule.top_down_levels, start=2):
        bucket = group.buckets[0] if len(group.buckets) == 1 else None
        n = len(bucket.parent_members) if bucket else 0
        if bucket is None or bucket.child_rows.shape != (n, 1) or bucket.mask.shape != (n, 1):
            raise DependencyViolation(f"top-down level {level} is not one width-1 bucket")
        produced_here = set()
        for b in range(n):
            where = node_at.get(int(bucket.child_rows[b, 0]))
            if where is None or where[0] >= n_trees:
                raise DependencyViolation(f"top-down level {level}, row {b}: not a batch node")
            t, nid = where
            parent = parents[t].get(nid)
            if parent is None:
                fail(t, nid, "root listed in top-down order")
            if bucket.parent_members[b] != (t, parent):
                fail(t, nid, "bucket parent member mismatch")
            if bucket.parents[b] != schedule.row_index[t][parent]:
                fail(t, nid, "bucket parent row mismatch")
            if bucket.child_counts[b] != 1 or bucket.mask[b, 0] != 1.0:
                fail(t, nid, "top-down row masked out or miscounted")
            if (t, parent) not in reached:
                fail(t, nid, f"parent {parent} not computed yet")
            if (t, nid) in seen_down:
                fail(t, nid, "scheduled twice in top-down order")
            produced_here.add((t, nid))
            seen_down.add((t, nid))
        if len(group.members) != n or set(group.members) != produced_here:
            raise DependencyViolation(
                f"top-down level {level}: group members and bucket rows disagree"
            )
        reached |= produced_here
    all_nonroot = {
        (t, nid)
        for t, tree in enumerate(batch)
        for nid in tree.nodes
        if nid != tree.root
    }
    if seen_down != all_nonroot:
        t, nid = sorted(all_nonroot - seen_down)[0]
        fail(t, nid, "never scheduled in top-down order")

    # Sequential-step bound: one bottom-up and one top-down pass per level.
    expected = 2 * (schedule.max_depth - 1)
    actual = len(schedule.bottom_up_levels) + len(schedule.top_down_levels)
    if actual != expected:
        raise DependencyViolation(
            f"{actual} sequential groups for max depth {schedule.max_depth}, expected {expected}"
        )


def _check_buckets(group, batch, schedule, members, fail):
    covered = set()
    for bucket in group.buckets:
        for b, (t, pid) in enumerate(bucket.parent_members):
            kids = batch[t].node(pid).children
            if bucket.width < len(kids):
                fail(t, pid, "bucket narrower than child count")
            if bucket.child_counts[b] != len(kids):
                fail(t, pid, "bucket child count mismatch")
            if bucket.parents[b] != schedule.row_index[t][pid]:
                fail(t, pid, "bucket parent row mismatch")
            for j, c in enumerate(kids):
                if bucket.child_rows[b, j] != schedule.row_index[t][c]:
                    fail(t, pid, f"bucket child row mismatch at slot {j}")
                if bucket.mask[b, j] != 1.0:
                    fail(t, pid, f"real slot {j} masked out")
            if bucket.mask[b, len(kids):].any():
                fail(t, pid, "padding slot unmasked")
            covered.add((t, pid))
    if covered != members:
        t, nid = sorted(members.symmetric_difference(covered))[0]
        fail(t, nid, "group members and bucket rows disagree")


@dataclass(frozen=True)
class CostReport:
    attention_cells: int
    full_attention_cells: int


def cost_report(batch: list[SyntaxTree]) -> CostReport:
    """Quadratic sibling-attention cells vs. whole-tree self-attention cells."""
    attention = 0
    full = 0
    for tree in batch:
        for node in tree.nodes.values():
            k = len(node.children)
            attention += k * k
        full += len(tree) ** 2
    return CostReport(attention, full)
