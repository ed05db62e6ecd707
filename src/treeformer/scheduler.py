"""Level-synchronous execution plans for batched tree propagation.

Bottom-up groups hold nodes of equal height (all children already computed);
within a group, nodes are laid out in power-of-two child-count buckets with
explicit masks so the bottom-up unit runs as rectangular batched operations.
Top-down groups hold nodes of equal depth (parents already computed) in one
width-1 bucket without padding: the top-down unit is row-wise, so each row is
one node and its parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import SyntaxTree, depths, heights, leaves, parent_map


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
    the real child count are padding and carry mask 0. Top-down, the width is
    1 and row ``b`` is one child, ``child_rows[b, 0]``, and its parent.
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
    bottom_up_levels: list  # Group per height 1..max_height
    top_down_levels: list  # Group per depth 2..max_depth
    row_index: list  # per tree: node_id -> global row
    n_rows: int
    max_depth: int


def _bucketize(
    entries: list, row_index: list
) -> list:
    """entries: [(tree_idx, parent_id, children_ids)] -> buckets by padded width."""
    by_width: dict[int, list] = {}
    for tree_idx, parent_id, children in entries:
        by_width.setdefault(_next_pow2(len(children)), []).append(
            (tree_idx, parent_id, children)
        )
    buckets = []
    for width in sorted(by_width):
        rows = by_width[width]
        n = len(rows)
        parents = np.zeros(n, dtype=np.intp)
        child_rows = np.zeros((n, width), dtype=np.intp)
        mask = np.zeros((n, width), dtype=np.float64)
        counts = np.zeros(n, dtype=np.intp)
        members = []
        for b, (tree_idx, parent_id, children) in enumerate(rows):
            index = row_index[tree_idx]
            parents[b] = index[parent_id]
            counts[b] = len(children)
            for j, c in enumerate(children):
                child_rows[b, j] = index[c]
                mask[b, j] = 1.0
            members.append((tree_idx, parent_id))
        buckets.append(Bucket(width, parents, child_rows, mask, counts, members))
    return buckets


def build_schedule(batch: list[SyntaxTree]) -> Schedule:
    """Plan bottom-up then top-down execution for a batch of valid trees."""
    if not batch:
        raise ValueError("empty batch")
    row_index: list[dict[int, int]] = []
    rows = 0
    up: dict[int, tuple[list, list]] = {}  # height -> (entries, members)
    down: dict[int, tuple[list, list]] = {}  # depth -> (entries, members)
    for t, tree in enumerate(batch):
        row_index.append({nid: rows + i for i, nid in enumerate(sorted(tree.nodes))})
        rows += len(tree)
        for nid, h in heights(tree).items():
            if h:
                entries, members = up.setdefault(h, ([], []))
                entries.append((t, nid, list(tree.node(nid).children)))
                members.append((t, nid))
        parent = parent_map(tree)
        for nid, dp in depths(tree).items():
            if dp > 1:
                entries, members = down.setdefault(dp, ([], []))
                entries.append((t, parent[nid], [nid]))
                members.append((t, nid))

    def groups(levels):
        return [
            Group(members, _bucketize(entries, row_index))
            for _, (entries, members) in sorted(levels.items())
        ]

    return Schedule(
        bottom_up_levels=groups(up),
        top_down_levels=groups(down),
        row_index=row_index,
        n_rows=rows,
        max_depth=max(down, default=1),
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
