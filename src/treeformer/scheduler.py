"""Level-synchronous execution plans for batched tree propagation.

A plan is rows only: tree ``t``'s nodes sit on consecutive global rows, and
each level holds the arrays of rows the executor reads. Bottom-up levels hold
the nodes of equal height (all children already computed) in buckets of equal
child count, so every bucket is an exact rectangle of child rows and nothing
is padded. Top-down levels hold the nodes of equal depth (parents already
computed) in one width-1 bucket: the top-down unit is row-wise, so each row is
one node and its parent.

A plan is built from each tree's cached index arrays (``trees.tree_arrays``):
the batch concatenates them with row offsets and sorts once per direction,
bottom-up by (height, child count, row), top-down by (depth, row). Within a
level every node's update reads only the levels before it, so the order of
a level's rows changes no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trees import SyntaxTree, depths, tree_arrays


class DependencyViolation(Exception):
    pass


@dataclass(frozen=True)
class Bucket:
    """The parents of one child count within a level, with their children's rows.

    Bottom-up, row ``b`` holds the ``w`` children of ``parents[b]``, where
    ``w = child_rows.shape[1]`` is every parent's exact child count. A level's
    buckets come in increasing width, and ``parents`` ascends within a bucket.
    Top-down, the width is 1 and row ``b`` is one child, ``child_rows[b, 0]``,
    and its parent; the children's rows ascend.
    """

    parents: np.ndarray  # [B] global rows of the parent nodes
    child_rows: np.ndarray  # [B, width] global rows

    @property
    def mask(self) -> np.ndarray:
        """All ones: no slot is padding. Kept for the benchmark's slot counts
        (``perfbench/tracing._schedule_counts``)."""
        return np.ones(self.child_rows.shape)


@dataclass(frozen=True)
class Group:
    """One sequential step: its buckets' rows are the states produced here."""

    buckets: list


@dataclass(frozen=True)
class Schedule:
    """A batch's plan. Tree ``t``'s rows are ``row_index[t]``: its node ids in
    ascending order, numbered on from the rows of the trees before it."""

    bottom_up_levels: list  # Group per height 1..max_height
    top_down_levels: list  # Group per depth 2..max_depth
    row_index: list  # per tree: node_id -> global row
    n_rows: int

    def node_at(self, row: int) -> tuple[int, int]:
        """(tree, node id) of a global row."""
        for t, index in enumerate(self.row_index):
            if row < len(index):
                return t, sorted(index)[row]
            row -= len(index)
        raise IndexError("row outside the batch")


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
    base = np.repeat(offsets[:-1], sizes)  # first row of each row's tree

    def cat(name):
        return np.concatenate([getattr(a, name) for a in arrays])

    height, depth = cat("height"), cat("depth")
    counts = np.concatenate([np.diff(a.child_ptr) for a in arrays])
    ptr = np.concatenate([[0], np.cumsum(counts)])
    child_idx = cat("child_idx") + np.repeat(offsets[:-1], [len(a.child_idx) for a in arrays])
    parent = cat("parent") + base  # read at non-root rows only
    row_index = [
        dict(zip(a.ids.tolist(), range(int(o), int(o) + len(a.ids))))
        for a, o in zip(arrays, offsets)
    ]

    # bottom-up: inner nodes sorted by (height, child count, row)
    inner = np.flatnonzero(height)
    width = counts[inner]
    order = np.lexsort((width, height[inner]))  # stable: rows stay ascending
    rows, row_width = inner[order], width[order]
    bottom_up = []
    for lo, hi in _runs(height[rows]):
        buckets = []
        for a, b in _runs(row_width[lo:hi]):
            a, b = lo + a, lo + b
            parents = rows[a:b]
            slot = np.arange(row_width[a])
            buckets.append(Bucket(parents, child_idx[ptr[parents][:, None] + slot]))
        bottom_up.append(Group(buckets))

    # top-down: non-roots sorted by (depth, row), one width-1 bucket per depth
    nonroot = np.flatnonzero(depth > 1)
    rows = nonroot[np.argsort(depth[nonroot], kind="stable")]
    top_down = []
    for lo, hi in _runs(depth[rows]):
        kids = rows[lo:hi]
        top_down.append(Group([Bucket(parent[kids], kids[:, None])]))
    return Schedule(bottom_up, top_down, row_index, int(offsets[-1]))


def _check_row_index(schedule: Schedule, batch: list[SyntaxTree]) -> list[tuple[int, int]]:
    """(tree, node id) per row, after checking that each tree's ids, ascending,
    sit on consecutive rows after the previous tree's."""
    if len(schedule.row_index) != len(batch):
        raise DependencyViolation("row_index and the batch differ in tree count")
    node_at = []
    for t, (tree, index) in enumerate(zip(batch, schedule.row_index)):
        ids = sorted(tree.nodes)
        if index != dict(zip(ids, range(len(node_at), len(node_at) + len(ids)))):
            raise DependencyViolation(
                f"tree {t}: row_index is not its ids ascending on rows from {len(node_at)}"
            )
        node_at += [(t, nid) for nid in ids]
    if schedule.n_rows != len(node_at):
        raise DependencyViolation(f"n_rows is {schedule.n_rows}, the batch has {len(node_at)}")
    return node_at


def check_schedule(schedule: Schedule, batch: list[SyntaxTree]) -> None:
    """Brute-force verification of every schedule invariant, on the arrays
    the executor reads."""
    node_at = _check_row_index(schedule, batch)
    index = schedule.row_index
    kids = [[index[t][c] for c in batch[t].node(nid).children] for t, nid in node_at]
    parent_of = {c: row for row, ks in enumerate(kids) for c in ks}

    def fail(row, why):
        t, nid = node_at[row]
        raise DependencyViolation(f"tree {t}, node {nid}: {why}")

    def rows(bucket, level, direction):
        n, shape = len(bucket.parents), np.shape(bucket.child_rows)
        if len(shape) != 2 or shape[0] != n:
            raise DependencyViolation(f"{direction} level {level}: bucket shapes disagree")
        out = bucket.parents if direction == "bottom-up" else bucket.child_rows[:, 0]
        if n and not (0 <= out.min() and out.max() < len(node_at)):
            raise DependencyViolation(f"{direction} level {level}: a row outside the batch")
        return enumerate(out.tolist())

    # Bottom-up: children strictly before parents, every node exactly once.
    # done_at[r] is the level that produces row r; 0 for the leaves.
    done_at = [None if ks else 0 for ks in kids]
    for level, group in enumerate(schedule.bottom_up_levels, start=1):
        for bucket in group.buckets:
            for b, row in rows(bucket, level, "bottom-up"):
                if done_at[row] is not None:
                    fail(row, "scheduled twice in bottom-up order")
                ks = kids[row]
                if bucket.child_rows.shape[1] != len(ks):
                    fail(row, "bucket width is not the child count")
                for j, c in enumerate(ks):
                    if bucket.child_rows[b, j] != c:
                        fail(row, f"bucket child row mismatch at slot {j}")
                    if done_at[c] is None or done_at[c] >= level:
                        fail(row, f"child {node_at[c][1]} not computed yet")
                done_at[row] = level
    if None in done_at:
        fail(done_at.index(None), "never scheduled in bottom-up order")

    # Top-down: one width-1 bucket per depth whose row b pairs a non-root node
    # (child_rows[b, 0]) with its parent's row; every non-root exactly once,
    # one level after its parent, since the executor reads a parent's state
    # from the level before. done_at is 1 at the roots.
    done_at = [None if row in parent_of else 1 for row in range(len(node_at))]
    for level, group in enumerate(schedule.top_down_levels, start=2):
        if len(group.buckets) != 1 or group.buckets[0].child_rows.shape[1:] != (1,):
            raise DependencyViolation(f"top-down level {level} is not one width-1 bucket")
        (bucket,) = group.buckets
        for b, row in rows(bucket, level, "top-down"):
            parent = parent_of.get(row)
            if parent is None:
                fail(row, "root listed in top-down order")
            if bucket.parents[b] != parent:
                fail(row, "bucket parent row mismatch")
            if done_at[row] is not None:
                fail(row, "scheduled twice in top-down order")
            if done_at[parent] != level - 1:
                fail(row, f"parent {node_at[parent][1]} not computed by the level before")
            done_at[row] = level
    if None in done_at:
        fail(done_at.index(None), "never scheduled in top-down order")

    # Sequential-step bound: one bottom-up and one top-down pass per level.
    max_depth = max(max(depths(tree).values()) for tree in batch)
    expected = 2 * (max_depth - 1)
    actual = len(schedule.bottom_up_levels) + len(schedule.top_down_levels)
    if actual != expected:
        raise DependencyViolation(f"{actual} sequential groups, expected {expected}")


@dataclass(frozen=True)
class CostReport:
    """Sibling-attention score cells of a schedule against whole-tree
    attention, per head.

    ``attention_cells`` is k^2 per node with k children;
    ``full_attention_cells`` is N^2 per tree of N nodes. A bottom-up bucket of
    B parents with w children each scores B * w^2 cells, with no slot padded;
    ``peak_cells`` is the largest single bucket's.
    """

    attention_cells: int
    full_attention_cells: int
    peak_cells: int


def cost_report(schedule: Schedule) -> CostReport:
    """Score cells of the sibling attention that ``schedule`` runs, read from its arrays."""
    shapes = [b.child_rows.shape for group in schedule.bottom_up_levels for b in group.buckets]
    cells = [n * w * w for n, w in shapes]
    full = sum(len(index) ** 2 for index in schedule.row_index)
    return CostReport(sum(cells), full, max(cells, default=0))
