"""Scheduled execution: the propagation units as batched ops.

Semantics must match the naive recursion exactly (up to float summation
order). The bottom-up unit runs once per height: one ``bottom_up_step`` call
takes the level's parent rows and all their children's rows as one flat
tensor, bucket after bucket, each parent's children on consecutive rows; only
the attention op reads the bucket boundaries. A bucket's width is its
parents' exact child count, so no row is padding. The top-down unit is
row-wise and runs once per depth on the rows of that depth, each with its
parent's row.

No op inside the level loops reads or returns a whole-batch ``[n_rows, d]``
tensor. Each level's output is its own tensor, and a level reads the rows it
needs from the tensors they live in, with gradients only for the rows read.
The whole-batch ``S_up`` and ``S_down`` are assembled once, after the loops.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ModelConfig,
    NodeStates,
    bottom_up_step,
    check_finite_states,
    embed_rows,
    top_down_step,
)
from .numerics import (
    ParamStore,
    Tensor,
    concat,
    gather_rows,
    gather_rows_from,
    scatter_rows,
)
from .scheduler import Bucket, Schedule, build_schedule
from .trees import SyntaxTree, tree_arrays


def _read_children(
    buckets: list[Bucket], levels: list[Tensor], level_of: np.ndarray, pos: np.ndarray
) -> Tensor:
    """A level's children, bucket after bucket, as flat ``[sum of B * w, d]`` rows.

    Row ``r``'s bottom-up state is row ``pos[r]`` of ``levels[level_of[r]]``.
    """
    kids = np.concatenate([bucket.child_rows.reshape(-1) for bucket in buckets])
    level = level_of[kids]
    order = np.argsort(level, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(level[order])) + 1)
    parts = [(levels[level[run[0]]], run, pos[kids[run]]) for run in runs]
    return gather_rows_from(len(kids), parts)


def batch_state_tensors(
    trees: list[SyntaxTree],
    params: ParamStore,
    config: ModelConfig,
    schedule: Schedule | None = None,
) -> tuple[Tensor, Tensor, Tensor, Schedule]:
    """Embed and propagate a batch; returns (X, S_up, S_down, schedule).

    All three are ``[n_rows, d]`` in the ``schedule.row_index`` layout.
    Raises NonFiniteError naming the pass, tree and node if a returned state
    holds NaN or Inf.
    """
    if schedule is None:
        schedule = build_schedule(trees)
    arrays = tree_arrays(trees)
    X = embed_rows(
        params,
        config,
        np.concatenate([a.type_id for a in arrays]),
        np.concatenate([a.token_plus1 for a in arrays]),
    )

    # levels[h] holds the bottom-up states of height h, levels[0] = X those
    # of the leaves; row r's state is row pos[r] of levels[level_of[r]]
    levels, level_rows = [X], []
    level_of = np.zeros(schedule.n_rows, dtype=np.intp)
    pos = np.arange(schedule.n_rows)
    for height, group in enumerate(schedule.bottom_up_levels, start=1):
        H = _read_children(group.buckets, levels, level_of, pos)
        blocks = [(bucket.child_rows.shape[1], len(bucket.parents)) for bucket in group.buckets]
        rows = np.concatenate([bucket.parents for bucket in group.buckets])
        levels.append(bottom_up_step(gather_rows(X, rows), H, blocks, params, config))
        level_rows.append(rows)
        level_of[rows] = height
        pos[rows] = np.arange(len(rows))
    S = X
    if level_rows:
        S = scatter_rows(X, np.concatenate(level_rows), concat(levels[1:], axis=0))
    check_finite_states(S.data, "bottom-up", schedule.node_at)

    if not config.use_top_down:
        return X, S, S, schedule

    # downs[i] holds the final states of depth i + 2, row pos[r] for row r;
    # depth 1 reads S: the root's final state is its bottom-up state
    downs, down_rows = [], []
    for group in schedule.top_down_levels:
        (bucket,) = group.buckets
        rows = bucket.child_rows[:, 0]
        if downs:
            h_parent = gather_rows(downs[-1], pos[bucket.parents])
        else:
            h_parent = gather_rows(S, bucket.parents)
        downs.append(top_down_step(h_parent, gather_rows(S, rows), params, config))
        down_rows.append(rows)
        pos[rows] = np.arange(len(rows))
    D = S
    if downs:
        D = scatter_rows(S, np.concatenate(down_rows), concat(downs, axis=0))
    check_finite_states(D.data, "top-down", schedule.node_at)
    return X, S, D, schedule


def encode_batch(
    trees: list[SyntaxTree],
    params: ParamStore,
    config: ModelConfig,
    schedule: Schedule | None = None,
) -> list[NodeStates]:
    """Per-tree NodeStates via the level-synchronous schedule."""
    _, S, D, schedule = batch_state_tensors(trees, params, config, schedule)
    out = []
    for t, tree in enumerate(trees):
        index = schedule.row_index[t]
        out.append(
            NodeStates(
                {nid: S.data[row].copy() for nid, row in index.items()},
                {nid: D.data[row].copy() for nid, row in index.items()},
            )
        )
    return out

