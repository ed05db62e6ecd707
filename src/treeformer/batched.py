"""Scheduled execution: the propagation units as batched ops.

Semantics must match the naive recursion exactly (up to float summation
order). The bottom-up unit runs on rectangular padded buckets: padded slots
are zero-filled on gather, their attention scores are pushed to an underflow
fill before softmax, and only parent rows are scattered back, so padding
cannot influence any real node's state. A debug rng can overwrite padding
with noise to let tests verify that claim. The top-down unit is row-wise and
runs once per depth on the unpadded rows of that depth, each with its
parent's row.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ModelConfig,
    NodeStates,
    bottom_up_step,
    embed_rows,
    top_down_step,
)
from .numerics import (
    MASK_FILL,
    ParamStore,
    Tensor,
    add,
    concat,
    constant,
    gather_rows,
    mul,
    reshape,
    scatter_rows,
)
from .scheduler import Schedule, build_schedule
from .trees import SyntaxTree


def _np_dtype(params: ParamStore):
    return np.float64 if params.dtype == "float64" else np.float32


def batch_state_tensors(
    trees: list[SyntaxTree],
    params: ParamStore,
    config: ModelConfig,
    schedule: Schedule | None = None,
    pad_rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor, Tensor, Schedule]:
    """Embed and propagate a batch; returns (X, S_up, S_down, schedule).

    Row layout follows ``schedule.row_index``. ``pad_rng``, when given, fills
    the bottom-up buckets' padded slots with random values instead of zeros
    (leak testing only).
    """
    if schedule is None:
        schedule = build_schedule(trees)
    dtype = _np_dtype(params)
    d = config.d

    type_ids = np.empty(schedule.n_rows, dtype=np.intp)
    token_plus1 = np.empty(schedule.n_rows, dtype=np.intp)
    for t, tree in enumerate(trees):
        index = schedule.row_index[t]
        for nid, node in tree.nodes.items():
            row = index[nid]
            type_ids[row] = node.type_id
            token_plus1[row] = 0 if node.token_id is None else node.token_id + 1
    X = embed_rows(params, config, type_ids, token_plus1)

    S = X
    for group in schedule.bottom_up_levels:
        parent_rows = []
        outs = []
        for bucket in group.buckets:
            B, w = bucket.child_rows.shape
            Hc = reshape(gather_rows(S, bucket.child_rows.reshape(-1)), (B, w, d))
            mask3 = bucket.mask[:, :, None].astype(dtype)
            Hc = mul(Hc, constant(mask3))
            if pad_rng is not None:
                noise = pad_rng.standard_normal((B, w, d)).astype(dtype)
                Hc = add(Hc, constant(noise * (1.0 - mask3)))
            e_par = reshape(gather_rows(X, bucket.parents), (B, 1, d))
            mask_add = ((1.0 - bucket.mask) * MASK_FILL).astype(dtype)[:, None, None, :]
            h = bottom_up_step(
                e_par,
                Hc,
                params,
                config,
                mask_add=mask_add,
                child_counts=bucket.child_counts,
            )
            outs.append(reshape(h, (B, d)))
            parent_rows.append(bucket.parents)
        S = scatter_rows(S, np.concatenate(parent_rows), concat(outs, axis=0))

    if not config.use_top_down:
        return X, S, S, schedule

    D = S  # root rows stay as-is: the root's final state is its bottom-up state
    for group in schedule.top_down_levels:
        (bucket,) = group.buckets
        rows = bucket.child_rows[:, 0]
        out = top_down_step(gather_rows(D, bucket.parents), gather_rows(S, rows), params, config)
        D = scatter_rows(D, rows, out)
    return X, S, D, schedule


def encode_batch(
    trees: list[SyntaxTree],
    params: ParamStore,
    config: ModelConfig,
    schedule: Schedule | None = None,
    pad_rng: np.random.Generator | None = None,
) -> list[NodeStates]:
    """Per-tree NodeStates via the level-synchronous schedule."""
    _, S, D, schedule = batch_state_tensors(trees, params, config, schedule, pad_rng)
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

