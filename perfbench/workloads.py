"""Workload definitions: task, model width, batch size and corpus make-up.

Every workload trains (forward, backward, Adam) and evaluates (forward only)
in the same run, so a change that helps one use of the encoder but hurts the
other shows within one workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Forest tree sizes: one tree of each size per batch of 8, log-spaced from a
# few hundred to a few thousand nodes. Every batch therefore holds the same
# 9,932 nodes whatever the seed; the seed only changes shapes and labels.
FOREST_SIZES = (300, 417, 579, 805, 1118, 1554, 2159, 3000)

HEADS = 4
LR = 5e-4  # Adam rate, reached after one warm-up step; the loss falls within a round


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # classify | wrongop | node-classify
    d: int
    batch_size: int
    train_size: int  # trees in the train corpus
    eval_size: int  # trees in the eval corpus
    train_chunk: int  # trees per train() call (one round)
    eval_chunk: int  # trees per evaluate() call (one round)
    epochs: int = 2  # per train() call; the loss must fall from the first to the last
    forest_sizes: tuple = FOREST_SIZES


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wrongop-small-d64",
            task="wrongop",
            d=64,
            batch_size=32,
            train_size=1024,
            eval_size=512,
            train_chunk=128,
            eval_chunk=256,
        ),
        Workload(
            "classify-d256",
            task="classify",
            d=256,
            batch_size=32,
            train_size=1024,
            eval_size=512,
            train_chunk=64,
            eval_chunk=128,
        ),
        Workload(
            "forest-nodes-d64",
            task="node-classify",
            d=64,
            batch_size=8,
            train_size=32,
            eval_size=24,
            train_chunk=8,
            eval_chunk=24,
            epochs=3,  # one batch per call: three steps make the loss fall reliably
        ),
    )
}


def get(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it to seconds for the smoke test."""
    spec = WORKLOADS[name]
    if not tiny:
        return spec
    if spec.task == "node-classify":
        return replace(
            spec, d=16, batch_size=2, train_size=4, eval_size=2,
            train_chunk=2, eval_chunk=2, forest_sizes=(20, 45),
        )
    return replace(
        spec, d=16, batch_size=4, train_size=16, eval_size=16,
        train_chunk=8, eval_chunk=8,
    )
