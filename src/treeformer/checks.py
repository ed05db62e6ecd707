"""End-to-end verification helpers: whole-model gradient checks.

These build tiny real corpora, drive the batched forward path into a scalar
task loss, and compare analytic gradients against central differences for
every learnable tensor.
"""

from __future__ import annotations

from dataclasses import replace

from .minilang import MINI_VOCAB, parse
from .model import ModelConfig, init_params
from .numerics import ParamStore, grad_check
from .synth import mutate_operator
from .training import task_forward

_CLASSIFY_SOURCES = ["s = s + i;", "p = p * 2;"]
_WRONGOP_SOURCES = ["s = a + b * 2;", "if (i < n) { s = s + 1; }"]
_NODE_SOURCES = ["x = a + b;", "y = c * 2;"]


def _config(task: str, d: int, heads: int) -> ModelConfig:
    head = {
        "classify": {"classify_classes": 2},
        "wrongop": {"operator_classes": 13},
        "node-classify": {"node_classes": 3},
    }[task]
    return ModelConfig(
        d=d,
        heads=heads,
        type_vocab_size=MINI_VOCAB.n_types,
        token_vocab_size=MINI_VOCAB.n_tokens,
        max_children=8,
        **head,
    )


def _batch(task: str, seed: int):
    if task == "classify":
        return [
            replace(parse(src), tree_label=i) for i, src in enumerate(_CLASSIFY_SOURCES)
        ]
    if task == "wrongop":
        return [
            mutate_operator(parse(src), seed + i)
            for i, src in enumerate(_WRONGOP_SOURCES)
        ]
    trees = []
    for src in _NODE_SOURCES:
        tree = parse(src)
        ident = MINI_VOCAB.type_id("identifier")
        labels = {
            n.id: (n.token_id or 0) % 3
            for n in tree.nodes.values()
            if n.type_id == ident
        }
        trees.append(replace(tree, node_labels=labels))
    return trees


def full_model_gradcheck(
    task: str,
    d: int = 8,
    heads: int = 2,
    seed: int = 1,
    eps: float = 1e-5,
    config: ModelConfig | None = None,
) -> float:
    """Max relative gradient error of the full task loss, all parameter tensors."""
    cfg = config if config is not None else _config(task, d, heads)
    params = init_params(cfg, seed=seed, dtype="float64")
    batch = _batch(task, seed)

    def loss(p: ParamStore):
        return task_forward(task, batch, p, cfg).loss

    return grad_check(loss, params, eps=eps)
