"""Recursive attention encoder over syntax trees.

A tree is encoded in two passes sharing one bottom-up and one top-down unit
across all levels. Bottom-up, each interior node attends over its children:
first the children attend to each other (fraternal attention, with untied
position scores so sibling order is seen separately from content), then the
parent's initial embedding queries the children (parental attention), and a
feed-forward layer with layer norms finishes the state. Top-down, a parent's
final state is broadcast-added onto its children's bottom-up states and
passed through a second feed-forward unit; the root's top-down state is its
bottom-up state. Node vectors after the top-down pass are the final
representations. ``bottom_up_step`` updates one level of parents at once,
from their children's states as flat rows, each parent's children on
consecutive rows; the naive recursion here calls it with one block of one
parent. Every op of the step runs once over the level's rows. Both attentions
run through ``numerics.attention``, one op (and one tape node) that splits
heads, scores each parent's group of rows, normalizes, mixes and merges
heads, with an analytic backward; only the projections around it are
separate ops. The task heads on top of them (a gated softmax pool for tree
classification, a pointer and a repair head for wrong operators, and a
per-node classifier) run batched, in ``training.task_forward``; evaluation
runs them inside ``numerics.no_grad``, which records no tape.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .numerics import (
    NonFiniteError,
    ParamStore,
    Tensor,
    add,
    attention,
    broadcast_add_row,
    concat,
    gather_rows,
    layer_norm,
    linear,
    matmul,
    relu,
    scale,
    transpose,
)
from .trees import SyntaxNode, SyntaxTree, preorder


class BranchingOverflow(ValueError):
    pass


class VocabularyOverflow(ValueError):
    pass


@dataclass
class ModelConfig:
    """Dimensions, vocabulary sizes, ablation switches, and the task head.

    Exactly one of ``classify_classes`` / ``operator_classes`` /
    ``node_classes`` must be set; it selects the head and the task.
    """

    d: int
    heads: int
    type_vocab_size: int
    token_vocab_size: int
    max_children: int = 16
    ffn_hidden: int | None = None
    classify_classes: int | None = None
    operator_classes: int | None = None
    node_classes: int | None = None
    use_position_encoding: bool = True
    use_fraternal_attention: bool = True
    pe_before_parental: bool = False
    use_top_down: bool = True
    per_head_scaling: bool = True
    layer_norm_eps: float = 1e-5

    def __post_init__(self):
        if self.d % self.heads != 0:
            raise ValueError(f"d={self.d} not divisible by heads={self.heads}")
        if self.d % 2 != 0:
            raise ValueError("d must be even (type/token embedding halves)")
        specs = [
            self.classify_classes is not None,
            self.operator_classes is not None,
            self.node_classes is not None,
        ]
        if sum(specs) != 1:
            raise ValueError("exactly one head spec must be active")
        if self.max_children < 1:
            raise ValueError("max_children must be >= 1")
        if self.ffn_hidden is None:
            self.ffn_hidden = 4 * self.d

    @property
    def d_head(self) -> int:
        return self.d // self.heads

    @property
    def task(self) -> str:
        if self.classify_classes is not None:
            return "classify"
        if self.operator_classes is not None:
            return "wrongop"
        return "node-classify"

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)


@dataclass
class NodeStates:
    """Per-node vectors: ``up`` after the bottom-up pass, ``down`` final."""

    up: dict[int, np.ndarray]
    down: dict[int, np.ndarray]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def sinusoidal_rows(n: int, d: int, base: float = 100.0) -> np.ndarray:
    """Fixed position table: interleaved sines/cosines over geometric frequencies.

    The frequency base is kept small: sibling positions only span a couple of
    dozen slots, and a large base would leave the low-frequency columns
    effectively constant over that range.
    """
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(base, (2.0 * np.floor(idx / 2.0)) / d)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table


def init_params(config: ModelConfig, seed: int = 0, dtype: str = "float64") -> ParamStore:
    """Seeded uniform fan-in initialization; layer norms start at identity."""
    rng = np.random.default_rng(seed)
    store = ParamStore(dtype)
    d, hidden = config.d, config.ffn_hidden
    half = d // 2

    def uniform(name, rows, cols, fan_in=None):
        bound = 1.0 / math.sqrt(fan_in if fan_in is not None else rows)
        store.add_param(name, rng.uniform(-bound, bound, size=(rows, cols)))

    def norm_pair(name):
        store.add_param(f"{name}.gamma", np.ones(d))
        store.add_param(f"{name}.beta", np.zeros(d))

    uniform("embed.type", config.type_vocab_size, half, fan_in=half)
    uniform("embed.token", config.token_vocab_size + 1, half, fan_in=half)

    for proj in ("wq", "wk", "wv", "wo"):
        uniform(f"up.frat.{proj}", d, d)
        uniform(f"up.par.{proj}", d, d)
    uniform("up.frat.uq", d, d)
    uniform("up.frat.uk", d, d)
    store.add_buffer("up.frat.pos", sinusoidal_rows(_next_pow2(config.max_children), d))

    norm_pair("up.ln_frat")
    norm_pair("up.ln_attn")
    norm_pair("up.ln_out")
    uniform("up.ffn.w1", d, hidden)
    store.add_param("up.ffn.b1", np.zeros(hidden))
    uniform("up.ffn.w2", hidden, d)
    store.add_param("up.ffn.b2", np.zeros(d))

    uniform("down.ffn.w1", d, hidden)
    store.add_param("down.ffn.b1", np.zeros(hidden))
    uniform("down.ffn.w2", hidden, d)
    store.add_param("down.ffn.b2", np.zeros(d))
    norm_pair("down.ln_in")
    norm_pair("down.ln_out")

    uniform("pool.gate", d, 1)

    if config.classify_classes is not None:
        uniform("head.classify.w", d, config.classify_classes)
        store.add_param("head.classify.b", np.zeros(config.classify_classes))
    elif config.operator_classes is not None:
        uniform("head.pointer.w", d, 1)
        uniform("head.repair.w", d, config.operator_classes)
        store.add_param("head.repair.b", np.zeros(config.operator_classes))
    else:
        uniform("head.node.w", d, config.node_classes)
        store.add_param("head.node.b", np.zeros(config.node_classes))
    return store


# ---------------------------------------------------------------------------
# attention building blocks

def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    heads: int,
    denom: float,
    blocks,
    pos_scores: Tensor | None = None,
) -> Tensor:
    """Scaled dot-product attention over projected flat rows, output projected.

    ``blocks`` groups the rows as ``numerics.attention`` reads them;
    ``pos_scores`` is an extra score table shared by every head.
    """
    mixed = attention(
        matmul(q, wq), matmul(k, wk), matmul(v, wv), heads, denom, blocks, pos_scores
    )
    return matmul(mixed, wo)


def _position_scores(params: ParamStore, config: ModelConfig, n: int, denom: float) -> Tensor:
    table = params["up.frat.pos"]
    if n > table.shape[0]:
        raise BranchingOverflow(
            f"{n} sibling slots exceed the position table ({table.shape[0]})"
        )
    rows = gather_rows(table, np.arange(n))
    pq = matmul(rows, params["up.frat.uq"])
    pk = matmul(rows, params["up.frat.uk"])
    return scale(matmul(pq, transpose(pk, (1, 0))), 1.0 / denom)


def _check_branching(config: ModelConfig, blocks) -> None:
    widest = max(w for w, _ in blocks)
    if widest > config.max_children:
        raise BranchingOverflow(
            f"{widest} children exceed max_children={config.max_children}"
        )


def fraternal_attention(
    H: Tensor, blocks, params: ParamStore, config: ModelConfig
) -> Tensor:
    """Self-attention among sibling states with untied position scores.

    ``H`` and ``blocks`` are laid out as in ``bottom_up_step``; each parent's
    children attend among themselves. Content and position score terms share
    the same scaled denominator; the position term depends only on slot
    indices, comes from one table built at the widest block, and vanishes
    when position encoding is ablated.
    """
    width = config.d_head if config.per_head_scaling else config.d
    denom = math.sqrt(2.0 * width)
    pos = None
    if config.use_position_encoding:
        pos = _position_scores(params, config, max(w for w, _ in blocks), denom)
    weights = [params[f"up.frat.{name}"] for name in ("wq", "wk", "wv", "wo")]
    return multi_head_attention(
        H, H, H, *weights, config.heads, denom, [(w, w, n) for w, n in blocks], pos
    )


def _ffn(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    inner = relu(linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return linear(inner, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _ln(x: Tensor, params: ParamStore, name: str, config: ModelConfig) -> Tensor:
    return layer_norm(
        x, params[f"{name}.gamma"], params[f"{name}.beta"], eps=config.layer_norm_eps
    )


def bottom_up_step(
    e_parents: Tensor,
    H: Tensor,
    blocks: list[tuple[int, int]],
    params: ParamStore,
    config: ModelConfig,
) -> Tensor:
    """One level of parent updates from their children's states.

    ``e_parents``: ``[P, d]`` initial embeddings (attention queries and
    residuals). ``H``: the children's states as flat ``[sum of B * w, d]``
    rows. ``blocks`` holds ``(w, B)`` per group of ``B`` parents with ``w``
    children each, in the order of ``e_parents``: parent ``b``'s children
    fill ``w`` consecutive rows. Returns ``[P, d]``.

    Every op runs once over the level's rows; only the two attention ops read
    the blocks, to score each parent's children among themselves (fraternal)
    and against the parent's own row (parental).
    """
    _check_branching(config, blocks)
    if config.use_fraternal_attention:
        frat = fraternal_attention(H, blocks, params, config)
        H = _ln(add(frat, H), params, "up.ln_frat", config)
    elif config.pe_before_parental:
        slots = np.concatenate([np.tile(np.arange(w), n) for w, n in blocks])
        H = add(H, gather_rows(params["up.frat.pos"], slots))
    width = config.d_head if config.per_head_scaling else config.d
    weights = [params[f"up.par.{name}"] for name in ("wq", "wk", "wv", "wo")]
    attended = multi_head_attention(
        e_parents, H, H, *weights, config.heads, math.sqrt(width),
        [(1, w, n) for w, n in blocks],
    )
    mid = _ln(add(attended, e_parents), params, "up.ln_attn", config)
    return _ln(add(_ffn(mid, params, "up.ffn"), mid), params, "up.ln_out", config)


def top_down_step(
    h_parent_down: Tensor,
    H_children_up: Tensor,
    params: ParamStore,
    config: ModelConfig,
) -> Tensor:
    """Children's final states from the parent's final state; purely row-wise.

    Takes one parent row per block of children (``[..., 1, d]`` against
    ``[..., n, d]``) or, as the batched path does, flat ``[n, d]`` parent rows
    aligned with ``[n, d]`` child rows.
    """
    mixed = _ln(
        broadcast_add_row(H_children_up, h_parent_down), params, "down.ln_in", config
    )
    return _ln(add(_ffn(mixed, params, "down.ffn"), mixed), params, "down.ln_out", config)


# ---------------------------------------------------------------------------
# whole-tree encoding (naive recursion; the batched path lives in batched.py)

def _check_vocab(type_ids: np.ndarray, token_ids: np.ndarray, config: ModelConfig):
    if type_ids.max(initial=0) >= config.type_vocab_size or type_ids.min(initial=0) < 0:
        raise VocabularyOverflow("type id outside the configured vocabulary")
    if token_ids.max(initial=0) > config.token_vocab_size or token_ids.min(initial=0) < 0:
        raise VocabularyOverflow("token id outside the configured vocabulary")


def embed_rows(params: ParamStore, config: ModelConfig, type_ids, token_plus1) -> Tensor:
    """Rows of concatenated type/token embeddings; token slot 0 is NO-TOKEN."""
    type_ids = np.asarray(type_ids, dtype=np.intp)
    token_plus1 = np.asarray(token_plus1, dtype=np.intp)
    _check_vocab(type_ids, token_plus1, config)
    return concat(
        [
            gather_rows(params["embed.type"], type_ids),
            gather_rows(params["embed.token"], token_plus1),
        ],
        axis=1,
    )


def embed_node(node: SyntaxNode, params: ParamStore, config: ModelConfig) -> np.ndarray:
    """Initial d-vector of one node (type half ++ token half)."""
    tok = 0 if node.token_id is None else node.token_id + 1
    return embed_rows(params, config, [node.type_id], [tok]).data[0]


def _tree_id_arrays(tree: SyntaxTree) -> tuple[list[int], np.ndarray, np.ndarray]:
    ids = sorted(tree.nodes)
    type_ids = np.array([tree.node(i).type_id for i in ids], dtype=np.intp)
    token_plus1 = np.array(
        [0 if tree.node(i).token_id is None else tree.node(i).token_id + 1 for i in ids],
        dtype=np.intp,
    )
    return ids, type_ids, token_plus1


def naive_state_tensors(
    tree: SyntaxTree, params: ParamStore, config: ModelConfig
) -> tuple[dict[int, Tensor], dict[int, Tensor], dict[int, Tensor]]:
    """Per-node embedding / bottom-up / top-down tensors via direct recursion."""
    ids, type_ids, token_plus1 = _tree_id_arrays(tree)
    rows = embed_rows(params, config, type_ids, token_plus1)
    e = {nid: gather_rows(rows, [i]) for i, nid in enumerate(ids)}

    up: dict[int, Tensor] = {}
    for nid in reversed(preorder(tree)):
        node = tree.node(nid)
        if node.is_leaf():
            up[nid] = e[nid]
        else:
            n = len(node.children)
            H = concat([up[c] for c in node.children], axis=0)
            up[nid] = bottom_up_step(e[nid], H, [(n, 1)], params, config)

    if not config.use_top_down:
        return e, up, dict(up)

    down: dict[int, Tensor] = {tree.root: up[tree.root]}
    for nid in preorder(tree):
        node = tree.node(nid)
        if not node.children:
            continue
        H = concat([up[c] for c in node.children], axis=0)
        block = top_down_step(down[nid], H, params, config)
        for j, c in enumerate(node.children):
            down[c] = gather_rows(block, [j])
    return e, up, down


def check_finite_states(states: np.ndarray, direction: str, node_at) -> None:
    """Raise NonFiniteError naming the first node whose row of ``states`` holds
    NaN or Inf; ``node_at(row)`` gives that row's (tree, node id)."""
    bad = np.flatnonzero(~np.isfinite(states).all(axis=1))
    if bad.size:
        tree, nid = node_at(int(bad[0]))
        raise NonFiniteError(f"non-finite {direction} state at tree {tree}, node {nid}")


def encode_tree(
    tree: SyntaxTree, params: ParamStore, config: ModelConfig, method: str = "naive"
) -> NodeStates:
    """Full bottom-up then top-down encoding of one tree.

    ``method="naive"`` recurses node by node (the verification path);
    ``method="batched"`` runs the level-synchronous schedule.
    """
    if method == "naive":
        _, up, down = naive_state_tensors(tree, params, config)
        ids = sorted(up)
        for direction, states in (("bottom-up", up), ("top-down", down)):
            rows = np.concatenate([states[nid].data for nid in ids])
            check_finite_states(rows, direction, lambda row: (0, ids[row]))
        return NodeStates(
            {nid: t.data[0].copy() for nid, t in up.items()},
            {nid: t.data[0].copy() for nid, t in down.items()},
        )
    if method == "batched":
        from .batched import encode_batch

        return encode_batch([tree], params, config)[0]
    raise ValueError(f"unknown method {method!r}")
