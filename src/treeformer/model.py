"""Recursive attention encoder over syntax trees.

A tree is encoded in two passes sharing one bottom-up and one top-down unit
across all levels. Bottom-up, each interior node attends over its children:
first the children attend to each other (fraternal attention, with untied
position scores so sibling order is seen separately from content), then the
parent's initial embedding queries the children (parental attention), and a
feed-forward layer with layer norms finishes the state. Top-down, a parent's
final state is added onto each of its children's bottom-up states and
passed through a second feed-forward unit; the root's top-down state is its
bottom-up state. Node vectors after the top-down pass are the final
representations. ``bottom_up_step`` updates one level of parents at once,
from their children's states as flat rows, each parent's children on
consecutive rows; the naive recursion here calls it with one block of one
parent. Every op of the step runs once over the level's rows. Both attentions
run through ``numerics.attention``, one op (and one tape node) that splits
heads, scores each parent's group of rows, normalizes, mixes and merges
heads, with an analytic backward; so are the feed-forward layer and each
residual add with its layer norm (``feed_forward``, ``add_layer_norm``). The
task heads on top (a single-query attention pool for tree classification, a
pointer and a repair head for wrong operators, and a per-node classifier) run
batched, in ``training.task_forward``; evaluation runs them inside
``numerics.no_grad``, which records no tape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .numerics import (
    NonFiniteError,
    ParamStore,
    Tensor,
    add,
    add_layer_norm,
    attention,
    concat,
    constant,
    feed_forward,
    gather_rows,
    matmul,
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

    def __post_init__(self):
        # the switches are bools; every size is an int >= 1 (not a bool), or
        # None where None is its default
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, bool):
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be True or False, got {value!r}")
            elif value is not None or f.default is not None:
                if type(value) is not int:
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
                if value < 1:
                    raise ValueError(f"{f.name} must be >= 1, got {value}")
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
        """The config ``to_obj`` wrote; keys that are not fields, and required
        fields that are missing, are refused by name."""
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"model_config keys that are not ModelConfig fields: {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
        if missing:
            raise ValueError(f"model_config lacks the required keys {missing}")
        return cls(**obj)


@dataclass
class NodeStates:
    """Per-node vectors: ``up`` after the bottom-up pass, ``down`` final."""

    up: dict[int, np.ndarray]
    down: dict[int, np.ndarray]


@functools.cache
def sinusoidal_rows(n: int, d: int, base: float = 100.0) -> np.ndarray:
    """Fixed position table: interleaved sines/cosines over geometric frequencies.

    The frequency base is kept small: sibling positions only span a couple of
    dozen slots, and a large base would leave the low-frequency columns
    effectively constant over that range. The model reads it at
    ``(max_children, d)``; it is computed once per shape and read-only.
    """
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(base, (2.0 * np.floor(idx / 2.0)) / d)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    table.flags.writeable = False
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
    rows = constant(sinusoidal_rows(config.max_children, config.d)[:n], params.dtype)
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
    denom = math.sqrt(2.0 * config.d_head)
    pos = None
    if config.use_position_encoding:
        pos = _position_scores(params, config, max(w for w, _ in blocks), denom)
    weights = [params[f"up.frat.{name}"] for name in ("wq", "wk", "wv", "wo")]
    return multi_head_attention(
        H, H, H, *weights, config.heads, denom, [(w, w, n) for w, n in blocks], pos
    )


def _ffn(x: Tensor, params: ParamStore, prefix: str) -> Tensor:
    return feed_forward(x, *(params[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2")))


def _add_ln(x: Tensor, r: Tensor, params: ParamStore, name: str) -> Tensor:
    return add_layer_norm(x, r, params[f"{name}.gamma"], params[f"{name}.beta"])


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
        H = _add_ln(frat, H, params, "up.ln_frat")
    elif config.pe_before_parental:
        slots = np.concatenate([np.tile(np.arange(w), n) for w, n in blocks])
        table = sinusoidal_rows(config.max_children, config.d)
        H = add(H, constant(table[slots], params.dtype))
    weights = [params[f"up.par.{name}"] for name in ("wq", "wk", "wv", "wo")]
    attended = multi_head_attention(
        e_parents, H, H, *weights, config.heads, math.sqrt(config.d_head),
        [(1, w, n) for w, n in blocks],
    )
    mid = _add_ln(attended, e_parents, params, "up.ln_attn")
    return _add_ln(_ffn(mid, params, "up.ffn"), mid, params, "up.ln_out")


def top_down_step(h_parent_down: Tensor, H_children_up: Tensor, params: ParamStore) -> Tensor:
    """Children's final states from their parents' final states; purely row-wise.

    ``h_parent_down`` holds one parent row per child, aligned with the
    children's bottom-up rows ``H_children_up``; both are ``[n, d]``.
    """
    mixed = _add_ln(H_children_up, h_parent_down, params, "down.ln_in")
    return _add_ln(_ffn(mixed, params, "down.ffn"), mixed, params, "down.ln_out")


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
        n = len(node.children)
        H = concat([up[c] for c in node.children], axis=0)
        block = top_down_step(gather_rows(down[nid], np.zeros(n, np.intp)), H, params)
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
