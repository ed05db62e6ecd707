"""Rooted ordered syntax trees: data model, validation, traversals, JSON-lines IO."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .numerics import _replace_atomically

UNKNOWN = "<unk>"


class ValidationError(Exception):
    """A tree violates a structural invariant."""


class MissingRoot(ValidationError):
    pass


class DuplicateId(ValidationError):
    pass


class OrphanNode(ValidationError):
    """A node is unreachable, multiply parented, or dangling."""


class CycleDetected(ValidationError):
    pass


class ParseError(Exception):
    """A tree file line could not be decoded."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


@dataclass(frozen=True, slots=True)
class SyntaxNode:
    """One typed tree node; ``children`` order is significant."""

    id: int
    type_id: int
    token_id: int | None = None
    children: tuple[int, ...] = ()

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class SyntaxTree:
    """Rooted, ordered, arbitrary-arity tree. Treat as immutable once validated."""

    nodes: dict[int, SyntaxNode]
    root: int
    tree_label: int | None = None
    node_labels: dict[int, int] | None = None
    # filled by tree_arrays on first use; a copy made with dataclasses.replace starts empty
    _arrays: "TreeArrays | None" = field(default=None, init=False, repr=False, compare=False)

    def node(self, node_id: int) -> SyntaxNode:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_nodes(
        cls,
        nodes: Iterable[SyntaxNode],
        root: int,
        tree_label: int | None = None,
        node_labels: dict[int, int] | None = None,
    ) -> "SyntaxTree":
        table: dict[int, SyntaxNode] = {}
        for n in nodes:
            if n.id in table:
                raise DuplicateId(f"node id {n.id} appears twice")
            table[n.id] = n
        return cls(table, root, tree_label, node_labels)


def validate(tree: SyntaxTree) -> None:
    """Raise a ValidationError subclass unless ``tree`` is a valid rooted tree."""
    nodes = tree.nodes
    if tree.root not in nodes:
        raise MissingRoot(f"root id {tree.root} not among nodes")
    for key, n in nodes.items():
        if key != n.id:
            raise DuplicateId(f"node keyed {key} carries id {n.id}")

    # One parent per non-root node; all child references must resolve.
    parent_count: dict[int, int] = {}
    for n in nodes.values():
        for c in n.children:
            if c not in nodes:
                raise OrphanNode(f"node {c} referenced as child of {n.id} but missing")
            parent_count[c] = parent_count.get(c, 0) + 1
    if parent_count.get(tree.root, 0) > 0:
        raise CycleDetected(f"root {tree.root} is listed as a child")
    for nid, count in parent_count.items():
        if count > 1:
            raise OrphanNode(f"node {nid} has {count} parents")

    # Reachability from the root; a back edge on the DFS path is a cycle.
    seen: set[int] = set()
    on_path: set[int] = set()
    stack: list[tuple[int, int]] = [(tree.root, 0)]
    on_path.add(tree.root)
    seen.add(tree.root)
    while stack:
        nid, ci = stack[-1]
        kids = nodes[nid].children
        if ci == len(kids):
            stack.pop()
            on_path.discard(nid)
            continue
        stack[-1] = (nid, ci + 1)
        child = kids[ci]
        if child in on_path:
            raise CycleDetected(f"node {child} is its own ancestor")
        if child not in seen:
            seen.add(child)
            on_path.add(child)
            stack.append((child, 0))
    if len(seen) != len(nodes):
        missing = min(set(nodes) - seen)
        raise OrphanNode(f"node {missing} unreachable from root")


def depths(tree: SyntaxTree) -> dict[int, int]:
    """Depth per node id; the root has depth 1."""
    out = {tree.root: 1}
    frontier = [tree.root]
    while frontier:
        nxt: list[int] = []
        for nid in frontier:
            for c in tree.node(nid).children:
                out[c] = out[nid] + 1
                nxt.append(c)
        frontier = nxt
    return out


class TreeArrays(NamedTuple):
    """A tree's structure as int arrays, one entry per row.

    Row ``i`` is the node with the ``i``-th smallest id, the layout a batch
    gives each tree; a schedule keeps this row order within each level.
    """

    ids: np.ndarray  # node id per row, ascending
    parent: np.ndarray  # parent row; -1 at the root
    child_ptr: np.ndarray  # [n + 1] CSR offsets into child_idx
    child_idx: np.ndarray  # child rows, siblings in order
    height: np.ndarray  # 0 at leaves
    depth: np.ndarray  # 1 at the root
    type_id: np.ndarray
    token_plus1: np.ndarray  # 0 is NO-TOKEN
    label: np.ndarray  # node label; -1 where node_labels has none


def tree_arrays(trees: Sequence[SyntaxTree]) -> list[TreeArrays]:
    """Each tree's :class:`TreeArrays`, computed on first use and cached on the tree.

    Trees without cached arrays are done together, one numpy sweep per level
    of the tallest, so the cost per tree is one Python pass over its nodes.
    """
    todo = [t for t in trees if t._arrays is None]
    if todo:
        for tree, arrays in zip(todo, _compute_arrays(todo)):
            tree._arrays = arrays
    return [t._arrays for t in trees]


def _label_rows(tree: SyntaxTree, ids: np.ndarray) -> np.ndarray:
    """``tree.node_labels`` on rows: one label per row, -1 where a node has none."""
    out = np.full(len(ids), -1, dtype=np.intp)
    if not tree.node_labels:
        return out
    keys = np.fromiter(tree.node_labels, dtype=np.intp, count=len(tree.node_labels))
    values = np.fromiter(tree.node_labels.values(), dtype=np.intp, count=len(keys))
    unknown = keys[~np.isin(keys, ids)]
    if unknown.size:
        raise ValidationError(f"node_labels names node {unknown[0]}, which the tree lacks")
    if values.min() < 0:
        raise ValidationError(f"node {keys[values < 0][0]} has a negative label")
    out[np.searchsorted(ids, keys)] = values
    return out


def _local_arrays(tree: SyntaxTree):
    """ids, child counts, child rows, type ids, token ids + 1, root row and labels."""
    nodes = tree.nodes
    ids = sorted(nodes)
    kids = [nodes[i].children for i in ids]
    flat = [c for ks in kids for c in ks]
    tokens = [nodes[i].token_id for i in ids]
    ids_arr = np.array(ids, dtype=np.intp)
    return (
        ids_arr,
        np.fromiter(map(len, kids), dtype=np.intp, count=len(ids)),
        np.searchsorted(ids_arr, flat).astype(np.intp),
        np.array([nodes[i].type_id for i in ids], dtype=np.intp),
        np.array([0 if t is None else t + 1 for t in tokens], dtype=np.intp),
        int(np.searchsorted(ids_arr, tree.root)),
        _label_rows(tree, ids_arr),
    )


def _compute_arrays(trees: Sequence[SyntaxTree]) -> list[TreeArrays]:
    ids, kid_counts, child_idx, type_id, token_plus1, roots, label = zip(
        *map(_local_arrays, trees)
    )
    sizes = np.array([len(i) for i in ids], dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])
    counts = np.concatenate(kid_counts)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    idx = np.concatenate(child_idx) + np.repeat(offsets[:-1], [len(c) for c in child_idx])
    roots = np.array(roots, dtype=np.intp) + offsets[:-1]

    # breadth-first frontiers over the whole forest: a frontier holds each
    # tree's nodes of one depth in that tree's breadth-first order, tree by tree
    frontiers = [roots]
    while True:
        f = frontiers[-1]
        c = counts[f]
        total = int(c.sum())
        if not total:
            break
        first = np.cumsum(c) - c
        frontiers.append(idx[np.repeat(ptr[f] - first, c) + np.arange(total)])
    depth = np.empty(n, dtype=np.intp)
    for level, f in enumerate(frontiers, start=1):
        depth[f] = level

    # heights from the deepest frontier up: each parent with children maxes
    # over its block of the next frontier
    height = np.zeros(n, dtype=np.intp)
    for f, kids in reversed(list(zip(frontiers[:-1], frontiers[1:]))):
        p = f[counts[f] > 0]
        c = counts[p]
        height[p] = 1 + np.maximum.reduceat(height[kids], np.cumsum(c) - c)

    tree_of = np.repeat(np.arange(len(trees)), sizes)
    parent = np.full(n, -1, dtype=np.intp)
    parent[idx] = np.repeat(np.arange(n), counts) - offsets[tree_of[idx]]

    return [
        TreeArrays(
            ids=ids[t],
            parent=parent[offsets[t] : offsets[t + 1]],
            child_ptr=ptr[offsets[t] : offsets[t + 1] + 1] - ptr[offsets[t]],
            child_idx=child_idx[t],
            height=height[offsets[t] : offsets[t + 1]],
            depth=depth[offsets[t] : offsets[t + 1]],
            type_id=type_id[t],
            token_plus1=token_plus1[t],
            label=label[t],
        )
        for t in range(len(trees))
    ]


def depth(tree: SyntaxTree) -> int:
    """Number of levels; a single-node tree has depth 1."""
    return max(depths(tree).values())


def preorder(tree: SyntaxTree) -> list[int]:
    order: list[int] = []
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(reversed(tree.node(nid).children))
    return order


def leaves(tree: SyntaxTree) -> list[int]:
    return [n.id for n in tree.nodes.values() if n.is_leaf()]


@dataclass(frozen=True)
class BranchingStats:
    max_children: int
    avg_children: float
    node_count: int


def branching_stats(tree: SyntaxTree) -> BranchingStats:
    """Branching statistics; the average is over non-leaf nodes (0.0 if none)."""
    counts = [len(n.children) for n in tree.nodes.values()]
    inner = [c for c in counts if c > 0]
    avg = sum(inner) / len(inner) if inner else 0.0
    return BranchingStats(max(counts), avg, len(counts))


def renumber_preorder(tree: SyntaxTree) -> SyntaxTree:
    """Reassign ids densely (0..N-1) in pre-order, preserving child order."""
    order = preorder(tree)
    remap = {old: new for new, old in enumerate(order)}
    nodes = {
        remap[n.id]: replace(
            n, id=remap[n.id], children=tuple(remap[c] for c in n.children)
        )
        for n in tree.nodes.values()
    }
    labels = None
    if tree.node_labels is not None:
        labels = {remap[k]: v for k, v in tree.node_labels.items()}
    return SyntaxTree(nodes, remap[tree.root], tree.tree_label, labels)


class Vocabulary:
    """Two dense string<->id bijections (grammar types and lexical tokens).

    Index 0 of each table is the reserved UNKNOWN symbol; lookups of
    out-of-vocabulary strings resolve to it.
    """

    def __init__(self, type_symbols: Sequence[str], token_symbols: Sequence[str]):
        self.type_symbols = self._with_unknown(type_symbols)
        self.token_symbols = self._with_unknown(token_symbols)
        self._type_index = {s: i for i, s in enumerate(self.type_symbols)}
        self._token_index = {s: i for i, s in enumerate(self.token_symbols)}
        if len(self._type_index) != len(self.type_symbols):
            raise ValueError("duplicate type symbol")
        if len(self._token_index) != len(self.token_symbols):
            raise ValueError("duplicate token symbol")

    @staticmethod
    def _with_unknown(symbols: Sequence[str]) -> list[str]:
        out = [s for s in symbols if s != UNKNOWN]
        return [UNKNOWN] + out

    @property
    def n_types(self) -> int:
        return len(self.type_symbols)

    @property
    def n_tokens(self) -> int:
        return len(self.token_symbols)

    def type_id(self, symbol: str) -> int:
        return self._type_index.get(symbol, 0)

    def token_id(self, symbol: str) -> int:
        return self._token_index.get(symbol, 0)

    def type_symbol(self, type_id: int) -> str:
        return self.type_symbols[type_id]

    def token_symbol(self, token_id: int) -> str:
        return self.token_symbols[token_id]

    def to_obj(self) -> dict:
        return {"types": list(self.type_symbols), "tokens": list(self.token_symbols)}

    @classmethod
    def from_obj(cls, obj: dict) -> "Vocabulary":
        return cls(obj["types"], obj["tokens"])

    def digest(self) -> str:
        blob = json.dumps(self.to_obj(), separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.type_symbols == other.type_symbols
            and self.token_symbols == other.token_symbols
        )


def tree_to_obj(tree: SyntaxTree, vocab: Vocabulary) -> dict:
    nodes = [
        {
            "id": n.id,
            "type": vocab.type_symbol(n.type_id),
            "token": None if n.token_id is None else vocab.token_symbol(n.token_id),
            "children": list(n.children),
        }
        for n in sorted(tree.nodes.values(), key=lambda n: n.id)
    ]
    obj: dict = {"root": tree.root, "label": tree.tree_label, "nodes": nodes}
    if tree.node_labels is not None:
        obj["node_labels"] = {
            str(k): tree.node_labels[k] for k in sorted(tree.node_labels)
        }
    return obj


def tree_to_line(tree: SyntaxTree, vocab: Vocabulary) -> str:
    """Canonical one-line JSON form (field order fixed, nodes sorted by id)."""
    return json.dumps(tree_to_obj(tree, vocab), separators=(",", ":"), ensure_ascii=False)


def tree_digest(tree: SyntaxTree, vocab: Vocabulary) -> str:
    return hashlib.sha256(tree_to_line(tree, vocab).encode("utf-8")).hexdigest()


def tree_from_obj(obj: dict, vocab: Vocabulary, line: int | None = None) -> SyntaxTree:
    try:
        root = int(obj["root"])
        label = obj["label"]
        raw_nodes = obj["nodes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad tree object: {exc}", line) from exc
    if label is not None:
        label = int(label)
    nodes: list[SyntaxNode] = []
    for rn in raw_nodes:
        try:
            token = rn["token"]
            nodes.append(
                SyntaxNode(
                    id=int(rn["id"]),
                    type_id=vocab.type_id(rn["type"]),
                    token_id=None if token is None else vocab.token_id(token),
                    children=tuple(int(c) for c in rn["children"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad node object: {exc}", line) from exc
    node_labels = None
    if "node_labels" in obj:
        node_labels = {int(k): int(v) for k, v in obj["node_labels"].items()}
    tree = SyntaxTree.from_nodes(nodes, root, label, node_labels)
    validate(tree)
    return tree


def save_trees(trees: Iterable[SyntaxTree], path, vocab: Vocabulary) -> None:
    """Write trees as canonical JSON lines (UTF-8, one tree per line).

    The file is written to a temporary name and renamed into place, so a
    failure leaves any old file whole.
    """
    text = "".join(tree_to_line(tree, vocab) + "\n" for tree in trees)
    _replace_atomically(os.fspath(path), text.encode("utf-8"))


def iter_tree_lines(path, vocab: Vocabulary) -> Iterator[SyntaxTree]:
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), lineno) from exc
            try:
                yield tree_from_obj(obj, vocab, lineno)
            except ValidationError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc


def load_trees(path, vocab: Vocabulary) -> list[SyntaxTree]:
    """Read a tree JSON-lines file; inverse of save_trees on valid input."""
    return list(iter_tree_lines(path, vocab))


def random_tree(
    rng: np.random.Generator,
    n_nodes: int,
    max_children: int,
    n_types: int,
    n_tokens: int,
) -> SyntaxTree:
    """Random valid tree with bounded branching, dense pre-order ids.

    Leaves carry a random token; interior nodes carry none.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    children: list[list[int]] = [[] for _ in range(n_nodes)]
    open_slots = [0]
    for nid in range(1, n_nodes):
        pick = int(rng.integers(len(open_slots)))
        parent = open_slots[pick]
        children[parent].append(nid)
        if len(children[parent]) >= max_children:
            open_slots.pop(pick)
        open_slots.append(nid)
    type_ids = rng.integers(0, n_types, size=n_nodes)
    token_ids = rng.integers(0, n_tokens, size=n_nodes)
    nodes = [
        SyntaxNode(
            id=i,
            type_id=int(type_ids[i]),
            token_id=int(token_ids[i]) if not children[i] else None,
            children=tuple(children[i]),
        )
        for i in range(n_nodes)
    ]
    return renumber_preorder(SyntaxTree.from_nodes(nodes, 0))
