import itertools

import numpy as np

from treeformer import numerics as nm
from treeformer.trees import SyntaxNode, SyntaxTree, preorder

# every setting of the three model-part switches, all on first: 8 distinct models
SWITCHES = [
    dict(zip(("use_position_encoding", "use_fraternal_attention", "use_top_down"), on))
    for on in itertools.product([True, False], repeat=3)
]


def weighted_sum(y, weights=None):
    """``sum(y * weights)`` (all-ones weights when None) as a 0-d tensor, built
    from ``reshape`` and ``matmul``: the scalar loss tests reduce an op to."""
    y = nm.reshape(y, (1, -1))
    w = np.ones(y.shape[1], y.dtype) if weights is None else weights
    return nm.reshape(nm.matmul(y, nm.reshape(w, (-1, 1))), ())


def make_tree(edges, root=0, types=None, tokens=None, label=None):
    """Build a tree from {parent: [children]} with explicit ids."""
    ids = set(edges) | {c for kids in edges.values() for c in kids} | {root}
    nodes = [
        SyntaxNode(
            id=i,
            type_id=(types or {}).get(i, 0),
            token_id=(tokens or {}).get(i),
            children=tuple(edges.get(i, ())),
        )
        for i in sorted(ids)
    ]
    return SyntaxTree({n.id: n for n in nodes}, root, label)


def chain(n):
    return make_tree({i: [i + 1] for i in range(n - 1)}, root=0)


def star(k):
    return make_tree({0: list(range(1, k + 1))}, root=0)


def heights(tree: SyntaxTree) -> dict[int, int]:
    """Height per node id by recursion over preorder; leaves have height 0."""
    out: dict[int, int] = {}
    for nid in reversed(preorder(tree)):
        kids = tree.node(nid).children
        out[nid] = 1 + max(out[c] for c in kids) if kids else 0
    return out


def brute_force_valid(tree: SyntaxTree) -> bool:
    """Independent validity oracle: explicit parent map + DFS reachability."""
    nodes = tree.nodes
    if tree.root not in nodes:
        return False
    if any(key != n.id for key, n in nodes.items()):
        return False
    parents = {}
    for n in nodes.values():
        for c in n.children:
            if c not in nodes:
                return False
            if c in parents:
                return False
            parents[c] = n.id
    if tree.root in parents:
        return False
    if any(nid not in parents for nid in nodes if nid != tree.root):
        return False
    seen = set()
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            return False
        seen.add(nid)
        stack.extend(nodes[nid].children)
    return seen == set(nodes)
