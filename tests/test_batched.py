from dataclasses import replace

import numpy as np
import pytest

from conftest import SWITCHES, chain, make_tree, star, weighted_sum
from treeformer.batched import batch_state_tensors, encode_batch
from treeformer.model import ModelConfig, encode_tree, init_params, naive_state_tensors
from treeformer.numerics import add, backward, concat, constant
from treeformer.scheduler import build_schedule
from treeformer.training import pooled_rows
from treeformer.trees import random_tree


def config(d=8, heads=2, **kw):
    base = dict(
        d=d, heads=heads, type_vocab_size=10, token_vocab_size=10,
        max_children=8, classify_classes=2,
    )
    base.update(kw)
    return ModelConfig(**base)


def max_state_diff(a, b):
    worst = 0.0
    for nid in a.up:
        worst = max(worst, np.abs(a.up[nid] - b.up[nid]).max())
        worst = max(worst, np.abs(a.down[nid] - b.down[nid]).max())
    return worst


class TestEquivalence:
    @pytest.mark.parametrize("d,heads", [(8, 2), (8, 4), (16, 2), (16, 4)])
    def test_matches_naive_recursion(self, d, heads):
        cfg = config(d=d, heads=heads)
        params = init_params(cfg, seed=d + heads)
        rng = np.random.default_rng(d * heads)
        trees = [
            random_tree(rng, int(rng.integers(1, 80)), 6, 10, 10) for _ in range(6)
        ]
        batched = encode_batch(trees, params, cfg)
        for tree, got in zip(trees, batched):
            naive = encode_tree(tree, params, cfg, method="naive")
            assert max_state_diff(naive, got) <= 1e-10

    @pytest.mark.parametrize("flags", SWITCHES)
    def test_matches_naive_under_ablations(self, flags):
        cfg = config(**flags)
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(4)
        trees = [random_tree(rng, 40, 5, 10, 10) for _ in range(4)]
        for tree, got in zip(trees, encode_batch(trees, params, cfg)):
            naive = encode_tree(tree, params, cfg, method="naive")
            assert max_state_diff(naive, got) <= 1e-10

    def test_single_node_tree_in_batch(self):
        cfg = config()
        params = init_params(cfg, seed=5)
        trees = [make_tree({}, types={0: 1}), chain(3)]
        out = encode_batch(trees, params, cfg)
        from treeformer.model import embed_node

        expected = embed_node(trees[0].node(0), params, cfg)
        assert np.array_equal(out[0].up[0], expected)
        assert np.array_equal(out[0].down[0], expected)


def _projected_loss(S, D, rng):
    """A loss that weighs every bottom-up and final state entry differently."""
    return add(
        weighted_sum(S, constant(rng.standard_normal(S.shape))),
        weighted_sum(D, constant(rng.standard_normal(D.shape))),
    )


def _param_grads(params, loss):
    params.zero_grads()
    backward(loss)
    return {
        name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        for name, t in params.params.items()
    }


class TestGradientOracle:
    """Parameter gradients through the batched levels equal the naive recursion's."""

    @pytest.mark.parametrize("flags", SWITCHES)
    def test_matches_naive_gradients(self, flags):
        cfg = config(max_children=16, **flags)
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(12)
        trees = [
            make_tree({}, types={0: 3}, tokens={0: 2}),
            chain(24),
            star(16),
            random_tree(rng, 120, 16, 10, 10),
            make_tree({}, types={0: 1}),
            random_tree(rng, 60, 3, 10, 10),
        ]
        _, S, D, _ = batch_state_tensors(trees, params, cfg)
        batched = _param_grads(params, _projected_loss(S, D, np.random.default_rng(13)))

        ups, downs = [], []
        for tree in trees:
            _, up, down = naive_state_tensors(tree, params, cfg)
            ups += [up[nid] for nid in sorted(tree.nodes)]
            downs += [down[nid] for nid in sorted(tree.nodes)]
        loss = _projected_loss(concat(ups), concat(downs), np.random.default_rng(13))
        naive = _param_grads(params, loss)

        for name, want in naive.items():
            bound = 1e-10 * max(1.0, np.abs(want).max())
            assert np.abs(batched[name] - want).max() <= bound, name


def _retyped(tree, ids, rng):
    """``tree`` with every node in ``ids`` given another type id."""
    nodes = dict(tree.nodes)
    for nid in ids:
        node = nodes[nid]
        nodes[nid] = replace(node, type_id=(node.type_id + int(rng.integers(1, 10))) % 10)
    return replace(tree, nodes=nodes)


def _ancestry(tree, nid):
    """``nid`` and every node above it."""
    parent = {c: p.id for p in tree.nodes.values() for c in p.children}
    out = [nid]
    while out[-1] in parent:
        out.append(parent[out[-1]])
    return out


class TestIsolation:
    """A node's bottom-up state reads only its own subtree, and its final state
    only its own tree: inputs changed anywhere else leave it bit-identical."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_perturbations_stay_local(self, dtype):
        cfg = config(max_children=16)
        params = init_params(cfg, seed=6, dtype=dtype)
        rng = np.random.default_rng(7)
        for _ in range(20):
            trees = [star(int(rng.integers(1, 17)))] + [
                random_tree(rng, int(rng.integers(1, 60)), int(rng.integers(1, 17)), 10, 10)
                for _ in range(int(rng.integers(1, 6)))
            ]
            rng.shuffle(trees)
            _, S, D, schedule = batch_state_tensors(trees, params, cfg)
            t = int(rng.integers(len(trees)))
            index = schedule.row_index[t]

            # every type id of tree t: no other tree's row moves
            edited = list(trees)
            edited[t] = _retyped(trees[t], index, rng)
            _, S2, D2, _ = batch_state_tensors(edited, params, cfg)
            others = np.setdiff1d(np.arange(schedule.n_rows), list(index.values()))
            assert S2.data[others].tobytes() == S.data[others].tobytes()
            assert D2.data[others].tobytes() == D.data[others].tobytes()
            assert not np.array_equal(S2.data[index[trees[t].root]], S.data[index[trees[t].root]])

            # one node of tree t: only its own and its ancestors' bottom-up rows move
            nid = list(index)[int(rng.integers(len(index)))]
            edited[t] = _retyped(trees[t], [nid], rng)
            _, S3, _, _ = batch_state_tensors(edited, params, cfg)
            kept = np.setdiff1d(
                np.arange(schedule.n_rows), [index[a] for a in _ancestry(trees[t], nid)]
            )
            assert S3.data[kept].tobytes() == S.data[kept].tobytes()
            assert not np.array_equal(S3.data[index[nid]], S.data[index[nid]])


class TestLayoutHelpers:
    def test_padded_tree_rows(self):
        """Each tree pools its own rows only: changing a long tree's rows leaves a
        shorter tree's pooled row bit for bit unchanged."""
        schedule = build_schedule([chain(4), chain(2)])
        params = init_params(config(), seed=10)
        rng = np.random.default_rng(10)
        D = rng.standard_normal((schedule.n_rows, 8))
        before = pooled_rows(constant(D), schedule, params).data
        assert before.shape == (2, 8)
        D[list(schedule.row_index[0].values())] = rng.standard_normal((4, 8)) * 1e3
        after = pooled_rows(constant(D), schedule, params).data
        assert after[1].tobytes() == before[1].tobytes()
        assert np.abs(after[0] - before[0]).max() > 1.0
