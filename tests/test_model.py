import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, make_tree, weighted_sum
from treeformer.batched import batch_state_tensors
from treeformer.minilang import MINI_VOCAB, OPS_MINI, operator_nodes, parse
from treeformer.model import (
    BranchingOverflow,
    ModelConfig,
    VocabularyOverflow,
    bottom_up_step,
    embed_node,
    encode_tree,
    fraternal_attention,
    init_params,
    multi_head_attention,
    sinusoidal_rows,
    top_down_step,
)
from treeformer.numerics import (
    ParamStore,
    add,
    backward,
    concat,
    constant,
    cross_entropy,
    gather_rows,
    linear,
    matmul,
    reshape,
    scale,
    softmax,
)
from treeformer.scheduler import build_schedule
from treeformer.synth import MutationRecord, gen_wrongop_corpus, mutate_operator
from treeformer.training import pooled_rows, task_forward
from treeformer.trees import leaves, random_tree


def small_config(**kw):
    defaults = dict(
        d=8,
        heads=2,
        type_vocab_size=12,
        token_vocab_size=12,
        max_children=8,
        classify_classes=3,
    )
    defaults.update(kw)
    return ModelConfig(**defaults)


def mini_config(**kw):
    return small_config(
        type_vocab_size=MINI_VOCAB.n_types, token_vocab_size=MINI_VOCAB.n_tokens, **kw
    )


def pooled(trees, params, cfg):
    """Pooled tree vectors [B, d] from the batched encoder."""
    _, _, D, schedule = batch_state_tensors(trees, params, cfg)
    return pooled_rows(D, schedule, params).data


def oracle_pool(rows, gate):
    return oracle_softmax((rows @ gate)[:, 0][None])[0] @ rows


def np_params(params):
    return {name: params[name].data for name in params.names()}


def one_parent(H):
    """``bottom_up_step`` blocks for the children rows ``H`` of one parent."""
    return [(len(H), 1)]


# --- independent oracles (plain numpy, no shared attention helpers) ---------

def oracle_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def oracle_layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def oracle_mha(q, k, v, wq, wk, wv, wo, heads, denom, pos=None):
    """Per-pair score/normalize/mix attention, one explicit loop per head."""
    d = k.shape[1]
    dh = d // heads
    pieces = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        qh = (q @ wq)[:, cols]
        kh = (k @ wk)[:, cols]
        vh = (v @ wv)[:, cols]
        scores = np.zeros((q.shape[0], k.shape[0]))
        for i in range(q.shape[0]):
            for j in range(k.shape[0]):
                scores[i, j] = qh[i] @ kh[j] / denom
        if pos is not None:
            scores = scores + pos
        pieces.append(oracle_softmax(scores) @ vh)
    return np.concatenate(pieces, axis=1) @ wo


def oracle_ffn(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def oracle_pos_scores(P, n, uq, uk, denom):
    rows = P[:n]
    return (rows @ uq) @ (rows @ uk).T / denom


def oracle_bottom_up(e, H, p, cfg):
    denom_f = math.sqrt(2 * cfg.d_head)
    table = sinusoidal_rows(cfg.max_children, cfg.d)
    pos = oracle_pos_scores(table, H.shape[0], p["up.frat.uq"], p["up.frat.uk"], denom_f)
    frat = oracle_mha(
        H, H, H, p["up.frat.wq"], p["up.frat.wk"], p["up.frat.wv"], p["up.frat.wo"],
        cfg.heads, denom_f, pos=pos,
    )
    H1 = oracle_layer_norm(frat + H, p["up.ln_frat.gamma"], p["up.ln_frat.beta"])
    attended = oracle_mha(
        e[None], H1, H1, p["up.par.wq"], p["up.par.wk"], p["up.par.wv"], p["up.par.wo"],
        cfg.heads, math.sqrt(cfg.d_head),
    )
    mid = oracle_layer_norm(attended + e, p["up.ln_attn.gamma"], p["up.ln_attn.beta"])
    out = oracle_layer_norm(
        oracle_ffn(mid, p["up.ffn.w1"], p["up.ffn.b1"], p["up.ffn.w2"], p["up.ffn.b2"]) + mid,
        p["up.ln_out.gamma"], p["up.ln_out.beta"],
    )
    return out[0]


def oracle_top_down(h_parent, H_up, p):
    mixed = oracle_layer_norm(H_up + h_parent, p["down.ln_in.gamma"], p["down.ln_in.beta"])
    return oracle_layer_norm(
        oracle_ffn(mixed, p["down.ffn.w1"], p["down.ffn.b1"], p["down.ffn.w2"], p["down.ffn.b2"])
        + mixed,
        p["down.ln_out.gamma"], p["down.ln_out.beta"],
    )


# ---------------------------------------------------------------------------

class TestEmbed:
    def test_equal_ids_equal_vectors(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        tree = random_tree(np.random.default_rng(0), 10, 4, cfg.type_vocab_size, cfg.token_vocab_size)
        for a in tree.nodes.values():
            for b in tree.nodes.values():
                if (a.type_id, a.token_id) == (b.type_id, b.token_id):
                    assert np.array_equal(
                        embed_node(a, params, cfg), embed_node(b, params, cfg)
                    )

    def test_token_half_only(self):
        from treeformer.trees import SyntaxNode

        cfg = small_config()
        params = init_params(cfg, seed=0)
        half = cfg.d // 2
        a = embed_node(SyntaxNode(0, 3, 1), params, cfg)
        b = embed_node(SyntaxNode(0, 3, 2), params, cfg)
        assert np.array_equal(a[:half], b[:half])
        assert not np.array_equal(a[half:], b[half:])

    def test_width(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        tree = random_tree(np.random.default_rng(1), 30, 5, cfg.type_vocab_size, cfg.token_vocab_size)
        for node in tree.nodes.values():
            assert embed_node(node, params, cfg).shape == (cfg.d,)

    def test_vocab_overflow(self):
        from treeformer.trees import SyntaxNode

        cfg = small_config()
        params = init_params(cfg, seed=0)
        with pytest.raises(VocabularyOverflow):
            embed_node(SyntaxNode(0, cfg.type_vocab_size, None), params, cfg)
        with pytest.raises(VocabularyOverflow):
            embed_node(SyntaxNode(0, 0, cfg.token_vocab_size), params, cfg)


def _mha_args(params, prefix, cfg, denom):
    return dict(
        wq=params[f"{prefix}.wq"], wk=params[f"{prefix}.wk"],
        wv=params[f"{prefix}.wv"], wo=params[f"{prefix}.wo"],
        heads=cfg.heads, denom=denom,
    )


class TestMultiHeadAttention:
    def test_single_key_value_row(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        rng = np.random.default_rng(0)
        kv = rng.standard_normal((1, cfg.d))
        args = _mha_args(params, "up.par", cfg, math.sqrt(cfg.d_head))
        outs = [
            multi_head_attention(
                constant(rng.standard_normal((1, cfg.d))), constant(kv), constant(kv),
                blocks=[(1, 1, 1)], **args,
            ).data
            for _ in range(3)
        ]
        # attention over one key always outputs weight 1: projection of that value row
        expected = kv @ params["up.par.wv"].data @ params["up.par.wo"].data
        for out in outs:
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identical_keys_uniform_mix(self):
        cfg = small_config()
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(1)
        row = rng.standard_normal(cfg.d)
        kv = np.stack([row] * 5)
        q = rng.standard_normal((2, cfg.d))
        out = multi_head_attention(
            constant(q), constant(kv), constant(kv), blocks=[(2, 5, 1)],
            **_mha_args(params, "up.par", cfg, math.sqrt(cfg.d_head)),
        ).data
        expected = row @ params["up.par.wv"].data @ params["up.par.wo"].data
        np.testing.assert_allclose(out, np.stack([expected] * 2), atol=1e-12)

    def test_brute_force_oracle(self):
        cfg = small_config()
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(2)
        q = rng.standard_normal((2, cfg.d))
        kv = rng.standard_normal((3, cfg.d))
        denom = math.sqrt(cfg.d_head)
        got = multi_head_attention(
            constant(q), constant(kv), constant(kv), blocks=[(2, 3, 1)],
            **_mha_args(params, "up.par", cfg, denom),
        ).data
        p = np_params(params)
        expected = oracle_mha(
            q, kv, kv, p["up.par.wq"], p["up.par.wk"], p["up.par.wv"], p["up.par.wo"],
            cfg.heads, denom,
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestFraternalAttention:
    def test_single_child_projection(self):
        cfg = small_config()
        params = init_params(cfg, seed=6)
        h = np.random.default_rng(3).standard_normal((1, cfg.d))
        out = fraternal_attention(constant(h), one_parent(h), params, cfg).data
        expected = h @ params["up.frat.wv"].data @ params["up.frat.wo"].data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_permutation_equivariance_without_positions(self):
        cfg = small_config(use_position_encoding=False)
        params = init_params(cfg, seed=7)
        H = np.random.default_rng(4).standard_normal((4, cfg.d))
        perm = [2, 0, 3, 1]
        out = fraternal_attention(constant(H), one_parent(H), params, cfg).data
        out_perm = fraternal_attention(constant(H[perm]), one_parent(H), params, cfg).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_zeroed_content_gives_position_only_weights(self):
        cfg = small_config()
        params = init_params(cfg, seed=8)
        params["up.frat.wq"].data[:] = 0.0
        params["up.frat.wk"].data[:] = 0.0
        params["up.frat.wv"].data[:] = np.eye(cfg.d)
        params["up.frat.wo"].data[:] = np.eye(cfg.d)
        rng = np.random.default_rng(5)
        weights = []
        for _ in range(2):
            H = rng.standard_normal((4, cfg.d))
            out = fraternal_attention(constant(H), one_parent(H), params, cfg).data
            weights.append(out @ np.linalg.pinv(H))  # out = W @ H, same W expected
        np.testing.assert_allclose(weights[0], weights[1], atol=1e-8)


class TestBottomUpStep:
    def test_leaf_identity_no_step(self):
        cfg = mini_config()
        params = init_params(cfg, seed=10)
        tree = parse("a = 1;")
        states = encode_tree(tree, params, cfg)
        for leaf in leaves(tree):
            assert np.array_equal(
                states.up[leaf], embed_node(tree.node(leaf), params, cfg)
            )

    def test_child_permutation_invariance_without_positions(self):
        cfg = small_config(use_position_encoding=False)
        params = init_params(cfg, seed=11)
        rng = np.random.default_rng(6)
        e = rng.standard_normal((1, cfg.d))
        H = rng.standard_normal((5, cfg.d))
        base = bottom_up_step(constant(e), constant(H), one_parent(H), params, cfg).data
        perm = rng.permutation(5)
        permuted = bottom_up_step(
            constant(e), constant(H[perm]), one_parent(H), params, cfg
        ).data
        np.testing.assert_allclose(permuted, base, atol=1e-12)

    def test_direct_transcription_oracle(self):
        cfg = ModelConfig(
            d=4, heads=2, type_vocab_size=4, token_vocab_size=4,
            max_children=4, classify_classes=2,
        )
        params = init_params(cfg, seed=12)
        rng = np.random.default_rng(7)
        e = rng.standard_normal(cfg.d)
        H = rng.standard_normal((2, cfg.d))
        got = bottom_up_step(
            constant(e[None]), constant(H), one_parent(H), params, cfg
        ).data[0]
        expected = oracle_bottom_up(e, H, np_params(params), cfg)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize(
        "flags", [{}, {"use_fraternal_attention": False}], ids=["frat", "nofrat"]
    )
    def test_branching_overflow(self, flags):
        cfg = small_config(max_children=3, **flags)
        params = init_params(cfg, seed=9)
        e, H = np.zeros((1, cfg.d)), np.zeros((4, cfg.d))
        with pytest.raises(BranchingOverflow, match="4 children exceed max_children=3"):
            bottom_up_step(constant(e), constant(H), one_parent(H), params, cfg)

    @pytest.mark.parametrize(
        "flags", [{}, {"use_fraternal_attention": False, "pe_before_parental": True}]
    )
    def test_level_of_blocks_matches_per_parent_calls(self, flags):
        """One call over blocks of different widths equals one call per parent."""
        cfg = small_config(**flags)
        params = init_params(cfg, seed=15)
        rng = np.random.default_rng(9)
        widths = [(1, 1), (2, 2), (4, 2)]  # (children per parent, parents) per block
        e = rng.standard_normal((5, cfg.d))
        alone = [rng.standard_normal((w, cfg.d)) for w, n in widths for _ in range(n)]
        got = bottom_up_step(constant(e), constant(np.concatenate(alone)), widths, params, cfg).data
        for i, k in enumerate(alone):
            want = bottom_up_step(constant(e[i : i + 1]), constant(k), one_parent(k), params, cfg)
            assert np.abs(got[i] - want.data[0]).max() <= 1e-10


class TestTopDownStep:
    def test_root_rule_bitwise(self):
        cfg = mini_config()
        params = init_params(cfg, seed=13)
        tree = parse("s = s + 1;")
        states = encode_tree(tree, params, cfg)
        assert np.array_equal(states.down[tree.root], states.up[tree.root])

    def test_identical_children_identical_outputs(self):
        cfg = small_config()
        params = init_params(cfg, seed=14)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((1, cfg.d))
        row = rng.standard_normal(cfg.d)
        parents = gather_rows(constant(h), [0, 0])
        out = top_down_step(parents, constant(np.stack([row, row])), params).data
        assert np.array_equal(out[0], out[1])

    def test_direct_transcription_oracle(self):
        cfg = small_config()
        params = init_params(cfg, seed=15)
        rng = np.random.default_rng(9)
        h_parent = rng.standard_normal((1, cfg.d))
        H = rng.standard_normal((3, cfg.d))
        parents = gather_rows(constant(h_parent), [0, 0, 0])
        got = top_down_step(parents, constant(H), params).data
        expected = oracle_top_down(h_parent[0], H, np_params(params))
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestEncodeTree:
    def test_single_node(self):
        cfg = small_config()
        params = init_params(cfg, seed=16)
        tree = make_tree({}, types={0: 2}, tokens={0: 3})
        states = encode_tree(tree, params, cfg)
        expected = embed_node(tree.node(0), params, cfg)
        assert np.array_equal(states.up[0], expected)
        assert np.array_equal(states.down[0], expected)

    def test_bottom_up_locality_bitwise(self):
        """With top-down off, states inside a subtree ignore all outside edits."""
        cfg = small_config(use_top_down=False)
        params = init_params(cfg, seed=17)
        rng = np.random.default_rng(10)
        for _ in range(10):
            tree = random_tree(rng, 25, 4, cfg.type_vocab_size, cfg.token_vocab_size)
            states = encode_tree(tree, params, cfg)
            # pick the subtree under the root's first child
            anchor = tree.node(tree.root).children[0]
            inside = set()
            stack = [anchor]
            while stack:
                nid = stack.pop()
                inside.add(nid)
                stack.extend(tree.node(nid).children)
            outside = [nid for nid in tree.nodes if nid not in inside and nid != tree.root]
            if not outside:
                continue
            victim = outside[int(rng.integers(len(outside)))]
            new_type = int(rng.integers(cfg.type_vocab_size))
            edited_nodes = dict(tree.nodes)
            edited_nodes[victim] = replace(edited_nodes[victim], type_id=new_type)
            edited = replace(tree, nodes=edited_nodes)
            edited_states = encode_tree(edited, params, cfg)
            for nid in inside:
                assert np.array_equal(states.up[nid], edited_states.up[nid])
                assert np.array_equal(states.down[nid], edited_states.down[nid])

    def test_top_down_off_down_equals_up(self):
        cfg = mini_config(use_top_down=False)
        params = init_params(cfg, seed=18)
        tree = parse("s = s + 1; t = t * 2;")
        states = encode_tree(tree, params, cfg)
        for nid in tree.nodes:
            assert np.array_equal(states.down[nid], states.up[nid])


class TestOrderSensitivity:
    def _tree_with_permutable_siblings(self):
        # root with 4 children, one of them interior with 3 leaves: branching <= 4
        return make_tree(
            {0: [1, 2, 3, 4], 4: [5, 6, 7]},
            types={i: (i % 3) + 1 for i in range(8)},
            tokens={i: (i % 4) for i in [1, 2, 3, 5, 6, 7]},
        )

    def _permute(self, tree, perm_root, perm_inner):
        nodes = dict(tree.nodes)
        nodes[0] = replace(nodes[0], children=tuple(perm_root))
        nodes[4] = replace(nodes[4], children=tuple(perm_inner))
        return replace(tree, nodes=nodes)

    def test_invariant_without_positions_exhaustive(self):
        cfg = small_config(use_position_encoding=False)
        params = init_params(cfg, seed=19)
        tree = self._tree_with_permutable_siblings()
        variants = [
            self._permute(tree, perm_root, perm_inner)
            for perm_root in itertools.permutations([1, 2, 3, 4])
            for perm_inner in itertools.permutations([5, 6, 7])
        ]
        h = pooled([tree] + variants, params, cfg)
        assert h.shape == (145, cfg.d)
        np.testing.assert_allclose(h[1:], np.broadcast_to(h[0], h[1:].shape), atol=1e-12)

    def test_sensitive_with_positions(self):
        tree = self._tree_with_permutable_siblings()
        swapped = self._permute(tree, [2, 1, 3, 4], [5, 6, 7])
        for seed in range(20):
            cfg = small_config()
            params = init_params(cfg, seed=seed)
            a, b = pooled([tree, swapped], params, cfg)
            if np.abs(a - b).max() >= 1e-6:
                return
        pytest.fail("no sibling permutation changed the pooled vector in 20 draws")


class TestAblations:
    def test_no_fraternal_reduces_to_identity_stage(self):
        cfg = small_config(use_fraternal_attention=False)
        params = init_params(cfg, seed=20)
        rng = np.random.default_rng(11)
        e = rng.standard_normal((1, cfg.d))
        H = rng.standard_normal((3, cfg.d))
        got = bottom_up_step(constant(e), constant(H), one_parent(H), params, cfg).data
        p = np_params(params)
        attended = oracle_mha(
            e, H, H, p["up.par.wq"], p["up.par.wk"], p["up.par.wv"], p["up.par.wo"],
            cfg.heads, math.sqrt(cfg.d_head),
        )
        mid = oracle_layer_norm(attended + e, p["up.ln_attn.gamma"], p["up.ln_attn.beta"])
        expected = oracle_layer_norm(
            oracle_ffn(mid, p["up.ffn.w1"], p["up.ffn.b1"], p["up.ffn.w2"], p["up.ffn.b2"]) + mid,
            p["up.ln_out.gamma"], p["up.ln_out.beta"],
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_pe_before_parental_adds_position_rows(self):
        cfg = small_config(use_fraternal_attention=False, pe_before_parental=True)
        params = init_params(cfg, seed=21)
        rng = np.random.default_rng(12)
        e = rng.standard_normal((1, cfg.d))
        H = rng.standard_normal((3, cfg.d))
        got = bottom_up_step(constant(e), constant(H), one_parent(H), params, cfg).data
        p = np_params(params)
        H1 = H + sinusoidal_rows(cfg.max_children, cfg.d)[:3]
        attended = oracle_mha(
            e, H1, H1, p["up.par.wq"], p["up.par.wk"], p["up.par.wv"], p["up.par.wo"],
            cfg.heads, math.sqrt(cfg.d_head),
        )
        mid = oracle_layer_norm(attended + e, p["up.ln_attn.gamma"], p["up.ln_attn.beta"])
        expected = oracle_layer_norm(
            oracle_ffn(mid, p["up.ffn.w1"], p["up.ffn.b1"], p["up.ffn.w2"], p["up.ffn.b2"]) + mid,
            p["up.ln_out.gamma"], p["up.ln_out.beta"],
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_all_variants_encode(self):
        variants = [
            {"use_position_encoding": False},
            {"use_fraternal_attention": False},
            {"use_fraternal_attention": False, "pe_before_parental": True},
            {"use_top_down": False},
        ]
        tree = parse("s = 0; while (s < 5) { s = s + 1; }")
        for flags in variants:
            cfg = ModelConfig(
                d=8, heads=2, type_vocab_size=MINI_VOCAB.n_types,
                token_vocab_size=MINI_VOCAB.n_tokens, max_children=8,
                classify_classes=2, **flags,
            )
            params = init_params(cfg, seed=22)
            states = encode_tree(tree, params, cfg)
            assert len(states.down) == len(tree)


class TestGlobalContext:
    def test_down_state_depends_on_far_embeddings(self):
        from treeformer.batched import batch_state_tensors
        from treeformer.numerics import backward, matmul

        cfg = small_config()
        params = init_params(cfg, seed=23)
        rng = np.random.default_rng(13)
        hits = 0
        total = 0
        for _ in range(4):
            tree = random_tree(rng, 20, 4, cfg.type_vocab_size, cfg.token_vocab_size)
            for _ in range(5):
                i = int(rng.integers(len(tree)))
                X, _, D, schedule = batch_state_tensors([tree], params, cfg)
                u = constant(rng.standard_normal((cfg.d, 1)))
                row = schedule.row_index[0][i]
                backward(matmul(gather_rows(D, [row]), u))
                for _ in range(5):
                    j = int(rng.integers(len(tree)))
                    total += 1
                    if np.abs(X.grad[schedule.row_index[0][j]]).max() > 0:
                        hits += 1
        assert hits / total >= 0.99


class TestPool:
    def test_single_node(self):
        cfg = small_config()
        params = init_params(cfg, seed=26)
        trees = [make_tree({}, types={0: 1}), make_tree({0: [1, 2]}, types={0: 2, 1: 3, 2: 4})]
        _, _, D, schedule = batch_state_tensors(trees, params, cfg)
        got = pooled_rows(D, schedule, params).data[0]
        np.testing.assert_array_equal(got, D.data[schedule.row_index[0][0]])

    def test_identical_states_pool_to_that_vector(self):
        cfg = small_config()
        params = init_params(cfg, seed=27)
        rng = np.random.default_rng(16)
        schedule = build_schedule([chain(5), chain(3)])
        D = rng.standard_normal((schedule.n_rows, cfg.d))
        row = rng.standard_normal(cfg.d)
        D[list(schedule.row_index[1].values())] = row
        got = pooled_rows(constant(D), schedule, params).data[1]
        np.testing.assert_allclose(got, row, atol=1e-12)

    def test_three_node_oracle(self):
        cfg = small_config()
        params = init_params(cfg, seed=28)
        rng = np.random.default_rng(17)
        schedule = build_schedule([make_tree({0: [1, 2]}), chain(6)])
        D = rng.standard_normal((schedule.n_rows, cfg.d))
        got = pooled_rows(constant(D), schedule, params).data
        gate = params["pool.gate"].data
        for t, index in enumerate(schedule.row_index):
            rows = D[[index[nid] for nid in sorted(index)]]
            np.testing.assert_allclose(got[t], oracle_pool(rows, gate), atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_pool_matches_per_tree_oracle(sizes, seed):
    """Over batches of mixed tree sizes, with single-node trees and runs of
    equal sizes among them, each pooled row equals the per-tree oracle, and
    the gradients equal those of the same pool built tree by tree from
    generic tape ops (gate scores, softmax, weighted sum).

    The gradients are compared with that tape, not with ``grad_check``: its
    fixed 1e-8 floor read 1.6e-6 at sizes [1, 1, 1, 2, 2, 2, 4, 4], seed 0,
    on a correct coordinate of -1.24e-5."""
    schedule = build_schedule([chain(n) for n in sizes])
    rng = np.random.default_rng(seed)
    params = ParamStore("float64")
    D = params.add_param("D", rng.standard_normal((schedule.n_rows, 4)))
    gate = params.add_param("pool.gate", rng.standard_normal((4, 1)))
    got = pooled_rows(D, schedule, params).data
    for t, index in enumerate(schedule.row_index):
        rows = D.data[[index[nid] for nid in sorted(index)]]
        assert np.abs(got[t] - oracle_pool(rows, gate.data)).max() <= 1e-12
    C = constant(rng.standard_normal(got.shape))

    def tree_by_tree():
        pooled = []
        for index in schedule.row_index:
            rows = gather_rows(D, [index[nid] for nid in sorted(index)])
            pooled.append(matmul(softmax(reshape(matmul(rows, gate), (1, -1))), rows))
        return concat(pooled)

    grads = []
    for pool in (lambda: pooled_rows(D, schedule, params), tree_by_tree):
        params.zero_grads()
        backward(weighted_sum(pool(), C))
        grads.append((D.grad, gate.grad))
    for got_grad, want_grad in zip(*grads):
        assert np.abs(got_grad - want_grad).max() <= 1e-12


def wrongop_config(**kw):
    return mini_config(classify_classes=None, operator_classes=len(OPS_MINI), **kw)


def unmutated_record(source):
    """A record pointing at the first operator of an unmutated program."""
    tree = parse(source)
    target = operator_nodes(tree)[0]
    op = OPS_MINI.index(MINI_VOCAB.token_symbol(tree.node(target).token_id))
    return MutationRecord(tree, target, op, op, "")


class TestHeads:
    def test_pointer_single_candidate(self):
        cfg = wrongop_config()
        params = init_params(cfg, seed=29)
        batch = [unmutated_record("s = a + b;"), mutate_operator(parse("s = a * b - c / d;"), 3)]
        out = task_forward("wrongop", batch, params, cfg)
        assert [row.shape for row in out.logits] == [(1,), (3,)]
        assert [row.shape for row in out.repair_logits] == [(1, len(OPS_MINI)), (3, len(OPS_MINI))]
        assert softmax(constant(out.logits[0])).data.tolist() == [1.0]

    def test_pointer_identical_candidates(self):
        """Equal-symbol candidates tie exactly without top-down flow, at any row position."""
        records = gen_wrongop_corpus(128, 2, seed=714)
        pairs = 0
        for d, dtype in itertools.product((16, 64), ("float64", "float32")):
            cfg = wrongop_config(d=d, max_children=16, use_top_down=False)
            params = init_params(cfg, seed=2, dtype=dtype)
            for size in (1, 2, 3, 4, 5, 6, 7, 32, 64):
                for start in range(0, len(records), size):
                    batch = records[start : start + size]
                    logits = task_forward("wrongop", batch, params, cfg).logits
                    for rec, row in zip(batch, logits):
                        cands = operator_nodes(rec.tree)
                        tokens = [rec.tree.node(c).token_id for c in cands]
                        for i, j in itertools.combinations(range(len(cands)), 2):
                            if tokens[i] == tokens[j]:
                                assert row[i] == row[j], (d, dtype, size, start, rec.target_node)
                                pairs += 1
        assert pairs > 200

    def test_pointer_mass_restricted_to_candidates(self):
        cfg = wrongop_config()
        params = init_params(cfg, seed=31)
        batch = gen_wrongop_corpus(6, 2, seed=20)
        logits = task_forward("wrongop", batch, params, cfg).logits
        assert [len(row) for row in logits] == [len(operator_nodes(r.tree)) for r in batch]
        for row in logits:
            assert abs(softmax(constant(row)).data.sum() - 1.0) < 1e-12

    def test_wrongop_loss_matches_per_tree_oracle(self):
        """Loss and gradients equal one [1, k] cross-entropy per tree's candidates
        plus the repair loss at the gold rows, including a 1-candidate tree."""
        cfg = wrongop_config(d=16, max_children=16)
        params = init_params(cfg, seed=37)
        batch = gen_wrongop_corpus(5, 2, seed=21)
        batch.insert(2, unmutated_record("s = a + b;"))
        out = task_forward("wrongop", batch, params, cfg)
        backward(out.loss)
        got = {n: params[n].grad.copy() for n in params.names() if params[n].grad is not None}

        params.zero_grads()
        _, _, D, schedule = batch_state_tensors([r.tree for r in batch], params, cfg)
        index = schedule.row_index
        pointer = []
        for t, rec in enumerate(batch):
            cands = operator_nodes(rec.tree)
            rows = gather_rows(D, [index[t][nid] for nid in cands])
            logits = reshape(matmul(rows, params["head.pointer.w"]), (1, len(cands)))
            pointer.append(cross_entropy(logits, [cands.index(rec.target_node)]))
        gold = gather_rows(D, [index[t][rec.target_node] for t, rec in enumerate(batch)])
        repair = linear(gold, params["head.repair.w"], params["head.repair.b"])
        total = pointer[0]
        for term in pointer[1:]:
            total = add(total, term)
        oracle = add(
            scale(total, 1.0 / len(batch)),
            cross_entropy(repair, [rec.original_op for rec in batch]),
        )
        backward(oracle)
        assert abs(out.loss.item() - oracle.item()) < 1e-12
        assert got.keys() == {n for n in params.names() if params[n].grad is not None}
        for name, grad in got.items():
            np.testing.assert_allclose(grad, params[name].grad, rtol=0, atol=1e-12, err_msg=name)

    def test_classify_and_node_heads_shapes(self):
        rng = np.random.default_rng(34)
        trees = [random_tree(rng, n, 4, 12, 12) for n in (2, 5, 9)]
        cfg = small_config()
        params = init_params(cfg, seed=34)
        labeled = [replace(t, tree_label=i) for i, t in enumerate(trees)]
        out = task_forward("classify", labeled, params, cfg)
        assert out.items == 3 and out.logits.shape == (3, 3)
        cfg2 = small_config(classify_classes=None, node_classes=5)
        params2 = init_params(cfg2, seed=35)
        labeled = [replace(t, node_labels={0: 4, max(t.nodes): 1}) for t in trees]
        out = task_forward("node-classify", labeled, params2, cfg2)
        assert out.items == 6 and out.logits.shape == (6, 5)
        assert out.targets.tolist() == [4, 1, 4, 1, 4, 1]


class TestConfig:
    def test_head_spec_exclusivity(self):
        with pytest.raises(ValueError):
            small_config(operator_classes=4)
        with pytest.raises(ValueError):
            small_config(classify_classes=None)

    def test_divisibility(self):
        with pytest.raises(ValueError):
            small_config(d=9, heads=2)

    @pytest.mark.parametrize("field, value", [
        ("heads", 0), ("heads", -4), ("d", 0), ("d", -8), ("max_children", 0),
        ("classify_classes", 0),
    ])
    def test_non_positive_size_named(self, field, value):
        """Checked before ``d % heads``, so heads=0 is no ZeroDivisionError."""
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_ffn_hidden_named(self, value):
        """ffn_hidden=0 raised a bare ZeroDivisionError in init_params, and -1
        numpy's "negative dimensions are not allowed"."""
        with pytest.raises(ValueError, match=f"^ffn_hidden must be >= 1, got {value}$"):
            small_config(ffn_hidden=value)

    @pytest.mark.parametrize("field, value, message", [
        ("max_children", "16", "an integer"),
        ("d", 8.0, "an integer"),
        ("heads", True, "an integer"),
        ("ffn_hidden", 2.5, "an integer"),
        ("classify_classes", "3", "an integer"),
        ("use_top_down", "no", "True or False"),
        ("pe_before_parental", 0, "True or False"),
    ])
    def test_field_type_named(self, field, value, message):
        """A string size raised a bare TypeError from ``<``, a float ``d`` failed
        inside ``init_params``, and a non-bool switch was accepted as truthy."""
        with pytest.raises(ValueError, match=f"^{field} must be {message}, got {value!r}$"):
            small_config(**{field: value})

    def test_round_trip(self):
        cfg = small_config()
        assert ModelConfig.from_obj(cfg.to_obj()) == cfg


def test_sinusoidal_rows_distinct():
    table = sinusoidal_rows(16, 8)
    assert table.shape == (16, 8)
    assert sinusoidal_rows(16, 8) is table and not table.flags.writeable
    for i in range(16):
        for j in range(i + 1, 16):
            assert np.abs(table[i] - table[j]).max() > 1e-4

