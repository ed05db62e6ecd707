"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py``. The training criteria
(7, 8, 9, 10) share module-scoped corpora and runs; everything is seeded and
runs in float64 so reruns are bit-identical.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from treeformer.batched import batch_state_tensors, encode_batch
from treeformer.checks import _batch as checks_batch
from treeformer.checks import full_model_gradcheck
from treeformer.cli import ABLATIONS
from treeformer.minilang import MINI_VOCAB, OPS_MINI, operator_nodes
from treeformer.model import (
    ModelConfig,
    embed_node,
    encode_tree,
    init_params,
)
from treeformer.numerics import backward, constant, gather_rows, matmul
from treeformer.scheduler import build_schedule, cost_report
from treeformer.synth import Corpus, gen_classify_corpus, gen_wrongop_corpus
from treeformer.trees import SyntaxNode, leaves, random_tree
from treeformer.training import TrainConfig, pooled_rows, task_forward, train

CLASSIFY_SEED = 20240811
WRONGOP_SEED = 714


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora / training runs

def _classify_corpora():
    samples = gen_classify_corpus(8, 600, seed=CLASSIFY_SEED)
    train_trees, test_trees = [], []
    for c in range(8):
        block = samples[c * 600 : (c + 1) * 600]
        train_trees += [s.tree for s in block[:500]]
        test_trees += [s.tree for s in block[500:]]
    meta = {
        "task": "classify", "classes": 8, "seed": CLASSIFY_SEED,
        "vocabulary": MINI_VOCAB.to_obj(),
    }
    return (
        Corpus("classify", train_trees, None, MINI_VOCAB, meta),
        Corpus("classify", test_trees, None, MINI_VOCAB, meta),
    )


def _wrongop_corpora():
    records = gen_wrongop_corpus(6000, 2, seed=WRONGOP_SEED)
    meta = {
        "task": "wrongop", "operators": list(OPS_MINI), "seed": WRONGOP_SEED,
        "vocabulary": MINI_VOCAB.to_obj(),
    }
    return (
        Corpus("wrongop", [r.tree for r in records[:5000]], records[:5000], MINI_VOCAB, meta),
        Corpus("wrongop", [r.tree for r in records[5000:]], records[5000:], MINI_VOCAB, meta),
    )


def _classify_config():
    return TrainConfig(
        task="classify", d=64, heads=4, epochs=20, batch_size=32, seed=0,
        precision="float64", target={"accuracy": 0.95},
    )


def _wrongop_bars(test_corpus):
    ks = np.array([len(operator_nodes(r.tree)) for r in test_corpus.records])
    loc_base = float(np.mean(1.0 / ks))
    joint_base = float(np.mean(1.0 / (ks * len(OPS_MINI))))
    return 3.0 * loc_base, 2.0 * joint_base


def _wrongop_config(test_corpus):
    loc_bar, joint_bar = _wrongop_bars(test_corpus)
    return TrainConfig(
        task="wrongop", d=64, heads=4, epochs=10, batch_size=32, seed=0,
        precision="float64",
        target={"loc_accuracy": loc_bar, "joint_accuracy": joint_bar},
    )


@pytest.fixture(scope="module")
def classify_setup():
    return _classify_corpora()


@pytest.fixture(scope="module")
def classify_run(classify_setup):
    train_c, test_c = classify_setup
    start = time.monotonic()
    result = train(_classify_config(), train_c, eval_corpus=test_c)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def wrongop_setup():
    return _wrongop_corpora()


@pytest.fixture(scope="module")
def wrongop_run(wrongop_setup):
    train_c, test_c = wrongop_setup
    start = time.monotonic()
    result = train(_wrongop_config(test_c), train_c, eval_corpus=test_c)
    return result, time.monotonic() - start


# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    """Scheduler-batched encoding equals naive recursion to 1e-10 (float64)."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    configs = [(d, h) for d in (8, 16) for h in (2, 4)]
    checked = 0
    worst = 0.0
    while checked < 100:
        d, heads = configs[int(rng.integers(len(configs)))]
        cfg = ModelConfig(
            d=d, heads=heads, type_vocab_size=12, token_vocab_size=12,
            max_children=8, classify_classes=2,
        )
        params = init_params(cfg, seed=checked)
        batch = [
            random_tree(rng, int(rng.integers(1, 201)), 6, 12, 12)
            for _ in range(min(5, 100 - checked))
        ]
        batched = encode_batch(batch, params, cfg)
        for tree, got in zip(batch, batched):
            naive = encode_tree(tree, params, cfg, method="naive")
            for nid in tree.nodes:
                worst = max(worst, np.abs(naive.up[nid] - got.up[nid]).max())
                worst = max(worst, np.abs(naive.down[nid] - got.down[nid]).max())
        checked += len(batch)
    elapsed = time.monotonic() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 120,
        f"{checked} trees, max |batched - naive| = {worst:.3e} (<= 1e-10), {elapsed:.0f}s (< 120s)",
    )


def test_criterion_2_gradient_check():
    """Full-model gradients vs central differences, every tensor, each head."""
    start = time.monotonic()
    for task in ("classify", "wrongop", "node-classify"):
        batch = checks_batch(task, seed=1)
        for item in batch:
            tree = item.tree if hasattr(item, "tree") else item
            assert 5 <= len(tree) <= 20, "gradcheck trees must have 5-20 nodes"
    errs = {
        task: full_model_gradcheck(task, d=8, heads=2, seed=1, eps=1e-5)
        for task in ("classify", "wrongop", "node-classify")
    }
    elapsed = time.monotonic() - start
    worst = max(errs.values())
    detail = ", ".join(f"{t}={e:.2e}" for t, e in errs.items())
    report(2, worst < 1e-4 and elapsed < 300, f"{detail} (< 1e-4), {elapsed:.0f}s (< 300s)")


def test_criterion_3_leaf_identity_and_locality():
    """h_up(leaf) == embedding exactly; bottom-up states ignore outside edits."""
    cfg = ModelConfig(
        d=16, heads=2, type_vocab_size=10, token_vocab_size=10,
        max_children=8, classify_classes=2, use_top_down=False,
    )
    params = init_params(cfg, seed=3)
    rng = np.random.default_rng(1003)
    trials = 0
    for _ in range(50):
        tree = random_tree(rng, int(rng.integers(8, 60)), 5, 10, 10)
        states = encode_tree(tree, params, cfg)
        for leaf in leaves(tree):
            assert np.array_equal(
                states.up[leaf], embed_node(tree.node(leaf), params, cfg)
            ), "leaf state differs from its embedding"

        anchor = tree.node(tree.root).children[int(rng.integers(len(tree.node(tree.root).children)))]
        inside = set()
        stack = [anchor]
        while stack:
            nid = stack.pop()
            inside.add(nid)
            stack.extend(tree.node(nid).children)
        outside = [n for n in tree.nodes if n not in inside and n != tree.root]
        if not outside:
            continue

        nodes = dict(tree.nodes)
        victim = outside[int(rng.integers(len(outside)))]
        nodes[victim] = replace(nodes[victim], type_id=int(rng.integers(10)))
        graft_host = outside[int(rng.integers(len(outside)))]
        if len(nodes[graft_host].children) < cfg.max_children:
            fresh = max(nodes) + 1
            nodes[fresh] = SyntaxNode(fresh, int(rng.integers(10)), int(rng.integers(10)), ())
            nodes[graft_host] = replace(
                nodes[graft_host], children=nodes[graft_host].children + (fresh,)
            )
        edited_states = encode_tree(replace(tree, nodes=nodes), params, cfg)
        for nid in inside:
            assert np.array_equal(states.up[nid], edited_states.up[nid]), (
                f"node {nid} changed under an outside edit"
            )
            assert np.array_equal(states.down[nid], edited_states.down[nid])
        trials += 1
    report(3, trials >= 40, f"leaf identity exact; {trials} bit-invariant locality trials")


def test_criterion_4_sibling_order_sensitivity():
    """Position encoding decides whether sibling order can matter."""
    from conftest import make_tree

    tree = make_tree(
        {0: [1, 2, 3, 4], 4: [5, 6, 7]},
        types={i: (i % 3) + 1 for i in range(8)},
        tokens={i: (i % 4) for i in [1, 2, 3, 5, 6, 7]},
    )

    def permute(perm_root, perm_inner):
        nodes = dict(tree.nodes)
        nodes[0] = replace(nodes[0], children=tuple(perm_root))
        nodes[4] = replace(nodes[4], children=tuple(perm_inner))
        return replace(tree, nodes=nodes)

    base_cfg = dict(
        d=16, heads=2, type_vocab_size=6, token_vocab_size=6,
        max_children=4, classify_classes=2,
    )

    def pooled(trees, params, cfg):
        _, _, D, schedule = batch_state_tensors(trees, params, cfg)
        return pooled_rows(D, schedule, params).data

    cfg_off = ModelConfig(use_position_encoding=False, **base_cfg)
    params = init_params(cfg_off, seed=4)
    variants = [
        permute(perm_root, perm_inner)
        for perm_root in itertools.permutations([1, 2, 3, 4])
        for perm_inner in itertools.permutations([5, 6, 7])
    ]
    permutations = len(variants)
    assert permutations == 144
    h = pooled([tree] + variants, params, cfg_off)
    worst = float(np.abs(h[1:] - h[0]).max())

    cfg_on = ModelConfig(**base_cfg)
    found = None
    swapped = permute([2, 1, 3, 4], [5, 6, 7])
    for seed in range(20):
        params_on = init_params(cfg_on, seed=seed)
        a, b = pooled([tree, swapped], params_on, cfg_on)
        delta = float(np.abs(a - b).max())
        if delta >= 1e-6:
            found = (seed, delta)
            break
    report(
        4,
        worst <= 1e-12 and found is not None,
        f"PE off: invariant over {permutations} sibling permutations (max dev {worst:.1e}); "
        f"PE on: seed {found[0]} permutation moved pooled vector by {found[1]:.2e}",
    )


def test_criterion_5_global_context():
    """With top-down on, nearly every node's final state feels every embedding."""
    cfg = ModelConfig(
        d=16, heads=2, type_vocab_size=10, token_vocab_size=10,
        max_children=8, classify_classes=2,
    )
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(1005)
    hits = 0
    total = 0
    for _ in range(10):
        tree = random_tree(rng, 20, 4, 10, 10)
        pairs = [(int(rng.integers(20)), int(rng.integers(20))) for _ in range(50)]
        by_source: dict[int, list[int]] = {}
        for i, j in pairs:
            by_source.setdefault(i, []).append(j)
        for i, targets in by_source.items():
            X, _, D, schedule = batch_state_tensors([tree], params, cfg)
            u = constant(rng.standard_normal((cfg.d, 1)))
            backward(matmul(gather_rows(D, [schedule.row_index[0][i]]), u))
            for j in targets:
                total += 1
                if np.abs(X.grad[schedule.row_index[0][j]]).max() > 0.0:
                    hits += 1
    fraction = hits / total
    report(5, fraction >= 0.99 and total == 500,
           f"d(h_down(i))/d(embed(j)) nonzero for {hits}/{total} pairs ({fraction:.1%})")


def test_criterion_6_memory_scaling():
    """Scheduled attention cells equal the k^2 sum; quadratic/k^2 ratio grows linearly."""
    rng = np.random.default_rng(1006)
    sizes = [100, 200, 400, 800]
    ratios = []
    exact = True
    for size in sizes:
        batch = [random_tree(rng, size, 6, 8, 8) for _ in range(8)]
        cells = sum(len(node.children) ** 2 for tree in batch for node in tree.nodes.values())
        full = sum(len(tree) ** 2 for tree in batch)
        got = cost_report(build_schedule(batch))
        exact = exact and (got.attention_cells, got.full_attention_cells) == (cells, full)
        ratios.append(full / cells)
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    slope = float(np.polyfit(np.log(sizes), np.log(ratios), 1)[0])
    growth = ratios[-1] / ratios[0]
    report(
        6,
        exact and monotone and slope >= 0.8 and growth >= 4.0,
        f"scheduled cells == sum(k^2) at every size: {exact}; "
        f"ratio {ratios[0]:.1f} -> {ratios[-1]:.1f} (x{growth:.1f}), log-log slope {slope:.2f}",
    )


def test_criterion_7_synthetic_classification(classify_run):
    """8x500 train / 8x100 test, d=64, heads=4: >= 95% within 20 epochs."""
    result, elapsed = classify_run
    accuracy = result.history[-1]["eval_accuracy"]
    epochs = len(result.history)
    report(
        7,
        accuracy >= 0.95 and epochs <= 20 and elapsed < 1800,
        f"test accuracy {accuracy:.4f} (>= 0.95) after {epochs} epochs, {elapsed:.0f}s (< 1800s)",
    )


def test_criterion_8_synthetic_wrongop(wrongop_setup, wrongop_run):
    """5000/1000 mutation records: localization and joint beat scaled baselines."""
    _, test_c = wrongop_setup
    result, elapsed = wrongop_run
    loc_bar, joint_bar = _wrongop_bars(test_c)
    final = result.history[-1]
    loc, joint = final["eval_loc_accuracy"], final["eval_joint_accuracy"]
    bounded = all(
        row["eval_joint_accuracy"] <= row["eval_loc_accuracy"] + 1e-12
        for row in result.history
    )
    report(
        8,
        loc >= loc_bar and joint >= joint_bar and bounded,
        f"loc {loc:.4f} (>= 3x baseline = {loc_bar:.4f}), "
        f"joint {joint:.4f} (>= 2x baseline = {joint_bar:.4f}), "
        f"joint <= loc on every epoch: {bounded}; {elapsed:.0f}s",
    )


def test_criterion_9_ablation_reachability(wrongop_setup):
    """All four component ablations, with the settings ``--ablate`` gives them,
    train on the wrongop corpus; no-top-down keeps the equal-symbol-equal-logit
    property on operator leaves."""
    train_c, test_c = wrongop_setup
    trained = {}
    for name, flags in ABLATIONS.items():
        config = TrainConfig(
            task="wrongop", d=64, heads=4, epochs=1, batch_size=32, seed=0,
            precision="float64", **flags,
        )
        trained[name] = train(config, train_c, eval_corpus=test_c)

    result = trained["topdown"]
    checked = 0
    records = test_c.records[:200]
    pointer = task_forward("wrongop", records, result.params, result.model_config).logits
    for record, logits in zip(records, pointer):
        cands = operator_nodes(record.tree)
        symbols = [
            (record.tree.node(n).type_id, record.tree.node(n).token_id) for n in cands
        ]
        dupes = [
            (i, j)
            for i in range(len(cands))
            for j in range(i + 1, len(cands))
            if symbols[i] == symbols[j]
        ]
        if not dupes:
            continue
        for i, j in dupes:
            assert logits[i] == logits[j], "equal symbols must receive equal logits"
        checked += 1
    summary = {name: round(r.history[-1]["eval_loc_accuracy"], 3) for name, r in trained.items()}
    report(
        9,
        checked >= 5,
        f"all variants trained end-to-end (1 epoch loc acc: {summary}); "
        f"equal-symbol logit ties verified on {checked} records",
    )


def test_criterion_10_determinism(classify_setup, classify_run, wrongop_setup, wrongop_run):
    """Criteria 7 and 8 rerun with the same seed reproduce metrics bit-identically."""
    train_c, test_c = classify_setup
    rerun_classify = train(_classify_config(), train_c, eval_corpus=test_c)
    wtrain, wtest = wrongop_setup
    rerun_wrongop = train(_wrongop_config(wtest), wtrain, eval_corpus=wtest)

    classify_same = rerun_classify.history == classify_run[0].history
    wrongop_same = rerun_wrongop.history == wrongop_run[0].history
    params_same = all(
        np.array_equal(rerun_classify.params[n].data, classify_run[0].params[n].data)
        for n in rerun_classify.params.names()
    )
    report(
        10,
        classify_same and wrongop_same and params_same,
        f"classification history identical: {classify_same}; "
        f"wrongop history identical: {wrongop_same}; parameters bit-identical: {params_same}",
    )
