"""Property tests over random forests: schedules, cached tree arrays, batched vs
naive, the node-classify head's rows, checkpoint round trips, and the JSON-lines
round trips of random trees and generated mini-language programs; and the
cross-entropy loss against a numpy log-softmax reference."""

import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import chain, heights
from treeformer.batched import batch_state_tensors
from treeformer.minilang import MINI_VOCAB, parse
from treeformer.model import ModelConfig, embed_node, encode_tree, init_params
from treeformer.numerics import (
    CheckpointError,
    ParamStore,
    backward,
    gather_rows,
    linear,
    load_checkpoint,
    save_checkpoint,
)
from treeformer.scheduler import build_schedule, check_schedule, cost_report
from treeformer.synth import gen_program_source, load_corpus, mutate_operator, save_wrongop_corpus
from treeformer.training import cross_entropy, task_forward
from treeformer.trees import (
    SyntaxTree,
    Vocabulary,
    depths,
    iter_tree_lines,
    load_trees,
    random_tree,
    save_trees,
    tree_arrays,
    tree_to_line,
)

MAX_CHILDREN = 16


def relabel(tree, rng):
    """The same tree under sparse ids in random order, so rows are not preorder."""
    new = dict(zip(tree.nodes, (3 * rng.permutation(len(tree)) + 5).tolist()))
    nodes = {
        new[nid]: replace(n, id=new[nid], children=tuple(new[c] for c in n.children))
        for nid, n in tree.nodes.items()
    }
    return SyntaxTree(nodes, new[tree.root])


@st.composite
def trees(draw, max_nodes=300):
    kind = draw(st.sampled_from(["random", "relabeled", "single", "chain"]))
    n = 1 if kind == "single" else draw(st.integers(1, max_nodes))
    if kind == "chain":
        return chain(n)
    branching = draw(st.integers(1, MAX_CHILDREN))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = random_tree(rng, n, branching, 10, 10)
    return relabel(tree, rng) if kind == "relabeled" else tree


def forests(max_nodes=300):
    return st.lists(trees(max_nodes), min_size=1, max_size=8)


# derandomized and without an example database: every run checks the same forests
SETTINGS = dict(
    deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@settings(max_examples=100, **SETTINGS)
@given(forests())
def test_schedule_passes_check_and_arrays_match_traversals(batch):
    schedule = build_schedule(batch)
    check_schedule(schedule, batch)
    cells = sum(len(n.children) ** 2 for tree in batch for n in tree.nodes.values())
    assert cost_report(schedule).attention_cells == cells
    rows = [(t, nid) for t, tree in enumerate(batch) for nid in sorted(tree.nodes)]
    assert [schedule.node_at(row) for row in range(schedule.n_rows)] == rows
    for tree, arrays in zip(batch, tree_arrays(batch)):
        ids = sorted(tree.nodes)
        row = {nid: i for i, nid in enumerate(ids)}
        assert arrays.ids.tolist() == ids
        h, dp = heights(tree), depths(tree)
        assert arrays.height.tolist() == [h[nid] for nid in ids]
        assert arrays.depth.tolist() == [dp[nid] for nid in ids]
        for nid in ids:
            kids = arrays.child_idx[arrays.child_ptr[row[nid]] : arrays.child_ptr[row[nid] + 1]]
            assert [ids[k] for k in kids] == list(tree.node(nid).children)
            assert all(arrays.parent[k] == row[nid] for k in kids)
        assert arrays.parent[row[tree.root]] == -1


@settings(max_examples=40, **SETTINGS)
@given(forests(), st.booleans())
def test_batched_matches_naive_in_row_index_layout(batch, top_down):
    cfg = ModelConfig(
        d=8, heads=2, type_vocab_size=10, token_vocab_size=10,
        max_children=MAX_CHILDREN, classify_classes=2, use_top_down=top_down,
    )
    params = init_params(cfg, seed=0)
    X, S, D, schedule = batch_state_tensors(batch, params, cfg)
    assert X.shape == S.shape == D.shape == (schedule.n_rows, cfg.d)
    for tree, index in zip(batch, schedule.row_index):
        naive = encode_tree(tree, params, cfg, method="naive")
        for nid, row in index.items():
            assert np.array_equal(X.data[row], embed_node(tree.node(nid), params, cfg))
            assert np.abs(S.data[row] - naive.up[nid]).max() <= 1e-10
            assert np.abs(D.data[row] - naive.down[nid]).max() <= 1e-10


# float32 against the naive recursion in float32: the paths sum in different
# orders, so they agree to a tolerance, not bit for bit
F32_ATOL = 1e-4


@settings(max_examples=40, **SETTINGS)
@given(forests(), st.sampled_from([16, 64]))
def test_batched_matches_naive_in_float32(batch, d):
    cfg = ModelConfig(
        d=d, heads=4, type_vocab_size=10, token_vocab_size=10,
        max_children=MAX_CHILDREN, classify_classes=2,
    )
    params = init_params(cfg, seed=0, dtype="float32")
    _, S, D, schedule = batch_state_tensors(batch, params, cfg)
    assert S.dtype == D.dtype == np.float32
    for tree, index in zip(batch, schedule.row_index):
        naive = encode_tree(tree, params, cfg, method="naive")
        for nid, row in index.items():
            assert np.abs(S.data[row] - naive.up[nid]).max() <= F32_ATOL
            assert np.abs(D.data[row] - naive.down[nid]).max() <= F32_ATOL


@settings(max_examples=60, **SETTINGS)
@given(st.lists(trees(max_nodes=60), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_top_down_on_read_rows_is_exact(batch, seed):
    """With ``reads``, ``S_down`` has the full pass's bits at the read rows
    and their ancestors and is ``S_up`` elsewhere; the gradients of a weighted
    sum of the read rows match the full pass's within 1e-12; and reading
    every row gives the full pass's bytes, states and gradients."""
    cfg = ModelConfig(
        d=8, heads=2, type_vocab_size=10, token_vocab_size=10,
        max_children=MAX_CHILDREN, classify_classes=2,
    )
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(seed)
    index = build_schedule(batch).row_index
    n = sum(map(len, index))
    reads = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    parent_row = {
        index[t][c]: index[t][nid]
        for t, tree in enumerate(batch)
        for nid, node in tree.nodes.items()
        for c in node.children
    }
    marked = set()
    for row in reads.tolist():
        while row is not None and row not in marked:
            marked.add(row)
            row = parent_row.get(row)
    marked = np.array(sorted(marked))
    rest = np.setdiff1d(np.arange(n), marked)

    def run(reads_arg, read_rows):
        params.zero_grads()
        _, S, D, _ = batch_state_tensors(batch, params, cfg, reads_arg)
        weights = np.random.default_rng(seed).standard_normal((len(read_rows), cfg.d))
        backward(gather_rows(D, read_rows), weights)
        grads = {name: params[name].grad for name in params.names()}
        return S.data, D.data, {k: v for k, v in grads.items() if v is not None}

    S, D, grads = run(reads, reads)
    full_S, full_D, full_grads = run(None, reads)
    assert S.tobytes() == full_S.tobytes()
    assert D[marked].tobytes() == full_D[marked].tobytes()
    assert D[rest].tobytes() == S[rest].tobytes()
    assert grads.keys() == full_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, full_grads[name], rtol=0, atol=1e-12, err_msg=name)

    every = np.arange(n)
    _, D, grads = run(every, every)
    _, full_D, full_grads = run(None, every)
    assert D.tobytes() == full_D.tobytes()
    assert {k: v.tobytes() for k, v in grads.items()} == {
        k: v.tobytes() for k, v in full_grads.items()
    }


def test_replaced_tree_gets_fresh_arrays():
    tree = random_tree(np.random.default_rng(1), 30, 4, 10, 10)
    (before,) = tree_arrays([tree])
    nodes = dict(tree.nodes)
    leaf = next(nid for nid in sorted(nodes) if not nodes[nid].children)
    nodes[leaf] = replace(nodes[leaf], children=(100,))
    nodes[100] = replace(nodes[leaf], id=100, children=(), type_id=7)
    grown = replace(tree, nodes=nodes)
    (after,) = tree_arrays([grown])
    assert after is not before
    assert len(after.ids) == len(before.ids) + 1
    assert after.type_id[-1] == 7
    assert tree_arrays([tree])[0] is before


@settings(max_examples=40, **SETTINGS)
@given(forests(max_nodes=60), st.integers(0, 2**32 - 1))
def test_node_head_rows_match_sorted_labels(batch, seed):
    """The node-classify head's rows, labels, logits and loss equal those built
    from each tree's ``sorted(node_labels.items())`` and ``row_index``."""
    rng = np.random.default_rng(seed)
    labeled = []
    for tree in batch:
        ids = rng.permutation(sorted(tree.nodes))  # labels in no particular order
        picked = ids[: rng.integers(0, len(ids) + 1)].tolist()
        labels = {nid: int(rng.integers(3)) for nid in picked}
        labeled.append(replace(tree, node_labels=labels or None))
    assume(any(tree.node_labels for tree in labeled))
    cfg = ModelConfig(
        d=8, heads=2, type_vocab_size=10, token_vocab_size=10,
        max_children=MAX_CHILDREN, node_classes=3,
    )
    params = init_params(cfg, seed=0)
    out = task_forward("node-classify", labeled, params, cfg)

    _, _, D, schedule = batch_state_tensors(labeled, params, cfg)
    rows, labels, where = [], [], []
    for t, tree in enumerate(labeled):
        for nid, label in sorted((tree.node_labels or {}).items()):
            rows.append(schedule.row_index[t][nid])
            labels.append(label)
            where.append((t, nid))
    logits = linear(gather_rows(D, rows), params["head.node.w"], params["head.node.b"])
    assert list(zip(*(a.tolist() for a in out.nodes))) == where
    assert out.targets.tolist() == labels and out.items == len(labels)
    assert out.logits.tobytes() == logits.data.tobytes()
    assert out.loss.item() == cross_entropy(logits, labels).item()


@settings(max_examples=60, **SETTINGS)
@given(st.integers(1, 6), st.integers(1, 7), st.data())
def test_cross_entropy_matches_log_softmax_reference(n, c, data):
    """Value and logits gradient against a plain numpy log-softmax: the mean
    of ``-log p[label]`` and ``(softmax - onehot) / n``, for ``[n, c]`` logits
    and, when there is one row, ``[c]``. Runs of drawn lengths match the mean
    of one ``[1, k]`` loss per run, and ``[n, c]`` logits give the same bits
    as ``n`` runs of ``c``."""
    labels = data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spread = data.draw(st.sampled_from([0.1, 1.0, 30.0]))
    x = rng.standard_normal((n, c)) * spread
    flat = n == 1 and data.draw(st.booleans())
    logits = ParamStore("float64").add_param("x", x[0] if flat else x)
    loss = cross_entropy(logits, labels)
    backward(loss)

    m = x.max(axis=1, keepdims=True)
    log_p = x - (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True)))
    onehot = np.eye(c)[labels]
    assert loss.shape == ()
    want = -log_p[np.arange(n), labels].mean()
    np.testing.assert_allclose(loss.item(), want, rtol=1e-12, atol=1e-12)
    want = (np.exp(log_p) - onehot) / n
    np.testing.assert_allclose(logits.grad, want[0] if flat else want, rtol=1e-10, atol=1e-14)

    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    run_labels = [data.draw(st.integers(0, k - 1)) for k in sizes]
    z = rng.standard_normal(sum(sizes)) * spread
    runs = ParamStore("float64").add_param("z", z)
    loss = cross_entropy(runs, run_labels, sizes)
    backward(loss)
    want_loss, want_grad = 0.0, []
    for start, k, label in zip(np.cumsum([0] + sizes[:-1]), sizes, run_labels):
        run = ParamStore("float64").add_param("run", z[start : start + k].reshape(1, k))
        one = cross_entropy(run, [label])
        backward(one)
        want_loss += one.item()
        want_grad.append(run.grad[0])
    assert abs(loss.item() - want_loss / len(sizes)) <= 1e-12
    want = np.concatenate(want_grad) / len(sizes)
    np.testing.assert_allclose(runs.grad, want, rtol=0, atol=1e-12)

    rows = ParamStore("float64").add_param("x", x)
    flat_runs = ParamStore("float64").add_param("x", x.reshape(-1))
    by_rows, by_runs = cross_entropy(rows, labels), cross_entropy(flat_runs, labels, [c] * n)
    backward(by_rows)
    backward(by_runs)
    assert by_rows.data.tobytes() == by_runs.data.tobytes()
    assert rows.grad.tobytes() == flat_runs.grad.tobytes()


@st.composite
def model_configs(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    head = draw(st.sampled_from(["classify_classes", "operator_classes", "node_classes"]))
    return ModelConfig(
        d=2 * heads * draw(st.integers(1, 4)),
        heads=heads,
        type_vocab_size=draw(st.integers(1, 20)),
        token_vocab_size=draw(st.integers(1, 20)),
        max_children=draw(st.integers(1, MAX_CHILDREN)),
        **{head: draw(st.integers(2, 9))},
    )


@settings(max_examples=30, **SETTINGS)
@given(model_configs(), st.sampled_from(["float32", "float64"]), st.data())
def test_checkpoint_round_trip_and_damage(cfg, dtype, data):
    """A saved model loads with the same names and bit-exact tensors; a blob
    with one flipped bit, or cut short, is refused."""
    store = init_params(cfg, seed=data.draw(st.integers(0, 2**32 - 1)), dtype=dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.json")
        save_checkpoint(store, path, extra={"model_config": cfg.to_obj()})
        loaded, extra = load_checkpoint(path)
        assert ModelConfig.from_obj(extra["model_config"]) == cfg
        assert loaded.dtype == dtype
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].dtype == store[name].dtype
            assert loaded[name].shape == store[name].shape
            assert loaded[name].data.tobytes() == store[name].data.tobytes()

        blob_path = path + ".bin"
        with open(blob_path, "rb") as fh:
            blob = fh.read()
        flipped = bytearray(blob)
        flipped[data.draw(st.integers(0, len(blob) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        for damaged in (bytes(flipped), blob[: data.draw(st.integers(0, len(blob) - 1))]):
            with open(blob_path, "wb") as fh:
                fh.write(damaged)
            with pytest.raises(CheckpointError):
                load_checkpoint(path)


# ten type and ten token symbols (with the reserved one at 0), as random_tree
# draws them; each needs escaping in JSON
JSON_VOCAB = Vocabulary(
    [f'type "{i}" \\ \u00e9' for i in range(1, 10)], [f"tok\t{i}\n\u2603" for i in range(1, 10)]
)


@settings(max_examples=60, **SETTINGS)
@given(forests(max_nodes=120), st.data())
def test_tree_lines_round_trip(batch, data):
    """Random trees, labels included, read back equal from their ``tree_to_line``
    lines through ``iter_tree_lines``, and write the same lines again."""
    labeled = []
    for tree in batch:
        node_labels = st.dictionaries(st.sampled_from(sorted(tree.nodes)), st.integers(0, 9))
        labeled.append(replace(
            tree,
            tree_label=data.draw(st.none() | st.integers(0, 99)),
            node_labels=data.draw(st.none() | node_labels),
        ))
    lines = [tree_to_line(tree, JSON_VOCAB) for tree in labeled]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trees.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        back = list(iter_tree_lines(path, JSON_VOCAB))
    assert back == labeled
    assert [tree_to_line(tree, JSON_VOCAB) for tree in back] == lines


@settings(max_examples=40, **SETTINGS)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_generated_programs_round_trip(seed, min_ops):
    """Generated programs parse, and their trees come back equal from a tree
    file (``save_trees`` -> ``load_trees``) and, with their mutations, from a
    wrong-operator corpus (``save_wrongop_corpus`` -> ``load_corpus``)."""
    rng = np.random.default_rng(seed)
    trees = [parse(gen_program_source(rng, min_ops)) for _ in range(3)]
    records = [mutate_operator(tree, seed + i) for i, tree in enumerate(trees)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trees.jsonl")
        save_trees(trees, path, MINI_VOCAB)
        assert load_trees(path, MINI_VOCAB) == trees
        save_wrongop_corpus(os.path.join(tmp, "corpus"), records, seed)
        corpus = load_corpus(os.path.join(tmp, "corpus"))
    assert corpus.records == records
    assert corpus.trees == [record.tree for record in records]
