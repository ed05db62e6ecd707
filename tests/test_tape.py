"""The tape links graph nodes, not values, and ``backward`` consumes the graph
it walks: gradients equal those of a tape that keeps everything (the oracle
below) on random op graphs, an output no backward reads is freed once
dropped, dropped intermediates are freed during the sweep, its memory peak
stays near what the forward holds, and a consumed graph refuses a second
pass."""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import weighted_sum

from treeformer import numerics as nm
from treeformer.model import ModelConfig, init_params, top_down_step
from treeformer.numerics import ParamStore, RowGrad, _add_rows, backward, constant
from treeformer.training import task_forward
from treeformer.trees import random_tree


def oracle_backward(out):
    """The tape walk that keeps every node, its backward function and its
    gradient alive, and copies every first gradient it stores. It walks
    graph nodes: shapes and dtypes come from the node, and a parent without
    a node (one that needs no gradient) is skipped."""
    if out._node is None:  # built from constants alone
        return
    topo, seen, stack = [], set(), [(out._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p is not None and id(p) not in seen:
                stack.append((p, False))
    out.grad = np.ones(out._node.shape, out._node.dtype)
    for node in reversed(topo):
        if node._bw is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._bw(node.grad)):
            if g is None or parent is None:
                continue
            if isinstance(g, RowGrad):
                if parent.grad is None:
                    parent.grad = np.zeros(parent.shape, parent.dtype)
                _add_rows(parent.grad, g.rows, g.values)
            elif parent.grad is None:
                parent.grad = np.array(g, dtype=parent.dtype)
            else:
                parent.grad += g


D = 4  # columns of every pooled tensor
MAX_ROWS = 12  # rows of any pooled tensor; the position table is this wide
HIDDEN = 8  # feed_forward's hidden width
OPS = ("add", "matmul", "linear", "feed_forward", "reshape", "concat", "gather_rows",
       "scatter_rows", "add_layer_norm", "attention")


@st.composite
def programs(draw):
    """Leaves, then ops over a growing pool of ``[rows, D]`` tensors.

    Operands are drawn from the whole pool, so a tensor feeds several ops
    (fan-out), and an op may take one tensor twice (``add(a, a)``,
    attention with ``k is v``). Returns ``(seed, leaves, ops, loss terms)``;
    a leaf is ``(rows, learnable)``.
    """
    leaves = [(draw(st.integers(1, 5)), i == 0 or draw(st.booleans()))
              for i in range(draw(st.integers(1, 3)))]
    rows = [r for r, _ in leaves]

    def pick(n_rows=None):
        fits = [i for i, r in enumerate(rows) if n_rows in (None, r)]
        return draw(st.sampled_from(fits))

    ops = []
    for _ in range(draw(st.integers(1, 12))):
        op, a = draw(st.sampled_from(OPS)), pick()
        if op in ("add", "add_layer_norm"):  # None: a learnable [1, D] row, read per row
            ops.append((op, a, draw(st.none() | st.just(pick(rows[a])))))
        elif op == "concat":
            b = pick()
            if rows[a] + rows[b] > MAX_ROWS:
                continue
            ops.append((op, a, b))
            rows.append(rows[a] + rows[b])
            continue
        elif op == "gather_rows":
            idx = draw(st.lists(st.integers(0, rows[a] - 1), min_size=1, max_size=6))
            ops.append((op, a, idx))
            rows.append(len(idx))
            continue
        elif op == "scatter_rows":
            idx = draw(st.lists(st.integers(0, rows[a] - 1), min_size=1, max_size=rows[a],
                                unique=True))
            b = pick()
            src = draw(st.lists(st.integers(0, rows[b] - 1), min_size=len(idx),
                                max_size=len(idx)))
            ops.append((op, a, idx, b, src))
        elif op == "attention":
            k = pick()
            ops.append((op, a, k, pick(rows[k]), draw(st.booleans())))
        else:
            ops.append((op, a))
        rows.append(rows[a])
    terms = draw(st.lists(st.integers(0, len(rows) - 2), unique=True)) + [len(rows) - 1]
    return draw(st.integers(0, 2**32 - 1)), leaves, ops, terms


def run_program(program):
    """The program's parameters, every pooled tensor, and its scalar loss."""
    seed, leaves, ops, terms = program
    rng = np.random.default_rng(seed)
    params = ParamStore("float64")
    pool = [
        params.add_param(f"x{i}", rng.standard_normal((r, D))) if learnable
        else constant(rng.standard_normal((r, D)))
        for i, (r, learnable) in enumerate(leaves)
    ]
    w = params.add_param("w", rng.standard_normal((D, D)) / 2)
    bias = params.add_param("bias", rng.standard_normal((1, D)))
    b2 = params.add_param("b2", rng.standard_normal(D))
    w1 = params.add_param("w1", rng.standard_normal((D, HIDDEN)) / 2)
    b1 = params.add_param("b1", rng.standard_normal(HIDDEN))
    w2 = params.add_param("w2", rng.standard_normal((HIDDEN, D)) / 2)
    gamma = params.add_param("gamma", 1.0 + rng.standard_normal(D) / 4)
    beta = params.add_param("beta", rng.standard_normal(D) / 4)
    pos = params.add_param("pos", rng.standard_normal((MAX_ROWS, MAX_ROWS)))
    for op, a, *more in ops:
        x = pool[a]
        if op == "add":
            out = nm.add(x, bias if more[0] is None else pool[more[0]])
        elif op == "matmul":
            out = nm.matmul(x, w)
        elif op == "linear":
            out = nm.linear(x, w, b2)
        elif op == "feed_forward":
            out = nm.feed_forward(x, w1, b1, w2, b2)
        elif op == "reshape":
            out = nm.reshape(nm.reshape(x, (-1, 2)), x.shape)
        elif op == "concat":
            out = nm.concat([x, pool[more[0]]])
        elif op == "gather_rows":
            out = nm.gather_rows(x, more[0])
        elif op == "scatter_rows":
            idx, b, src = more
            out = nm.scatter_rows(x, idx, nm.gather_rows(pool[b], src))
        elif op == "add_layer_norm":
            r = pool[more[0]] if more[0] is not None else nm.gather_rows(
                bias, np.zeros(x.shape[0], np.intp)
            )
            out = nm.add_layer_norm(x, r, gamma, beta)
        else:
            k, v, positioned = pool[more[0]], pool[more[1]], more[2]
            out = nm.attention(x, k, v, 2, np.sqrt(2.0), [(x.shape[0], k.shape[0], 1)],
                               pos if positioned else None)
        pool.append(out)
    loss = None
    for t in terms:
        term = weighted_sum(pool[t], constant(rng.standard_normal(pool[t].shape)))
        loss = term if loss is None else nm.add(loss, term)
    return params, pool, loss


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_backward_equals_oracle_on_random_graphs(program):
    """Bit-identical gradients on parameters and on every held intermediate,
    and every gradient an array of its own."""
    want_params, want_pool, want_loss = run_program(program)
    oracle_backward(want_loss)
    params, pool, loss = run_program(program)
    if not loss.requires_grad:  # built from constants alone
        return
    backward(loss)
    for name in params.names():
        want, got = want_params.params[name].grad, params.params[name].grad
        assert (got is None) == (want is None), name
        assert got is None or got.tobytes() == want.tobytes(), name
    for i, (want, got) in enumerate(zip(want_pool, pool)):
        assert (got.grad is None) == (want.grad is None), i
        assert got.grad is None or got.grad.tobytes() == want.grad.tobytes(), i
    tensors = {id(t): t for t in list(params.params.values()) + pool}  # leaves are in both
    grads = [t.grad for t in tensors.values() if t.grad is not None]
    for i, a in enumerate(grads):
        assert not any(np.shares_memory(a, b) for b in grads[i + 1:])
    assert loss._parents == ()


def test_one_array_for_two_parents_is_copied():
    """A backward function may return one fresh array for several parents;
    each parent still gets a gradient of its own."""
    params = ParamStore("float64")
    a, b = params.add_param("a", np.ones(3)), params.add_param("b", np.ones(3))

    def bw(g):
        shared = 2.0 * g
        return shared, shared

    backward(weighted_sum(nm._make(a.data + b.data, (a, b), bw)))
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    assert b.grad.tolist() == [2.0, 2.0, 2.0]


def test_gradient_of_a_0d_tensor_is_an_array():
    """``g * c`` on a 0-d gradient is a numpy scalar; it is stored as an array."""
    w = ParamStore("float64").add_param("w", np.array(2.0))
    backward(nm.scale(w, 3.0))
    assert type(w.grad) is np.ndarray and w.grad.shape == () and w.grad == 3.0


def _chain():
    params = ParamStore("float64")
    w = params.add_param("w", np.arange(6.0).reshape(2, 3))
    mid = nm.linear(w, constant(np.ones((3, 3))), constant(np.zeros(3)))
    return w, mid, weighted_sum(nm.scale(mid, 2.0))


class TestConsumedGraph:
    def test_second_backward_raises(self):
        w, _, loss = _chain()
        backward(loss)
        first = w.grad.copy()
        with pytest.raises(RuntimeError, match="graph already consumed by backward"):
            backward(loss)
        assert w.grad.tobytes() == first.tobytes()  # raised before anything reached w

    def test_new_loss_on_consumed_intermediate_raises(self):
        """Without the error, ``mid`` would act as a leaf and ``w`` would
        silently get no gradient from the new loss."""
        w, mid, loss = _chain()
        backward(loss)
        w.grad = None
        with pytest.raises(RuntimeError, match="run the forward again"):
            backward(weighted_sum(mid))

    def test_leaves_stay_usable(self):
        """Parameters and constants are never consumed: a fresh forward over
        them back-propagates again, to the same gradient."""
        w, _, loss = _chain()
        backward(loss)
        first, w.grad = w.grad, None
        mid = nm.linear(w, constant(np.ones((3, 3))), constant(np.zeros(3)))
        backward(weighted_sum(nm.scale(mid, 2.0)))
        assert w.grad.tobytes() == first.tobytes()


def test_dropped_intermediates_freed_held_keep_grad():
    params = ParamStore("float64")
    w = params.add_param("w", np.ones((4, 4)))
    zeros = constant(np.zeros(4))
    held = nm.feed_forward(w, w, zeros, w, zeros)
    dropped = nm.add_layer_norm(held, held, constant(np.ones(4)), zeros)
    gone = weakref.ref(dropped.data)  # a Tensor takes no weak reference; its array lives as long
    loss = weighted_sum(nm.matmul(dropped, w))
    del dropped
    gc.disable()  # reference counting alone must free it
    try:
        backward(loss)
        assert gone() is None
    finally:
        gc.enable()
    assert held.grad is not None and held.grad.shape == (4, 4)
    assert w.grad is not None


@pytest.mark.parametrize("read_by", ["add_layer_norm", "gather_rows"])
def test_output_no_backward_reads_is_freed_before_backward(read_by):
    """An op output that only ``add_layer_norm`` or ``gather_rows`` reads is
    freed as soon as the caller drops it, before ``backward`` runs: the tape
    links its node, not its value. Its gradient still flows through."""
    params = ParamStore("float64")
    w = params.add_param("w", np.arange(16.0).reshape(4, 4) / 16)
    zeros = constant(np.zeros(4))
    out = nm.feed_forward(w, w, zeros, w, zeros)
    gone = weakref.ref(out.data)  # a Tensor takes no weak reference; its array lives as long
    gc.disable()  # reference counting alone must free it
    try:
        if read_by == "add_layer_norm":
            y = nm.add_layer_norm(out, w, constant(np.ones(4)), zeros)
        else:
            y = nm.gather_rows(out, [3, 0, 3])
        del out
        assert gone() is None
    finally:
        gc.enable()
    backward(weighted_sum(nm.matmul(y, w)))
    assert w.grad is not None and np.abs(w.grad).sum() > 0


def test_backward_peak_memory_near_forward():
    """On a small forest batch, the peak during ``backward`` stays within
    1.4x of what the finished forward holds (a tape that keeps every node
    and gradient until the loss is dropped peaks at about 1.85x here).
    Bytes, not time: the same on every run."""
    rng = np.random.default_rng(5)
    trees = [replace(t, node_labels={nid: nid % 4 for nid in t.nodes})
             for t in (random_tree(rng, n, 4, 8, 8) for n in (60, 120, 250, 500))]
    cfg = ModelConfig(d=16, heads=2, type_vocab_size=10, token_vocab_size=10, node_classes=4)
    params = init_params(cfg, seed=3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = task_forward("node-classify", trees, params, cfg)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(out.loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / held <= 1.4, f"backward peak {peak} B, forward holds {held} B"


def test_top_down_step_holds_few_row_copies():
    """A finished top-down forward over 512 rows holds at most 9 row widths
    per row: each of the two residual layer norms keeps its normalized rows
    and its output, and the feed-forward layer its hidden rows (4d), about
    8.2 in all. The feed-forward output, read by no backward function, is
    freed once the step drops it; a tape that kept every op output held 9.2,
    and separate add, matmul, bias, ReLU and layer-norm ops 20.7. Bytes, not
    time: the same on every run."""
    cfg = ModelConfig(d=16, heads=2, type_vocab_size=4, token_vocab_size=4, node_classes=2)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    parents, children = (constant(rng.standard_normal((512, 16))) for _ in range(2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = top_down_step(parents, children, params)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held / 512 <= 9 * 16 * 8, f"{held / 512 / (16 * 8):.1f} row widths per row"
