import json
import re
import zlib

import numpy as np
import pytest

from conftest import weighted_sum

from treeformer import numerics as nm
from treeformer.numerics import (
    CheckpointError,
    NonFiniteError,
    ParamStore,
    ShapeError,
    add_layer_norm,
    backward,
    constant,
    cross_entropy,
    feed_forward,
    grad_check,
    linear,
    load_checkpoint,
    matmul,
    save_checkpoint,
    softmax,
)


class TestSoftmax:
    def test_uniform(self):
        out = softmax(constant([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        a = softmax(constant([1.0, 2.0])).data
        b = softmax(constant([101.0, 102.0])).data
        assert np.array_equal(a, b)  # max-subtraction makes the shift exact

    def test_frozen_values(self):
        # exp-normalize at 64-bit: exp([1,2,3]) / sum
        out = softmax(constant([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-8
        )

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(1, 30))) * 10
            assert abs(softmax(constant(x)).data.sum() - 1.0) < 1e-12

    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax(constant([0.0, np.nan]))


def _ln(x, gamma, beta, eps=1e-5):
    """Layer norm of ``x`` alone: ``add_layer_norm`` with a zero residual."""
    return add_layer_norm(x, constant(np.zeros(x.shape)), gamma, beta, eps=eps)


class TestLayerNorm:
    G = constant(np.ones(4))
    B = constant(np.zeros(4))

    def test_constant_vector(self):
        out = _ln(constant([[2.0, 2.0, 2.0, 2.0]]), self.G, self.B)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        g = constant(np.ones(2))
        b = constant(np.zeros(2))
        out = _ln(constant([[1.0, -1.0]]), g, b, eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-10)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        out = _ln(constant(x[None]), constant(gamma), constant(beta)).data[0]
        # independent two-pass mean/variance computation
        mean = sum(x) / 8
        var = sum((v - mean) ** 2 for v in x) / 8
        expected = [(v - mean) / np.sqrt(var + 1e-5) * g + b for v, g, b in zip(x, gamma, beta)]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_pre_affine_mean_small(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((3, 16)) * 5
            out = _ln(constant(x), constant(np.ones(16)), constant(np.zeros(16)))
            assert np.abs(out.data.mean(axis=-1)).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match=r"got \(2, 4\), \(3,\) and \(4,\)"):
            _ln(constant(np.zeros((2, 4))), constant(np.ones(3)), constant(np.zeros(4)))

    @pytest.mark.parametrize("r_shape", [(2, 4), (1, 3), (3,), (4,), (1, 4)])
    def test_residual_mismatch(self, r_shape):
        with pytest.raises(ShapeError, match="add_layer_norm takes r of shape"):
            add_layer_norm(constant(np.zeros((3, 4))), constant(np.zeros(r_shape)), self.G, self.B)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan")])
    def test_non_positive_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            _ln(constant(np.zeros((1, 4))), self.G, self.B, eps=eps)


def test_fused_forwards_equal_separate_numpy_steps():
    """In float64, ``linear``, ``feed_forward`` and ``add_layer_norm`` equal,
    bit for bit, the numpy steps of the separate ops they replace: product,
    bias add, ReLU, residual add, mean, centering, variance, scaling. In
    float64 and float32, ``cross_entropy``'s value and logits gradient equal
    those of log-softmax, label pick, sum, negation and ``1/n`` scaling, with
    each gradient stored in the logits' dtype between steps as ``backward``
    stores it."""
    rng = np.random.default_rng(11)
    x, r, row = (rng.standard_normal(shape) for shape in ((7, 6), (7, 6), (1, 6)))
    w1, b1 = rng.standard_normal((6, 24)), rng.standard_normal(24)
    w2, b2 = rng.standard_normal((24, 6)), rng.standard_normal(6)
    gamma, beta = rng.standard_normal(6), rng.standard_normal(6)

    def layer_norm(s):
        mean = s.mean(axis=-1, keepdims=True)
        centered = s - mean
        var = (centered**2).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = centered * inv
        return xhat * gamma + beta

    pre = np.matmul(x, w1) + b1
    hidden = pre * (pre > 0)
    c = constant
    assert linear(c(x), c(w1), c(b1)).data.tobytes() == pre.tobytes()
    got = feed_forward(c(x), c(w1), c(b1), c(w2), c(b2)).data
    assert got.tobytes() == (np.matmul(hidden, w2) + b2).tobytes()
    for res in (r, np.repeat(row, 7, axis=0)):
        got = add_layer_norm(c(x), c(res), c(gamma), c(beta)).data
        assert got.tobytes() == layer_norm(x + res).tobytes()

    labels = rng.integers(0, 6, size=7)
    rows, inv_n = np.arange(7), float(1.0 / 7)
    for dtype in (np.float64, np.float32):
        logits = ParamStore(np.dtype(dtype).name).add_param("x", x)
        loss = cross_entropy(logits, labels)
        backward(loss)
        z = logits.data
        shifted = z - z.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        picked_sum = np.asarray(logp[rows, labels].sum())
        assert loss.data.tobytes() == np.asarray(-picked_sum * inv_n).tobytes()
        seed = np.ones((), dtype)
        g_sum = np.array(-np.array(seed * inv_n, dtype), dtype)  # scale, then neg
        g_logp = np.zeros_like(logp)
        g_logp[rows, labels] = np.broadcast_to(g_sum, (7,))  # sum, then pick
        want = g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True)
        assert logits.grad.dtype == dtype and logits.grad.tobytes() == want.tobytes()


class TestCrossEntropy:
    def test_label_count_named(self):
        with pytest.raises(ShapeError, match="4 rows, 2 labels"):
            cross_entropy(np.zeros((4, 3)), [0, 1])

    @pytest.mark.parametrize("shape, labels, sizes", [
        pytest.param((0, 3), [], None, id="shape0-labels0"),
        pytest.param((2, 3, 4), [0, 0], None, id="shape1-labels1"),
        pytest.param((), [0], None, id="shape2-labels2"),
        pytest.param((5,), [0, 0], [5, 0], id="empty-run"),
        pytest.param((5,), [0, 0], [2, 2], id="runs-short-of-logits"),
        pytest.param((5,), [0, 0], [3, 3], id="runs-past-logits"),
        pytest.param((2, 3), [0, 0], [3, 3], id="sizes-with-2d-logits"),
        pytest.param((0,), [], [], id="no-runs"),
    ])
    def test_empty_or_misshapen_logits_named(self, shape, labels, sizes):
        """An empty batch raised numpy's zero-size reduction error."""
        with pytest.raises(ShapeError, match="cross_entropy takes"):
            cross_entropy(np.zeros(shape), labels, sizes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits(self, bad):
        with pytest.raises(NonFiniteError, match="cross_entropy"):
            cross_entropy(np.array([[0.0, bad]]), [0])


class TestMatmulFamily:
    def test_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out = matmul(constant(np.eye(3)), constant(x))
        assert np.array_equal(out.data, x)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(matmul(constant(a), constant(b)).data, expected, atol=1e-12)

    def test_batched_input_shared_weight(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 2, 5))
        w = rng.standard_normal((5, 6))
        got = matmul(constant(a), constant(w)).data
        np.testing.assert_allclose(got, np.matmul(a, w), rtol=1e-12, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 4)), rng.standard_normal(4)
        out = linear(constant(x), constant(w), constant(b))
        np.testing.assert_allclose(out.data, x @ w + b, atol=1e-14)


class TestGradCheck:
    def test_quadratic(self):
        params = ParamStore("float64")
        params.add_param("w", np.array([3.0]))

        def f(p):
            w = p["w"]
            return weighted_sum(w, w)

        assert grad_check(f, params, eps=1e-5) <= 1e-10

    def test_linear_function(self):
        params = ParamStore("float64")
        params.add_param("w", np.array([1.0, -2.0, 0.5]))
        c = constant([2.0, 1.0, -1.0])

        def f(p):
            return weighted_sum(p["w"], c)

        assert grad_check(f, params, eps=1e-4) <= 1e-10

    def test_non_finite_probe_rejected(self):
        params = ParamStore("float64")
        params.add_param("w", np.array([1e200]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            grad_check(lambda p: weighted_sum(weighted_sum(p["w"], p["w"]), p["w"]), params)


PRIMITIVE_CASES = {}


def _case(name):
    def deco(fn):
        PRIMITIVE_CASES[name] = fn
        return fn

    return deco


rng0 = np.random.default_rng(42)
C34 = constant(rng0.standard_normal((3, 4)))
C235 = constant(rng0.standard_normal((2, 3, 5)))
C44 = constant(rng0.standard_normal((4, 4)))
C324 = constant(rng0.standard_normal((3, 2, 4)))
C39 = constant(rng0.standard_normal((3, 9)))
C35 = constant(rng0.standard_normal((3, 5)))
C14 = constant(rng0.standard_normal((1, 4)))
C54 = constant(rng0.standard_normal((5, 4)))


@_case("matmul")
def _(p):
    return weighted_sum(matmul(p["x34"], p["w45"]), C35)


@_case("matmul_batched_shared_weight")
def _(p):
    return weighted_sum(matmul(p["b234"], p["w45"]), C235)


@_case("softmax")
def _(p):
    return weighted_sum(softmax(p["x34"]), C34)


@_case("add_layer_norm")
def _(p):
    return weighted_sum(add_layer_norm(p["x34"], p["z34"], p["g4"], p["b4"]), C34)


@_case("add_layer_norm_row")
def _(p):
    row = nm.gather_rows(p["r14"], np.zeros(3, np.intp))  # one row read per row of x
    return weighted_sum(add_layer_norm(p["x34"], row, p["g4"], p["b4"]), C34)


@_case("linear")
def _(p):
    return weighted_sum(linear(p["x34"], p["w45"], p["b5"]), C35)


@_case("gather_rows")
def _(p):
    return weighted_sum(nm.gather_rows(p["x34"], np.array([0, 2, 2, 1])), C44)


@_case("gather_rows_from")
def _(p):
    parts = [(p["x34"], np.array([0, 3]), np.array([2, 0])), (p["r14"], np.array([4]), np.array([0]))]
    return weighted_sum(nm.gather_rows_from(5, parts), C54)


@_case("scatter_rows")
def _(p):
    return weighted_sum(nm.scatter_rows(p["x34"], [(np.array([1]), p["r14"])]), C34)


@_case("scatter_rows_parts")
def _(p):
    parts = [(np.array([2]), p["r14"]), (np.array([0]), nm.gather_rows(p["z34"], [1]))]
    return weighted_sum(nm.scatter_rows(p["x34"], parts), C34)


@_case("cross_entropy")
def _(p):
    return cross_entropy(p["x34"], np.array([1, 3, 0]))


@_case("cross_entropy_row")
def _(p):
    return cross_entropy(p["g4"], 2)


@_case("transpose")
def _(p):
    return weighted_sum(nm.transpose(p["b234"], (1, 0, 2)), C324)


@_case("concat")
def _(p):
    return weighted_sum(nm.concat([p["x34"], p["y35"]], axis=1), C39)


@_case("add_broadcast")
def _(p):
    return weighted_sum(nm.add(p["x34"], p["g4"]), C34)


@_case("reshape_scale")
def _(p):
    return weighted_sum(nm.scale(nm.reshape(p["x34"], (4, 3)), -0.7), C34)


def _primitive_params(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = ParamStore("float64")
    params.add_param("x34", rng.standard_normal((3, 4)))
    params.add_param("w45", rng.standard_normal((4, 5)))
    params.add_param("b234", rng.standard_normal((2, 3, 4)))
    params.add_param("g4", rng.standard_normal(4))
    params.add_param("b4", rng.standard_normal(4))
    params.add_param("r14", rng.standard_normal((1, 4)))
    params.add_param("y35", rng.standard_normal((3, 5)))
    params.add_param("z34", rng.standard_normal((3, 4)))
    params.add_param("b5", rng.standard_normal(5))
    params.add_param("w54", rng.standard_normal((5, 4)))
    return params


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    """Analytic gradients of every primitive match central differences."""
    assert grad_check(PRIMITIVE_CASES[name], _primitive_params(name), eps=1e-6) < 1e-6


def test_feed_forward_gradients():
    """``feed_forward`` against central differences, with a step of 1e-3.

    Away from a ReLU kink the op is linear in each single coordinate, so a
    central difference has no truncation error and a larger step only cuts
    its rounding. At the primitives' 1e-6, rounding alone reads 2.9e-5 on an
    input coordinate whose gradient is 3.7e-5 (1e-4: 7.8e-7, 1e-3: 4.8e-9).
    """
    params = _primitive_params("feed_forward")
    pre = params["x34"].data @ params["w45"].data + params["b5"].data
    assert np.abs(pre).min() > 0.1  # no probe moves a pre-activation across zero

    def f(p):
        return weighted_sum(feed_forward(p["x34"], p["w45"], p["b5"], p["w54"], p["b4"]), C34)

    assert grad_check(f, params, eps=1e-3) < 1e-6


@pytest.mark.parametrize(
    "a_shape, transposed, weight_3d",
    [((2, 3, 4), False, False), ((3, 2, 4), True, False), ((2, 2, 3, 4), False, False),
     ((2, 3, 4), False, True)],
    ids=["3d", "3d_transposed", "4d", "3d_weight"],
)
def test_shared_weight_matmul_gradients(a_shape, transposed, weight_3d):
    """A batched input against a 2-D weight and against the same weight
    broadcast as 3-D: the weight's gradient sums over the batch entries."""
    rng = np.random.default_rng(5)
    params = ParamStore("float64")
    params.add_param("a", rng.standard_normal(a_shape))
    params.add_param("w", rng.standard_normal((4, 5)))
    out_shape = (a_shape[1], a_shape[0], *a_shape[2:-1], 5) if transposed else a_shape[:-1] + (5,)
    weights = constant(rng.standard_normal(out_shape))

    def f(p):
        a = nm.transpose(p["a"], (1, 0, 2)) if transposed else p["a"]
        w = nm.reshape(p["w"], (1, 4, 5)) if weight_3d else p["w"]
        return weighted_sum(matmul(a, w), weights)

    assert grad_check(f, params, eps=1e-6) < 1e-6


ATTN_D, ATTN_HEADS, ATTN_POS = 6, 2, 5
# two blocks of different widths, two groups each
ATTN_WIDTHS = (4, 3)


def _attention_blocks(call):
    nq = {"parental": lambda w: 1}.get(call, lambda w: w)
    return [(nq(w), w, 2) for w in ATTN_WIDTHS]


def _attention_inputs(call, positioned, rng):
    """Parameters and the attention call for one case. ``fraternal``: a group's
    queries, keys and values are ``w`` rows each; ``parental``: one query row
    against ``w`` key and value rows; ``self``: one tensor as all three."""
    blocks = _attention_blocks(call)
    rq = sum(n * nq for nq, _, n in blocks)
    rk = sum(n * nk for _, nk, n in blocks)
    params = ParamStore("float64")
    params.add_param("q", rng.standard_normal((rq, ATTN_D)))
    if call != "self":
        params.add_param("k", rng.standard_normal((rk, ATTN_D)))
        params.add_param("v", rng.standard_normal((rk, ATTN_D)))
    if positioned:
        params.add_param("pos", rng.standard_normal((ATTN_POS, ATTN_POS)))

    def run(p, blocks=blocks):
        k, v = (p["q"], p["q"]) if call == "self" else (p["k"], p["v"])
        pos = p["pos"] if positioned else None
        return nm.attention(p["q"], k, v, ATTN_HEADS, 1.7, blocks, pos_scores=pos)

    return params, run


@pytest.mark.parametrize("positioned", [False, True], ids=["nopos", "pos"])
@pytest.mark.parametrize("call", ["fraternal", "parental", "self"])
def test_attention_gradients(call, positioned):
    """The fused op's analytic gradients match central differences.

    A step of 1e-5, not the primitives' 1e-6: the position gradient sums
    softmax derivatives that cancel, and at 1e-6 the differences' rounding
    alone reaches 1.6e-6 on one case (1e-4: 1.4e-9, 1e-5: 5.3e-8).
    """
    # "False" named the unmasked case of a mask axis the op no longer has;
    # it keeps each case on the inputs its bound was set with
    rng = np.random.default_rng(zlib.crc32(f"{call}False{positioned}".encode()))
    params, run = _attention_inputs(call, positioned, rng)
    weights = constant(rng.standard_normal(run(params).shape))
    assert grad_check(lambda p: weighted_sum(run(p), weights), params, eps=1e-5) < 1e-6


def test_attention_equals_separate_ops():
    """Bit-identical to, per block, heads split, scores scaled, position corner
    added, softmax, mix and heads merged as separate ops."""
    rng = np.random.default_rng(3)
    params, run = _attention_inputs("fraternal", True, rng)
    dh = ATTN_D // ATTN_HEADS
    pieces, start = [], 0
    for _, n, B in _attention_blocks("fraternal"):
        rows = np.arange(start, start + B * n)
        start += B * n

        def split(x):
            y = nm.reshape(nm.gather_rows(x, rows), (B, n, ATTN_HEADS, dh))
            return nm.transpose(y, (0, 2, 1, 3))

        corner = nm.gather_rows(params["pos"], np.arange(n))
        corner = nm.transpose(nm.gather_rows(nm.transpose(corner, (1, 0)), np.arange(n)), (1, 0))
        kt = nm.transpose(split(params["k"]), (0, 1, 3, 2))
        scores = nm.add(nm.scale(matmul(split(params["q"]), kt), 1.0 / 1.7), corner)
        mixed = matmul(softmax(scores), split(params["v"]))
        pieces.append(nm.reshape(nm.transpose(mixed, (0, 2, 1, 3)), (B * n, ATTN_D)))
    want = nm.concat(pieces)
    assert run(params).data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("call", ["fraternal", "parental"])
def test_attention_blocks_equal_one_call_per_block(call):
    """One call over several blocks returns, bit for bit, the values and
    gradients of one call per block."""
    rng = np.random.default_rng(6)
    params, run = _attention_inputs(call, True, rng)
    seed = rng.standard_normal(run(params).shape)
    backward(run(params), seed)
    together = {name: params[name].grad.copy() for name in params.names()}
    together_out = run(params).data
    params.zero_grads()
    outs, rq, rk = [], 0, 0
    for nq, nk, n in _attention_blocks(call):
        qrows = np.arange(rq, rq + n * nq)
        krows = np.arange(rk, rk + n * nk)
        rq, rk = qrows[-1] + 1, krows[-1] + 1
        out = nm.attention(
            nm.gather_rows(params["q"], qrows), nm.gather_rows(params["k"], krows),
            nm.gather_rows(params["v"], krows), ATTN_HEADS, 1.7, [(nq, nk, n)],
            pos_scores=params["pos"],
        )
        backward(out, seed[qrows])
        outs.append(out.data)
    assert np.concatenate(outs).tobytes() == together_out.tobytes()
    for name, grad in together.items():
        assert params[name].grad.tobytes() == grad.tobytes(), name


def test_attention_rejects_blocks_that_miss_rows():
    params, run = _attention_inputs("fraternal", True, np.random.default_rng(7))
    blocks = _attention_blocks("fraternal")
    with pytest.raises(ShapeError, match="cover"):
        run(params, blocks[:1])  # too few query and key rows
    with pytest.raises(ShapeError, match="cover"):  # the queries fit, the keys do not
        run(params, [(4, 4, 2), (2, 3, 3)])
    with pytest.raises(ShapeError, match="narrower"):
        run(params, [(7, 7, 2)])  # 14 rows, a block wider than the table


class TestScatterRows:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_parts_equal_one_concatenated_part(self, dtype):
        """Writing several parts into one copy gives, bit for bit, the values and
        gradients of concatenating them and writing the concatenation."""
        rows = [np.array([5, 1, 7]), np.array([0]), np.array([3, 8])]

        def run():
            rng = np.random.default_rng(11)
            params = ParamStore(dtype)
            a = params.add_param("a", rng.standard_normal((9, 4)))
            sources = [params.add_param(f"s{i}", rng.standard_normal((len(r), 4)))
                       for i, r in enumerate(rows)]
            return params, a, sources

        seed = np.random.default_rng(12).standard_normal((9, 4))
        params, a, sources = run()
        out = nm.scatter_rows(a, list(zip(rows, sources)))
        backward(out, seed)
        want_params, a, sources = run()
        want = nm.scatter_rows(a, [(np.concatenate(rows), nm.concat(sources))])
        backward(want, seed)
        assert out.data.tobytes() == want.data.tobytes()
        for name in params.names():
            assert params[name].grad.tobytes() == want_params[name].grad.tobytes(), name

    @pytest.mark.parametrize("parts, row", [
        ([(np.array([1, 1]), np.ones((2, 4)))], 1),
        ([(np.array([0, 2]), np.ones((2, 4))), (np.array([2]), np.ones((1, 4)))], 2),
    ], ids=["within-a-part", "across-parts"])
    def test_row_written_twice_named(self, parts, row):
        """A repeated row kept the last value but gave every source row the full
        gradient."""
        x = ParamStore("float64").add_param("x", np.zeros((3, 4)))
        with pytest.raises(ShapeError, match=f"writes row {row} more than once"):
            nm.scatter_rows(x, [(rows, constant(src)) for rows, src in parts])


def test_attention_nan_query_named():
    params, run = _attention_inputs("parental", False, np.random.default_rng(4))
    params["q"].data[0, 2] = np.nan
    with pytest.raises(NonFiniteError, match="attention"):
        run(params)


class TestNoGrad:
    def _param(self):
        return ParamStore("float64").add_param("w", np.arange(6.0).reshape(2, 3))

    def test_outputs_record_nothing(self):
        w = self._param()
        with nm.no_grad():
            out = weighted_sum(linear(w, nm.transpose(w, (1, 0)), constant([-60.0, 0.0])))
        assert not out.requires_grad
        assert out._node is None and out._parents == ()
        assert out.item() == float((w.data @ w.data.T + [-60.0, 0.0]).sum())

    def test_recording_resumes_after_block_and_error(self):
        w = self._param()
        with nm.no_grad():
            pass
        assert nm.scale(w, 2.0).requires_grad
        with pytest.raises(KeyError):
            with nm.no_grad():
                raise KeyError("inside")
        out = weighted_sum(nm.scale(w, 2.0))
        assert out.requires_grad
        backward(out)
        np.testing.assert_array_equal(w.grad, np.full((2, 3), 2.0))

    def test_nested_blocks_restore(self):
        w = self._param()
        with nm.no_grad():
            with nm.no_grad():
                assert not nm.scale(w, -1.0).requires_grad
            assert not nm.scale(w, -1.0).requires_grad
        assert nm.scale(w, -1.0).requires_grad


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 5))
        g = rng.standard_normal(5)
        b = rng.standard_normal(5)

        def run():
            t = add_layer_norm(constant(x), constant(x[::-1]), constant(g), constant(b))
            t = softmax(matmul(t, constant(x)))
            return t.data.tobytes()

        assert run() == run()


class TestBackward:
    def test_accumulates_over_reuse(self):
        params = ParamStore("float64")
        w = params.add_param("w", np.array([2.0]))
        out = nm.add(weighted_sum(w, w), nm.scale(w, 3.0))  # w^2 + 3w -> grad 2w+3 = 7
        backward(out)
        np.testing.assert_allclose(w.grad, [7.0])

    def test_seed_grad_required_for_nonscalar(self):
        with pytest.raises(ShapeError):
            backward(nm.add(constant([1.0, 2.0]), constant([0.0, 0.0])))

    def test_first_gradients_are_not_shared(self):
        """``add`` hands one array to both parents; each must own its gradient."""
        params = ParamStore("float64")
        a = params.add_param("a", np.zeros((2, 3)))
        b = params.add_param("b", np.zeros((2, 3)))
        seed = np.ones((2, 3))
        backward(nm.add(a, b), seed)
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, seed)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(seed, np.ones((2, 3)))

    def test_intermediate_grads_available(self):
        params = ParamStore("float64")
        w = params.add_param("w", np.array([[1.0, 2.0]]))
        mid = nm.scale(w, 2.0)
        backward(weighted_sum(mid))
        assert mid.grad is not None and w.grad is not None

    def test_constants_get_no_gradient(self):
        """Operands that need no gradient get none, and the parameters' are
        those of the same graph with every operand learnable."""
        rng = np.random.default_rng(8)
        values = {name: rng.standard_normal((3, 4)) for name in ("w", "c", "rows")}
        grads = []
        for learnable in (False, True):
            params = ParamStore("float64")
            w = params.add_param("w", values["w"])
            make = (lambda n: params.add_param(n, values[n])) if learnable else (
                lambda n: constant(values[n])
            )
            c, rows = make("c"), make("rows")
            picked = nm.gather_rows(rows, [2, 0, 2])
            out = weighted_sum(nm.add(w, picked), nm.add(c, picked))
            backward(out)
            if not learnable:
                assert c.grad is None and rows.grad is None
            grads.append(w.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


class TestParamStore:
    def test_duplicate_name(self):
        store = ParamStore()
        store.add_param("a", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate tensor name 'a'"):
            store.add_param("a", np.ones(2))
        assert store["a"].data.tolist() == [0.0, 0.0]

    def test_sorted_iteration(self):
        store = ParamStore()
        for name in ("b", "a", "c"):
            store.add_param(name, np.zeros(1))
        assert store.names() == ["a", "b", "c"]

    def test_dtype(self):
        store = ParamStore("float32")
        t = store.add_param("w", np.zeros(3))
        assert t.data.dtype == np.float32


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(17)
        store = ParamStore(dtype)
        store.add_param("w.a", rng.standard_normal((3, 4)))
        store.add_param("w.b", rng.standard_normal(7))
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        assert loaded.dtype == dtype
        assert loaded.names() == ["w.a", "w.b"]
        for name in ("w.a", "w.b"):
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == 3
        assert [sorted(e) for e in manifest["tensors"]] == [["dtype", "name", "offset", "shape"]] * 2

    def _saved(self, tmp_path):
        store = ParamStore()
        store.add_param("w", np.arange(12.0).reshape(3, 4))
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "ckpt.json.bin"]
        return path, tmp_path / "ckpt.json.bin"

    def test_truncated_blob_refused(self, tmp_path):
        path, blob = self._saved(tmp_path)
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match=r"ckpt\.json\.bin: 88 bytes"):
            load_checkpoint(path)

    def test_flipped_byte_refused(self, tmp_path):
        path, blob = self._saved(tmp_path)
        data = bytearray(blob.read_bytes())
        data[17] ^= 0x01
        blob.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match=r"ckpt\.json\.bin: sha256"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        store = ParamStore()
        store.add_param("w", np.zeros(2))
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path)
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop, message", [
        (lambda m: m.pop("blob_bytes"), " has no 'blob_bytes'"),
        (lambda m: m.pop("tensors"), " has no 'tensors'"),
        (lambda m: m["tensors"][0].pop("offset"), ": tensor entry 0 has no 'offset'"),
    ], ids=["blob_bytes", "tensors", "offset"])
    def test_missing_manifest_key_named(self, tmp_path, drop, message):
        """Each raised a bare KeyError naming neither the file nor the entry."""
        path, _ = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        drop(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path) + message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["tensors"][0].update(offset=40),
         ": tensor entry 0: 12 float64 values at offset 40 run past the 96-byte blob"),
        (lambda m: m["tensors"][0].update(shape=[4, 4]),
         ": tensor entry 0: 16 float64 values at offset 0 run past the 96-byte blob"),
        (lambda m: m["tensors"][0].update(shape="3x4"),
         ": tensor entry 0: bad shape '3x4' or offset 0"),
        (lambda m: m.update(dtype="float16"), ": unsupported dtype 'float16'"),
        (lambda m: m["tensors"][0].update(dtype="float16"),
         ": tensor entry 0: unsupported dtype 'float16'"),
        (lambda m: m.update(tensors=5), ": 'tensors' is not a list"),
        (lambda m: m.update(tensors=[5]), ": tensor entry 0 is not an object"),
    ], ids=["offset", "shape", "shape-type", "dtype", "entry-dtype", "tensors", "entry"])
    def test_malformed_manifest_named(self, tmp_path, edit, message):
        """Each raised a bare numpy ValueError or TypeError, or named a missing
        key that was there, without the manifest's path."""
        path, _ = self._saved(tmp_path)
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path) + message)}$"):
            load_checkpoint(path)
