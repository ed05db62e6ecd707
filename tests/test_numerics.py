import zlib

import numpy as np
import pytest

from treeformer import numerics as nm
from treeformer.numerics import (
    CheckpointError,
    NonFiniteError,
    ParamStore,
    ShapeError,
    backward,
    broadcast_add_row,
    constant,
    grad_check,
    layer_norm,
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


class TestLayerNorm:
    G = constant(np.ones(4))
    B = constant(np.zeros(4))

    def test_constant_vector(self):
        out = layer_norm(constant([[2.0, 2.0, 2.0, 2.0]]), self.G, self.B)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        g = constant(np.ones(2))
        b = constant(np.zeros(2))
        out = layer_norm(constant([[1.0, -1.0]]), g, b, eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-10)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        out = layer_norm(constant(x[None]), constant(gamma), constant(beta)).data[0]
        # independent two-pass mean/variance computation
        mean = sum(x) / 8
        var = sum((v - mean) ** 2 for v in x) / 8
        expected = [(v - mean) / np.sqrt(var + 1e-5) * g + b for v, g, b in zip(x, gamma, beta)]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_pre_affine_mean_small(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal((3, 16)) * 5
            out = layer_norm(constant(x), constant(np.ones(16)), constant(np.zeros(16)))
            assert np.abs(out.data.mean(axis=-1)).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(constant(np.zeros((2, 4))), constant(np.ones(3)), constant(np.zeros(4)))


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

    def test_broadcast_add_row(self):
        v = np.array([1.0, 2.0, 3.0])
        out = broadcast_add_row(constant(np.zeros((3, 3))), constant(v))
        assert np.array_equal(out.data, np.stack([v] * 3))

    def test_broadcast_add_row_width_mismatch(self):
        with pytest.raises(ShapeError):
            broadcast_add_row(constant(np.zeros((3, 3))), constant(np.zeros(2)))

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
            return nm.sum_all(nm.mul(w, w))

        assert grad_check(f, params, eps=1e-5) <= 1e-10

    def test_linear_function(self):
        params = ParamStore("float64")
        params.add_param("w", np.array([1.0, -2.0, 0.5]))
        c = constant([2.0, 1.0, -1.0])

        def f(p):
            return nm.sum_all(nm.mul(p["w"], c))

        assert grad_check(f, params, eps=1e-4) <= 1e-10

    def test_non_finite_probe_rejected(self):
        params = ParamStore("float64")
        params.add_param("w", np.array([1e200]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            grad_check(lambda p: nm.mul(nm.mul(p["w"], p["w"]), p["w"]), params)


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
    return nm.sum_all(nm.mul(matmul(p["x34"], p["w45"]), C35))


@_case("matmul_batched_shared_weight")
def _(p):
    return nm.sum_all(nm.mul(matmul(p["b234"], p["w45"]), C235))


@_case("softmax")
def _(p):
    return nm.sum_all(nm.mul(softmax(p["x34"]), C34))


@_case("log_softmax")
def _(p):
    return nm.sum_all(nm.mul(nm.log_softmax(p["x34"]), C34))


@_case("layer_norm")
def _(p):
    return nm.sum_all(nm.mul(layer_norm(p["x34"], p["g4"], p["b4"]), C34))


@_case("relu")
def _(p):
    return nm.sum_all(nm.mul(nm.relu(p["x34"]), C34))


@_case("gather_rows")
def _(p):
    return nm.sum_all(nm.mul(nm.gather_rows(p["x34"], np.array([0, 2, 2, 1])), C44))


@_case("gather_rows_from")
def _(p):
    parts = [(p["x34"], np.array([0, 3]), np.array([2, 0])), (p["r14"], np.array([4]), np.array([0]))]
    return nm.sum_all(nm.mul(nm.gather_rows_from(5, parts), C54))


@_case("scatter_rows")
def _(p):
    return nm.sum_all(nm.mul(nm.scatter_rows(p["x34"], np.array([1]), p["r14"]), C34))


@_case("select_columns")
def _(p):
    return nm.sum_all(nm.select_columns(p["x34"], np.array([1, 3, 0])))


@_case("transpose")
def _(p):
    return nm.sum_all(nm.mul(nm.transpose(p["b234"], (1, 0, 2)), C324))


@_case("concat")
def _(p):
    return nm.sum_all(nm.mul(nm.concat([p["x34"], p["y35"]], axis=1), C39))


@_case("add_broadcast")
def _(p):
    return nm.sum_all(nm.mul(nm.add(p["x34"], p["g4"]), C34))


@_case("mul_broadcast")
def _(p):
    return nm.sum_all(nm.mul(nm.mul(p["x34"], p["g4"]), C34))


@_case("reshape_neg_sub_scale")
def _(p):
    y = nm.reshape(p["x34"], (4, 3))
    return nm.sum_all(nm.scale(nm.sub(nm.neg(y), nm.reshape(C34, (4, 3))), 0.7))


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    """Analytic gradients of every primitive match central differences."""
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = ParamStore("float64")
    params.add_param("x34", rng.standard_normal((3, 4)))
    params.add_param("w45", rng.standard_normal((4, 5)))
    params.add_param("b234", rng.standard_normal((2, 3, 4)))
    params.add_param("g4", rng.standard_normal(4))
    params.add_param("b4", rng.standard_normal(4))
    params.add_param("r14", rng.standard_normal((1, 4)))
    params.add_param("y35", rng.standard_normal((3, 5)))
    assert grad_check(PRIMITIVE_CASES[name], params, eps=1e-6) < 1e-6


@pytest.mark.parametrize(
    "a_shape, transposed, weight_3d",
    [((2, 3, 4), False, False), ((3, 2, 4), True, False), ((2, 2, 3, 4), False, False),
     ((2, 3, 4), False, True)],
    ids=["3d", "3d_transposed", "4d", "3d_weight"],
)
def test_shared_weight_matmul_gradients(a_shape, transposed, weight_3d):
    """A batched input against a 2-D weight (one flat product) and against the
    same weight broadcast as 3-D (one product per batch entry)."""
    rng = np.random.default_rng(5)
    params = ParamStore("float64")
    params.add_param("a", rng.standard_normal(a_shape))
    params.add_param("w", rng.standard_normal((4, 5)))
    out_shape = (a_shape[1], a_shape[0], *a_shape[2:-1], 5) if transposed else a_shape[:-1] + (5,)
    weights = constant(rng.standard_normal(out_shape))

    def f(p):
        a = nm.transpose(p["a"], (1, 0, 2)) if transposed else p["a"]
        w = nm.reshape(p["w"], (1, 4, 5)) if weight_3d else p["w"]
        return nm.sum_all(nm.mul(matmul(a, w), weights))

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
    assert grad_check(lambda p: nm.sum_all(nm.mul(run(p), weights)), params, eps=1e-5) < 1e-6


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
            out = nm.sum_all(nm.relu(matmul(w, nm.transpose(w, (1, 0)))))
        assert not out.requires_grad
        assert out._parents == () and out._bw is None
        assert out.item() == float(np.maximum(w.data @ w.data.T, 0).sum())

    def test_recording_resumes_after_block_and_error(self):
        w = self._param()
        with nm.no_grad():
            pass
        assert nm.scale(w, 2.0).requires_grad
        with pytest.raises(KeyError):
            with nm.no_grad():
                raise KeyError("inside")
        out = nm.sum_all(nm.scale(w, 2.0))
        assert out.requires_grad
        backward(out)
        np.testing.assert_array_equal(w.grad, np.full((2, 3), 2.0))

    def test_nested_blocks_restore(self):
        w = self._param()
        with nm.no_grad():
            with nm.no_grad():
                assert not nm.neg(w).requires_grad
            assert not nm.neg(w).requires_grad
        assert nm.neg(w).requires_grad


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 5))
        g = rng.standard_normal(5)
        b = rng.standard_normal(5)

        def run():
            t = layer_norm(constant(x), constant(g), constant(b))
            t = softmax(matmul(t, constant(x)))
            return t.data.tobytes()

        assert run() == run()


class TestBackward:
    def test_accumulates_over_reuse(self):
        params = ParamStore("float64")
        w = params.add_param("w", np.array([2.0]))
        out = nm.add(nm.mul(w, w), nm.scale(w, 3.0))  # w^2 + 3w -> grad 2w+3 = 7
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
        mid = nm.mul(w, constant([[2.0, 2.0]]))
        backward(nm.sum_all(mid))
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
            out = nm.sum_all(nm.mul(nm.add(nm.mul(w, c), picked), picked))
            backward(out)
            if not learnable:
                assert c.grad is None and rows.grad is None
            grads.append(w.grad)
        assert grads[0].tobytes() == grads[1].tobytes()


class TestParamStore:
    def test_duplicate_name(self):
        store = ParamStore()
        store.add_param("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.add_buffer("a", np.zeros(2))

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
        store.add_buffer("pos", rng.standard_normal((4, 2)))
        path = tmp_path / "ckpt.json"
        save_checkpoint(store, path, extra={"note": 1})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": 1}
        assert loaded.dtype == dtype
        for name in ("w.a", "w.b", "pos"):
            assert loaded[name].data.tobytes() == store[name].data.tobytes()
        assert loaded.buffer_names() == ["pos"]

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
        import json

        manifest = json.loads(path.read_text())
        manifest["format_version"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
