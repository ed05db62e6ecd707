"""Dense-tensor arithmetic with reverse-mode differentiation, plus verification tools.

All primitives operate on :class:`Tensor` (a thin wrapper over a numpy array)
and record enough structure for :func:`backward` to accumulate gradients.
Precision is carried by the array dtype: float64 for verification, float32
for training. Primitives are deterministic; identical inputs give
bit-identical outputs within one precision mode.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
from typing import Callable, NamedTuple, Sequence

import numpy as np

_FLOAT_DTYPES = {"float64": np.float64, "float32": np.float32}

# Finite additive mask value: exp() underflows to exactly 0.0 for both dtypes,
# so the slots a task head masks out of its softmax contribute exactly nothing.
MASK_FILL = -1e30


class NonFiniteError(ArithmeticError):
    pass


class ShapeError(ValueError):
    pass


class CheckpointError(Exception):
    pass


class Tensor:
    """Numpy array plus reverse-mode bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bw")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._bw: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return neg(self)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# False inside a ``no_grad`` block; a context variable, so each thread and
# asyncio task sees only the blocks it entered itself
_recording = contextvars.ContextVar("treeformer_recording", default=True)


@contextlib.contextmanager
def no_grad():
    """Run the block without recording a tape.

    Ops inside it return tensors with no parents, no backward function and
    ``requires_grad`` False; their values are the same as when recorded.
    Recording is on outside every such block.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], bw) -> Tensor:
    out = Tensor(data)
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bw = bw
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _make(data, (a, b), bw)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(data, (a, b), bw)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch-dimension broadcasting.

    A batched ``a`` against a 2-D ``b`` (a shared weight) runs as one flat
    ``[N, k] @ [k, h]`` product, forward and backward: numpy would otherwise
    compute one small product per batch entry. The flat product may round a
    row differently by its position in the block, so a product whose equal
    rows must give equal results broadcasts ``b`` as 3-D instead.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if b.data.ndim == 2 and a.data.ndim > 2:
        shape = a.data.shape
        flat = a.data.reshape(-1, shape[-1])
        data = (flat @ b.data).reshape(shape[:-1] + (b.data.shape[1],))

        def bw(g):
            g = g.reshape(-1, g.shape[-1])
            return (g @ b.data.T).reshape(shape), flat.T @ g

        return _make(data, (a, b), bw)
    data = np.matmul(a.data, b.data)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if ga.shape != a.data.shape:
            ga = _unbroadcast(ga, a.data.shape)
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        if gb.shape != b.data.shape:
            gb = _unbroadcast(gb, b.data.shape)
        return ga, gb

    return _make(data, (a, b), bw)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    inverse = tuple(np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, tuple(parts), bw)


class RowGrad(NamedTuple):
    """A gradient that is zero outside ``rows`` of its tensor: ``values[i]``
    adds to row ``rows[i]``, and a row may be listed more than once.

    A backward function returns one instead of a dense array when it touches
    few rows of a large tensor, so reading a few rows costs what they do.
    """

    rows: np.ndarray
    values: np.ndarray


def _add_rows(grad: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``grad[rows] += values``, summing repeated rows (``np.add.at``, but fast)."""
    rows = rows.reshape(-1)
    values = values.reshape((rows.size,) + grad.shape[1:])
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    repeats = ranked[1:] == ranked[:-1]
    if not repeats.any():
        grad[rows] += values
        return
    starts = np.flatnonzero(np.concatenate([[True], ~repeats]))
    grad[ranked[starts]] += np.add.reduceat(values[order], starts, axis=0)


def gather_rows(a, idx) -> Tensor:
    """Select rows along axis 0; gradients scatter-add back."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]
    return _make(data, (a,), lambda g: (RowGrad(idx, g),))


def gather_rows_from(n: int, parts: Sequence[tuple]) -> Tensor:
    """Rows read from several tensors into one ``[n, ...]`` tensor.

    ``parts`` holds ``(source, at, idx)``: rows ``at`` of the result are
    ``source[idx]``. Rows no part writes are zero. Each source's gradient
    covers only the rows read from it.
    """
    sources = tuple(_as_tensor(src) for src, _, _ in parts)
    first = sources[0].data
    data = np.zeros((n,) + first.shape[1:], dtype=first.dtype)
    for src, (_, at, idx) in zip(sources, parts):
        data[at] = src.data[idx]

    def bw(g):
        return tuple(RowGrad(idx, g[at]) for _, at, idx in parts)

    return _make(data, sources, bw)


def scatter_rows(a, idx, rows) -> Tensor:
    """Functional row update: result equals ``a`` with ``a[idx] = rows``.

    ``idx`` entries must be unique.
    """
    a, rows = _as_tensor(a), _as_tensor(rows)
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data.copy()
    data[idx] = rows.data

    def bw(g):
        ga = g.copy()
        ga[idx] = 0.0
        return ga, g[idx]

    return _make(data, (a, rows), bw)


def select_columns(a, idx) -> Tensor:
    """out[i] = a[i, idx[i]] for a 2-D input; returns a 1-D tensor."""
    a = _as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx]

    def bw(g):
        # one (row, column) pair per row: a plain assignment sums nothing
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        return (ga,)

    return _make(data, (a,), bw)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    keep = a.data > 0
    return _make(a.data * keep, (a,), lambda g: (g * keep,))


def softmax(a, axis: int = -1) -> Tensor:
    """Exponential normalization with max-subtraction; rows sum to one."""
    a = _as_tensor(a)
    if not np.isfinite(a.data.sum()):
        raise NonFiniteError("softmax input contains NaN/Inf")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make(y, (a,), bw)


def attention(
    q, k, v, heads: int, denom: float, blocks, pos_scores: Tensor | None = None
) -> Tensor:
    """Multi-head scaled dot-product attention over groups of flat rows, as one op.

    ``q`` is ``[Rq, d]`` and ``k``, ``v`` are ``[Rk, d]``, each split into
    ``heads`` column blocks. ``blocks`` holds ``(nq, nk, n_groups)`` per
    block: ``n_groups`` groups in row order, each with ``nq`` query rows and
    ``nk`` key rows. Per group and head, the scores are ``q k^T / denom``
    plus the ``[:nq, :nk]`` corner of ``pos_scores`` (one ``[W, W]`` table
    shared by every block and head); their softmax over the keys mixes
    ``v``, and the heads merge back into ``[Rq, d]``. Values equal the
    composition of the separate ops, block by block; the backward is
    analytic.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    (Rq, d), Rk = q.data.shape, k.data.shape[0]
    c = float(1.0 / denom)
    layout, rq, rk = [], 0, 0  # per block: query rows, key rows, nq, nk
    for nq, nk, n in blocks:
        layout.append((slice(rq, rq + n * nq), slice(rk, rk + n * nk), nq, nk))
        rq, rk = rq + n * nq, rk + n * nk
    if (rq, rk) != (Rq, Rk) or v.data.shape[0] != Rk:
        raise ShapeError(
            f"attention blocks cover {rq} query and {rk} key rows; got {Rq} query,"
            f" {Rk} key and {v.data.shape[0]} value rows"
        )
    if pos_scores is not None and any(
        nq > pos_scores.data.shape[0] or nk > pos_scores.data.shape[1]
        for _, _, nq, nk in layout
    ):
        raise ShapeError(f"position scores {pos_scores.data.shape} narrower than a block")

    def split(x, n):  # [B * n, d] -> [B, heads, n, d // heads]
        return np.swapaxes(x.reshape(-1, n, heads, d // heads), 1, 2)

    def merge(x):  # the inverse of split
        return np.swapaxes(x, 1, 2).reshape(-1, d)

    out = np.empty_like(q.data)
    saved = []
    for qs, ks, nq, nk in layout:
        qh, kh, vh = split(q.data[qs], nq), split(k.data[ks], nk), split(v.data[ks], nk)
        p = np.matmul(qh, np.swapaxes(kh, -1, -2))  # the scores, softmaxed in place below
        p *= c
        if pos_scores is not None:
            p += pos_scores.data[:nq, :nk]
        if not np.isfinite(p.sum()):
            raise NonFiniteError("attention scores contain NaN/Inf")
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out[qs] = merge(np.matmul(p, vh))
        saved.append((qh, kh, vh, p))

    def bw(g):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        dpos = None if pos_scores is None else np.zeros_like(pos_scores.data)
        for (qs, ks, nq, nk), (qh, kh, vh, p) in zip(layout, saved):
            gh = split(g[qs], nq)
            dp = np.matmul(gh, np.swapaxes(vh, -1, -2))
            dv[ks] = merge(np.matmul(np.swapaxes(p, -1, -2), gh))
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            dsc = ds * c
            dq[qs] = merge(np.matmul(dsc, kh))
            dk[ks] = merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), dsc), -1, -2))
            if dpos is not None:
                dpos[:nq, :nk] += ds.sum(axis=(0, 1))
        return (dq, dk, dv) if dpos is None else (dq, dk, dv, dpos)

    parents = (q, k, v) if pos_scores is None else (q, k, v, pos_scores)
    return _make(out, parents, bw)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    if not np.isfinite(a.data.sum()):
        raise NonFiniteError("log_softmax input contains NaN/Inf")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    y = np.exp(out)

    def bw(g):
        return (g - y * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), bw)


def layer_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit population variance, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(
            f"layer_norm expects gamma/beta of shape ({d},), got "
            f"{gamma.data.shape} and {beta.data.shape}"
        )
    if eps <= 0:
        raise ValueError("eps must be positive")
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    data = xhat * gamma.data + beta.data

    def bw(g):
        ghat = g * gamma.data
        gx = inv * (
            ghat
            - ghat.mean(axis=-1, keepdims=True)
            - xhat * (ghat * xhat).mean(axis=-1, keepdims=True)
        )
        flat_g = g.reshape(-1, d)
        flat_hat = xhat.reshape(-1, d)
        return gx, (flat_g * flat_hat).sum(axis=0), flat_g.sum(axis=0)

    return _make(data, (x, gamma, beta), bw)


def linear(x, w, b=None) -> Tensor:
    out = matmul(x, w)
    return out if b is None else add(out, b)


def broadcast_add_row(m, v) -> Tensor:
    """Add one row vector to every row of a matrix (or batch of matrices)."""
    m, v = _as_tensor(m), _as_tensor(v)
    if m.data.shape[-1] != v.data.shape[-1]:
        raise ShapeError(
            f"row width {v.data.shape[-1]} does not match matrix width {m.data.shape[-1]}"
        )
    return add(m, v)


def backward(out: Tensor, seed_grad: np.ndarray | None = None) -> None:
    """Accumulate gradients of ``out`` into every tensor in its graph."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
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
            if id(p) not in seen:
                stack.append((p, False))

    if seed_grad is None:
        if out.data.size != 1:
            raise ShapeError("backward() without seed gradient needs a scalar output")
        seed_grad = np.ones_like(out.data)
    out.grad = np.asarray(seed_grad, dtype=out.data.dtype)

    for node in reversed(topo):
        if node._bw is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._bw(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if isinstance(g, RowGrad):
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                _add_rows(parent.grad, g.rows, g.values)
            elif parent.grad is None:
                # a copy: a backward may hand one array to several parents
                parent.grad = np.array(g, dtype=parent.data.dtype)
            else:
                parent.grad += g


class ParamStore:
    """Named tensors: learnable parameters plus fixed buffers.

    Name paths are unique across both sets; iteration is sorted by name so
    every consumer sees one deterministic order.
    """

    def __init__(self, dtype: str = "float64"):
        if dtype not in _FLOAT_DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        self.buffers: dict[str, Tensor] = {}

    def _check_name(self, name: str) -> None:
        if name in self.params or name in self.buffers:
            raise ValueError(f"duplicate tensor name {name!r}")

    def add_param(self, name: str, data) -> Tensor:
        self._check_name(name)
        t = Tensor(np.asarray(data, dtype=_FLOAT_DTYPES[self.dtype]), requires_grad=True)
        self.params[name] = t
        return t

    def add_buffer(self, name: str, data) -> Tensor:
        self._check_name(name)
        t = Tensor(np.asarray(data, dtype=_FLOAT_DTYPES[self.dtype]))
        self.buffers[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        if name in self.params:
            return self.params[name]
        if name in self.buffers:
            return self.buffers[name]
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self.params or name in self.buffers

    def names(self) -> list[str]:
        return sorted(self.params)

    def buffer_names(self) -> list[str]:
        return sorted(self.buffers)

    def zero_grads(self) -> None:
        for name in self.names():
            self.params[name].grad = None

    def n_parameters(self) -> int:
        return sum(t.data.size for t in self.params.values())


def save_checkpoint(store: ParamStore, manifest_path, blob_path=None, extra: dict | None = None):
    """Write a JSON manifest plus one raw little-endian blob; round-trip is bit-exact.

    The manifest records the blob's length and sha256. Each file is written
    to a temporary name and renamed into place.
    """
    manifest_path = str(manifest_path)
    blob_path = str(blob_path) if blob_path else manifest_path + ".bin"
    entries = []
    offset = 0
    chunks = []
    for name, learnable in [(n, True) for n in store.names()] + [
        (n, False) for n in store.buffer_names()
    ]:
        t = store[name]
        raw = t.data.astype("<" + t.data.dtype.str[1:], copy=False).tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(t.data.shape),
                "dtype": str(t.data.dtype),
                "offset": offset,
                "learnable": learnable,
            }
        )
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format_version": 2,
        "dtype": store.dtype,
        "blob": blob_path.rsplit("/", 1)[-1],
        "blob_bytes": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "tensors": entries,
        "extra": extra or {},
    }
    # blob first: a manifest never names a partly written blob, and a stale
    # manifest left beside a new blob fails the sha256 check on load
    _replace_atomically(blob_path, blob)
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    _replace_atomically(manifest_path, text.encode("utf-8"))


def _replace_atomically(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(manifest_path, blob_path=None) -> tuple[ParamStore, dict]:
    """Read a checkpoint; a blob whose length or sha256 differs from the manifest's is refused."""
    manifest_path = str(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != 2:
        raise CheckpointError(
            f"unsupported checkpoint format_version {manifest.get('format_version')!r}"
        )
    if blob_path is None:
        prefix = manifest_path.rsplit("/", 1)[0] if "/" in manifest_path else "."
        blob_path = prefix + "/" + manifest["blob"]
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    if len(blob) != manifest["blob_bytes"]:
        raise CheckpointError(
            f"{blob_path}: {len(blob)} bytes, manifest {manifest_path} records"
            f" {manifest['blob_bytes']}"
        )
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise CheckpointError(f"{blob_path}: sha256 differs from manifest {manifest_path}")
    store = ParamStore(dtype=manifest["dtype"])
    for entry in manifest["tensors"]:
        dtype = np.dtype(entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        start = entry["offset"]
        arr = np.frombuffer(
            blob, dtype=dtype.newbyteorder("<"), count=count, offset=start
        ).astype(dtype).reshape(entry["shape"])
        if entry["learnable"]:
            store.add_param(entry["name"], arr)
        else:
            store.add_buffer(entry["name"], arr)
    return store, manifest.get("extra", {})


def grad_check(
    f: Callable[[ParamStore], Tensor], params: ParamStore, eps: float = 1e-5
) -> float:
    """Max relative error between analytic gradients of ``f`` and central differences.

    Relative error per coordinate is |analytic - cd| / max(|analytic|, |cd|, 1e-8).
    Probes every coordinate of every learnable tensor.
    """
    params.zero_grads()
    out = f(params)
    backward(out)
    analytic = {
        name: (
            params.params[name].grad.copy()
            if params.params[name].grad is not None
            else np.zeros_like(params.params[name].data)
        )
        for name in params.names()
    }

    worst = 0.0
    for name in params.names():
        flat = params.params[name].data.reshape(-1)
        ga = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f(params).data.item()
            flat[i] = orig - eps
            fm = f(params).data.item()
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteError(f"non-finite loss while probing {name}[{i}]")
            cd = (fp - fm) / (2.0 * eps)
            err = abs(ga[i] - cd) / max(abs(ga[i]), abs(cd), 1e-8)
            if err > worst:
                worst = err
    return worst
