"""Dense-tensor arithmetic with reverse-mode differentiation, plus verification tools.

All primitives operate on :class:`Tensor` (a thin wrapper over a numpy array)
and record enough structure for :func:`backward` to accumulate gradients.
The tape is a graph of nodes, one per tensor that needs a gradient: a node
holds the gradient, the parents' nodes, the backward function and the
value's shape and dtype, never the value. A backward function keeps only
the arrays it reads, so an op output that no backward reads is freed as
soon as the code that made it drops its tensor.
Besides the generic ops, each composite the model runs is one fused op with
an analytic backward: attention, the bias linear, the feed-forward layer,
residual add + layer norm, and the softmax cross-entropy loss. Precision
is carried by the array dtype: float64 for verification, float32 for
training. Primitives are deterministic; identical inputs give bit-identical
outputs within one precision mode.
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


class NonFiniteError(ArithmeticError):
    pass


class ShapeError(ValueError):
    pass


class CheckpointError(Exception):
    pass


class _Node:
    """A tensor's place on the tape: its gradient, its parents' nodes (None
    for a parent that needs no gradient), its backward function, and its
    value's shape and dtype, but never the value itself."""

    __slots__ = ("grad", "_parents", "_bw", "shape", "dtype")

    def __init__(self, shape, dtype, parents: tuple = (), bw=None):
        self.grad: np.ndarray | None = None
        self._parents: tuple[_Node | None, ...] = parents
        self._bw: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = bw
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """Numpy array plus its tape node.

    The node is None for constants and for op outputs made under
    :func:`no_grad`; ``grad`` and ``requires_grad`` read through to it.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        if not np.issubdtype(self.data.dtype, np.floating):
            self.data = self.data.astype(np.float64)
        self._node = _Node(self.data.shape, self.data.dtype) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value) -> None:
        if self._node is None:
            raise AttributeError("a tensor that needs no gradient holds none")
        self._node.grad = value

    @property
    def _parents(self) -> tuple[_Node | None, ...]:
        return () if self._node is None else self._node._parents

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
    """The op's output, linked to its parents' nodes when any parent needs a gradient.

    The tape links nodes only: ``bw`` keeps what the reverse sweep reads (saved
    activations, the inputs' data it multiplies by), and an input it does not
    read is freed once the caller drops its tensor. ``bw(g)`` returns one
    gradient per parent: an array, a :class:`RowGrad` or None. It never
    returns an array it keeps, because :func:`backward` may store a returned
    array as a parent's ``.grad`` and add into it in place.
    """
    out = Tensor(data)
    if _recording.get():
        nodes = tuple([p._node for p in parents])
        if any(nodes):  # a _Node is always true
            out._node = _Node(out.data.shape, out.data.dtype, nodes, bw)
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
    sa, sb = a.data.shape, b.data.shape

    def bw(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _make(data, (a, b), bw)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batch-dimension broadcasting.

    numpy runs a batched product as one small product per batch entry, so a
    shared weight is best applied to flat ``[N, k]`` rows.
    """
    a, b = _as_tensor(a), _as_tensor(b)
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
    rows = [(at, idx) for _, at, idx in parts]  # not the sources: bw never reads them
    first = sources[0].data
    data = np.zeros((n,) + first.shape[1:], dtype=first.dtype)
    for src, (at, idx) in zip(sources, rows):
        data[at] = src.data[idx]

    def bw(g):
        return tuple(RowGrad(idx, g[at]) for at, idx in rows)

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


def add_layer_norm(x, r, gamma, beta, eps: float = 1e-5) -> Tensor:
    """``x + r`` normalized over the last axis to zero mean and unit population
    variance, then ``* gamma + beta``, as one op.

    ``r`` has ``x``'s shape. The op keeps only the normalized rows and their
    inverse deviations.
    """
    x, r, gamma, beta = (_as_tensor(t) for t in (x, r, gamma, beta))
    d = x.data.shape[-1]
    if r.data.shape != x.data.shape or {gamma.data.shape, beta.data.shape} != {(d,)}:
        raise ShapeError(
            f"add_layer_norm takes r of shape {x.data.shape} and gamma/beta of shape"
            f" ({d},); got {r.data.shape}, {gamma.data.shape} and {beta.data.shape}"
        )
    if not eps > 0:
        raise ValueError("eps must be positive")
    xhat = x.data + r.data
    xhat -= xhat.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat**2).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    data = xhat * gamma.data
    data += beta.data

    def bw(g):
        gx = g * gamma.data
        dot = (gx * xhat).mean(axis=-1, keepdims=True)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= xhat * dot
        gx *= inv
        flat_g = g.reshape(-1, d)
        return gx, gx, (flat_g * xhat.reshape(-1, d)).sum(axis=0), flat_g.sum(axis=0)

    return _make(data, (x, r, gamma, beta), bw)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` for 2-D ``x``, as one op."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    data = x.data @ w.data
    data += b.data
    return _make(data, (x, w, b), lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` for 2-D ``x``, as one op that keeps
    only the hidden rows after the ReLU."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    h = x.data @ w1.data
    h += b1.data
    h *= h > 0
    data = h @ w2.data
    data += b2.data

    def bw(g):
        gh = g @ w2.data.T
        gh *= h > 0
        return gh @ w1.data.T, x.data.T @ gh, gh.sum(axis=0), h.T @ g, g.sum(axis=0)

    return _make(data, (x, w1, b1, w2, b2), bw)


def cross_entropy(logits, labels, sizes=None) -> Tensor:
    """Mean over runs of ``-log softmax(run)[label]``, as one 0-d op. ``[n, c]``
    logits are n runs of c and ``[c]`` is one run; with ``sizes``, 1-D logits
    are consecutive runs of those lengths. Label i indexes within run i.

    The runs of each length are reduced together as ``[runs, length]`` rows,
    so value and gradient equal, bit for bit, those of row-wise log-softmax,
    picking each row's label, summing, negating and scaling by ``1/n`` as
    separate ops.
    """
    logits = _as_tensor(logits)
    x = logits.data
    if sizes is None and x.ndim in (1, 2) and x.size:
        sizes = np.full(x.size // x.shape[-1], x.shape[-1])
    elif x.ndim != 1 or sizes is None:
        raise ShapeError(f"cross_entropy takes [n, c] or [c], or [N] with sizes; got {x.shape}")
    sizes, labels = np.asarray(sizes, np.intp).reshape(-1), np.asarray(labels, np.intp).reshape(-1)
    if sizes.size == 0 or sizes.min() < 1 or sizes.sum() != x.size:
        raise ShapeError(f"cross_entropy takes runs of >= 1 that tile {x.size} logits; got {sizes}")
    n = sizes.size
    if labels.size != n:
        raise ShapeError(f"cross_entropy takes one label per row: {n} rows, {labels.size} labels")
    bad = np.flatnonzero((labels < 0) | (labels >= sizes))
    if bad.size:
        raise IndexError(f"label {labels[bad[0]]} of run {bad[0]} outside [0, {sizes[bad[0]]})")
    if not np.isfinite(x.sum()):
        raise NonFiniteError("cross_entropy logits contain NaN/Inf")
    starts, picked, groups = np.cumsum(sizes) - sizes, np.empty(n, x.dtype), []
    # the runs of each length: their logits' flat index (a view when all runs
    # have one length, as for [n, c] logits), log-softmax and labels
    for length in np.flatnonzero(np.bincount(sizes)).tolist():
        runs = np.flatnonzero(sizes == length)
        index = slice(None) if runs.size == n else (starts[runs, None] + np.arange(length)).ravel()
        block = x.reshape(-1)[index].reshape(runs.size, length)
        shifted = block - block.max(axis=-1, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        rows = (np.arange(runs.size), labels[runs])
        picked[runs] = out[rows]
        groups.append((index, out, rows))
    shape, dtype, inv_n = x.shape, x.dtype, float(1.0 / n)

    def bw(g):
        gx = np.empty(shape, dtype)
        for index, out, rows in groups:
            block = np.zeros_like(out)
            block[rows] = -(g * inv_n)
            block -= np.exp(out) * block.sum(axis=-1, keepdims=True)
            gx.reshape(-1)[index] = block.reshape(-1)
        return (gx,)

    return _make(np.asarray(-picked.sum() * inv_n), (logits,), bw)


def _consumed(g):
    raise RuntimeError("graph already consumed by backward(); run the forward again")


def backward(out: Tensor, seed_grad: np.ndarray | None = None) -> None:
    """Accumulate gradients of ``out`` into every node of its graph, consuming it.

    The sweep walks tape nodes, which hold gradients but no values: a
    :class:`RowGrad` buffer is sized, and a gradient's dtype checked, from
    the node. Each op's backward function and parent links are dropped as
    the sweep passes it, so an intermediate the caller does not hold is
    freed with its saved arrays and gradient; hold any tensor whose
    ``.grad`` you need. A graph can be back-propagated once: a consumed op
    raises if a gradient reaches it again, from a second ``backward`` or
    from a new loss built on one of its outputs.
    """
    if seed_grad is None:
        if out.data.size != 1:
            raise ShapeError("backward() without seed gradient needs a scalar output")
        seed_grad = np.ones_like(out.data)
    if not out.requires_grad:  # a constant: nothing in its graph takes a gradient
        return
    root = out._node
    topo: list[_Node] = []
    seen: set[_Node] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p is not None and p not in seen:
                stack.append((p, False))

    root.grad = np.asarray(seed_grad, dtype=root.dtype)

    while topo:
        node = topo.pop()
        bw, parents, grad = node._bw, node._parents, node.grad
        if bw is None:
            continue
        node._bw, node._parents = _consumed, ()
        if grad is None:
            continue
        grads = bw(grad)
        for i, (parent, g) in enumerate(zip(parents, grads)):
            if g is None or parent is None:
                continue
            if isinstance(g, RowGrad):
                if parent.grad is None:
                    parent.grad = np.zeros(parent.shape, parent.dtype)
                _add_rows(parent.grad, g.rows, g.values)
            elif parent.grad is not None:
                parent.grad += g
            elif (
                g is grad
                or type(g) is not np.ndarray  # a numpy scalar from a 0-d op
                or g.base is not None
                or g.dtype != parent.dtype
                or any(g is h for h in grads[:i])
            ):
                # a copy: the array may be shared (the node's own, a view, a
                # sibling's), or it has another dtype
                parent.grad = np.array(g, dtype=parent.dtype)
            else:
                parent.grad = g


class ParamStore:
    """Named learnable tensors of one dtype.

    Names are unique; iteration is sorted by name so every consumer sees one
    deterministic order. Fixed tables the model derives from its config (the
    position table) are computed where they are read, not stored here.
    """

    def __init__(self, dtype: str = "float64"):
        if dtype not in _FLOAT_DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}")
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}

    def add_param(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate tensor name {name!r}")
        t = Tensor(np.asarray(data, dtype=_FLOAT_DTYPES[self.dtype]), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return sorted(self.params)

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
    entries, chunks, offset = [], [], 0
    for name in store.names():
        t = store[name]
        chunks.append(t.data.astype("<" + t.dtype.str[1:], copy=False).tobytes())
        entries.append(
            {"name": name, "shape": list(t.shape), "dtype": str(t.dtype), "offset": offset}
        )
        offset += len(chunks[-1])
    blob = b"".join(chunks)
    manifest = {
        "format_version": 3,
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


def _key(obj, key: str, where: str):
    """``obj[key]``; a missing key is a CheckpointError naming ``where`` and the key."""
    if not isinstance(obj, dict) or key not in obj:
        raise CheckpointError(f"{where} has no {key!r}")
    return obj[key]


def load_checkpoint(manifest_path, blob_path=None) -> tuple[ParamStore, dict]:
    """Read a format-3 checkpoint. Another version, a missing or malformed
    manifest key, an unsupported dtype, an entry that runs past the blob, or a
    blob whose length or sha256 differs from the manifest's is a
    CheckpointError naming the manifest."""
    manifest_path = str(manifest_path)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = _key(manifest, "format_version", manifest_path)
    if version != 3:
        raise CheckpointError(
            f"{manifest_path}: unsupported checkpoint format_version {version!r}; only 3 is read"
        )
    if blob_path is None:
        prefix = manifest_path.rsplit("/", 1)[0] if "/" in manifest_path else "."
        blob_path = prefix + "/" + _key(manifest, "blob", manifest_path)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    expected = _key(manifest, "blob_bytes", manifest_path)
    if len(blob) != expected:
        raise CheckpointError(
            f"{blob_path}: {len(blob)} bytes, manifest {manifest_path} records {expected}"
        )
    if hashlib.sha256(blob).hexdigest() != _key(manifest, "blob_sha256", manifest_path):
        raise CheckpointError(f"{blob_path}: sha256 differs from manifest {manifest_path}")
    store = ParamStore(dtype=_float_dtype(manifest, manifest_path))
    tensors = _key(manifest, "tensors", manifest_path)
    if not isinstance(tensors, list):
        raise CheckpointError(f"{manifest_path}: 'tensors' is not a list")
    for i, entry in enumerate(tensors):
        where = f"{manifest_path}: tensor entry {i}"
        if not isinstance(entry, dict):
            raise CheckpointError(f"{where} is not an object")
        shape, offset = _key(entry, "shape", where), _key(entry, "offset", where)
        dtype = np.dtype(_float_dtype(entry, where))
        if not (
            isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
            and type(offset) is int
            and offset >= 0
        ):
            raise CheckpointError(f"{where}: bad shape {shape!r} or offset {offset!r}")
        count = int(np.prod(shape))
        if offset + count * dtype.itemsize > len(blob):
            raise CheckpointError(
                f"{where}: {count} {dtype} values at offset {offset} run past"
                f" the {len(blob)}-byte blob"
            )
        arr = np.frombuffer(blob, dtype.newbyteorder("<"), count, offset)
        store.add_param(_key(entry, "name", where), arr.astype(dtype).reshape(shape))
    return store, manifest.get("extra", {})


def _float_dtype(obj, where: str) -> str:
    """``obj["dtype"]``, which must name a dtype a ParamStore holds."""
    dtype = _key(obj, "dtype", where)
    if not isinstance(dtype, str) or dtype not in _FLOAT_DTYPES:
        raise CheckpointError(f"{where}: unsupported dtype {dtype!r}")
    return dtype


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
