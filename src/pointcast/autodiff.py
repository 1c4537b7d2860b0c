"""Minimal reverse-mode differentiation over dense (rows, cols) float64 matrices.

Every value in the network is a 2D matrix; scalars are (1, 1). Ops build a
graph through parent links and each node stores a vector-Jacobian closure.
Node ids count up as nodes are built, so every parent has a smaller id than
its children. :func:`backward` is therefore one sweep in descending node id,
which is a reverse topological order: it runs each reachable node's closure
once and accumulates into ``Tensor.grad``, so per-sample gradients can be
summed across a batch before an optimizer step. The sweep frees the graph as
it goes: once a node's VJP has run, its closure and parent links are dropped,
so each intermediate is released after its last consumer, and a graph can be
swept only once.

Inference records no graph: under :func:`no_grad` every op returns a plain
``Tensor`` with no parents and no closure, so each intermediate is freed as
soon as its consumers have run. Work that only the backward pass needs
belongs in the closure, so inference skips it: ``scatter_max`` finds its
argmax rows there.

Every layer norm in the network is one :func:`norm_act` node: the row
statistics, the affine and the optional relu in one forward and one VJP.
:func:`layer_norm` is ``norm_act`` without the relu.

:func:`linear` takes its input as column blocks (Tensors, constant arrays,
and ``(Tensor, GroupTable)`` pairs that stand for gathered rows), so the
network's concat-then-linear fusions copy no concatenated or gathered input:
each block is multiplied on its own rows and a gathered block is gathered
after its product.

There is deliberately no general broadcasting: the only shape-bending ops are
the named primitives below (``scale_rows``, ``mean_rows``, the block
``linear``, ``submanifold_conv``, the gathers and the scatters). Every
index-taking primitive reads a CSR :class:`~pointcast.indexing.GroupTable` or
distinct rows, so each backward sum is a segment sum or a plain fancy-index add.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools

import numpy as np

from .indexing import CENTER_TAP, GroupTable

_ids = itertools.count()
_grad_enabled = True


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node_id", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"Tensor data must be at most 2D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node_id = next(_ids)
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block; the previous state comes back on exit."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def _recording(parents) -> bool:
    """Whether an op on ``parents`` becomes a graph node (and its VJP can run)."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _op(out_data, parents, vjp) -> Tensor:
    if _recording(parents):
        return Tensor(out_data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(out_data)


def _check_same_shape(a: Tensor, b: Tensor, name: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{name}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# dense primitives


def _column_blocks(x):
    """``(data, table, tensor)`` per block of a ``linear`` input.

    ``tensor`` is the block's Tensor when it needs a gradient, else None, and
    ``table`` is the block's GroupTable when its rows are gathered.
    """
    if isinstance(x, Tensor):
        x = [x]
    out = []
    for blk in x:
        t, table = blk if isinstance(blk, tuple) else (blk, None)
        if isinstance(t, Tensor):
            data, t = t.data, (t if t.requires_grad else None)
        else:
            data, t = np.asarray(t, dtype=np.float64), None
        if data.ndim != 2:
            raise ValueError(f"linear: block of shape {data.shape} is not 2D")
        if table is not None and table.n_groups != data.shape[0]:
            raise ValueError("linear: group table does not match its block's rows")
        out.append((data, table, t))
    return out


def _group_product(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for the rows of a gathered block, rounded the same at any row count.

    A gathered block's rows are groups, and how many there are depends on the
    rest of the scene. numpy sends a one-row product to gemv, which rounds
    differently from gemm, so a lone group is multiplied as two rows: a
    row's value, and its gradient, then never depend on what other
    instances the scene holds.
    """
    if a.shape[0] == 1:
        return (np.vstack([a, a]) @ w)[:1]
    return a @ w


def linear(x, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b). ``b`` is a (1, D) row broadcast over rows.

    ``x`` is a Tensor or a list of column blocks standing for their column
    concatenation. A block is a Tensor, a constant array, or a
    ``(Tensor, GroupTable)`` pair meaning ``tensor[table.group_of]``. A linear
    map distributes over a column concat and a row gather, so each block's
    product runs on its own rows with its own rows of ``w``, and a gathered
    block is gathered after its product: no concatenated or gathered copy of
    an input is made. The VJP segment-sums a gathered block's gradient before
    its products and computes no gradient for constants.
    """
    blocks = _column_blocks(x)
    widths = [data.shape[1] for data, _, _ in blocks]
    rows = {len(table.group_of) if table is not None else data.shape[0]
            for data, table, _ in blocks}
    if len(rows) != 1 or sum(widths) != w.data.shape[0]:
        raise ValueError(f"linear: blocks {[d.shape for d, _, _ in blocks]} @ {w.data.shape}")
    if b is not None and b.data.shape != (1, w.data.shape[1]):
        raise ValueError(f"linear: bias shape {b.data.shape}")
    edges = [0, *itertools.accumulate(widths)]
    y = None
    for (data, table, _), lo, hi in zip(blocks, edges[:-1], edges[1:]):
        if table is None:
            part = data @ w.data[lo:hi]
        else:
            part = _group_product(data, w.data[lo:hi])[table.group_of]
        if y is None:
            y = part
        else:
            y += part
    if b is not None:
        y += b.data
    inputs = [t for _, _, t in blocks if t is not None]

    def vjp(g):
        gx, gw = [], []
        for (data, table, t), lo, hi in zip(blocks, edges[:-1], edges[1:]):
            gp = _segment_sum(g, table) if table is not None else g
            if w.requires_grad:
                gw.append(data.T @ gp)
            if t is not None:
                gx.append(gp @ w.data[lo:hi].T if table is None
                          else _group_product(gp, w.data[lo:hi].T))
        gw = (gw[0] if len(gw) == 1 else np.vstack(gw)) if gw else None
        gb = (g.sum(axis=0, keepdims=True),) if b is not None else ()
        return (*gx, gw) + gb

    return _op(y, (*inputs, w) + ((b,) if b is not None else ()), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _op(x.data * mask, (x,), lambda g: (g * mask,))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _op(y, (x,), lambda g: (g * y,))


def norm_act(x: Tensor, gain: Tensor, bias: Tensor, act: bool, eps: float = 1e-8) -> Tensor:
    """Per-row layer norm, then affine, then relu when ``act``, as one node.

    Row means are matvecs with a ones vector, so each reduction is one BLAS
    pass. The forward makes one centered copy and normalizes it in place
    into ``xhat``. When the node is recorded it keeps ``xhat`` and a
    separate output, and the VJP reads the relu mask back from the output;
    otherwise the output overwrites ``xhat``. NaN rows propagate as in a
    separate ``layer_norm`` and ``relu``.
    """
    c = x.data.shape[1]
    if gain.data.shape != (1, c) or bias.data.shape != (1, c):
        raise ValueError("norm_act: gain/bias must be (1, C)")
    ones = np.ones(c)
    xhat = x.data - (x.data @ ones / c)[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat) / c + eps)
    xhat *= inv[:, None]
    if _recording((x, gain, bias)):
        y = xhat * gain.data
    else:
        y = np.multiply(xhat, gain.data, out=xhat)
    y += bias.data
    if act:
        np.maximum(y, 0.0, out=y)

    def vjp(g):
        if act:
            g = g * (y > 0)
        ggain = np.einsum("ij,ij->j", g, xhat)[None]
        gbias = g.sum(axis=0, keepdims=True)
        # the masked copy is this closure's own, so it can take gg; an
        # unmasked g may be shared with another parent and is left alone
        gg = np.multiply(g, gain.data, out=g) if act else g * gain.data
        m1 = gg @ ones / c
        m2 = np.einsum("ij,ij->i", gg, xhat) / c
        gg -= m1[:, None]
        gg -= xhat * m2[:, None]
        gg *= inv[:, None]
        return gg, ggain, gbias

    return _op(y, (x, gain, bias), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    return norm_act(x, gain, bias, act=False, eps=eps)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _op(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _op(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _op(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "div")
    y = a.data / b.data
    return _op(y, (a, b), lambda g: (g / b.data, -g * y / b.data))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _op(x.data * c, (x,), lambda g: (g * c,))


def scale_rows(x: Tensor, w: Tensor) -> Tensor:
    """Multiply row i of x by the scalar w[i, 0]; w has shape (N, 1)."""
    if w.data.shape != (x.data.shape[0], 1):
        raise ValueError(f"scale_rows: weights {w.data.shape} for x {x.data.shape}")

    def vjp(g):
        return g * w.data, (g * x.data).sum(axis=1, keepdims=True)

    return _op(x.data * w.data, (x, w), vjp)


def concat_cols(*tensors: Tensor) -> Tensor:
    """Column concatenation of tensors with equal row counts, as one op.

    The network makes no concatenated copy: where a concat feeds a linear
    map, :func:`linear` takes the parts as column blocks. This op stays for
    tests and demos, and because ``bench/spans.py`` wraps it by name.
    """
    if len({t.data.shape[0] for t in tensors}) != 1:
        raise ValueError(f"concat_cols: row mismatch {[t.data.shape for t in tensors]}")
    edges = np.cumsum([0] + [t.data.shape[1] for t in tensors])
    return _op(
        np.hstack([t.data for t in tensors]),
        tensors,
        lambda g: tuple(g[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])),
    )


def concat_cols_all(tensors) -> Tensor:
    return concat_cols(*tensors)


def slice_cols(x: Tensor, lo: int, hi: int) -> Tensor:
    if not (0 <= lo < hi <= x.data.shape[1]):
        raise ValueError(f"slice_cols: [{lo}, {hi}) out of {x.data.shape[1]} cols")

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, lo:hi] = g
        return (gx,)

    return _op(x.data[:, lo:hi].copy(), (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    return _op(
        np.array([[x.data.sum()]]),
        (x,),
        lambda g: (np.full_like(x.data, g[0, 0]),),
    )


def mean_rows(x: Tensor, rows) -> Tensor:
    """The (1, C) mean of the distinct rows ``rows`` of x; each gets ``g / n`` back."""
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0 or len(np.unique(rows)) != len(rows):
        raise ValueError("mean_rows: rows must be distinct and non-empty")

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[rows] = g / len(rows)
        return (gx,)

    return _op(x.data[rows].mean(axis=0, keepdims=True), (x,), vjp)


# ---------------------------------------------------------------------------
# gather / scatter primitives


def _segment_sum(v: np.ndarray, groups: GroupTable) -> np.ndarray:
    """Per-group column sums over the CSR order, members ascending."""
    return np.add.reduceat(v[groups.order], groups.offsets[:-1], axis=0)


def gather_rows(x: Tensor, groups: GroupTable) -> Tensor:
    """out[i] = x[groups.group_of[i]]; the backward pass is a CSR segment sum per row of x."""
    if groups.n_groups != x.data.shape[0]:
        raise ValueError("gather_rows: group table does not match row count")
    return _op(x.data[groups.group_of], (x,), lambda g: (_segment_sum(g, groups),))


def scatter_mean(x: Tensor, groups: GroupTable) -> Tensor:
    """out[g] = mean of member rows of group g."""
    if len(groups.group_of) != x.data.shape[0]:
        raise ValueError("scatter_mean: group table does not match row count")
    counts = groups.counts().astype(np.float64)
    out = _segment_sum(x.data, groups) / counts[:, None]

    def vjp(g):
        return (g[groups.group_of] / counts[groups.group_of, None],)

    return _op(out, (x,), vjp)


def scatter_max(x: Tensor, groups: GroupTable) -> Tensor:
    """Per-group, per-column maximum; gradient routes to the argmax member.

    Ties route to the lowest member index, which keeps the backward pass
    deterministic. The argmax rows are found in the VJP, so inference never
    computes them.
    """
    if len(groups.group_of) != x.data.shape[0]:
        raise ValueError("scatter_max: group table does not match row count")
    starts = groups.offsets[:-1]
    out = np.maximum.reduceat(x.data[groups.order], starts, axis=0)

    def vjp(g):
        # members ascend within a segment, so the first position that attains
        # the max is the lowest member; a NaN max (no ``<``) routes to the first one
        xs = x.data[groups.order]
        attains = ~(xs < out[groups.group_of[groups.order]])
        pos = np.where(attains, np.arange(len(xs))[:, None], len(xs))
        argrows = groups.order[np.minimum.reduceat(pos, starts, axis=0)]
        gx = np.zeros_like(x.data)
        gx[argrows, np.arange(x.data.shape[1])] = g
        return (gx,)

    return _op(out, (x,), vjp)


def segment_softmax(x: Tensor, groups: GroupTable) -> Tensor:
    """Per-group, per-column softmax over member rows, shifted by the group max."""
    if len(groups.group_of) != x.data.shape[0]:
        raise ValueError("segment_softmax: group table does not match row count")
    m = np.maximum.reduceat(x.data[groups.order], groups.offsets[:-1], axis=0)
    z = np.exp(x.data - m[groups.group_of])
    w = z / _segment_sum(z, groups)[groups.group_of]

    def vjp(g):
        return (w * (g - _segment_sum(g * w, groups)[groups.group_of]),)

    return _op(w, (x,), vjp)


def scatter_add_rows(x: Tensor, groups: GroupTable) -> Tensor:
    """out[g] = sum of the member rows of group g."""
    if len(groups.group_of) != x.data.shape[0]:
        raise ValueError("scatter_add_rows: group table does not match row count")
    return _op(_segment_sum(x.data, groups), (x,), lambda g: (g[groups.group_of],))


def submanifold_conv(x: Tensor, kernel_map, taps, b: Tensor) -> Tensor:
    """3x3 submanifold sparse convolution over the voxel rows of x, as one node.

    ``kernel_map[k]`` holds tap k's (out rows, in rows) pairs and ``taps[k]``
    its (C, D) weight. The center tap pairs every row with itself, so its
    entry is None; its product is dense and carries the bias ``b``. The rows
    are distinct voxels, so within one tap the out rows are distinct and so
    are the in rows: each fancy ``+=`` below touches a row at most once and is
    exact without an unbuffered add. Taps with no pairs are not parents.
    """
    if len(taps) != len(kernel_map) or kernel_map[CENTER_TAP] is not None:
        raise ValueError("submanifold_conv: need one weight per tap and no center pairs")
    wc = taps[CENTER_TAP]
    if x.data.shape[1] != wc.data.shape[0] or b.data.shape != (1, wc.data.shape[1]):
        raise ValueError(f"submanifold_conv: {x.data.shape} by {wc.data.shape}")
    live = [(w, *pair) for w, pair in zip(taps, kernel_map)
            if pair is not None and len(pair[0])]
    out = x.data @ wc.data + b.data
    for w, outs, ins in live:
        out[outs] += x.data[ins] @ w.data

    def vjp(g):
        gx = g @ wc.data.T
        gw = []
        for w, outs, ins in live:
            go = g[outs]
            gx[ins] += go @ w.data.T
            gw.append(x.data[ins].T @ go)
        return (gx, x.data.T @ g, g.sum(axis=0, keepdims=True), *gw)

    return _op(out, (x, wc, b, *(w for w, _, _ in live)), vjp)


# ---------------------------------------------------------------------------
# loss primitives


def smooth_l1(pred: Tensor, target, beta: float = 1.0) -> Tensor:
    """Mean smooth-L1 between pred and a constant target of the same shape.

    rho(d) = 0.5 d^2 / beta for |d| < beta, else |d| - 0.5 beta.
    """
    if beta <= 0:
        raise ValueError("smooth_l1: beta must be positive")
    target = np.asarray(target, dtype=np.float64).reshape(pred.data.shape)
    d = pred.data - target
    quad = np.abs(d) < beta
    rho = np.where(quad, 0.5 * d * d / beta, np.abs(d) - 0.5 * beta)
    n = d.size

    def vjp(g):
        drho = np.where(quad, d / beta, np.sign(d))
        return (g[0, 0] * drho / n,)

    return _op(np.array([[rho.mean()]]), (pred,), vjp)


# ---------------------------------------------------------------------------
# reverse sweep


def _freed_vjp(g):
    raise RuntimeError("backward: this graph was already swept; build it again")


def backward(loss: Tensor, leaves=None) -> dict:
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every reachable tensor.

    ``loss`` must be a (1, 1) scalar. Gradients add onto any existing
    ``.grad`` of a leaf, so calls on freshly built graphs accumulate (use
    ``zero_grad`` between steps). The sweep frees the graph as it goes: once
    an interior node's VJP has run, its closure and parent links are dropped
    and its ``.data`` stays readable, so a second ``backward`` through the
    same node raises ``RuntimeError``. When ``leaves`` is given, returns
    {tensor: gradient} with zeros for leaves the loss does not depend on.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward: loss must be scalar (1, 1), got {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss has no graph (a constant, or built under no_grad)")
    # pending gradients, and a max-heap of their nodes keyed by -node_id: the
    # largest id pending has no pending child left, so its gradient is complete
    grads = {loss.node_id: np.ones((1, 1))}
    heap = [(-loss.node_id, loss)]
    while heap:
        _, node = heapq.heappop(heap)
        g = grads.pop(node.node_id)
        if node._vjp is None:
            # leaf: keep the accumulated gradient across backward calls
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if not p.requires_grad:
                continue
            if p.node_id in grads:
                grads[p.node_id] = grads[p.node_id] + pg
            else:
                grads[p.node_id] = pg
                heapq.heappush(heap, (-p.node_id, p))
        # the closure and the parent links are spent: drop them, so each
        # intermediate is freed once its last consumer's VJP has run
        node._parents, node._vjp = (), _freed_vjp
    if leaves is None:
        return {}
    return {t: (t.grad if t.grad is not None else np.zeros_like(t.data)) for t in leaves}
