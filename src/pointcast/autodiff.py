"""Minimal reverse-mode differentiation over dense (rows, cols) float64 matrices.

Every value in the network is a 2D matrix; scalars are (1, 1). Ops build a
graph through parent links and each node stores a vector-Jacobian closure.
Node ids count up as nodes are built, so every parent has a smaller id than
its children. :func:`backward` is therefore one sweep in descending node id,
which is a reverse topological order: it runs each reachable node's closure
once and accumulates into ``Tensor.grad``, so per-sample gradients can be
summed across a batch before an optimizer step.

There is deliberately no general broadcasting: the only shape-bending ops are
the named primitives below (``scale_rows``, ``mean_rows``, the scatters).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .indexing import GroupTable

_ids = itertools.count()


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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    __rmul__ = __mul__


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _op(out_data, parents, vjp) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(out_data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(out_data)


def _check_same_shape(a: Tensor, b: Tensor, name: str):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{name}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# dense primitives


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w (+ b). ``b`` is a (1, D) row broadcast over rows."""
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear: {x.data.shape} @ {w.data.shape}")
    y = x.data @ w.data
    if b is not None:
        if b.data.shape != (1, w.data.shape[1]):
            raise ValueError(f"linear: bias shape {b.data.shape}")
        y = y + b.data

    def vjp(g):
        gb = (g.sum(axis=0, keepdims=True),) if b is not None else ()
        return (g @ w.data.T, x.data.T @ g) + gb

    return _op(y, (x, w) + ((b,) if b is not None else ()), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _op(x.data * mask, (x,), lambda g: (g * mask,))


def exp(x: Tensor) -> Tensor:
    y = np.exp(x.data)
    return _op(y, (x,), lambda g: (g * y,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-8) -> Tensor:
    """Per-row normalization to zero mean / unit variance, then affine."""
    if gain.data.shape != (1, x.data.shape[1]) or bias.data.shape != (1, x.data.shape[1]):
        raise ValueError("layer_norm: gain/bias must be (1, C)")
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def vjp(g):
        gg = g * gain.data
        gx = inv * (
            gg
            - gg.mean(axis=1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=1, keepdims=True)
        )
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return _op(xhat * gain.data + bias.data, (x, gain, bias), vjp)


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
    """Column concatenation of tensors with equal row counts, as one op."""
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


def mean_rows(x: Tensor) -> Tensor:
    n = x.data.shape[0]
    return _op(
        x.data.mean(axis=0, keepdims=True),
        (x,),
        lambda g: (np.repeat(g / n, n, axis=0),),
    )


# ---------------------------------------------------------------------------
# gather / scatter primitives


def gather_rows(x: Tensor, index) -> Tensor:
    """out[i] = x[index[i]]; the backward pass scatter-adds into source rows."""
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1:
        raise ValueError("gather_rows: index must be 1D")
    if len(index) and (index.min() < 0 or index.max() >= x.data.shape[0]):
        raise IndexError("gather_rows: index out of range")

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        return (gx,)

    return _op(x.data[index], (x,), vjp)


def scatter_mean(x: Tensor, groups: GroupTable) -> Tensor:
    """out[g] = mean of member rows of group g."""
    if len(groups.group_of) != x.data.shape[0]:
        raise ValueError("scatter_mean: group table does not match row count")
    counts = groups.counts().astype(np.float64)
    sums = np.zeros((groups.n_groups, x.data.shape[1]))
    np.add.at(sums, groups.group_of, x.data)
    out = sums / counts[:, None]

    def vjp(g):
        return (g[groups.group_of] / counts[groups.group_of, None],)

    return _op(out, (x,), vjp)


def scatter_max(x: Tensor, groups: GroupTable) -> Tensor:
    """Per-group, per-column maximum; gradient routes to the argmax member.

    Ties route to the lowest member index, which keeps the backward pass
    deterministic.
    """
    if len(groups.group_of) != x.data.shape[0]:
        raise ValueError("scatter_max: group table does not match row count")
    starts = groups.offsets[:-1]
    xs = x.data[groups.order]
    out = np.maximum.reduceat(xs, starts, axis=0)
    # members ascend within a segment, so the first position that attains the
    # max is the lowest member; a NaN max (no ``<``) routes to the first one
    attains = ~(xs < out[groups.group_of[groups.order]])
    pos = np.where(attains, np.arange(len(xs))[:, None], len(xs))
    argrows = groups.order[np.minimum.reduceat(pos, starts, axis=0)]
    cols = np.arange(x.data.shape[1])

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[argrows, cols] = g
        return (gx,)

    return _op(out, (x,), vjp)


def _segment_sum(v: np.ndarray, groups: GroupTable) -> np.ndarray:
    """Per-group column sums over the CSR order, members ascending."""
    return np.add.reduceat(v[groups.order], groups.offsets[:-1], axis=0)


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


def scatter_add_rows(x: Tensor, index, n_rows: int) -> Tensor:
    """out[r] = sum of x rows i with index[i] == r; rows with no hits stay zero."""
    index = np.asarray(index, dtype=np.int64)
    if len(index) != x.data.shape[0]:
        raise ValueError("scatter_add_rows: index length mismatch")
    if len(index) and (index.min() < 0 or index.max() >= n_rows):
        raise IndexError("scatter_add_rows: index out of range")
    out = np.zeros((n_rows, x.data.shape[1]))
    np.add.at(out, index, x.data)
    return _op(out, (x,), lambda g: (g[index],))


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


def backward(loss: Tensor, leaves=None) -> dict:
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every reachable tensor.

    ``loss`` must be a (1, 1) scalar. Gradients add onto any existing
    ``.grad`` so repeated calls accumulate (use ``zero_grad`` between steps).
    When ``leaves`` is given, returns {tensor: gradient} with zeros for
    leaves the loss does not depend on.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward: loss must be scalar (1, 1), got {loss.data.shape}")
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
    if leaves is None:
        return {}
    return {t: (t.grad if t.grad is not None else np.zeros_like(t.data)) for t in leaves}
