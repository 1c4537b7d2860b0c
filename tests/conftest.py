"""Shared oracles and fixtures.

The oracles here are deliberately independent re-implementations (brute
force, dense loops, finite differences) of the operations they check, and
stay ignorant of the library's internals.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as bench/run.py does: the test
# process then runs one OS thread, so network.train forks its shard worker
# here as it does in a pinned `pointcast train`.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pointcast import autodiff as ad


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_grad(scalar_fn, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central finite differences of ``scalar_fn()`` w.r.t. the array ``x``.

    ``scalar_fn`` must recompute the scalar from the current contents of
    ``x``; this mutates ``x`` in place and restores it.
    """
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        fp = scalar_fn()
        x[idx] = orig - h
        fm = scalar_fn()
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def check_grads(make_loss, tensors, rtol=1e-4, atol=1e-6, h=1e-4):
    """Compare backward() gradients against central differences for each tensor."""
    loss = make_loss()
    for t in tensors:
        t.zero_grad()
    ad.backward(loss)
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = fd_grad(lambda: make_loss().item(), t.data, h=h)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def spread_values(rng, shape, gap: float = 0.05):
    """Random matrix whose entries are pairwise separated and away from zero.

    Keeps finite differences clear of the relu / max / smooth-L1 kinks.
    """
    size = int(np.prod(shape))
    base = (rng.permutation(size) + 1).astype(np.float64) * gap
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    jitter = rng.uniform(-0.3, 0.3) * gap
    return (sign * base + jitter).reshape(shape)


def materialize(x):
    """The (rows, C) array that a Tensor or a list of ``linear`` column blocks stands for.

    A block is a Tensor, a constant array, or a ``(Tensor, GroupTable)`` pair
    meaning ``tensor[table.group_of]``; the blocks join column-wise.
    """
    if isinstance(x, ad.Tensor):
        return x.data
    cols = []
    for blk in x:
        t, table = blk if isinstance(blk, tuple) else (blk, None)
        data = t.data if isinstance(t, ad.Tensor) else np.asarray(t, dtype=np.float64)
        cols.append(data if table is None else data[table.group_of])
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# brute-force references


def brute_group_by_keys(keys):
    """First-appearance grouping of arbitrary hashable keys via a dict."""
    key_to_gid: dict = {}
    group_of = []
    for k in keys:
        k = int(k) if isinstance(k, np.integer) else k
        if k not in key_to_gid:
            key_to_gid[k] = len(key_to_gid)
        group_of.append(key_to_gid[k])
    members = [[] for _ in range(len(key_to_gid))]
    for i, g in enumerate(group_of):
        members[g].append(i)
    return np.asarray(group_of), [np.asarray(m) for m in members]


def brute_scatter_mean(x, group_of, n_groups):
    out = np.zeros((n_groups, x.shape[1]))
    for g in range(n_groups):
        out[g] = x[group_of == g].mean(axis=0)
    return out


def brute_scatter_max(x, group_of, n_groups):
    out = np.zeros((n_groups, x.shape[1]))
    for g in range(n_groups):
        out[g] = x[group_of == g].max(axis=0)
    return out


def brute_scatter_max_routing(x, group_of, n_groups, g):
    """Gradient of sum(scatter_max(x) * g): each group's column max, first row on ties."""
    gx = np.zeros_like(x)
    for grp in range(n_groups):
        rows = [i for i in range(len(x)) if group_of[i] == grp]
        for c in range(x.shape[1]):
            best = rows[0]
            for i in rows:
                if x[i, c] > x[best, c]:
                    best = i
            gx[best, c] += g[grp, c]
    return gx


def softmax_chain(x, groups):
    """Per-group, per-column softmax composed from general primitives.

    This is how voxel-to-point interpolation computed its weights before
    ``segment_softmax``: max shift, exp, and a segment sum taken as
    ``scatter_mean`` times the group sizes.
    """
    counts = groups.counts().astype(np.float64)[:, None]
    counts = ad.constant(np.repeat(counts, x.data.shape[1], axis=1))
    m = ad.scatter_max(x, groups)
    z = ad.exp(ad.sub(x, ad.gather_rows(m, groups)))
    denom = ad.mul(ad.scatter_mean(z, groups), counts)
    return ad.div(z, ad.gather_rows(denom, groups))


def conv_chain(x, kernel_map, taps, b):
    """Submanifold convolution composed from general primitives, a node chain per tap.

    This is how the bottleneck computed its convolution before
    ``submanifold_conv``: a ``linear`` with the bias for the center tap (the
    None entry of ``kernel_map``), then per live tap a row gather, a
    ``linear`` by the tap weight, a row scatter and an ``add``. The gather and
    the scatter are products with constant one-hot selection matrices.
    """
    n = x.data.shape[0]
    center = next(k for k, pair in enumerate(kernel_map) if pair is None)
    out = ad.linear(x, taps[center], b)
    for tap, pair in zip(taps, kernel_map):
        if pair is None or len(pair[0]) == 0:
            continue
        outs, ins = pair
        take = np.zeros((len(ins), n))
        take[np.arange(len(ins)), ins] = 1.0
        put = np.zeros((n, len(outs)))
        put[outs, np.arange(len(outs))] = 1.0
        contrib = ad.linear(ad.linear(ad.constant(take), x), tap)
        out = ad.add(out, ad.linear(ad.constant(put), contrib))
    return out


def norm_act_ref(x, gain, bias, act, eps=1e-8):
    """Layer norm, then relu when ``act``, in plain numpy; returns ``(y, vjp)``.

    This is the math of the separate ``layer_norm`` and ``relu`` nodes that
    ``norm_act`` fused: ``ndarray.mean`` row statistics, a relu mask taken on
    the pre-activation, and ``vjp(g) -> (gx, ggain, gbias)``.
    """
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    pre = xhat * gain + bias
    mask = pre > 0

    def vjp(g):
        if act:
            g = g * mask
        gg = g * gain
        gx = inv * (
            gg
            - gg.mean(axis=1, keepdims=True)
            - xhat * (gg * xhat).mean(axis=1, keepdims=True)
        )
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return (pre * mask if act else pre), vjp


def brute_csr(group_of, n_groups):
    """CSR (order, offsets) of a dense group assignment, built one row at a time."""
    members = [[] for _ in range(n_groups)]
    for i, grp in enumerate(group_of):
        members[grp].append(i)
    order, offsets = [], [0]
    for m in members:
        order.extend(m)
        offsets.append(len(order))
    return np.asarray(order, dtype=np.int64), np.asarray(offsets, dtype=np.int64)


def brute_conv_pairs(coords, offsets):
    """Per-offset (out_row, in_row) lists: every voxel pair with coords[in] == coords[out] + offset."""
    pairs = []
    for di, dj in offsets:
        outs, ins = [], []
        for g, (vx, vy) in enumerate(coords):
            for h, (ux, uy) in enumerate(coords):
                if ux == vx + di and uy == vy + dj:
                    outs.append(g)
                    ins.append(h)
        pairs.append((np.asarray(outs, dtype=np.int64), np.asarray(ins, dtype=np.int64)))
    return pairs


def dict_interp_candidates(coords, points, grid_size):
    """(point, voxel row) candidates from the 2x2 cells around each point, via a dict."""
    index = {(int(c[0]), int(c[1])): row for row, c in enumerate(coords)}
    base = np.floor(points / grid_size - 0.5).astype(np.int64)
    cand_point, cand_row = [], []
    for i in range(len(points)):
        bx, by = base[i]
        for dx in (0, 1):
            for dy in (0, 1):
                row = index.get((int(bx) + dx, int(by) + dy))
                if row is not None:
                    cand_point.append(i)
                    cand_row.append(row)
    return np.asarray(cand_point, dtype=np.int64), np.asarray(cand_row, dtype=np.int64)


def brute_radius_pairs(points, radius):
    """O(N^2) inclusive radius search; pairs sorted by (center, neighbor)."""
    n = len(points)
    centers, neighbors = [], []
    for i in range(n):
        for j in range(n):
            d = points[j] - points[i]
            if d @ d <= radius * radius:
                centers.append(i)
                neighbors.append(j)
    return np.asarray(centers), np.asarray(neighbors)


# ---------------------------------------------------------------------------
# processes


def live_children(parent: int) -> list[int]:
    """Pids of the children of ``parent`` that have not exited, read from /proc.

    Empty where there is no /proc. A zombie (exited, not yet reaped) does not count.
    """
    out = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # the process exited while we listed
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if int(ppid) == parent and state != "Z":
            out.append(int(entry.name))
    return out


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as a training worker."""
    yield
    left = live_children(os.getpid())
    assert not left, f"child processes still running after the test: {left}"



@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
