"""Shared oracles and fixtures.

The oracles here are deliberately independent re-implementations (brute
force, dense loops, finite differences) of the operations they check, and
stay ignorant of the library's internals.
"""

from __future__ import annotations

import json
import os
import time

# One BLAS thread, set before numpy loads, as bench/run.py does: the test
# process then runs one OS thread, so network.train forks its shard worker
# here as it does in a pinned `pointcast train`.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

# One Hypothesis profile for every property test. An example builds scenes,
# plans or files, whose time varies with the machine's load, so none has a
# deadline. Each test sets its own max_examples.
settings.register_profile("pointcast", deadline=None)
settings.load_profile("pointcast")

from pointcast import autodiff as ad
from pointcast.scenes import SceneFormatError, SceneValidationError


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


def group_members(table) -> list[np.ndarray]:
    """Group id -> ascending rows of a GroupTable, one array per group."""
    return [table.order[a:b] for a, b in zip(table.offsets[:-1], table.offsets[1:])]


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
# malformed scene files


def _csv(agent_steps: int) -> str:
    """An AGENT track seen at ranks ``0..agent_steps - 1`` and another track at ranks 0..19."""
    rows = [f"{k / 10},t0,AGENT,{float(k)},0.0,PIT" for k in range(agent_steps)]
    rows += [f"{k / 10},o1,OTHERS,1.0,{float(k)},PIT" for k in range(20)]
    return "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME\n" + "\n".join(rows) + "\n"


def _one_track_csv(types, cities) -> str:
    """One track seen at ranks 0..19, whose row k has OBJECT_TYPE ``types[k]`` and CITY_NAME
    ``cities[k]``."""
    rows = [f"{k / 10},t0,{kind},{float(k)},0.0,{city}"
            for k, (kind, city) in enumerate(zip(types, cities))]
    return "TIMESTAMP,TRACK_ID,OBJECT_TYPE,X,Y,CITY_NAME\n" + "\n".join(rows) + "\n"


def _scene_json(city) -> str:
    """A JSON scene whose target is seen at all 20 history steps, with ``city``."""
    return json.dumps({"agents": [{"id": "t0", "points": [[k, float(k), 0.0] for k in range(20)]}],
                       "map": [], "target_id": "t0", "future": None, "city": city})


# case: (file name, file bytes, the error load_scene raises)
MALFORMED_SCENE_FILES = {
    "agent-stops-at-rank-9": ("s.csv", _csv(10).encode(), SceneValidationError),
    "bad-csv-header": ("s.csv", _csv(20).replace("TIMESTAMP", "TIME", 1).encode(),
                       SceneFormatError),
    "non-utf8-json": ("s.json", b"\xff\xfe{", SceneFormatError),
    "non-utf8-csv": ("s.csv", _csv(20).encode().replace(b"PIT", b"P\xffT", 1), SceneFormatError),
    "txt-suffix": ("s.txt", _scene_json("PIT").encode(), SceneFormatError),
    "null-city-json": ("s.json", _scene_json(None).encode(), SceneFormatError),
    "city-switches-at-row-12": ("s.csv", _one_track_csv(["AGENT"] * 20,
                                                        ["PIT"] * 11 + ["MIA"] * 9).encode(),
                                SceneValidationError),
    "object-type-alternates": ("s.csv", _one_track_csv(["AGENT", "OTHERS"] * 10,
                                                       ["PIT"] * 20).encode(),
                               SceneValidationError),
    # json.loads refuses an integer literal past Python's 4300-digit limit
    "integer-past-digit-limit": ("s.json", _scene_json("PIT").replace(
        "0.0", "1" + "0" * 4300, 1).encode(), SceneFormatError),
}


# ---------------------------------------------------------------------------
# processes


def proc_stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of process ``pid`` from /proc, or None once ``/proc/<pid>`` is gone.

    A read while the process exits can fail, or come back empty or cut short
    before the ``)`` that ends the command name. Such a read is retried, and
    the process counts as gone only when its directory is.
    """
    deadline = time.monotonic() + 10.0
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            stat = ""
        fields = stat[stat.rindex(")") + 2 :].split() if ")" in stat else []
        if len(fields) >= 2:
            return fields[0], int(fields[1])
        if not Path(f"/proc/{pid}").exists():
            return None
        assert time.monotonic() < deadline, f"/proc/{pid}/stat stays unparsable: {stat!r}"
        time.sleep(0.001)


def live_children(parent: int) -> list[int]:
    """Pids of the children of ``parent`` that have not exited, read from /proc.

    Empty where there is no /proc. A zombie (exited, not yet reaped) does not count.
    """
    out = []
    for entry in Path("/proc").glob("[0-9]*"):
        stat = proc_stat(int(entry.name))
        if stat is not None and stat[1] == parent and stat[0] != "Z":
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
