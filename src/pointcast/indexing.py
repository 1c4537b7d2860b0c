"""Space mappings: Cartesian-to-voxel hashing and instance-time indexing.

Both index systems reduce to 64-bit hash keys (two signed 32-bit halves).
Every grouping operation materializes as a :class:`GroupTable`, a CSR
partition of the point set with dense, first-appearance-ordered group ids,
and every coordinate lookup goes through :func:`match_coords`, one sorted
key array probed by searchsorted.

:func:`index_scene` flattens a normalized scene into an
:class:`IndexedPointSet`, and :func:`plan_scene` turns that into a
:class:`ScenePlan`: the input embedding, the ground-truth future and every
index structure of the scene, in read-only arrays. The plan is the network's
whole per-scene input. It depends on the points alone, so a training run
without augmentation plans each scene once and reuses the plan at every
step. The heads read only the target agent's rows, so the plan holds one
:class:`RowTables` per stage, over the rows and voxels that can still reach
them: the stage's receptive field, computed backwards from the target. One
builder cuts each stage's tables from one radius search, at the largest
radius, whose pairs hold those of every smaller one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .scenes import Scene

if TYPE_CHECKING:
    from .network import ModelConfig

KIND_TARGET, KIND_OTHER, KIND_MAP = 0, 1, 2

# input embedding: [x, y, one-hot kind (3), time / history_steps]
EMBED_IN = 6

# 3x3 kernel tap order is fixed; the center tap is index 4
CONV_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
CENTER_TAP = CONV_OFFSETS.index((0, 0))
# the 2x2 cells whose centers surround a point, from its lower-left one
INTERP_CORNERS = [(0, 0), (0, 1), (1, 0), (1, 1)]

# pack_pair's components lie in (-KEY_RANGE, KEY_RANGE)
KEY_RANGE = 2**31


def pack_pair(a, b) -> np.ndarray:
    """Pack two signed 32-bit integer arrays into collision-free int64 keys."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if (np.abs(a) >= KEY_RANGE).any() or (np.abs(b) >= KEY_RANGE).any():
        raise ValueError("pair components exceed the signed 32-bit key range")
    return (a << 32) | (b & 0xFFFFFFFF)


def voxelize(points, grid_size: float) -> np.ndarray:
    """Map (N, 2) continuous coordinates to integer voxel indices, floor(p/s).

    The floor is mathematical (toward -inf), so negative coordinates land in
    negative cells.
    """
    if grid_size <= 0:
        raise ValueError("grid_size must be positive")
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite point coordinate")
    return np.floor(points / grid_size).astype(np.int64)


@dataclass
class IndexedPointSet:
    """Flat point array with per-point instance-time and voxel indices."""

    points: np.ndarray    # (N, 2) float64, meters
    instance: np.ndarray  # (N,) int64, dense instance id
    time: np.ndarray      # (N,) int64, history step; 0 for map points
    voxels: np.ndarray    # (N, 2) int64
    kind: np.ndarray      # (N,) int64, KIND_* codes
    grid_size: float
    scene_id: str = ""
    future: np.ndarray | None = None  # (T, 2) ground truth, when the scene has one

    def __len__(self):
        return len(self.points)


def match_coords(coords, probes) -> tuple[np.ndarray, np.ndarray]:
    """All (probe, row) pairs with ``coords[row] == probes[probe]``.

    ``coords`` (M, 2) and ``probes`` (P, 2) hold integer pairs. The packed
    coordinate keys are sorted once and each probe is one searchsorted range,
    so duplicate coordinates all match. Pairs come out probe-major, with rows
    ascending within a probe.
    """
    keys = pack_pair(coords[:, 0], coords[:, 1])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    probe_keys = pack_pair(probes[:, 0], probes[:, 1])
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    lens = np.searchsorted(sorted_keys, probe_keys, side="right") - lo
    probe = np.repeat(np.arange(len(probe_keys), dtype=np.int64), lens)
    # expand every [lo, lo + len) run into flat positions over the sorted order
    run_start = np.cumsum(lens) - lens
    rows = order[np.repeat(lo - run_start, lens) + np.arange(len(probe))]
    return probe, rows


def radius_pairs(points, radius: float):
    """All (center, neighbor) pairs within ``radius`` (inclusive), self included.

    Bucketed by hashing points into cells of size ``radius`` and probing the
    3x3 cell neighborhood through :func:`match_coords`; pairs come out sorted
    by (center, neighbor).
    """
    points = np.asarray(points, dtype=np.float64)
    cells = np.floor(points / radius).astype(np.int64)
    probes = (cells[:, None, :] + np.asarray(CONV_OFFSETS)).reshape(-1, 2)  # center-major
    probe, cand = match_coords(cells, probes)
    centers = probe // len(CONV_OFFSETS)
    d = points[cand] - points[centers]
    keep = (d * d).sum(axis=1) <= radius * radius
    centers, cand = centers[keep], cand[keep]
    by_center_then_neighbor = np.lexsort((cand, centers))
    return centers[by_center_then_neighbor], cand[by_center_then_neighbor]


def kernel_map(coords):
    """Per-tap (out_row, in_row) lists for the 3x3 submanifold convolution.

    Tap k pairs each occupied voxel with the occupied voxel at its coordinate
    plus ``CONV_OFFSETS[k]``, out rows ascending. The center tap is the
    identity pairing and is given as None.
    """
    taps = np.asarray(CONV_OFFSETS)
    probe, ins = match_coords(coords, (coords + taps[:, None, :]).reshape(-1, 2))
    tap, outs = np.divmod(probe, len(coords))  # probes are tap-major
    bounds = np.searchsorted(tap, np.arange(len(taps) + 1))
    pairs = [(outs[lo:hi], ins[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    pairs[CENTER_TAP] = None
    return pairs


def interp_candidates(coords, points, grid_size: float):
    """(point, voxel row) pairs over the occupied 2x2 cells around each point, point-major."""
    base = np.floor(points / grid_size - 0.5).astype(np.int64)
    probes = (base[:, None, :] + np.asarray(INTERP_CORNERS)).reshape(-1, 2)
    probe, cand_row = match_coords(coords, probes)
    return probe // len(INTERP_CORNERS), cand_row


@dataclass
class GroupTable:
    """A partition of [0, N) into dense, non-empty groups, stored as CSR.

    Group g holds rows ``order[offsets[g]:offsets[g + 1]]``, ascending.
    """

    n_groups: int
    group_of: np.ndarray  # (N,) int64
    order: np.ndarray     # (N,) int64, rows sorted by group
    offsets: np.ndarray   # (n_groups + 1,) int64, segment bounds into order

    @classmethod
    def from_group_of(cls, group_of, n_groups: int) -> GroupTable:
        """The table of dense group ids ``group_of``; each id in [0, n_groups) must occur."""
        group_of = np.asarray(group_of, dtype=np.int64)
        offsets = np.zeros(n_groups + 1, dtype=np.int64)
        np.bincount(group_of, minlength=n_groups).cumsum(out=offsets[1:])
        return cls(n_groups, group_of, group_of.argsort(kind="stable"), offsets)

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def group_by_keys(keys) -> GroupTable:
    """Build a GroupTable from arbitrary int64 keys.

    Group ids are assigned in order of first appearance over the point index,
    so the table is deterministic and permutation-covariant.
    """
    # return_index sorts stably, so ``first`` is each key's first occurrence
    keys = np.asarray(keys, dtype=np.int64)
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # group id = rank of the first occurrence
    return GroupTable.from_group_of(rank[inv], len(first))


def build_groups_by_voxel(ps: IndexedPointSet) -> GroupTable:
    """Points sharing a voxel index share a group."""
    return group_by_keys(pack_pair(ps.voxels[:, 0], ps.voxels[:, 1]))


def regroup_by_interval(ps: IndexedPointSet, interval: int) -> GroupTable:
    """Group by (instance, floor(time / interval)).

    Map points carry time 0, so each map instance collapses into one group
    regardless of the interval.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    return group_by_keys(pack_pair(ps.instance, ps.time // interval))


def build_groups_by_instance(ps: IndexedPointSet) -> GroupTable:
    """One group per distinct instance id."""
    return group_by_keys(ps.instance)


def index_scene(scene: Scene, grid_size: float) -> IndexedPointSet:
    """Flatten a normalized scene into an IndexedPointSet.

    Agent instances come first (in scene order) followed by map instances;
    agent points carry their history step as the time index, map points time 0.
    """
    pts, ins, tim, kind = [], [], [], []
    for a in scene.agents:
        ins.append(np.full(len(a.xy), len(pts), dtype=np.int64))
        pts.append(a.xy)
        tim.append(a.steps.astype(np.int64))
        k = KIND_TARGET if a.track_id == scene.target_id else KIND_OTHER
        kind.append(np.full(len(a.xy), k, dtype=np.int64))
    for m in scene.map_elements:
        ins.append(np.full(len(m.xy), len(pts), dtype=np.int64))
        pts.append(m.xy)
        tim.append(np.zeros(len(m.xy), dtype=np.int64))
        kind.append(np.full(len(m.xy), KIND_MAP, dtype=np.int64))
    kinds = np.concatenate(kind)
    if not np.any(kinds == KIND_TARGET):
        raise ValueError(f"target agent {scene.target_id!r} not present")

    points = np.concatenate(pts, axis=0)
    instance = np.concatenate(ins)
    time = np.concatenate(tim)

    agent_mask = kinds != KIND_MAP
    it_keys = pack_pair(instance[agent_mask], time[agent_mask])
    if len(np.unique(it_keys)) != int(agent_mask.sum()):
        raise ValueError("duplicate (instance, time) pair among agent points")

    return IndexedPointSet(
        points=points,
        instance=instance,
        time=time,
        voxels=voxelize(points, grid_size),
        kind=kinds,
        grid_size=grid_size,
        scene_id=scene.scene_id,
        future=scene.future,
    )


def point_embedding(ps: IndexedPointSet, history_steps: int) -> np.ndarray:
    """The (N, EMBED_IN) network input: position, one-hot kind and normalized time."""
    onehot = np.zeros((len(ps), 3))
    onehot[np.arange(len(ps)), ps.kind] = 1.0
    t_norm = ps.time.astype(np.float64)[:, None] / float(history_steps)
    return np.hstack([ps.points, onehot, t_norm])


@dataclass(frozen=True)
class RowTables:
    """What one stage computes: its rows ``rows``, and every table its blocks read.

    A plan holds one per stage, over that stage's receptive field. The
    stage reads its input rows: the previous stage's ``rows``, or the plan's
    ``input_rows`` at stage 0. Pairs, candidates and groups keep the plan's
    order. Centers and points are numbered by position in ``rows``;
    neighbors and voxel points by position in the input rows, at
    ``neighbor_rows`` and ``voxel_points``; candidate voxels and kernel-map
    pairs by position in ``voxels``, the former at ``voxel_rows``. None stands
    for all of them. No group is empty.
    """

    rows: np.ndarray          # (M,) plan rows, ascending
    neighborhoods: tuple      # per radius: (offsets from center, by-center table,
                              #   by-neighbor table)
    neighbor_rows: tuple      # per radius: the input rows the by-neighbor table groups by
    voxels: np.ndarray        # (V,) the plan voxels the voxel branch computes, ascending
    voxel_points: np.ndarray | None  # the input rows in those voxels, ascending
    by_voxel: GroupTable      # voxel_points grouped by voxel
    kernel_map: list          # per 3x3 tap: (out, in) pairs within voxels; None at the center tap
    voxel_rows: np.ndarray | None  # the voxels that interp_rows groups by
    interp_rows: GroupTable   # the (point, voxel) interpolation candidates grouped by voxel
    interp_delta: np.ndarray  # (Q, 2) candidate point minus its voxel's center
    by_point: GroupTable      # the candidates grouped by point
    by_interval: tuple        # GroupTable per interval
    by_instance: GroupTable


@dataclass(frozen=True)
class ScenePlan:
    """Everything the network reads of one scene, built once and read-only.

    The point set never changes between stages, so its topology (the rulebook
    of submanifold sparse convolution) belongs to the scene, not the layer.
    The heads read only the target agent's rows, and each stage widens what
    a row sees by a bounded amount, so each stage computes only the rows
    that can reach the target: ``stages`` holds one :class:`RowTables` per
    stage, the last over the target rows. That is exact, because the
    temporal block works within each instance, every norm within a row and
    the voxel branch within its kernel-map hops; the kept rows differ from
    stages over every row only by BLAS rounding.
    """

    scene_id: str
    future: np.ndarray | None  # (T, 2) ground truth, or None
    input_rows: np.ndarray     # (N0,) the plan rows that stage 0 reads, ascending
    embedding: np.ndarray      # (N0, EMBED_IN) network input at input_rows, see point_embedding
    voxel_coords: np.ndarray   # (G, 2) int64, the coordinate of each plan voxel, distinct
    stages: tuple              # RowTables per stage, from the first


def _read_only(x):
    """Mark every array in table, tuple or list ``x``, its items and its nested tables read-only.

    Only containers are walked: a scalar or None costs two type tests.
    """
    for v in (x if isinstance(x, (tuple, list)) else vars(x).values()):
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
        elif isinstance(v, (tuple, list, GroupTable, RowTables)):
            _read_only(v)


class _Topology(NamedTuple):
    """A scene's topology over every row: what the receptive fields and the tables are cut from.

    ``centers``, ``nbrs``, ``rel`` and ``dist2`` are the largest radius's
    (center, neighbor, offset, squared length) pairs; radius r keeps those
    with ``dist2 <= r * r``, the test :func:`radius_pairs` applies to the
    same offsets. ``cand_*`` are the interpolation candidates' point, voxel
    and offset from the voxel's center.
    """

    radii: tuple
    centers: np.ndarray
    nbrs: np.ndarray
    rel: np.ndarray
    dist2: np.ndarray
    by_voxel: GroupTable      # every row grouped by voxel
    coords: np.ndarray        # (G, 2) the voxel of each group
    kernel_map: list          # over every voxel
    cand_point: np.ndarray
    cand_row: np.ndarray
    cand_delta: np.ndarray
    groups: tuple             # the interval tables, then the instance table


def _topology(ps: IndexedPointSet, cfg: ModelConfig) -> _Topology:
    """The topology of ``ps`` for ``cfg``, from one radius search at the largest radius."""
    by_voxel = build_groups_by_voxel(ps)
    coords = ps.voxels[by_voxel.order[by_voxel.offsets[:-1]]]
    centers, nbrs = radius_pairs(ps.points, max(cfg.radii))
    rel = ps.points[nbrs] - ps.points[centers]
    cand_point, cand_row = interp_candidates(coords, ps.points, ps.grid_size)
    delta = ps.points[cand_point] - (coords[cand_row] + 0.5) * ps.grid_size
    groups = (*(regroup_by_interval(ps, t) for t in cfg.intervals), build_groups_by_instance(ps))
    return _Topology(cfg.radii, centers, nbrs, rel, (rel * rel).sum(axis=1), by_voxel, coords,
                     kernel_map(coords), cand_point, cand_row, delta, groups)


def _receptive_fields(top: _Topology, target, n_stages: int, hops: int) -> list:
    """Per stage, from the first, its ``(rows, inputs, voxels)`` masks.

    The last stage keeps the ``target`` rows. A stage's voxels are its
    rows' interpolation candidates and every voxel within ``hops`` kernel-map
    hops of them: each submanifold convolution keeps its active set and
    reads one hop further. A stage reads the radius neighbors of its rows
    and every point in its voxels; the stage before it keeps the instance
    closure of those, for its temporal block, and stage 0 reads them as they
    are, because the embedding works within a row. Once the rows read only
    themselves, the field stops growing: every stage before repeats the same
    field, as the same tuple.
    """
    instance = top.groups[-1]
    rows, fields = target, []
    for _ in range(n_stages):
        voxels = np.zeros(top.by_voxel.n_groups, dtype=bool)
        voxels[top.cand_row[rows[top.cand_point]]] = True
        for _ in range(hops):
            reached = voxels.copy()
            for pair in top.kernel_map:
                if pair is not None:  # the map holds each pair both ways round
                    reached[pair[1][voxels[pair[0]]]] = True
            voxels = reached
        reads = voxels[top.by_voxel.group_of]
        reads[top.nbrs[rows[top.centers]]] = True
        closed = np.zeros(instance.n_groups, dtype=bool)
        closed[instance.group_of[reads]] = True
        wider = closed[instance.group_of]
        if np.array_equal(wider, rows):
            return [(rows, rows, voxels)] * (n_stages - len(fields)) + fields[::-1]
        fields.append((rows, wider, voxels))
        rows = wider
    fields[-1] = fields[-1][0], reads, fields[-1][2]
    return fields[::-1]


def _row_tables(top: _Topology, rows, inputs, voxels) -> RowTables:
    """The RowTables of the row mask ``rows``, reading the rows ``inputs`` and the voxels ``voxels``.

    ``inputs`` must hold every radius neighbor of ``rows`` and every point in
    ``voxels``, and ``voxels`` every interpolation candidate of ``rows``.
    ``rows`` must be a union of whole instances: that is what makes the
    temporal block exact on them.
    """
    row_ids = rows.nonzero()[0]
    pos, in_pos, vox_pos = (mask.cumsum() - 1 for mask in (rows, inputs, voxels))
    m, n_in, n_vox = len(row_ids), int(in_pos[-1]) + 1, int(vox_pos[-1]) + 1

    def grouped(ids, n_ids):
        """The table of ``ids`` in [0, n_ids), and the ids its groups stand for (None: all)."""
        seen = np.zeros(n_ids, dtype=bool)
        seen[ids] = True
        if seen.all():
            return GroupTable.from_group_of(ids, n_ids), None
        values = seen.nonzero()[0]
        return GroupTable.from_group_of((seen.cumsum() - 1)[ids], len(values)), values

    # pairs are sorted by center, so the kept ones stay in the plan's order
    near = rows[top.centers].nonzero()[0]
    points = voxels[top.by_voxel.group_of].nonzero()[0]
    cands = rows[top.cand_point].nonzero()[0]
    if not (inputs[top.nbrs[near]].all() and inputs[points].all()
            and voxels[top.cand_row[cands]].all()):
        raise ValueError("the stage's inputs miss a row or voxel that its rows read")
    nbhds, neighbor_rows = [], []
    for radius in top.radii:
        pairs = near[top.dist2[near] <= radius * radius]
        by_neighbor, nbr_rows = grouped(in_pos[top.nbrs[pairs]], n_in)
        nbhds.append((top.rel[pairs], GroupTable.from_group_of(pos[top.centers[pairs]], m),
                      by_neighbor))
        neighbor_rows.append(nbr_rows)
    kmap = []
    for pair in top.kernel_map:
        if pair is not None:
            kept = (voxels[pair[0]] & voxels[pair[1]]).nonzero()[0]
            pair = vox_pos[pair[0][kept]], vox_pos[pair[1][kept]]
        kmap.append(pair)
    interp_rows, voxel_rows = grouped(vox_pos[top.cand_row[cands]], n_vox)
    groups = [grouped(table.group_of[row_ids], table.n_groups) for table in top.groups]
    # the intervals split instances, so whole instances are whole interval groups too
    sizes, instances = top.groups[-1].counts(), groups[-1][1]
    if (sizes if instances is None else sizes[instances]).sum() != m:
        raise ValueError("the kept rows share a group with other rows")
    groups = [table for table, _ in groups]
    tables = RowTables(
        rows=row_ids, neighborhoods=tuple(nbhds), neighbor_rows=tuple(neighbor_rows),
        voxels=voxels.nonzero()[0], voxel_points=None if len(points) == n_in else in_pos[points],
        by_voxel=GroupTable.from_group_of(vox_pos[top.by_voxel.group_of[points]], n_vox),
        kernel_map=kmap, voxel_rows=voxel_rows, interp_rows=interp_rows,
        interp_delta=top.cand_delta[cands],
        by_point=GroupTable.from_group_of(pos[top.cand_point[cands]], m),
        by_interval=tuple(groups[:-1]), by_instance=groups[-1])
    _read_only(tables)
    return tables


def plan_scene(ps: IndexedPointSet, cfg: ModelConfig) -> ScenePlan:
    """Build the ScenePlan of ``ps`` for ``cfg``'s radii, intervals, stages, bottleneck blocks
    and history length.

    Every array of the plan is read-only, so a plan can be shared between
    training steps.
    """
    top = _topology(ps, cfg)
    fields = _receptive_fields(top, ps.kind == KIND_TARGET, cfg.n_stages, cfg.bottleneck_blocks)
    stages = []
    for i, field in enumerate(fields):
        stages.append(stages[-1] if i and field is fields[i - 1] else _row_tables(top, *field))
    input_rows = np.flatnonzero(fields[0][1])
    # a copy, so that marking it read-only leaves the scene's own array alone
    future = None if ps.future is None else np.array(ps.future, dtype=np.float64)
    embedding = point_embedding(ps, cfg.history_steps)[input_rows]
    _read_only([future, input_rows, embedding, top.coords])
    return ScenePlan(scene_id=ps.scene_id, future=future, input_rows=input_rows,
                     embedding=embedding, voxel_coords=top.coords, stages=tuple(stages))
