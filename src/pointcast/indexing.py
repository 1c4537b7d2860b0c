"""Space mappings: Cartesian-to-voxel hashing and instance-time indexing.

Both index systems reduce to 64-bit hash keys (two signed 32-bit halves).
Every grouping operation materializes as a :class:`GroupTable`, a CSR
partition of the point set with dense, first-appearance-ordered group ids,
and every coordinate lookup goes through :func:`match_coords`, one sorted
key array probed by searchsorted.

:func:`index_scene` flattens a normalized scene into an
:class:`IndexedPointSet`, and :func:`plan_scene` turns that into a
:class:`ScenePlan`: the point embedding, the target rows, the ground-truth
future and every index structure of the scene, in read-only arrays. The plan
is the network's whole per-scene input. It depends on the points alone, so a
training run without augmentation plans each scene once and reuses the plan
at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import TYPE_CHECKING

import numpy as np

from .scenes import NormalizedScene

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

_I32_MAX = 2**31


def pack_pair(a, b) -> np.ndarray:
    """Pack two signed 32-bit integer arrays into collision-free int64 keys."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if np.any(np.abs(a) >= _I32_MAX) or np.any(np.abs(b) >= _I32_MAX):
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
        np.cumsum(np.bincount(group_of, minlength=n_groups), out=offsets[1:])
        return cls(n_groups, group_of, np.argsort(group_of, kind="stable"), offsets)

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def members(self) -> list[np.ndarray]:
        """Group id -> ascending rows: a per-group view for inspection, not for hot paths."""
        return [self.order[a:b] for a, b in zip(self.offsets[:-1], self.offsets[1:])]


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


def index_scene(scene: NormalizedScene, grid_size: float) -> IndexedPointSet:
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
class ScenePlan:
    """Everything the network reads of one scene, built once and read-only.

    The point set never changes between stages, so its topology (the rulebook
    of submanifold sparse convolution) belongs to the scene, not the layer.
    """

    scene_id: str
    future: np.ndarray | None  # (T, 2) ground truth, or None
    embedding: np.ndarray      # (N, EMBED_IN) network input, see point_embedding
    target_rows: np.ndarray    # rows of the target agent, pooled by the heads
    neighborhoods: tuple       # per radius: (offsets from center, by-center table,
                               #   by-neighbor table)
    by_voxel: GroupTable
    voxel_coords: np.ndarray   # (G, 2) int64, voxel of each group, distinct
    kernel_map: list           # per 3x3 tap: (out_row, in_row) voxel pairs; None at the center tap
    interp_rows: GroupTable    # the (point, voxel) interpolation candidates grouped by voxel row
    interp_delta: np.ndarray   # (Q, 2) candidate point minus its voxel's center
    by_point: GroupTable       # the candidates grouped by point
    by_interval: tuple         # GroupTable per interval
    by_instance: GroupTable


def _read_only(x):
    """Mark every array in ``x``, its items and its dataclass fields non-writeable."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, list)):
        for item in x:
            _read_only(item)
    elif is_dataclass(x):
        _read_only(list(vars(x).values()))


def plan_scene(ps: IndexedPointSet, cfg: ModelConfig) -> ScenePlan:
    """Build the ScenePlan of ``ps`` for the radii, intervals and history length of ``cfg``.

    Every array of the plan is read-only, so a plan can be shared between
    training steps.
    """
    neighborhoods = []
    for radius in cfg.radii:
        centers, rows = radius_pairs(ps.points, radius)
        # every point pairs with itself, so both tables' group ids are point indices
        by_center = GroupTable.from_group_of(centers, len(ps))
        by_neighbor = GroupTable.from_group_of(rows, len(ps))
        neighborhoods.append((ps.points[rows] - ps.points[centers], by_center, by_neighbor))
    by_voxel = build_groups_by_voxel(ps)
    coords = ps.voxels[by_voxel.order[by_voxel.offsets[:-1]]]
    cand_point, cand_row = interp_candidates(coords, ps.points, ps.grid_size)
    plan = ScenePlan(
        scene_id=ps.scene_id,
        # a copy, so that marking it read-only leaves the scene's own array alone
        future=None if ps.future is None else np.array(ps.future, dtype=np.float64),
        embedding=point_embedding(ps, cfg.history_steps),
        target_rows=np.flatnonzero(ps.kind == KIND_TARGET),
        neighborhoods=tuple(neighborhoods),
        by_voxel=by_voxel,
        voxel_coords=coords,
        kernel_map=kernel_map(coords),
        # every voxel is a candidate of its own points, so no group is empty
        interp_rows=GroupTable.from_group_of(cand_row, len(coords)),
        interp_delta=ps.points[cand_point] - (coords[cand_row] + 0.5) * ps.grid_size,
        by_point=GroupTable.from_group_of(cand_point, len(ps)),
        by_interval=tuple(regroup_by_interval(ps, t) for t in cfg.intervals),
        by_instance=build_groups_by_instance(ps),
    )
    _read_only(plan)
    return plan
