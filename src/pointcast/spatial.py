"""Dual-representation spatial learning.

One spatial block runs two parallel branches over the block input features:
a pointwise branch (multi-radius neighborhood MLPs with max pooling, no
point downsampling) and a voxel branch (point-to-voxel mean propagation,
a stack of submanifold sparse bottleneck blocks, and learnable
voxel-to-point interpolation). The branches fuse by column concatenation
through a final MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .indexing import GroupTable, IndexedPointSet, build_groups_by_voxel, match_coords

# 3x3 kernel tap order is fixed; the center tap is index 4
CONV_OFFSETS = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
CENTER_TAP = CONV_OFFSETS.index((0, 0))
# the 2x2 cells whose centers surround a point, from its lower-left one
INTERP_CORNERS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@dataclass
class SparseGrid:
    """Occupied voxel coordinates with one feature row each."""

    coords: np.ndarray  # (G, 2) int64, distinct
    feats: Tensor       # (G, C)
    grid_size: float


# ---------------------------------------------------------------------------
# neighborhood search


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


# ---------------------------------------------------------------------------
# parameters


@dataclass
class BottleneckParams:
    reduce: nn.MLPLayer          # 1x1 in -> mid
    conv_w: list[Tensor]         # 9 taps, mid -> mid
    conv_b: Tensor
    conv_norm: nn.Norm
    expand: nn.Linear            # 1x1 mid -> out
    expand_norm: nn.Norm
    skip: nn.Linear | None       # 1x1 projection when widths differ
    skip_norm: nn.Norm | None


@dataclass
class SpatialParams:
    radii: tuple
    radius_mlps: list            # one MLP per radius
    pointwise_out: list          # fuses per-radius outputs
    blocks: list                 # BottleneckParams stack
    interp_mlp: list             # distance embedding -> scalar logit
    fuse: list                   # concat(point, voxel) -> block output


def init_bottleneck(reg, name, c_in, c_mid, c_out, rng) -> BottleneckParams:
    reduce = nn.MLPLayer(
        nn.init_linear(reg, f"{name}/reduce", c_in, c_mid, rng),
        nn.init_norm(reg, f"{name}/reduce", c_mid),
        act=True,
    )
    bound = np.sqrt(6.0 / (9 * c_mid))
    conv_w = []
    for k in range(9):
        w = ad.parameter(rng.uniform(-bound, bound, size=(c_mid, c_mid)))
        reg[f"{name}/conv/w{k}"] = w
        conv_w.append(w)
    conv_b = ad.parameter(np.zeros((1, c_mid)))
    reg[f"{name}/conv/b"] = conv_b
    conv_norm = nn.init_norm(reg, f"{name}/conv", c_mid)
    expand = nn.init_linear(reg, f"{name}/expand", c_mid, c_out, rng)
    expand_norm = nn.init_norm(reg, f"{name}/expand", c_out)
    if c_in != c_out:
        skip = nn.init_linear(reg, f"{name}/skip", c_in, c_out, rng)
        skip_norm = nn.init_norm(reg, f"{name}/skip", c_out)
    else:
        skip, skip_norm = None, None
    return BottleneckParams(reduce, conv_w, conv_b, conv_norm, expand, expand_norm, skip, skip_norm)


def init_spatial(reg, name, c_in, cfg, rng) -> SpatialParams:
    radius_mlps = [
        nn.init_mlp(reg, f"{name}/pw/r{i}", [c_in + 2, cfg.radius_width, cfg.radius_width],
                    rng, final_norm=True, final_act=True)
        for i in range(len(cfg.radii))
    ]
    pointwise_out = nn.init_mlp(
        reg, f"{name}/pw/out", [cfg.radius_width * len(cfg.radii), cfg.pointwise_width],
        rng, final_norm=True, final_act=True,
    )
    mid = max(cfg.voxel_width // 2, 4)
    blocks = []
    c = c_in
    for b in range(cfg.bottleneck_blocks):
        blocks.append(init_bottleneck(reg, f"{name}/vox/b{b}", c, mid, cfg.voxel_width, rng))
        c = cfg.voxel_width
    interp_mlp = nn.init_mlp(
        reg, f"{name}/interp", [2 + cfg.voxel_width, cfg.radius_width, 1], rng
    )
    fuse = nn.init_mlp(
        reg, f"{name}/fuse", [cfg.pointwise_width + cfg.voxel_width, cfg.spatial_width],
        rng, final_norm=True, final_act=True,
    )
    return SpatialParams(tuple(cfg.radii), radius_mlps, pointwise_out, blocks, interp_mlp, fuse)


# ---------------------------------------------------------------------------
# forward ops


def pointwise_learning(ps: IndexedPointSet, feats: Tensor, params: SpatialParams) -> Tensor:
    """Multi-radius neighborhood feature learning; keeps all N points."""
    if not params.radii:
        raise ValueError("pointwise_learning: empty radius list")
    per_radius = []
    for radius, mlp in zip(params.radii, params.radius_mlps):
        centers, nbrs = radius_pairs(ps.points, radius)
        rel = ps.points[nbrs] - ps.points[centers]
        pair_feats = ad.concat_cols(ad.gather_rows(feats, nbrs), ad.constant(rel))
        h = nn.apply_mlp(mlp, pair_feats)
        # every point pairs with itself, so group ids are point indices
        per_radius.append(ad.scatter_max(h, GroupTable.from_group_of(centers, len(ps))))
    return nn.apply_mlp(params.pointwise_out, ad.concat_cols_all(per_radius))


def ftp_point_to_voxel(ps: IndexedPointSet, feats: Tensor, groups: GroupTable | None = None) -> SparseGrid:
    """Scatter pointwise features into their voxels, reducing by mean."""
    if groups is None:
        groups = build_groups_by_voxel(ps)
    coords = ps.voxels[groups.order[groups.offsets[:-1]]]
    return SparseGrid(coords=coords, feats=ad.scatter_mean(feats, groups), grid_size=ps.grid_size)


def _conv_pairs(grid: SparseGrid):
    """Per-tap (out_row, in_row) lists for the 3x3 submanifold convolution.

    This is the kernel map: tap k pairs each occupied voxel with the occupied
    voxel at its coordinate plus ``CONV_OFFSETS[k]``, out rows ascending. The
    center tap is the identity pairing and is given as None.
    """
    taps = np.asarray(CONV_OFFSETS)
    probe, ins = match_coords(grid.coords, (grid.coords + taps[:, None, :]).reshape(-1, 2))
    tap, outs = np.divmod(probe, len(grid.coords))  # probes are tap-major
    bounds = np.searchsorted(tap, np.arange(len(taps) + 1))
    pairs = [(outs[lo:hi], ins[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    pairs[CENTER_TAP] = None
    return pairs


def _submanifold_conv(x: Tensor, pairs, block: BottleneckParams) -> Tensor:
    n_rows = x.data.shape[0]
    # the center tap touches every occupied voxel, so it carries the bias
    out = ad.linear(x, block.conv_w[CENTER_TAP], block.conv_b)
    for tap, pair in zip(block.conv_w, pairs):
        if pair is None:
            continue
        outs, ins = pair
        if len(outs) == 0:
            continue
        contrib = ad.linear(ad.gather_rows(x, ins), tap)
        out = ad.add(out, ad.scatter_add_rows(contrib, outs, n_rows))
    return out


def sparse_bottleneck(grid: SparseGrid, params: SpatialParams) -> SparseGrid:
    """Stacked submanifold bottleneck blocks; occupancy is preserved."""
    pairs = _conv_pairs(grid)
    for block in params.blocks:
        x = grid.feats
        h = nn.apply_mlp([block.reduce], x)
        h = _submanifold_conv(h, pairs, block)
        h = ad.relu(ad.layer_norm(h, block.conv_norm.gain, block.conv_norm.bias))
        h = ad.linear(h, block.expand.w, block.expand.b)
        h = ad.layer_norm(h, block.expand_norm.gain, block.expand_norm.bias)
        if block.skip is not None:
            s = ad.linear(x, block.skip.w, block.skip.b)
            s = ad.layer_norm(s, block.skip_norm.gain, block.skip_norm.bias)
        else:
            s = x
        grid = SparseGrid(grid.coords, ad.relu(ad.add(h, s)), grid.grid_size)
    return grid


def interp_voxel_to_point(grid: SparseGrid, ps: IndexedPointSet, params: SpatialParams) -> Tensor:
    """Learnable interpolation from the <=4 nearest occupied voxels per point.

    Candidates are the 2x2 cell neighborhood whose centers surround the
    point's continuous position, filtered to occupied cells; the point's own
    voxel is always occupied and always among the four. An MLP on
    [offset-to-center, voxel feature] produces logits, softmaxed per point.
    """
    cand_point, cand_row = _interp_candidates(grid, ps.points)
    centers = (grid.coords[cand_row] + 0.5) * grid.grid_size
    delta = ps.points[cand_point] - centers
    vox_feats = ad.gather_rows(grid.feats, cand_row)
    logits = nn.apply_mlp(params.interp_mlp, ad.concat_cols(ad.constant(delta), vox_feats))

    groups = GroupTable.from_group_of(cand_point, len(ps))
    counts = ad.constant(groups.counts().astype(np.float64)[:, None])
    m = ad.scatter_max(logits, groups)
    z = ad.exp(ad.sub(logits, ad.gather_rows(m, groups.group_of)))
    denom = ad.mul(ad.scatter_mean(z, groups), counts)  # segment sum
    w = ad.div(z, ad.gather_rows(denom, groups.group_of))
    weighted = ad.scale_rows(vox_feats, w)
    return ad.mul(ad.scatter_mean(weighted, groups), _tile_cols(counts, weighted.data.shape[1]))


def _interp_candidates(grid: SparseGrid, points):
    """(point, voxel row) pairs over the occupied 2x2 cells around each point, point-major."""
    base = np.floor(points / grid.grid_size - 0.5).astype(np.int64)
    probes = (base[:, None, :] + np.asarray(INTERP_CORNERS)).reshape(-1, 2)
    probe, cand_row = match_coords(grid.coords, probes)
    return probe // len(INTERP_CORNERS), cand_row


def _tile_cols(col: Tensor, n_cols: int) -> Tensor:
    return ad.constant(np.repeat(col.data, n_cols, axis=1))


def spatial_block(ps: IndexedPointSet, feats: Tensor, params: SpatialParams) -> Tensor:
    """Pointwise and voxelwise branches over the block input, fused by concat."""
    p = pointwise_learning(ps, feats, params)
    grid = sparse_bottleneck(ftp_point_to_voxel(ps, feats), params)
    v = interp_voxel_to_point(grid, ps, params)
    return nn.apply_mlp(params.fuse, ad.concat_cols(p, v))
