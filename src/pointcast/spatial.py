"""Dual-representation spatial learning.

One spatial block runs two parallel branches over the block input features:
a pointwise branch (multi-radius neighborhood MLPs with max pooling, no
point downsampling) and a voxel branch (point-to-voxel mean propagation,
a stack of submanifold sparse bottleneck blocks, and learnable
voxel-to-point interpolation). The branches fuse by column concatenation
through a final MLP, whose first linear map takes the two as column blocks.
Every parameterized map but the bottleneck's 3x3 conv, its 1x1 maps included,
is an :class:`~pointcast.nn.Layer` run by :func:`~pointcast.nn.apply_mlp`.
Every step reads one stage's :class:`~pointcast.indexing.RowTables`: the
block computes that stage's rows and voxels alone, from the input rows and
voxels the tables name, so the same statements run every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
# radius_pairs lives beside the other lookups that plan_scene calls; it is
# re-exported so callers and span tracers keep finding it as spatial.radius_pairs
from .indexing import RowTables, radius_pairs  # noqa: F401


# ---------------------------------------------------------------------------
# parameters


@dataclass
class BottleneckParams:
    reduce: nn.Layer             # 1x1 in -> mid, norm and relu
    conv_w: list[Tensor]         # 9 taps, mid -> mid
    conv_b: Tensor
    conv_norm: nn.Norm
    expand: nn.Layer             # 1x1 mid -> out, norm without relu
    skip: nn.Layer | None        # 1x1 projection when widths differ, norm without relu


@dataclass
class SpatialParams:
    radius_mlps: list            # one MLP per radius
    pointwise_out: list          # fuses per-radius outputs
    blocks: list                 # BottleneckParams stack
    interp_mlp: list             # distance embedding -> scalar logit
    fuse: list                   # concat(point, voxel) -> block output


def init_bottleneck(reg, name, c_in, c_mid, c_out, rng) -> BottleneckParams:
    reduce = nn.init_layer(reg, f"{name}/reduce", c_in, c_mid, rng)
    bound = np.sqrt(6.0 / (9 * c_mid))
    conv_w = []
    for k in range(9):
        w = ad.parameter(rng.uniform(-bound, bound, size=(c_mid, c_mid)))
        reg[f"{name}/conv/w{k}"] = w
        conv_w.append(w)
    conv_b = ad.parameter(np.zeros((1, c_mid)))
    reg[f"{name}/conv/b"] = conv_b
    conv_norm = nn.init_norm(reg, f"{name}/conv", c_mid)
    expand = nn.init_layer(reg, f"{name}/expand", c_mid, c_out, rng, act=False)
    skip = None
    if c_in != c_out:
        skip = nn.init_layer(reg, f"{name}/skip", c_in, c_out, rng, act=False)
    return BottleneckParams(reduce, conv_w, conv_b, conv_norm, expand, skip)


def init_spatial(reg, name, c_in, cfg, rng) -> SpatialParams:
    radius_mlps = [
        nn.init_mlp(reg, f"{name}/pw/r{i}", [c_in + 2, cfg.radius_width, cfg.radius_width],
                    rng, final_norm_act=True)
        for i in range(len(cfg.radii))
    ]
    pointwise_out = nn.init_mlp(
        reg, f"{name}/pw/out", [cfg.radius_width * len(cfg.radii), cfg.pointwise_width],
        rng, final_norm_act=True,
    )
    mid = max(cfg.voxel_width // 2, 4)
    blocks = []
    c = c_in
    for b in range(cfg.bottleneck_blocks):
        blocks.append(init_bottleneck(reg, f"{name}/vox/b{b}", c, mid, cfg.voxel_width, rng))
        c = cfg.voxel_width
    # no last bias: it would shift every logit of a point's softmax alike
    interp_mlp = nn.init_mlp(
        reg, f"{name}/interp", [2 + cfg.voxel_width, cfg.radius_width, 1], rng, final_bias=False
    )
    fuse = nn.init_mlp(
        reg, f"{name}/fuse", [cfg.pointwise_width + cfg.voxel_width, cfg.spatial_width],
        rng, final_norm_act=True,
    )
    return SpatialParams(radius_mlps, pointwise_out, blocks, interp_mlp, fuse)


# ---------------------------------------------------------------------------
# forward ops


def _take(x: Tensor, rows) -> Tensor:
    """The rows ``rows`` of x, where None stands for every row."""
    return x if rows is None else ad.take_rows(x, rows)


def pointwise_learning(rows: RowTables, feats: Tensor, params: SpatialParams) -> Tensor:
    """Multi-radius neighborhood feature learning, one output row per row of ``rows``.

    ``feats`` is the block input, one row per plan row; each radius reads it
    only at its ``rows.neighbor_rows``.
    """
    if not rows.neighborhoods:
        raise ValueError("pointwise_learning: empty radius list")
    if len(rows.neighborhoods) != len(params.radius_mlps):
        raise ValueError("pointwise_learning: plan and params have different radius counts")
    per_radius = []
    for (rel, by_center, by_neighbor), nbrs, mlp in zip(rows.neighborhoods, rows.neighbor_rows,
                                                        params.radius_mlps):
        # the first layer on [x[nbrs], rel] runs per point and is gathered per pair
        h = nn.apply_mlp(mlp, [(_take(feats, nbrs), by_neighbor), rel])
        per_radius.append(ad.scatter_max(h, by_center))
    return nn.apply_mlp(params.pointwise_out, per_radius)


def ftp_point_to_voxel(rows: RowTables, feats: Tensor) -> Tensor:
    """Scatter the block input into the voxels ``rows.voxels`` by mean.

    ``feats`` has one row per input row, read only at ``rows.voxel_points``.
    """
    return ad.scatter_mean(_take(feats, rows.voxel_points), rows.by_voxel)


def sparse_bottleneck(kernel_map, feats: Tensor, params: SpatialParams) -> Tensor:
    """Stacked submanifold bottleneck blocks over voxel rows; occupancy is preserved."""
    x = feats
    for block in params.blocks:
        h = nn.apply_mlp([block.reduce], x)
        h = ad.submanifold_conv(h, kernel_map, block.conv_w, block.conv_b)
        h = ad.norm_act(h, block.conv_norm.gain, block.conv_norm.bias, act=True)
        h = nn.apply_mlp([block.expand], h)
        s = x if block.skip is None else nn.apply_mlp([block.skip], x)
        x = ad.relu(ad.add(h, s))
    return x


def interp_voxel_to_point(rows: RowTables, voxel_feats: Tensor, params: SpatialParams) -> Tensor:
    """Learnable interpolation from the <=4 nearest occupied voxels per point.

    Candidates are the 2x2 cell neighborhood whose centers surround the
    point's continuous position, filtered to occupied cells; the point's own
    voxel is always occupied and always among the four. An MLP on
    [offset-to-center, voxel feature] produces logits, softmaxed per point.
    ``voxel_feats`` has one row per voxel of ``rows.voxels``, read only at
    ``rows.voxel_rows``.
    """
    vox_feats = ad.gather_rows(_take(voxel_feats, rows.voxel_rows), rows.interp_rows)
    logits = nn.apply_mlp(params.interp_mlp, [rows.interp_delta, vox_feats])

    weighted = ad.scale_rows(vox_feats, ad.segment_softmax(logits, rows.by_point))
    return ad.scatter_add_rows(weighted, rows.by_point)


def spatial_block(rows: RowTables, feats: Tensor, params: SpatialParams) -> Tensor:
    """Pointwise and voxelwise branches over the block input, fused by concat.

    ``feats`` has one row per input row of the stage that ``rows`` plans,
    and the output one per row of ``rows``. The voxel branch computes the
    voxels ``rows.voxels``: every point in them is an input row, since a
    voxel mean reads them all.
    """
    p = pointwise_learning(rows, feats, params)
    v = sparse_bottleneck(rows.kernel_map, ftp_point_to_voxel(rows, feats), params)
    return nn.apply_mlp(params.fuse, [p, interp_voxel_to_point(rows, v, params)])
