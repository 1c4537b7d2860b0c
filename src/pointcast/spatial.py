"""Dual-representation spatial learning.

One spatial block runs two parallel branches over the block input features:
a pointwise branch (multi-radius neighborhood MLPs with max pooling, no
point downsampling) and a voxel branch (point-to-voxel mean propagation,
a stack of submanifold sparse bottleneck blocks, and learnable
voxel-to-point interpolation). The branches fuse by column concatenation
through a final MLP, whose first linear map takes the two as column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
# radius_pairs lives beside the other lookups that plan_scene calls; it is
# re-exported so callers and span tracers keep finding it as spatial.radius_pairs
from .indexing import ScenePlan, radius_pairs  # noqa: F401


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
    radius_mlps: list            # one MLP per radius
    pointwise_out: list          # fuses per-radius outputs
    blocks: list                 # BottleneckParams stack
    interp_mlp: list             # distance embedding -> scalar logit
    fuse: list                   # concat(point, voxel) -> block output


def init_bottleneck(reg, name, c_in, c_mid, c_out, rng) -> BottleneckParams:
    reduce = nn.MLPLayer(
        nn.init_linear(reg, f"{name}/reduce", c_in, c_mid, rng),
        nn.init_norm(reg, f"{name}/reduce", c_mid),
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
    interp_mlp = nn.init_mlp(
        reg, f"{name}/interp", [2 + cfg.voxel_width, cfg.radius_width, 1], rng
    )
    fuse = nn.init_mlp(
        reg, f"{name}/fuse", [cfg.pointwise_width + cfg.voxel_width, cfg.spatial_width],
        rng, final_norm_act=True,
    )
    return SpatialParams(radius_mlps, pointwise_out, blocks, interp_mlp, fuse)


# ---------------------------------------------------------------------------
# forward ops


def pointwise_learning(plan: ScenePlan, feats: Tensor, params: SpatialParams) -> Tensor:
    """Multi-radius neighborhood feature learning; keeps all N points."""
    if not plan.neighborhoods:
        raise ValueError("pointwise_learning: empty radius list")
    if len(plan.neighborhoods) != len(params.radius_mlps):
        raise ValueError("pointwise_learning: plan and params have different radius counts")
    per_radius = []
    for (rel, by_center, by_neighbor), mlp in zip(plan.neighborhoods, params.radius_mlps):
        # the first layer on [feats[nbrs], rel] runs per point and is gathered per pair
        h = nn.apply_mlp(mlp, [(feats, by_neighbor), rel])
        per_radius.append(ad.scatter_max(h, by_center))
    return nn.apply_mlp(params.pointwise_out, per_radius)


def ftp_point_to_voxel(plan: ScenePlan, feats: Tensor) -> Tensor:
    """Scatter pointwise features into their voxels (``plan.voxel_coords`` rows) by mean."""
    return ad.scatter_mean(feats, plan.by_voxel)


def sparse_bottleneck(kernel_map, feats: Tensor, params: SpatialParams) -> Tensor:
    """Stacked submanifold bottleneck blocks over voxel rows; occupancy is preserved."""
    x = feats
    for block in params.blocks:
        h = nn.apply_mlp([block.reduce], x)
        h = ad.submanifold_conv(h, kernel_map, block.conv_w, block.conv_b)
        h = ad.norm_act(h, block.conv_norm.gain, block.conv_norm.bias, act=True)
        h = ad.linear(h, block.expand.w, block.expand.b)
        h = ad.norm_act(h, block.expand_norm.gain, block.expand_norm.bias, act=False)
        if block.skip is not None:
            s = ad.linear(x, block.skip.w, block.skip.b)
            s = ad.norm_act(s, block.skip_norm.gain, block.skip_norm.bias, act=False)
        else:
            s = x
        x = ad.relu(ad.add(h, s))
    return x


def interp_voxel_to_point(plan: ScenePlan, voxel_feats: Tensor, params: SpatialParams) -> Tensor:
    """Learnable interpolation from the <=4 nearest occupied voxels per point.

    Candidates are the 2x2 cell neighborhood whose centers surround the
    point's continuous position, filtered to occupied cells; the point's own
    voxel is always occupied and always among the four. An MLP on
    [offset-to-center, voxel feature] produces logits, softmaxed per point.
    """
    vox_feats = ad.gather_rows(voxel_feats, plan.interp_rows)
    logits = nn.apply_mlp(params.interp_mlp, [plan.interp_delta, vox_feats])

    weighted = ad.scale_rows(vox_feats, ad.segment_softmax(logits, plan.by_point))
    return ad.scatter_add_rows(weighted, plan.by_point)


def spatial_block(plan: ScenePlan, feats: Tensor, params: SpatialParams) -> Tensor:
    """Pointwise and voxelwise branches over the block input, fused by concat."""
    p = pointwise_learning(plan, feats, params)
    v = sparse_bottleneck(plan.kernel_map, ftp_point_to_voxel(plan, feats), params)
    v = interp_voxel_to_point(plan, v, params)
    return nn.apply_mlp(params.fuse, [p, v])
