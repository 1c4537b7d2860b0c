#!/usr/bin/env python3
"""The dual-representation spatial block, branch by branch.

Builds the scene's plan (every neighborhood, voxel group and kernel map,
once), then walks feature maps through pointwise neighborhood learning,
point-to-voxel mean propagation, the submanifold bottleneck stack, and
learnable voxel-to-point interpolation.
"""

import numpy as np

from pointcast import ModelConfig, autodiff as ad, gen_synthetic, index_scene, normalize, plan_scene
from pointcast.spatial import (
    ftp_point_to_voxel,
    init_spatial,
    interp_voxel_to_point,
    pointwise_learning,
    sparse_bottleneck,
    spatial_block,
)

cfg = ModelConfig(
    n_stages=1, radii=(0.4, 0.8, 1.6), grid_size=0.4,
    embed_width=8, radius_width=8, pointwise_width=16,
    voxel_width=16, spatial_width=32, interval_width=8,
    temporal_width=16, head_width=16,
)
scene = normalize(gen_synthetic(1, seed=3, profile="lane-change")[0])
ps = index_scene(scene, cfg.grid_size)
plan = plan_scene(ps, cfg)
pairs = {r: len(rel) for r, (rel, _, _) in zip(cfg.radii, plan.neighborhoods)}
print(f"plan: radius pairs {pairs}, {len(plan.voxel_coords)} voxels, "
      f"{sum(len(p[0]) for p in plan.kernel_map if p is not None)} off-center kernel pairs")
feats = ad.constant(np.random.default_rng(1).normal(size=(len(ps), cfg.embed_width)))

params = init_spatial({}, "demo", cfg.embed_width, cfg, np.random.default_rng(2))

p = pointwise_learning(plan, feats, params)
print(f"pointwise branch: {feats.shape} -> {p.shape} (all {len(ps)} points kept)")

vox = ftp_point_to_voxel(plan, feats)
print(f"voxel branch: {len(ps)} points -> {vox.shape[0]} occupied cells")

deep = sparse_bottleneck(plan.kernel_map, vox, params)
print(f"after bottleneck stack: occupancy preserved = {deep.shape[0] == vox.shape[0]}")

v = interp_voxel_to_point(plan, deep, params)
print(f"interpolated back to points: {v.shape}")

fused = spatial_block(plan, feats, params)
print(f"fused block output: {fused.shape}")

# permutation equivariance: shuffling points shuffles rows, nothing else
perm = np.random.default_rng(3).permutation(len(ps))
from pointcast.indexing import IndexedPointSet

ps_perm = IndexedPointSet(
    points=ps.points[perm], instance=ps.instance[perm], time=ps.time[perm],
    voxels=ps.voxels[perm], kind=ps.kind[perm], grid_size=ps.grid_size,
)
plan_perm = plan_scene(ps_perm, cfg)
fused_perm = spatial_block(plan_perm, ad.constant(feats.data[perm]), params)
print("equivariance residual:", np.abs(fused_perm.data - fused.data[perm]).max())
