#!/usr/bin/env python3
"""The dual-representation spatial block, branch by branch.

Builds the scene's plan (every neighborhood, voxel group and kernel map,
once, cut to each stage's receptive field), then walks feature maps through
pointwise neighborhood learning, point-to-voxel mean propagation, the
submanifold bottleneck stack, and learnable voxel-to-point interpolation,
over the tables of the plan's one stage (``plan.stages[0]``): the target
agent's rows, and the input rows and voxels they read.
"""

import dataclasses

import numpy as np

from pointcast import ModelConfig, autodiff as ad, gen_synthetic, index_scene, normalize, plan_scene
from pointcast.indexing import IndexedPointSet
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
rows = plan.stages[0]
pairs = {r: len(rel) for r, (rel, _, _) in zip(cfg.radii, rows.neighborhoods)}
print(f"plan: {len(ps)} points; the stage computes {len(rows.rows)} target rows from "
      f"{len(plan.input_rows)} input rows, and {len(rows.voxels)} of {len(plan.voxel_coords)} "
      f"voxels")
print(f"radius pairs {pairs}, "
      f"{sum(len(p[0]) for p in rows.kernel_map if p is not None)} off-center kernel pairs")
every_feats = np.random.default_rng(1).normal(size=(len(ps), cfg.embed_width))
feats = ad.constant(every_feats[plan.input_rows])

params = init_spatial({}, "demo", cfg.embed_width, cfg, np.random.default_rng(2))

p = pointwise_learning(rows, feats, params)
print(f"pointwise branch: {feats.shape} -> {p.shape}")

vox = ftp_point_to_voxel(rows, feats)
print(f"voxel branch: {len(plan.input_rows)} input rows -> {vox.shape[0]} occupied cells")

deep = sparse_bottleneck(rows.kernel_map, vox, params)
print(f"after bottleneck stack: occupancy preserved = {deep.shape[0] == vox.shape[0]}")

v = interp_voxel_to_point(rows, deep, params)
print(f"interpolated back to points: {v.shape}")

fused = spatial_block(rows, feats, params)
print(f"fused block output: {fused.shape}")

# each stage before the last computes the rows the next one reads: the fields
# widen from the target back to the first stage
deeper = plan_scene(ps, dataclasses.replace(cfg, n_stages=3))
print("rows per stage of a 3-stage plan:", [len(s.rows) for s in deeper.stages],
      f"(input rows {len(deeper.input_rows)})")

# permutation equivariance: shuffling points shuffles rows, nothing else
perm = np.random.default_rng(3).permutation(len(ps))
ps_perm = IndexedPointSet(
    points=ps.points[perm], instance=ps.instance[perm], time=ps.time[perm],
    voxels=ps.voxels[perm], kind=ps.kind[perm], grid_size=ps.grid_size,
)
plan_perm = plan_scene(ps_perm, cfg)
fused_perm = spatial_block(plan_perm.stages[0],
                           ad.constant(every_feats[perm][plan_perm.input_rows]), params)
order = np.argsort(perm[plan_perm.stages[0].rows])  # back to the original rows' order
print("equivariance residual:", np.abs(fused_perm.data[order] - fused.data).max())
