#!/usr/bin/env python3
"""Dynamic temporal learning on agents with very different history lengths.

Three agents observed for 1, 7, and 20 steps run through multi-interval
learning and instance pooling together, with no padding and no cross-instance
leakage. The interval and instance groups come from the scene's plan, built
once per point set; every point here is of the target's kind, so the plan's
one stage computes every row.
"""

import numpy as np

from pointcast import ModelConfig, autodiff as ad
from pointcast.indexing import IndexedPointSet, plan_scene, voxelize
from pointcast.temporal import init_temporal, temporal_block

cfg = ModelConfig(
    n_stages=1, intervals=(2, 4, 8), embed_width=8, radius_width=8,
    pointwise_width=8, voxel_width=8, spatial_width=8, interval_width=8,
    temporal_width=16, head_width=16,
)

lengths = [1, 7, 20]
instance = np.concatenate([np.full(n, i) for i, n in enumerate(lengths)]).astype(np.int64)
time = np.concatenate([np.arange(n) for n in lengths]).astype(np.int64)
points = np.zeros((len(instance), 2))
ps = IndexedPointSet(
    points=points, instance=instance, time=time, voxels=voxelize(points, 0.5),
    kind=np.zeros(len(instance), dtype=np.int64), grid_size=0.5,
)
print(f"agent history lengths: {lengths} -> {len(ps)} points, zero padding anywhere")
plan = plan_scene(ps, cfg)
rows = plan.stages[0]
print("groups per interval:", {t: g.n_groups for t, g in zip(cfg.intervals, rows.by_interval)},
      f"instances: {rows.by_instance.n_groups}")

params = init_temporal({}, "demo", cfg.spatial_width, cfg, np.random.default_rng(0))
feats = np.random.default_rng(1).normal(size=(len(ps), cfg.spatial_width))
out = temporal_block(rows, ad.constant(feats), params)
print(f"temporal block output: {out.shape}")

# isolation probe: perturb agent 2's features, agents 0 and 1 are untouched
bumped = feats.copy()
bumped[8:] += 100.0
out_b = temporal_block(rows, ad.constant(bumped), params)
print("rows of agents 0/1 changed:", not np.array_equal(out.data[:8], out_b.data[:8]))
print("rows of agent 2 changed:   ", not np.array_equal(out.data[8:], out_b.data[8:]))

# a brand-new instance never alters existing outputs
instance2 = np.concatenate([instance, np.full(5, 3)]).astype(np.int64)
time2 = np.concatenate([time, np.arange(5)]).astype(np.int64)
points2 = np.zeros((len(instance2), 2))
ps2 = IndexedPointSet(
    points=points2, instance=instance2, time=time2, voxels=voxelize(points2, 0.5),
    kind=np.zeros(len(instance2), dtype=np.int64), grid_size=0.5,
)
feats2 = np.vstack([feats, np.random.default_rng(2).normal(size=(5, cfg.spatial_width))])
out2 = temporal_block(plan_scene(ps2, cfg).stages[0], ad.constant(feats2), params)
print("existing rows identical after adding an instance:",
      np.array_equal(out2.data[: len(ps)], out.data))
