#!/usr/bin/env python3
"""Scenes, normalization, and the two index spaces.

Generates a synthetic forecasting scene, normalizes it into the
target-centric frame, and shows how points map into voxel space and the
instance-time index system.
"""

import numpy as np

from pointcast import (
    augment,
    build_groups_by_instance,
    build_groups_by_voxel,
    gen_synthetic,
    index_scene,
    normalize,
    regroup_by_interval,
)

scene = gen_synthetic(1, seed=42, profile="turn")[0]
print(f"raw scene: {len(scene.agents)} agents, {len(scene.map_elements)} lanes")
print(f"target last observation (world frame): {scene.target_agent().xy[-1]}")

norm = normalize(scene)
print(f"\nafter normalize: target last observation = {norm.target_agent().xy[-1]}")
print(f"heading-aligned previous point = {norm.target_agent().xy[-2].round(3)}")
print(f"stored frame: origin={norm.frame.origin.round(2)}, rotation={norm.frame.rotation:.3f} rad")

# points land in a sparse voxel grid of 0.2 m cells
ps = index_scene(norm, grid_size=0.2)
vox_groups = build_groups_by_voxel(ps)
print(f"\n{len(ps)} points occupy {vox_groups.n_groups} voxels")
sizes = np.bincount(vox_groups.counts())
print(f"voxel occupancy histogram (points per cell): {dict(enumerate(sizes.tolist()))}")

# the instance-time system groups variable-length histories without padding
inst_groups = build_groups_by_instance(ps)
print(f"\ninstances: {inst_groups.n_groups}")
for interval in (2, 8, 16):
    g = regroup_by_interval(ps, interval)
    print(f"interval {interval:>2}: {g.n_groups} temporal groups")

# augmentation: global scaling, dropout, jitter
aug = augment(norm, seed=7)
print(f"\naugmented map points: {sum(len(m.xy) for m in aug.map_elements)}"
      f" (from {sum(len(m.xy) for m in norm.map_elements)})")
