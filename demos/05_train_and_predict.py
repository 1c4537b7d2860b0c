#!/usr/bin/env python3
"""End-to-end: overfit a small model on a handful of scenes, rank modes, plot.

Writes prediction JSON and an SVG rendering next to this script. Takes a
couple of minutes on one core.
"""

import json
from pathlib import Path

import numpy as np

from pointcast import (
    ModelConfig,
    TrainConfig,
    gen_synthetic,
    normalize,
    rank_trajectories,
    train,
)
from pointcast.network import evaluate_model, scene_plan
from pointcast.plotting import scene_svg, write_svg

out_dir = Path(__file__).parent

model_cfg = ModelConfig(
    n_stages=1, intervals=(2, 4, 8), radii=(0.4, 0.8, 1.6), grid_size=0.4,
    n_modes=6, embed_width=16, radius_width=16, pointwise_width=32,
    voxel_width=32, spatial_width=48, interval_width=24, temporal_width=48,
    head_width=64,
)
scenes = gen_synthetic(4, seed=123, profile="mixed")
cfg = TrainConfig(model=model_cfg, epochs=120, batch_size=4, lr=1e-2,
                  lr_decay_epochs=(90,), augment=None, eval_every=0, seed=0)
print("training on 4 scenes for 120 steps ...")
result = train(scenes, cfg)
losses = [h["train_loss"] for h in result.history]
print(f"loss: {losses[0]:.2f} -> {losses[-1]:.3f}")

norm_scenes = [normalize(s) for s in scenes]
preds, report, _ = evaluate_model(result.model, [scene_plan(s, model_cfg) for s in norm_scenes])
print(json.dumps(json.loads(report.to_json()), indent=1))

# render the first scene with its ranked predictions in the world frame
scene, pred = norm_scenes[0], preds[0]
order = rank_trajectories(pred)
world = np.stack([scene.frame.invert(pred.trajectories[k]) for k in order])
raw = scenes[0]
svg = scene_svg(raw, predictions=world, gt=raw.future)
write_svg(svg, out_dir / "prediction.svg")
print(f"wrote {out_dir / 'prediction.svg'}")
