"""Numerics dump and compare: the losses, gradients and predictions of one checkout.

    PYTHONPATH=src python tools/numerics.py dump OUT.npz
    python tools/numerics.py compare A.npz B.npz

``dump`` runs the ``pointcast`` on the import path and saves, as groups:

- ``overfit/loss`` and ``overfit/grad``: per-scene losses and flattened
  parameter gradients (sorted parameter names) on ``gen_synthetic(12,
  seed=0)`` at the benchmark's ``OVERFIT_MODEL``, model seed 0;
- ``default/loss`` and ``default/grad``: the same at the default
  ``ModelConfig``;
- ``train/loss`` and ``train/params``: the loss history and the flattened
  trained parameters (sorted names, one row) of a short ``network.train`` on
  the same 12 scenes at ``OVERFIT_MODEL``: batch 8, 2 epochs, no
  augmentation, seed 0;
- ``predict/trajectories`` and ``predict/displacements``: ``network.forward``
  at the default config on 8 congested scenes (the benchmark's
  ``CONGESTED_SPEED``, seed 0);
- ``eval/report``: the ``EvalReport`` fields, in order, of
  ``network.evaluate_model`` on the plans of the same 8 scenes.

``compare`` prints one line per group: ``bit-identical``, or the largest
relative difference over scenes, where a scene's difference is its max
``|a - b|`` over its max ``|a|``. It exits 1 when the two files do not hold
the same groups and shapes. Dump the parent and the change with the same
numpy and BLAS, then compare the two files.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
N_TRAIN_SCENES = 12
TRAIN_BATCH = 8
TRAIN_EPOCHS = 2
N_PREDICT_SCENES = 8


def _workloads():
    """``bench/workloads.py``, for its model config and scene speeds."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# pointcast is imported where it is used, so that `compare` runs without src
# on the import path


def _losses_and_grads(cfg):
    from pointcast import autodiff as ad, network, scenes, synth

    model = network.init_model(cfg, seed=0)
    names = sorted(model.params)
    losses, grads = [], []
    for raw in synth.gen_synthetic(N_TRAIN_SCENES, seed=0, future_steps=cfg.future_steps):
        for t in model.params.values():
            t.zero_grad()
        loss = network.scene_forward_loss(model, network.scene_plan(scenes.normalize(raw), cfg))
        losses.append(loss.item())
        ad.backward(loss)
        grads.append(np.concatenate([
            (t.grad if t.grad is not None else np.zeros_like(t.data)).ravel()
            for t in (model.params[k] for k in names)
        ]))
    return np.array(losses), np.stack(grads)


def _trained(cfg):
    """Loss history and flattened parameters of a short training call."""
    from pointcast import network, synth

    result = network.train(
        synth.gen_synthetic(N_TRAIN_SCENES, seed=0, future_steps=cfg.future_steps),
        network.TrainConfig(model=cfg, epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH,
                            augment=None, eval_every=0, seed=0),
    )
    params = result.model.params
    return (np.array([h["train_loss"] for h in result.history]),
            np.concatenate([params[k].data.ravel() for k in sorted(params)])[None, :])


def collect() -> dict:
    from pointcast import network, scenes, synth

    bench = _workloads()
    out = {}
    for name, cfg in (("overfit", bench.OVERFIT_MODEL), ("default", network.ModelConfig())):
        out[f"{name}/loss"], out[f"{name}/grad"] = _losses_and_grads(cfg)
    out["train/loss"], out["train/params"] = _trained(bench.OVERFIT_MODEL)
    cfg = network.ModelConfig()
    model = network.init_model(cfg, seed=0)
    normalized = [scenes.normalize(raw) for raw in synth.gen_synthetic(
        N_PREDICT_SCENES, seed=0, speed_range=bench.CONGESTED_SPEED,
        future_steps=cfg.future_steps)]
    preds = [network.forward(model, sc) for sc in normalized]
    out["predict/trajectories"] = np.stack([p.trajectories for p in preds])
    out["predict/displacements"] = np.stack([p.displacements for p in preds])
    _, report, _ = network.evaluate_model(model, [network.scene_plan(sc, cfg) for sc in normalized])
    out["eval/report"] = np.array(dataclasses.astuple(report), dtype=np.float64)
    return out


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """One report line per group, and whether the files held the same groups and shapes."""
    lines, same = [], True
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            lines.append(f"{key}: only in {'A' if key in a else 'B'}")
            same = False
        elif a[key].shape != b[key].shape:
            lines.append(f"{key}: shape {a[key].shape} vs {b[key].shape}")
            same = False
        elif a[key].tobytes() == b[key].tobytes():
            lines.append(f"{key}: bit-identical")
        else:
            x, y = (v.reshape(len(v), -1) for v in (a[key], b[key]))
            diff = np.abs(x - y).max(axis=1) / np.abs(x).max(axis=1)
            lines.append(f"{key}: max relative difference {diff.max():.3g}")
    return lines, same


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "dump":
        np.savez(argv[1], **collect())
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with np.load(argv[1]) as fa, np.load(argv[2]) as fb:
            lines, same = compare(dict(fa), dict(fb))
        print("\n".join(lines))
        return 0 if same else 1
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
