"""Numerics dump and compare: the losses, gradients and predictions of one checkout.

    PYTHONPATH=src python tools/numerics.py dump OUT.npz
    python tools/numerics.py compare A.npz B.npz

``dump`` runs the ``pointcast`` on the import path and saves, as groups:

- ``overfit/loss`` and ``overfit/grad``: per-scene losses and flattened
  parameter gradients (sorted parameter names) on ``gen_synthetic(12,
  seed=0)`` at the benchmark's ``OVERFIT_MODEL``, model seed 0;
- ``default/loss`` and ``default/grad``: the same at the default
  ``ModelConfig``;
- ``train/loss`` and ``train/params/<name>``: the loss history and each
  trained parameter (one group per parameter name, one row) of a short
  ``network.train`` on the same 12 scenes at ``OVERFIT_MODEL``: batch 8,
  2 epochs, no augmentation, seed 0;
- ``restore/params/<name>``: that trained model saved with
  ``network.save_train_checkpoint``, restored by
  ``network.restore_train_checkpoint`` into a fresh ``init_model`` (seed 1),
  one group per parameter the same way;
- ``predict/trajectories`` and ``predict/displacements``: ``network.forward``
  at the default config on 8 congested scenes (the benchmark's
  ``CONGESTED_SPEED``, seed 0);
- ``eval/report``: the ``EvalReport`` fields, in order, of
  ``network.evaluate_model`` on the plans of the same 8 scenes;
- ``plan/<field path>``: every array of those 8 plans, concatenated over the
  plans, one group per path through the ``ScenePlan``'s dataclass fields and
  tuple and list positions (``plan/points/neighborhoods/3/2/order`` is the
  by-neighbor table's order at the fourth radius); a None is skipped.

``compare`` prints one line per group: ``bit-identical``, or the largest
relative difference over scenes (over rows for a ``plan/`` group), where a
scene's difference is its max ``|a - b|`` over its max ``|a|``, and 0 where
they are equal. A last line names the group of the largest difference, or
says that every comparable group is bit-identical. It exits 1 when the two
files do not hold the same groups and shapes. Dump the parent and the change
with the same numpy and BLAS, then compare the two files.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
import tempfile
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


def _param_groups(prefix, model):
    return {f"{prefix}/{k}": t.data.reshape(1, -1) for k, t in model.params.items()}


def _trained(cfg):
    """Loss history and per-parameter groups of a short training call, and of its restore."""
    from pointcast import network, optim, synth

    result = network.train(
        synth.gen_synthetic(N_TRAIN_SCENES, seed=0, future_steps=cfg.future_steps),
        network.TrainConfig(model=cfg, epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH,
                            augment=None, eval_every=0, seed=0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = network.save_train_checkpoint(Path(tmp) / "model", result.model, result.state,
                                             epoch=TRAIN_EPOCHS - 1)
        restored = network.init_model(cfg, seed=1)
        network.restore_train_checkpoint(ckpt, restored, optim.adam_init(restored.params))
    return {"train/loss": np.array([h["train_loss"] for h in result.history]),
            **_param_groups("train/params", result.model),
            **_param_groups("restore/params", restored)}


def collect() -> dict:
    from pointcast import network, scenes, synth

    bench = _workloads()
    out = {}
    for name, cfg in (("overfit", bench.OVERFIT_MODEL), ("default", network.ModelConfig())):
        out[f"{name}/loss"], out[f"{name}/grad"] = _losses_and_grads(cfg)
    out.update(_trained(bench.OVERFIT_MODEL))
    cfg = network.ModelConfig()
    model = network.init_model(cfg, seed=0)
    normalized = [scenes.normalize(raw) for raw in synth.gen_synthetic(
        N_PREDICT_SCENES, seed=0, speed_range=bench.CONGESTED_SPEED,
        future_steps=cfg.future_steps)]
    preds = [network.forward(model, sc) for sc in normalized]
    out["predict/trajectories"] = np.stack([p.trajectories for p in preds])
    out["predict/displacements"] = np.stack([p.displacements for p in preds])
    plans = [network.scene_plan(sc, cfg) for sc in normalized]
    _, report, _ = network.evaluate_model(model, plans)
    out["eval/report"] = np.array(dataclasses.astuple(report), dtype=np.float64)
    parts = {}
    for plan in plans:
        for path, array in _arrays(plan, "plan"):
            parts.setdefault(path, []).append(array)
    out.update((path, np.concatenate(arrays)) for path, arrays in parts.items())
    return out


def _arrays(x, path):
    """``(path, array)`` for every array in ``x``, through dataclass fields, tuples and lists."""
    if isinstance(x, np.ndarray):
        yield path, x
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            yield from _arrays(getattr(x, f.name), f"{path}/{f.name}")
    elif isinstance(x, (tuple, list)):
        for i, item in enumerate(x):
            yield from _arrays(item, f"{path}/{i}")


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """One report line per group and a worst-group line, and whether the files held the same
    groups and shapes."""
    lines, same, worst = [], True, None
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
            num = np.abs(x - y).max(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                # an equal row differs by 0, also where it holds only zeros
                diff = np.where(num == 0, 0.0, num / np.abs(x).max(axis=1)).max()
            lines.append(f"{key}: max relative difference {diff:.3g}")
            if worst is None or not diff <= worst[1]:
                worst = key, diff
    lines.append("worst: none, every comparable group is bit-identical" if worst is None
                 else f"worst: {worst[0]} (max relative difference {worst[1]:.3g})")
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
