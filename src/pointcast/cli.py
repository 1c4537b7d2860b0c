"""Command-line entry point: scene generation, training, evaluation, prediction, plots.

Exit codes: 0 success, 2 input/config error, 3 checkpoint incompatibility,
1 internal error. The env var TPCN_SEED supplies the seed when neither a
flag nor the config file does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
from .checkpoint import CheckpointMismatchError, load_checkpoint, restore_into
from .network import ModelConfig, TrainConfig, forward, init_model, rank_trajectories, train
from .plotting import scene_svg, write_svg
from .scenes import (
    AugConfig,
    SceneFormatError,
    SceneValidationError,
    load_scene,
    load_scene_dir,
    normalize,
    save_scene,
)
from .synth import PROFILES, gen_synthetic


class ConfigError(ValueError):
    pass


_MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)}
_AUG_KEYS = {"enabled"} | {f.name for f in dataclasses.fields(AugConfig)}
_RUN_KEYS = {
    "seed", "data_dir", "checkpoint_dir", "log_path",
    "epochs", "batch_size", "lr", "lr_decay_epochs", "lr_decay_factor",
    "eval_every", "model", "augment",
}


def _reject_unknown(doc: dict, allowed: set, where: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}{key!r}")


def parse_model_config(doc: dict) -> ModelConfig:
    _reject_unknown(doc, _MODEL_KEYS, "model.")
    kwargs = dict(doc)
    for k in ("intervals", "radii"):
        if k in kwargs:
            kwargs[k] = tuple(kwargs[k])
    return ModelConfig(**kwargs)


def parse_aug_config(doc: dict) -> AugConfig | None:
    _reject_unknown(doc, _AUG_KEYS, "augment.")
    doc = dict(doc)
    if not doc.pop("enabled", True):
        return None
    if "scale_range" in doc:
        doc["scale_range"] = tuple(doc["scale_range"])
    return AugConfig(**doc)


def parse_run_config(doc: dict) -> dict:
    """Validate a run-config document and fill defaults; returns a plain dict."""
    _reject_unknown(doc, _RUN_KEYS, "")
    out = dict(doc)
    out["model"] = parse_model_config(doc.get("model", {}))
    out["augment"] = parse_aug_config(doc.get("augment", {}))
    defaults = TrainConfig()
    for key in ("epochs", "batch_size", "lr", "lr_decay_epochs", "lr_decay_factor", "eval_every"):
        out.setdefault(key, getattr(defaults, key))
    out["lr_decay_epochs"] = tuple(out["lr_decay_epochs"])
    return out


def _load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return parse_run_config(doc)


def _resolve_seed(flag_seed, config_seed=None) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    if config_seed is not None:
        return int(config_seed)
    env = os.environ.get("TPCN_SEED")
    return int(env) if env else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synthetic(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = _resolve_seed(args.seed)
    scenes = gen_synthetic(args.n, seed, args.profile)
    names = []
    for sc in scenes:
        name = f"{sc.scene_id}.json"
        save_scene(sc, out_dir / name)
        names.append(name)
    manifest = {"n": args.n, "seed": seed, "profile": args.profile, "scenes": names}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, allow_nan=False) + "\n")
    print(f"wrote {len(names)} scenes to {out_dir}")
    return 0


def _train_config(run: dict, args) -> TrainConfig:
    seed = _resolve_seed(getattr(args, "seed", None), run.get("seed"))
    epochs = getattr(args, "epochs", None) or run["epochs"]
    return TrainConfig(
        model=run["model"],
        epochs=int(epochs),
        batch_size=int(run["batch_size"]),
        lr=float(run["lr"]),
        lr_decay_epochs=run["lr_decay_epochs"],
        lr_decay_factor=float(run["lr_decay_factor"]),
        augment=run["augment"],
        eval_every=int(run["eval_every"]),
        seed=seed,
    )


def _config_doc(run: dict, cfg: TrainConfig) -> dict:
    # run-environment paths stay out of the checkpoint so identical training
    # runs in different directories produce byte-identical manifests
    skip = ("model", "augment", "data_dir", "checkpoint_dir", "log_path")
    doc = {k: v for k, v in run.items() if k not in skip}
    doc["seed"] = cfg.seed
    doc["epochs"] = cfg.epochs
    doc["model"] = dataclasses.asdict(cfg.model)
    doc["augment"] = (
        {"enabled": False} if cfg.augment is None
        else {"enabled": True, **dataclasses.asdict(cfg.augment)}
    )
    return doc


def cmd_train(args) -> int:
    run = _load_config_file(args.config)
    data_dir = Path(args.data or run.get("data_dir", ""))
    if not data_dir.is_dir():
        raise ConfigError(f"data directory {data_dir} does not exist")
    dataset = load_scene_dir(data_dir)
    if not dataset:
        raise ConfigError(f"no scene files in {data_dir}")
    cfg = _train_config(run, args)
    ckpt_dir = Path(args.out or run.get("checkpoint_dir", "checkpoints"))
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    log_path = args.log or run.get("log_path") or (ckpt_dir / "train_log.jsonl")
    result = train(
        dataset,
        cfg,
        checkpoint_path=ckpt_dir / "model",
        log_path=log_path,
        resume=args.resume,
        config_doc=_config_doc(run, cfg),
    )
    last = result.history[-1] if result.history else {}
    print(json.dumps({"checkpoint": str(result.checkpoint_path), **last}, allow_nan=False))
    return 0


def _restore_model(ckpt_path, model_cfg: ModelConfig | None = None):
    arrays, manifest = load_checkpoint(ckpt_path)
    if model_cfg is None:
        doc = (manifest.get("config") or {}).get("model")
        if doc is None:
            raise CheckpointMismatchError(f"{ckpt_path}: manifest carries no model config")
        model_cfg = parse_model_config(doc)
    model = init_model(model_cfg, seed=0)
    restore_into(model.params, arrays)  # inference needs no optimizer moments
    return model


def _require_finite(ckpt_path, *arrays):
    """Scenes are validated finite, so a non-finite output can only come from the weights."""
    if not all(np.isfinite(np.asarray(a, dtype=np.float64)).all() for a in arrays):
        raise CheckpointMismatchError(f"{ckpt_path}: the model predicts non-finite values")


def cmd_eval(args) -> int:
    run = _load_config_file(args.config)
    model = _restore_model(args.ckpt, run["model"])
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise ConfigError(f"data directory {data_dir} does not exist")
    scenes = [normalize(s) for s in load_scene_dir(data_dir)]
    scenes = [s for s in scenes if s.future is not None]
    if not scenes:
        raise ConfigError(f"no evaluable scenes (with ground-truth future) in {data_dir}")
    preds = [forward(model, s) for s in scenes]
    gts = [s.future for s in scenes]
    report = metrics_mod.evaluate_report(preds, gts)
    # a finite but huge prediction can still overflow a metric
    _require_finite(args.ckpt, dataclasses.astuple(report),
                    *(p.trajectories for p in preds), *(p.displacements for p in preds))
    if args.per_scene_csv:
        metrics_mod.write_scene_csv(args.per_scene_csv, [s.scene_id for s in scenes], preds, gts)
    print(report.to_json())
    return 0


def cmd_predict(args) -> int:
    model = _restore_model(args.ckpt)
    raw = load_scene(args.scene)
    scene = normalize(raw)
    pred = forward(model, scene)
    order = rank_trajectories(pred)
    trajs = [scene.frame.invert(pred.trajectories[i]).tolist() for i in order]
    doc = {
        "scene": raw.scene_id,
        "n_modes": int(model.config.n_modes),
        "order_by": "predicted_displacement_ascending",
        "trajectories": trajs,
        "displacements": [float(pred.displacements[i]) for i in order],
    }
    _require_finite(args.ckpt, trajs, doc["displacements"])
    Path(args.out).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_plot(args) -> int:
    scene = load_scene(args.scene)
    predictions = None
    if args.pred:
        try:
            pred_doc = json.loads(Path(args.pred).read_text())
            predictions = np.asarray(pred_doc["trajectories"], dtype=np.float64)
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise SceneFormatError(f"{args.pred}: {exc}") from exc
    root = scene_svg(scene, predictions=predictions, gt=scene.future)
    write_svg(root, args.out)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointcast")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate synthetic scene files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="number of scenes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile", choices=PROFILES, default="mixed")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--epochs", type=int, default=None, help="override the config epochs")
    p.add_argument("--data", default=None, help="override the config data_dir")
    p.add_argument("--out", default=None, help="override the config checkpoint_dir")
    p.add_argument("--log", default=None, help="override the config log_path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a scene directory")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--per-scene-csv", default=None, help="also write per-scene metric rows")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict ranked trajectories for one scene")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("plot", help="render a scene (and predictions) to SVG")
    p.add_argument("--scene", required=True)
    p.add_argument("--pred", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SceneFormatError, SceneValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointMismatchError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
