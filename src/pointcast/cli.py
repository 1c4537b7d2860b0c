"""Command-line entry point: scene generation, training, evaluation, prediction, plots.

Exit codes:
  0  success;
  2  input or config error: a malformed scene or prediction document, a
     scene to train on or evaluate whose future is not ``model.future_steps``
     long, a scene whose ``history_steps`` is not the model's, a scene whose
     coordinates, augmented or not, are non-finite or too large for the
     32-bit cell keys at ``model.grid_size`` or the largest of
     ``model.radii``, a run-config value or command-line count of the wrong
     type or out of range (an integer beyond float range included), a
     ``run.json`` that is not UTF-8, a JSON document holding an integer
     literal past Python's digit limit, a path of the wrong kind (a
     directory where a file goes, or a file where a directory goes), a
     resumed checkpoint that already reached the last epoch, or a training
     run that diverged;
  3  checkpoint fault: a malformed manifest (a ``config.model`` value beyond
     float range, or a ``version`` other than 1, included), a manifest
     model that no scene can plan, a resumed checkpoint whose model differs
     from the run's, missing, extra or misshapen arrays, non-finite values,
     a missing data file (always ``<stem>.bin`` beside ``<stem>.json``), or
     a data file that does not match its manifest's length and SHA-256
     digest;
  1  internal error.

A run config (``run.json``) parses straight into a ``TrainConfig``; only the
deployment paths in PATH_KEYS stay outside it. The env var TPCN_SEED
supplies the seed when neither a flag nor the config file does. A
checkpoint's manifest records its ``ModelConfig``, and every command that
reads a checkpoint builds its model from that record alone. A ``--data``
directory's scene files are those ``load_scene`` reads, their suffixes
matched in any case.
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
from .checkpoint import CheckpointMismatchError, load_checkpoint, read_manifest
from .network import (ModelConfig, NothingToResume, TrainConfig, TrainingDiverged,
                      evaluate_model, forward, init_model, rank_trajectories, scene_plan, train)
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


# deployment settings, kept out of TrainConfig and the checkpoint so that
# identical runs in different directories save byte-identical manifests
PATH_KEYS = ("data_dir", "checkpoint_dir", "log_path")

_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _parse_value(default, value, key: str):
    """``value`` checked against, and parsed as, the type of field default ``default``."""
    if dataclasses.is_dataclass(default):
        return _from_doc(type(default), value, key + ".")
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {json.dumps(value)}")
        return tuple(_parse_value(default[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    kind = type(default)
    parsed = value
    if kind is float and type(value) is int:
        # an integer beyond float range, where float() would raise, is not finite
        parsed = float(value) if abs(value) <= sys.float_info.max else np.inf
    if type(parsed) is not kind or (kind is float and not np.isfinite(parsed)):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")
    return parsed


def _from_doc(cls, doc, where: str = ""):
    """Parse the JSON object ``doc`` into dataclass ``cls``.

    Each value must have the JSON type of its field's default (an int field
    takes no bool or float); ``cls`` checks the ranges. An AugConfig document
    may add ``"enabled"``: false parses to None. Any fault raises ConfigError
    naming the key, prefixed with ``where``.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where.rstrip('.') or 'config'} must be a JSON object, "
                          f"got {json.dumps(doc)}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    if cls is AugConfig:
        defaults["enabled"] = True
    values = {}
    for key, value in doc.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {where}{key!r}")
        values[key] = _parse_value(defaults[key], value, where + key)
    enabled = values.pop("enabled", True)
    try:
        parsed = cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc
    return parsed if enabled else None


def _load_run_config(path) -> tuple[dict, dict]:
    """The run config at ``path``, split into its TrainConfig document and its PATH_KEYS."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    # a str default: each path must be a JSON string
    paths = {k: _parse_value("", doc.pop(k), k) for k in PATH_KEYS if k in doc}
    return doc, paths


def _env_seed() -> int:
    env = os.environ.get("TPCN_SEED") or "0"
    if not env.isdecimal():
        raise ConfigError(f"TPCN_SEED must be a non-negative integer, got {env!r}")
    return int(env)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synthetic(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    seed = args.seed if args.seed is not None else _env_seed()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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


def cmd_train(args) -> int:
    doc, paths = _load_run_config(args.config)
    if "seed" not in doc and args.seed is None:
        doc["seed"] = _env_seed()
    cfg = _from_doc(TrainConfig, doc)
    overrides = {k: v for k, v in (("seed", args.seed), ("epochs", args.epochs)) if v is not None}
    try:
        cfg = dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        raise ConfigError(f"command line: {exc}") from exc
    if args.resume is not None:
        _check_resumed_model(args.resume, cfg.model)
    data_dir = Path(args.data or paths.get("data_dir", ""))
    if not data_dir.is_dir():
        raise ConfigError(f"data directory {data_dir} does not exist")
    dataset = load_scene_dir(data_dir)
    if not dataset:
        raise ConfigError(f"no scene files in {data_dir}")
    # train makes the directory once it accepts the run, so a refused one writes nothing
    ckpt_dir = Path(args.out or paths.get("checkpoint_dir", "checkpoints"))
    log_path = args.log or paths.get("log_path") or (ckpt_dir / "train_log.jsonl")
    result = train(dataset, cfg, checkpoint_path=ckpt_dir / "model", log_path=log_path,
                   resume=args.resume)
    last = result.history[-1] if result.history else {}
    print(json.dumps({"checkpoint": str(result.checkpoint_path), **last}, allow_nan=False))
    return 0


def _recorded_model(ckpt_path) -> ModelConfig:
    """Checkpoint ``ckpt_path``'s recorded ``config.model``; other ``config`` keys are ignored."""
    doc = (read_manifest(ckpt_path).get("config") or {}).get("model")
    try:
        return _from_doc(ModelConfig, doc, "model.")
    except ConfigError as exc:
        raise CheckpointMismatchError(f"{ckpt_path}: manifest config: {exc}") from exc


def _check_resumed_model(ckpt_path, model_cfg: ModelConfig) -> None:
    """Raise CheckpointMismatchError naming the first field where ``ckpt_path``'s record differs."""
    recorded = _recorded_model(ckpt_path)
    for f in dataclasses.fields(ModelConfig):
        ours, theirs = getattr(model_cfg, f.name), getattr(recorded, f.name)
        if ours != theirs:
            raise CheckpointMismatchError(
                f"{ckpt_path}: the run's model.{f.name}, {json.dumps(ours)}, differs from "
                f"the checkpoint's, {json.dumps(theirs)}")


def _restore_model(ckpt_path):
    """The model of checkpoint ``ckpt_path``, built from the config its manifest records.

    Only the ``params/`` arrays are read in, straight into the model; the
    optimizer moments, which inference does not need, are verified and dropped.
    """
    model = init_model(_recorded_model(ckpt_path), seed=0)
    load_checkpoint(ckpt_path, into={f"params/{k}": t.data for k, t in model.params.items()})
    return model


def _require_finite(ckpt_path, *arrays):
    """Scenes are validated finite, so a non-finite output can only come from the weights."""
    if not all(np.isfinite(np.asarray(a, dtype=np.float64)).all() for a in arrays):
        raise CheckpointMismatchError(f"{ckpt_path}: the model predicts non-finite values")


def cmd_eval(args) -> int:
    model = _restore_model(args.ckpt)
    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise ConfigError(f"data directory {data_dir} does not exist")
    scenes = [normalize(s) for s in load_scene_dir(data_dir)]
    plans = [scene_plan(s, model.config) for s in scenes if s.future is not None]
    if not plans:
        raise ConfigError(f"no evaluable scenes (with ground-truth future) in {data_dir}")
    # finite weights can still overflow a prediction or a metric: _require_finite reports it
    with np.errstate(over="ignore", invalid="ignore"):
        preds, report, errors = evaluate_model(model, plans)
    _require_finite(args.ckpt, dataclasses.astuple(report),
                    *(p.trajectories for p in preds), *(p.displacements for p in preds))
    if args.per_scene_csv:
        metrics_mod.write_scene_csv(args.per_scene_csv, [p.scene_id for p in plans], errors)
    print(report.to_json())
    return 0


def cmd_predict(args) -> int:
    model = _restore_model(args.ckpt)
    raw = load_scene(args.scene)
    scene = normalize(raw)
    # finite weights can still overflow a prediction: _require_finite reports it
    with np.errstate(over="ignore", invalid="ignore"):
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


def _load_trajectories(path) -> np.ndarray:
    """The ``trajectories`` of a prediction document: a finite (K, T, 2) array, K, T >= 1."""
    try:
        doc = json.loads(Path(path).read_text())
        trajs = np.asarray(doc["trajectories"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SceneFormatError(f"{path}: not an object with numeric trajectories ({exc})") from exc
    if trajs.ndim != 3 or trajs.shape[2] != 2 or 0 in trajs.shape or not np.isfinite(trajs).all():
        raise SceneFormatError(f"{path}: trajectories must be a finite (K, T, 2) array with "
                               f"K, T >= 1, got shape {trajs.shape}")
    return trajs


def cmd_plot(args) -> int:
    scene = load_scene(args.scene)
    predictions = _load_trajectories(args.pred) if args.pred else None
    try:
        root = scene_svg(scene, predictions=predictions, gt=scene.future)
    except ValueError as exc:
        with_pred = f" with predictions {args.pred}" if args.pred else ""
        raise SceneFormatError(f"cannot plot {args.scene}{with_pred}: {exc}") from exc
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
    except (ConfigError, SceneFormatError, SceneValidationError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, FileExistsError, NothingToResume) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return 2
    except CheckpointMismatchError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
