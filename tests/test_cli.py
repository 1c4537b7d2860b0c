import json
import re
import shlex
import shutil
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_SCENE_FILES
from pointcast import (ModelConfig, TrainConfig, cli, gen_synthetic, load_scene, metrics,
                       normalize, save_scene, train)
from pointcast.checkpoint import load_checkpoint, save_checkpoint
from pointcast.network import evaluate_model, scene_plan
from pointcast.scenes import load_scene_dir

TINY_MODEL = {
    "n_stages": 1,
    "intervals": [2, 4],
    "radii": [0.4, 0.8],
    "grid_size": 0.4,
    "n_modes": 3,
    "future_steps": 30,
    "embed_width": 8,
    "radius_width": 8,
    "pointwise_width": 8,
    "voxel_width": 8,
    "spatial_width": 12,
    "interval_width": 8,
    "temporal_width": 12,
    "head_width": 12,
}


def write_config(path, data_dir, ckpt_dir, **overrides):
    doc = {
        "seed": 7,
        "data_dir": str(data_dir),
        "checkpoint_dir": str(ckpt_dir),
        "epochs": 2,
        "batch_size": 4,
        "lr": 1e-3,
        "lr_decay_epochs": [],
        "eval_every": 0,
        "model": dict(TINY_MODEL),
        "augment": {"enabled": False},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def gen_data(tmp_path, n=4, seed=5, profile="mixed", name="data"):
    out = tmp_path / name
    assert cli.main(["gen-synthetic", "--out", str(out), "--n", str(n),
                     "--seed", str(seed), "--profile", profile]) == 0
    return out


# ---------------------------------------------------------------------------
# gen-synthetic


def test_gen_synthetic_writes_files_and_manifest(tmp_path):
    out = gen_data(tmp_path, n=16)
    files = sorted(out.glob("syn-*.json"))
    assert len(files) == 16
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["scenes"]) == 16


def test_gen_synthetic_byte_deterministic(tmp_path):
    a = gen_data(tmp_path, n=3, seed=9, name="a")
    b = gen_data(tmp_path, n=3, seed=9, name="b")
    for fa, fb in zip(sorted(a.glob("*.json")), sorted(b.glob("*.json"))):
        assert fa.read_bytes() == fb.read_bytes()


def menger_curvature(p0, p1, p2):
    area2 = abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    d01, d12, d02 = (np.linalg.norm(p1 - p0), np.linalg.norm(p2 - p1), np.linalg.norm(p2 - p0))
    return 2.0 * area2 / (d01 * d12 * d02)


def test_gen_synthetic_turn_profile_curvature(tmp_path):
    out = gen_data(tmp_path, n=6, seed=3, profile="turn")
    for f in sorted(out.glob("syn-*.json")):
        scene = load_scene(f)
        fut = scene.future
        # constant-turn-rate kinematics: curvature omega/speed >= 0.1/14
        curv = menger_curvature(fut[0], fut[len(fut) // 2], fut[-1])
        assert curv > 0.005


def test_gen_synthetic_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("TPCN_SEED", "9")
    out_env = tmp_path / "env"
    assert cli.main(["gen-synthetic", "--out", str(out_env), "--n", "2"]) == 0
    monkeypatch.delenv("TPCN_SEED")
    out_flag = gen_data(tmp_path, n=2, seed=9, name="flag")
    for fa, fb in zip(sorted(out_env.glob("*.json")), sorted(out_flag.glob("*.json"))):
        assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.parametrize("flags, term", [
    (["--n", "1", "--seed", "-1"], "--seed"),
    (["--n", "0"], "--n"),
    (["--n", "-2"], "--n"),
])
def test_gen_synthetic_bad_flag_exit2(tmp_path, capsys, flags, term):
    out = tmp_path / "g"
    assert cli.main(["gen-synthetic", "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and term in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train


def test_train_missing_data_dir_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", tmp_path / "nope", tmp_path / "ck")
    assert cli.main(["train", "--config", str(cfg)]) == 2


def test_train_unknown_config_key_exit2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"model": {"bogus_width": 3}}))
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "bogus_width" in capsys.readouterr().err


# (config overrides, command-line flags, environment, the key the error must name);
# an override of None drops the key, so that TPCN_SEED is the only seed
MALFORMED_RUNS = {
    "epochs-string": ({"epochs": "abc"}, [], {}, "epochs"),
    "model-not-object": ({"model": 5}, [], {}, "model"),
    "n-modes-float": ({"model": dict(TINY_MODEL, n_modes=6.0)}, [], {}, "model.n_modes"),
    "batch-size-zero": ({"batch_size": 0}, [], {}, "batch_size"),
    "radii-empty": ({"model": dict(TINY_MODEL, radii=[])}, [], {}, "model.radii"),
    "interval-zero": ({"model": dict(TINY_MODEL, intervals=[0])}, [], {}, "model.intervals"),
    "no-bottleneck": ({"model": dict(TINY_MODEL, bottleneck_blocks=0)}, [], {},
                      "model.bottleneck_blocks"),
    "augment-not-object": ({"augment": 3}, [], {}, "augment"),
    "scale-range-reversed": ({"augment": {"scale_range": [2.0, 1.0]}}, [], {},
                             "augment.scale_range"),
    "decay-not-list": ({"lr_decay_epochs": 5}, [], {}, "lr_decay_epochs"),
    "epochs-fraction": ({"epochs": 1.5}, [], {}, "epochs"),
    "radius-negative": ({"model": dict(TINY_MODEL, radii=[-0.5])}, [], {}, "model.radii"),
    "epochs-negative": ({"epochs": -1}, [], {}, "epochs"),
    "epochs-flag-zero": ({}, ["--epochs", "0"], {}, "epochs"),
    "env-seed": ({"seed": None}, [], {"TPCN_SEED": "abc"}, "TPCN_SEED"),
    "future-length": ({"model": dict(TINY_MODEL, future_steps=20)}, [], {},
                      "model.future_steps"),
    # no scene inside normalize's crop can plan at these cell sizes
    "grid-size-tiny": ({"model": dict(TINY_MODEL, grid_size=1e-12)}, [], {},
                       "model.grid_size must be at least"),
    "radius-tiny": ({"model": dict(TINY_MODEL, radii=[1e-300])}, [], {}, "model.radii must reach"),
    # an integer that float() cannot take
    "lr-beyond-float": ({"lr": 10**400}, [], {}, "lr must be a finite number"),
}


@pytest.mark.parametrize("case", MALFORMED_RUNS)
def test_train_malformed_config_exit2(tmp_path, trained, capsys, monkeypatch, case):
    overrides, flags, env, key = MALFORMED_RUNS[case]
    cfg = write_config(tmp_path / "c.json", trained[1], tmp_path / "ck", **overrides)
    doc = json.loads(cfg.read_text())
    cfg.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert cli.main(["train", "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "ck" / "model.json").exists()


@pytest.mark.parametrize("text", [
    b'{"epochs": 2, "seed": "\xff"}',
    b'{"lr": 1' + b"0" * 4300 + b"}",
], ids=["not-utf8", "integer-past-digit-limit"])
def test_train_undecodable_run_config_exit2(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_bytes(text)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "ck")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert not (tmp_path / "ck").exists()


# (config overrides, what the error must name): augmented coordinates that
# leave the finite range, or whose cells at the grid size overflow the 32-bit keys
UNPLANNABLE_RUNS = {
    "scale-huge": ({"augment": {"scale_range": [1e10, 1e10]}}, "model.grid_size, 0.4,"),
    "noise-huge": ({"augment": {"noise_sigma": 1e12}}, "model.grid_size, 0.4,"),
    "scale-overflow": ({"augment": {"scale_range": [1e308, 1e308]}}, "inf is not finite"),
}


@pytest.mark.parametrize("case", UNPLANNABLE_RUNS)
def test_train_unplannable_coordinates_exit2(tmp_path, trained, capsys, case):
    overrides, term = UNPLANNABLE_RUNS[case]
    cfg = write_config(tmp_path / "c.json", trained[1], tmp_path / "ck", **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: scene 'syn-") and "largest |coordinate|" in err and term in err
    assert not (tmp_path / "ck" / "model.json").exists()


def test_predict_unplannable_checkpoint_grid_exit3(tmp_path, trained, capsys):
    # a manifest model that no scene can plan is refused where the manifest is parsed
    tmp, data, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, lambda m: {**m, "config": {
        **m["config"], "model": {**m["config"]["model"], "grid_size": 1e-12}}})
    for command in ("predict", "eval"):
        assert cli.main(_checkpoint_argv(command, tmp, data, bad, tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and "model.grid_size must be" in err
    _assert_nothing_written(tmp_path)


def test_train_with_a_tiny_smaller_radius(tmp_path, trained):
    # only the largest radius is hashed; a smaller one keeps the pairs within it
    cfg = write_config(tmp_path / "c.json", trained[1], tmp_path / "ck", epochs=1,
                       model=dict(TINY_MODEL, radii=[1e-300, 0.4]))
    assert cli.main(["train", "--config", str(cfg)]) == 0


# every overflow is reported as the divergence, without a numpy warning first
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides, term", [
    ({"batch_size": 2, "eval_every": 0}, "non-finite loss"),  # the second batch's loss
    ({"batch_size": 4, "eval_every": 1}, "non-finite minADE_1"),  # the end-of-epoch evaluation
])
def test_train_diverged_exit2(tmp_path, trained, capsys, overrides, term):
    cfg = write_config(tmp_path / "c.json", trained[1], tmp_path / "ck", epochs=1, lr=1e300,
                       **overrides)
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged:") and term in err
    assert not (tmp_path / "ck" / "model.json").exists()


def test_train_names_the_bad_scene_file_exit2(tmp_path, capsys):
    data = gen_data(tmp_path)
    bad = sorted(data.glob("syn-*.json"))[2]
    doc = json.loads(bad.read_text())
    doc["agents"][1]["points"][0][0] = 0.5
    bad.write_text(json.dumps(doc))
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert f"error: {bad}: agent 'agent-1' point 0: step must be an integer" in (
        capsys.readouterr().err)


def test_other_history_horizon_exit2(tmp_path, trained, capsys):
    tmp, _, ckpt = trained
    data = tmp_path / "h40"
    data.mkdir()
    for sc in gen_synthetic(2, seed=0, history_steps=40):
        save_scene(sc, data / f"{sc.scene_id}.json")
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck")
    names = "has 40 history steps, model reads 20 (model.history_steps)"
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert names in capsys.readouterr().err
    assert cli.main(["predict", "--ckpt", str(ckpt), "--scene", str(data / "syn-00000.json"),
                     "--out", str(tmp_path / "pred.json")]) == 2
    assert names in capsys.readouterr().err


def test_readme_run_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## CLI", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.json").write_text(example)
    doc, paths = cli._load_run_config(tmp_path / "run.json")
    assert paths == {"data_dir": "data", "checkpoint_dir": "ckpt"}
    cfg = cli._from_doc(TrainConfig, doc)
    assert cfg.model.intervals == (2, 4, 6, 8, 16) and cfg.augment is not None


def test_readme_cli_lines_parse():
    # each command line of the README, with and without its [optional] parts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pointcast ")]
    assert len(lines) == 5
    parser = cli.build_parser()
    for line in lines:
        for variant in (re.sub(r"\s*\[[^]]*\]", "", line), re.sub(r"[][]", "", line)):
            parser.parse_args(shlex.split(variant)[1:])


def test_train_and_eval_roundtrip(tmp_path, capsys):
    data = gen_data(tmp_path)
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "ck" / "model.json"
    assert ckpt.exists()
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
    out1 = capsys.readouterr().out
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2  # deterministic report
    report = json.loads(out1)
    assert report["n_scenes"] == 4


def test_eval_reports_the_restored_model(trained, capsys):
    _, data, ckpt = trained
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
    model = cli._restore_model(ckpt)
    plans = [scene_plan(normalize(s), model.config) for s in load_scene_dir(data)]
    assert capsys.readouterr().out == evaluate_model(model, plans)[1].to_json() + "\n"


def test_eval_takes_no_run_config(trained):
    tmp, data, ckpt = trained
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--config", str(tmp / "c.json"), "--ckpt", str(ckpt),
                  "--data", str(data)])
    assert exc.value.code == 2


def test_train_and_eval_on_csv_scenes(tmp_path, capsys):
    from test_scenes import argoverse_rows, write_csv

    data = gen_data(tmp_path)
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    for scene in load_scene_dir(data):
        write_csv(csv_dir / f"{scene.scene_id}.csv", argoverse_rows(scene, 0.0))
    cfg = write_config(tmp_path / "c.json", csv_dir, tmp_path / "ck", epochs=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(tmp_path / "ck" / "model.json"),
                     "--data", str(csv_dir)]) == 0
    assert json.loads(capsys.readouterr().out)["n_scenes"] == 4


def test_train_single_interval_override(tmp_path):
    data = gen_data(tmp_path)
    model = dict(TINY_MODEL, intervals=[2])
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck", model=model, epochs=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    _, manifest = load_checkpoint(tmp_path / "ck" / "model.json")
    assert list(manifest["config"]) == ["model"]
    assert manifest["config"]["model"]["intervals"] == [2]
    doc, _ = cli._load_run_config(cfg)
    assert (cli._from_doc(ModelConfig, manifest["config"]["model"])
            == cli._from_doc(TrainConfig, doc).model)


def test_train_byte_identical_checkpoints(tmp_path):
    data = gen_data(tmp_path)
    cfg_a = write_config(tmp_path / "a.json", data, tmp_path / "ck_a")
    cfg_b = write_config(tmp_path / "b.json", data, tmp_path / "ck_b")
    assert cli.main(["train", "--config", str(cfg_a)]) == 0
    assert cli.main(["train", "--config", str(cfg_b)]) == 0
    assert (tmp_path / "ck_a" / "model.bin").read_bytes() == (
        tmp_path / "ck_b" / "model.bin"
    ).read_bytes()


def test_eval_empty_data_dir_exit2(tmp_path):
    data = gen_data(tmp_path)
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck", epochs=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["eval", "--ckpt", str(tmp_path / "ck" / "model.json"),
                     "--data", str(empty)]) == 2


def test_eval_future_length_mismatch_exit2(tmp_path, capsys):
    # a model that regresses 12 steps, scored on gen-synthetic's 30-step futures
    cfg = write_config(tmp_path / "c.json", tmp_path, tmp_path / "ck", epochs=1,
                       model=dict(TINY_MODEL, future_steps=12))
    train_cfg = cli._from_doc(TrainConfig, cli._load_run_config(cfg)[0])
    train(gen_synthetic(2, seed=3, future_steps=12), train_cfg,
          checkpoint_path=tmp_path / "model")
    data = gen_data(tmp_path)
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(tmp_path / "model.json"), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "future has 30 steps, model regresses 12" in err


def test_eval_checkpoint_shape_mismatch_exit3(tmp_path, trained, capsys):
    # the manifest's model is not the one its arrays were trained as
    _, data, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, lambda m: {**m, "config": {
        "model": {**m["config"]["model"], "spatial_width": 16}}})
    assert cli.main(["eval", "--ckpt", bad, "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("checkpoint error:") and "model parameter shape" in err


# ---------------------------------------------------------------------------
# predict / plot


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trained")
    data = gen_data(tmp)
    cfg = write_config(tmp / "c.json", data, tmp / "ck", epochs=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return tmp, data, tmp / "ck" / "model.json"


def test_predict_output_contract(tmp_path, trained):
    tmp, data, ckpt = trained
    scene_file = sorted(data.glob("syn-*.json"))[0]
    out = tmp_path / "pred.json"
    assert cli.main(["predict", "--ckpt", str(ckpt), "--scene", str(scene_file),
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    trajs = np.asarray(doc["trajectories"])
    assert trajs.shape == (TINY_MODEL["n_modes"], TINY_MODEL["future_steps"], 2)
    assert len(doc["displacements"]) == TINY_MODEL["n_modes"]
    disp = doc["displacements"]
    assert disp == sorted(disp)  # ranked ascending


def test_predict_roundtrip_frame(tmp_path, trained):
    from pointcast.cli import _restore_model
    from pointcast.network import forward, rank_trajectories

    tmp, data, ckpt = trained
    scene_file = sorted(data.glob("syn-*.json"))[1]
    out = tmp_path / "pred.json"
    assert cli.main(["predict", "--ckpt", str(ckpt), "--scene", str(scene_file),
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    model = _restore_model(str(ckpt))
    scene = normalize(load_scene(scene_file))
    pred = forward(model, scene)
    order = rank_trajectories(pred)
    for rank, k in enumerate(order):
        renorm = scene.frame.apply(np.asarray(doc["trajectories"][rank]))
        np.testing.assert_allclose(renorm, pred.trajectories[k], atol=1e-9)


def test_plot_svg_structure(tmp_path, trained):
    tmp, data, ckpt = trained
    scene_file = sorted(data.glob("syn-*.json"))[0]
    pred_file = tmp_path / "pred.json"
    assert cli.main(["predict", "--ckpt", str(ckpt), "--scene", str(scene_file),
                     "--out", str(pred_file)]) == 0
    svg_path = tmp_path / "scene.svg"
    assert cli.main(["plot", "--scene", str(scene_file), "--pred", str(pred_file),
                     "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    paths = root.findall(".//{http://www.w3.org/2000/svg}path")
    classes = [p.get("class") for p in paths]
    assert classes.count("pred") == TINY_MODEL["n_modes"]
    assert classes.count("gt") == 1
    assert classes.count("history") == 1


@pytest.mark.parametrize("doc", [
    {"trajectories": [[1, 2]]},
    [1],
    {"trajectories": [[[float("nan"), 1], [2, 3]]]},
    {"trajectories": [[[10**400, 1], [2, 3]]]},
], ids=["not-3d", "not-object", "nan", "beyond-float"])
def test_plot_malformed_predictions_exit2(tmp_path, trained, capsys, doc):
    scene_file = sorted(trained[1].glob("syn-*.json"))[0]
    pred_file = tmp_path / "pred.json"
    pred_file.write_text(json.dumps(doc))
    svg_path = tmp_path / "scene.svg"
    assert cli.main(["plot", "--scene", str(scene_file), "--pred", str(pred_file),
                     "--out", str(svg_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not svg_path.exists()


def test_plot_without_future_no_red(tmp_path):
    from pointcast import gen_synthetic, save_scene

    scene = gen_synthetic(1, seed=40)[0]
    scene.future = None
    path = tmp_path / "s.json"
    save_scene(scene, path)
    svg_path = tmp_path / "s.svg"
    assert cli.main(["plot", "--scene", str(path), "--out", str(svg_path)]) == 0
    root = ET.fromstring(svg_path.read_text())
    classes = [p.get("class") for p in root.iter() if p.get("class")]
    assert "gt" not in classes


def test_plot_overflowing_extent_exit2(tmp_path, capsys):
    from pointcast import gen_synthetic, save_scene

    scene_file = tmp_path / "s.json"
    save_scene(gen_synthetic(1, seed=40)[0], scene_file)
    pred_file = tmp_path / "pred.json"
    pred_file.write_text(json.dumps({"trajectories": [[[1e308, 1e308], [-1e308, -1e308]]]}))
    svg_path = tmp_path / "scene.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["plot", "--scene", str(scene_file), "--pred", str(pred_file),
                         "--out", str(svg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(pred_file) in err
    assert not svg_path.exists()


@pytest.mark.parametrize("case, command", [
    (case, command) for case, (name, _, _) in MALFORMED_SCENE_FILES.items()
    for command in ("predict", "plot", "train")
    if command != "train" or name.endswith((".json", ".csv"))  # what train --data reads
])
def test_malformed_scene_file_exit2(tmp_path, trained, capsys, case, command):
    name, content, _ = MALFORMED_SCENE_FILES[case]
    data = tmp_path / "data"
    data.mkdir()
    path = data / name
    path.write_bytes(content)
    out = tmp_path / "out"
    argv = {
        "predict": ["predict", "--ckpt", str(trained[2]), "--scene", str(path), "--out", str(out)],
        "plot": ["plot", "--scene", str(path), "--out", str(out)],
        "train": ["train", "--config", str(write_config(tmp_path / "c.json", data, out)),
                  "--data", str(data)],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert err.count(str(path)) == 1
    assert not out.exists()


# each case: a command given an existing directory ``d`` where a file goes,
# or an existing file ``f`` where a directory goes
WRONG_KIND_PATHS = {
    "eval-csv-dir": lambda ckpt, scene, cfg, d, f: [
        "eval", "--ckpt", ckpt, "--data", str(scene.parent), "--per-scene-csv", d],
    "predict-out-dir": lambda ckpt, scene, cfg, d, f: [
        "predict", "--ckpt", ckpt, "--scene", str(scene), "--out", d],
    "predict-out-under-file": lambda ckpt, scene, cfg, d, f: [
        "predict", "--ckpt", ckpt, "--scene", str(scene), "--out", f + "/p.json"],
    "plot-out-dir": lambda ckpt, scene, cfg, d, f: [
        "plot", "--scene", str(scene), "--out", d],
    "train-out-file": lambda ckpt, scene, cfg, d, f: ["train", "--config", cfg, "--out", f],
    "train-log-dir": lambda ckpt, scene, cfg, d, f: ["train", "--config", cfg, "--log", d],
    "train-config-dir": lambda ckpt, scene, cfg, d, f: ["train", "--config", d],
    "gen-synthetic-out-file": lambda ckpt, scene, cfg, d, f: [
        "gen-synthetic", "--out", f, "--n", "1"],
}


@pytest.mark.parametrize("case", WRONG_KIND_PATHS)
def test_path_of_the_wrong_kind_exit2(tmp_path, trained, capsys, case):
    _, data, ckpt = trained
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck", epochs=1)
    d, f = tmp_path / "d", tmp_path / "f"
    d.mkdir()
    f.write_text("x")
    argv = WRONG_KIND_PATHS[case](str(ckpt), sorted(data.glob("syn-*.json"))[0], str(cfg),
                                  str(d), str(f))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "internal" not in captured.err
    assert captured.out == ""
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert files == ["c.json", "f"] and f.read_text() == "x"


@pytest.mark.parametrize("cut_bytes", [8, 3])  # a whole value, or mid-value
def test_predict_truncated_checkpoint_exit3(tmp_path, trained, capsys, cut_bytes):
    _, data, ckpt = trained
    copy = tmp_path / "model.json"
    copy.write_text(ckpt.read_text())
    blob = ckpt.with_suffix(".bin").read_bytes()
    copy.with_suffix(".bin").write_bytes(blob[:-cut_bytes])
    scene_file = sorted(data.glob("syn-*.json"))[0]
    assert cli.main(["predict", "--ckpt", str(copy), "--scene", str(scene_file),
                     "--out", str(tmp_path / "pred.json")]) == 3
    assert "model.bin" in capsys.readouterr().err


def _drop(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def _first_entry(edit):
    return lambda m: {**m, "arrays": [edit(m["arrays"][0]), *m["arrays"][1:]]}


# each case edits an otherwise valid manifest (the text is JSON unless it is a str)
MALFORMED_MANIFESTS = {
    "format-only": lambda m: {"format": m["format"]},
    "no-arrays": _drop("arrays"),
    "entry-no-shape": _first_entry(_drop("shape")),
    "entry-no-offset": _first_entry(_drop("offset")),
    "offset-string": _first_entry(lambda e: {**e, "offset": "0"}),
    "config-list": lambda m: {**m, "config": [1]},
    "top-level-list": lambda m: [m],
    # 2**64 values where the data ends, which an int64 product wraps to 0
    "shape-overflow": lambda m: {
        **m, "arrays": [*m["arrays"], {"name": "x", "shape": [2**32, 2**32],
                                       "offset": m["data_bytes"] // 8}]},
    "not-json": lambda m: "{not json",
    # a manifest without the data file's length and digest cannot verify it
    "no-digest": lambda m: {k: v for k, v in m.items() if k not in ("data_bytes", "data_sha256")},
    # both pass the digest: the data file is the one the manifest was written with
    "duplicate-name": lambda m: {**m, "arrays": [
        m["arrays"][0], {**m["arrays"][1], "name": m["arrays"][0]["name"]}, *m["arrays"][2:]]},
    "offset-overlap": lambda m: {**m, "arrays": [
        m["arrays"][0], {**m["arrays"][1], "offset": 0}, *m["arrays"][2:]]},
    # a reader of format version 1 reads no other
    "version-2": lambda m: {**m, "version": 2},
    "version-string": lambda m: {**m, "version": "1"},
    "version-null": lambda m: {**m, "version": None},
    "no-version": _drop("version"),
}


def _malformed_copy(ckpt, out_dir, edit):
    copy = out_dir / "model.json"
    copy.with_suffix(".bin").write_bytes(ckpt.with_suffix(".bin").read_bytes())
    doc = edit(json.loads(ckpt.read_text()))
    copy.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(copy)


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_predict_malformed_manifest_exit3(tmp_path, trained, capsys, case):
    _, data, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, MALFORMED_MANIFESTS[case])
    scene_file = sorted(data.glob("syn-*.json"))[0]
    assert cli.main(["predict", "--ckpt", bad, "--scene", str(scene_file),
                     "--out", str(tmp_path / "pred.json")]) == 3
    assert "checkpoint error:" in capsys.readouterr().err
    assert not (tmp_path / "pred.json").exists()


@pytest.mark.parametrize("case", ["duplicate-name", "offset-overlap"])
def test_eval_manifest_layout_fault_exit3(tmp_path, trained, capsys, case):
    tmp, data, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, MALFORMED_MANIFESTS[case])
    assert cli.main(["eval", "--ckpt", bad, "--data", str(data)]) == 3
    captured = capsys.readouterr()
    assert "checkpoint error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("edit", [_drop("global_step"), lambda m: {**m, "epoch": "x"}],
                         ids=["no-global-step", "epoch-string"])
def test_resume_malformed_manifest_exit3(tmp_path, trained, capsys, edit):
    tmp, _, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, edit)
    assert cli.main(["train", "--config", str(tmp / "c.json"), "--resume", bad,
                     "--epochs", "2", "--out", str(tmp_path / "resumed")]) == 3
    assert "checkpoint error:" in capsys.readouterr().err
    _assert_nothing_written(tmp_path)


@pytest.mark.parametrize("field, value", [
    ("grid_size", 0.2), ("radii", [1.6, 3.2]), ("intervals", [2]), ("n_stages", 2)])
def test_resume_with_another_model_exit3(tmp_path, trained, capsys, field, value):
    # the checkpoint's weights mean nothing under another geometry or stage count
    tmp, data, ckpt = trained
    out, log = tmp_path / "resumed", tmp_path / "log.jsonl"
    cfg = write_config(tmp_path / "c.json", data, out, model=dict(TINY_MODEL, **{field: value}))
    assert cli.main(["train", "--config", str(cfg), "--resume", str(ckpt),
                     "--log", str(log)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"checkpoint error: {ckpt}: the run's model.{field}, ")
    assert captured.out == ""
    assert not out.exists() and not log.exists()


@pytest.mark.parametrize("epochs", [1, 2])
def test_resume_past_last_epoch_exit2(tmp_path, trained, capsys, epochs):
    # the checkpoint holds epoch 0; with --epochs 1 there is nothing left, and a
    # second resume from the epoch-1 checkpoint of --epochs 2 is the same case
    tmp, _, ckpt = trained
    if epochs == 2:
        assert cli.main(["train", "--config", str(tmp / "c.json"), "--resume", str(ckpt),
                         "--epochs", "2", "--out", str(tmp_path / "two")]) == 0
        ckpt = tmp_path / "two" / "model.json"
        capsys.readouterr()
    out = tmp_path / "resumed"
    assert cli.main(["train", "--config", str(tmp / "c.json"), "--resume", str(ckpt),
                     "--epochs", str(epochs), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"epoch {epochs - 1} " in captured.err and f"epochs={epochs} " in captured.err
    assert captured.out == ""  # no {"checkpoint": ...} line naming a file never written
    assert not out.exists()


@pytest.mark.parametrize("csv", [False, True], ids=["report", "report+csv"])
def test_eval_scores_each_scene_once_per_cut_off(tmp_path, trained, capsys, monkeypatch, csv):
    tmp, data, ckpt = trained
    calls, score = [], metrics._scene_topk_errors
    monkeypatch.setattr(metrics, "_scene_topk_errors", lambda *a: calls.append(a) or score(*a))
    argv = ["eval", "--ckpt", str(ckpt), "--data", str(data)]
    if csv:
        argv += ["--per-scene-csv", str(tmp_path / "scenes.csv")]
    assert cli.main(argv) == 0
    n_scenes = json.loads(capsys.readouterr().out)["n_scenes"]
    # k=1 and k=6 per scene; the CSV writes the rows the report averaged
    assert n_scenes > 1 and len(calls) == 2 * n_scenes
    if csv:
        assert len((tmp_path / "scenes.csv").read_text().splitlines()) == n_scenes + 1


def _params_only_checkpoint(ckpt, out_dir):
    """A copy of ``ckpt`` without the optimizer moments, as an inference export would hold."""
    arrays, manifest = load_checkpoint(ckpt)
    out_dir.mkdir()
    params = {k: v for k, v in arrays.items() if k.startswith("params/")}
    return save_checkpoint(out_dir / "model", params, step=manifest["global_step"],
                           epoch=manifest["epoch"], config=manifest["config"])


def test_params_only_checkpoint_predicts_and_evals(tmp_path, trained, capsys):
    tmp, data, ckpt = trained
    lean = str(_params_only_checkpoint(ckpt, tmp_path / "lean"))
    scene_file = str(sorted(data.glob("syn-*.json"))[0])
    outputs = []
    for path in (str(ckpt), lean):
        out = tmp_path / "pred.json"
        assert cli.main(["predict", "--ckpt", path, "--scene", scene_file,
                         "--out", str(out)]) == 0
        assert cli.main(["eval", "--ckpt", path, "--data", str(data)]) == 0
        outputs.append((out.read_text(), capsys.readouterr().out.splitlines()[-1]))
    assert outputs[0] == outputs[1]


def test_params_only_checkpoint_resume_exit3(tmp_path, trained, capsys):
    tmp, _, ckpt = trained
    lean = str(_params_only_checkpoint(ckpt, tmp_path / "lean"))
    assert cli.main(["train", "--config", str(tmp / "c.json"), "--resume", lean,
                     "--epochs", "2", "--out", str(tmp_path / "resumed")]) == 3
    assert "optim/m/" in capsys.readouterr().err
    _assert_nothing_written(tmp_path)


def _patched_checkpoint(ckpt, out_dir, name, value, whole=False):
    """A copy of ``ckpt`` with ``value`` in the first (or every) entry of array ``name``.

    It is saved through ``save_checkpoint``, so its manifest's digest matches
    the patched data and the load reaches the check under test.
    """
    out_dir.mkdir()
    arrays, manifest = load_checkpoint(ckpt)
    arrays[name].reshape(-1)[: arrays[name].size if whole else 1] = value
    return save_checkpoint(out_dir / "model", arrays, step=manifest["global_step"],
                           epoch=manifest["epoch"], config=manifest["config"])


@pytest.mark.parametrize("command", ["predict", "eval", "train"])
def test_non_finite_checkpoint_exit3(tmp_path, trained, capsys, command):
    tmp, data, ckpt = trained
    bad = str(_patched_checkpoint(ckpt, tmp_path / "bad", "params/head/reg/l1/b", np.nan))
    argv = {
        "predict": ["predict", "--ckpt", bad, "--scene", str(sorted(data.glob("syn-*.json"))[0]),
                    "--out", str(tmp_path / "pred.json")],
        "eval": ["eval", "--ckpt", bad, "--data", str(data)],
        "train": ["train", "--config", str(tmp / "c.json"), "--resume", bad, "--epochs", "2",
                  "--out", str(tmp_path / "resumed")],
    }[command]
    assert cli.main(argv) == 3
    assert "params/head/reg/l1/b" in capsys.readouterr().err
    assert not (tmp_path / "pred.json").exists()
    assert not (tmp_path / "resumed" / "model.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["predict", "eval"])
def test_overflowing_checkpoint_exit3(tmp_path, trained, capsys, command):
    # every stored value is finite, but 1e308 weights drive the prediction past float range
    tmp, data, ckpt = trained
    bad = str(_patched_checkpoint(ckpt, tmp_path / "bad", "params/head/reg/l1/w", 1e308,
                                  whole=True))
    argv = {
        "predict": ["predict", "--ckpt", bad, "--scene", str(sorted(data.glob("syn-*.json"))[0]),
                    "--out", str(tmp_path / "pred.json")],
        "eval": ["eval", "--ckpt", bad, "--data", str(data),
                 "--per-scene-csv", str(tmp_path / "scenes.csv")],
    }[command]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "NaN" not in captured.out + captured.err
    assert "Infinity" not in captured.out + captured.err
    assert not (tmp_path / "pred.json").exists()
    assert not (tmp_path / "scenes.csv").exists()


def _checkpoint_argv(command, tmp, data, ckpt, out_dir):
    """``command`` reading checkpoint ``ckpt`` with the ``trained`` fixture's config and scenes."""
    return {
        "predict": ["predict", "--ckpt", str(ckpt), "--scene",
                    str(sorted(data.glob("syn-*.json"))[0]), "--out", str(out_dir / "pred.json")],
        "eval": ["eval", "--ckpt", str(ckpt), "--data", str(data),
                 "--per-scene-csv", str(out_dir / "scenes.csv")],
        "train": ["train", "--config", str(tmp / "c.json"), "--resume", str(ckpt), "--epochs",
                  "2", "--out", str(out_dir / "resumed")],
    }[command]


def _assert_nothing_written(out_dir):
    """No output of a refused command exists: no file, and no directory a train would make."""
    assert not any((out_dir / name).exists() for name in ("pred.json", "scenes.csv", "resumed"))


@pytest.mark.parametrize("command", ["predict", "eval", "train"])
def test_checkpoint_with_an_extra_stage_exit3(tmp_path, trained, capsys, command):
    # every array of the fixture's one-stage model is there with its shape,
    # beside a second stage's arrays: they must not be dropped in silence
    tmp, data, _ = trained
    cfg = write_config(tmp_path / "c2.json", data, tmp_path / "ck2", epochs=1,
                       model=dict(TINY_MODEL, n_stages=2))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "ck2" / "model.json"
    doc = json.loads(ckpt.read_text())  # every command builds the model its manifest records
    doc["config"]["model"]["n_stages"] = 1
    ckpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(_checkpoint_argv(command, tmp, data, ckpt, tmp_path)) == 3
    kept = "optim/m/" if command == "train" else "params/"  # the first name in order
    assert f"checkpoint has array '{kept}stage1/" in capsys.readouterr().err
    _assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_manifest_number_beyond_float_exit3(tmp_path, trained, capsys, command):
    tmp, data, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, lambda m: {
        **m, "config": {"model": {**m["config"]["model"], "grid_size": 10**400}}})
    assert cli.main(_checkpoint_argv(command, tmp, data, bad, tmp_path)) == 3
    assert "model.grid_size must be a finite number" in capsys.readouterr().err
    _assert_nothing_written(tmp_path)


def test_manifest_with_the_whole_run_config_predicts_and_evals(tmp_path, trained, capsys):
    # older manifests hold the whole TrainConfig document; only its model is read
    tmp, data, ckpt = trained
    run_doc, _ = cli._load_run_config(tmp / "c.json")
    (tmp_path / "old").mkdir()
    old = _malformed_copy(ckpt, tmp_path / "old",
                          lambda m: {**m, "config": {**run_doc, "model": m["config"]["model"]}})
    outputs = []
    for path in (str(ckpt), old):
        for command in ("predict", "eval"):
            assert cli.main(_checkpoint_argv(command, tmp, data, path, tmp_path)) == 0
        report = capsys.readouterr().out.splitlines()[-1]
        outputs.append([report] + [(tmp_path / n).read_text() for n in ("pred.json", "scenes.csv")])
    assert outputs[0] == outputs[1]


def _flipped_byte_copy(ckpt, out_dir):
    out_dir.mkdir()
    blob = bytearray(ckpt.with_suffix(".bin").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (out_dir / "model.bin").write_bytes(bytes(blob))
    (out_dir / "model.json").write_text(ckpt.read_text())
    return out_dir / "model.json"


def _manifest_only_copy(ckpt, out_dir):
    out_dir.mkdir()
    (out_dir / "model.json").write_text(ckpt.read_text())
    return out_dir / "model.json"


def _truncated_copy(ckpt, out_dir):
    out_dir.mkdir()
    (out_dir / "model.bin").write_bytes(ckpt.with_suffix(".bin").read_bytes()[:-8])
    (out_dir / "model.json").write_text(ckpt.read_text())
    return out_dir / "model.json"


# each fault: a faulty copy of a checkpoint, and what the error names
CHECKPOINT_DATA_FAULTS = {
    "flipped-byte": (_flipped_byte_copy, "digest"),
    "truncated": (_truncated_copy, "model.bin"),
    "no-data-file": (_manifest_only_copy, "model.bin: missing, or not a regular file"),
    # inference drops the optimizer moments, but only after verifying them
    "non-finite-optim-v": (lambda ckpt, out_dir: _patched_checkpoint(
        ckpt, out_dir, "optim/v/head/reg/l1/b", np.nan), "'optim/v/head/reg/l1/b' is not finite"),
}


@pytest.mark.parametrize("fault", CHECKPOINT_DATA_FAULTS)
@pytest.mark.parametrize("command", ["predict", "eval", "train"])
def test_checkpoint_data_fault_exit3(tmp_path, trained, capsys, command, fault):
    tmp, data, ckpt = trained
    copy, error = CHECKPOINT_DATA_FAULTS[fault]
    bad = copy(ckpt, tmp_path / "bad")
    assert cli.main(_checkpoint_argv(command, tmp, data, bad, tmp_path)) == 3
    assert error in capsys.readouterr().err
    _assert_nothing_written(tmp_path)


def test_resume_from_a_copied_pair(tmp_path, trained):
    # keeping an epoch's weights is copying the pair to another stem; training
    # then rewrites model.json and model.bin in place, and the copy still resumes
    tmp, _, ckpt = trained
    for stem in ("model", "snap"):
        for suffix in (".json", ".bin"):
            shutil.copyfile(ckpt.with_suffix(suffix), tmp_path / (stem + suffix))
    resume = ["train", "--config", str(tmp / "c.json"), "--epochs", "2", "--resume"]
    assert cli.main(resume + [str(tmp_path / "model.json"), "--out", str(tmp_path)]) == 0
    assert cli.main(resume + [str(tmp_path / "snap.json"), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "model.bin").read_bytes() == (tmp_path / "model.bin").read_bytes()


def test_restore_model_peak_memory_is_the_model_and_the_buffer(tmp_path):
    import tracemalloc

    from pointcast import network
    from pointcast.checkpoint import READ_BUFFER_BYTES
    from pointcast.optim import adam_init

    cfg = TrainConfig()  # a data file of about 20 MB, 6.7 MB of it parameters
    model = network.init_model(cfg.model, seed=3)
    ckpt = network.save_train_checkpoint(tmp_path / "model", model, adam_init(model.params),
                                         epoch=0)
    size = ckpt.with_suffix(".bin").stat().st_size
    model_bytes = sum(t.data.nbytes for t in model.params.values())
    tracemalloc.start()
    try:
        restored = cli._restore_model(ckpt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beside the model and the buffer, the parsed manifest and init_model's temporaries
    bound = model_bytes + READ_BUFFER_BYTES + 3 * 2**19
    assert peak <= bound < model_bytes + size / 4, (peak, bound, size)
    assert all(restored.params[k].data.tobytes() == t.data.tobytes()
               for k, t in model.params.items())


def _corrupt_nontarget_point(doc):
    other = next(a for a in doc["agents"] if a["id"] != doc["target_id"])
    other["points"][0][1] = float("nan")


def _corrupt_target_last(doc):
    target = next(a for a in doc["agents"] if a["id"] == doc["target_id"])
    target["points"][-1][2] = float("nan")


def _corrupt_future(doc):
    doc["future"][5][0] = float("inf")


@pytest.mark.parametrize("corrupt", [_corrupt_nontarget_point, _corrupt_target_last,
                                     _corrupt_future])
def test_eval_non_finite_scene_exit2(tmp_path, trained, capsys, corrupt):
    tmp, data, ckpt = trained
    doc = json.loads(sorted(data.glob("syn-*.json"))[0].read_text())
    corrupt(doc)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "scene.json").write_text(json.dumps(doc))
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(bad)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_resume_matches_uninterrupted(tmp_path):
    data = gen_data(tmp_path)
    cfg4 = write_config(tmp_path / "c4.json", data, tmp_path / "full", epochs=4)
    assert cli.main(["train", "--config", str(cfg4)]) == 0
    cfg2 = write_config(tmp_path / "c2.json", data, tmp_path / "half", epochs=2)
    assert cli.main(["train", "--config", str(cfg2)]) == 0
    cfg_res = write_config(tmp_path / "cr.json", data, tmp_path / "resumed", epochs=4)
    assert cli.main(["train", "--config", str(cfg_res),
                     "--resume", str(tmp_path / "half" / "model.json")]) == 0
    assert (tmp_path / "full" / "model.bin").read_bytes() == (
        tmp_path / "resumed" / "model.bin"
    ).read_bytes()
