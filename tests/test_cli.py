import json
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pointcast import TrainConfig, cli, load_scene, normalize
from pointcast.checkpoint import load_checkpoint, save_checkpoint

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


@pytest.mark.parametrize("overrides, term", [
    ({"batch_size": 2, "eval_every": 0}, "non-finite loss"),  # the second batch's loss
    ({"batch_size": 4, "eval_every": 1}, "non-finite minADE1"),  # the end-of-epoch evaluation
])
def test_train_diverged_exit2(tmp_path, trained, capsys, overrides, term):
    cfg = write_config(tmp_path / "c.json", trained[1], tmp_path / "ck", epochs=1, lr=1e300,
                       **overrides)
    assert cli.main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged:") and term in err
    assert not (tmp_path / "ck" / "model.json").exists()


def test_readme_run_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## CLI", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.json").write_text(example)
    doc, paths = cli._load_run_config(tmp_path / "run.json")
    assert paths == {"data_dir": "data", "checkpoint_dir": "ckpt"}
    cfg = cli._from_doc(TrainConfig, doc)
    assert cfg.model.intervals == (2, 4, 6, 8, 16) and cfg.augment is not None
    assert cli._from_doc(TrainConfig, cli._to_doc(cfg)) == cfg


def test_train_and_eval_roundtrip(tmp_path, capsys):
    data = gen_data(tmp_path)
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    ckpt = tmp_path / "ck" / "model.json"
    assert ckpt.exists()
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(cfg), "--ckpt", str(ckpt),
                     "--data", str(data)]) == 0
    out1 = capsys.readouterr().out
    assert cli.main(["eval", "--config", str(cfg), "--ckpt", str(ckpt),
                     "--data", str(data)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2  # deterministic report
    report = json.loads(out1)
    assert report["n_scenes"] == 4


def test_train_single_interval_override(tmp_path):
    data = gen_data(tmp_path)
    model = dict(TINY_MODEL, intervals=[2])
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck", model=model, epochs=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    _, manifest = load_checkpoint(tmp_path / "ck" / "model.json")
    assert manifest["config"]["model"]["intervals"] == [2]
    doc, _ = cli._load_run_config(cfg)
    assert cli._from_doc(TrainConfig, manifest["config"]) == cli._from_doc(TrainConfig, doc)


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
    assert cli.main(["eval", "--config", str(cfg), "--ckpt",
                     str(tmp_path / "ck" / "model.json"), "--data", str(empty)]) == 2


def test_eval_checkpoint_shape_mismatch_exit3(tmp_path, capsys):
    data = gen_data(tmp_path)
    cfg = write_config(tmp_path / "c.json", data, tmp_path / "ck", epochs=1)
    assert cli.main(["train", "--config", str(cfg)]) == 0
    other_model = dict(TINY_MODEL, spatial_width=16)
    cfg2 = write_config(tmp_path / "c2.json", data, tmp_path / "ck2", model=other_model)
    assert cli.main(["eval", "--config", str(cfg2), "--ckpt",
                     str(tmp_path / "ck" / "model.json"), "--data", str(data)]) == 3
    assert "parameter" in capsys.readouterr().err


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
], ids=["not-3d", "not-object", "nan"])
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
    # 2**64 values, which an int64 product wraps to 0
    "shape-overflow": lambda m: {
        **m, "arrays": [*m["arrays"], {"name": "x", "shape": [2**32, 2**32], "offset": 0}]},
    "not-json": lambda m: "{not json",
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


@pytest.mark.parametrize("edit", [_drop("global_step"), lambda m: {**m, "epoch": "x"}],
                         ids=["no-global-step", "epoch-string"])
def test_resume_malformed_manifest_exit3(tmp_path, trained, capsys, edit):
    tmp, _, ckpt = trained
    bad = _malformed_copy(ckpt, tmp_path, edit)
    assert cli.main(["train", "--config", str(tmp / "c.json"), "--resume", bad,
                     "--epochs", "2", "--out", str(tmp_path / "resumed")]) == 3
    assert "checkpoint error:" in capsys.readouterr().err
    assert not (tmp_path / "resumed" / "model.json").exists()


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
    assert not (out / "model.json").exists() and not (out / "train_log.jsonl").exists()


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
        assert cli.main(["eval", "--config", str(tmp / "c.json"), "--ckpt", path,
                         "--data", str(data)]) == 0
        outputs.append((out.read_text(), capsys.readouterr().out.splitlines()[-1]))
    assert outputs[0] == outputs[1]


def test_params_only_checkpoint_resume_exit3(tmp_path, trained, capsys):
    tmp, _, ckpt = trained
    lean = str(_params_only_checkpoint(ckpt, tmp_path / "lean"))
    assert cli.main(["train", "--config", str(tmp / "c.json"), "--resume", lean,
                     "--epochs", "2", "--out", str(tmp_path / "resumed")]) == 3
    assert "optim/m/" in capsys.readouterr().err
    assert not (tmp_path / "resumed" / "model.json").exists()


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
        "eval": ["eval", "--config", str(tmp / "c.json"), "--ckpt", bad, "--data", str(data)],
        "train": ["train", "--config", str(tmp / "c.json"), "--resume", bad, "--epochs", "2",
                  "--out", str(tmp_path / "resumed")],
    }[command]
    assert cli.main(argv) == 3
    assert "params/head/reg/l1/b" in capsys.readouterr().err
    assert not (tmp_path / "pred.json").exists()
    assert not (tmp_path / "resumed" / "model.json").exists()


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_overflowing_checkpoint_exit3(tmp_path, trained, capsys, command):
    # every stored value is finite, but 1e308 weights drive the prediction past float range
    tmp, data, ckpt = trained
    bad = str(_patched_checkpoint(ckpt, tmp_path / "bad", "params/head/reg/l1/w", 1e308,
                                  whole=True))
    argv = {
        "predict": ["predict", "--ckpt", bad, "--scene", str(sorted(data.glob("syn-*.json"))[0]),
                    "--out", str(tmp_path / "pred.json")],
        "eval": ["eval", "--config", str(tmp / "c.json"), "--ckpt", bad, "--data", str(data),
                 "--per-scene-csv", str(tmp_path / "scenes.csv")],
    }[command]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "NaN" not in captured.out + captured.err
    assert "Infinity" not in captured.out + captured.err
    assert not (tmp_path / "pred.json").exists()
    assert not (tmp_path / "scenes.csv").exists()


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
    assert cli.main(["eval", "--config", str(tmp / "c.json"), "--ckpt", str(ckpt),
                     "--data", str(bad)]) == 2
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
