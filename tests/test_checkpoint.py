import hashlib
import json
import os

import numpy as np
import pytest

from pointcast import autodiff as ad
from pointcast import checkpoint
from pointcast.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint,
    restore_into,
    save_checkpoint,
)


def test_roundtrip_exact(tmp_path, rng):
    arrays = {
        "b/second": rng.normal(size=(3, 4)),
        "a/first": rng.normal(size=(1, 7)),
    }
    manifest_path = save_checkpoint(tmp_path / "ck", arrays, step=42, epoch=3,
                                    config={"lr": 0.001})
    loaded, manifest = load_checkpoint(manifest_path)
    assert manifest["global_step"] == 42
    assert manifest["epoch"] == 3
    assert manifest["config"] == {"lr": 0.001}
    for name, arr in arrays.items():
        np.testing.assert_array_equal(loaded[name], arr)  # float64 is exact


def test_binary_is_little_endian_float64(tmp_path):
    arrays = {"x": np.array([[1.0, 2.0]])}
    save_checkpoint(tmp_path / "ck", arrays, step=0)
    raw = np.frombuffer((tmp_path / "ck.bin").read_bytes(), dtype="<f8")
    np.testing.assert_array_equal(raw, [1.0, 2.0])


def test_same_state_same_bytes(tmp_path, rng):
    arrays = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=(1, 4))}
    save_checkpoint(tmp_path / "a", arrays, step=1, config={"seed": 0})
    save_checkpoint(tmp_path / "b", dict(reversed(arrays.items())), step=1,
                    config={"seed": 0})
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_restore_shape_mismatch_names_parameter(tmp_path, rng):
    arrays = {"params/w": rng.normal(size=(3, 3))}
    save_checkpoint(tmp_path / "ck", arrays, step=0)
    loaded, _ = load_checkpoint(tmp_path / "ck.json")
    params = {"w": ad.parameter(np.zeros((2, 3)))}
    with pytest.raises(CheckpointMismatchError, match="'w'"):
        restore_into(params, loaded)


def test_restore_missing_parameter(tmp_path):
    save_checkpoint(tmp_path / "ck", {}, step=0)
    loaded, _ = load_checkpoint(tmp_path / "ck.json")
    with pytest.raises(CheckpointMismatchError, match="missing"):
        restore_into({"w": ad.parameter(np.zeros((1, 1)))}, loaded)


def test_load_rejects_foreign_file(tmp_path):
    (tmp_path / "x.json").write_text('{"format": "something-else"}')
    with pytest.raises(CheckpointMismatchError):
        load_checkpoint(tmp_path / "x.json")


class _FailingFile:
    """A binary file that accepts one write and then fails, like a full disk."""

    def __init__(self, path):
        self._fh = open(path, "wb")
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("no space left on device")
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fail_data_write(monkeypatch):
    monkeypatch.setattr(checkpoint, "open", lambda path, mode: _FailingFile(path), raising=False)
    return {}


def _fail_manifest(monkeypatch):
    return {"config": {"bad": object()}}  # the manifest cannot be serialized


def _fail_rename(monkeypatch):
    def replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(checkpoint.os, "replace", replace)
    return {}


@pytest.mark.parametrize("inject", [_fail_data_write, _fail_manifest, _fail_rename])
def test_failed_save_keeps_previous_checkpoint(tmp_path, rng, monkeypatch, inject):
    old = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 2))}
    save_checkpoint(tmp_path / "ck", old, step=1, epoch=1, config={"lr": 0.1})
    before = {name: (tmp_path / name).read_bytes() for name in ("ck.json", "ck.bin")}
    new = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 2))}
    kwargs = inject(monkeypatch)
    with pytest.raises((OSError, TypeError)):
        save_checkpoint(tmp_path / "ck", new, step=2, epoch=2, **kwargs)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["ck.bin", "ck.json"]  # no temporary left
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    loaded, manifest = load_checkpoint(tmp_path / "ck.json")
    assert manifest["global_step"] == 1
    for name, arr in old.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_manifest_records_data_length_and_digest(tmp_path, rng):
    save_checkpoint(tmp_path / "ck", {"w": rng.normal(size=(2, 3))}, step=0)
    data = (tmp_path / "ck.bin").read_bytes()
    manifest = json.loads((tmp_path / "ck.json").read_text())
    assert manifest["data_bytes"] == len(data) == 48
    assert manifest["data_sha256"] == hashlib.sha256(data).hexdigest()
    # a manifest written before these keys existed still loads
    del manifest["data_bytes"], manifest["data_sha256"]
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    loaded, _ = load_checkpoint(tmp_path / "ck.json")
    np.testing.assert_array_equal(loaded["w"], np.frombuffer(data, dtype="<f8").reshape(2, 3))


def test_failed_manifest_rename_rejects_new_data(tmp_path, rng, monkeypatch):
    # new data renamed into place under the old manifest: same length, other bytes
    save_checkpoint(tmp_path / "ck", {"a": rng.normal(size=(3, 4))}, step=1, epoch=1)
    rename = os.replace

    def replace(src, dst):
        if str(dst).endswith(".json"):
            raise OSError("rename failed")
        rename(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", replace)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "ck", {"a": rng.normal(size=(3, 4))}, step=2, epoch=2)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["ck.bin", "ck.json"]
    with pytest.raises(CheckpointMismatchError, match="digest"):
        load_checkpoint(tmp_path / "ck.json")
