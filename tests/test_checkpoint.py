import dataclasses
import hashlib
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pointcast import checkpoint, gen_synthetic, network
from pointcast.checkpoint import (
    CheckpointMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from pointcast.optim import adam_init


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


def test_dotted_stems_keep_their_own_files(tmp_path, rng):
    saved = {stem: {"x": rng.normal(size=(2, 3))} for stem in ("model.v1", "model.v2")}
    for step, (stem, arrays) in enumerate(saved.items()):
        manifest_path = save_checkpoint(tmp_path / stem, arrays, step=step)
        assert manifest_path == tmp_path / f"{stem}.json"
    for step, (stem, arrays) in enumerate(saved.items()):
        # the stem, its manifest and its data file all name the same checkpoint
        for path in (stem, f"{stem}.json", f"{stem}.bin"):
            loaded, manifest = load_checkpoint(tmp_path / path)
            assert manifest["global_step"] == step
            np.testing.assert_array_equal(loaded["x"], arrays["x"])


@pytest.mark.parametrize("then", ["overwritten", "deleted"])
def test_a_copied_pair_loads_its_own_data_file(tmp_path, rng, then):
    # keeping one epoch's weights is copying model.json and model.bin to another stem
    kept = {"x": rng.normal(size=(2, 3))}
    original = save_checkpoint(tmp_path / "model", kept, step=1)
    for suffix in (".json", ".bin"):
        shutil.copyfile(original.with_suffix(suffix), tmp_path / f"snap{suffix}")
    if then == "overwritten":
        save_checkpoint(tmp_path / "model", {"x": rng.normal(size=(2, 3))}, step=2)
    else:
        for suffix in (".json", ".bin"):
            original.with_suffix(suffix).unlink()
    loaded, manifest = load_checkpoint(tmp_path / "snap.json")
    assert manifest["global_step"] == 1 and loaded["x"].tobytes() == kept["x"].tobytes()


@pytest.mark.parametrize("data_file", ["", ".", "../x/model.bin", "absolute", "other.bin"])
def test_an_older_manifests_data_file_is_ignored(tmp_path, rng, data_file):
    # each name is a directory or another checkpoint's data, which a load that
    # followed the key would refuse or, from another file, read in silence
    kept, other = {"x": rng.normal(size=(2, 3))}, {"x": rng.normal(size=(2, 3))}
    (tmp_path / "a").mkdir()
    (tmp_path / "x").mkdir()
    manifest_path = save_checkpoint(tmp_path / "a" / "model", kept)
    save_checkpoint(tmp_path / "a" / "other", other)
    save_checkpoint(tmp_path / "x" / "model", other)
    doc = json.loads(manifest_path.read_text())
    doc["data_file"] = str(tmp_path / "x" / "model.bin") if data_file == "absolute" else data_file
    manifest_path.write_text(json.dumps(doc))
    loaded, _ = load_checkpoint(manifest_path)
    assert loaded["x"].tobytes() == kept["x"].tobytes()


@pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["missing", "directory"])
def test_load_refuses_a_manifest_without_its_data_file(tmp_path, rng, make):
    manifest_path = save_checkpoint(tmp_path / "model", {"x": rng.normal(size=(2, 3))})
    data_path = tmp_path / "model.bin"
    data_path.unlink()
    make(data_path)
    with pytest.raises(CheckpointMismatchError,
                       match=re.escape(f"{data_path}: missing, or not a regular file")):
        load_checkpoint(manifest_path)


@pytest.mark.parametrize("version", [2, "1", None, "absent", 1.0, True])
def test_load_refuses_another_format_version(tmp_path, rng, version):
    manifest_path = save_checkpoint(tmp_path / "model", {"x": rng.normal(size=(2, 3))})
    doc = json.loads(manifest_path.read_text())
    if version == "absent":
        del doc["version"]
    else:
        doc["version"] = version
    manifest_path.write_text(json.dumps(doc))
    found = "null" if version == "absent" else json.dumps(version)
    with pytest.raises(CheckpointMismatchError, match=re.escape(f"version {found}, not 1")):
        load_checkpoint(manifest_path)


def test_train_returns_the_manifest_it_saved(tmp_path):
    data = gen_synthetic(2, seed=0, future_steps=TINY.future_steps)
    cfg = network.TrainConfig(model=TINY, epochs=1, batch_size=2, augment=None, eval_every=0)
    result = network.train(data, cfg, checkpoint_path=tmp_path / "run.v1")
    assert result.checkpoint_path == tmp_path / "run.v1.json"
    arrays, manifest = load_checkpoint(result.checkpoint_path)
    assert manifest["epoch"] == 0
    for name, t in result.model.params.items():
        np.testing.assert_array_equal(arrays[f"params/{name}"], t.data)


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
    dest = np.zeros((2, 3))
    with pytest.raises(CheckpointMismatchError, match="'params/w'.*parameter shape"):
        load_checkpoint(tmp_path / "ck.json", into={"params/w": dest})
    assert not dest.any()


def test_restore_missing_parameter(tmp_path):
    save_checkpoint(tmp_path / "ck", {}, step=0)
    with pytest.raises(CheckpointMismatchError, match="missing array 'w'"):
        load_checkpoint(tmp_path / "ck.json", into={"w": np.zeros((1, 1))})


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
    # a manifest without either key cannot verify its data, so it does not load
    for key in ("data_bytes", "data_sha256"):
        (tmp_path / "ck.json").write_text(json.dumps({k: v for k, v in manifest.items()
                                                      if k != key}))
        with pytest.raises(CheckpointMismatchError, match=key):
            load_checkpoint(tmp_path / "ck.json")


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


def _edit_manifest(manifest_path, edit):
    doc = json.loads(manifest_path.read_text())
    edit(doc["arrays"])
    manifest_path.write_text(json.dumps(doc))


def _two_arrays(tmp_path, rng):
    # a and b have the same shape, so either fault below keeps the data length right
    return save_checkpoint(tmp_path / "ck", {"a": rng.normal(size=(2, 3)),
                                             "b": np.zeros((2, 3))}, step=0)


def test_load_rejects_a_repeated_array_name(tmp_path, rng):
    manifest_path = _two_arrays(tmp_path, rng)
    _edit_manifest(manifest_path, lambda entries: entries[1].update(name="a"))
    (tmp_path / "ck.bin").unlink()  # rejected before the data file is read
    with pytest.raises(CheckpointMismatchError, match="'a' is listed twice"):
        load_checkpoint(manifest_path)


def test_load_rejects_offsets_that_do_not_tile_the_data(tmp_path, rng):
    manifest_path = _two_arrays(tmp_path, rng)
    _edit_manifest(manifest_path, lambda entries: entries[1].update(offset=0))
    (tmp_path / "ck.bin").unlink()  # rejected before the data file is read
    with pytest.raises(CheckpointMismatchError, match="'b' starts at value 0, not at 6"):
        load_checkpoint(manifest_path)


def test_load_rejects_a_data_length_the_arrays_do_not_fill(tmp_path, rng):
    manifest_path = _two_arrays(tmp_path, rng)
    doc = json.loads(manifest_path.read_text())
    doc["data_bytes"] += 8
    manifest_path.write_text(json.dumps(doc))
    (tmp_path / "ck.bin").unlink()  # rejected before the data file is read
    with pytest.raises(CheckpointMismatchError, match="data_bytes is 104, arrays list 12 values"):
        load_checkpoint(manifest_path)


def test_load_peak_memory_is_one_copy_of_the_data(tmp_path, rng):
    import tracemalloc

    arrays = {f"w{i}": rng.normal(size=(300, 100 + 50 * i)) for i in range(6)}
    arrays["one"] = rng.normal(size=(1, 1))
    manifest_path = save_checkpoint(tmp_path / "ck", arrays, step=0)
    size = (tmp_path / "ck.bin").stat().st_size
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(manifest_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size <= peak <= 1.05 * size, (peak, size)
    assert all(loaded[k].tobytes() == v.tobytes() for k, v in arrays.items())


# ---------------------------------------------------------------------------
# loading into destinations


def test_load_into_fills_each_destination_in_place(tmp_path, rng):
    arrays = {"params/a": rng.normal(size=(2, 3)), "params/b": rng.normal(size=4),
              "optim/m/a": rng.normal(size=(2, 3))}
    save_checkpoint(tmp_path / "ck", arrays, step=5)
    into = {"params/a": np.zeros((2, 3)), "params/b": np.zeros(4)}
    dests = dict(into)
    loaded, manifest = load_checkpoint(tmp_path / "ck.json", into=into)
    assert loaded is into and manifest["global_step"] == 5
    for name, dest in dests.items():  # the same arrays, filled; optim/m/a is dropped
        assert loaded[name] is dest and dest.tobytes() == arrays[name].tobytes()


def test_load_into_refuses_an_extra_array_of_its_groups(tmp_path, rng):
    save_checkpoint(tmp_path / "ck", {"params/a": rng.normal(size=2),
                                      "params/b": rng.normal(size=2)}, step=0)
    dest = np.zeros(2)
    with pytest.raises(CheckpointMismatchError, match="has array 'params/b'"):
        load_checkpoint(tmp_path / "ck.json", into={"params/a": dest})
    assert not dest.any()


def test_load_into_verifies_the_arrays_it_drops(tmp_path, rng):
    save_checkpoint(tmp_path / "ck", {"optim/v/a": np.array([1.0, np.inf]),
                                      "params/a": rng.normal(size=2)}, step=0)
    dest = np.zeros(2)
    with pytest.raises(CheckpointMismatchError, match="'optim/v/a' is not finite"):
        load_checkpoint(tmp_path / "ck.json", into={"params/a": dest})
    assert not dest.any()


def _read_only(shape):
    arr = np.zeros(shape)
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("make", [
    lambda: np.zeros((3, 2)).T,                     # not C-contiguous
    lambda: np.zeros((2, 6))[:, ::2],               # strided
    lambda: np.zeros((2, 3), dtype=np.float32),     # not float64
    lambda: np.zeros((2, 3), dtype=">f8" if np.little_endian else "<f8"),  # not native
    lambda: _read_only((2, 3)),
], ids=["transposed", "strided", "float32", "byte-swapped", "read-only"])
def test_load_into_refuses_an_unfit_destination(tmp_path, rng, make):
    save_checkpoint(tmp_path / "ck", {"w": rng.normal(size=(2, 3))}, step=0)
    dest = make()
    with pytest.raises(ValueError, match="'w' is not a writeable C-contiguous float64"):
        load_checkpoint(tmp_path / "ck.json", into={"w": dest})
    assert not dest.any()


def test_load_swaps_bytes_after_hashing_on_a_big_endian_host(tmp_path, rng, monkeypatch):
    # on this host the swap garbles the values; what matters is that the
    # digest, taken before the swap, still verifies
    arr = rng.normal(size=(2, 3))
    save_checkpoint(tmp_path / "ck", {"w": arr}, step=0)
    monkeypatch.setattr(checkpoint.sys, "byteorder", "big")
    loaded, _ = load_checkpoint(tmp_path / "ck.json")
    assert loaded["w"].tobytes() == arr.byteswap().tobytes()


def test_load_refuses_data_that_changes_after_it_was_verified(tmp_path, rng, monkeypatch):
    save_checkpoint(tmp_path / "ck", {"w": rng.normal(size=(2, 3))}, step=0)
    verify = checkpoint._verify

    def verify_then_rewrite(fh, *args):
        digest = verify(fh, *args)
        with open(tmp_path / "ck.bin", "r+b") as other:  # same inode, same length
            other.write(b"\0" * 8)
        return digest

    monkeypatch.setattr(checkpoint, "_verify", verify_then_rewrite)
    with pytest.raises(CheckpointMismatchError, match="changed while it was being read"):
        load_checkpoint(tmp_path / "ck.json", into={"w": np.zeros((2, 3))})


TINY = network.ModelConfig(n_stages=1, intervals=(2, 4), radii=(0.4, 0.8), grid_size=0.4,
                           n_modes=3, future_steps=5, embed_width=8, radius_width=8,
                           pointwise_width=8, voxel_width=8, spatial_width=12,
                           interval_width=8, temporal_width=12, head_width=12)


def _trained_state(cfg, seed):
    """A model and Adam state whose arrays all differ from a fresh init's."""
    model = network.init_model(cfg, seed)
    state = adam_init(model.params)
    state.flat[...] = np.random.default_rng(seed).uniform(0.5, 1.0, size=state.flat.shape)
    state.step = 7
    return model, state


def _flip_byte(manifest_path):
    data_path = manifest_path.with_suffix(".bin")
    blob = bytearray(data_path.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    data_path.write_bytes(bytes(blob))


def _truncate(manifest_path):
    data_path = manifest_path.with_suffix(".bin")
    data_path.write_bytes(data_path.read_bytes()[:-8])


# each fault: (model config the checkpoint is saved from, edit of the saved files, error)
RESTORE_FAULTS = {
    "extra-array": (dataclasses.replace(TINY, n_stages=2), None, "has array 'optim/m/stage1/"),
    "missing-array": (TINY, "drop", "missing array 'optim/v/embed/l0/b'"),
    "shape": (dataclasses.replace(TINY, head_width=16), None, "parameter shape"),
    "flipped-byte": (TINY, _flip_byte, "digest"),
    "truncated": (TINY, _truncate, "bytes"),
    "non-finite-optim-v": (TINY, "nan", "'optim/v/head/reg/l1/b' is not finite"),
}


@pytest.mark.parametrize("fault", RESTORE_FAULTS)
def test_restore_fault_writes_no_destination(tmp_path, fault):
    cfg, edit, error = RESTORE_FAULTS[fault]
    model, state = _trained_state(cfg, seed=1)
    if edit == "nan":
        state.v["head/reg/l1/b"][0, 0] = np.nan
    arrays = network._optimizer_arrays(model, state)
    if edit == "drop":
        del arrays["optim/v/embed/l0/b"]
    manifest_path = save_checkpoint(tmp_path / "ck", arrays, step=state.step, epoch=0)
    if callable(edit):
        edit(manifest_path)
    fresh, fresh_state = _trained_state(TINY, seed=2)
    before = {k: v.copy() for k, v in network._optimizer_arrays(fresh, fresh_state).items()}
    with pytest.raises(CheckpointMismatchError, match=error):
        network.restore_train_checkpoint(manifest_path, fresh, fresh_state)
    after = network._optimizer_arrays(fresh, fresh_state)
    assert all(after[k].tobytes() == v.tobytes() for k, v in before.items())
    assert fresh_state.step == 7


def test_restore_train_checkpoint_reads_into_the_model_and_state(tmp_path):
    model, state = _trained_state(TINY, seed=1)
    manifest_path = network.save_train_checkpoint(tmp_path / "ck", model, state, epoch=3)
    fresh, fresh_state = _trained_state(TINY, seed=2)
    dests = network._optimizer_arrays(fresh, fresh_state)
    manifest = network.restore_train_checkpoint(manifest_path, fresh, fresh_state)
    assert manifest["epoch"] == 3 and fresh_state.step == state.step
    saved = network._optimizer_arrays(model, state)
    for name, dest in network._optimizer_arrays(fresh, fresh_state).items():
        assert dest is dests[name]  # filled, not replaced
        assert dest.tobytes() == saved[name].tobytes(), name


# a params-only checkpoint of TINY and one gen_synthetic scene with its
# predict document, all written by commit 1245733 (see data/tiny_ckpt/README.md)
FIXTURE = Path(__file__).parent / "data" / "tiny_ckpt"


def test_checkpoint_from_an_earlier_commit_predicts_the_same(tmp_path):
    from pointcast.cli import main

    assert read_fixture_model() == TINY
    out = tmp_path / "pred.json"
    assert main(["predict", "--ckpt", str(FIXTURE / "model.json"),
                 "--scene", str(FIXTURE / "scene.json"), "--out", str(out)]) == 0
    got, want = json.loads(out.read_text()), json.loads((FIXTURE / "predict.json").read_text())
    assert got["n_modes"] == want["n_modes"] and got["order_by"] == want["order_by"]
    for key in ("trajectories", "displacements"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0)


def read_fixture_model():
    doc = json.loads((FIXTURE / "model.json").read_text())["config"]["model"]
    return network.ModelConfig(**{k: tuple(v) if isinstance(v, list) else v
                                  for k, v in doc.items()})


def test_restore_train_checkpoint_peak_memory_is_the_buffer(tmp_path):
    import tracemalloc

    cfg = network.ModelConfig()  # a data file of about 20 MB
    model = network.init_model(cfg, seed=0)
    manifest_path = network.save_train_checkpoint(tmp_path / "ck", model,
                                                  adam_init(model.params), epoch=0)
    size = manifest_path.with_suffix(".bin").stat().st_size
    fresh = network.init_model(cfg, seed=1)
    state = adam_init(fresh.params)
    tracemalloc.start()
    try:
        network.restore_train_checkpoint(manifest_path, fresh, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beside the buffer, the parsed manifest of about 1500 entries
    bound = checkpoint.READ_BUFFER_BYTES + 3 * 2**19
    assert peak <= bound < size / 5, (peak, bound, size)
    assert all(fresh.params[k].data.tobytes() == t.data.tobytes()
               for k, t in model.params.items())


# ---------------------------------------------------------------------------
# properties of the loader over random checkpoints

_checkpoint_arrays = st.dictionaries(
    st.text(min_size=1, max_size=6),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
    max_size=6,
)


@settings(max_examples=60)
@given(arrays=_checkpoint_arrays)
def test_save_load_round_trips_bit_for_bit(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        loaded, manifest = load_checkpoint(save_checkpoint(Path(tmp) / "ck", arrays, step=3))
    assert manifest["global_step"] == 3
    assert sorted(loaded) == sorted(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def _truncate(data, doc, draw):
    return data[:draw(st.integers(0, len(data) - 1))], doc


def _extend(data, doc, draw):
    return data + draw(st.binary(min_size=1, max_size=16)), doc


def _flip_byte(data, doc, draw):
    at = draw(st.integers(0, len(data) - 1))
    flipped = data[at] ^ draw(st.integers(1, 255))
    return data[:at] + bytes([flipped]) + data[at + 1:], doc


def _duplicate_name(data, doc, draw):
    i, j = draw(st.lists(st.integers(0, len(doc["arrays"]) - 1), min_size=2, max_size=2,
                         unique=True))
    doc["arrays"][j]["name"] = doc["arrays"][i]["name"]
    return data, doc


def _shift_offset(data, doc, draw):
    entry = doc["arrays"][draw(st.integers(0, len(doc["arrays"]) - 1))]
    entry["offset"] = draw(st.integers(0, len(data) // 8 + 4).filter(
        lambda v: v != entry["offset"]))
    return data, doc


# each fault, and the fewest arrays and data bytes it needs
_FAULTS = {_truncate: (1, 8), _extend: (0, 0), _flip_byte: (1, 8), _duplicate_name: (2, 0),
           _shift_offset: (1, 0)}


@settings(max_examples=100)
@given(arrays=_checkpoint_arrays, fault=st.sampled_from(list(_FAULTS)), data=st.data())
def test_load_rejects_every_corrupted_checkpoint(arrays, fault, data):
    n_arrays, n_bytes = _FAULTS[fault]
    assume(len(arrays) >= n_arrays and 8 * sum(a.size for a in arrays.values()) >= n_bytes)
    with tempfile.TemporaryDirectory() as tmp:
        manifest_path = save_checkpoint(Path(tmp) / "ck", arrays, step=0)
        data_path = manifest_path.with_suffix(".bin")
        blob, doc = fault(data_path.read_bytes(), json.loads(manifest_path.read_text()),
                          data.draw)
        data_path.write_bytes(blob)
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(manifest_path)
