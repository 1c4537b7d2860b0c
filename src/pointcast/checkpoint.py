"""Checkpoint container: a flat little-endian float64 binary plus a JSON manifest.

The manifest (``<stem>.json``) lists array names, shapes, and offsets into the
data file (``<stem>.bin``) together with the global step, epoch, and the run
config. Arrays are written sorted by name so identical states produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FORMAT_NAME = "pointcast-checkpoint"
FORMAT_VERSION = 1


class CheckpointMismatchError(Exception):
    """Checkpoint contents do not fit the model being loaded into."""


def _paths(path):
    path = Path(path)
    if path.suffix == ".json":
        stem = path.with_suffix("")
    elif path.suffix == ".bin":
        stem = path.with_suffix("")
    else:
        stem = path
    return stem.with_suffix(".json"), stem.with_suffix(".bin")


def save_checkpoint(path, arrays: dict, *, step: int = 0, epoch: int = 0, config=None) -> Path:
    """Write ``arrays`` (name -> ndarray) and metadata; returns the manifest path."""
    manifest_path, data_path = _paths(path)
    names = sorted(arrays)
    entries = []
    offset = 0
    with open(data_path, "wb") as fh:
        for name in names:
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
            fh.write(arr.tobytes())
            offset += arr.size
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "data_file": data_path.name,
        "global_step": int(step),
        "epoch": int(epoch),
        "config": config,
        "arrays": entries,
    }
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return manifest_path


def load_checkpoint(path):
    """Read a checkpoint; returns (arrays dict, manifest dict)."""
    manifest_path, data_path = _paths(path)
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != FORMAT_NAME:
        raise CheckpointMismatchError(f"{manifest_path}: not a {FORMAT_NAME} file")
    data_path = manifest_path.parent / manifest["data_file"]
    data = data_path.read_bytes()
    sizes = [int(np.prod(entry["shape"])) for entry in manifest["arrays"]]
    if len(data) != 8 * sum(sizes):
        raise CheckpointMismatchError(
            f"{data_path}: {len(data)} bytes, manifest lists {sum(sizes)} float64 values"
        )
    raw = np.frombuffer(data, dtype="<f8")
    arrays = {}
    for entry, size in zip(manifest["arrays"], sizes):
        offset = entry["offset"]
        if not 0 <= offset <= len(raw) - size:
            raise CheckpointMismatchError(
                f"{data_path}: array {entry['name']!r} at [{offset}, {offset + size}) "
                f"runs past {len(raw)} values"
            )
        arr = raw[offset : offset + size].reshape(entry["shape"]).copy()
        if not np.all(np.isfinite(arr)):
            raise CheckpointMismatchError(f"{data_path}: array {entry['name']!r} is not finite")
        arrays[entry["name"]] = arr
    return arrays, manifest


def restore_into(params: dict, arrays: dict, prefix: str = "params/") -> None:
    """Copy checkpoint arrays into parameter tensors, checking names and shapes."""
    for name, tensor in params.items():
        key = prefix + name
        if key not in arrays:
            raise CheckpointMismatchError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[key]
        if arr.shape != tensor.data.shape:
            raise CheckpointMismatchError(
                f"parameter {name!r}: checkpoint shape {arr.shape}, model shape {tensor.data.shape}"
            )
        tensor.data = arr.astype(np.float64).copy()
