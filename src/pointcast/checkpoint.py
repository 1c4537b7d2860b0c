"""Checkpoint container: a flat little-endian float64 binary plus a JSON manifest.

The manifest (``<stem>.json``) lists array names, shapes, and offsets into the
data file (``<stem>.bin``) together with the global step, epoch, and the run
config. It also records the data file's byte length and SHA-256 digest, so
the manifest is the one commit point of a save: data that is not the data it
was written with fails to load. Arrays are written sorted by name so
identical states produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

FORMAT_NAME = "pointcast-checkpoint"
FORMAT_VERSION = 1


class CheckpointMismatchError(Exception):
    """Checkpoint contents do not fit the model being loaded into."""


def _paths(path):
    path = Path(path)
    stem = path.with_suffix("") if path.suffix in (".json", ".bin") else path
    return stem.with_suffix(".json"), stem.with_suffix(".bin")


def save_checkpoint(path, arrays: dict, *, step: int = 0, epoch: int = 0, config=None) -> Path:
    """Write ``arrays`` (name -> ndarray) and metadata; returns the manifest path.

    Both files are written to temporaries first and then renamed over the old
    ones, data file first and manifest last, so a failure while saving leaves
    the previous checkpoint in place. A failure between the two renames
    leaves new data under the old manifest, whose digest then rejects it.
    """
    manifest_path, data_path = _paths(path)
    names = sorted(arrays)
    flat = [np.ascontiguousarray(arrays[name], dtype="<f8") for name in names]
    entries = []
    offset = 0
    digest = hashlib.sha256()
    for name, arr in zip(names, flat):
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        digest.update(arr)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "data_file": data_path.name,
        "data_bytes": 8 * offset,
        "data_sha256": digest.hexdigest(),
        "global_step": int(step),
        "epoch": int(epoch),
        "config": config,
        "arrays": entries,
    }
    text = json.dumps(manifest, indent=1, sort_keys=True, allow_nan=False) + "\n"
    tmp_data, tmp_manifest = (p.with_name(f".{p.name}.tmp") for p in (data_path, manifest_path))
    try:
        with open(tmp_data, "wb") as fh:
            for arr in flat:
                fh.write(arr.tobytes())
        tmp_manifest.write_text(text)
        os.replace(tmp_data, data_path)
        os.replace(tmp_manifest, manifest_path)
    finally:
        tmp_data.unlink(missing_ok=True)
        tmp_manifest.unlink(missing_ok=True)
    return manifest_path


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_manifest(manifest, manifest_path) -> None:
    """Raise CheckpointMismatchError unless ``manifest`` has the layout save_checkpoint writes."""
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise CheckpointMismatchError(f"{manifest_path}: not a {FORMAT_NAME} file")
    if not isinstance(manifest.get("data_file"), str):
        raise CheckpointMismatchError(f"{manifest_path}: data_file must be a string")
    for key in ("global_step", "epoch"):
        if not _is_count(manifest.get(key)):
            raise CheckpointMismatchError(f"{manifest_path}: {key} must be a non-negative integer")
    if not isinstance(manifest.get("config"), (dict, type(None))):
        raise CheckpointMismatchError(f"{manifest_path}: config must be null or an object")
    entries = manifest.get("arrays")
    if not isinstance(entries, list):
        raise CheckpointMismatchError(f"{manifest_path}: arrays must be a list")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list) and all(map(_is_count, entry["shape"]))
                and _is_count(entry.get("offset"))):
            raise CheckpointMismatchError(
                f"{manifest_path}: arrays[{i}] needs a string name, a shape of non-negative "
                f"integers and a non-negative integer offset"
            )


def load_checkpoint(path):
    """Read a checkpoint; returns (arrays dict, manifest dict).

    The manifest's structure is checked before the data file is read, and the
    data file's length and digest are verified when the manifest records
    them (manifests written before they were recorded load unverified).
    """
    manifest_path, data_path = _paths(path)
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise CheckpointMismatchError(f"{manifest_path}: not JSON: {exc}") from exc
    _check_manifest(manifest, manifest_path)
    data_path = manifest_path.parent / manifest["data_file"]
    data = data_path.read_bytes()
    n_bytes, digest = manifest.get("data_bytes"), manifest.get("data_sha256")
    if n_bytes is not None and len(data) != n_bytes:
        raise CheckpointMismatchError(f"{data_path}: {len(data)} bytes, manifest records {n_bytes}")
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        raise CheckpointMismatchError(
            f"{data_path}: SHA-256 digest differs from the one its manifest records"
        )
    sizes = [math.prod(entry["shape"]) for entry in manifest["arrays"]]  # exact, unlike int64
    if len(data) != 8 * sum(sizes):
        raise CheckpointMismatchError(
            f"{data_path}: {len(data)} bytes, manifest lists {sum(sizes)} float64 values"
        )
    raw = np.frombuffer(data, dtype="<f8")
    arrays = {}
    for entry, size in zip(manifest["arrays"], sizes):
        offset = entry["offset"]
        if offset > len(raw) - size:
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
            raise CheckpointMismatchError(f"checkpoint is missing array {key!r}")
        arr = arrays[key]
        if arr.shape != tensor.data.shape:
            raise CheckpointMismatchError(
                f"parameter {name!r}: checkpoint shape {arr.shape}, model shape {tensor.data.shape}"
            )
        tensor.data = arr.astype(np.float64).copy()
