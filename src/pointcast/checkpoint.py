"""Checkpoint container: a flat little-endian float64 binary plus a JSON manifest.

The manifest (``<stem>.json``) lists array names, shapes, and offsets into the
data file (``<stem>.bin``) together with the global step, epoch, and the run
config. It also records the data file's byte length and SHA-256 digest, so
the manifest is the one commit point of a save: data that is not the data it
was written with fails to load. Arrays are written sorted by name so
identical states produce byte-identical files.

The listed arrays tile the data file in list order: each starts where the
one before it ends, and no name repeats. A load reads each array once,
straight into its own buffer in offset order, and feeds that buffer to the
digest, so it holds no whole-file copy and no second copy of any array.
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
    flat = [np.asarray(arrays[name], dtype="<f8", order="C") for name in names]
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
                fh.write(arr)
        tmp_manifest.write_text(text)
        os.replace(tmp_data, data_path)
        os.replace(tmp_manifest, manifest_path)
    finally:
        tmp_data.unlink(missing_ok=True)
        tmp_manifest.unlink(missing_ok=True)
    return manifest_path


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _check_manifest(manifest, manifest_path) -> list[int]:
    """Each array's value count, unless ``manifest`` breaks the layout save_checkpoint writes.

    Raises CheckpointMismatchError for a bad structure, a repeated array name,
    or arrays that do not tile the data file in list order.
    """
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
    sizes, names, end = [], set(), 0
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list) and all(map(_is_count, entry["shape"]))
                and _is_count(entry.get("offset"))):
            raise CheckpointMismatchError(
                f"{manifest_path}: arrays[{i}] needs a string name, a shape of non-negative "
                f"integers and a non-negative integer offset"
            )
        name = entry["name"]
        if name in names:
            raise CheckpointMismatchError(f"{manifest_path}: array {name!r} is listed twice")
        if entry["offset"] != end:
            raise CheckpointMismatchError(
                f"{manifest_path}: array {name!r} starts at value {entry['offset']}, not at "
                f"{end} where the array before it ends"
            )
        names.add(name)
        sizes.append(math.prod(entry["shape"]))  # exact, unlike int64
        end += sizes[-1]
    return sizes


def load_checkpoint(path):
    """Read a checkpoint; returns (arrays dict, manifest dict).

    The manifest's structure and layout are checked before the data file is
    read, and the data file's length and digest are verified when the
    manifest records them (manifests written before they were recorded load
    unverified). Each array is read into its own buffer, which is also what
    the digest reads, so a load holds one copy of the data.
    """
    manifest_path, data_path = _paths(path)
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise CheckpointMismatchError(f"{manifest_path}: not JSON: {exc}") from exc
    sizes = _check_manifest(manifest, manifest_path)
    data_path = manifest_path.parent / manifest["data_file"]
    n_bytes, digest = manifest.get("data_bytes"), manifest.get("data_sha256")
    arrays = {}
    sha = hashlib.sha256()
    with open(data_path, "rb") as fh:
        length = os.fstat(fh.fileno()).st_size
        if n_bytes is not None and length != n_bytes:
            raise CheckpointMismatchError(
                f"{data_path}: {length} bytes, manifest records {n_bytes}")
        if length != 8 * sum(sizes):
            raise CheckpointMismatchError(
                f"{data_path}: {length} bytes, manifest lists {sum(sizes)} float64 values"
            )
        for entry, size in zip(manifest["arrays"], sizes):
            arr = np.empty(entry["shape"], dtype="<f8")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != 8 * size:
                raise CheckpointMismatchError(f"{data_path}: shorter than when it was opened")
            sha.update(arr)
            arrays[entry["name"]] = arr
    if digest is not None and sha.hexdigest() != digest:
        raise CheckpointMismatchError(
            f"{data_path}: SHA-256 digest differs from the one its manifest records"
        )
    for name, arr in arrays.items():
        # min and max propagate NaN and reach ±inf, and allocate no mask
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise CheckpointMismatchError(f"{data_path}: array {name!r} is not finite")
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
        tensor.data = np.array(arr, dtype=np.float64)
