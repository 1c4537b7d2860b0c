"""Checkpoint container: a flat little-endian float64 binary plus a JSON manifest.

The manifest (``<stem>.json``) lists array names, shapes and offsets into the
data file, always ``<stem>.bin`` beside it (a copied pair loads; an older
manifest's ``data_file`` is ignored), with the version, step, epoch and
config. It records the data file's length and SHA-256 digest, so the manifest
is the one commit point of a save: data that is not the data it was written
with fails to load. Arrays are sorted by name, so equal states give equal files.

The listed arrays tile the data file in list order: each starts where the
one before it ends, and no name repeats.

A load verifies first and then reads into place. It checks the manifest,
and the names and shapes of the arrays it is to fill, before it reads a
byte of data. It then streams the data file once through a fixed
READ_BUFFER_BYTES buffer to verify its length, digest and finiteness, and
only then seeks back and reads each array straight into its destination,
hashing again as it reads. A load that fails a check thus writes nothing.
When the destinations are arrays the caller already owns (a model's
parameters and Adam moments), the load's own peak memory is the buffer,
not the file; without destinations it is one copy of the data.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

FORMAT_NAME = "pointcast-checkpoint"
FORMAT_VERSION = 1

# bytes per read of the verifying pass; a multiple of 8, so each chunk is whole values
READ_BUFFER_BYTES = 1 << 20


class CheckpointMismatchError(Exception):
    """Checkpoint contents do not fit the model being loaded into."""


def _paths(path):
    """The manifest and data paths of stem ``path``, or of either file of a checkpoint.

    The suffixes are appended, so a dotted stem (``model.v1``) keeps its dot.
    """
    path = Path(path)
    stem = path.with_suffix("") if path.suffix in (".json", ".bin") else path
    return stem.with_name(stem.name + ".json"), stem.with_name(stem.name + ".bin")


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

    Raises CheckpointMismatchError for a bad structure (a missing data length
    or digest, or a version other than FORMAT_VERSION, included), a repeated
    array name, or arrays that do not tile ``data_bytes`` in list order.
    """
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise CheckpointMismatchError(f"{manifest_path}: not a {FORMAT_NAME} file")
    if manifest.get("version") != FORMAT_VERSION or type(manifest["version"]) is not int:
        raise CheckpointMismatchError(
            f"{manifest_path}: version {json.dumps(manifest.get('version'))}, not {FORMAT_VERSION}")
    if not isinstance(manifest.get("data_sha256"), str):
        raise CheckpointMismatchError(f"{manifest_path}: data_sha256 must be a string")
    for key in ("data_bytes", "global_step", "epoch"):
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
    if manifest["data_bytes"] != 8 * end:
        raise CheckpointMismatchError(
            f"{manifest_path}: data_bytes is {manifest['data_bytes']}, arrays list {end} values")
    return sizes


def _read_manifest(path):
    """(manifest path, data path, checked manifest, each array's value count) of ``path``."""
    manifest_path, data_path = _paths(path)
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise CheckpointMismatchError(f"{manifest_path}: not JSON: {exc}") from exc
    return manifest_path, data_path, manifest, _check_manifest(manifest, manifest_path)


def read_manifest(path) -> dict:
    """The manifest of checkpoint ``path``, checked as ``load_checkpoint`` checks it."""
    return _read_manifest(path)[2]


def _group(name: str) -> str:
    return name.split("/", 1)[0]


def _check_destinations(entries, into: dict, manifest_path) -> None:
    """Raise unless ``into`` can take the listed arrays of the groups it names.

    Each destination must be a writeable, C-contiguous float64 array (else
    ValueError: the caller's fault, not the checkpoint's). Within each group
    of ``into``'s names, the manifest must list exactly those names, each
    with its destination's shape.
    """
    for name, dest in into.items():
        if not (isinstance(dest, np.ndarray) and dest.dtype == np.float64
                and dest.flags.c_contiguous and dest.flags.writeable):
            raise ValueError(f"load_checkpoint: the destination of {name!r} is not a "
                             f"writeable C-contiguous float64 array")
    shapes = {entry["name"]: tuple(entry["shape"]) for entry in entries}
    groups = {_group(name) for name in into}
    missing = [name for name in into if name not in shapes]
    extra = [name for name in shapes if _group(name) in groups and name not in into]
    if missing or extra:
        name = min(missing + extra)
        raise CheckpointMismatchError(
            f"{manifest_path}: checkpoint is missing array {name!r}" if name in missing else
            f"{manifest_path}: checkpoint has array {name!r}, which the model does not"
        )
    for name, dest in into.items():
        if shapes[name] != dest.shape:
            raise CheckpointMismatchError(
                f"{manifest_path}: array {name!r}: checkpoint shape {shapes[name]}, "
                f"model parameter shape {dest.shape}"
            )


def _fill(fh, view, data_path) -> None:
    """Read exactly ``len(view)`` bytes of ``fh`` into the uint8 array ``view``."""
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            raise CheckpointMismatchError(f"{data_path}: shorter than when it was opened")
        got += n


def _stream(fh, n_bytes: int, buf, sha, data_path):
    """Read the next ``n_bytes`` of ``fh`` through ``buf`` into ``sha``, yielding each chunk."""
    while n_bytes:
        chunk = buf[: min(n_bytes, len(buf))]
        _fill(fh, chunk, data_path)
        sha.update(chunk)
        yield chunk
        n_bytes -= len(chunk)


def _verify(fh, length: int, sizes, entries, data_path, digest):
    """Stream the whole data file once; returns its SHA-256 digest.

    Raises CheckpointMismatchError when the digest is not ``digest``, or else
    names the first array that holds a non-finite value.
    """
    ends = list(itertools.accumulate(sizes))
    sha = hashlib.sha256()
    at, bad = 0, None
    for chunk in _stream(fh, length, np.empty(READ_BUFFER_BYTES, np.uint8), sha, data_path):
        values = chunk.view("<f8")
        # min and max propagate NaN and reach ±inf, and allocate no mask
        if bad is None and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            first = at + int(np.flatnonzero(~np.isfinite(values))[0])
            bad = entries[bisect.bisect_right(ends, first)]["name"]
        at += len(values)
    if sha.hexdigest() != digest:
        raise CheckpointMismatchError(
            f"{data_path}: SHA-256 digest differs from the one its manifest records"
        )
    if bad is not None:
        raise CheckpointMismatchError(f"{data_path}: array {bad!r} is not finite")
    return sha.digest()


def load_checkpoint(path, into: dict | None = None):
    """Read a checkpoint; returns (arrays dict, manifest dict).

    Without ``into``, every listed array is read into a fresh array. With
    ``into`` (name -> ndarray), each array it names is read straight into
    its destination, and ``into`` is the dict returned. A destination must be
    a writeable, C-contiguous float64 array of the listed shape; anything
    else raises ValueError, and nothing is filled through a copy. Within each
    group of ``into``'s names (a name's part before its first ``/``, such as
    ``params`` or ``optim``) the manifest must list exactly those names.
    Arrays of other groups are verified and dropped, so an inference load
    may name only ``params/*``.

    Every check comes before the first write to a destination: the
    manifest's structure and layout, the names and shapes of ``into``, then
    one pass over the data file through a READ_BUFFER_BYTES buffer for its
    length, its digest and finite values. Any fault raises
    CheckpointMismatchError. Only then is the file read again, from the
    start, into the destinations and hashed again, so a data file that
    changes between the two passes is refused as well, though the
    destinations may by then hold part of it.
    """
    manifest_path, data_path, manifest, sizes = _read_manifest(path)
    entries = manifest["arrays"]
    if into is not None:
        _check_destinations(entries, into, manifest_path)
    if not data_path.is_file():
        raise CheckpointMismatchError(f"{data_path}: missing, or not a regular file")
    with open(data_path, "rb", buffering=0) as fh:
        length = os.fstat(fh.fileno()).st_size
        if length != manifest["data_bytes"]:
            raise CheckpointMismatchError(
                f"{data_path}: {length} bytes, manifest records {manifest['data_bytes']}")
        verified = _verify(fh, length, sizes, entries, data_path, manifest["data_sha256"])
        # fresh arrays only now that _verify's buffer is freed: the peak is one copy of the data
        arrays = into if into is not None else {
            entry["name"]: np.empty(entry["shape"]) for entry in entries}
        fh.seek(0)
        sha, buf = hashlib.sha256(), None
        for entry, size in zip(entries, sizes):
            dest = arrays.get(entry["name"])
            if dest is None:  # verified, not kept
                if buf is None:
                    buf = np.empty(READ_BUFFER_BYTES, np.uint8)
                for _ in _stream(fh, 8 * size, buf, sha, data_path):
                    pass
                continue
            view = dest.reshape(-1).view(np.uint8)
            _fill(fh, view, data_path)
            sha.update(view)
            if sys.byteorder == "big":
                dest.byteswap(inplace=True)
    if sha.digest() != verified:
        raise CheckpointMismatchError(f"{data_path}: changed while it was being read")
    return arrays, manifest
