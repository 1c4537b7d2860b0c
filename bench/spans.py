"""Span tracing for the benchmark's traced run, installed from outside the program.

The tracer replaces public functions of ``pointcast`` with timing wrappers
at every module attribute that is bound to them, so a caller finds the
wrapper wherever it looks the function up (``network.spatial_block``,
``ad.scatter_max`` as seen from ``spatial``, and so on). Each call records a
span (name, start, end, parent span, scene id); the self time of a span is
its duration minus the durations of its direct children. Spans stay in
memory and are written out when the run ends.

The wrappers only read the clock, the arguments and the returned objects,
so a traced run computes bit-identical losses and predictions;
``bench/check.py`` verifies it.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

import numpy as np
from pointcast.indexing import pack_pair


def _count_points_voxels(ps, out):
    out["indexing.points"] += len(ps)
    out["indexing.voxels"] += len(np.unique(pack_pair(ps.voxels[:, 0], ps.voxels[:, 1])))


def _count_pairs(pairs, out):
    out["spatial.radius_pairs.pairs"] += len(pairs[0])


def _count_checkpoint_bytes(manifest_path, out):
    data_path = Path(manifest_path).with_suffix(".bin")
    out["checkpoint.save.bytes"] += Path(manifest_path).stat().st_size + data_path.stat().st_size


def _count_op(_, out):
    out["autodiff.ops"] += 1


# (module, attribute, span name, count hook). Every pointcast module that
# binds the same function object gets the wrapper too.
SPANS = [
    ("network", "train", "network.train", None),
    ("network", "init_model", "network.init_model", None),
    ("network", "scene_forward_loss", "network.scene_forward_loss", None),
    ("network", "forward", "network.forward", None),
    ("network", "forward_graph", "network.forward_graph", None),
    ("network", "total_loss", "network.loss", None),
    ("network", "rank_trajectories", "network.rank_trajectories", None),
    ("optim", "adam_init", "optim.adam_init", None),
    ("optim", "adam_step", "optim.adam_step", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _count_checkpoint_bytes),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("scenes", "load_scene", "scenes.load_scene", None),
    ("scenes", "normalize", "scenes.normalize", None),
    ("scenes", "augment", "scenes.augment", None),
    ("indexing", "index_scene", "indexing.index_scene", _count_points_voxels),
    ("indexing", "group_by_keys", "indexing.group_by", None),
    ("spatial", "spatial_block", "spatial.block", None),
    ("spatial", "pointwise_learning", "spatial.pointwise", None),
    ("spatial", "radius_pairs", "spatial.radius_pairs", _count_pairs),
    ("spatial", "ftp_point_to_voxel", "spatial.ftp", None),
    ("spatial", "sparse_bottleneck", "spatial.bottleneck", None),
    ("spatial", "interp_voxel_to_point", "spatial.interp", None),
    ("temporal", "temporal_block", "temporal.block", None),
    ("temporal", "multi_interval", "temporal.multi_interval", None),
    ("temporal", "instance_pool", "temporal.instance_pool", None),
    ("autodiff", "backward", "autodiff.backward", None),
] + [
    # every graph-building primitive, so layer self times exclude engine work
    ("autodiff", op, f"autodiff.{op}", None)
    for op in (
        "linear", "relu", "exp", "layer_norm", "add", "sub", "mul", "div",
        "scale", "scale_rows", "concat_cols", "concat_cols_all", "slice_cols",
        "sum_all", "mean_rows", "gather_rows", "scatter_mean", "scatter_max",
        "scatter_add_rows", "smooth_l1",
    )
]

# a training scene starts here; its scene id tags the spans that follow
SCENE_SPAN = "network.scene_forward_loss"

# counted, not timed: one call per graph node the engine builds
COUNTERS = [("autodiff", "_op", _count_op)]

# every count the hooks above record
COUNT_NAMES = {
    "autodiff.ops", "spatial.radius_pairs.pairs", "indexing.points", "indexing.voxels",
    "checkpoint.save.bytes",
}


class Tracer:
    """Collects spans while ``phase`` is set; a no-op pass-through otherwise."""

    def __init__(self):
        self.phase = None       # "setup" or "measure" while recording
        self.scene = -1         # index into scene_names of the current scene
        self.scene_names: list[str] = []
        self._scene_index: dict[str, int] = {}
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, child seconds] per open span
        # span columns, kept compact so a long run stays small in memory
        self.name_col = array("i")
        self.phase_col = array("b")
        self.scene_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.self_col = array("d")
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.count_names = COUNT_NAMES

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span, count in SPANS:
            self._patch(mod_name, attr, self._timed(span, count))
        for mod_name, attr, count in COUNTERS:
            self._patch(mod_name, attr, self._counted(count))

    def _patch(self, mod_name, attr, make_wrapper) -> None:
        original = getattr(sys.modules[f"pointcast.{mod_name}"], attr)
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if name == "pointcast" or name.startswith("pointcast."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _timed(self, span_name, count):
        name_id = self._intern(span_name)
        starts_scene = span_name == SCENE_SPAN

        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                if self.phase is None:
                    return fn(*args, **kwargs)
                if starts_scene:
                    self.set_scene(args[1].scene_id)
                stack = self._stack
                parent = stack[-1][0] if stack else -1
                idx = len(self.start_col)
                self._append(name_id, parent)
                stack.append([idx, 0.0])
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    _, child = stack.pop()
                    self.start_col[idx] = t0
                    self.end_col[idx] = t1
                    self.self_col[idx] = (t1 - t0) - child
                if count is not None:
                    count(out, self.counts[self.phase])
                if stack:
                    # the parent's self time excludes this span and its counting
                    stack[-1][1] += perf_counter() - t0
                return out

            return wrapper

        return make

    def _counted(self, count):
        def make(fn):
            @wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self.phase is not None:
                    count(out, self.counts[self.phase])
                return out

            return wrapper

        return make

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _append(self, name_id: int, parent: int) -> None:
        self.name_col.append(name_id)
        self.phase_col.append(0 if self.phase == "setup" else 1)
        self.scene_col.append(self.scene)
        self.parent_col.append(parent)
        self.start_col.append(0.0)
        self.end_col.append(0.0)
        self.self_col.append(0.0)

    @contextlib.contextmanager
    def paused(self):
        phase, self.phase = self.phase, None
        try:
            yield
        finally:
            self.phase = phase

    def set_scene(self, scene_id: str) -> None:
        """Tag the following spans with ``scene_id`` until the next scene starts."""
        if scene_id not in self._scene_index:
            self._scene_index[scene_id] = len(self.scene_names)
            self.scene_names.append(scene_id)
        self.scene = self._scene_index[scene_id]

    # -- results ----------------------------------------------------------

    def table(self, phase: str) -> dict:
        """Per span name: calls, total self ms and total inclusive ms in ``phase``."""
        code = 0 if phase == "setup" else 1
        names = np.frombuffer(self.name_col, dtype=np.int32)
        keep = np.frombuffer(self.phase_col, dtype=np.int8) == code
        dur = np.frombuffer(self.end_col) - np.frombuffer(self.start_col)
        own = np.frombuffer(self.self_col)
        n = len(self.names)
        calls = np.bincount(names[keep], minlength=n)
        self_ms = np.bincount(names[keep], weights=own[keep], minlength=n) * 1e3
        incl_ms = np.bincount(names[keep], weights=dur[keep], minlength=n) * 1e3
        return {
            name: {"calls": int(calls[i]), "self_ms": float(self_ms[i]), "incl_ms": float(incl_ms[i])}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: Path) -> None:
        """Write every span as columns of one compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            scenes=np.array(self.scene_names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            phase=np.frombuffer(self.phase_col, dtype=np.int8),
            scene=np.frombuffer(self.scene_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            start=np.frombuffer(self.start_col),
            end=np.frombuffer(self.end_col),
            self_time=np.frombuffer(self.self_col),
        )
