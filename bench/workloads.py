"""The benchmark's workloads: closed loops with a single caller.

Each workload has a ``setup`` (scenes generated from the workload seed and
written to disk, plus the model for inference) and a ``measure`` that runs
the timed operations and checks their outputs. Functions of the program are
always called through their module attribute, so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pointcast import autodiff as ad
from pointcast import network, scenes, spatial, synth
from pointcast.indexing import index_scene, pack_pair
from pointcast.network import ModelConfig, TrainConfig
from pointcast.optim import adam_init
from pointcast.scenes import AugConfig

# the acceptance suite's small model: per-op Python overhead dominates
OVERFIT_MODEL = ModelConfig(
    n_stages=2, intervals=(2, 4, 8), radii=(0.4, 0.8, 1.6), grid_size=0.4,
    n_modes=6, embed_width=16, radius_width=16, pointwise_width=32,
    voxel_width=32, spatial_width=48, interval_width=24, temporal_width=48,
    head_width=64,
)

# The workload seed selects the scenes only. The model and training seeds
# stay fixed, so that another seed changes the program's inputs and nothing else.
MODEL_SEED = 0

DEFAULT_SPEED = (4.0, 14.0)
CONGESTED_SPEED = (1.0, 3.0)  # slow traffic packs points: more radius pairs per point

# A run repeats whole passes over its scene set (a train call, or one request
# per scene) while its time lasts, so that the mix behind each figure does
# not depend on how fast the code is. Two at least: the second is compared
# with the first bit for bit.
MIN_PASSES = 2


@dataclass
class Measurement:
    """What one run measured; ``samples_ms`` holds one latency per scene."""

    samples_ms: list = field(default_factory=list)
    passes_s: list = field(default_factory=list)  # seconds per whole pass
    loss_end: float = float("nan")
    peak_rss_mb: float = float("nan")  # through set-up and the first pass: a fixed amount of work
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # bit-exact digests of the first pass's outputs


def another_pass(m: Measurement, seconds: float) -> bool:
    """Whether to start another pass: until MIN_PASSES, then while the passes
    would stay within ``seconds`` if the next took as long as the last."""
    if m.errors:
        return False
    if len(m.passes_s) < MIN_PASSES:
        return True
    return sum(m.passes_s) + m.passes_s[-1] <= seconds


def _keep_first_pass(m: Measurement, outputs: list) -> None:
    """The first pass's outputs, and the peak memory through it."""
    m.outputs = outputs
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _paused(tracer):
    """Keep the benchmark's own checks out of the traced spans."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _write_scenes(work: Path, generated) -> list[Path]:
    out = work / "scenes"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for sc in generated:
        path = out / f"{sc.scene_id}.json"
        scenes.save_scene(sc, path)
        paths.append(path)
    return paths


def scene_stats(raw_scenes, config: ModelConfig) -> list[dict]:
    """Exact points, voxels and radius pairs of each scene, after normalization."""
    rows = []
    for raw in raw_scenes:
        ps = index_scene(scenes.normalize(raw), config.grid_size)
        voxels = len(np.unique(pack_pair(ps.voxels[:, 0], ps.voxels[:, 1])))
        pairs = [len(spatial.radius_pairs(ps.points, r)[0]) for r in config.radii]
        rows.append({"scene": raw.scene_id, "points": len(ps), "voxels": voxels, "pairs": pairs})
    return rows


class TrainWorkload:
    """``network.train`` on a fixed scene set; one call is one pass.

    Every call trains from the same seed on the same scenes, so every call
    must produce the same loss history and parameters bit for bit.
    """

    def __init__(self, name, model, augment, n_scenes, epochs, lr):
        self.name = name
        self.model = model
        self.augment = augment
        self.n_scenes = n_scenes
        self.epochs = epochs
        self.lr = lr
        self.scenes_per_pass = n_scenes * epochs

    def config(self) -> TrainConfig:
        return TrainConfig(
            model=self.model, epochs=self.epochs, batch_size=32, lr=self.lr,
            augment=self.augment, eval_every=0, seed=MODEL_SEED,
        )

    def setup(self, work: Path, seed: int) -> dict:
        generated = synth.gen_synthetic(self.n_scenes, seed, speed_range=DEFAULT_SPEED)
        _write_scenes(work, generated)
        dataset = scenes.load_scene_dir(work / "scenes")
        if [sc.scene_id for sc in dataset] != [sc.scene_id for sc in generated] or any(
            a != b for a, b in zip(dataset, generated)
        ):
            raise RuntimeError("scene files do not read back as generated")
        (work / "ckpt").mkdir()
        return {"dataset": dataset, "ckpt": work / "ckpt" / "model", "log": work / "train_log.jsonl"}

    def smoke(self) -> "TrainWorkload":
        return TrainWorkload(self.name, self.model, self.augment, n_scenes=4, epochs=self.epochs,
                             lr=self.lr)

    def raw_scenes(self, state):
        return state["dataset"]

    def run_pass(self, state, m: Measurement, tracer=None) -> None:
        original = network.scene_forward_loss
        marks: list[float] = []

        def scene_boundary(model, scene):
            marks.append(time.perf_counter())
            return original(model, scene)

        network.scene_forward_loss = scene_boundary
        m.attempted += self.scenes_per_pass
        t0 = time.perf_counter()
        try:
            result = network.train(
                state["dataset"], self.config(),
                checkpoint_path=state["ckpt"], log_path=state["log"],
            )
        except Exception:  # noqa: BLE001 - a failed call is a counted failure
            m.failed += self.scenes_per_pass
            m.errors.append(traceback.format_exc(limit=3))
            return
        finally:
            network.scene_forward_loss = original
        t1 = time.perf_counter()
        m.samples_ms.extend(np.diff(marks + [t1]) * 1e3)
        losses = [h["train_loss"] for h in result.history]
        with _paused(tracer):
            bad = self._check(result, losses, state)
            params = result.model.params
            outputs = [float(x).hex() for x in losses]
            outputs.append(_digest(*(params[k].data for k in sorted(params))))
        if not m.passes_s:
            _keep_first_pass(m, outputs)
            m.loss_end = losses[-1]
        elif bad is None and outputs != m.outputs:
            bad = f"losses {losses} or trained parameters differ from the first call's"
        if bad:
            m.failed += self.scenes_per_pass
            m.errors.append(bad)
        m.passes_s.append(t1 - t0)

    def _check(self, result, losses, state) -> str | None:
        if len(losses) != self.epochs or not all(np.isfinite(losses)):
            return f"loss history {losses} is not {self.epochs} finite values"
        arrays, manifest = network.load_checkpoint(state["ckpt"])
        if int(manifest["epoch"]) != self.epochs - 1:
            return f"checkpoint epoch {manifest['epoch']}, expected {self.epochs - 1}"
        for name, t in result.model.params.items():
            if not np.array_equal(arrays[f"params/{name}"], t.data):
                return f"checkpoint parameter {name} differs from the trained model"
        return None


class PredictWorkload:
    """``pointcast predict``'s path per request: load, normalize, forward, rank.

    The model is restored once, at setup, from a checkpoint written there.
    A pass requests every scene file once, in order, one request at a time;
    a repeat request must predict what the first one did, bit for bit.
    """

    def __init__(self, name, model, n_scenes):
        self.name = name
        self.model = model
        self.n_scenes = n_scenes
        self.scenes_per_pass = n_scenes

    def setup(self, work: Path, seed: int) -> dict:
        paths = _write_scenes(
            work, synth.gen_synthetic(self.n_scenes, seed, speed_range=CONGESTED_SPEED)
        )
        model = network.init_model(self.model, MODEL_SEED)
        (work / "ckpt").mkdir(parents=True, exist_ok=True)
        ckpt = network.save_train_checkpoint(
            work / "ckpt" / "model", model, adam_init(model.params), epoch=0
        )
        # a different init seed, so a restore that copied nothing shows
        restored = network.init_model(self.model, MODEL_SEED + 1)
        network.restore_train_checkpoint(ckpt, restored, adam_init(restored.params))
        for name, t in model.params.items():
            if not np.array_equal(restored.params[name].data, t.data):
                raise RuntimeError(f"restored parameter {name} differs from the saved model")
        # no longer needed: deleting it keeps its writes from being flushed
        # to disk while the requests are timed
        shutil.rmtree(work / "ckpt")
        return {"paths": paths, "model": restored}

    def smoke(self) -> "PredictWorkload":
        return PredictWorkload(self.name, self.model, n_scenes=4)

    def raw_scenes(self, state):
        return [scenes.load_scene(p) for p in state["paths"]]

    def run_pass(self, state, m: Measurement, tracer=None) -> None:
        model = state["model"]
        digests, kept = [], []
        t_pass = time.perf_counter()
        for i, path in enumerate(state["paths"]):
            if tracer is not None:
                tracer.set_scene(path.stem)
            m.attempted += 1
            t0 = time.perf_counter()
            try:
                raw = scenes.load_scene(path)
                sc = scenes.normalize(raw)
                pred = network.forward(model, sc)
                order = network.rank_trajectories(pred)
            except Exception:  # noqa: BLE001 - a failed request is a counted failure
                m.failed += 1
                m.errors.append(traceback.format_exc(limit=3))
                digests.append(None)
                continue
            m.samples_ms.append((time.perf_counter() - t0) * 1e3)
            digests.append(_digest(pred.trajectories, pred.displacements))
            bad = self._check(pred, order)
            if not m.passes_s:
                kept.append((pred, sc.future))
            elif bad is None and digests[i] != m.outputs[i]:
                bad = f"scene {path.stem} predicted differently on a repeat request"
            if bad:
                m.failed += 1
                m.errors.append(bad)
        t1 = time.perf_counter()
        if not m.passes_s:
            _keep_first_pass(m, digests)
            with _paused(tracer):
                losses = [self._loss(pred, future) for pred, future in kept]
            m.loss_end = float(np.mean(losses)) if losses else float("nan")
        m.passes_s.append(t1 - t_pass)

    def _check(self, pred, order) -> str | None:
        k, t = self.model.n_modes, self.model.future_steps
        trajs, disp = pred.trajectories, pred.displacements
        if trajs.shape != (k, t, 2) or disp.shape != (k,):
            return f"prediction shapes {trajs.shape}, {disp.shape}; expected ({k}, {t}, 2), ({k},)"
        if not (np.all(np.isfinite(trajs)) and np.all(np.isfinite(disp))):
            return "non-finite prediction"
        if sorted(order.tolist()) != list(range(k)) or np.any(np.diff(disp[order]) < 0):
            return f"ranking {order.tolist()} is not a permutation sorted by displacement"
        return None

    def _loss(self, pred, future) -> float:
        """The training loss of this prediction against the scene's future."""
        reg = ad.constant(pred.trajectories.reshape(1, -1))
        disp = ad.constant(pred.displacements.reshape(1, -1))
        return network.total_loss(reg, disp, future, self.model).item()


WORKLOADS = {
    w.name: w
    for w in (
        # lr 3e-2 (the acceptance suite uses 1e-2 over hundreds of steps): within
        # the 8 Adam steps of a call the final-epoch loss falls by about a third,
        # so a change that breaks the gradients moves loss_end by half or more
        TrainWorkload("train-overfit", OVERFIT_MODEL, augment=None, n_scenes=48, epochs=4,
                      lr=3e-2),
        TrainWorkload("train-default", ModelConfig(), augment=AugConfig(), n_scenes=64, epochs=1,
                      lr=TrainConfig.lr),
        PredictWorkload("predict-dense", ModelConfig(), n_scenes=96),
    )
}
