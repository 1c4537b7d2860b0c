"""Full model assembly, displacement-regression losses, and the training loop.

The network reads one :class:`~pointcast.indexing.ScenePlan` per scene. It
alternates spatial and temporal blocks (each stage consuming the previous
stage's pointwise output, over only the rows that can reach the target
agent's), mean-pools the last stage's rows, which are the target agent's,
and regresses K trajectories plus K predicted endpoint displacement errors.
At inference the trajectories are ranked by predicted displacement,
ascending. Every evaluation scores through
``evaluate_model``. Training sums each batch's gradients in fixed shards by
batch position, each shard straight into its own flat row of a shared
mapping; the shards after the first run in forked workers when the process
can fork safely.
"""

from __future__ import annotations

import functools
import json
import mmap
import multiprocessing as mp
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import metrics as metrics_mod
from . import nn
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .indexing import EMBED_IN, KEY_RANGE, ScenePlan, index_scene, plan_scene
# the ranking that the metrics score, re-exported for predict and span tracers
from .metrics import rank_trajectories  # noqa: F401
from .optim import AdamState, adam_init, adam_step, lr_at_epoch
from .scenes import SCENE_RANGE, AugConfig, Scene, SceneValidationError, augment, normalize
from .spatial import init_spatial, spatial_block
from .temporal import init_temporal, temporal_block


class TrainingDiverged(RuntimeError):
    pass


class NothingToResume(ValueError):
    """A resumed checkpoint has already trained every epoch the config asks for."""


# the smallest grid size, and largest radius, at which a scene inside
# normalize's crop keeps its cells within check_extent's bound
MIN_CELL_SIZE = SCENE_RANGE / (KEY_RANGE - 2)


@dataclass(frozen=True)
class ModelConfig:
    n_stages: int = 4
    intervals: tuple = (2, 4, 6, 8, 16)
    radii: tuple = (0.2, 0.4, 0.8, 1.6)
    grid_size: float = 0.2
    n_modes: int = 6        # K trajectories
    future_steps: int = 30  # T waypoints per trajectory
    history_steps: int = 20
    embed_width: int = 32
    radius_width: int = 32
    pointwise_width: int = 64
    voxel_width: int = 64
    bottleneck_blocks: int = 2
    spatial_width: int = 128
    interval_width: int = 64
    temporal_width: int = 128
    head_width: int = 128
    loss_weight_disp: float = 1.0

    def __post_init__(self):
        for name in ("n_stages", "n_modes", "future_steps", "history_steps", "embed_width",
                     "radius_width", "pointwise_width", "voxel_width", "bottleneck_blocks",
                     "spatial_width", "interval_width", "temporal_width", "head_width"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.intervals or not all(t >= 1 for t in self.intervals):
            raise ValueError(f"intervals must be non-empty and >= 1, got {list(self.intervals)}")
        if not self.radii or not all(r > 0 for r in self.radii):
            raise ValueError(f"radii must be non-empty and positive, got {list(self.radii)}")
        if not max(self.radii) >= MIN_CELL_SIZE:
            raise ValueError(f"radii must reach {MIN_CELL_SIZE:.3g} at their largest, so that "
                             f"a scene can plan, got {list(self.radii)}")
        if not self.grid_size >= MIN_CELL_SIZE:
            raise ValueError(f"grid_size must be at least {MIN_CELL_SIZE:.3g}, so that a scene "
                             f"can plan, got {self.grid_size}")
        if not self.loss_weight_disp >= 0:
            raise ValueError(f"loss_weight_disp must be >= 0, got {self.loss_weight_disp}")


@dataclass
class PredictionSet:
    """K regressed trajectories plus K predicted endpoint displacements."""

    trajectories: np.ndarray   # (K, T, 2)
    displacements: np.ndarray  # (K,)


@dataclass
class Model:
    config: ModelConfig
    embed: list
    spatial: list
    temporal: list
    head_reg: list
    head_disp: list
    params: dict = field(default_factory=dict)  # flat name -> Tensor


def init_model(config: ModelConfig, seed) -> Model:
    rng = np.random.default_rng(seed)
    reg: dict[str, Tensor] = {}
    embed = nn.init_mlp(reg, "embed", [EMBED_IN, config.embed_width], rng, final_norm_act=True)
    spatial, temporal = [], []
    c = config.embed_width
    for s in range(config.n_stages):
        spatial.append(init_spatial(reg, f"stage{s}/spatial", c, config, rng))
        temporal.append(init_temporal(reg, f"stage{s}/temporal", config.spatial_width, config, rng))
        c = config.temporal_width
    out_reg = config.n_modes * config.future_steps * 2
    head_reg = nn.init_mlp(reg, "head/reg", [c, config.head_width, out_reg], rng)
    head_disp = nn.init_mlp(reg, "head/disp", [c, config.head_width, config.n_modes], rng)
    return Model(config, embed, spatial, temporal, head_reg, head_disp, reg)


def scene_plan(scene: Scene, config: ModelConfig) -> ScenePlan:
    """Index ``scene`` and plan it for ``config``: the network's whole input for one scene."""
    check_history(scene, config)
    check_extent(scene, config)
    return plan_scene(index_scene(scene, config.grid_size), config)


def forward_graph(model: Model, plan: ScenePlan):
    """Run the network on one scene's plan, returning (reg head (1, K*T*2), disp head (1, K)).

    Each stage computes the rows of its ``plan.stages`` tables, which are
    all the rows that can reach the heads; the last stage's are the target
    agent's rows. Each kept row comes out as in a network over every row up
    to rounding: BLAS may round a product over fewer rows differently.
    """
    x = nn.apply_mlp(model.embed, ad.constant(plan.embedding))
    for sp, tp, rows in zip(model.spatial, model.temporal, plan.stages, strict=True):
        x = spatial_block(rows, x, sp)
        x = temporal_block(rows, x, tp)
    # x holds the target agent's rows alone: pool them into one vector
    pooled = ad.mean_rows(x)
    reg = nn.apply_mlp(model.head_reg, pooled)
    disp = nn.apply_mlp(model.head_disp, pooled)
    return reg, disp


def prediction_from_heads(reg: Tensor, disp: Tensor, config: ModelConfig) -> PredictionSet:
    k, t = config.n_modes, config.future_steps
    return PredictionSet(
        trajectories=reg.data.reshape(k, t, 2).copy(),
        displacements=disp.data.reshape(k).copy(),
    )


def forward(model: Model, scene: Scene) -> PredictionSet:
    with ad.no_grad():
        reg, disp = forward_graph(model, scene_plan(scene, model.config))
    return prediction_from_heads(reg, disp, model.config)


# ---------------------------------------------------------------------------
# losses


def select_best(pred: PredictionSet, gt: np.ndarray) -> int:
    """Index of the trajectory with the smallest endpoint error (ties: lowest)."""
    return int(np.argmin(displacement_targets(pred, gt)))


def loss_reg(reg: Tensor, gt: np.ndarray, k_star: int, config: ModelConfig) -> Tensor:
    """Smooth-L1 trajectory regression on the best mode only.

    The per-step x and y terms are summed then averaged over time, i.e.
    2x the elementwise mean over the k*-th (T, 2) block.
    """
    t2 = config.future_steps * 2
    block = ad.slice_cols(reg, k_star * t2, (k_star + 1) * t2)
    return ad.scale(ad.smooth_l1(block, gt.reshape(1, t2)), 2.0)


def displacement_targets(pred: PredictionSet, gt: np.ndarray) -> np.ndarray:
    """Actual endpoint errors per mode, used as detached regression targets."""
    return np.linalg.norm(pred.trajectories[:, -1, :] - gt[-1], axis=1)


def loss_disp(disp: Tensor, pred: PredictionSet, gt: np.ndarray) -> Tensor:
    d_star = displacement_targets(pred, gt)  # constants: no gradient into tau_reg
    return ad.smooth_l1(disp, d_star.reshape(1, -1))


def total_loss(reg: Tensor, disp: Tensor, gt: np.ndarray, config: ModelConfig) -> Tensor:
    pred = prediction_from_heads(reg, disp, config)
    k_star = select_best(pred, gt)
    l_reg = loss_reg(reg, gt, k_star, config)
    l_disp = loss_disp(disp, pred, gt)
    return ad.add(l_reg, ad.scale(l_disp, config.loss_weight_disp))


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig = ModelConfig()
    epochs: int = 36
    batch_size: int = 32
    lr: float = 1e-3
    lr_decay_epochs: tuple = (10, 20, 30)
    lr_decay_factor: float = 0.1
    augment: AugConfig | None = AugConfig()
    eval_every: int = 1  # 0: never
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("eval_every", 0), ("seed", 0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not all(e >= 0 for e in self.lr_decay_epochs):
            raise ValueError(f"lr_decay_epochs must be >= 0, got {list(self.lr_decay_epochs)}")
        for name in ("lr", "lr_decay_factor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class TrainResult:
    model: Model
    state: AdamState
    history: list
    checkpoint_path: Path | None


def _optimizer_arrays(model: Model, state: AdamState) -> dict:
    arrays = {f"params/{k}": t.data for k, t in model.params.items()}
    arrays.update({f"optim/m/{k}": v for k, v in state.m.items()})
    arrays.update({f"optim/v/{k}": v for k, v in state.v.items()})
    return arrays


def save_train_checkpoint(path, model: Model, state: AdamState, *, epoch: int):
    """Save ``model`` and ``state``; the manifest's config records the model's ``ModelConfig``."""
    return save_checkpoint(
        path,
        _optimizer_arrays(model, state),
        step=state.step,
        epoch=epoch,
        config={"model": asdict(model.config)},
    )


def restore_train_checkpoint(path, model: Model, state: AdamState) -> dict:
    """Read checkpoint ``path`` straight into ``model``'s parameters and ``state``'s moments.

    The checkpoint must hold exactly the model's ``params/``, ``optim/m/`` and
    ``optim/v/`` arrays; any fault raises before an array is written.
    """
    _, manifest = load_checkpoint(path, into=_optimizer_arrays(model, state))
    state.step = int(manifest["global_step"])
    return manifest


def check_future(item, config: ModelConfig) -> None:
    """Raise SceneValidationError unless scene or plan ``item`` has a future of future_steps."""
    if item.future is None:
        raise SceneValidationError(f"scene {item.scene_id!r} has no ground-truth future")
    if len(item.future) != config.future_steps:
        raise SceneValidationError(
            f"scene {item.scene_id!r} future has {len(item.future)} steps, "
            f"model regresses {config.future_steps} (model.future_steps)"
        )


def check_history(scene: Scene, config: ModelConfig) -> None:
    """Raise SceneValidationError unless ``scene`` spans the model's history_steps.

    The time feature divides each step by ``config.history_steps``, so a
    longer history would leave [0, 1) and a shorter one would skew it.
    """
    if scene.history_steps != config.history_steps:
        raise SceneValidationError(
            f"scene {scene.scene_id!r} has {scene.history_steps} history steps, "
            f"model reads {config.history_steps} (model.history_steps)"
        )


def check_extent(scene: Scene, config: ModelConfig) -> None:
    """Raise SceneValidationError unless ``scene``'s coordinates are finite and fit the plan's keys.

    A plan hashes each point's cell at ``grid_size`` and at the largest
    radius and probes the cells next to it, so every such cell index must lie
    in the signed 32-bit range of the packed keys. A config cannot bound this
    alone: augmentation scales the coordinates.
    """
    xy = np.concatenate([a.xy for a in scene.agents] + [m.xy for m in scene.map_elements])
    extent = np.abs(xy).max()
    if not np.isfinite(extent):
        raise SceneValidationError(f"scene {scene.scene_id!r}: largest |coordinate| {extent} "
                                   f"is not finite")
    for name, size in (("model.grid_size", config.grid_size),
                       ("the largest of model.radii", max(config.radii))):
        # a cell index is at most ceil(extent / size) in magnitude, and a probe one more
        if not extent / size <= KEY_RANGE - 2:
            raise SceneValidationError(
                f"scene {scene.scene_id!r}: largest |coordinate| {extent:g} in cells of "
                f"{name}, {size:g}, overflows the signed 32-bit cell keys")


def scene_forward_loss(model: Model, plan: ScenePlan):
    check_future(plan, model.config)
    reg, disp = forward_graph(model, plan)
    return total_loss(reg, disp, plan.future, model.config)


def evaluate_model(model: Model, plans: list[ScenePlan]):
    """Predict each plan under no_grad and score it once: ``(preds, report, errors)``.

    ``errors`` holds each scene's ``metrics.scene_errors`` row, and the
    ``metrics.EvalReport`` averages them.
    """
    for plan in plans:
        check_future(plan, model.config)
    with ad.no_grad():
        preds = [prediction_from_heads(*forward_graph(model, plan), model.config) for plan in plans]
    errors = metrics_mod.scene_errors(preds, [plan.future for plan in plans])
    return preds, metrics_mod.evaluate_report(errors), errors


# Gradient shards per batch: shard s holds batch positions s, s + SHARDS, ...
# Shard 0 runs in the calling process. The others run in workers forked once
# per train call when _worker_available(), else in the calling process.
SHARDS = 2

# seconds that train waits for a worker to exit before it terminates it
WORKER_JOIN_S = 10.0


def _worker_available() -> bool:
    """Whether the shards after the first may run in forked workers.

    That takes a usable CPU per shard, the ``fork`` start method, and a
    process of one OS thread: forking a threaded process is unsafe, and a
    BLAS thread pool (numpy's default) would oversubscribe the cores anyway.
    Without ``/proc`` the thread count is unknown, so no worker runs.
    """
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < SHARDS:
        return False
    if "fork" not in mp.get_all_start_methods():
        return False
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return False
    return any(line.split() == ["Threads:", "1"] for line in status.splitlines())


def _share_params(params: dict):
    """Move ``params`` into row 0 of an anonymous shared mapping of ``1 + SHARDS`` rows.

    Row ``1 + s`` is shard ``s``'s gradient sum; every row is laid out in the
    dict's order. Returns the rows. A process forked afterwards maps the same
    pages, so it reads every in-place update of the parameters, and the
    parent reads the sums it writes.
    """
    n = sum(t.data.size for t in params.values())
    rows = np.frombuffer(mmap.mmap(-1, 8 * n * (1 + SHARDS)), dtype=np.float64)
    rows = rows.reshape(1 + SHARDS, n)
    for t, view in zip(params.values(), nn.flat_views(rows[0], params).values()):
        view[...] = t.data
        t.data = view
    return rows


def _sum_shard(model: Model, row, epoch: int, ids, plan_of):
    """Sum the gradients of scenes ``ids`` into the flat ``row``, in order.

    Zeroes ``row`` and binds each parameter's ``.grad`` to its view of it, so
    ``backward`` adds every scene's gradient there in place. Stops at the
    first scene that fails; returns the losses of the scenes before it and
    the exception, or None.
    """
    row[...] = 0.0
    for t, view in zip(model.params.values(), nn.flat_views(row, model.params).values()):
        t.grad = view
    losses = []
    try:
        # an overflow shows as a non-finite loss here, or gradient in train, which raise
        with np.errstate(over="ignore", invalid="ignore"):
            for si in ids:
                plan = plan_of(epoch, si)
                loss = scene_forward_loss(model, plan)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch} on scene {plan.scene_id!r}"
                    )
                ad.backward(loss)  # adds into row
                losses.append(value)
    except Exception as exc:  # noqa: BLE001 - train raises the batch's earliest failure
        return losses, exc
    return losses, None


class _LocalShard:
    """A later shard run in the calling process, when it is sent."""

    def __init__(self, run):
        self.run = run

    def send(self, epoch, ids):
        self.reply = self.run(epoch, ids)

    def recv(self):
        return self.reply

    def close(self):
        pass


class _ShardWorker:
    """A later shard run by a process forked once, which answers each ``send``.

    Only scene indices, losses and exceptions cross the pipe: the parameters
    and the shard's gradient row live in ``_share_params``'s mapping, where
    the worker's ``backward`` adds into the row in place.
    """

    def __init__(self, run, parent_ends):
        ctx = mp.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve, args=(child, [*parent_ends, self.conn], run),
                                daemon=True)
        self.proc.start()
        child.close()  # the worker's death then reads as EOF here

    def send(self, epoch, ids):
        try:
            self.conn.send((epoch, ids))
        except OSError:
            self._died()

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self._died()

    def _died(self):
        self.proc.join(WORKER_JOIN_S)
        raise RuntimeError(
            f"training worker (pid {self.proc.pid}) died with exit code {self.proc.exitcode}"
        )

    def close(self):
        """Close the pipe, which ends the worker, and reap it; terminate it if it hangs."""
        self.conn.close()
        self.proc.join(WORKER_JOIN_S)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()


def _serve(conn, parent_ends, run):
    """A worker's loop: answer each ``(epoch, ids)`` with ``run``'s reply until EOF."""
    # Ctrl-C reaches the whole process group: the parent handles it and closes the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        end.close()  # so that the parent's death, even by SIGKILL, reads as EOF here
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        reply = run(*request)
        try:
            conn.send(reply)
        except OSError:
            return


def train(
    dataset: list[Scene],
    config: TrainConfig,
    *,
    checkpoint_path=None,
    log_path=None,
    resume=None,
) -> TrainResult:
    """Adam training with per-scene backward passes summed into batch gradients.

    Each batch is split into ``SHARDS`` fixed shards by position (0, 2, 4, ...
    and 1, 3, 5, ...). Each shard sums its scenes' gradients in batch order
    straight into its own flat row of ``_share_params``' mapping: its
    ``.grad`` arrays are views of that row, and leaves accumulate in place.
    Shard 0's row then becomes the batch mean, the later rows added in shard
    order and the sum divided by the batch size, and Adam steps on it. When
    ``_worker_available()`` (a usable CPU per shard, the ``fork`` start
    method, and a process of one OS thread), each later shard runs in a
    worker forked once per call, which reads the parameters from shared
    memory; otherwise the later shards run here, before shard 0, with the
    same arithmetic, so the result never depends on the machine.
    ``train_loss`` adds per-scene losses in batch order, and the earliest
    failing scene in batch order decides the error, raised here with its type
    and message whichever process ran it. Only this process writes the log
    and the checkpoints, and the ``eval_every`` pass runs here. The
    checkpoint's directory is made once the scenes, the resumed checkpoint
    and the plans are accepted.

    Deterministic for a fixed seed: shuffling and augmentation RNG streams
    derive from (seed, epoch) and (seed, epoch, scene), so resuming from an
    epoch-boundary checkpoint replays the identical sequence. Without
    augmentation every scene is planned once per call; with it, each step
    plans the augmented scene it trains on. The eval pass (``eval_every``)
    scores the un-augmented plans, which are then built once per call too.
    """
    if not dataset:
        raise ValueError("train: empty dataset")
    normalized = [normalize(s) for s in dataset]
    for sc in normalized:
        check_future(sc, config.model)
        check_history(sc, config.model)

    model = init_model(config.model, config.seed)
    state = adam_init(model.params)
    start_epoch = 0
    if resume is not None:
        manifest = restore_train_checkpoint(resume, model, state)
        start_epoch = int(manifest["epoch"]) + 1
        if start_epoch >= config.epochs:
            raise NothingToResume(
                f"checkpoint {resume} already holds epoch {start_epoch - 1} (epochs count "
                f"from 0), so epochs={config.epochs} leaves nothing to train"
            )

    plans = ([scene_plan(sc, config.model) for sc in normalized]
             if config.augment is None or config.eval_every else None)

    def plan_of(epoch, si):
        if config.augment is None:
            return plans[si]
        sc = augment(normalized[si], [config.seed, epoch, int(si)], config.augment)
        return scene_plan(sc, config.model)

    params_row, *grad_rows = _share_params(model.params)
    history = []
    ckpt = None  # the manifest path of the last checkpoint saved
    later = []  # shards 1.., each a _ShardWorker or a _LocalShard
    if checkpoint_path is not None:
        Path(checkpoint_path).parent.mkdir(parents=True, exist_ok=True)
    log_fh = open(log_path, "a") if log_path else None
    try:
        fork = _worker_available()
        for row in grad_rows[1:]:
            run = functools.partial(_sum_shard, model, row, plan_of=plan_of)
            later.append(_ShardWorker(run, [w.conn for w in later]) if fork else _LocalShard(run))
        for epoch in range(start_epoch, config.epochs):
            t0 = time.monotonic()
            lr = lr_at_epoch(epoch, config.lr, config.lr_decay_epochs, config.lr_decay_factor)
            order = np.random.default_rng([config.seed, epoch]).permutation(len(normalized))
            epoch_loss, n_seen = 0.0, 0
            for lo in range(0, len(order), config.batch_size):
                batch = order[lo : lo + config.batch_size]
                parts = [batch[s::SHARDS] for s in range(SHARDS)]
                busy = later[: len(batch) - 1]  # the later shards that have scenes
                for shard, part in zip(busy, parts[1:]):
                    shard.send(epoch, part)
                replies = [_sum_shard(model, grad_rows[0], epoch, parts[0], plan_of)]
                replies += [shard.recv() for shard in busy]
                failed = [(SHARDS * len(losses) + s, error)
                          for s, (losses, error) in enumerate(replies) if error is not None]
                if failed:
                    raise min(failed, key=lambda f: f[0])[1]
                for pos in range(len(batch)):
                    epoch_loss += replies[pos % SHARDS][0][pos // SHARDS]
                n_seen += len(batch)
                # the batch mean, in shard 0's row, which each .grad views
                grad = grad_rows[0]
                for row in grad_rows[1 : 1 + len(busy)]:
                    grad += row
                grad /= len(batch)
                if not np.isfinite(grad).all():
                    bad = next(k for k, t in model.params.items()
                               if not np.isfinite(t.grad).all())
                    raise TrainingDiverged(f"non-finite gradient of {bad!r} at epoch {epoch}")
                # one step over the flat rows: both lie in model.params' order, as state's do
                adam_step(params_row, grad, state, lr)

            entry = {"epoch": epoch, "lr": lr, "train_loss": epoch_loss / max(n_seen, 1)}
            if config.eval_every and (epoch + 1) % config.eval_every == 0:
                with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                    entry.update(asdict(evaluate_model(model, plans)[1]))
            bad = [k for k, v in entry.items() if not np.isfinite(v)]
            if bad:
                raise TrainingDiverged(f"non-finite {bad[0]} at epoch {epoch}")
            entry["wall_seconds"] = time.monotonic() - t0
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry, allow_nan=False) + "\n")
                log_fh.flush()
            if checkpoint_path is not None:
                ckpt = save_train_checkpoint(checkpoint_path, model, state, epoch=epoch)
    finally:
        for shard in later:
            shard.close()
        if log_fh:
            log_fh.close()

    return TrainResult(model=model, state=state, history=history, checkpoint_path=ckpt)
