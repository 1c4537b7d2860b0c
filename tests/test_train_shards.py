"""network.train's gradient shards: the forked worker and the in-process path agree bit for
bit, errors reach the caller in batch order, and no worker outlives its train call."""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import live_children, proc_stat
from test_network import SMALL, gen_small

from pointcast import autodiff as ad
from pointcast import network, nn
from pointcast.network import TrainConfig, TrainingDiverged, train
from pointcast.scenes import AugConfig, SceneValidationError

ROOT = Path(__file__).resolve().parents[1]


def shard_cfg(batch_size, augment=None, epochs=2):
    return TrainConfig(model=SMALL, epochs=epochs, batch_size=batch_size, lr=1e-2,
                       lr_decay_epochs=(), augment=augment, eval_every=0, seed=7)


def use_worker(monkeypatch, on: bool):
    monkeypatch.setattr(network, "_worker_available", lambda: on)


def recording_pids(monkeypatch, path):
    """Patch scene_forward_loss to append the calling process's pid to ``path``."""
    real = network.scene_forward_loss

    def loss(model, plan):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(model, plan)

    monkeypatch.setattr(network, "scene_forward_loss", loss)


def batch_positions(cfg, data, epoch=0):
    """Scene ids in batch order for ``epoch``, one list per batch."""
    order = np.random.default_rng([cfg.seed, epoch]).permutation(len(data))
    ids = [data[i].scene_id for i in order]
    return [ids[lo : lo + cfg.batch_size] for lo in range(0, len(ids), cfg.batch_size)]


@pytest.mark.parametrize("augment, n_scenes, batch_size", [
    (None, 7, 4),          # a final partial batch of 3
    (AugConfig(), 7, 4),
    (None, 3, 1),          # batches of 1: no odd positions
    (AugConfig(), 5, 2),
], ids=["plain", "augmented", "batch1", "augmented-batch2"])
def test_worker_path_matches_in_process_path(monkeypatch, tmp_path, augment, n_scenes,
                                             batch_size):
    data = gen_small(n_scenes, seed=70)
    cfg = shard_cfg(batch_size, augment)
    results = {}
    for on in (True, False):
        use_worker(monkeypatch, on)
        pids = tmp_path / f"pids-{on}"
        with monkeypatch.context() as m:
            recording_pids(m, pids)
            results[on] = train(data, cfg, checkpoint_path=tmp_path / f"ckpt-{on}")
        seen = set(pids.read_text().split())
        assert len(seen) == (2 if on and batch_size > 1 else 1)
        assert not live_children(os.getpid())
    forked, local = results[True], results[False]
    assert [h["train_loss"] for h in forked.history] == [h["train_loss"] for h in local.history]
    for name, t in forked.model.params.items():
        assert t.data.tobytes() == local.model.params[name].data.tobytes(), name
    assert (tmp_path / "ckpt-True.bin").read_bytes() == (tmp_path / "ckpt-False.bin").read_bytes()


def test_first_step_gradient_matches_sequential_sum(monkeypatch):
    # the shards change the summation order only: the first step's gradient is
    # the old sequential batch mean up to rounding
    data = gen_small(8, seed=71)
    cfg = shard_cfg(8, epochs=1)
    steps = []
    real_step = network.adam_step
    monkeypatch.setattr(network, "adam_step",  # train steps on flat rows
                        lambda p, g, s, lr: steps.append(g.copy()) or real_step(p, g, s, lr))
    train(data, cfg)
    ref = network.init_model(SMALL, cfg.seed)
    steps = [nn.flat_views(g, ref.params) for g in steps]
    order = np.random.default_rng([cfg.seed, 0]).permutation(len(data))
    for t in ref.params.values():
        t.zero_grad()
    for i in order:
        plan = network.scene_plan(network.normalize(data[i]), SMALL)
        ad.backward(network.scene_forward_loss(ref, plan))
    for k, t in ref.params.items():
        want = (t.grad if t.grad is not None else np.zeros_like(t.data)) / len(data)
        got = steps[0][k]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), k


def failing_at(monkeypatch, failures: dict):
    """Patch scene_forward_loss to raise ``failures[scene_id]`` for those scenes."""
    real = network.scene_forward_loss

    def loss(model, plan):
        if plan.scene_id in failures:
            raise failures[plan.scene_id]
        return real(model, plan)

    monkeypatch.setattr(network, "scene_forward_loss", loss)


def test_worker_error_reaches_caller_with_its_type_and_message(monkeypatch):
    data = gen_small(6, seed=72)
    cfg = shard_cfg(4)
    odd = batch_positions(cfg, data)[0][1]  # run by the worker
    use_worker(monkeypatch, True)
    failing_at(monkeypatch, {odd: SceneValidationError(f"scene {odd!r} is malformed")})
    with pytest.raises(SceneValidationError) as info:
        train(data, cfg)
    assert str(info.value) == f"scene {odd!r} is malformed"
    assert not live_children(os.getpid())


@pytest.mark.parametrize("on", [True, False], ids=["worker", "in-process"])
def test_earliest_failure_in_batch_order_decides(monkeypatch, on):
    data = gen_small(8, seed=73)
    cfg = shard_cfg(8)
    batch = batch_positions(cfg, data)[0]
    use_worker(monkeypatch, on)
    # shard 0 fails at position 2 and shard 1 at position 1: position 1 wins
    failing_at(monkeypatch, {batch[2]: SceneValidationError("position 2"),
                             batch[1]: TrainingDiverged("position 1")})
    with pytest.raises(TrainingDiverged, match="position 1"):
        train(data, cfg)
    # shard 0 fails at position 0 and shard 1 at position 3: position 0 wins
    failing_at(monkeypatch, {batch[3]: TrainingDiverged("position 3"),
                             batch[0]: SceneValidationError("position 0")})
    with pytest.raises(SceneValidationError, match="position 0"):
        train(data, cfg)


def test_non_finite_loss_in_worker_names_scene(monkeypatch):
    data = gen_small(4, seed=74)
    cfg = shard_cfg(4)
    odd = batch_positions(cfg, data)[0][1]
    real = network.scene_forward_loss
    monkeypatch.setattr(network, "scene_forward_loss", lambda model, plan: (
        ad.constant(np.array([[np.nan]])) if plan.scene_id == odd else real(model, plan)))
    use_worker(monkeypatch, True)
    with pytest.raises(TrainingDiverged, match=f"non-finite loss at epoch 0 on scene {odd!r}$"):
        train(data, cfg)


def test_worker_that_dies_raises_in_parent(monkeypatch):
    data = gen_small(4, seed=75)
    parent = os.getpid()
    real = network.scene_forward_loss

    def loss(model, plan):
        if os.getpid() != parent:
            os._exit(3)
        return real(model, plan)

    monkeypatch.setattr(network, "scene_forward_loss", loss)
    use_worker(monkeypatch, True)
    with pytest.raises(RuntimeError, match="training worker .* died with exit code 3"):
        train(data, shard_cfg(4))
    assert not live_children(os.getpid())


def test_worker_ends_when_parent_is_killed():
    # the parent dies by SIGKILL, so its finally never runs: the worker must
    # see EOF on its pipe and exit on its own
    script = textwrap.dedent(f"""
        import os, time
        from pointcast import ModelConfig, gen_synthetic, network
        from pointcast.network import TrainConfig

        network._worker_available = lambda: True
        real, announced = network.scene_forward_loss, set()

        def slow_loss(model, plan):
            if os.getpid() not in announced:
                announced.add(os.getpid())
                print(os.getpid(), flush=True)
            time.sleep(0.01)
            return real(model, plan)

        network.scene_forward_loss = slow_loss
        cfg = {SMALL!r}
        network.train(gen_synthetic(4, 76, future_steps=cfg.future_steps),
                      TrainConfig(model=cfg, epochs=1_000, batch_size=4, augment=None,
                                  eval_every=0))
    """)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        pids = set()
        while len(pids) < 2:
            line = proc.stdout.readline()
            assert line, f"training exited with {proc.wait(timeout=30)} before both shards ran"
            assert line.strip().isdigit(), f"training printed {line!r} where a pid was expected"
            pids.add(int(line))
        (worker,) = pids - {proc.pid}
        assert worker in live_children(proc.pid)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and is_running(worker):
        time.sleep(0.05)
    survived = is_running(worker)
    if survived:
        os.kill(worker, signal.SIGKILL)  # leave no orphan behind a failing test
    assert not survived, f"worker {worker} outlived its killed parent"


def is_running(pid: int) -> bool:
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def test_worker_available_needs_cpus_fork_and_one_thread(monkeypatch):
    # the test harness pins BLAS to one thread, so the process runs one thread
    assert network._worker_available() == (len(os.sched_getaffinity(0)) >= network.SHARDS)
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not network._worker_available()
    with monkeypatch.context() as m:
        m.setattr(network.mp, "get_all_start_methods", lambda: ["spawn"])
        assert not network._worker_available()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(network.SHARDS)))
    assert network._worker_available()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not network._worker_available()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
