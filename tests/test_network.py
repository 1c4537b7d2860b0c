import dataclasses
import re
import sys
import weakref

import numpy as np
import pytest

from conftest import every_row_heads, fd_grad
from test_acceptance import OVERFIT_MODEL, TINY

from pointcast import (
    ModelConfig,
    PredictionSet,
    TrainConfig,
    autodiff as ad,
    forward,
    gen_synthetic,
    init_model,
    normalize,
    rank_trajectories,
    select_best,
)
from pointcast import indexing, metrics, network, nn, spatial, temporal
from pointcast.indexing import KIND_MAP, index_scene
from pointcast.scenes import AgentTrack, AugConfig, MapElement, SceneValidationError
from pointcast.network import (
    TrainingDiverged,
    evaluate_model,
    forward_graph,
    loss_disp,
    loss_reg,
    prediction_from_heads,
    scene_plan,
    total_loss,
    train,
)

SMALL = ModelConfig(
    n_stages=1,
    intervals=(2, 4),
    radii=(0.4, 0.8),
    grid_size=0.4,
    n_modes=3,
    future_steps=5,
    embed_width=8,
    radius_width=8,
    pointwise_width=8,
    voxel_width=8,
    spatial_width=12,
    interval_width=8,
    temporal_width=12,
    head_width=12,
)


def gen_small(n, seed):
    return gen_synthetic(n, seed, future_steps=SMALL.future_steps)


@pytest.fixture(scope="module")
def small_model():
    return init_model(SMALL, seed=1)


@pytest.fixture(scope="module")
def scene():
    return normalize(gen_small(1, seed=21)[0])


def test_forward_shapes(small_model, scene):
    pred = forward(small_model, scene)
    assert pred.trajectories.shape == (3, 5, 2)
    assert pred.displacements.shape == (3,)
    assert np.all(np.isfinite(pred.trajectories))


def test_forward_deterministic(small_model, scene):
    a = forward(small_model, scene)
    b = forward(small_model, scene)
    assert np.array_equal(a.trajectories, b.trajectories)
    assert np.array_equal(a.displacements, b.displacements)


def test_forward_requires_target(small_model, scene):
    import dataclasses

    broken = dataclasses.replace(scene, agents=[a for a in scene.agents if a.track_id != scene.target_id])
    with pytest.raises(Exception):
        forward(small_model, broken)


def probe_scene():
    """Target track with a lane running inside the neighborhood radius."""
    from pointcast.scenes import AgentTrack, Scene

    steps = np.arange(20, dtype=np.int64)
    xy = np.stack([(steps - 19) * 0.5, np.zeros(20)], axis=1)
    lane = np.stack([np.arange(-10.0, 2.0, 0.4), np.full(30, 0.3)], axis=1)
    future = np.stack([0.5 + np.arange(SMALL.future_steps) * 0.5,
                       np.zeros(SMALL.future_steps)], axis=1)
    return normalize(
        Scene(
            agents=[AgentTrack("tgt", steps, xy)],
            map_elements=[MapElement("lane", lane)],
            target_id="tgt",
            future=future,
            future_steps=SMALL.future_steps,
        )
    )


def test_map_point_changes_prediction(small_model):
    import copy

    scene = probe_scene()
    pred = forward(small_model, scene)
    bumped = copy.deepcopy(scene)
    # move the lane point nearest the target's current position
    nearest = np.argmin(np.linalg.norm(bumped.map_elements[0].xy, axis=1))
    bumped.map_elements[0].xy[nearest] += 0.15
    pred_b = forward(small_model, bumped)
    assert not np.allclose(pred.trajectories, pred_b.trajectories)


def test_added_map_instance_preserves_agent_rows(scene):
    import copy

    ps = index_scene(scene, 0.4)
    grown = copy.deepcopy(scene)
    grown.map_elements.append(MapElement("extra", np.array([[1.0, 1.0], [2.0, 1.0]])))
    ps2 = index_scene(grown, 0.4)
    agent_rows = np.flatnonzero(ps.kind != KIND_MAP)
    np.testing.assert_array_equal(ps.points[agent_rows], ps2.points[agent_rows])
    np.testing.assert_array_equal(ps.instance[agent_rows], ps2.instance[agent_rows])


def test_forward_instance_order_invariance(small_model, scene):
    import dataclasses

    pred = forward(small_model, scene)
    shuffled = dataclasses.replace(
        scene,
        agents=list(reversed(scene.agents)),
        map_elements=list(reversed(scene.map_elements)),
    )
    pred_s = forward(small_model, shuffled)
    np.testing.assert_allclose(pred_s.trajectories, pred.trajectories, atol=1e-9)
    np.testing.assert_allclose(pred_s.displacements, pred.displacements, atol=1e-9)


# ---------------------------------------------------------------------------
# losses


def mk_pred(endpoint_errors, t=5):
    k = len(endpoint_errors)
    trajs = np.zeros((k, t, 2))
    for i, err in enumerate(endpoint_errors):
        trajs[i, -1] = [err, 0.0]
    return PredictionSet(trajectories=trajs, displacements=np.zeros(k))


def test_select_best_argmin():
    gt = np.zeros((5, 2))
    assert select_best(mk_pred([3.0, 1.0, 2.0]), gt) == 1


def test_select_best_tie_lowest_index():
    gt = np.zeros((5, 2))
    assert select_best(mk_pred([2.0, 2.0, 2.0]), gt) == 0


def test_select_best_single_mode():
    gt = np.zeros((5, 2))
    assert select_best(mk_pred([9.0]), gt) == 0


def test_loss_reg_zero_on_exact():
    cfg = SMALL
    gt = np.random.default_rng(0).normal(size=(cfg.future_steps, 2))
    full = np.zeros((1, cfg.n_modes * cfg.future_steps * 2))
    full[0, : cfg.future_steps * 2] = gt.reshape(-1)
    assert loss_reg(ad.constant(full), gt, 0, cfg).item() == 0.0


def test_loss_reg_constant_offset_formula():
    # 0.5 m offset on x only, quadratic region: (1/T) sum rho = 0.5 * 0.25 = 0.125
    cfg = SMALL
    gt = np.zeros((cfg.future_steps, 2))
    full = np.zeros((1, cfg.n_modes * cfg.future_steps * 2))
    block = np.zeros((cfg.future_steps, 2))
    block[:, 0] = 0.5
    full[0, : cfg.future_steps * 2] = block.reshape(-1)
    assert loss_reg(ad.constant(full), gt, 0, cfg).item() == pytest.approx(0.125)


def test_loss_reg_gradient_only_on_selected_mode():
    cfg = SMALL
    gt = np.ones((cfg.future_steps, 2))
    reg = ad.parameter(np.zeros((1, cfg.n_modes * cfg.future_steps * 2)))
    k_star = 1
    ad.backward(loss_reg(reg, gt, k_star, cfg))
    t2 = cfg.future_steps * 2
    grad = reg.grad.reshape(cfg.n_modes, t2)
    assert np.all(grad[k_star] != 0.0)
    assert np.all(grad[[k for k in range(cfg.n_modes) if k != k_star]] == 0.0)


def test_loss_disp_zero_when_exact():
    pred = mk_pred([1.0, 2.0, 3.0])
    disp = ad.constant(np.array([[1.0, 2.0, 3.0]]))
    assert loss_disp(disp, pred, np.zeros((5, 2))).item() == 0.0


def test_loss_disp_linear_region_value():
    # K=1, predicted d = 0, actual endpoint error 2.0 -> rho = 2 - 0.5 = 1.5
    pred = mk_pred([2.0])
    disp = ad.constant(np.array([[0.0]]))
    assert loss_disp(disp, pred, np.zeros((5, 2))).item() == pytest.approx(1.5)


def test_loss_disp_detached_from_regression(small_model, scene):
    # d* targets are constants: L_disp contributes no gradient to the reg head
    reg, disp = forward_graph(small_model, scene_plan(scene, SMALL))
    pred = prediction_from_heads(reg, disp, small_model.config)
    ldisp = loss_disp(disp, pred, scene.future)
    for t in small_model.params.values():
        t.zero_grad()
    ad.backward(ldisp)
    for name in ("head/reg/l1/w", "head/reg/l0/w"):
        grad = small_model.params[name].grad
        assert grad is None or np.all(grad == 0.0)
    # but the value does depend on the regression head outputs
    assert small_model.params["head/disp/l1/w"].grad is not None


def test_total_loss_sum_and_gradient(small_model, scene):
    reg, disp = forward_graph(small_model, scene_plan(scene, SMALL))
    pred = prediction_from_heads(reg, disp, small_model.config)
    k_star = select_best(pred, scene.future)
    l_r = loss_reg(reg, scene.future, k_star, small_model.config).item()
    l_d = loss_disp(disp, pred, scene.future).item()
    total = total_loss(reg, disp, scene.future, small_model.config).item()
    assert total == pytest.approx(l_r + 1.0 * l_d)


def test_total_loss_finite_differences_on_heads(small_model, scene):
    # spot-check the end-to-end loss gradient on a few head parameters;
    # k* and the displacement targets are detached constants in the training
    # gradient, so they stay frozen at their base values under perturbation
    leaf = small_model.params["head/reg/l1/w"]
    leaf_d = small_model.params["head/disp/l1/b"]
    base = forward(small_model, scene)
    k_star = select_best(base, scene.future)
    d_star = network.displacement_targets(base, scene.future)

    plan = scene_plan(scene, SMALL)

    def make_loss():
        reg, disp = forward_graph(small_model, plan)
        l_r = loss_reg(reg, scene.future, k_star, small_model.config)
        l_d = ad.smooth_l1(disp, d_star.reshape(1, -1))
        return ad.add(l_r, ad.scale(l_d, small_model.config.loss_weight_disp))

    loss = make_loss()
    for t in (leaf, leaf_d):
        t.zero_grad()
    ad.backward(loss)
    for t in (leaf, leaf_d):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        sub = np.s_[: min(3, t.data.shape[0]), : min(4, t.data.shape[1])]
        num = fd_grad(lambda: make_loss().item(), t.data[sub])  # in-place on the view
        np.testing.assert_allclose(analytic[sub], num, rtol=1e-4, atol=1e-6)


def test_rank_trajectories_examples():
    pred = PredictionSet(
        trajectories=np.zeros((6, 5, 2)),
        displacements=np.array([1.2, 0.4, 0.9, 2.0, 0.4, 3.0]),
    )
    assert rank_trajectories(pred).tolist() == [1, 4, 2, 0, 3, 5]
    pred_eq = PredictionSet(np.zeros((4, 5, 2)), np.zeros(4))
    assert rank_trajectories(pred_eq).tolist() == [0, 1, 2, 3]
    pred_one = PredictionSet(np.zeros((1, 5, 2)), np.zeros(1))
    assert rank_trajectories(pred_one).tolist() == [0]


def test_rank_invariant_under_monotone_transform(rng):
    disp = rng.normal(size=8)
    a = PredictionSet(np.zeros((8, 5, 2)), disp)
    b = PredictionSet(np.zeros((8, 5, 2)), np.exp(2.0 * disp))
    np.testing.assert_array_equal(rank_trajectories(a), rank_trajectories(b))


def test_loss_reg_monotone_in_coordinate_error(rng):
    # shrinking every coordinate error of the selected mode never raises L_reg
    cfg = SMALL
    gt = rng.normal(size=(cfg.future_steps, 2))
    block = gt + rng.normal(size=gt.shape)
    full = np.zeros((1, cfg.n_modes * cfg.future_steps * 2))
    prev = np.inf
    for shrink in (1.0, 0.7, 0.4, 0.1, 0.0):
        full[0, : cfg.future_steps * 2] = (gt + shrink * (block - gt)).reshape(-1)
        val = loss_reg(ad.constant(full), gt, 0, cfg).item()
        assert val <= prev + 1e-12
        prev = val


# ---------------------------------------------------------------------------
# training loop


def train_cfg(epochs=2, seed=3):
    return TrainConfig(
        model=SMALL,
        epochs=epochs,
        batch_size=4,
        lr=1e-3,
        lr_decay_epochs=(),
        augment=None,
        eval_every=0,
        seed=seed,
    )


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train([], train_cfg())


@pytest.mark.parametrize("history_steps", [40, 8])
def test_other_history_horizon_rejected(history_steps):
    # the time feature step / model.history_steps would leave [0, 1) or skew
    data = gen_synthetic(2, seed=0, history_steps=history_steps,
                         future_steps=SMALL.future_steps)
    names = f"has {history_steps} history steps, model reads 20 (model.history_steps)"
    with pytest.raises(SceneValidationError, match=re.escape(names)):
        scene_plan(normalize(data[0]), SMALL)
    with pytest.raises(SceneValidationError, match=re.escape(names)):
        forward(init_model(SMALL, seed=0), normalize(data[0]))
    # augmented steps plan as they go; train checks every scene before its first step
    augmented = dataclasses.replace(train_cfg(), augment=AugConfig())
    with pytest.raises(SceneValidationError, match=re.escape(names)):
        train(data, augmented)


def test_train_same_seed_identical_history():
    data = gen_small(4, seed=31)
    a = train(data, train_cfg())
    b = train(data, train_cfg())
    assert [h["train_loss"] for h in a.history] == [h["train_loss"] for h in b.history]
    for k in a.model.params:
        np.testing.assert_array_equal(a.model.params[k].data, b.model.params[k].data)


def test_train_resume_matches_uninterrupted(tmp_path):
    data = gen_small(4, seed=32)
    full = train(data, train_cfg(epochs=4), checkpoint_path=tmp_path / "full")
    half = train(data, train_cfg(epochs=2), checkpoint_path=tmp_path / "half")
    resumed = train(
        data,
        train_cfg(epochs=4),
        checkpoint_path=tmp_path / "resumed",
        resume=half.checkpoint_path,
    )
    assert (tmp_path / "full.bin").read_bytes() == (tmp_path / "resumed.bin").read_bytes()
    assert full.state.step == resumed.state.step


def test_train_divergence_names_scene(monkeypatch):
    data = gen_small(2, seed=33)

    def bad_loss(model, sc):
        return ad.constant(np.array([[np.inf]]))

    monkeypatch.setattr(network, "scene_forward_loss", bad_loss)
    with pytest.raises(TrainingDiverged, match="syn-0000"):
        train(data, train_cfg(epochs=1))


def test_train_steps_with_batch_mean_of_scene_gradients(monkeypatch):
    # 5 scenes at batch size 4 give two Adam steps; each must see (the sum over
    # the even batch positions + the sum over the odd ones) / batch size, each
    # sum in batch order, and zeros for a parameter none reaches. In-process,
    # so that the recording patches see every scene.
    real_init, real_loss = network.init_model, network.scene_forward_loss
    real_step = network.adam_step
    plans, steps = [], []

    def init_with_unused(config, seed):
        model = real_init(config, seed)
        model.params["unused"] = ad.parameter(np.ones((2, 3)))
        return model

    def recording_loss(model, plan):
        plans.append(plan)
        return real_loss(model, plan)

    def recording_step(params, grads, state, lr):  # train steps on flat rows
        steps.append((params.copy(), len(plans), grads.copy()))
        return real_step(params, grads, state, lr)

    monkeypatch.setattr(network, "_worker_available", lambda: False)
    monkeypatch.setattr(network, "init_model", init_with_unused)
    monkeypatch.setattr(network, "scene_forward_loss", recording_loss)
    monkeypatch.setattr(network, "adam_step", recording_step)
    cfg = TrainConfig(model=SMALL, epochs=1, batch_size=4, lr=1e-2, lr_decay_epochs=(),
                      augment=None, eval_every=0, seed=5)
    data = gen_small(5, seed=35)
    train(data, cfg)
    assert [n_seen for _, n_seen, _ in steps] == [4, 5]
    order = np.random.default_rng([cfg.seed, 0]).permutation(len(data))
    ids = [data[i].scene_id for i in order]

    ref = init_with_unused(SMALL, cfg.seed)
    names = list(ref.params)
    steps = [(nn.flat_views(before, ref.params), hi, nn.flat_views(grads, ref.params))
             for before, hi, grads in steps]
    lo = 0
    for before, hi, grads in steps:
        for k in names:
            ref.params[k].data = before[k].copy()
        by_pos = {ids.index(plan.scene_id) - lo: plan for plan in plans[lo:hi]}
        assert sorted(by_pos) == list(range(hi - lo))
        total = None
        for shard in (0, 1):
            shard_sum = None
            for pos in range(shard, hi - lo, 2):
                for t in ref.params.values():
                    t.zero_grad()
                per_scene = ad.backward(real_loss(ref, by_pos[pos]),
                                        leaves=[ref.params[k] for k in names])
                g = {k: per_scene[ref.params[k]] for k in names}
                shard_sum = g if shard_sum is None else {k: shard_sum[k] + g[k] for k in names}
            if shard_sum is not None:
                total = shard_sum if total is None else {k: total[k] + shard_sum[k] for k in names}
        assert sorted(grads) == sorted(names)
        for k in names:
            assert np.array_equal(grads[k], total[k] / (hi - lo)), k
        assert np.array_equal(grads["unused"], np.zeros((2, 3)))
        lo = hi


def test_scene_forward_loss_reads_the_future_from_the_plan(small_model, scene):
    plan = scene_plan(scene, SMALL)
    with pytest.raises(ValueError, match=f"{scene.scene_id!r} has no ground-truth future"):
        network.scene_forward_loss(small_model, dataclasses.replace(plan, future=None))
    with pytest.raises(ValueError, match="future has 4 steps, model regresses 5"):
        network.scene_forward_loss(small_model, dataclasses.replace(plan, future=plan.future[:4]))


def test_train_with_cached_plans_matches_planning_every_step():
    # augment=None plans each scene once per call; the identity augmentation
    # plans an unchanged copy of the scene at every step
    data = gen_synthetic(3, seed=41, future_steps=OVERFIT_MODEL.future_steps)
    cached, planned = (
        train(data, TrainConfig(model=OVERFIT_MODEL, epochs=3, batch_size=2, lr=1e-2,
                                augment=augment, eval_every=0, seed=4))
        for augment in (None, AugConfig((1.0, 1.0), 1.0, 0.0))
    )
    losses = [h["train_loss"] for h in cached.history]
    assert len(losses) == 3
    assert losses == [h["train_loss"] for h in planned.history]
    for name, t in cached.model.params.items():
        assert t.data.tobytes() == planned.model.params[name].data.tobytes(), name


def test_train_overfits_single_scene():
    # one scene, 150 steps (constant lr): loss collapses below 5% of step 0
    data = gen_small(1, seed=555)
    cfg = TrainConfig(model=SMALL, epochs=150, batch_size=1, lr=1e-2,
                      lr_decay_epochs=(), augment=None, eval_every=0, seed=0)
    result = train(data, cfg)
    losses = [h["train_loss"] for h in result.history]
    assert losses[-1] < 0.05 * losses[0]


def test_train_logs_metrics(tmp_path):
    # the eval pass scores the trained model on the un-augmented plans, so the
    # last log line holds evaluate_model's report bit for bit
    data = gen_small(2, seed=34)
    cfg = TrainConfig(
        model=SMALL, epochs=2, batch_size=2, lr=1e-3, lr_decay_epochs=(),
        augment=AugConfig(), eval_every=1, seed=0,
    )
    log = tmp_path / "log.jsonl"
    result = train(data, cfg, log_path=log)
    import json

    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert len(lines) == 2
    entry = lines[-1]
    for key in ("epoch", "lr", "train_loss", "minADE_6", "minFDE_6", "MR_6",
                "minADE_1", "minFDE_1", "MR_1", "n_scenes", "wall_seconds"):
        assert key in entry
    _, report, _ = evaluate_model(result.model, [scene_plan(normalize(s), SMALL) for s in data])
    for key, value in dataclasses.asdict(report).items():
        assert np.float64(entry[key]).tobytes() == np.float64(value).tobytes(), key


def _count_calls(monkeypatch, fn):
    """Wrap ``fn`` at every pointcast module attribute bound to it; returns the call list."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "pointcast" or name.startswith("pointcast."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


@pytest.mark.parametrize("n_stages", [1, 4])
def test_forward_builds_topology_once_per_scene(monkeypatch, n_stages):
    cfg = ModelConfig(n_stages=n_stages)  # the default recipe at 1 and 4 stages
    model = init_model(cfg, seed=0)
    data = gen_synthetic(2, seed=3, future_steps=cfg.future_steps)
    radius_calls = _count_calls(monkeypatch, spatial.radius_pairs)
    group_calls = _count_calls(monkeypatch, indexing.group_by_keys)
    forward(model, normalize(data[0]))
    assert len(radius_calls) == 1  # at the largest radius; the others mask its pairs
    assert len(group_calls) == len(cfg.intervals) + 2  # voxels, each interval, instances

    # training plans each scene once per call without augmentation, and the
    # augmented scene at each of its 2 x 2 steps with it; the eval pass reads
    # the un-augmented plans, so it adds one plan per scene per call with
    # augmentation and none without
    for augment, eval_every, plans in ((None, 0, len(data)), (None, 1, len(data)),
                                       (AugConfig(), 0, 2 * len(data)),
                                       (AugConfig(), 1, 3 * len(data))):
        radius_calls.clear()
        train(data, TrainConfig(model=cfg, epochs=2, batch_size=1, augment=augment,
                                eval_every=eval_every))
        assert len(radius_calls) == plans, (augment, eval_every)


def test_forward_builds_one_conv_node_per_bottleneck_block(monkeypatch):
    cfg = ModelConfig()
    model = init_model(cfg, seed=0)
    scene = normalize(gen_synthetic(1, seed=3, future_steps=cfg.future_steps)[0])
    plan = scene_plan(scene, cfg)
    convs = _count_calls(monkeypatch, ad.submanifold_conv)
    forward_graph(model, plan)
    assert len(convs) == cfg.n_stages * cfg.bottleneck_blocks

    rows = plan.stages[0]
    assert sum(len(pair[0]) for pair in rows.kernel_map if pair is not None) > 0
    feats = ad.constant(np.random.default_rng(0).normal(size=(len(rows.voxels),
                                                               cfg.embed_width)))
    calls = {fn.__name__: _count_calls(monkeypatch, fn)
             for fn in (ad.gather_rows, ad.scatter_add_rows, ad.add)}
    spatial.sparse_bottleneck(rows.kernel_map, feats, model.spatial[0])
    # the taps add no nodes of their own; the only add is each block's residual
    assert {k: len(v) for k, v in calls.items()} == {
        "gather_rows": 0, "scatter_add_rows": 0, "add": cfg.bottleneck_blocks,
    }


def _take_nodes(plan):
    """The take_rows nodes of a forward: one per row list of a stage's tables that is not all."""
    return sum(ids is not None for rows in plan.stages
               for ids in (*rows.neighbor_rows, rows.voxel_points, rows.voxel_rows))


# the nodes of a forward besides its take_rows nodes
@pytest.mark.parametrize("cfg, nodes", [(ModelConfig(), 198), (OVERFIT_MODEL, 88)],
                         ids=["default", "overfit"])
def test_forward_graph_builds_one_node_per_norm_site(monkeypatch, cfg, nodes):
    model = init_model(cfg, seed=0)
    gains = sorted(id(t) for name, t in model.params.items() if name.endswith("/gain"))
    calls = {fn.__name__: _count_calls(monkeypatch, fn)
             for fn in (ad.layer_norm, ad.relu, ad.norm_act, ad.dense, ad.linear,
                        ad.concat_cols, ad.concat_cols_all, ad.gather_rows, ad.take_rows)}
    built = _record_ops(monkeypatch)
    for raw in gen_synthetic(3, seed=0, future_steps=cfg.future_steps):
        built.clear()
        for c in calls.values():
            c.clear()
        plan = scene_plan(normalize(raw), cfg)
        forward_graph(model, plan)
        # every layer norm is one node, its relu included: a dense node with
        # its linear map, or a norm_act after a submanifold conv; the only
        # relu nodes left are the bottleneck residuals
        assert sorted([id(args[3]) for args in calls["dense"]]
                      + [id(args[1]) for args in calls["norm_act"]]) == gains
        assert len(calls["norm_act"]) == cfg.n_stages * cfg.bottleneck_blocks
        assert len(calls["layer_norm"]) == 0
        # the linear maps left are the MLP output layers, which have no norm
        assert len(calls["linear"]) == sum(
            name.endswith("/w") for name in model.params) - len(calls["dense"])
        assert len(calls["relu"]) == cfg.n_stages * cfg.bottleneck_blocks
        # every concat and every slice-back is a column block of a linear map;
        # the only gathered copy left is each stage's interpolation candidates,
        # which the softmax weights scale
        assert len(calls["concat_cols"]) == len(calls["concat_cols_all"]) == 0
        assert len(calls["gather_rows"]) == cfg.n_stages
        assert len(calls["take_rows"]) == _take_nodes(plan) > 0
        assert len(built) == nodes + _take_nodes(plan)


def test_backward_frees_the_training_graph(monkeypatch):
    model = init_model(OVERFIT_MODEL, seed=0)
    scene = normalize(gen_synthetic(1, seed=3, future_steps=OVERFIT_MODEL.future_steps)[0])
    values, op = [], ad._op

    def recording(*args):
        t = op(*args)
        values.append(weakref.ref(t.data))
        return t

    monkeypatch.setattr(ad, "_op", recording)
    plan = scene_plan(scene, OVERFIT_MODEL)
    loss = network.scene_forward_loss(model, plan)
    assert all(v() is not None for v in values)
    ad.backward(loss)
    # the loss is still referenced, and it no longer holds the graph
    assert values[-1]() is loss.data and loss._parents == ()
    assert [v for v in values[:-1] if v() is not None] == []
    # every parameter gets a gradient, but a conv tap with no pair among a
    # stage's voxels, whose gradient would be exactly 0
    idle = {f"stage{s}/spatial/vox/b{b}/conv/w{k}"
            for s, rows in enumerate(plan.stages) for b in range(OVERFIT_MODEL.bottleneck_blocks)
            for k, pair in enumerate(rows.kernel_map) if pair is not None and len(pair[0]) == 0}
    assert {name for name, t in model.params.items() if t.grad is None} == idle


def test_train_names_first_non_finite_gradient(monkeypatch):
    models, steps = [], []
    init, backward, step = network.init_model, ad.backward, network.adam_step

    def keep_model(*args, **kwargs):
        models.append(init(*args, **kwargs))
        return models[-1]

    def plant_nan(loss, leaves=None):
        out = backward(loss, leaves)
        for name in ("head/disp/l1/b", "head/reg/l1/b"):
            models[0].params[name].grad[0, 0] = np.nan
        return out

    monkeypatch.setattr(network, "init_model", keep_model)
    monkeypatch.setattr(ad, "backward", plant_nan)
    monkeypatch.setattr(network, "adam_step", lambda *a: steps.append(a) or step(*a))
    cfg = TrainConfig(model=SMALL, epochs=1, batch_size=2, lr=1e-3, lr_decay_epochs=(),
                      augment=None, eval_every=0, seed=0)
    with pytest.raises(TrainingDiverged, match="'head/reg/l1/b'"):
        train(gen_small(2, seed=0), cfg)
    assert steps == []  # the NaN never reached Adam


@pytest.mark.parametrize("make", [
    lambda: ModelConfig(radii=()),
    lambda: ModelConfig(radii=(0.4, 0.0)),
    lambda: ModelConfig(intervals=(2, 0)),
    lambda: ModelConfig(bottleneck_blocks=0),
    lambda: ModelConfig(grid_size=float("nan")),
    lambda: TrainConfig(epochs=0),
    lambda: TrainConfig(batch_size=0),
    lambda: TrainConfig(lr=0.0),
    lambda: TrainConfig(seed=-1),
    lambda: AugConfig(scale_range=(1.2, 1.1)),
    lambda: AugConfig(scale_range=(0.0, 1.0)),
    lambda: AugConfig(keep_prob=0.0),
    lambda: AugConfig(keep_prob=1.5),
])
def test_configs_reject_out_of_range(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# inference records no graph


def _record_ops(monkeypatch):
    """Wrap ``ad._op``; returns the list of tensors it builds."""
    built, op = [], ad._op

    def recording(*args):
        built.append(op(*args))
        return built[-1]

    monkeypatch.setattr(ad, "_op", recording)
    return built


def test_forward_builds_no_graph(monkeypatch):
    cfg = ModelConfig()
    model = init_model(cfg, seed=0)
    scene = normalize(gen_synthetic(1, seed=3, future_steps=cfg.future_steps)[0])
    built = _record_ops(monkeypatch)
    plan = scene_plan(scene, cfg)
    forward_graph(model, plan)
    n_graph = len(built)
    assert any(t._parents for t in built)
    built.clear()
    forward(model, scene)
    assert n_graph == 198 + _take_nodes(plan)
    assert len(built) == n_graph  # every primitive still goes through _op once
    assert all(t._parents == () and t._vjp is None and not t.requires_grad for t in built)


# ---------------------------------------------------------------------------
# the last stage on the target rows


def _target_variants(raw):
    """The normalized scene, with its target last among the agents, and with a one-point target."""
    scene = normalize(raw)
    (target,) = [a for a in scene.agents if a.track_id == scene.target_id]
    others = [a for a in scene.agents if a is not target]
    last = AgentTrack(target.track_id, target.steps[-1:].copy(), target.xy[-1:].copy())
    return {"scene": scene,
            "target-last": dataclasses.replace(scene, agents=others + [target]),
            "one-point-target": dataclasses.replace(scene, agents=[last] + others)}


def _relative(got, want, scale=None):
    """Max ``|got - want|`` over ``scale``, by default over max ``|want|``."""
    scale = np.abs(want).max() if scale is None else scale
    return np.abs(got - want).max() / scale if scale > 0 else np.abs(got).max()


FIELD_CONFIGS = [TINY, dataclasses.replace(OVERFIT_MODEL, n_stages=1), OVERFIT_MODEL,
                 ModelConfig()]
FIELD_IDS = ["tiny", "overfit-1-stage", "overfit", "default"]


def _field_scenes(cfg):
    """Two scenes of ordinary traffic and a congested one, each in its _target_variants."""
    raws = (gen_synthetic(2, seed=8, future_steps=cfg.future_steps)
            + gen_synthetic(1, seed=8, speed_range=(1.0, 3.0), future_steps=cfg.future_steps))
    return [(i, name, scene) for i, raw in enumerate(raws)
            for name, scene in _target_variants(raw).items()]


@pytest.mark.parametrize("cfg", FIELD_CONFIGS, ids=FIELD_IDS)
def test_last_stage_on_target_view_matches_full_plan(cfg):
    # every stage computes only its receptive field; the heads, the loss and
    # every gradient match a network whose stages compute every row
    model = init_model(cfg, seed=0)
    params = list(model.params.values())
    for i, name, scene in _field_scenes(cfg):
        plan = scene_plan(scene, cfg)
        if name == "target-last":
            assert plan.stages[-1].rows[0] > 0
        if name == "one-point-target":
            assert len(plan.stages[-1].rows) == 1
        ps = index_scene(scene, cfg.grid_size)
        embedding = indexing.point_embedding(ps, cfg.history_steps)
        results = []
        for run in (lambda: forward_graph(model, plan),
                    lambda: every_row_heads(model, ps, embedding)):
            for t in params:
                t.zero_grad()
            reg, disp = run()
            loss = total_loss(reg, disp, plan.future, cfg)
            grads = ad.backward(loss, leaves=params)
            results.append(([reg.data, disp.data, loss.data], [grads[t] for t in params]))
        (heads, grads), (want_heads, want_grads) = results
        worst = max((_relative(got, want), label) for label, got, want
                    in zip(["reg", "disp", "loss"], heads, want_heads))
        # each gradient relative to the scene's largest: a gradient that is
        # 0 in exact arithmetic (a layer norm is blind to its input's scale)
        # is rounding noise, which no relative test on its own size can hold
        scale = max(np.abs(g).max() for g in want_grads)
        worst = max(worst, *((_relative(got, want, scale), label) for label, got, want
                             in zip(model.params, grads, want_grads)))
        assert worst[0] <= 1e-12, (i, name, worst)


@pytest.mark.parametrize("cfg", FIELD_CONFIGS, ids=FIELD_IDS)
def test_rows_outside_the_field_never_reach_the_heads(cfg):
    # on the every-row tables, any finite change to a row that stage 0 does
    # not read leaves the heads bit-identical
    model = init_model(cfg, seed=0)
    rng = np.random.default_rng(11)
    pruned = 0
    for _, _, scene in _field_scenes(cfg):
        ps = index_scene(scene, cfg.grid_size)
        outside = ~np.isin(np.arange(len(ps)), scene_plan(scene, cfg).input_rows)
        pruned += outside.sum()
        embedding = indexing.point_embedding(ps, cfg.history_steps)
        bumped = embedding.copy()
        bumped[outside] += rng.normal(scale=10.0, size=bumped[outside].shape)
        with ad.no_grad():
            heads = [[h.data.tobytes() for h in every_row_heads(model, ps, e)]
                     for e in (embedding, bumped)]
        assert heads[0] == heads[1]
    assert pruned > 0


@pytest.mark.parametrize("cfg", [OVERFIT_MODEL, ModelConfig()], ids=["overfit", "default"])
def test_forward_matches_forward_graph_heads(cfg):
    model = init_model(cfg, seed=0)
    for raw in gen_synthetic(2, seed=4, future_steps=cfg.future_steps):
        scene = normalize(raw)
        pred = forward(model, scene)
        reg, disp = forward_graph(model, scene_plan(scene, cfg))
        ref = prediction_from_heads(reg, disp, cfg)
        assert pred.trajectories.tobytes() == ref.trajectories.tobytes()
        assert pred.displacements.tobytes() == ref.displacements.tobytes()


def test_evaluate_model_leaves_grad_enabled(small_model):
    evaluate_model(small_model, [scene_plan(normalize(s), SMALL) for s in gen_small(2, seed=5)])
    assert ad._grad_enabled


def test_evaluate_model_matches_report_over_forward(small_model):
    scenes = [normalize(s) for s in gen_small(4, seed=6)]
    preds, report, errors = evaluate_model(small_model, [scene_plan(s, SMALL) for s in scenes])
    ref = [forward(small_model, s) for s in scenes]
    for got, want in zip(preds, ref):
        assert got.trajectories.tobytes() == want.trajectories.tobytes()
        assert got.displacements.tobytes() == want.displacements.tobytes()
    ref_errors = metrics.scene_errors(ref, [s.future for s in scenes])
    assert errors == ref_errors
    ref_report = metrics.evaluate_report(ref_errors)
    assert np.array(dataclasses.astuple(report)).tobytes() == \
        np.array(dataclasses.astuple(ref_report)).tobytes()
    assert report.n_scenes == 4


def test_evaluate_model_checks_every_future(small_model, scene):
    plan = scene_plan(scene, SMALL)
    with pytest.raises(SceneValidationError, match="has no ground-truth future"):
        evaluate_model(small_model, [plan, dataclasses.replace(plan, future=None)])
    with pytest.raises(SceneValidationError, match="future has 4 steps, model regresses 5"):
        evaluate_model(small_model, [dataclasses.replace(plan, future=plan.future[:4])])
