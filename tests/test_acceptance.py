"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The learning checks (criteria 8 and 9) train real models on one core and
dominate the runtime; everything else is oracle comparisons and property
sweeps with frozen seeds.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import (
    brute_group_by_keys,
    brute_radius_pairs,
    brute_scatter_max,
    brute_scatter_mean,
    every_row_tables,
    group_members,
    spread_values,
)
from test_autodiff import _primitive_cases

from pointcast import (
    ModelConfig,
    TrainConfig,
    autodiff as ad,
    cli,
    forward,
    gen_synthetic,
    normalize,
    train,
)
from pointcast.indexing import (
    IndexedPointSet,
    build_groups_by_instance,
    build_groups_by_voxel,
    group_by_keys,
    kernel_map,
    pack_pair,
    regroup_by_interval,
    voxelize,
)
from pointcast.metrics import evaluate
from pointcast.network import (
    evaluate_model,
    forward_graph,
    init_model,
    loss_reg,
    prediction_from_heads,
    rank_trajectories,
    scene_plan,
)
from pointcast.scenes import AgentTrack, MapElement, Scene
from pointcast.spatial import (
    init_spatial,
    radius_pairs,
    sparse_bottleneck,
    spatial_block,
)
from pointcast.temporal import init_temporal, temporal_block
from test_spatial import dense_bottleneck_oracle

PASSED = []


def report(criterion: str, detail: str = ""):
    line = f"[PASS] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    PASSED.append(criterion)


TINY = ModelConfig(
    n_stages=1,
    intervals=(2, 4),
    radii=(0.5, 1.0),
    grid_size=0.5,
    n_modes=2,
    future_steps=4,
    embed_width=4,
    radius_width=4,
    pointwise_width=4,
    voxel_width=4,
    spatial_width=6,
    interval_width=4,
    temporal_width=6,
    head_width=6,
)


def tiny_ps(rng, n=6, n_instances=2):
    pts = spread_values(rng, (n, 2), gap=0.3)
    inst = np.sort(rng.integers(0, n_instances, size=n))
    time_idx = np.concatenate([np.arange((inst == i).sum()) for i in range(n_instances)])
    return IndexedPointSet(
        points=pts,
        instance=inst.astype(np.int64),
        time=time_idx.astype(np.int64),
        voxels=voxelize(pts, 0.5),
        kind=np.zeros(n, dtype=np.int64),
        grid_size=0.5,
    )


def ten_point_scene(rng):
    """A <=10-point normalized scene: target(4) + other(2) + lane(3)."""
    tgt_xy = np.array([[-1.5, 0.02], [-1.0, 0.01], [-0.5, 0.0], [0.0, 0.0]])
    tgt_xy += rng.normal(0, 0.01, tgt_xy.shape) * [1, 1]
    tgt_xy[-1] = 0.0
    agents = [
        AgentTrack("tgt", np.array([16, 17, 18, 19]), tgt_xy),
        AgentTrack("oth", np.array([18, 19]), rng.uniform(-2, 2, (2, 2))),
    ]
    lanes = [MapElement("m", rng.uniform(-2, 2, (3, 2)))]
    future = rng.uniform(-2, 2, (TINY.future_steps, 2)) + [[1.0, 0.0]]
    raw = Scene(agents=agents, map_elements=lanes, target_id="tgt",
                future=future, future_steps=TINY.future_steps, scene_id="fd")
    return normalize(raw)


def jitter_params(reg, rng, scale=0.02):
    """Move parameters off exact-zero inits to a generic point.

    At the zero-bias init a dead relu row can park an exactly-constant row in
    a layer norm; the analytic gradient there is fine but finite differences
    are invalid (curvature scale sqrt(eps) is comparable to the step).
    """
    for t in reg.values():
        t.data = t.data + rng.normal(0.0, scale, size=t.data.shape)


def _central_diff(make_loss, t, idx, h):
    orig = t.data[idx]
    t.data[idx] = orig + h
    fp = make_loss().item()
    t.data[idx] = orig - h
    fm = make_loss().item()
    t.data[idx] = orig
    return (fp - fm) / (2.0 * h)


def sampled_fd_check(make_loss, tensors, rng, max_coords=8, rtol=1e-4, atol=1e-6, h=1e-4):
    """Compare backward() against central differences on sampled coordinates.

    Each coordinate's difference quotient is recomputed at h/2; coordinates
    where the two estimates disagree sit in a non-smooth or high-curvature
    neighborhood where the oracle itself is invalid, and are skipped (a wrong
    analytic gradient is still caught everywhere FD is self-consistent).
    Returns (checked, skipped) counts.
    """
    loss = make_loss()
    for t in tensors:
        t.zero_grad()
    ad.backward(loss)
    checked = skipped = 0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        coords = list(np.ndindex(*t.data.shape))
        if len(coords) > max_coords:
            picks = rng.choice(len(coords), size=max_coords, replace=False)
            coords = [coords[int(i)] for i in picks]
        for idx in coords:
            fd1 = _central_diff(make_loss, t, idx, h)
            fd2 = _central_diff(make_loss, t, idx, h / 2.0)
            if abs(fd1 - fd2) > 1e-6 + 1e-3 * max(abs(fd1), abs(fd2)):
                skipped += 1
                continue
            np.testing.assert_allclose(analytic[idx], fd2, rtol=rtol, atol=atol)
            checked += 1
    return checked, skipped


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_01_gradient_suite():
    t0 = time.monotonic()
    checked = skipped = 0
    # primitives: central differences on random shapes up to 32x16
    for seed in range(100):
        rng = np.random.default_rng([1, seed])
        n, c = int(rng.integers(2, 33)), int(rng.integers(2, 17))
        for name, make_loss, tensors in _primitive_cases(rng, n, c):
            try:
                ck, sk = sampled_fd_check(make_loss, tensors, rng)
            except AssertionError as exc:
                raise AssertionError(f"primitive {name}, seed {seed}") from exc
            checked += ck
            skipped += sk

    # spatial block (smooth probe scalarization; h small enough to clear
    # relu kinks at these frozen seeds)
    for seed in range(100):
        rng = np.random.default_rng([2, seed])
        tables = every_row_tables(tiny_ps(rng), TINY)
        reg = {}
        params = init_spatial(reg, "s", 4, TINY, rng)
        jitter_params(reg, rng)
        feats = ad.parameter(spread_values(rng, (6, 4)))
        r = ad.constant(rng.normal(size=(6, TINY.spatial_width)))

        def sp_loss():
            return ad.sum_all(ad.mul(spatial_block(tables, feats, params), r))

        names = sorted(reg)
        leaves = [feats] + [reg[names[int(i)]] for i in rng.choice(len(names), 2, replace=False)]
        ck, sk = sampled_fd_check(sp_loss, leaves, rng, max_coords=3)
        checked += ck
        skipped += sk

    # temporal block
    for seed in range(100):
        rng = np.random.default_rng([3, seed])
        tables = every_row_tables(tiny_ps(rng), TINY)
        reg = {}
        params = init_temporal(reg, "t", 4, TINY, rng)
        jitter_params(reg, rng)
        feats = ad.parameter(spread_values(rng, (6, 4)))
        r = ad.constant(rng.normal(size=(6, TINY.temporal_width)))

        def tp_loss():
            return ad.sum_all(ad.mul(temporal_block(tables, feats, params), r))

        names = sorted(reg)
        leaves = [feats] + [reg[names[int(i)]] for i in rng.choice(len(names), 2, replace=False)]
        ck, sk = sampled_fd_check(tp_loss, leaves, rng, max_coords=3)
        checked += ck
        skipped += sk

    # full forward + total loss on a <=10-point scene; skip seeds sitting on
    # a non-smooth boundary (winner-selection flip or smooth-L1 kink), where
    # finite differences are undefined rather than wrong
    full_seeds = 0
    for seed in range(200):
        if full_seeds >= 100:
            break
        rng = np.random.default_rng([4, seed])
        scene = ten_point_scene(rng)
        model = init_model(TINY, seed=int(rng.integers(1 << 31)))
        jitter_params(model.params, rng)
        pred = forward(model, scene)
        end_err = np.sort(np.linalg.norm(
            pred.trajectories[:, -1, :] - scene.future[-1], axis=1))
        if len(end_err) > 1 and end_err[1] - end_err[0] < 1e-3:
            continue
        k_star = int(np.argmin(np.linalg.norm(
            pred.trajectories[:, -1, :] - scene.future[-1], axis=1)))
        reg_gap = np.abs(np.abs(pred.trajectories[k_star] - scene.future) - 1.0).min()
        d_star = np.linalg.norm(pred.trajectories[:, -1, :] - scene.future[-1], axis=1)
        disp_gap = np.abs(np.abs(pred.displacements - d_star) - 1.0).min()
        if min(reg_gap, disp_gap) < 1e-3:
            continue

        # k* and the displacement targets are detached constants in the
        # training gradient; freezing them makes the FD'd function identical
        # to the one backward() differentiates
        plan = scene_plan(scene, TINY)

        def full_loss():
            reg_t, disp_t = forward_graph(model, plan)
            l_reg = loss_reg(reg_t, scene.future, k_star, TINY)
            l_disp = ad.smooth_l1(disp_t, d_star.reshape(1, -1))
            return ad.add(l_reg, ad.scale(l_disp, TINY.loss_weight_disp))

        names = sorted(model.params)
        leaves = [model.params[names[int(i)]] for i in rng.choice(len(names), 3, replace=False)]
        ck, sk = sampled_fd_check(full_loss, leaves, rng, max_coords=2)
        checked += ck
        skipped += sk
        full_seeds += 1
    assert full_seeds >= 100

    elapsed = time.monotonic() - t0
    assert checked > 0.9 * (checked + skipped), (checked, skipped)
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    report("criterion 1: gradient suite vs central differences",
           f"100 seeds per item, {checked} coords checked, {skipped} FD-invalid, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: scatter/group oracles


def test_criterion_02_scatter_group_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        keys = rng.integers(0, 12, size=n)
        table = group_by_keys(keys)
        ref_group_of, ref_members = brute_group_by_keys(keys)
        assert np.array_equal(table.group_of, ref_group_of)
        x = rng.normal(size=(n, 3))
        got_mean = ad.scatter_mean(ad.constant(x), table).data
        got_max = ad.scatter_max(ad.constant(x), table).data
        assert np.array_equal(got_max, brute_scatter_max(x, table.group_of, table.n_groups))
        np.testing.assert_allclose(
            got_mean, brute_scatter_mean(x, table.group_of, table.n_groups), rtol=0, atol=1e-12
        )

    for _ in range(1000):
        n = int(rng.integers(1, 65))
        pts = rng.uniform(-3, 3, size=(n, 2))
        ps = IndexedPointSet(
            points=pts,
            instance=rng.integers(0, 4, size=n).astype(np.int64),
            time=rng.integers(0, 20, size=n).astype(np.int64),
            voxels=voxelize(pts, 0.5),
            kind=np.zeros(n, dtype=np.int64),
            grid_size=0.5,
        )
        vox_keys = pack_pair(ps.voxels[:, 0], ps.voxels[:, 1])
        ref_vox, _ = brute_group_by_keys(vox_keys)
        assert np.array_equal(build_groups_by_voxel(ps).group_of, ref_vox)
        interval = int(rng.integers(1, 22))
        ref_int, _ = brute_group_by_keys(
            [(int(a), int(b) // interval) for a, b in zip(ps.instance, ps.time)]
        )
        assert np.array_equal(regroup_by_interval(ps, interval).group_of, ref_int)

    for _ in range(1000):
        n = int(rng.integers(1, 65))
        pts = rng.uniform(-3, 3, size=(n, 2))
        r = float(rng.uniform(0.2, 2.5))
        got = radius_pairs(pts, r)
        ref = brute_radius_pairs(pts, r)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report("criterion 2: scatter/group/radius-search brute-force oracles",
           f"1000 instances each, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: mean-propagation conservation


def test_criterion_03_ftp_conservation():
    from pointcast.spatial import ftp_point_to_voxel

    rng = np.random.default_rng(3003)
    for _ in range(200):
        n = int(rng.integers(1, 64))
        pts = rng.uniform(-4, 4, size=(n, 2))
        ps = IndexedPointSet(
            points=pts, instance=np.zeros(n, dtype=np.int64),
            time=np.arange(n, dtype=np.int64), voxels=voxelize(pts, 0.5),
            kind=np.zeros(n, dtype=np.int64), grid_size=0.5,
        )
        feats = ad.parameter(rng.normal(size=(n, 5)))
        vox = ftp_point_to_voxel(every_row_tables(ps, TINY), feats)
        counts = build_groups_by_voxel(ps).counts()[:, None]
        residual = np.abs((vox.data * counts).sum(0) - feats.data.sum(0)).max()
        assert residual <= 1e-9, residual
    report("criterion 3: voxel mean-propagation conservation", "200 fixtures, <=1e-9")


# ---------------------------------------------------------------------------
# criterion 4: interval-regrouping reduction identities


def test_criterion_04_interval_identities():
    rng = np.random.default_rng(4004)
    for h in range(1, 21):
        n_inst = int(rng.integers(1, 5))
        inst, times = [], []
        for i in range(n_inst):
            length = int(rng.integers(1, h + 1))
            steps = np.sort(rng.choice(h, size=length, replace=False))
            inst.extend([i] * length)
            times.extend(steps.tolist())
        n = len(inst)
        pts = rng.uniform(-2, 2, size=(n, 2))
        ps = IndexedPointSet(
            points=pts, instance=np.asarray(inst, dtype=np.int64),
            time=np.asarray(times, dtype=np.int64), voxels=voxelize(pts, 0.5),
            kind=np.zeros(n, dtype=np.int64), grid_size=0.5,
        )
        by_h = regroup_by_interval(ps, h)
        by_inst = build_groups_by_instance(ps)
        assert np.array_equal(by_h.group_of, by_inst.group_of)
        finest = regroup_by_interval(ps, 1)
        assert finest.n_groups == n  # (instance, time) pairs are unique here
        assert all(len(m) == 1 for m in group_members(finest))
    report("criterion 4: interval reduction identities", "exhaustive H=1..20")


# ---------------------------------------------------------------------------
# criterion 5: sparse bottleneck vs dense convolution oracle


def test_criterion_05_dense_equivalence():
    rng = np.random.default_rng(5005)
    for side in range(1, 9):
        reg = {}
        params = init_spatial(reg, "d", 4, TINY, np.random.default_rng([5, side]))
        coords = np.array([[i, j] for i in range(side) for j in range(side)], dtype=np.int64)
        feats = rng.normal(size=(side * side, 4))
        out = sparse_bottleneck(kernel_map(coords), ad.constant(feats), params)
        ref = dense_bottleneck_oracle(feats.reshape(side, side, 4), params)
        assert np.abs(out.data - ref.reshape(side * side, -1)).max() <= 1e-9
        assert out.data.shape[0] == len(coords)
    report("criterion 5: submanifold bottleneck matches dense oracle", "grids 1x1..8x8")


# ---------------------------------------------------------------------------
# criterion 6: permutation equivariance of the full forward pass


def test_criterion_06_permutation_invariance():
    rng = np.random.default_rng(6006)
    model = init_model(TINY, seed=6)
    for i in range(50):
        scene = normalize(gen_synthetic(1, seed=[6006, i], future_steps=TINY.future_steps)[0])
        pred = forward(model, scene)
        agents = list(scene.agents)
        lanes = list(scene.map_elements)
        rng.shuffle(agents)
        rng.shuffle(lanes)
        shuffled = dataclasses.replace(scene, agents=agents, map_elements=lanes)
        pred_s = forward(model, shuffled)
        assert np.abs(pred_s.trajectories - pred.trajectories).max() <= 1e-9
        assert np.abs(pred_s.displacements - pred.displacements).max() <= 1e-9
    report("criterion 6: forward invariant to instance reordering", "50 scenes, <=1e-9")


# ---------------------------------------------------------------------------
# criterion 7: dynamic lengths without padding + instance isolation


def test_criterion_07_dynamic_lengths():
    rng = np.random.default_rng(7007)
    model = init_model(TINY, seed=7)
    lengths = [1, 3, 7, 20]
    agents = []
    for i, length in enumerate(lengths):
        steps = np.arange(20 - length, 20, dtype=np.int64)
        xy = rng.uniform(-3, 3, size=(length, 2))
        agents.append(AgentTrack(f"a{i}", steps, xy))
    agents[0].track_id = "tgt"
    lanes = [MapElement("m", rng.uniform(-3, 3, size=(5, 2)))]
    future = rng.uniform(-3, 3, size=(TINY.future_steps, 2))
    scene = normalize(
        Scene(agents=agents, map_elements=lanes, target_id="tgt", future=future,
              future_steps=TINY.future_steps)
    )
    pred = forward(model, scene)
    assert np.all(np.isfinite(pred.trajectories))

    # exact isolation inside the temporal module, on several fixtures
    for trial in range(10):
        trng = np.random.default_rng([7, trial])
        ps = tiny_ps(trng, n=12, n_instances=3)
        tables = every_row_tables(ps, TINY)
        reg = {}
        params = init_temporal(reg, "t", 4, TINY, trng)
        feats = trng.normal(size=(12, 4))
        base = temporal_block(tables, ad.constant(feats), params).data
        bumped = feats.copy()
        bumped[ps.instance == 0] += trng.normal(size=bumped[ps.instance == 0].shape)
        out = temporal_block(tables, ad.constant(bumped), params).data
        others = ps.instance != 0
        assert np.array_equal(out[others], base[others])
    report("criterion 7: dynamic lengths {1,3,7,20} + exact instance isolation")


# ---------------------------------------------------------------------------
# criterion 8: overfit check (thresholds frozen from the oracle run)


OVERFIT_MODEL = ModelConfig(
    n_stages=2, intervals=(2, 4, 8), radii=(0.4, 0.8, 1.6), grid_size=0.4,
    n_modes=6, embed_width=16, radius_width=16, pointwise_width=32,
    voxel_width=32, spatial_width=48, interval_width=24, temporal_width=48,
    head_width=64,
)


@pytest.mark.slow
def test_criterion_08_overfit():
    t0 = time.monotonic()
    data = gen_synthetic(8, seed=808)
    cfg = TrainConfig(model=OVERFIT_MODEL, epochs=400, batch_size=8, lr=1e-2,
                      lr_decay_epochs=(300,), lr_decay_factor=0.1,
                      augment=None, eval_every=0, seed=1)
    result = train(data, cfg)  # 400 optimizer steps (one batch per epoch)
    losses = [h["train_loss"] for h in result.history]
    ratio = losses[-1] / losses[0]
    _, metrics, _ = evaluate_model(result.model,
                                [scene_plan(normalize(s), OVERFIT_MODEL) for s in data])
    elapsed = time.monotonic() - t0
    assert ratio < 0.05, f"loss ratio {ratio:.4f}"
    assert metrics.minADE_1 < 0.5, metrics
    assert metrics.minFDE_1 < 1.0, metrics
    assert elapsed < 600.0, f"{elapsed:.0f}s"
    report("criterion 8: overfit 8 scenes in 400 steps",
           f"loss ratio {ratio:.3%}, minADE_1 {metrics.minADE_1:.3f}, "
           f"minFDE_1 {metrics.minFDE_1:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: generalization smoke test


def constant_velocity_fde(scenes, dt=0.1):
    errs = []
    for s in scenes:
        tgt = s.target_agent()
        v = (tgt.xy[-1] - tgt.xy[-2]) / dt if len(tgt.xy) >= 2 else np.zeros(2)
        endpoint = tgt.xy[-1] + v * (len(s.future) * dt)
        errs.append(float(np.linalg.norm(endpoint - s.future[-1])))
    return float(np.mean(errs))


@pytest.mark.slow
def test_criterion_09_generalization():
    # augmentation off: the held-out scenes come from the same noise-free
    # generator, and the 240-step budget is spent on fitting, not robustness
    t0 = time.monotonic()
    train_scenes = gen_synthetic(256, seed=900)
    heldout = [normalize(s) for s in gen_synthetic(64, seed=901)]
    cfg = TrainConfig(model=OVERFIT_MODEL, epochs=30, batch_size=32, lr=1e-2,
                      lr_decay_epochs=(25,), lr_decay_factor=0.1,
                      augment=None, eval_every=0, seed=2)
    result = train(train_scenes, cfg)
    _, r, _ = evaluate_model(result.model, [scene_plan(s, OVERFIT_MODEL) for s in heldout])
    cv_fde = constant_velocity_fde(heldout)
    elapsed = time.monotonic() - t0
    assert r.minADE_6 < r.minADE_1, r
    assert r.MR_6 <= r.MR_1, r
    assert r.minFDE_6 < cv_fde, (r.minFDE_6, cv_fde)
    assert elapsed < 1800.0, f"{elapsed:.0f}s"
    report("criterion 9: generalization on 64 held-out scenes",
           f"minADE_6 {r.minADE_6:.3f} < minADE_1 {r.minADE_1:.3f}, "
           f"minFDE_6 {r.minFDE_6:.3f} < CV {cv_fde:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 10: loss-design checks


def test_criterion_10_loss_design():
    rng = np.random.default_rng(1010)
    # ranking matches a stable argsort oracle
    from pointcast.network import PredictionSet

    for _ in range(200):
        k = int(rng.integers(1, 9))
        disp = rng.choice([0.4, 0.9, 1.2, 2.0, 3.0], size=k)  # ties likely
        pred = PredictionSet(np.zeros((k, 3, 2)), disp)
        oracle = sorted(range(k), key=lambda i: (disp[i], i))
        assert rank_trajectories(pred).tolist() == oracle

    # displacement loss is detached from the regression head;
    # regression loss flows only through the selected mode
    model = init_model(TINY, seed=10)
    scene = ten_point_scene(np.random.default_rng(11))
    reg, disp = forward_graph(model, scene_plan(scene, TINY))
    pred = prediction_from_heads(reg, disp, TINY)
    from pointcast.network import loss_disp as loss_disp_fn

    for t in model.params.values():
        t.zero_grad()
    ad.backward(loss_disp_fn(disp, pred, scene.future))
    for name in model.params:
        if name.startswith("head/reg/"):
            g = model.params[name].grad
            assert g is None or np.all(g == 0.0), name

    k_star = 1
    reg_param = ad.parameter(rng.normal(size=(1, TINY.n_modes * TINY.future_steps * 2)))
    ad.backward(loss_reg(reg_param, scene.future, k_star, TINY))
    t2 = TINY.future_steps * 2
    blocks = reg_param.grad.reshape(TINY.n_modes, t2)
    assert np.all(blocks[k_star] != 0.0)
    for k in range(TINY.n_modes):
        if k != k_star:
            assert np.all(blocks[k] == 0.0)
    report("criterion 10: ranking argsort oracle, detached displacement targets, "
           "winner-only regression gradient")


# ---------------------------------------------------------------------------
# criterion 11: metrics oracle


def test_criterion_11_metrics_oracle():
    from test_metrics import brute_evaluate, rand_pred

    rng = np.random.default_rng(1111)
    preds = [rand_pred(rng) for _ in range(100)]
    gts = [rng.normal(size=(30, 2)) for _ in range(100)]
    # plant an exact 2 m miss-boundary endpoint in one scene
    gts[17] = preds[17].trajectories[int(np.argsort(preds[17].displacements)[0])].copy()
    gts[17][-1] += [2.0, 0.0]
    for k in (1, 6):
        got = evaluate(preds, gts, k=k)
        ref = brute_evaluate(preds, gts, k)
        assert got["min_ade"] == ref[0]
        assert got["min_fde"] == ref[1]
        assert got["miss_rate"] == ref[2]
    boundary = evaluate([preds[17]], [gts[17]], k=1)
    assert boundary["min_fde"] == pytest.approx(2.0)
    assert boundary["miss_rate"] == 0.0  # exactly 2 m counts as a hit
    report("criterion 11: metrics match brute force on 100 scenes incl. 2 m boundary")


# ---------------------------------------------------------------------------
# criterion 12: CLI determinism and exact resume


def test_criterion_12_cli_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main(["gen-synthetic", "--out", str(data), "--n", "4", "--seed", "12"]) == 0

    model_doc = {
        "n_stages": 1, "intervals": [2, 4], "radii": [0.4, 0.8], "grid_size": 0.4,
        "n_modes": 3, "future_steps": 30, "embed_width": 8, "radius_width": 8,
        "pointwise_width": 8, "voxel_width": 8, "spatial_width": 12,
        "interval_width": 8, "temporal_width": 12, "head_width": 12,
    }

    def config(path, ckpt_dir, epochs):
        doc = {
            "seed": 3, "data_dir": str(data), "checkpoint_dir": str(ckpt_dir),
            "epochs": epochs, "batch_size": 4, "lr": 1e-3, "lr_decay_epochs": [],
            "eval_every": 0, "model": model_doc, "augment": {"enabled": True},
        }
        p = tmp_path / path
        p.write_text(json.dumps(doc))
        return p

    assert cli.main(["train", "--config", str(config("a.json", tmp_path / "a", 2))]) == 0
    assert cli.main(["train", "--config", str(config("b.json", tmp_path / "b", 2))]) == 0
    a_bin = (tmp_path / "a" / "model.bin").read_bytes()
    assert a_bin == (tmp_path / "b" / "model.bin").read_bytes()
    assert (tmp_path / "a" / "model.json").read_bytes() == (
        tmp_path / "b" / "model.json"
    ).read_bytes()

    assert cli.main(["train", "--config", str(config("full.json", tmp_path / "full", 4))]) == 0
    assert cli.main(["train", "--config", str(config("half.json", tmp_path / "half", 2))]) == 0
    assert cli.main(["train", "--config", str(config("res.json", tmp_path / "res", 4)),
                     "--resume", str(tmp_path / "half" / "model.json")]) == 0
    assert (tmp_path / "full" / "model.bin").read_bytes() == (
        tmp_path / "res" / "model.bin"
    ).read_bytes()
    report("criterion 12: byte-identical checkpoints and exact mid-run resume")
