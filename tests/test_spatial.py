import dataclasses

import numpy as np
import pytest

from conftest import (
    brute_conv_pairs,
    brute_radius_pairs,
    check_grads,
    dict_interp_candidates,
    norm_act_ref,
    spread_values,
)

from pointcast import ModelConfig, autodiff as ad, gen_synthetic, normalize
from pointcast.indexing import (
    CENTER_TAP,
    CONV_OFFSETS,
    IndexedPointSet,
    build_groups_by_voxel,
    index_scene,
    interp_candidates,
    kernel_map,
    match_coords,
    plan_scene,
    voxelize,
)
from pointcast.spatial import (
    ftp_point_to_voxel,
    init_spatial,
    interp_voxel_to_point,
    pointwise_learning,
    radius_pairs,
    sparse_bottleneck,
    spatial_block,
)

TINY = ModelConfig(
    n_stages=1,
    radii=(0.6, 1.2),
    grid_size=0.5,
    embed_width=4,
    radius_width=4,
    pointwise_width=4,
    voxel_width=4,
    bottleneck_blocks=2,
    spatial_width=6,
    interval_width=4,
    temporal_width=6,
    head_width=6,
)


def make_ps(points, grid_size=0.5):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return IndexedPointSet(
        points=points,
        instance=np.zeros(n, dtype=np.int64),
        time=np.arange(n, dtype=np.int64),
        voxels=voxelize(points, grid_size),
        kind=np.zeros(n, dtype=np.int64),
        grid_size=grid_size,
    )


def plan_of(ps, radii=TINY.radii):
    return plan_scene(ps, dataclasses.replace(TINY, radii=tuple(radii)))


def permute_ps(ps, perm):
    return IndexedPointSet(
        points=ps.points[perm],
        instance=ps.instance[perm],
        time=ps.time[perm],
        voxels=ps.voxels[perm],
        kind=ps.kind[perm],
        grid_size=ps.grid_size,
    )


def tiny_params(c_in=4, seed=0):
    reg = {}
    params = init_spatial(reg, "sp", c_in, TINY, np.random.default_rng(seed))
    return params, reg


# ---------------------------------------------------------------------------
# radius search


def test_radius_pairs_match_bruteforce(rng):
    for _ in range(30):
        n = int(rng.integers(1, 50))
        pts = rng.uniform(-3, 3, size=(n, 2))
        r = float(rng.uniform(0.2, 2.0))
        got = radius_pairs(pts, r)
        ref = brute_radius_pairs(pts, r)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


def test_radius_pairs_inclusive_boundary():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    centers, nbrs = radius_pairs(pts, 1.0)
    pairs = set(zip(centers.tolist(), nbrs.tolist()))
    assert (0, 1) in pairs and (1, 0) in pairs


def test_radius_pairs_self_inclusion():
    pts = np.array([[0.0, 0.0], [100.0, 100.0]])
    centers, nbrs = radius_pairs(pts, 0.5)
    assert set(zip(centers.tolist(), nbrs.tolist())) == {(0, 0), (1, 1)}


# ---------------------------------------------------------------------------
# pointwise learning


def test_pointwise_isolated_point_depends_only_on_self(rng):
    params, _ = tiny_params()
    feats = rng.normal(size=(3, 4))
    pts_a = np.array([[0.0, 0.0], [30.0, 30.0], [31.0, 31.0]])
    pts_b = np.array([[0.0, 0.0], [40.0, -40.0], [41.0, -41.0]])
    feats_b = feats.copy()
    feats_b[1:] = rng.normal(size=(2, 4))
    out_a = pointwise_learning(plan_of(make_ps(pts_a)).points, ad.constant(feats), params)
    out_b = pointwise_learning(plan_of(make_ps(pts_b)).points, ad.constant(feats_b), params)
    np.testing.assert_allclose(out_a.data[0], out_b.data[0], atol=1e-12)


def test_pointwise_identical_points_identical_rows(rng):
    params, _ = tiny_params()
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.5, 2.5]])
    feats = rng.normal(size=(3, 4))
    feats[1] = feats[0]
    out = pointwise_learning(plan_of(make_ps(pts)).points, ad.constant(feats), params)
    np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)


def test_pointwise_permutation_equivariance(rng):
    params, _ = tiny_params()
    pts = rng.uniform(-2, 2, size=(12, 2))
    feats = rng.normal(size=(12, 4))
    ps = make_ps(pts)
    out = pointwise_learning(plan_of(ps).points, ad.constant(feats), params).data
    perm = rng.permutation(12)
    out_p = pointwise_learning(plan_of(permute_ps(ps, perm)).points, ad.constant(feats[perm]),
                               params).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def test_pointwise_empty_radii_rejected(rng):
    params, _ = tiny_params()
    with pytest.raises(ValueError):
        rows = dataclasses.replace(plan_of(make_ps(np.zeros((1, 2)))).points, neighborhoods=())
        pointwise_learning(rows, ad.constant(np.zeros((1, 4))), params)


def test_pointwise_builds_no_wide_pair_rows(monkeypatch):
    # slow traffic packs points, so every radius has far more pairs than points;
    # only radius_width-wide pair rows may enter the graph (no per-pair gather or concat)
    cfg = ModelConfig()
    ps = index_scene(normalize(gen_synthetic(1, seed=0, speed_range=(1.0, 3.0))[0]),
                     cfg.grid_size)
    plan = plan_scene(ps, cfg)
    pair_counts = {len(rel) for rel, _, _ in plan.points.neighborhoods}
    assert min(pair_counts) > len(ps)
    params = init_spatial({}, "sp", cfg.embed_width, cfg, np.random.default_rng(0))
    feats = ad.parameter(np.random.default_rng(1).normal(size=(len(ps), cfg.embed_width)))
    shapes = []
    op = ad._op

    def recording_op(out_data, parents, vjp):
        shapes.append(out_data.shape)
        return op(out_data, parents, vjp)

    monkeypatch.setattr(ad, "_op", recording_op)
    pointwise_learning(plan.points, feats, params)
    assert any(rows in pair_counts for rows, _ in shapes)
    wide = [(r, c) for r, c in shapes if r in pair_counts and c > cfg.radius_width]
    assert wide == []


def test_pointwise_rejects_plan_of_other_radius_count():
    params, _ = tiny_params()
    with pytest.raises(ValueError):
        pointwise_learning(plan_of(make_ps(np.zeros((1, 2))), radii=(0.6, 1.2, 2.4)).points,
                           ad.constant(np.zeros((1, 4))), params)


# ---------------------------------------------------------------------------
# point -> voxel propagation


def test_ftp_mean_of_shared_voxel():
    ps = make_ps(np.array([[0.1, 0.1], [0.2, 0.2]]))  # same cell at grid 0.5
    feats = ad.constant(np.array([[1.0, 3.0], [3.0, 5.0]]))
    plan = plan_of(ps)
    vox = ftp_point_to_voxel(plan, feats)
    assert plan.voxel_coords.shape == (1, 2)
    np.testing.assert_array_equal(vox.data, [[2.0, 4.0]])


def test_ftp_identity_when_distinct(rng):
    pts = np.arange(12, dtype=np.float64).reshape(6, 2) * 3.0
    feats = rng.normal(size=(6, 3))
    vox = ftp_point_to_voxel(plan_of(make_ps(pts)), ad.constant(feats))
    np.testing.assert_array_equal(vox.data, feats)


def test_ftp_conservation_through_graph(rng):
    for _ in range(10):
        n = int(rng.integers(1, 40))
        pts = rng.uniform(-3, 3, size=(n, 2))
        feats = ad.parameter(rng.normal(size=(n, 4)))
        ps = make_ps(pts)
        vox = ftp_point_to_voxel(plan_of(ps), feats)
        counts = build_groups_by_voxel(ps).counts()[:, None]
        np.testing.assert_allclose(
            (vox.data * counts).sum(axis=0), feats.data.sum(axis=0), atol=1e-9
        )


def test_ftp_coords_match_hash():
    ps = make_ps(np.array([[0.1, 0.1], [5.0, 5.0], [0.3, 0.3]]))
    coords = plan_of(ps).voxel_coords
    probe, rows = match_coords(coords, coords)
    np.testing.assert_array_equal(probe, np.arange(len(coords)))
    np.testing.assert_array_equal(rows, np.arange(len(coords)))


# ---------------------------------------------------------------------------
# sparse bottleneck


def zero_block_params(params):
    for blk in params.blocks:
        blk.reduce.w.data[:] = 0
        blk.reduce.b.data[:] = 0
        for w in blk.conv_w:
            w.data[:] = 0
        blk.conv_b.data[:] = 0
        blk.expand.w.data[:] = 0
        blk.expand.b.data[:] = 0
        if blk.skip is not None:
            blk.skip.w.data[:] = 0
            blk.skip.b.data[:] = 0


def test_bottleneck_zero_kernels_identity_skip(rng):
    # c_in == voxel width, so both blocks use the identity skip
    params, _ = tiny_params(c_in=TINY.voxel_width)
    assert all(blk.skip is None for blk in params.blocks)
    zero_block_params(params)
    ps = make_ps(rng.uniform(-2, 2, size=(7, 2)))
    feats = ad.constant(rng.normal(size=(7, TINY.voxel_width)))
    plan = plan_of(ps)
    vox = ftp_point_to_voxel(plan, feats)
    out = sparse_bottleneck(plan.kernel_map, vox, params)
    np.testing.assert_allclose(out.data, np.maximum(vox.data, 0.0), atol=1e-12)


def test_bottleneck_single_voxel_is_center_tap(rng):
    params, _ = tiny_params(c_in=4)
    blk = params.blocks[0]
    x = ad.constant(rng.normal(size=(1, 4)))
    got = ad.submanifold_conv(x, kernel_map(np.array([[3, -2]])), blk.conv_w, blk.conv_b)
    want = ad.linear(x, blk.conv_w[CENTER_TAP], blk.conv_b)
    np.testing.assert_allclose(got.data, want.data, atol=1e-12)


def assert_conv_pairs_match_bruteforce(coords):
    coords = np.asarray(coords, dtype=np.int64)
    got = kernel_map(coords)
    ref = brute_conv_pairs(coords, CONV_OFFSETS)
    assert len(got) == len(CONV_OFFSETS) and got[CENTER_TAP] is None
    for k, (pair, (outs, ins)) in enumerate(zip(got, ref)):
        if k != CENTER_TAP:
            np.testing.assert_array_equal(pair[0], outs)
            np.testing.assert_array_equal(pair[1], ins)


@pytest.mark.parametrize("coords", [
    [[3, -2]],                                   # a single occupied voxel
    [[-7, -7], [0, 0], [5, -3], [-2, 4]],        # isolated voxels: no off-center pairs
    [[-1, -1], [-1, 0], [0, -1], [0, 0], [-2, 1], [1, -2], [-3, -3]],
])
def test_conv_pairs_match_bruteforce(coords):
    assert_conv_pairs_match_bruteforce(coords)


def test_conv_pairs_match_bruteforce_random(rng):
    for _ in range(30):
        occupied = np.unique(rng.integers(-4, 4, size=(int(rng.integers(1, 40)), 2)), axis=0)
        assert_conv_pairs_match_bruteforce(occupied[rng.permutation(len(occupied))])


def dense_bottleneck_oracle(feats_hw, params):
    """Dense re-implementation of the bottleneck stack on a fully occupied grid.

    feats_hw: (H, W, C_in). Returns (H, W, C_out). Out-of-bounds neighbors
    contribute nothing, exactly like unoccupied cells.
    """
    h_dim, w_dim, _ = feats_hw.shape
    x = feats_hw
    for blk in params.blocks:
        red, _ = norm_act_ref(
            x.reshape(h_dim * w_dim, -1) @ blk.reduce.w.data + blk.reduce.b.data,
            blk.reduce.norm.gain.data,
            blk.reduce.norm.bias.data,
            act=True,
        )
        red = red.reshape(h_dim, w_dim, -1)
        conv = np.tile(blk.conv_b.data, (h_dim, w_dim, 1)).reshape(h_dim, w_dim, -1)
        for tap_w, (di, dj) in zip(blk.conv_w, CONV_OFFSETS):
            for i in range(h_dim):
                for j in range(w_dim):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h_dim and 0 <= nj < w_dim:
                        conv[i, j] += red[ni, nj] @ tap_w.data
        flat, _ = norm_act_ref(
            conv.reshape(h_dim * w_dim, -1), blk.conv_norm.gain.data, blk.conv_norm.bias.data,
            act=True,
        )
        flat, _ = norm_act_ref(
            flat @ blk.expand.w.data + blk.expand.b.data,
            blk.expand.norm.gain.data,
            blk.expand.norm.bias.data,
            act=False,
        )
        xf = x.reshape(h_dim * w_dim, -1)
        if blk.skip is not None:
            skip, _ = norm_act_ref(
                xf @ blk.skip.w.data + blk.skip.b.data,
                blk.skip.norm.gain.data,
                blk.skip.norm.bias.data,
                act=False,
            )
        else:
            skip = xf
        x = np.maximum(flat + skip, 0.0).reshape(h_dim, w_dim, -1)
    return x


@pytest.mark.parametrize("side", [2, 5])
def test_bottleneck_dense_equivalence(side, rng):
    params, _ = tiny_params(c_in=4, seed=3)
    coords = np.array([[i, j] for i in range(side) for j in range(side)], dtype=np.int64)
    feats = rng.normal(size=(side * side, 4))
    out = sparse_bottleneck(kernel_map(coords), ad.constant(feats), params)
    ref = dense_bottleneck_oracle(feats.reshape(side, side, 4), params)
    np.testing.assert_allclose(out.data, ref.reshape(side * side, -1), atol=1e-9)
    assert out.data.shape[0] == len(coords)  # occupancy preserved


# ---------------------------------------------------------------------------
# voxel -> point interpolation


def test_interp_single_voxel_weight_one(rng):
    params, _ = tiny_params()
    plan = plan_of(make_ps(np.array([[0.2, 0.2]])))
    vox = ftp_point_to_voxel(plan, ad.constant(rng.normal(size=(1, 4))))
    out = interp_voxel_to_point(plan.points, vox, params)
    np.testing.assert_allclose(out.data, vox.data, atol=1e-12)


def test_interp_zero_mlp_uniform_weights(rng):
    params, _ = tiny_params()
    for layer in params.interp_mlp:
        layer.w.data[:] = 0
        if layer.b is not None:
            layer.b.data[:] = 0
        if layer.norm is not None:
            layer.norm.bias.data[:] = 0
    # point at a voxel center with all four 2x2 candidates occupied
    pts = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    plan = plan_of(make_ps(pts))
    feats = rng.normal(size=(4, 4))
    out = interp_voxel_to_point(plan.points, ftp_point_to_voxel(plan, ad.constant(feats)), params)
    np.testing.assert_allclose(out.data[0], feats.mean(axis=0), atol=1e-12)


def test_interp_candidates_match_dict_loop(rng):
    for _ in range(30):
        n = int(rng.integers(1, 60))
        pts = rng.uniform(-3, 3, size=(n, 2))
        # the voxels hold only some of the points, so some probes miss
        coords = plan_of(make_ps(pts[: n // 2 + 1])).voxel_coords
        got = interp_candidates(coords, pts, 0.5)
        ref = dict_interp_candidates(coords, pts, 0.5)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])


def test_interp_logit_layer_has_no_bias():
    # a bias on the logit would shift every logit of a point alike, which the
    # softmax ignores: its exact gradient is 0
    params, reg = tiny_params()
    assert params.interp_mlp[-1].b is None and params.interp_mlp[0].b is not None
    assert sorted(k for k in reg if k.startswith("sp/interp/l1")) == ["sp/interp/l1/w"]


def test_interp_gradient_wrt_mlp(rng):
    params, reg = tiny_params(seed=5)
    pts = rng.uniform(-1, 1, size=(6, 2))
    plan = plan_of(make_ps(pts))
    feats = ad.constant(rng.normal(size=(6, 4)))
    target = rng.normal(size=(6, 4))
    leaves = [t for name, t in reg.items() if name.startswith("sp/interp")]

    def make_loss():
        vox = ftp_point_to_voxel(plan, feats)
        return ad.smooth_l1(interp_voxel_to_point(plan.points, vox, params), target)

    check_grads(make_loss, leaves)


# ---------------------------------------------------------------------------
# full spatial block


def test_spatial_block_shape_and_permutation(rng):
    params, _ = tiny_params(seed=7)
    pts = rng.uniform(-2, 2, size=(10, 2))
    feats = rng.normal(size=(10, 4))
    ps = make_ps(pts)
    plan = plan_of(ps)
    out = spatial_block(plan, ad.constant(feats), params, plan.points).data
    assert out.shape == (10, TINY.spatial_width)
    perm = rng.permutation(10)
    plan_p = plan_of(permute_ps(ps, perm))
    out_p = spatial_block(plan_p, ad.constant(feats[perm]), params, plan_p.points).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-9)


def test_spatial_block_single_point(rng):
    params, _ = tiny_params(seed=8)
    plan = plan_of(make_ps(np.array([[0.3, -0.4]])))
    out = spatial_block(plan, ad.constant(rng.normal(size=(1, 4))), params, plan.points).data
    assert out.shape == (1, TINY.spatial_width)
    assert np.all(np.isfinite(out))


def test_spatial_block_end_to_end_gradient(rng):
    params, reg = tiny_params(seed=9)
    pts = spread_values(np.random.default_rng(3), (6, 2), gap=0.3)
    plan = plan_of(make_ps(pts))
    feats = ad.parameter(spread_values(np.random.default_rng(4), (6, 4)))
    target = np.random.default_rng(5).normal(size=(6, TINY.spatial_width))

    def make_loss():
        return ad.smooth_l1(spatial_block(plan, feats, params, plan.points), target)

    sampled = [feats] + [reg[k] for k in sorted(reg)[::5]]
    check_grads(make_loss, sampled)
