import dataclasses

import numpy as np
import pytest

from conftest import check_grads, every_row_tables, materialize, spread_values

from pointcast import ModelConfig, autodiff as ad
from pointcast.indexing import (
    KIND_MAP,
    IndexedPointSet,
    build_groups_by_instance,
    voxelize,
)
from pointcast.nn import Layer
from pointcast.temporal import init_temporal, instance_pool, multi_interval, temporal_block

TINY = ModelConfig(
    n_stages=1,
    intervals=(2, 4),
    embed_width=4,
    radius_width=4,
    pointwise_width=4,
    voxel_width=4,
    spatial_width=4,
    interval_width=4,
    temporal_width=6,
    head_width=6,
)


def make_ps(instance, time, kind=None, points=None):
    instance = np.asarray(instance, dtype=np.int64)
    n = len(instance)
    points = np.zeros((n, 2)) if points is None else np.asarray(points, dtype=np.float64)
    kind = np.zeros(n, dtype=np.int64) if kind is None else np.asarray(kind, dtype=np.int64)
    return IndexedPointSet(
        points=points,
        instance=instance,
        time=np.asarray(time, dtype=np.int64),
        voxels=voxelize(points, 0.5),
        kind=kind,
        grid_size=0.5,
    )


def rows_of(ps, intervals=TINY.intervals):
    """The tables over every row of ``ps``."""
    return every_row_tables(ps, dataclasses.replace(TINY, intervals=tuple(intervals)))


def identity_mlp(c):
    return [Layer(ad.constant(np.eye(c)), ad.constant(np.zeros((1, c))), None)]


def tiny_params(c_in=4, seed=0):
    reg = {}
    params = init_temporal(reg, "tp", c_in, TINY, np.random.default_rng(seed))
    return params, reg


def pool_params(c_in, seed=0):
    from pointcast import nn

    reg = {}
    rng = np.random.default_rng(seed)
    pool_mlp = nn.init_mlp(reg, "pool", [c_in, 6], rng, final_norm_act=True)
    pool_proj = nn.init_mlp(reg, "proj", [c_in + 6, 6], rng, final_norm_act=True)
    return pool_mlp, pool_proj


# ---------------------------------------------------------------------------
# multi-interval learning


def test_mil_single_group_slices_mean(rng):
    # one instance, all times inside one interval, identity MLP:
    # the sliced half equals the per-instance mean of F_t repeated per point
    feats = rng.normal(size=(5, 3))
    ps = make_ps([0] * 5, range(5))
    out = materialize(multi_interval(rows_of(ps, [8]), ad.constant(feats), [identity_mlp(3)]))
    assert out.shape == (5, 6)
    np.testing.assert_allclose(out[:, :3], np.tile(feats.mean(axis=0), (5, 1)), atol=1e-12)
    np.testing.assert_allclose(out[:, 3:], feats, atol=1e-12)


def test_mil_output_width_doubles_last_mlp(rng):
    params, _ = tiny_params()
    feats = rng.normal(size=(9, 4))
    ps = make_ps([0] * 9, range(9))
    out = materialize(multi_interval(rows_of(ps), ad.constant(feats), params.interval_mlps))
    assert out.shape == (9, 2 * TINY.interval_width)


def test_mil_no_cross_instance_mixing(rng):
    params, _ = tiny_params()
    inst = [0] * 20 + [1] * 3
    time = list(range(20)) + list(range(3))
    ps = make_ps(inst, time)
    feats = rng.normal(size=(23, 4))
    out_a = materialize(multi_interval(rows_of(ps), ad.constant(feats), params.interval_mlps))
    zeroed = feats.copy()
    zeroed[20:] = 0.0
    out_b = materialize(multi_interval(rows_of(ps), ad.constant(zeroed), params.interval_mlps))
    np.testing.assert_array_equal(out_a[:20], out_b[:20])


def test_mil_interval_h_matches_mean_pool_oracle(rng):
    # sliced features with interval >= H equal a brute per-instance mean
    feats = rng.normal(size=(12, 3))
    inst = [0] * 7 + [1] * 5
    ps = make_ps(inst, list(range(7)) + list(range(5)))
    out = materialize(multi_interval(rows_of(ps, [20]), ad.constant(feats), [identity_mlp(3)]))
    for i in range(12):
        ref = feats[np.asarray(inst) == inst[i]].mean(axis=0)
        np.testing.assert_allclose(out[i, :3], ref, atol=1e-12)


def test_mil_rejects_empty_intervals(rng):
    ps = make_ps([0], [0])
    with pytest.raises(ValueError):
        rows = dataclasses.replace(rows_of(ps), by_interval=())
        multi_interval(rows, ad.constant(np.zeros((1, 4))), [])


@pytest.mark.parametrize("intervals", [[2], [2, 4, 8]])
def test_temporal_block_rejects_plan_of_other_interval_count(intervals):
    params, _ = tiny_params()
    with pytest.raises(ValueError):
        temporal_block(rows_of(make_ps([0], [0]), intervals), ad.constant(np.zeros((1, 4))), params)


# ---------------------------------------------------------------------------
# instance pooling


def test_instance_pool_single_point_instance(rng):
    from pointcast import nn

    pool_mlp, _ = pool_params(4)
    feats = rng.normal(size=(1, 4))
    ps = make_ps([0], [0])
    pooled = ad.scatter_max(
        nn.apply_mlp(pool_mlp, ad.constant(feats)), build_groups_by_instance(ps)
    )
    np.testing.assert_array_equal(pooled.data, nn.apply_mlp(pool_mlp, ad.constant(feats)).data)


def test_instance_pool_duplicate_point_invariant(rng):
    pool_mlp, pool_proj = pool_params(4)
    feats = rng.normal(size=(3, 4))
    ps = make_ps([0, 0, 0], [0, 1, 2])
    out = materialize(instance_pool(rows_of(ps), [ad.constant(feats)], pool_mlp, pool_proj))
    dup = np.vstack([feats, feats[1]])
    ps_dup = make_ps([0, 0, 0, 0], [0, 1, 2, 3])
    out_dup = materialize(instance_pool(rows_of(ps_dup), [ad.constant(dup)], pool_mlp, pool_proj))
    np.testing.assert_allclose(out_dup[:3], out, atol=1e-12)


def test_instance_pool_permutation_within_instance(rng):
    pool_mlp, pool_proj = pool_params(4)
    feats = rng.normal(size=(6, 4))
    ps = make_ps([0] * 6, range(6))
    out = materialize(instance_pool(rows_of(ps), [ad.constant(feats)], pool_mlp, pool_proj))
    perm = rng.permutation(6)
    ps_p = make_ps([0] * 6, np.arange(6)[perm])
    out_p = materialize(instance_pool(rows_of(ps_p), [ad.constant(feats[perm])], pool_mlp,
                                      pool_proj))
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


# ---------------------------------------------------------------------------
# temporal block


def test_temporal_block_shape(rng):
    params, _ = tiny_params()
    ps = make_ps([0] * 5 + [1] * 4, list(range(5)) + list(range(4)))
    out = temporal_block(rows_of(ps), ad.constant(rng.normal(size=(9, 4))), params)
    assert out.data.shape == (9, TINY.temporal_width)


def test_temporal_block_gradient(rng):
    params, reg = tiny_params(seed=2)
    ps = make_ps([0] * 4 + [1] * 2, [0, 1, 2, 3, 0, 1])
    feats = ad.parameter(spread_values(np.random.default_rng(7), (6, 4)))
    target = np.random.default_rng(8).normal(size=(6, TINY.temporal_width))

    def make_loss():
        return ad.smooth_l1(temporal_block(rows_of(ps), feats, params), target)

    sampled = [feats] + [reg[k] for k in sorted(reg)[::4]]
    check_grads(make_loss, sampled)


def test_temporal_block_variable_lengths_no_padding(rng):
    params, _ = tiny_params()
    lengths = [1, 7, 20]
    inst = np.concatenate([[i] * n for i, n in enumerate(lengths)])
    time = np.concatenate([np.arange(n) for n in lengths])
    ps = make_ps(inst, time)
    out = temporal_block(rows_of(ps), ad.constant(rng.normal(size=(28, 4))), params).data
    assert out.shape == (28, TINY.temporal_width)
    assert np.all(np.isfinite(out))


def test_temporal_instance_isolation_exact(rng):
    # perturbing instance A never changes instance B, bit-exactly
    params, _ = tiny_params()
    inst = [0] * 6 + [1] * 9
    time = list(range(6)) + list(range(9))
    ps = make_ps(inst, time)
    feats = rng.normal(size=(15, 4))
    out = temporal_block(rows_of(ps), ad.constant(feats), params).data
    bumped = feats.copy()
    bumped[:6] += rng.normal(size=(6, 4))
    out_b = temporal_block(rows_of(ps), ad.constant(bumped), params).data
    np.testing.assert_array_equal(out_b[6:], out[6:])


def test_temporal_new_instance_does_not_disturb(rng):
    params, _ = tiny_params()
    ps = make_ps([0] * 5, range(5))
    feats = rng.normal(size=(5, 4))
    out = temporal_block(rows_of(ps), ad.constant(feats), params).data
    ps2 = make_ps([0] * 5 + [1] * 3, list(range(5)) + list(range(3)))
    feats2 = np.vstack([feats, rng.normal(size=(3, 4))])
    out2 = temporal_block(rows_of(ps2), ad.constant(feats2), params).data
    np.testing.assert_array_equal(out2[:5], out)


def test_temporal_new_instance_does_not_disturb_gradient(rng):
    # the gradient into an instance's rows is bit-identical with another
    # instance in the scene, when only the first instance's outputs are scored
    params, _ = tiny_params()
    feats = rng.normal(size=(5, 4))
    grads = []
    for ps, data in ((make_ps([0] * 5, range(5)), feats),
                     (make_ps([0] * 5 + [1] * 3, list(range(5)) + list(range(3))),
                      np.vstack([feats, rng.normal(size=(3, 4))]))):
        x = ad.parameter(data)
        out = temporal_block(rows_of(ps), x, params)
        probe = np.zeros(out.shape)
        probe[:5] = 1.0
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(probe))))
        grads.append(x.grad[:5])
    np.testing.assert_array_equal(grads[1], grads[0])


def test_map_points_flow_through_mil(rng):
    params, _ = tiny_params()
    inst = [0] * 4 + [1] * 6
    time = list(range(4)) + [0] * 6
    kind = [0] * 4 + [KIND_MAP] * 6
    ps = make_ps(inst, time, kind=kind)
    out = temporal_block(rows_of(ps), ad.constant(rng.normal(size=(10, 4))), params).data
    assert np.all(np.isfinite(out))
