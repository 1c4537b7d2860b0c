import dataclasses

import numpy as np
import pytest

from conftest import (
    brute_conv_pairs,
    brute_csr,
    brute_group_by_keys,
    brute_radius_pairs,
    dict_interp_candidates,
)

from pointcast import ModelConfig, gen_synthetic, index_scene, normalize, voxelize
from pointcast.indexing import (
    CENTER_TAP,
    CONV_OFFSETS,
    EMBED_IN,
    KIND_MAP,
    KIND_OTHER,
    KIND_TARGET,
    GroupTable,
    build_groups_by_instance,
    build_groups_by_voxel,
    group_by_keys,
    pack_pair,
    plan_scene,
    regroup_by_interval,
)
from pointcast.scenes import AgentTrack, MapElement, NormalizedScene, Frame


def make_ps(points, instance, time, kind, grid_size=0.2):
    from pointcast.indexing import IndexedPointSet

    points = np.asarray(points, dtype=np.float64)
    return IndexedPointSet(
        points=points,
        instance=np.asarray(instance, dtype=np.int64),
        time=np.asarray(time, dtype=np.int64),
        voxels=voxelize(points, grid_size),
        kind=np.asarray(kind, dtype=np.int64),
        grid_size=grid_size,
    )


# ---------------------------------------------------------------------------
# voxelize


def test_voxelize_negative_floor():
    v = voxelize(np.array([[0.5, -0.3]]), 0.2)
    assert v.tolist() == [[2, -2]]


def test_voxelize_origin():
    for s in (0.1, 0.2, 1.0, 3.7):
        assert voxelize(np.array([[0.0, 0.0]]), s).tolist() == [[0, 0]]


def test_voxelize_range_corner():
    # floor(47.99 / 0.2) = floor(239.95) = 239; floor(-48.0 / 0.2) = -240
    v = voxelize(np.array([[47.99, -48.0]]), 0.2)
    assert v.tolist() == [[239, -240]]


def test_voxelize_rejects_nonfinite():
    with pytest.raises(ValueError):
        voxelize(np.array([[np.nan, 0.0]]), 0.2)
    with pytest.raises(ValueError):
        voxelize(np.array([[np.inf, 0.0]]), 0.2)


def test_voxelize_rejects_bad_grid():
    with pytest.raises(ValueError):
        voxelize(np.zeros((1, 2)), 0.0)


def test_voxelize_translation_covariance(rng):
    # shift by integer multiples of the cell size moves the index by that integer
    s = 0.25  # binary-exact cell size keeps the check exact
    pts = rng.uniform(-10, 10, size=(200, 2))
    k = rng.integers(-5, 6, size=(200, 2))
    np.testing.assert_array_equal(voxelize(pts + s * k, s), voxelize(pts, s) + k)


# ---------------------------------------------------------------------------
# pack_pair


def test_pack_pair_unique(rng):
    a = rng.integers(-(2**20), 2**20, size=1000)
    b = rng.integers(-(2**20), 2**20, size=1000)
    keys = pack_pair(a, b)
    seen = {}
    for i, key in enumerate(keys):
        pair = (a[i], b[i])
        if key in seen:
            assert seen[key] == pair
        seen[key] = pair
    assert len(set(keys.tolist())) == len({(x, y) for x, y in zip(a, b)})


def test_pack_pair_range_check():
    with pytest.raises(ValueError):
        pack_pair(np.array([2**31]), np.array([0]))


# ---------------------------------------------------------------------------
# group builders


def test_groups_by_voxel_basic():
    ps = make_ps([[0.1, 0.1], [0.15, 0.05], [0.25, 0.1]], [0, 0, 0], [0, 1, 2], [0, 0, 0])
    gt = build_groups_by_voxel(ps)
    assert gt.n_groups == 2
    assert sorted(len(m) for m in gt.members) == [1, 2]


def test_groups_by_voxel_identity_when_distinct():
    pts = np.arange(10, dtype=np.float64).reshape(5, 2) * 10.0
    ps = make_ps(pts, [0] * 5, range(5), [0] * 5)
    gt = build_groups_by_voxel(ps)
    assert gt.n_groups == 5
    assert all(len(m) == 1 for m in gt.members)


def test_groups_permutation_invariance(rng):
    pts = rng.uniform(-2, 2, size=(40, 2))
    ps = make_ps(pts, [0] * 40, range(40), [0] * 40)
    gt = build_groups_by_voxel(ps)
    perm = rng.permutation(40)
    ps2 = make_ps(pts[perm], [0] * 40, np.arange(40)[perm], [0] * 40)
    gt2 = build_groups_by_voxel(ps2)
    # same membership as sets of original point ids
    sets1 = {frozenset(m.tolist()) for m in gt.members}
    sets2 = {frozenset(perm[m].tolist()) for m in gt2.members}
    assert sets1 == sets2


def test_group_by_keys_matches_bruteforce(rng):
    for _ in range(50):
        keys = rng.integers(0, 10, size=rng.integers(1, 60))
        table = group_by_keys(keys)
        ref_group_of, ref_members = brute_group_by_keys(keys)
        np.testing.assert_array_equal(table.group_of, ref_group_of)
        assert len(table.members) == len(ref_members)
        for got, ref in zip(table.members, ref_members):
            np.testing.assert_array_equal(got, ref)


def test_groups_partition(rng):
    keys = rng.integers(0, 7, size=30)
    table = group_by_keys(keys)
    allpts = np.concatenate(table.members)
    assert sorted(allpts.tolist()) == list(range(30))
    for g, m in enumerate(table.members):
        assert np.all(table.group_of[m] == g)


def test_group_table_csr_matches_bruteforce(rng):
    for _ in range(50):
        n = int(rng.integers(1, 80))
        by_keys = group_by_keys(rng.integers(-5, 15, size=n))
        # sorted dense ids, as radius centers and interpolation candidates arrive
        by_sorted_ids = GroupTable.from_group_of(np.sort(by_keys.group_of), by_keys.n_groups)
        for table in (by_keys, by_sorted_ids):
            order, offsets = brute_csr(table.group_of, table.n_groups)
            np.testing.assert_array_equal(table.order, order)
            np.testing.assert_array_equal(table.offsets, offsets)
            assert table.offsets[0] == 0 and table.offsets[-1] == n
            assert np.all(table.counts() > 0)  # no empty segment
            seg = np.repeat(np.arange(table.n_groups), table.counts())
            np.testing.assert_array_equal(table.group_of[table.order], seg)  # grouped
            assert np.all(np.diff(table.order)[np.diff(seg) == 0] > 0)  # ascending within


# ---------------------------------------------------------------------------
# interval regrouping


def test_regroup_interval_key():
    # times 4 and 5 share floor(t/2) = 2; time 3 does not
    ps = make_ps(np.zeros((3, 2)), [7, 7, 7], [5, 4, 3], [0, 0, 0])
    gt = regroup_by_interval(ps, 2)
    assert gt.group_of[0] == gt.group_of[1]
    assert gt.group_of[2] != gt.group_of[0]


def test_regroup_times_0_to_4_interval_2():
    ps = make_ps(np.zeros((5, 2)), [0] * 5, range(5), [0] * 5)
    gt = regroup_by_interval(ps, 2)
    groups = [sorted(m.tolist()) for m in gt.members]
    assert groups == [[0, 1], [2, 3], [4]]


def test_regroup_large_interval_equals_instance_grouping():
    rng = np.random.default_rng(3)
    inst = rng.integers(0, 4, size=30)
    times = rng.integers(0, 20, size=30)
    ps = make_ps(rng.uniform(-2, 2, (30, 2)), inst, times, [0] * 30)
    for interval in (20, 25, 100):
        a = regroup_by_interval(ps, interval)
        b = build_groups_by_instance(ps)
        np.testing.assert_array_equal(a.group_of, b.group_of)


def test_regroup_interval_one_is_finest():
    ps = make_ps(np.zeros((6, 2)), [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [0] * 6)
    gt = regroup_by_interval(ps, 1)
    assert gt.n_groups == 6


def test_regroup_rejects_bad_interval():
    ps = make_ps(np.zeros((2, 2)), [0, 0], [0, 1], [0, 0])
    with pytest.raises(ValueError):
        regroup_by_interval(ps, 0)


def test_map_points_group_whole_instance_any_interval():
    ps = make_ps(np.zeros((4, 2)), [3, 3, 3, 3], [0, 0, 0, 0], [KIND_MAP] * 4)
    for interval in (1, 2, 16):
        gt = regroup_by_interval(ps, interval)
        assert gt.n_groups == 1


# ---------------------------------------------------------------------------
# instance grouping


def test_groups_by_instance_counts():
    inst = [0] * 20 + [1] * 20 + [2] * 10 + [3] * 10 + [4] * 10
    times = list(range(20)) + list(range(20)) + [0] * 30
    ps = make_ps(np.zeros((70, 2)), inst, times, [0] * 40 + [KIND_MAP] * 30)
    gt = build_groups_by_instance(ps)
    assert gt.n_groups == 5
    assert [len(m) for m in gt.members] == [20, 20, 10, 10, 10]


def test_single_instance_single_group():
    ps = make_ps(np.zeros((8, 2)), [0] * 8, range(8), [0] * 8)
    gt = build_groups_by_instance(ps)
    assert gt.n_groups == 1
    assert gt.members[0].tolist() == list(range(8))


# ---------------------------------------------------------------------------
# index_scene


def _tiny_scene():
    agents = [
        AgentTrack("tgt", np.array([18, 19]), np.array([[-1.0, 0.0], [0.0, 0.0]])),
        AgentTrack("a1", np.array([19]), np.array([[1.0, 1.0]])),
    ]
    lanes = [MapElement("m0", np.array([[0.0, 2.0], [1.0, 2.0]]))]
    return NormalizedScene(
        agents=agents, map_elements=lanes, target_id="tgt", future=None,
        city="", frame=Frame(np.zeros(2), 0.0),
    )


def test_index_scene_layout():
    ps = index_scene(_tiny_scene(), 0.2)
    assert len(ps) == 5
    assert ps.kind.tolist() == [KIND_TARGET, KIND_TARGET, KIND_OTHER, KIND_MAP, KIND_MAP]
    assert ps.time.tolist() == [18, 19, 19, 0, 0]
    assert ps.instance.tolist() == [0, 0, 1, 2, 2]


def test_index_scene_rejects_duplicate_instance_time():
    scene = _tiny_scene()
    # forge a duplicate (instance, time) pair among agent points
    scene.agents[1] = AgentTrack("a1", np.array([19, 19]), np.ones((2, 2)))
    with pytest.raises(ValueError):
        index_scene(scene, 0.2)


def test_index_scene_on_synthetic():
    scene = normalize(gen_synthetic(1, seed=5)[0])
    ps = index_scene(scene, 0.2)
    n_agent_pts = sum(len(a.xy) for a in scene.agents)
    n_map_pts = sum(len(m.xy) for m in scene.map_elements)
    assert len(ps) == n_agent_pts + n_map_pts
    assert np.all(ps.time[ps.kind == KIND_MAP] == 0)


# ---------------------------------------------------------------------------
# scene plan


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scene_plan_matches_bruteforce(seed):
    # normalized synthetic scenes span negative and positive coordinates
    ps = index_scene(normalize(gen_synthetic(1, seed=seed)[0]), 0.2)
    assert ps.voxels.min() < 0 < ps.voxels.max()
    radii, intervals = (0.4, 1.6), (2, 4, 8)
    plan = plan_scene(ps, ModelConfig(radii=radii, intervals=intervals))

    assert len(plan.neighborhoods) == len(radii)
    for radius, (rel, by_center, by_neighbor) in zip(radii, plan.neighborhoods):
        centers, nbrs = brute_radius_pairs(ps.points, radius)
        np.testing.assert_array_equal(by_center.group_of, centers)
        np.testing.assert_array_equal(by_neighbor.group_of, nbrs)
        np.testing.assert_array_equal(rel, ps.points[nbrs] - ps.points[centers])
        assert by_center.n_groups == len(ps)
        assert by_neighbor.n_groups == len(ps)
        assert by_neighbor.counts().min() >= 1  # every point is its own neighbor

    ref_vox, ref_members = brute_group_by_keys(pack_pair(ps.voxels[:, 0], ps.voxels[:, 1]))
    np.testing.assert_array_equal(plan.by_voxel.group_of, ref_vox)
    for g, members in enumerate(ref_members):
        np.testing.assert_array_equal(plan.voxel_coords[g], ps.voxels[members[0]])

    ref_map = brute_conv_pairs(plan.voxel_coords, CONV_OFFSETS)
    for k, (pair, (outs, ins)) in enumerate(zip(plan.kernel_map, ref_map)):
        if k == CENTER_TAP:
            assert pair is None
        else:
            np.testing.assert_array_equal(pair[0], outs)
            np.testing.assert_array_equal(pair[1], ins)

    cand_point, cand_row = dict_interp_candidates(plan.voxel_coords, ps.points, ps.grid_size)
    np.testing.assert_array_equal(plan.by_point.group_of, cand_point)
    np.testing.assert_array_equal(plan.interp_rows.group_of, cand_row)
    assert plan.interp_rows.n_groups == len(plan.voxel_coords)
    assert plan.interp_rows.counts().min() >= 1  # every voxel is its own points' candidate
    centers = (plan.voxel_coords[cand_row] + 0.5) * ps.grid_size
    np.testing.assert_array_equal(plan.interp_delta, ps.points[cand_point] - centers)

    assert len(plan.by_interval) == len(intervals)
    for interval, table in zip(intervals, plan.by_interval):
        ref, _ = brute_group_by_keys(
            [(int(i), int(t) // interval) for i, t in zip(ps.instance, ps.time)]
        )
        np.testing.assert_array_equal(table.group_of, ref)
    np.testing.assert_array_equal(plan.by_instance.group_of, brute_group_by_keys(ps.instance)[0])


def _arrays(x):
    """Every array reachable from ``x`` through dataclass fields, tuples and lists."""
    if isinstance(x, np.ndarray):
        return [x]
    if dataclasses.is_dataclass(x):
        x = list(vars(x).values())
    if isinstance(x, (tuple, list)):
        return [a for item in x for a in _arrays(item)]
    return []


def test_scene_plan_carries_the_network_input():
    scene = normalize(gen_synthetic(1, seed=4)[0])
    cfg = ModelConfig(history_steps=16)
    ps = index_scene(scene, cfg.grid_size)
    assert ps.scene_id == scene.scene_id and ps.future is scene.future
    plan = plan_scene(ps, cfg)
    assert plan.scene_id == scene.scene_id
    np.testing.assert_array_equal(plan.future, scene.future)
    onehot = np.eye(3)[ps.kind]
    np.testing.assert_array_equal(
        plan.embedding, np.hstack([ps.points, onehot, ps.time[:, None] / 16.0]))
    assert plan.embedding.shape == (len(ps), EMBED_IN)
    np.testing.assert_array_equal(plan.target_rows, np.flatnonzero(ps.kind == KIND_TARGET))
    # a hand-built point set has no scene id and no future
    bare = plan_scene(dataclasses.replace(ps, scene_id="", future=None), cfg)
    assert bare.scene_id == "" and bare.future is None


def test_scene_plan_is_read_only():
    scene = normalize(gen_synthetic(1, seed=4)[0])
    ps = index_scene(scene, 0.2)
    plan = plan_scene(ps, ModelConfig())
    with pytest.raises(ValueError, match="read-only"):
        plan.embedding[0, 0] = 1.0
    # every array, the tables' and the kernel map's included
    arrays = _arrays(plan)
    assert len(arrays) > 20
    assert [a.shape for a in arrays if a.flags.writeable] == []
    # the point set and the scene it came from stay writeable
    assert all(a.flags.writeable for a in _arrays(ps))
    assert scene.future.flags.writeable
