import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_conv_pairs,
    brute_csr,
    brute_group_by_keys,
    brute_radius_pairs,
    dict_interp_candidates,
    every_row_heads,
    every_row_tables,
    group_members,
)

from pointcast import ModelConfig, autodiff as ad, gen_synthetic, index_scene, normalize, voxelize
from pointcast.indexing import (
    CENTER_TAP,
    CONV_OFFSETS,
    EMBED_IN,
    KIND_MAP,
    KIND_OTHER,
    KIND_TARGET,
    GroupTable,
    _row_tables,
    _topology,
    build_groups_by_instance,
    build_groups_by_voxel,
    group_by_keys,
    pack_pair,
    plan_scene,
    point_embedding,
    regroup_by_interval,
)
from pointcast.network import init_model
from pointcast.scenes import AgentTrack, Frame, MapElement, Scene


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
    assert sorted(len(m) for m in group_members(gt)) == [1, 2]


def test_groups_by_voxel_identity_when_distinct():
    pts = np.arange(10, dtype=np.float64).reshape(5, 2) * 10.0
    ps = make_ps(pts, [0] * 5, range(5), [0] * 5)
    gt = build_groups_by_voxel(ps)
    assert gt.n_groups == 5
    assert all(len(m) == 1 for m in group_members(gt))


def test_groups_permutation_invariance(rng):
    pts = rng.uniform(-2, 2, size=(40, 2))
    ps = make_ps(pts, [0] * 40, range(40), [0] * 40)
    gt = build_groups_by_voxel(ps)
    perm = rng.permutation(40)
    ps2 = make_ps(pts[perm], [0] * 40, np.arange(40)[perm], [0] * 40)
    gt2 = build_groups_by_voxel(ps2)
    # same membership as sets of original point ids
    sets1 = {frozenset(m.tolist()) for m in group_members(gt)}
    sets2 = {frozenset(perm[m].tolist()) for m in group_members(gt2)}
    assert sets1 == sets2


def test_group_by_keys_matches_bruteforce(rng):
    for _ in range(50):
        keys = rng.integers(0, 10, size=rng.integers(1, 60))
        table = group_by_keys(keys)
        ref_group_of, ref_members = brute_group_by_keys(keys)
        np.testing.assert_array_equal(table.group_of, ref_group_of)
        assert len(group_members(table)) == len(ref_members)
        for got, ref in zip(group_members(table), ref_members):
            np.testing.assert_array_equal(got, ref)


def test_groups_partition(rng):
    keys = rng.integers(0, 7, size=30)
    table = group_by_keys(keys)
    allpts = np.concatenate(group_members(table))
    assert sorted(allpts.tolist()) == list(range(30))
    for g, m in enumerate(group_members(table)):
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
    groups = [sorted(m.tolist()) for m in group_members(gt)]
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
    assert [len(m) for m in group_members(gt)] == [20, 20, 10, 10, 10]


def test_single_instance_single_group():
    ps = make_ps(np.zeros((8, 2)), [0] * 8, range(8), [0] * 8)
    gt = build_groups_by_instance(ps)
    assert gt.n_groups == 1
    assert group_members(gt)[0].tolist() == list(range(8))


# ---------------------------------------------------------------------------
# index_scene


def _tiny_scene():
    agents = [
        AgentTrack("tgt", np.array([18, 19]), np.array([[-1.0, 0.0], [0.0, 0.0]])),
        AgentTrack("a1", np.array([19]), np.array([[1.0, 1.0]])),
    ]
    lanes = [MapElement("m0", np.array([[0.0, 2.0], [1.0, 2.0]]))]
    return Scene(agents=agents, map_elements=lanes, target_id="tgt", frame=Frame(np.zeros(2), 0.0))


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


def brute_voxels(ps):
    """Each row's voxel, numbered by first appearance, and each voxel's coordinate, via a dict."""
    voxel_of, members = brute_group_by_keys([tuple(v) for v in ps.voxels.tolist()])
    return voxel_of, np.array([ps.voxels[m[0]] for m in members]).reshape(-1, 2)


def brute_fields(ps, cfg):
    """Stage 0's input rows and each stage's (rows, voxels), from the first, by sets and loops.

    The last stage keeps the target's rows. A stage's voxels are its rows'
    interpolation candidates, grown ``bottleneck_blocks`` times by every
    voxel within one cell of a kept one in both axes. The stage before keeps
    every instance that holds a radius neighbor of a kept row or a point in
    a kept voxel; stage 0 reads those rows themselves.
    """
    voxel_of, coords = brute_voxels(ps)
    centers, nbrs = brute_radius_pairs(ps.points, max(cfg.radii))
    cand_point, cand_row = dict_interp_candidates(coords, ps.points, ps.grid_size)
    rows = set(np.flatnonzero(ps.kind == KIND_TARGET).tolist())
    fields = []
    for _ in range(cfg.n_stages):
        voxels = {int(v) for p, v in zip(cand_point, cand_row) if p in rows}
        for _ in range(cfg.bottleneck_blocks):
            voxels = {int(h) for g in voxels
                      for h in np.flatnonzero(np.abs(coords - coords[g]).max(axis=1) <= 1)}
        fields.append((np.array(sorted(rows), dtype=np.int64),
                       np.array(sorted(voxels), dtype=np.int64)))
        reads = {int(b) for a, b in zip(centers, nbrs) if a in rows}
        reads |= {p for p in range(len(ps)) if voxel_of[p] in voxels}
        kept = {int(ps.instance[p]) for p in reads}
        rows = {p for p in range(len(ps)) if ps.instance[p] in kept}
    return np.array(sorted(reads), dtype=np.int64), fields[::-1]


def assert_csr(table):
    """``table`` is the CSR of its ``group_of``: members ascending, no group empty."""
    order, offsets = brute_csr(table.group_of, table.n_groups)
    np.testing.assert_array_equal(table.order, order)
    np.testing.assert_array_equal(table.offsets, offsets)
    assert table.n_groups == len(table.offsets) - 1 and table.counts().min() >= 1


def _all(ids, n):
    """``ids``, where None stands for all of [0, n)."""
    return np.arange(n) if ids is None else ids


def assert_tables_restrict_plan(ps, cfg, view, rows, inputs, voxels, pairs=None):
    """``view`` equals a brute-force cut of the scene to the ascending plan rows ``rows``,
    reading the input rows ``inputs`` and computing the plan voxels ``voxels``.

    ``pairs`` maps each radius to its brute-force pairs, when the caller has them.
    """
    pairs = pairs or {r: brute_radius_pairs(ps.points, r) for r in cfg.radii}
    voxel_of, coords = brute_voxels(ps)
    np.testing.assert_array_equal(view.rows, rows)
    np.testing.assert_array_equal(view.voxels, voxels)
    kept = np.isin(np.arange(len(ps)), rows)

    assert len(view.neighborhoods) == len(view.neighbor_rows) == len(cfg.radii)
    for radius, (rel, by_center, by_neighbor), nbr_rows in zip(cfg.radii, view.neighborhoods,
                                                               view.neighbor_rows):
        centers, nbrs = pairs[radius]
        keep = kept[centers]
        nbr_rows = _all(nbr_rows, len(inputs))
        # the same pairs, in the same order
        np.testing.assert_array_equal(rows[by_center.group_of], centers[keep])
        np.testing.assert_array_equal(inputs[nbr_rows[by_neighbor.group_of]], nbrs[keep])
        np.testing.assert_array_equal(rel, ps.points[nbrs[keep]] - ps.points[centers[keep]])
        np.testing.assert_array_equal(inputs[nbr_rows], np.unique(nbrs[keep]))
        assert by_center.n_groups == len(rows) and by_neighbor.n_groups == len(nbr_rows)

    # every point of every kept voxel, and the kernel map among the kept voxels
    points = np.flatnonzero(np.isin(voxel_of, voxels))
    np.testing.assert_array_equal(inputs[_all(view.voxel_points, len(inputs))], points)
    np.testing.assert_array_equal(voxels[view.by_voxel.group_of], voxel_of[points])
    assert view.by_voxel.n_groups == len(voxels)
    ref_map = brute_conv_pairs(coords[voxels], CONV_OFFSETS)
    for k, (pair, (outs, ins)) in enumerate(zip(view.kernel_map, ref_map)):
        if k == CENTER_TAP:
            assert pair is None
        else:
            np.testing.assert_array_equal(pair[0], outs)
            np.testing.assert_array_equal(pair[1], ins)

    cand_point, cand_row = dict_interp_candidates(coords, ps.points, ps.grid_size)
    keep = kept[cand_point]
    voxel_rows = _all(view.voxel_rows, len(voxels))
    np.testing.assert_array_equal(rows[view.by_point.group_of], cand_point[keep])
    np.testing.assert_array_equal(voxels[voxel_rows[view.interp_rows.group_of]], cand_row[keep])
    np.testing.assert_array_equal(voxels[voxel_rows], np.unique(cand_row[keep]))
    voxel_centers = (coords[cand_row[keep]] + 0.5) * ps.grid_size
    np.testing.assert_array_equal(view.interp_delta, ps.points[cand_point[keep]] - voxel_centers)
    assert view.by_point.n_groups == len(rows)
    assert view.interp_rows.n_groups == len(voxel_rows)

    assert len(view.by_interval) == len(cfg.intervals)
    for interval, table in zip(cfg.intervals, view.by_interval):
        ref, _ = brute_group_by_keys(
            [(int(ps.instance[r]), int(ps.time[r]) // interval) for r in rows])
        np.testing.assert_array_equal(table.group_of, ref)
    np.testing.assert_array_equal(view.by_instance.group_of,
                                  brute_group_by_keys(ps.instance[rows])[0])

    for table in (*(t for _, *tables in view.neighborhoods for t in tables), view.by_voxel,
                  view.by_point, view.interp_rows, *view.by_interval, view.by_instance):
        assert_csr(table)
    for ids in (view.rows, view.voxels, view.voxel_points, view.voxel_rows, *view.neighbor_rows):
        assert ids is None or (len(ids) and np.all(np.diff(ids) > 0))  # distinct and ascending


def assert_plan_matches_bruteforce(ps, cfg, plan, pairs=None):
    """Every stage of ``plan`` holds the brute-force receptive field and its tables."""
    np.testing.assert_array_equal(plan.voxel_coords, brute_voxels(ps)[1])
    inputs, fields = brute_fields(ps, cfg)
    np.testing.assert_array_equal(plan.input_rows, inputs)
    assert len(plan.stages) == cfg.n_stages
    pairs = pairs or {r: brute_radius_pairs(ps.points, r) for r in cfg.radii}
    for view, (rows, voxels) in zip(plan.stages, fields):
        assert_tables_restrict_plan(ps, cfg, view, rows, inputs, voxels, pairs)
        inputs = rows

    # each field holds the target and the next stage's field, in whole instances
    target = np.flatnonzero(ps.kind == KIND_TARGET)
    np.testing.assert_array_equal(plan.stages[-1].rows, target)
    wider = plan.input_rows
    for view in plan.stages:
        assert np.isin(view.rows, wider).all() and np.isin(target, view.rows).all()
        kept = np.isin(ps.instance, ps.instance[view.rows])
        np.testing.assert_array_equal(np.flatnonzero(kept), view.rows)
        wider = view.rows
    for earlier, later in zip(plan.stages[:-1], plan.stages[1:]):
        assert np.isin(later.voxels, earlier.voxels).all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scene_plan_matches_bruteforce(seed):
    # normalized synthetic scenes span negative and positive coordinates
    ps = index_scene(normalize(gen_synthetic(1, seed=seed)[0]), 0.2)
    assert ps.voxels.min() < 0 < ps.voxels.max()
    radii, intervals = (0.4, 1.6), (2, 4, 8)
    cfg = ModelConfig(radii=radii, intervals=intervals)
    plan = plan_scene(ps, cfg)
    pairs = {r: brute_radius_pairs(ps.points, r) for r in radii}
    assert_plan_matches_bruteforce(ps, cfg, plan, pairs)
    # the fields leave rows out: the stages compute less than the whole scene
    assert len(plan.stages[0].rows) < len(ps)

    # the every-row tables, where None stands for every input row and every voxel
    every = every_row_tables(ps, cfg)
    assert every.neighbor_rows == (None,) * len(radii)
    assert every.voxel_points is None and every.voxel_rows is None
    all_rows = np.arange(len(ps))
    assert_tables_restrict_plan(ps, cfg, every, all_rows, all_rows,
                                np.arange(len(plan.voxel_coords)), pairs)


@st.composite
def point_sets(draw):
    """Instances of 1-6 points, one of them the target, in rows shuffled together.

    Coordinates come from a coarse grid on both sides of the origin, so
    points repeat and share voxels and cells.
    """
    n_inst = draw(st.integers(1, 5))
    target = draw(st.integers(0, n_inst - 1))
    sizes = draw(st.lists(st.integers(1, 6), min_size=n_inst, max_size=n_inst))
    kinds = [KIND_TARGET if i == target else draw(st.sampled_from([KIND_OTHER, KIND_MAP]))
             for i in range(n_inst)]
    n = sum(sizes)
    cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                          min_size=n, max_size=n))
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    time = np.concatenate([np.zeros(k, np.int64) if kind == KIND_MAP else np.arange(k)
                           for k, kind in zip(sizes, kinds)])
    return make_ps(np.asarray(cells, dtype=np.float64) * 0.3,
                   np.repeat(np.arange(n_inst), sizes)[perm], time[perm],
                   np.repeat(kinds, sizes)[perm], grid_size=draw(st.sampled_from([0.2, 0.5])))


VIEW_CFG = ModelConfig(radii=(0.3, 0.7), intervals=(1, 2, 4))


@settings(max_examples=150)
@given(ps=point_sets(), n_stages=st.integers(1, 3), hops=st.integers(1, 2))
# a one-point target on a point that two other rows repeat, with negative coordinates
@example(ps=make_ps([[-0.3, 0.3], [-0.3, 0.3], [-0.3, 0.3], [0.6, -0.9]], [1, 0, 1, 2],
                    [0, 0, 1, 0], [KIND_OTHER, KIND_TARGET, KIND_OTHER, KIND_MAP]),
         n_stages=2, hops=1)
# a single-point scene
@example(ps=make_ps([[-0.6, -0.9]], [0], [0], [KIND_TARGET]), n_stages=3, hops=2)
def test_target_view_restricts_plan(ps, n_stages, hops):
    cfg = dataclasses.replace(VIEW_CFG, n_stages=n_stages, bottleneck_blocks=hops)
    assert_plan_matches_bruteforce(ps, cfg, plan_scene(ps, cfg))


ORACLE_CFG = dataclasses.replace(
    VIEW_CFG, n_stages=3, n_modes=2, future_steps=2, embed_width=4, radius_width=4,
    pointwise_width=4, voxel_width=4, spatial_width=4, interval_width=4, temporal_width=4,
    head_width=4)


@settings(max_examples=60)
@given(ps=point_sets(), hops=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_rows_outside_the_fields_never_reach_the_heads_of_any_point_set(ps, hops, seed):
    # on the every-row tables, any finite change to a row that stage 0 does
    # not read leaves the heads bit-identical
    cfg = dataclasses.replace(ORACLE_CFG, bottleneck_blocks=hops)
    model = init_model(cfg, seed=0)
    outside = ~np.isin(np.arange(len(ps)), plan_scene(ps, cfg).input_rows)
    embedding = point_embedding(ps, cfg.history_steps)
    bumped = embedding.copy()
    bumped[outside] += np.random.default_rng(seed).normal(scale=10.0, size=(outside.sum(), 6))
    with ad.no_grad():
        heads = [[h.data.tobytes() for h in every_row_heads(model, ps, e)]
                 for e in (embedding, bumped)]
    assert heads[0] == heads[1]


@st.composite
def instance_unions(draw):
    """A point set and a non-empty ascending union of its whole instances."""
    ps = draw(point_sets())
    instances = np.unique(ps.instance).tolist()
    chosen = draw(st.lists(st.sampled_from(instances), min_size=1, unique=True))
    return ps, np.flatnonzero(np.isin(ps.instance, chosen))


@settings(max_examples=150)
@given(case=instance_unions())
def test_row_tables_restrict_plan_to_any_instance_union(case):
    ps, rows = case
    topology = _topology(ps, VIEW_CFG)
    every = np.ones(len(ps), dtype=bool)
    voxels = np.ones(len(topology.coords), dtype=bool)
    view = _row_tables(topology, np.isin(np.arange(len(ps)), rows), every, voxels)
    assert_tables_restrict_plan(ps, VIEW_CFG, view, rows, np.arange(len(ps)),
                                np.flatnonzero(voxels))


def test_row_tables_refuse_inputs_that_miss_a_read():
    # row 1 is row 0's radius neighbor, and its voxel is row 0's candidate
    ps = make_ps([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]], [0, 1, 2], [0, 0, 0],
                 [KIND_TARGET, KIND_OTHER, KIND_MAP])
    topology = _topology(ps, VIEW_CFG)
    rows = np.array([True, False, False])
    voxels = np.ones(len(topology.coords), dtype=bool)
    for inputs, voxels in ((rows, voxels), (np.ones(3, dtype=bool), ~voxels)):
        with pytest.raises(ValueError, match="miss a row or voxel"):
            _row_tables(topology, rows, inputs, voxels)


def test_plan_rejects_target_sharing_an_instance():
    # the temporal block on the view would miss the instance's other rows
    ps = make_ps([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [0, 0, 1], [0, 1, 0],
                 [KIND_TARGET, KIND_OTHER, KIND_OTHER])
    with pytest.raises(ValueError, match="share a group"):
        plan_scene(ps, VIEW_CFG)


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
    # the embedding holds stage 0's input rows alone
    onehot = np.eye(3)[ps.kind]
    rows = plan.input_rows
    assert 0 < len(rows) < len(ps)
    np.testing.assert_array_equal(
        plan.embedding, np.hstack([ps.points, onehot, ps.time[:, None] / 16.0])[rows])
    assert plan.embedding.shape == (len(rows), EMBED_IN)
    np.testing.assert_array_equal(plan.stages[-1].rows, np.flatnonzero(ps.kind == KIND_TARGET))
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
