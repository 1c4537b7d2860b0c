import csv
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_SCENE_FILES
from pointcast import (
    AgentTrack,
    AugConfig,
    Frame,
    MapElement,
    Scene,
    augment,
    cli,
    gen_synthetic,
    load_scene,
    normalize,
    save_scene,
)
from pointcast.scenes import (
    FUTURE_STEPS,
    HISTORY_STEPS,
    SCENE_RANGE,
    SceneFormatError,
    SceneValidationError,
    load_scene_dir,
    scene_from_dict,
    scene_to_dict,
    validate_normalized,
    validate_raw,
)


def straight_scene(future=True):
    steps = np.arange(HISTORY_STEPS, dtype=np.int64)
    xy = np.stack([steps * 1.0, np.zeros(HISTORY_STEPS)], axis=1) + np.array([3.0, 7.0])
    agents = [AgentTrack("tgt", steps, xy)]
    lanes = [MapElement("m0", np.stack([np.arange(10.0), np.full(10, 2.0)], axis=1))]
    fut = None
    if future:
        fut = np.stack(
            [HISTORY_STEPS + np.arange(FUTURE_STEPS, dtype=np.float64), np.zeros(FUTURE_STEPS)],
            axis=1,
        ) + np.array([3.0, 7.0])
    return Scene(agents=agents, map_elements=lanes, target_id="tgt", future=fut, city="X")


# meters, to the millimeter: a heading is 0 or at least 1 mm long
coords = st.integers(-100_000, 100_000).map(lambda v: v / 1000)
# a target point's offset from the target's anchor, so no target point is cropped
offsets = st.integers(-16_000, 16_000).map(lambda v: v / 1000)


def _xy(draw, n, c=coords):
    """(n, 2) coordinates drawn from ``c``."""
    return np.array(draw(st.lists(st.tuples(c, c), min_size=n, max_size=n)),
                    dtype=np.float64).reshape(n, 2)


@st.composite
def scenes(draw):
    """Valid scenes in a world frame, the target's track within 16 m of its anchor per axis."""
    h, t = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    ids = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    target_id = draw(st.sampled_from(ids))
    anchor = _xy(draw, 1)[0]
    agents = []
    for track_id in ids:
        if track_id == target_id:
            steps = draw(st.sets(st.integers(0, h - 1))) | {h - 1}
            xy = anchor + _xy(draw, len(steps), offsets)
        else:
            steps = draw(st.sets(st.integers(0, h - 1), min_size=1))
            xy = _xy(draw, len(steps))
        agents.append(AgentTrack(track_id, np.array(sorted(steps), dtype=np.int64), xy))
    map_ids = draw(st.lists(st.text(max_size=3), max_size=3))
    map_elements = [MapElement(m, _xy(draw, draw(st.integers(1, 6)))) for m in map_ids]
    future = _xy(draw, t) if draw(st.booleans()) else None
    return Scene(agents=agents, map_elements=map_elements, target_id=target_id,
                 future=future, city=draw(st.text(max_size=3)), history_steps=h, future_steps=t)


# ---------------------------------------------------------------------------
# JSON format


def test_json_roundtrip_counts(tmp_path):
    scene = straight_scene()
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert len(loaded.agents) == 1
    assert len(loaded.map_elements) == 1
    total = sum(len(a.xy) for a in loaded.agents) + sum(len(m.xy) for m in loaded.map_elements)
    assert total == HISTORY_STEPS + 10


def test_json_roundtrip_equality(tmp_path):
    scene = gen_synthetic(1, seed=11)[0]
    path = tmp_path / "s.json"
    save_scene(scene, path)
    first = load_scene(path)
    save_scene(first, tmp_path / "s2.json")
    second = load_scene(tmp_path / "s2.json")
    first.scene_id = second.scene_id = ""
    assert first == second


@pytest.mark.parametrize("horizons", [{"future_steps": 12}, {"history_steps": 8},
                                      {"history_steps": 5, "future_steps": 3}])
def test_json_roundtrip_keeps_horizons(tmp_path, horizons):
    scene = gen_synthetic(1, seed=0, **horizons)[0]
    save_scene(scene, tmp_path / "s.json")
    loaded = load_scene(tmp_path / "s.json")
    loaded.scene_id = scene.scene_id
    assert loaded == scene
    assert (loaded.history_steps, loaded.future_steps) == (
        horizons.get("history_steps", HISTORY_STEPS), horizons.get("future_steps", FUTURE_STEPS))


def test_json_without_horizons_reads_defaults():
    doc = scene_to_dict(straight_scene())
    del doc["history_steps"], doc["future_steps"]
    loaded = scene_from_dict(doc)
    assert (loaded.history_steps, loaded.future_steps) == (HISTORY_STEPS, FUTURE_STEPS)


@pytest.mark.parametrize("key, value", [("future_steps", 0), ("history_steps", -3),
                                        ("future_steps", 12.0), ("history_steps", True),
                                        ("future_steps", "30"), ("history_steps", None)])
def test_json_bad_horizon_rejected(tmp_path, key, value):
    doc = scene_to_dict(straight_scene())
    doc[key] = value
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneFormatError, match=f"{key} must be a positive integer"):
        load_scene(path)
    assert cli.main(["plot", "--scene", str(path), "--out", str(tmp_path / "s.svg")]) == 2


def _set_step(doc, value):
    doc["agents"][0]["points"][2][0] = value


def _set_agent_x(doc, value):
    doc["agents"][0]["points"][2][1] = value


def _set_map_y(doc, value):
    doc["map"][0]["points"][1][1] = value


def _set_future_x(doc, value):
    doc["future"][3][0] = value


# (edit, value, what the error names): steps are JSON integers, coordinates JSON numbers
MALFORMED_VALUES = {
    "fractional-step": (_set_step, 0.5, "agent 'tgt' point 2: step"),
    "integral-float-step": (_set_step, 2.0, "agent 'tgt' point 2: step"),
    "bool-step": (_set_step, True, "agent 'tgt' point 2: step"),
    "string-step": (_set_step, "2", "agent 'tgt' point 2: step"),
    "overflowing-step": (_set_step, 2**70, "malformed scene document"),
    "bool-agent-x": (_set_agent_x, True, "agent 'tgt' point 2: coordinate"),
    "string-agent-x": (_set_agent_x, "3.0", "agent 'tgt' point 2: coordinate"),
    "null-agent-x": (_set_agent_x, None, "agent 'tgt' point 2: coordinate"),
    "bool-map-y": (_set_map_y, False, "map element 'm0' point 1: coordinate"),
    "string-map-y": (_set_map_y, "2.0", "map element 'm0' point 1: coordinate"),
    "list-map-y": (_set_map_y, [2.0], "map element 'm0' point 1: coordinate"),
    "bool-future-x": (_set_future_x, True, "future point 3: coordinate"),
    "string-future-x": (_set_future_x, "1", "future point 3: coordinate"),
}


@pytest.mark.parametrize("case", MALFORMED_VALUES)
def test_json_malformed_value_rejected(case):
    edit, value, names = MALFORMED_VALUES[case]
    doc = scene_to_dict(straight_scene())
    edit(doc, value)
    with pytest.raises(SceneFormatError, match=names):
        scene_from_dict(doc)


def test_json_integral_coordinates_accepted():
    doc = scene_to_dict(straight_scene())
    _set_agent_x(doc, 5)
    _set_map_y(doc, -2)
    assert scene_from_dict(doc).agents[0].xy[2, 0] == 5.0


def test_json_fractional_step_exits_2(tmp_path, capsys):
    doc = scene_to_dict(straight_scene())
    _set_step(doc, 1.5)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["plot", "--scene", str(path), "--out", str(tmp_path / "s.svg")]) == 2
    assert "agent 'tgt' point 2: step must be an integer, got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "s.svg").exists()


def _edit(doc, edits):
    """Set each ``{(key, index, ..., key): value}`` of ``edits`` in ``doc``."""
    for (*where, key), value in edits.items():
        owner = doc
        for k in where:
            owner = owner[k]
        owner[key] = value
    return doc


# (edits, what the error names): ids and the city are JSON strings, never str() of another value
MALFORMED_IDS = {
    "null-agent-id": ({("agents", 0, "id"): None, ("target_id",): "None"},
                      "agent 0 id must be a string, got null"),
    "int-agent-id": ({("agents", 0, "id"): 1, ("target_id",): "1"},
                     "agent 0 id must be a string, got 1"),
    "object-map-id": ({("map", 0, "id"): {"x": 1}},
                      'map element 0 id must be a string, got {"x": 1}'),
    "int-target-id": ({("target_id",): 1}, "target_id must be a string, got 1"),
    "null-target-id": ({("target_id",): None}, "target_id must be a string, got null"),
    "null-city": ({("city",): None}, "city must be a string, got null"),
    "object-city": ({("city",): {"a": 1}}, 'city must be a string, got {"a": 1}'),
    "int-city": ({("city",): 7}, "city must be a string, got 7"),
    "list-city": ({("city",): ["PIT"]}, 'city must be a string, got ["PIT"]'),
}


@pytest.mark.parametrize("case", MALFORMED_IDS)
def test_json_non_string_id_rejected(tmp_path, capsys, case):
    edits, names = MALFORMED_IDS[case]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_edit(scene_to_dict(straight_scene()), edits)))
    with pytest.raises(SceneFormatError, match=re.escape(names)):
        load_scene(path)
    assert cli.main(["plot", "--scene", str(path), "--out", str(tmp_path / "s.svg")]) == 2
    assert names in capsys.readouterr().err


def test_json_without_city_reads_empty():
    doc = scene_to_dict(straight_scene())
    del doc["city"]
    assert scene_from_dict(doc).city == ""


@pytest.mark.parametrize("edits, error", [
    ({("agents", 0, "points", 2, 0): 0.5}, SceneFormatError),
    ({("map",): None}, SceneFormatError),
    ({("target_id",): "nobody"}, SceneValidationError),
])
def test_json_scene_errors_name_their_file(tmp_path, edits, error):
    path = tmp_path / "bad-scene.json"
    path.write_text(json.dumps(_edit(scene_to_dict(straight_scene()), edits)))
    with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
        load_scene(path)


def test_json_parse_error_carries_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"agents": [\n  broken\n]}')
    with pytest.raises(SceneFormatError, match="row"):
        load_scene(path)


def test_json_missing_target_is_validation_error(tmp_path):
    scene = straight_scene()
    doc = {
        "agents": [{"id": "a", "points": [[19, 0.0, 0.0]]}],
        "map": [],
        "target_id": "nope",
        "future": None,
        "city": "",
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneValidationError):
        load_scene(path)


# ---------------------------------------------------------------------------
# CSV format


def write_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["TIMESTAMP", "TRACK_ID", "OBJECT_TYPE", "X", "Y", "CITY_NAME"])
        writer.writerows(rows)


def csv_rows_full(track="t0", others=()):
    rows = []
    for k in range(HISTORY_STEPS + FUTURE_STEPS):
        rows.append((k * 0.1, track, "AGENT", float(k), 0.0, "PIT"))
    for name, n in others:
        for k in range(n):
            rows.append((k * 0.1, name, "OTHERS", 1.0 + k, 2.0, "PIT"))
    return rows


def test_csv_history_future_split(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, csv_rows_full(others=[("o1", 5)]))
    scene = load_scene(path)
    target = scene.target_agent()
    assert len(target.xy) == HISTORY_STEPS
    assert scene.future is not None and scene.future.shape == (FUTURE_STEPS, 2)
    assert scene.city == "PIT"
    assert len(scene.agents) == 2


def test_csv_duplicate_timestamp_rejected(tmp_path):
    rows = csv_rows_full()
    rows.append((0.0, "t0", "AGENT", 9.0, 9.0, "PIT"))  # duplicate t for the track
    path = tmp_path / "dup.csv"
    write_csv(path, rows)
    with pytest.raises(SceneValidationError, match="strictly increasing"):
        load_scene(path)


def test_csv_no_target_rejected(tmp_path):
    rows = [(k * 0.1, "o", "OTHERS", 0.0, 0.0, "PIT") for k in range(HISTORY_STEPS)]
    path = tmp_path / "notgt.csv"
    write_csv(path, rows)
    with pytest.raises(SceneValidationError, match="AGENT"):
        load_scene(path)


def test_csv_parse_error_names_row(tmp_path):
    rows = csv_rows_full()
    rows[3] = ("oops", "t0", "AGENT", "x", 0.0, "PIT")
    path = tmp_path / "bad.csv"
    write_csv(path, rows)
    with pytest.raises(SceneFormatError, match="row 5"):
        load_scene(path)


@pytest.mark.parametrize("column, value", [(0, "nan"), (0, "inf"), (3, "nan"), (4, "-inf")])
def test_csv_non_finite_value_rejected(tmp_path, capsys, column, value):
    rows = [list(r) for r in csv_rows_full()]
    rows[6][column] = value
    path = tmp_path / "s.csv"
    write_csv(path, rows)
    name = {0: "TIMESTAMP", 3: "X", 4: "Y"}[column]
    with pytest.raises(SceneFormatError, match=f"row 8: {name} is not finite"):
        load_scene(path)
    assert cli.main(["plot", "--scene", str(path), "--out", str(tmp_path / "s.svg")]) == 2
    assert f"row 8: {name} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("case", MALFORMED_SCENE_FILES)
def test_scene_file_errors_name_their_file(tmp_path, case):
    name, content, error = MALFORMED_SCENE_FILES[case]
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: ") as info:
        load_scene(path)
    assert str(info.value).count(str(path)) == 1


def argoverse_rows(scene, start, late=()):
    """CSV rows of a map-less scene at the default horizons, in time order.

    Step k is at ``start + k / 10`` s; the target's future takes the steps
    from HISTORY_STEPS on. ``late`` lists ``(track_id, steps)`` of non-target
    rows in the future window, which the loader drops.
    """
    future = {} if scene.future is None else {
        HISTORY_STEPS + k: xy for k, xy in enumerate(scene.future.tolist())}
    rows = []
    for k in range(HISTORY_STEPS + FUTURE_STEPS):
        ts = start + k / 10
        for a in scene.agents:
            kind = "AGENT" if a.track_id == scene.target_id else "OTHERS"
            rows += [(ts, a.track_id, kind, *xy, scene.city)
                     for step, xy in zip(a.steps.tolist(), a.xy.tolist()) if step == k]
        if k in future:
            rows.append((ts, scene.target_id, "AGENT", *future[k], scene.city))
        rows += [(ts, track_id, "OTHERS", float(k), -1.0, scene.city)
                 for track_id, steps in late if k in steps]
    return rows


# CSV fields: any text but control characters, often with a space, a comma or a quote
csv_text = st.text(st.sampled_from(' ,"') | st.characters(exclude_categories=("Cc", "Cs")),
                   max_size=3)


@st.composite
def argoverse_cases(draw):
    """A map-less scene at the default horizons, its target seen at every history step,
    and arguments for :func:`argoverse_rows`.

    Agents are ordered by first step, the order in which time-ordered rows
    introduce them. Late rows come from other agents and from tracks seen
    only in the future window.
    """
    ids = draw(st.lists(csv_text, min_size=1, max_size=4, unique=True))
    target_id = draw(st.sampled_from(ids))
    agents, future = [], None
    for track_id in ids:
        steps = np.arange(HISTORY_STEPS) if track_id == target_id else np.array(sorted(
            draw(st.sets(st.integers(0, HISTORY_STEPS - 1), min_size=1))))
        # a straight track: few draws per track keep a failing example quick to shrink
        anchor, velocity = _xy(draw, 2)
        agents.append(AgentTrack(track_id, steps, anchor + np.outer(steps, velocity)))
        if track_id == target_id and draw(st.booleans()):
            future = anchor + np.outer(np.arange(HISTORY_STEPS, HISTORY_STEPS + FUTURE_STEPS),
                                       velocity)
    agents.sort(key=lambda a: a.steps[0])
    scene = Scene(agents=agents, map_elements=[], target_id=target_id, future=future,
                  city=draw(csv_text))
    others = [t for t in ids if t != target_id]
    late_ids = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    late_ids += [t for t in draw(st.lists(csv_text, max_size=2, unique=True)) if t not in ids]
    future_window = st.sets(st.integers(HISTORY_STEPS, HISTORY_STEPS + FUTURE_STEPS - 1),
                            min_size=1)
    late = [(t, draw(future_window)) for t in late_ids]
    return scene, draw(st.integers(0, 10**9)) / 100, late


@settings(max_examples=60)
@given(case=argoverse_cases())
def test_csv_roundtrip(case):
    scene, start, late = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "argo-1.csv"
        write_csv(path, argoverse_rows(scene, start, late))
        loaded = load_scene(path)
    assert loaded == scene
    assert loaded.scene_id == "argo-1"


@settings(max_examples=60)
@given(scene=scenes())
def test_scene_dict_roundtrip(scene):
    assert scene_from_dict(json.loads(json.dumps(scene_to_dict(scene)))) == scene


@settings(max_examples=60)
@given(scene=scenes())
def test_scene_never_equals_its_normalized_copy(scene):
    norm = normalize(scene)
    assert scene.frame is None and norm.frame is not None
    assert scene != norm and norm != scene
    assert norm == normalize(scene)
    assert replace(norm, scene_id="other") == norm  # equality ignores the id
    assert scene.target_agent().track_id == norm.target_agent().track_id == scene.target_id


# ---------------------------------------------------------------------------
# normalize


def test_normalize_two_point_example():
    steps = np.array([18, 19], dtype=np.int64)
    agents = [AgentTrack("tgt", steps, np.array([[4.0, 4.0], [5.0, 5.0]]))]
    scene = Scene(agents=agents, map_elements=[], target_id="tgt", future=None)
    norm = normalize(scene)
    target = norm.target_agent()
    np.testing.assert_allclose(target.xy[-1], [0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(target.xy[-2], [-np.sqrt(2.0), 0.0], atol=1e-12)


@settings(max_examples=60)
@given(scene=scenes())
def test_normalize_idempotent(scene):
    once = normalize(scene)
    kept = np.concatenate([x.xy for x in once.agents + once.map_elements])
    # a point on the crop border may fall either side of it under float error
    assume(np.all(np.abs(kept) < SCENE_RANGE - 1e-6))
    twice = normalize(once)
    validate_normalized(once)
    validate_normalized(twice)
    assert [(a.track_id, a.steps.tolist()) for a in twice.agents] == [
        (a.track_id, a.steps.tolist()) for a in once.agents]
    assert [m.element_id for m in twice.map_elements] == [m.element_id for m in once.map_elements]
    for a, b in zip(once.agents + once.map_elements, twice.agents + twice.map_elements):
        np.testing.assert_allclose(b.xy, a.xy, rtol=0, atol=1e-9)
    assert (once.future is None) == (twice.future is None)
    if once.future is not None:
        np.testing.assert_allclose(twice.future, once.future, rtol=0, atol=1e-9)


def test_normalize_crops_out_of_range():
    scene = straight_scene(future=False)
    scene.map_elements.append(MapElement("far", np.array([[100.0, 0.0]])))
    norm = normalize(scene)
    assert all(m.element_id != "far" for m in norm.map_elements)


def test_normalize_preserves_distances():
    scene = gen_synthetic(1, seed=3)[0]
    norm = normalize(scene)
    raw_target = scene.target_agent().xy
    norm_target = norm.target_agent().xy
    # the target is never cropped near the origin; compare full tracks
    assert len(raw_target) == len(norm_target)
    d_raw = np.linalg.norm(raw_target[1:] - raw_target[:-1], axis=1)
    d_norm = np.linalg.norm(norm_target[1:] - norm_target[:-1], axis=1)
    np.testing.assert_allclose(d_raw, d_norm, atol=1e-9)


def test_normalize_single_observation_identity_rotation():
    steps = np.array([HISTORY_STEPS - 1], dtype=np.int64)
    agents = [AgentTrack("tgt", steps, np.array([[7.0, -3.0]]))]
    scene = Scene(agents=agents, map_elements=[], target_id="tgt")
    norm = normalize(scene)
    assert norm.frame.rotation == 0.0
    np.testing.assert_allclose(norm.target_agent().xy, [[0.0, 0.0]])


def test_normalize_requires_target_at_last_step():
    steps = np.array([0, 1], dtype=np.int64)
    agents = [AgentTrack("tgt", steps, np.zeros((2, 2)))]
    with pytest.raises(SceneValidationError):
        normalize(Scene(agents=agents, map_elements=[], target_id="tgt"))


@settings(max_examples=100)
@given(origin=st.tuples(coords, coords), rotation=st.floats(-10.0, 10.0),
       pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=20))
def test_frame_roundtrip(origin, rotation, pts):
    frame = Frame(origin=np.array(origin), rotation=rotation)
    pts = np.array(pts)
    np.testing.assert_allclose(frame.invert(frame.apply(pts)), pts, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# augment


def test_augment_pure_scaling():
    norm = normalize(gen_synthetic(1, seed=5)[0])
    cfg = AugConfig(scale_range=(1.1, 1.1), keep_prob=1.0, noise_sigma=0.0)
    out = augment(norm, seed=0, config=cfg)
    for a, b in zip(norm.agents, out.agents):
        np.testing.assert_allclose(b.xy, 1.1 * a.xy, atol=1e-12)
    for m, mm in zip(norm.map_elements, out.map_elements):
        np.testing.assert_allclose(mm.xy, 1.1 * m.xy, atol=1e-12)
    np.testing.assert_allclose(out.future, 1.1 * norm.future, atol=1e-12)


def test_augment_identity_config():
    norm = normalize(gen_synthetic(1, seed=6)[0])
    cfg = AugConfig(scale_range=(1.0, 1.0), keep_prob=1.0, noise_sigma=0.0)
    out = augment(norm, seed=1, config=cfg)
    assert out == norm


def test_augment_scales_pairwise_distances():
    norm = normalize(gen_synthetic(1, seed=7)[0])
    cfg = AugConfig(scale_range=(0.8, 1.25), keep_prob=1.0, noise_sigma=0.0)
    out = augment(norm, seed=3, config=cfg)
    scale = np.linalg.norm(out.future[-1] - out.future[0]) / np.linalg.norm(
        norm.future[-1] - norm.future[0]
    )
    pts_in = np.concatenate([m.xy for m in norm.map_elements])
    pts_out = np.concatenate([m.xy for m in out.map_elements])
    d_in = np.linalg.norm(pts_in[1:] - pts_in[:-1], axis=1)
    d_out = np.linalg.norm(pts_out[1:] - pts_out[:-1], axis=1)
    np.testing.assert_allclose(d_out, scale * d_in, rtol=1e-12)


def test_augment_dropout_rate_monte_carlo():
    n_points = 10_000
    lane = MapElement("big", np.zeros((n_points, 2)))
    steps = np.arange(HISTORY_STEPS, dtype=np.int64)
    scene = Scene(
        agents=[AgentTrack("tgt", steps, np.zeros((HISTORY_STEPS, 2)))],
        map_elements=[lane],
        target_id="tgt",
    )
    norm = normalize(scene)
    cfg = AugConfig(scale_range=(1.0, 1.0), keep_prob=0.9, noise_sigma=0.0)
    kept = [len(augment(norm, seed=s, config=cfg).map_elements[0].xy) for s in range(100)]
    assert abs(np.mean(kept) / n_points - 0.9) < 0.01


def test_augment_never_drops_target_or_last_observation():
    norm = normalize(gen_synthetic(1, seed=8)[0])
    cfg = AugConfig(scale_range=(1.0, 1.0), keep_prob=0.05, noise_sigma=0.0)
    out = augment(norm, seed=4, config=cfg)
    assert len(out.target_agent().xy) == len(norm.target_agent().xy)
    for a_in, a_out in zip(norm.agents, out.agents):
        assert a_out.steps[-1] == a_in.steps[-1]


def test_augment_deterministic():
    norm = normalize(gen_synthetic(1, seed=9)[0])
    assert augment(norm, seed=5) == augment(norm, seed=5)


@st.composite
def aug_configs(draw, keep_prob=None, noise_sigma=None):
    lo = draw(st.floats(0.5, 2.0))
    hi = lo * draw(st.floats(1.0, 1.5))
    if keep_prob is None:
        keep_prob = draw(st.floats(0.0, 1.0, exclude_min=True))
    if noise_sigma is None:
        noise_sigma = draw(st.floats(0.0, 1.0))
    return AugConfig(scale_range=(lo, hi), keep_prob=keep_prob, noise_sigma=noise_sigma)


seeds = st.integers(0, 2**32 - 1)


def _scale_of(before, after, config):
    """The one factor taking the coordinates ``before`` to ``after``, checked to lie in scale_range."""
    i = np.argmax(np.abs(before))
    assume(before[i] != 0)
    scale = after[i] / before[i]
    lo, hi = config.scale_range
    assert lo * (1 - 1e-12) <= scale <= hi * (1 + 1e-12)
    np.testing.assert_allclose(after, scale * before, rtol=1e-12, atol=0)
    return scale


@settings(max_examples=60)
@given(scene=scenes(), config=aug_configs(), seed=seeds)
def test_augment_keeps_target_and_anchors_and_scales_once(scene, config, seed):
    out = augment(scene, seed, config)
    assert [a.track_id for a in out.agents] == [a.track_id for a in scene.agents]
    for a, b in zip(scene.agents, out.agents):
        assert set(b.steps.tolist()) <= set(a.steps.tolist())
        assert b.steps[-1] == a.steps[-1]
    target_in, target_out = scene.target_agent(), out.target_agent()
    np.testing.assert_array_equal(target_out.steps, target_in.steps)
    future_in = np.empty(0) if scene.future is None else scene.future.ravel()
    future_out = np.empty(0) if out.future is None else out.future.ravel()
    _scale_of(np.concatenate([target_in.xy.ravel(), future_in]),
              np.concatenate([target_out.xy.ravel(), future_out]), config)


@settings(max_examples=60)
@given(scene=scenes(), config=aug_configs(), seed=seeds)
def test_augment_same_seed_same_scene(scene, config, seed):
    assert augment(scene, seed, config) == augment(scene, seed, config)


def _coordinates(scene):
    parts = [a.xy.ravel() for a in scene.agents] + [m.xy.ravel() for m in scene.map_elements]
    return np.concatenate(parts + [np.empty(0) if scene.future is None else scene.future.ravel()])


@settings(max_examples=60)
@given(scene=scenes(), config=aug_configs(keep_prob=1.0, noise_sigma=0.0), seed=seeds)
def test_augment_without_dropout_or_noise_only_scales(scene, config, seed):
    out = augment(scene, seed, config)
    assert [(a.track_id, a.steps.tolist()) for a in out.agents] == [
        (a.track_id, a.steps.tolist()) for a in scene.agents]
    assert [(m.element_id, len(m.xy)) for m in out.map_elements] == [
        (m.element_id, len(m.xy)) for m in scene.map_elements]
    _scale_of(_coordinates(scene), _coordinates(out), config)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_straight_endpoint():
    scene = gen_synthetic(1, seed=10, profile="straight", speed_range=(10.0, 10.0))[0]
    norm = normalize(scene)
    np.testing.assert_allclose(norm.future[-1], [30.0, 0.0], atol=1e-6)


def test_synthetic_scenes_valid():
    scenes = gen_synthetic(8, seed=11)
    assert len(scenes) == 8
    for sc in scenes:
        validate_raw(sc)
        assert sc.future is not None


def test_synthetic_deterministic():
    a = gen_synthetic(3, seed=12)
    b = gen_synthetic(3, seed=12)
    assert a == b


def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_synthetic(0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(1, seed=0, profile="zigzag")


def test_load_scene_dir(tmp_path):
    for i, sc in enumerate(gen_synthetic(3, seed=13)):
        save_scene(sc, tmp_path / f"scene_{i}.json")
    (tmp_path / "manifest.json").write_text("{}")
    scenes = load_scene_dir(tmp_path)
    assert len(scenes) == 3


def test_load_scene_dir_reads_csv_and_json_scenes_by_file_name(tmp_path):
    first, second = gen_synthetic(2, seed=13)
    save_scene(first, tmp_path / "b.json")
    write_csv(tmp_path / "a.csv", csv_rows_full())
    save_scene(second, tmp_path / "c.json")
    (tmp_path / "manifest.json").write_text("{}")
    (tmp_path / "notes.txt").write_text("not a scene")
    scenes = load_scene_dir(tmp_path)
    assert [s.scene_id for s in scenes] == ["a", "b", "c"]
    assert scenes == [load_scene(tmp_path / n) for n in ("a.csv", "b.json", "c.json")]


def test_load_scene_dir_matches_suffixes_in_any_case(tmp_path):
    # load_scene reads B.JSON and C.Csv, so --data must not skip them
    first, second = gen_synthetic(2, seed=13)
    save_scene(first, tmp_path / "a.json")
    save_scene(second, tmp_path / "B.JSON")
    write_csv(tmp_path / "C.Csv", csv_rows_full())
    (tmp_path / "Manifest.JSON").write_text("{}")
    scenes = load_scene_dir(tmp_path)
    assert [s.scene_id for s in scenes] == ["B", "C", "a"]
    assert scenes == [load_scene(tmp_path / n) for n in ("B.JSON", "C.Csv", "a.json")]
