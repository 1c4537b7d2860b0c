"""Scene containers, file I/O, normalization, and augmentation.

A scene is one forecasting sample: a handful of agent tracks (timed 2D
waypoints), static map polylines, one designated target agent, and an
optional ground-truth future for that target. One :class:`Scene` type holds
it before and after :func:`normalize`, which recenters and rotates it into
the target's frame and records that transform in ``Scene.frame``; a scene
read from a file or generated has ``frame`` None.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

HISTORY_STEPS = 20  # 2 s of history at 10 Hz
FUTURE_STEPS = 30   # 3 s of future at 10 Hz
SCENE_RANGE = 48.0  # half-width of the retained square region, meters


class SceneFormatError(ValueError):
    """A scene file could not be parsed."""


class SceneValidationError(ValueError):
    """A parsed scene violates a structural invariant."""


def _fields_equal(self, other) -> bool:
    """Field-wise equality of two dataclasses of one type, arrays by value.

    Fields declared with ``compare=False`` are skipped.
    """
    if type(other) is not type(self):
        return False
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        arrays = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
        if f.compare and not (np.array_equal(a, b) if arrays else a == b):
            return False
    return True


@dataclass
class AgentTrack:
    track_id: str
    steps: np.ndarray  # (n,) int64, strictly increasing, in [0, history_steps)
    xy: np.ndarray     # (n, 2) float64, meters

    __eq__ = _fields_equal


@dataclass
class MapElement:
    element_id: str
    xy: np.ndarray  # (n, 2) float64, ordered polyline points

    __eq__ = _fields_equal


@dataclass
class Frame:
    """Rigid transform applied by :func:`normalize`: p' = R(-rotation) @ (p - origin)."""

    origin: np.ndarray  # (2,) float64
    rotation: float     # radians

    __eq__ = _fields_equal

    def _rotation(self, sign: int) -> np.ndarray:
        """R(sign * rotation), for column vectors."""
        c, s = math.cos(self.rotation), sign * math.sin(self.rotation)
        return np.array([[c, -s], [s, c]])

    def apply(self, pts):
        return (np.asarray(pts, dtype=np.float64) - self.origin) @ self._rotation(-1).T

    def invert(self, pts):
        return np.asarray(pts, dtype=np.float64) @ self._rotation(1).T + self.origin


@dataclass
class Scene:
    """One forecasting sample; ``frame`` is None until :func:`normalize` sets it.

    Equality compares every field but ``scene_id``, arrays by value, so a
    scene never equals its normalized copy.
    """

    agents: list[AgentTrack]
    map_elements: list[MapElement]
    target_id: str
    future: np.ndarray | None = None  # (future_steps, 2) for the target agent
    city: str = ""
    scene_id: str = field(default="", compare=False)
    history_steps: int = HISTORY_STEPS
    future_steps: int = FUTURE_STEPS
    frame: Frame | None = None

    __eq__ = _fields_equal

    def target_agent(self) -> AgentTrack:
        for a in self.agents:
            if a.track_id == self.target_id:
                return a
        raise SceneValidationError(f"target agent {self.target_id!r} not in scene")


def validate_raw(scene: Scene) -> None:
    """Check a scene's structural invariants, raising SceneValidationError on the first failure."""
    h = scene.history_steps
    n_target = 0
    for a in scene.agents:
        if len(a.steps) == 0:
            raise SceneValidationError(f"agent {a.track_id!r} has no observations")
        if a.xy.shape != (len(a.steps), 2):
            raise SceneValidationError(f"agent {a.track_id!r} steps/xy length mismatch")
        if not np.all(np.isfinite(a.xy)):
            raise SceneValidationError(f"agent {a.track_id!r} has non-finite coordinates")
        if np.any(np.diff(a.steps) <= 0):
            raise SceneValidationError(
                f"agent {a.track_id!r} timestamps not strictly increasing"
            )
        if a.steps[0] < 0 or a.steps[-1] >= h:
            raise SceneValidationError(
                f"agent {a.track_id!r} timestamps outside [0, {h})"
            )
        if a.track_id == scene.target_id:
            n_target += 1
            if a.steps[-1] != h - 1:
                raise SceneValidationError(
                    f"target agent has no observation at the last history step {h - 1}"
                )
    if n_target != 1:
        raise SceneValidationError(
            f"expected exactly one target agent {scene.target_id!r}, found {n_target}"
        )
    for m in scene.map_elements:
        if len(m.xy) == 0:
            raise SceneValidationError(f"map element {m.element_id!r} is empty")
        if not np.all(np.isfinite(m.xy)):
            raise SceneValidationError(f"map element {m.element_id!r} has non-finite coordinates")
    if scene.future is not None:
        if scene.future.shape != (scene.future_steps, 2):
            raise SceneValidationError(
                f"future has shape {scene.future.shape}, expected ({scene.future_steps}, 2)"
            )
        if not np.all(np.isfinite(scene.future)):
            raise SceneValidationError("future has non-finite coordinates")


def validate_normalized(scene: Scene, tol: float = 1e-9) -> None:
    """Check a normalized scene's invariants (origin anchor, heading, range)."""
    target = scene.target_agent()
    last = target.xy[-1]
    if abs(last[0]) > tol or abs(last[1]) > tol:
        raise SceneValidationError(f"target last observation {last} is not the origin")
    if len(target.xy) >= 2:
        heading = target.xy[-1] - target.xy[-2]
        if abs(heading[1]) > tol or heading[0] < -tol:
            raise SceneValidationError(f"heading {heading} not aligned with +x")
    for a in scene.agents:
        if np.any(np.abs(a.xy) > SCENE_RANGE + tol):
            raise SceneValidationError(f"agent {a.track_id!r} has out-of-range points")
    for m in scene.map_elements:
        if np.any(np.abs(m.xy) > SCENE_RANGE + tol):
            raise SceneValidationError(f"map element {m.element_id!r} out of range")


# ---------------------------------------------------------------------------
# normalization


def normalize(scene: Scene) -> Scene:
    """Center the scene on the target's last observation and align its heading with +x.

    The rigid transform (translation then rotation) is applied identically to
    every agent point, map point, and the ground-truth future. Input points
    falling outside the [-SCENE_RANGE, SCENE_RANGE]^2 square are dropped
    (the future is transformed but never cropped; the loss needs all of it).
    A single-observation or stationary target gets the identity rotation.
    Normalizing a normalized scene gives it back up to float error.
    """
    validate_raw(scene)
    target = scene.target_agent()
    origin = target.xy[-1].copy()
    if len(target.xy) >= 2:
        heading = target.xy[-1] - target.xy[-2]
        rotation = math.atan2(heading[1], heading[0]) if np.any(heading != 0) else 0.0
    else:
        rotation = 0.0
    frame = Frame(origin=origin, rotation=rotation)

    agents = []
    for a in scene.agents:
        xy = frame.apply(a.xy)
        keep = np.all(np.abs(xy) <= SCENE_RANGE, axis=1)
        if not np.any(keep):
            continue
        agents.append(AgentTrack(a.track_id, a.steps[keep].copy(), xy[keep]))
    map_elements = []
    for m in scene.map_elements:
        xy = frame.apply(m.xy)
        keep = np.all(np.abs(xy) <= SCENE_RANGE, axis=1)
        if not np.any(keep):
            continue
        map_elements.append(MapElement(m.element_id, xy[keep]))

    future = frame.apply(scene.future) if scene.future is not None else None
    return replace(scene, agents=agents, map_elements=map_elements, future=future, frame=frame)


# ---------------------------------------------------------------------------
# augmentation


@dataclass(frozen=True)
class AugConfig:
    scale_range: tuple[float, float] = (0.8, 1.25)
    keep_prob: float = 0.9
    noise_sigma: float = 0.2  # meters

    def __post_init__(self):
        if len(self.scale_range) != 2 or not 0 < self.scale_range[0] <= self.scale_range[1]:
            raise ValueError(f"scale_range must be [lo, hi] with 0 < lo <= hi, "
                             f"got {list(self.scale_range)}")
        if not 0 < self.keep_prob <= 1:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def augment(scene: Scene, seed, config: AugConfig = AugConfig()) -> Scene:
    """Global random scaling, point dropout, and location perturbation.

    One scale factor drawn uniformly from ``scale_range`` multiplies every
    coordinate including the future. Each non-target point is kept with
    probability ``keep_prob`` (target-agent points and the last observation
    of every agent are never dropped), then zero-mean Gaussian noise with
    sigma ``noise_sigma`` is added per retained non-target coordinate.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = config.scale_range
    scale = rng.uniform(lo, hi)

    # an overflowed coordinate is inf, which the plan's extent check refuses
    with np.errstate(over="ignore"):
        agents = []
        for a in scene.agents:
            xy = a.xy * scale
            steps = a.steps
            if a.track_id != scene.target_id:
                keep = rng.random(len(xy)) < config.keep_prob
                keep[-1] = True  # the instance-time anchor survives dropout
                xy, steps = xy[keep], steps[keep]
                if config.noise_sigma > 0:
                    xy = xy + rng.normal(0.0, config.noise_sigma, xy.shape)
            agents.append(AgentTrack(a.track_id, steps.copy(), xy))

        map_elements = []
        for m in scene.map_elements:
            xy = m.xy * scale
            keep = rng.random(len(xy)) < config.keep_prob
            if not np.any(keep):
                continue
            xy = xy[keep]
            if config.noise_sigma > 0:
                xy = xy + rng.normal(0.0, config.noise_sigma, xy.shape)
            map_elements.append(MapElement(m.element_id, xy))

        future = scene.future * scale if scene.future is not None else None
    return replace(scene, agents=agents, map_elements=map_elements, future=future)


# ---------------------------------------------------------------------------
# JSON scene format


def scene_to_dict(scene: Scene) -> dict:
    return {
        "agents": [
            {
                "id": a.track_id,
                "points": [
                    [int(t), float(x), float(y)]
                    for t, (x, y) in zip(a.steps.tolist(), a.xy.tolist())
                ],
            }
            for a in scene.agents
        ],
        "map": [
            {"id": m.element_id, "points": [[float(x), float(y)] for x, y in m.xy.tolist()]}
            for m in scene.map_elements
        ],
        "target_id": scene.target_id,
        "future": None
        if scene.future is None
        else [[float(x), float(y)] for x, y in scene.future.tolist()],
        "city": scene.city,
        "history_steps": scene.history_steps,
        "future_steps": scene.future_steps,
    }


def _json_xy(points, owner: str, first: int = 0) -> np.ndarray:
    """The (n, 2) coordinates at ``first`` and ``first + 1`` of each JSON point.

    Each coordinate must be a JSON number: an int or a float, not a bool or
    a string.
    """
    xy = [[p[first], p[first + 1]] for p in points]
    for i, pair in enumerate(xy):
        for v in pair:
            if type(v) not in (int, float):
                raise SceneFormatError(
                    f"{owner} point {i}: coordinate must be a number, got {json.dumps(v)}")
    return np.array(xy, dtype=np.float64).reshape(-1, 2)


def _json_steps(points, owner: str) -> np.ndarray:
    """The first entry of each JSON point, which must be a JSON integer, not a bool."""
    for i, p in enumerate(points):
        if type(p[0]) is not int:
            raise SceneFormatError(
                f"{owner} point {i}: step must be an integer, got {json.dumps(p[0])}")
    return np.array([p[0] for p in points], dtype=np.int64)


def _json_str(value, name: str) -> str:
    """An agent, map element or target id, or the city, which must be a JSON string."""
    if type(value) is not str:
        raise SceneFormatError(f"{name} must be a string, got {json.dumps(value)}")
    return value


def scene_from_dict(doc: dict, scene_id: str = "") -> Scene:
    try:
        agents = []
        for i, a in enumerate(doc["agents"]):
            track_id = _json_str(a["id"], f"agent {i} id")
            owner = f"agent {track_id!r}"
            agents.append(AgentTrack(track_id, _json_steps(a["points"], owner),
                                     _json_xy(a["points"], owner, first=1)))
        map_elements = []
        for i, m in enumerate(doc["map"]):
            element_id = _json_str(m["id"], f"map element {i} id")
            xy = _json_xy(m["points"], f"map element {element_id!r}")
            map_elements.append(MapElement(element_id, xy))
        horizons = {k: doc.get(k, v) for k, v in (("history_steps", HISTORY_STEPS),
                                                   ("future_steps", FUTURE_STEPS))}
        for k, v in horizons.items():
            if type(v) is not int or v < 1:
                raise SceneFormatError(f"{k} must be a positive integer, got {json.dumps(v)}")
        future = doc.get("future")
        scene = Scene(
            agents=agents,
            map_elements=map_elements,
            target_id=_json_str(doc["target_id"], "target_id"),
            future=None if future is None else _json_xy(future, "future"),
            city=_json_str(doc.get("city", ""), "city"),
            scene_id=scene_id,
            **horizons,
        )
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise SceneFormatError(f"malformed scene document: {exc}") from exc
    validate_raw(scene)
    return scene


def save_scene(scene: Scene, path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=1, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# CSV scene format (trajectory rows only; the map travels in JSON scenes)

CSV_COLUMNS = ["TIMESTAMP", "TRACK_ID", "OBJECT_TYPE", "X", "Y", "CITY_NAME"]


def _csv_document(path) -> dict:
    """The JSON scene document of a CSV file's rows, for :func:`scene_from_dict`.

    Distinct timestamps are ranked in order: ranks below ``HISTORY_STEPS``
    are history, the rest the target's future. A non-target track observed
    only in the future window is dropped. Every row must name the first
    row's CITY_NAME, and every row of a track its first row's OBJECT_TYPE.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != CSV_COLUMNS:
            raise SceneFormatError(f"row 1: expected header {','.join(CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise SceneFormatError(f"row {lineno}: expected {len(CSV_COLUMNS)} fields")
            try:
                ts = float(row[0])
                x, y = float(row[3]), float(row[4])
            except ValueError as exc:
                raise SceneFormatError(f"row {lineno}: {exc}") from exc
            for name, v in (("TIMESTAMP", ts), ("X", x), ("Y", y)):
                if not math.isfinite(v):
                    raise SceneFormatError(f"row {lineno}: {name} is not finite ({v})")
            rows.append((ts, row[1], row[2], x, y, row[5], lineno))
    if not rows:
        raise SceneFormatError("no observation rows")
    for r in rows:
        if r[5] != rows[0][5]:
            raise SceneValidationError(f"row {r[6]}: CITY_NAME {r[5]!r} differs from "
                                       f"row {rows[0][6]}'s {rows[0][5]!r}")

    target_ids = {r[1] for r in rows if r[2] == "AGENT"}
    if len(target_ids) != 1:
        raise SceneValidationError(f"expected exactly one AGENT track, found {len(target_ids)}")
    target_id = target_ids.pop()

    rank = {ts: i for i, ts in enumerate(sorted({r[0] for r in rows}))}
    by_track: dict[str, list] = {}
    for r in rows:
        by_track.setdefault(r[1], []).append(r)
    agents, future = [], None
    for track_id, track_rows in by_track.items():
        if any(b[0] <= a[0] for a, b in zip(track_rows, track_rows[1:])):
            raise SceneValidationError(f"track {track_id!r}: timestamps not strictly increasing")
        for r in track_rows:
            if r[2] != track_rows[0][2]:
                raise SceneValidationError(
                    f"row {r[6]}: OBJECT_TYPE {r[2]!r} of track {track_id!r} differs from "
                    f"row {track_rows[0][6]}'s {track_rows[0][2]!r}")
        points = [[rank[r[0]], r[3], r[4]] for r in track_rows]
        history = [p for p in points if p[0] < HISTORY_STEPS]
        if track_id == target_id:
            future = [p[1:] for p in points if p[0] >= HISTORY_STEPS] or None
        if history:
            agents.append({"id": track_id, "points": history})
    return {"agents": agents, "map": [], "target_id": target_id, "future": future,
            "city": rows[0][5]}


def _json_document(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(f"row {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise SceneFormatError(str(exc)) from exc


def _scene_format(path: Path) -> str:
    """The format a file's suffix names, in any case: ``json`` and ``csv`` are scenes."""
    return path.suffix.lstrip(".").lower()


def _read_document(path: Path) -> dict:
    """The JSON scene document of a ``.json`` or ``.csv`` file, by its suffix."""
    fmt = _scene_format(path)
    try:
        if fmt == "json":
            return _json_document(path.read_text(encoding="utf-8"))
        if fmt == "csv":
            return _csv_document(path)
    except UnicodeDecodeError as exc:
        raise SceneFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    raise SceneFormatError(f"unknown scene format {fmt!r}")


def load_scene(path) -> Scene:
    """Load a ``.json`` or ``.csv`` scene file, its format taken from the suffix.

    Every SceneFormatError and SceneValidationError it raises starts with the path.
    """
    path = Path(path)
    try:
        return scene_from_dict(_read_document(path), scene_id=path.stem)
    except (SceneFormatError, SceneValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_scene_dir(path) -> list[Scene]:
    """Load every scene file of a directory that ``load_scene`` reads, in order of name.

    Suffixes match in any case, as ``load_scene`` matches them (``B.JSON`` is a
    scene), and ``manifest.json``, in any case, is not a scene.
    """
    files = sorted(f for f in Path(path).iterdir()
                   if _scene_format(f) in ("json", "csv") and f.name.lower() != "manifest.json")
    return [load_scene(f) for f in files]
