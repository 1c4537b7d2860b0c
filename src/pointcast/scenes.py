"""Scene containers, file I/O, normalization, and augmentation.

A scene is one forecasting sample: a handful of agent tracks (timed 2D
waypoints), static map polylines, one designated target agent, and an
optional ground-truth future for that target.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HISTORY_STEPS = 20  # 2 s of history at 10 Hz
FUTURE_STEPS = 30   # 3 s of future at 10 Hz
SCENE_RANGE = 48.0  # half-width of the retained square region, meters


class SceneFormatError(ValueError):
    """A scene file could not be parsed."""


class SceneValidationError(ValueError):
    """A parsed scene violates a structural invariant."""


@dataclass
class AgentTrack:
    track_id: str
    steps: np.ndarray  # (n,) int64, strictly increasing, in [0, history_steps)
    xy: np.ndarray     # (n, 2) float64, meters

    def __eq__(self, other):
        return (
            isinstance(other, AgentTrack)
            and self.track_id == other.track_id
            and np.array_equal(self.steps, other.steps)
            and np.array_equal(self.xy, other.xy)
        )


@dataclass
class MapElement:
    element_id: str
    xy: np.ndarray  # (n, 2) float64, ordered polyline points

    def __eq__(self, other):
        return (
            isinstance(other, MapElement)
            and self.element_id == other.element_id
            and np.array_equal(self.xy, other.xy)
        )


@dataclass
class Frame:
    """Rigid transform applied by :func:`normalize`: p' = R(-rotation) @ (p - origin)."""

    origin: np.ndarray  # (2,) float64
    rotation: float     # radians

    def apply(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, s], [-s, c]])
        return (pts - self.origin) @ rot.T

    def invert(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        rot = np.array([[c, -s], [s, c]])
        return pts @ rot.T + self.origin


def _scene_eq(a, b):
    return (
        a.agents == b.agents
        and a.map_elements == b.map_elements
        and a.target_id == b.target_id
        and ((a.future is None) == (b.future is None))
        and (a.future is None or np.array_equal(a.future, b.future))
        and a.city == b.city
        and a.history_steps == b.history_steps
        and a.future_steps == b.future_steps
    )


@dataclass(eq=False)
class RawScene:
    agents: list[AgentTrack]
    map_elements: list[MapElement]
    target_id: str
    future: np.ndarray | None = None  # (future_steps, 2) for the target agent
    city: str = ""
    scene_id: str = ""
    history_steps: int = HISTORY_STEPS
    future_steps: int = FUTURE_STEPS

    def __eq__(self, other):
        return isinstance(other, RawScene) and _scene_eq(self, other)

    def target_agent(self) -> AgentTrack:
        for a in self.agents:
            if a.track_id == self.target_id:
                return a
        raise SceneValidationError(f"target agent {self.target_id!r} not in scene")


@dataclass(eq=False)
class NormalizedScene:
    """Same shape as :class:`RawScene` plus the frame that was applied."""

    agents: list[AgentTrack]
    map_elements: list[MapElement]
    target_id: str
    future: np.ndarray | None
    city: str
    frame: Frame
    scene_id: str = ""
    history_steps: int = HISTORY_STEPS
    future_steps: int = FUTURE_STEPS

    def __eq__(self, other):
        return isinstance(other, NormalizedScene) and _scene_eq(self, other)

    def target_agent(self) -> AgentTrack:
        for a in self.agents:
            if a.track_id == self.target_id:
                return a
        raise SceneValidationError(f"target agent {self.target_id!r} not in scene")


def validate_raw(scene: RawScene) -> None:
    """Check RawScene invariants, raising SceneValidationError on the first failure."""
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


def validate_normalized(scene: NormalizedScene, tol: float = 1e-9) -> None:
    """Check NormalizedScene invariants (origin anchor, heading, range)."""
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


def normalize(scene: RawScene) -> NormalizedScene:
    """Center the scene on the target's last observation and align its heading with +x.

    The rigid transform (translation then rotation) is applied identically to
    every agent point, map point, and the ground-truth future. Input points
    falling outside the [-SCENE_RANGE, SCENE_RANGE]^2 square are dropped
    (the future is transformed but never cropped; the loss needs all of it).
    A single-observation or stationary target gets the identity rotation.
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
    return NormalizedScene(
        agents=agents,
        map_elements=map_elements,
        target_id=scene.target_id,
        future=future,
        city=scene.city,
        frame=frame,
        scene_id=scene.scene_id,
        history_steps=scene.history_steps,
        future_steps=scene.future_steps,
    )


def renormalize(scene: NormalizedScene) -> NormalizedScene:
    """Normalize an already-normalized scene (idempotent up to float error)."""
    raw = RawScene(
        agents=scene.agents,
        map_elements=scene.map_elements,
        target_id=scene.target_id,
        future=scene.future,
        city=scene.city,
        scene_id=scene.scene_id,
        history_steps=scene.history_steps,
        future_steps=scene.future_steps,
    )
    return normalize(raw)


# ---------------------------------------------------------------------------
# augmentation


@dataclass(frozen=True)
class AugConfig:
    scale_range: tuple[float, float] = (0.8, 1.25)
    keep_prob: float = 0.9
    noise_sigma: float = 0.2  # meters


def augment(scene: NormalizedScene, seed, config: AugConfig = AugConfig()) -> NormalizedScene:
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


def scene_to_dict(scene: RawScene) -> dict:
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
    }


def scene_from_dict(doc: dict, scene_id: str = "") -> RawScene:
    try:
        agents = [
            AgentTrack(
                track_id=str(a["id"]),
                steps=np.array([int(p[0]) for p in a["points"]], dtype=np.int64),
                xy=np.array([[float(p[1]), float(p[2])] for p in a["points"]],
                            dtype=np.float64).reshape(-1, 2),
            )
            for a in doc["agents"]
        ]
        map_elements = [
            MapElement(
                element_id=str(m["id"]),
                xy=np.array([[float(p[0]), float(p[1])] for p in m["points"]],
                            dtype=np.float64).reshape(-1, 2),
            )
            for m in doc["map"]
        ]
        future = doc.get("future")
        future_arr = (
            None
            if future is None
            else np.array([[float(p[0]), float(p[1])] for p in future],
                          dtype=np.float64).reshape(-1, 2)
        )
        scene = RawScene(
            agents=agents,
            map_elements=map_elements,
            target_id=str(doc["target_id"]),
            future=future_arr,
            city=str(doc.get("city", "")),
            scene_id=scene_id,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise SceneFormatError(f"malformed scene document: {exc}") from exc
    validate_raw(scene)
    return scene


def save_scene(scene: RawScene, path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=1, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# CSV scene format (trajectory rows only; the map travels in JSON scenes)

CSV_COLUMNS = ["TIMESTAMP", "TRACK_ID", "OBJECT_TYPE", "X", "Y", "CITY_NAME"]


def _load_csv(path) -> RawScene:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != CSV_COLUMNS:
            raise SceneFormatError(f"{path}: row 1: expected header {','.join(CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise SceneFormatError(f"{path}: row {lineno}: expected {len(CSV_COLUMNS)} fields")
            try:
                ts = float(row[0])
                x, y = float(row[3]), float(row[4])
            except ValueError as exc:
                raise SceneFormatError(f"{path}: row {lineno}: {exc}") from exc
            rows.append((ts, row[1], row[2], x, y, row[5], lineno))
    if not rows:
        raise SceneFormatError(f"{path}: no observation rows")

    # distinct timestamps, rank-ordered: ranks < H are history, the rest future
    stamps = sorted({r[0] for r in rows})
    rank = {ts: i for i, ts in enumerate(stamps)}
    h = HISTORY_STEPS

    target_ids = {r[1] for r in rows if r[2] == "AGENT"}
    if len(target_ids) != 1:
        raise SceneValidationError(
            f"{path}: expected exactly one AGENT track, found {len(target_ids)}"
        )
    target_id = target_ids.pop()

    by_track: dict[str, list] = {}
    for r in rows:
        by_track.setdefault(r[1], []).append(r)

    agents = []
    future = None
    for track_id, track_rows in by_track.items():
        ts_list = [r[0] for r in track_rows]
        if any(b <= a for a, b in zip(ts_list, ts_list[1:])):
            raise SceneValidationError(
                f"{path}: track {track_id!r}: timestamps not strictly increasing"
            )
        hist = [(rank[r[0]], r[3], r[4]) for r in track_rows if rank[r[0]] < h]
        if track_id == target_id:
            fut = [(rank[r[0]], r[3], r[4]) for r in track_rows if rank[r[0]] >= h]
            if fut:
                if len(fut) != FUTURE_STEPS:
                    raise SceneValidationError(
                        f"{path}: target future has {len(fut)} rows, expected {FUTURE_STEPS}"
                    )
                future = np.array([[x, y] for _, x, y in fut], dtype=np.float64)
        if not hist:
            continue  # non-target track observed only in the future window
        agents.append(
            AgentTrack(
                track_id=track_id,
                steps=np.array([t for t, _, _ in hist], dtype=np.int64),
                xy=np.array([[x, y] for _, x, y in hist], dtype=np.float64),
            )
        )

    scene = RawScene(
        agents=agents,
        map_elements=[],
        target_id=target_id,
        future=future,
        city=rows[0][5],
        scene_id=Path(path).stem,
    )
    validate_raw(scene)
    return scene


def load_scene(path, fmt: str | None = None) -> RawScene:
    """Load a scene file. ``fmt`` is 'json' or 'csv'; inferred from the suffix if None."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "json":
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SceneFormatError(f"{path}: row {exc.lineno}: {exc.msg}") from exc
        return scene_from_dict(doc, scene_id=path.stem)
    raise SceneFormatError(f"unknown scene format {fmt!r}")


def load_scene_dir(path) -> list[RawScene]:
    """Load every *.json scene in a directory, sorted by filename."""
    files = sorted(Path(path).glob("*.json"))
    files = [f for f in files if f.name != "manifest.json"]
    return [load_scene(f) for f in files]
