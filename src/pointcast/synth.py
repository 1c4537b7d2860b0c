"""Synthetic forecasting scenes for desk-scale training.

The target agent follows constant-velocity, constant-turn-rate, or
lateral-offset (lane-change) kinematics; a few other agents drive nearby and
lane polylines shadow the target's path. Each scene is built in the
target's frame and placed in a random world frame with ``Frame.invert``, so
that normalization is actually exercised. All kinematics are exact;
observation noise is the augmentation stage's job.
"""

from __future__ import annotations

import numpy as np

from .scenes import FUTURE_STEPS, HISTORY_STEPS, AgentTrack, Frame, MapElement, Scene

DT = 0.1  # seconds per step (10 Hz)

PROFILES = ("straight", "turn", "lane-change", "mixed")


def _path_fn(profile, speed, rng):
    """Return pos(s): local-frame position at time s (seconds, 0 = now)."""
    if profile == "straight":
        def pos(s):
            s = np.asarray(s, dtype=np.float64)
            return np.stack([speed * s, np.zeros_like(s)], axis=-1)
        return pos
    if profile == "turn":
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4)  # rad/s
        def pos(s):
            s = np.asarray(s, dtype=np.float64)
            return np.stack(
                [speed / omega * np.sin(omega * s),
                 speed / omega * (1.0 - np.cos(omega * s))],
                axis=-1,
            )
        return pos
    if profile == "lane-change":
        lateral = rng.choice([-3.5, 3.5])
        s_mid, width = 0.8, 0.5  # shift happens mostly in the future window
        def pos(s):
            s = np.asarray(s, dtype=np.float64)
            return np.stack(
                [speed * s, lateral * 0.5 * (1.0 + np.tanh((s - s_mid) / width))],
                axis=-1,
            )
        return pos
    raise ValueError(f"unknown profile {profile!r}")


def _lane_polyline(pos, lateral_offset, rng):
    """Sample a lane centerline shadowing the path at a lateral offset."""
    s = np.arange(-3.0, 4.0 + 1e-9, rng.uniform(0.15, 0.25))
    center = pos(s)
    tangent = pos(s + 1e-4) - pos(s - 1e-4)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    return center + lateral_offset * normal


def gen_synthetic(
    n_scenes: int,
    seed,
    profile: str = "mixed",
    *,
    speed_range=(4.0, 14.0),
    history_steps: int = HISTORY_STEPS,
    future_steps: int = FUTURE_STEPS,
) -> list[Scene]:
    """Generate ``n_scenes`` scenes, deterministic per seed."""
    if n_scenes < 1:
        raise ValueError("n_scenes must be >= 1")
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}")
    scenes = []
    for i in range(n_scenes):
        rng = np.random.default_rng([seed, i])
        p = profile if profile != "mixed" else str(rng.choice(PROFILES[:3]))
        scenes.append(_gen_one(rng, p, speed_range, history_steps, future_steps, i))
    return scenes


def _gen_one(rng, profile, speed_range, h, t, index):
    speed = rng.uniform(*speed_range)
    pos = _path_fn(profile, speed, rng)

    angle = rng.uniform(0.0, 2.0 * np.pi)
    offset = rng.uniform(-100.0, 100.0, size=2)
    place = Frame(origin=offset, rotation=angle).invert  # target frame -> world frame

    hist_s = (np.arange(h) - (h - 1)) * DT  # [-1.9 .. 0]
    fut_s = (np.arange(1, t + 1)) * DT      # (0 .. 3.0]

    target = AgentTrack(
        track_id="agent-0",
        steps=np.arange(h, dtype=np.int64),
        xy=place(pos(hist_s)),
    )
    future = place(pos(fut_s))

    agents = [target]
    for j in range(int(rng.integers(1, 5))):
        length = int(rng.integers(1, h + 1))
        end = int(rng.integers(length - 1, h))
        steps = np.arange(end - length + 1, end + 1, dtype=np.int64)
        start_pos = pos(0.0) + rng.uniform(-20.0, 20.0, size=2)
        heading = rng.uniform(-0.3, 0.3)
        v = rng.uniform(0.5, 1.2) * speed
        vel = v * np.array([np.cos(heading), np.sin(heading)])
        rel_s = (steps - (h - 1)) * DT
        xy = start_pos[None, :] + vel[None, :] * rel_s[:, None]
        agents.append(
            AgentTrack(track_id=f"agent-{j + 1}", steps=steps, xy=place(xy))
        )

    n_lanes = int(rng.integers(2, 7))
    lane_pool = np.array([-10.5, -7.0, -3.5, 0.0, 3.5, 7.0])
    offsets = rng.choice(lane_pool, size=n_lanes, replace=False)
    map_elements = [
        MapElement(f"lane-{k}", place(_lane_polyline(pos, off, rng)))
        for k, off in enumerate(offsets)
    ]

    return Scene(
        agents=agents,
        map_elements=map_elements,
        target_id="agent-0",
        future=future,
        city="SYN",
        scene_id=f"syn-{index:05d}",
        history_steps=h,
        future_steps=t,
    )
