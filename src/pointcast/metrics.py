"""Displacement-error metrics: ADE, FDE, and top-K minima with miss rate."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

MISS_THRESHOLD = 2.0  # meters, endpoint error


def ade(traj, gt) -> float:
    """Mean Euclidean displacement over all time steps."""
    traj = np.asarray(traj, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if traj.shape != gt.shape:
        raise ValueError(f"ade: shape mismatch {traj.shape} vs {gt.shape}")
    return float(np.linalg.norm(traj - gt, axis=1).mean())


def fde(traj, gt) -> float:
    """Euclidean displacement at the endpoint."""
    traj = np.asarray(traj, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if traj.shape != gt.shape:
        raise ValueError(f"fde: shape mismatch {traj.shape} vs {gt.shape}")
    return float(np.linalg.norm(traj[-1] - gt[-1]))


@dataclass
class EvalReport:
    minADE_1: float
    minFDE_1: float
    MR_1: float
    minADE_6: float
    minFDE_6: float
    MR_6: float
    n_scenes: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def _scene_topk_errors(pred, gt, k: int, miss_threshold: float):
    """(min ADE, min FDE, miss) over the top-k trajectories by predicted displacement."""
    top = np.asarray(pred.trajectories)[np.argsort(pred.displacements, kind="stable")[:k]]
    best_fde = min(fde(t, gt) for t in top)
    return min(ade(t, gt) for t in top), best_fde, best_fde > miss_threshold


def evaluate(preds, gts, k: int, miss_threshold: float = MISS_THRESHOLD) -> dict:
    """Per-scene min-over-top-K ADE/FDE and miss rate, averaged over scenes.

    A scene is a miss iff the best (smallest) top-K endpoint error strictly
    exceeds the threshold; an error of exactly ``miss_threshold`` is a hit.
    """
    if len(preds) == 0:
        raise ValueError("evaluate: empty scene set")
    if len(preds) != len(gts):
        raise ValueError("evaluate: preds/gts length mismatch")
    ades, fdes, misses = [], [], []
    for pred, gt in zip(preds, gts):
        if k > len(pred.displacements):
            raise ValueError(f"evaluate: k={k} exceeds {len(pred.displacements)} trajectories")
        a, f, miss = _scene_topk_errors(pred, gt, k, miss_threshold)
        ades.append(a)
        fdes.append(f)
        misses.append(float(miss))
    return {
        "min_ade": float(np.mean(ades)),
        "min_fde": float(np.mean(fdes)),
        "miss_rate": float(np.mean(misses)),
    }


def evaluate_report(preds, gts, miss_threshold: float = MISS_THRESHOLD) -> EvalReport:
    r1 = evaluate(preds, gts, k=1, miss_threshold=miss_threshold)
    k6 = min(6, min(len(p.displacements) for p in preds))
    r6 = evaluate(preds, gts, k=k6, miss_threshold=miss_threshold)
    return EvalReport(
        minADE_1=r1["min_ade"],
        minFDE_1=r1["min_fde"],
        MR_1=r1["miss_rate"],
        minADE_6=r6["min_ade"],
        minFDE_6=r6["min_fde"],
        MR_6=r6["miss_rate"],
        n_scenes=len(preds),
    )


def write_scene_csv(path, scene_ids, preds, gts, miss_threshold: float = MISS_THRESHOLD):
    """Per-scene metric rows for debugging."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene_id", "ade_1", "fde_1", "miss_1", "ade_6", "fde_6", "miss_6"])
        for sid, pred, gt in zip(scene_ids, preds, gts):
            row = [sid]
            for k in (1, min(6, len(pred.displacements))):
                a, f, miss = _scene_topk_errors(pred, gt, k, miss_threshold)
                row.extend([f"{a:.6f}", f"{f:.6f}", int(miss)])
            writer.writerow(row)
