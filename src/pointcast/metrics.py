"""Displacement-error metrics: ADE, FDE, and top-K minima with miss rate.

``evaluate_report`` scores a model's predictions at k=1 and k=min(6, K) under
the names that ``pointcast eval`` prints and the training log records.
"""

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
        return json.dumps(asdict(self), indent=1, allow_nan=False)


def _scene_topk_errors(pred, gt, k: int):
    """(min ADE, min FDE, miss) over the top-k trajectories by predicted displacement.

    A non-finite trajectory makes both minima NaN whatever its rank, and the
    scene counts as a miss unless its best endpoint error is a finite hit.
    """
    if k > len(pred.displacements):
        raise ValueError(f"evaluate: k={k} exceeds {len(pred.displacements)} trajectories")
    top = np.asarray(pred.trajectories)[np.argsort(pred.displacements, kind="stable")[:k]]
    best_fde = float(np.min([fde(t, gt) for t in top]))
    return float(np.min([ade(t, gt) for t in top])), best_fde, not best_fde <= MISS_THRESHOLD


def evaluate(preds, gts, k: int) -> dict:
    """Per-scene min-over-top-K ADE/FDE and miss rate, averaged over scenes.

    A scene is a miss iff the best (smallest) top-K endpoint error strictly
    exceeds ``MISS_THRESHOLD``; an error of exactly the threshold is a hit.
    """
    if len(preds) == 0:
        raise ValueError("evaluate: empty scene set")
    if len(preds) != len(gts):
        raise ValueError("evaluate: preds/gts length mismatch")
    ades, fdes, misses = zip(*(_scene_topk_errors(pred, gt, k) for pred, gt in zip(preds, gts)))
    return {"min_ade": float(np.mean(ades)), "min_fde": float(np.mean(fdes)),
            "miss_rate": float(np.mean(misses))}


def _report_ks(preds) -> tuple[int, int]:
    """The report's two cut-offs: k=1 and k=min(6, K), K the fewest modes of any scene."""
    return 1, min([6] + [len(p.displacements) for p in preds])


def evaluate_report(preds, gts) -> EvalReport:
    """The k=1 and k=min(6, K) metrics of ``evaluate`` as one report."""
    r1, r6 = (evaluate(preds, gts, k) for k in _report_ks(preds))
    return EvalReport(r1["min_ade"], r1["min_fde"], r1["miss_rate"],
                      r6["min_ade"], r6["min_fde"], r6["miss_rate"], len(preds))


def write_scene_csv(path, scene_ids, preds, gts):
    """Per-scene metric rows at the report's cut-offs, for debugging."""
    ks = _report_ks(preds)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene_id", "ade_1", "fde_1", "miss_1", "ade_6", "fde_6", "miss_6"])
        for sid, pred, gt in zip(scene_ids, preds, gts):
            row = [sid]
            for k in ks:
                a, f, miss = _scene_topk_errors(pred, gt, k)
                row.extend([f"{a:.6f}", f"{f:.6f}", int(miss)])
            writer.writerow(row)
