"""Displacement-error metrics: ADE, FDE, and top-K minima with miss rate.

``scene_errors`` scores each scene once at k=1 and k=min(6, K);
``evaluate_report`` averages those rows under the names that ``pointcast
eval`` prints and the training log records, and ``write_scene_csv`` writes
them.
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


def rank_trajectories(pred) -> np.ndarray:
    """Mode indices sorted by predicted displacement, ascending, stable."""
    return np.argsort(pred.displacements, kind="stable")


def _scene_topk_errors(pred, gt, k: int):
    """(min ADE, min FDE, miss) over the top-k trajectories by predicted displacement.

    A non-finite trajectory makes both minima NaN whatever its rank, and the
    scene counts as a miss unless its best endpoint error is a finite hit.
    """
    if k > len(pred.displacements):
        raise ValueError(f"evaluate: k={k} exceeds {len(pred.displacements)} trajectories")
    top = np.asarray(pred.trajectories)[rank_trajectories(pred)[:k]]
    best_fde = float(np.min([fde(t, gt) for t in top]))
    return float(np.min([ade(t, gt) for t in top])), best_fde, not best_fde <= MISS_THRESHOLD


def _check_scenes(preds, gts) -> None:
    if len(preds) == 0:
        raise ValueError("evaluate: empty scene set")
    if len(preds) != len(gts):
        raise ValueError("evaluate: preds/gts length mismatch")


def _mean_errors(errors) -> dict:
    """Scene-averaged ``min_ade``, ``min_fde`` and ``miss_rate`` of (ADE, FDE, miss) triples."""
    ades, fdes, misses = zip(*errors)
    return {"min_ade": float(np.mean(ades)), "min_fde": float(np.mean(fdes)),
            "miss_rate": float(np.mean(misses))}


def evaluate(preds, gts, k: int) -> dict:
    """Per-scene min-over-top-K ADE/FDE and miss rate, averaged over scenes.

    A scene is a miss iff the best (smallest) top-K endpoint error strictly
    exceeds ``MISS_THRESHOLD``; an error of exactly the threshold is a hit.
    """
    _check_scenes(preds, gts)
    return _mean_errors([_scene_topk_errors(pred, gt, k) for pred, gt in zip(preds, gts)])


def _report_ks(preds) -> tuple[int, int]:
    """The report's two cut-offs: k=1 and k=min(6, K), K the fewest modes of any scene."""
    return 1, min([6] + [len(p.displacements) for p in preds])


def scene_errors(preds, gts) -> list:
    """Per scene, its (min ADE, min FDE, miss) at each of the report's two cut-offs.

    Each scene is scored once here; ``evaluate_report`` averages these rows
    and ``write_scene_csv`` writes them.
    """
    _check_scenes(preds, gts)
    ks = _report_ks(preds)
    return [[_scene_topk_errors(pred, gt, k) for k in ks] for pred, gt in zip(preds, gts)]


def evaluate_report(errors) -> EvalReport:
    """The k=1 and k=min(6, K) metrics of ``evaluate``, averaged from ``scene_errors`` rows."""
    r1, r6 = (_mean_errors([row[j] for row in errors]) for j in range(2))
    return EvalReport(r1["min_ade"], r1["min_fde"], r1["miss_rate"],
                      r6["min_ade"], r6["min_fde"], r6["miss_rate"], len(errors))


def write_scene_csv(path, scene_ids, errors):
    """The ``scene_errors`` rows, one per scene, for debugging."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene_id", "ade_1", "fde_1", "miss_1", "ade_6", "fde_6", "miss_6"])
        for sid, row in zip(scene_ids, errors):
            cells = [sid]
            for a, f, miss in row:
                cells.extend([f"{a:.6f}", f"{f:.6f}", int(miss)])
            writer.writerow(cells)
