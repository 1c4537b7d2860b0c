import numpy as np
import pytest

from pointcast import PredictionSet, ade, evaluate, evaluate_report, fde
from pointcast.metrics import write_scene_csv


def rand_pred(rng, k=6, t=30):
    return PredictionSet(
        trajectories=rng.normal(size=(k, t, 2)),
        displacements=rng.normal(size=k),
    )


def brute_evaluate(preds, gts, k, thresh=2.0):
    """Independent recomputation over all (scene, mode) pairs."""
    ades, fdes, misses = [], [], []
    for pred, gt in zip(preds, gts):
        order = sorted(range(len(pred.displacements)), key=lambda i: (pred.displacements[i], i))
        best_a, best_f = np.inf, np.inf
        for i in order[:k]:
            traj = pred.trajectories[i]
            dists = [float(np.hypot(*(traj[s] - gt[s]))) for s in range(len(gt))]
            best_a = min(best_a, sum(dists) / len(dists))
            best_f = min(best_f, dists[-1])
        ades.append(best_a)
        fdes.append(best_f)
        misses.append(1.0 if best_f > thresh else 0.0)
    return np.mean(ades), np.mean(fdes), np.mean(misses)


# ---------------------------------------------------------------------------
# ade / fde


def test_ade_zero_on_match(rng):
    traj = rng.normal(size=(30, 2))
    assert ade(traj, traj) == 0.0


def test_ade_constant_offset_345():
    gt = np.zeros((10, 2))
    traj = gt + np.array([3.0, 4.0])
    assert ade(traj, gt) == pytest.approx(5.0)


def test_ade_matches_bruteforce(rng):
    traj = rng.normal(size=(30, 2))
    gt = rng.normal(size=(30, 2))
    ref = np.mean([np.sqrt(((traj[i] - gt[i]) ** 2).sum()) for i in range(30)])
    assert ade(traj, gt) == pytest.approx(ref, abs=0)


def test_fde_endpoint_only(rng):
    gt = np.zeros((5, 2))
    traj = rng.normal(size=(5, 2))
    traj[-1] = [2.0, 0.0]
    assert fde(traj, gt) == pytest.approx(2.0)
    traj[0] = [99.0, 99.0]  # non-final steps are irrelevant
    assert fde(traj, gt) == pytest.approx(2.0)


def test_fde_equals_ade_of_last_step(rng):
    traj = rng.normal(size=(30, 2))
    gt = rng.normal(size=(30, 2))
    assert fde(traj, gt) == pytest.approx(ade(traj[-1:], gt[-1:]), abs=0)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        ade(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        fde(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_miss_on_25m():
    pred = PredictionSet(np.zeros((1, 5, 2)), np.zeros(1))
    gt = np.zeros((5, 2))
    gt[-1] = [2.5, 0.0]
    r = evaluate([pred], [gt], k=1)
    assert r["miss_rate"] == 1.0


def test_evaluate_boundary_two_meters_is_hit():
    pred = PredictionSet(np.zeros((1, 5, 2)), np.zeros(1))
    gt = np.zeros((5, 2))
    gt[-1] = [2.0, 0.0]
    assert evaluate([pred], [gt], k=1)["miss_rate"] == 0.0


@pytest.mark.parametrize("disp", [[0.1, 0.2, 0.3], [0.2, 0.1, 0.3]])
def test_evaluate_nan_mode_is_nan_and_miss_at_any_rank(disp):
    # mode 0 is all NaN and ranks first, then second; finite modes are 1.414 and 2.83 off
    trajs = np.stack([np.full((5, 2), np.nan), np.ones((5, 2)), 2.0 * np.ones((5, 2))])
    r = evaluate([PredictionSet(trajs, np.array(disp))], [np.zeros((5, 2))], k=3)
    assert np.isnan(r["min_ade"]) and np.isnan(r["min_fde"])
    assert r["miss_rate"] == 1.0


def test_evaluate_ranked_fourth_exact_match(rng):
    gt = rng.normal(size=(30, 2))
    trajs = rng.normal(size=(6, 30, 2))
    disp = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    trajs[3] = gt  # ranked 4th by displacement
    pred = PredictionSet(trajs, disp)
    r = evaluate([pred], [gt], k=6)
    assert r["min_ade"] == 0.0 and r["min_fde"] == 0.0 and r["miss_rate"] == 0.0


def test_evaluate_matches_bruteforce_100_scenes(rng):
    preds = [rand_pred(rng) for _ in range(100)]
    gts = [rng.normal(size=(30, 2)) for _ in range(100)]
    for k in (1, 6):
        got = evaluate(preds, gts, k=k)
        ref = brute_evaluate(preds, gts, k)
        assert got["min_ade"] == pytest.approx(ref[0], abs=0)
        assert got["min_fde"] == pytest.approx(ref[1], abs=0)
        assert got["miss_rate"] == pytest.approx(ref[2], abs=0)


def test_evaluate_monotone_in_k(rng):
    preds = [rand_pred(rng) for _ in range(20)]
    gts = [rng.normal(size=(30, 2)) for _ in range(20)]
    prev = None
    for k in (1, 2, 3, 6):
        r = evaluate(preds, gts, k=k)
        if prev is not None:
            assert r["min_ade"] <= prev["min_ade"] + 1e-12
            assert r["min_fde"] <= prev["min_fde"] + 1e-12
            assert r["miss_rate"] <= prev["miss_rate"] + 1e-12
        prev = r


def test_evaluate_scene_order_invariant(rng):
    preds = [rand_pred(rng) for _ in range(10)]
    gts = [rng.normal(size=(30, 2)) for _ in range(10)]
    a = evaluate(preds, gts, k=6)
    b = evaluate(preds[::-1], gts[::-1], k=6)
    for key in a:
        assert a[key] == pytest.approx(b[key], rel=1e-12)


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        evaluate([], [], k=1)


def test_evaluate_k_too_large():
    pred = PredictionSet(np.zeros((2, 5, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        evaluate([pred], [np.zeros((5, 2))], k=3)


def test_report_fields(rng):
    preds = [rand_pred(rng) for _ in range(5)]
    gts = [rng.normal(size=(30, 2)) for _ in range(5)]
    report = evaluate_report(preds, gts)
    assert report.n_scenes == 5
    assert report.minADE_6 <= report.minADE_1
    assert report.minFDE_6 <= report.minFDE_1
    assert report.MR_6 <= report.MR_1
    assert 0.0 <= report.MR_1 <= 1.0
    import json

    doc = json.loads(report.to_json())
    assert set(doc) == {
        "minADE_1", "minFDE_1", "MR_1",
        "minADE_6", "minFDE_6", "MR_6", "n_scenes",
    }


def test_scene_csv(tmp_path, rng):
    preds = [rand_pred(rng) for _ in range(3)]
    gts = [rng.normal(size=(30, 2)) for _ in range(3)]
    path = tmp_path / "per_scene.csv"
    write_scene_csv(path, ["a", "b", "c"], preds, gts)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("scene_id,")
