"""tools/numerics.py: a dump compares bit-identical with itself, and a change shows.

The tool is imported as a file, as ``python tools/numerics.py`` runs it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "numerics.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("numerics_tool_under_test", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dump(tool, tmp_path_factory):
    path = tmp_path_factory.mktemp("numerics") / "a.npz"
    assert tool.main(["dump", str(path)]) == 0
    return path


def test_dump_holds_every_group(dump):
    with np.load(dump) as f:
        shapes = {k: f[k].shape for k in f}
    assert shapes["overfit/loss"] == shapes["default/loss"] == (12,)
    assert shapes["overfit/grad"][0] == shapes["default/grad"][0] == 12
    assert shapes["predict/trajectories"] == (8, 6, 30, 2)
    assert shapes["predict/displacements"] == (8, 6)
    assert shapes["eval/report"] == (7,)
    assert shapes["train/loss"] == (2,)
    trained = {k.split("/", 2)[2]: s for k, s in shapes.items() if k.startswith("train/params/")}
    restored = {k.split("/", 2)[2]: s for k, s in shapes.items() if k.startswith("restore/params/")}
    assert trained == restored
    assert all(s[0] == 1 for s in trained.values())
    assert sum(s[1] for s in trained.values()) == shapes["overfit/grad"][1]
    # the plans' groups at the default config (4 radii, 5 intervals): 22 of the
    # plan itself (embedding, future, 3 by_voxel, voxel_coords, 2 per off-center
    # tap), 54 of each RowTables (rows, 7 per radius, 3 interp_rows,
    # interp_delta, 3 by_point, 3 per interval, 3 by_instance), and the
    # target's 4 neighbor_rows and voxel_rows, which are None in plan.points
    plan = {k: s for k, s in shapes.items() if k.startswith("plan/")}
    assert len(plan) == 22 + 2 * 54 + 5
    assert plan["plan/points/rows"] == (plan["plan/embedding"][0],)
    assert plan["plan/target/neighbor_rows/3"][0] > plan["plan/target/rows"][0]
    assert "plan/points/voxel_rows" not in plan and "plan/kernel_map/4/0" not in plan
    assert len(shapes) == 8 + 2 * len(trained) + len(plan)


def test_dump_compared_with_itself_is_bit_identical(tool, dump, capsys):
    assert tool.main(["compare", str(dump), str(dump)]) == 0
    *lines, worst = capsys.readouterr().out.splitlines()
    with np.load(dump) as f:
        assert len(lines) == len(f.files)
    assert all(line.endswith(": bit-identical") for line in lines)
    assert worst == "worst: none, every comparable group is bit-identical"


def test_perturbed_dump_is_reported(tool, dump, tmp_path, capsys):
    with np.load(dump) as f:
        groups = dict(f)
    grad = groups["default/grad"]
    grad[3, 7] += 1e-9 * np.abs(grad[3]).max()
    params = groups["train/params/head/reg/l0/w"]
    params[0, 11] += 1e-6 * np.abs(params).max()
    np.savez(tmp_path / "b.npz", **groups)
    assert tool.main(["compare", str(dump), str(tmp_path / "b.npz")]) == 0
    *lines, worst = capsys.readouterr().out.splitlines()
    report = dict(line.split(": ", 1) for line in lines)
    assert report.pop("default/grad") == "max relative difference 1e-09"
    assert report.pop("train/params/head/reg/l0/w") == "max relative difference 1e-06"
    assert set(report.values()) == {"bit-identical"}
    assert worst == "worst: train/params/head/reg/l0/w (max relative difference 1e-06)"

    groups["plan/points/rows"][1] += 1  # row 0 holds 0 in both files, which must not hide it
    np.savez(tmp_path / "d.npz", **groups)
    assert tool.main(["compare", str(dump), str(tmp_path / "d.npz")]) == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
    assert report["plan/points/rows"] == "max relative difference 1"

    del groups["predict/displacements"]
    groups["overfit/loss"] = groups["overfit/loss"][:11]
    np.savez(tmp_path / "c.npz", **groups)
    assert tool.main(["compare", str(dump), str(tmp_path / "c.npz")]) == 1
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines()[:-1])
    assert report["predict/displacements"] == "only in A"
    assert report["overfit/loss"] == "shape (12,) vs (11,)"
