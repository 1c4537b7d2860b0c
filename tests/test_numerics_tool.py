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
    assert shapes["train/params"] == (1, shapes["overfit/grad"][1])


def test_dump_compared_with_itself_is_bit_identical(tool, dump, capsys):
    assert tool.main(["compare", str(dump), str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(line.endswith(": bit-identical") for line in lines)


def test_perturbed_dump_is_reported(tool, dump, tmp_path, capsys):
    with np.load(dump) as f:
        groups = dict(f)
    grad = groups["default/grad"]
    grad[3, 7] += 1e-9 * np.abs(grad[3]).max()
    params = groups["train/params"]
    params[0, 11] += 1e-6 * np.abs(params).max()
    np.savez(tmp_path / "b.npz", **groups)
    assert tool.main(["compare", str(dump), str(tmp_path / "b.npz")]) == 0
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report.pop("default/grad") == "max relative difference 1e-09"
    assert report.pop("train/params") == "max relative difference 1e-06"
    assert set(report.values()) == {"bit-identical"}

    del groups["predict/displacements"]
    groups["overfit/loss"] = groups["overfit/loss"][:11]
    np.savez(tmp_path / "c.npz", **groups)
    assert tool.main(["compare", str(dump), str(tmp_path / "c.npz")]) == 1
    report = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert report["predict/displacements"] == "only in A"
    assert report["overfit/loss"] == "shape (12,) vs (11,)"
