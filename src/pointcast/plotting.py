"""Static SVG rendering of scenes and predictions.

Color convention: target history yellow, predictions green, ground truth
red, map polylines grey, other agents light blue. Output is plain SVG built
with ElementTree, so tests can parse and diff it.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

STYLE = {
    "map": {"stroke": "#b0b0b0", "stroke-width": "0.15"},
    "agent": {"stroke": "#7fb3d5", "stroke-width": "0.25"},
    "history": {"stroke": "#f4c430", "stroke-width": "0.35"},
    "pred": {"stroke": "#2e8b57", "stroke-width": "0.3"},
    "gt": {"stroke": "#d64541", "stroke-width": "0.3"},
}


def _path_d(xy) -> str:
    return "M " + " L ".join(f"{x:.4f} {-y:.4f}" for x, y in xy)


def _add_polyline(root, xy, cls):
    xy = np.asarray(xy, dtype=np.float64)
    if len(xy) >= 2:
        el = ET.SubElement(root, "path", {"class": cls, "d": _path_d(xy), "fill": "none"})
    else:
        el = ET.SubElement(
            root,
            "circle",
            {"class": cls, "cx": f"{xy[0, 0]:.4f}", "cy": f"{-xy[0, 1]:.4f}", "r": "0.3"},
        )
    for k, v in STYLE[cls].items():
        el.set(k, v)
    return el


def scene_svg(scene, predictions=None, gt=None) -> ET.Element:
    """Build the SVG element tree for a scene and optional (K, T, 2) predictions."""
    pts = [a.xy for a in scene.agents] + [m.xy for m in scene.map_elements]
    if predictions is not None:
        pts.extend(np.asarray(predictions))
    if gt is not None:
        pts.append(np.asarray(gt))
    allpts = np.concatenate([np.asarray(p).reshape(-1, 2) for p in pts], axis=0)
    lo = allpts.min(axis=0) - 5.0
    hi = allpts.max(axis=0) + 5.0
    with np.errstate(over="ignore"):
        size = hi - lo
    if not np.isfinite(size).all():
        raise ValueError(f"view extent overflows: x and y span {size[0]} and {size[1]}")
    # y axis is flipped into SVG screen coordinates
    view = f"{lo[0]:.2f} {-hi[1]:.2f} {size[0]:.2f} {size[1]:.2f}"
    root = ET.Element(
        "svg",
        {"xmlns": "http://www.w3.org/2000/svg", "viewBox": view, "width": "640", "height": "640"},
    )
    for m in scene.map_elements:
        _add_polyline(root, m.xy, "map")
    for a in scene.agents:
        if a.track_id == scene.target_id:
            continue
        _add_polyline(root, a.xy, "agent")
    _add_polyline(root, scene.target_agent().xy, "history")
    if predictions is not None:
        for traj in np.asarray(predictions):
            _add_polyline(root, traj, "pred")
    if gt is not None:
        _add_polyline(root, gt, "gt")
    return root


def write_svg(root: ET.Element, path) -> None:
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)
