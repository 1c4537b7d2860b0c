"""Parameter bundles (linear, layer norm, MLP stacks) over the autodiff engine.

Parameters register into a flat name -> Tensor dict so the optimizer and
checkpointing see one namespace. Initialization is Kaiming-style uniform
fan-in for weights and zeros for biases, drawn from a caller-owned RNG so
model construction is seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class Linear:
    w: Tensor
    b: Tensor | None  # None: no bias


@dataclass
class Norm:
    gain: Tensor
    bias: Tensor


@dataclass
class MLPLayer:
    lin: Linear
    norm: Norm | None  # layer norm then relu after the linear map; None: plain linear


def flat_views(row: np.ndarray, params: dict) -> dict:
    """Views of the flat ``row``, one per parameter, shaped like it and laid out in dict order."""
    out, lo = {}, 0
    for name, t in params.items():
        out[name] = row[lo : lo + t.data.size].reshape(t.data.shape)
        lo += t.data.size
    return out


def init_linear(reg: dict, name: str, fan_in: int, fan_out: int, rng, *,
                bias: bool = True) -> Linear:
    bound = np.sqrt(6.0 / fan_in)
    w = ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    reg[f"{name}/w"] = w
    b = None
    if bias:
        b = reg[f"{name}/b"] = ad.parameter(np.zeros((1, fan_out)))
    return Linear(w, b)


def init_norm(reg: dict, name: str, width: int) -> Norm:
    gain = ad.parameter(np.ones((1, width)))
    bias = ad.parameter(np.zeros((1, width)))
    reg[f"{name}/gain"] = gain
    reg[f"{name}/bias"] = bias
    return Norm(gain, bias)


def init_mlp(
    reg: dict,
    name: str,
    widths,
    rng,
    *,
    final_norm_act: bool = False,
    final_bias: bool = True,
) -> list[MLPLayer]:
    """Build an MLP given a width chain [in, h1, ..., out].

    Hidden layers are linear -> layer norm -> relu; the final layer is plain
    linear unless ``final_norm_act`` gives it the norm and relu too, and has
    no bias when ``final_bias`` is false.
    """
    if len(widths) < 2:
        raise ValueError("init_mlp: need at least [in, out] widths")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        last = i == len(widths) - 2
        lin = init_linear(reg, f"{name}/l{i}", fan_in, fan_out, rng, bias=final_bias or not last)
        norm = init_norm(reg, f"{name}/l{i}", fan_out) if final_norm_act or not last else None
        layers.append(MLPLayer(lin, norm))
    return layers


def apply_mlp(layers, x) -> Tensor:
    """Run ``layers`` on ``x``: a Tensor, or column blocks for the first linear map.

    A layer with a norm is one ``dense`` node; one without is a ``linear``.
    """
    for layer in layers:
        if layer.norm is None:
            x = ad.linear(x, layer.lin.w, layer.lin.b)
        else:
            x = ad.dense(x, layer.lin.w, layer.lin.b, layer.norm.gain, layer.norm.bias, act=True)
    return x
