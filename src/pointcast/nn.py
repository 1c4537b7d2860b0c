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
    b: Tensor


@dataclass
class Norm:
    gain: Tensor
    bias: Tensor


@dataclass
class MLPLayer:
    lin: Linear
    norm: Norm | None  # layer norm then relu after the linear map; None: plain linear


def init_linear(reg: dict, name: str, fan_in: int, fan_out: int, rng) -> Linear:
    bound = np.sqrt(6.0 / fan_in)
    w = ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    b = ad.parameter(np.zeros((1, fan_out)))
    reg[f"{name}/w"] = w
    reg[f"{name}/b"] = b
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
) -> list[MLPLayer]:
    """Build an MLP given a width chain [in, h1, ..., out].

    Hidden layers are linear -> layer norm -> relu; the final layer is plain
    linear unless ``final_norm_act`` gives it the norm and relu too.
    """
    if len(widths) < 2:
        raise ValueError("init_mlp: need at least [in, out] widths")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        last = i == len(widths) - 2
        lin = init_linear(reg, f"{name}/l{i}", fan_in, fan_out, rng)
        norm = init_norm(reg, f"{name}/l{i}", fan_out) if final_norm_act or not last else None
        layers.append(MLPLayer(lin, norm))
    return layers


def apply_norm_act(layer: MLPLayer, x: Tensor) -> Tensor:
    """The part of ``layer`` after its linear map: layer norm and relu, if it has a norm."""
    if layer.norm is None:
        return x
    return ad.norm_act(x, layer.norm.gain, layer.norm.bias, act=True)


def apply_mlp(layers, x) -> Tensor:
    """Run ``layers`` on ``x``: a Tensor, or column blocks for the first linear map."""
    for layer in layers:
        x = apply_norm_act(layer, ad.linear(x, layer.lin.w, layer.lin.b))
    return x
