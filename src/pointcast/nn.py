"""Parameterized layers over the autodiff engine: a linear map, then an optional norm and relu.

One :class:`Layer` type covers every map with parameters but the sparse
conv: a plain linear map when it has no norm, else one ``dense`` node.
Parameters register into a flat name -> Tensor dict so the optimizer and
checkpointing see one namespace. Initialization is Kaiming-style uniform
fan-in for weights, zeros for biases and ones for norm gains, drawn from a
caller-owned RNG so model construction is seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class Norm:
    gain: Tensor
    bias: Tensor


@dataclass
class Layer:
    w: Tensor
    b: Tensor | None     # None: no bias
    norm: Norm | None    # layer norm after the linear map; None: plain linear
    act: bool = True     # relu after the norm


def flat_views(row: np.ndarray, params: dict) -> dict:
    """Views of the flat ``row``, one per parameter, shaped like it and laid out in dict order."""
    out, lo = {}, 0
    for name, t in params.items():
        out[name] = row[lo : lo + t.data.size].reshape(t.data.shape)
        lo += t.data.size
    return out


def init_norm(reg: dict, name: str, width: int) -> Norm:
    gain = ad.parameter(np.ones((1, width)))
    bias = ad.parameter(np.zeros((1, width)))
    reg[f"{name}/gain"] = gain
    reg[f"{name}/bias"] = bias
    return Norm(gain, bias)


def init_layer(reg: dict, name: str, fan_in: int, fan_out: int, rng, *,
               bias: bool = True, norm: bool = True, act: bool = True) -> Layer:
    """Register ``{name}/w``, ``/b`` if ``bias``, then ``/gain`` and ``/bias`` if ``norm``."""
    bound = np.sqrt(6.0 / fan_in)
    w = ad.parameter(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    reg[f"{name}/w"] = w
    b = None
    if bias:
        b = reg[f"{name}/b"] = ad.parameter(np.zeros((1, fan_out)))
    return Layer(w, b, init_norm(reg, name, fan_out) if norm else None, act)


def init_mlp(
    reg: dict,
    name: str,
    widths,
    rng,
    *,
    final_norm_act: bool = False,
    final_bias: bool = True,
) -> list[Layer]:
    """Build an MLP given a width chain [in, h1, ..., out].

    Hidden layers are linear -> layer norm -> relu; the final layer is plain
    linear unless ``final_norm_act`` gives it the norm and relu too, and has
    no bias when ``final_bias`` is false.
    """
    if len(widths) < 2:
        raise ValueError("init_mlp: need at least [in, out] widths")
    last = len(widths) - 2
    return [
        init_layer(reg, f"{name}/l{i}", fan_in, fan_out, rng,
                   bias=final_bias or i < last, norm=final_norm_act or i < last)
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:]))
    ]


def apply_mlp(layers, x) -> Tensor:
    """Run ``layers`` on ``x``: a Tensor, or column blocks for the first linear map.

    A layer with a norm is one ``dense`` node; one without is a ``linear``.
    """
    for layer in layers:
        if layer.norm is None:
            x = ad.linear(x, layer.w, layer.b)
        else:
            x = ad.dense(x, layer.w, layer.b, layer.norm.gain, layer.norm.bias, act=layer.act)
    return x
