"""Adam with bias correction and the step-decay learning-rate schedule.

``adam_step`` updates the parameters and both moments in place, so a
parameter array that another process maps (``network.train``'s shard
workers read the parameters from shared memory) sees every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_init(params: dict[str, Tensor]) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(t.data) for k, t in params.items()},
        v={k: np.zeros_like(t.data) for k, t in params.items()},
    )


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    betas=(0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """One Adam update of ``params``, ``state.m`` and ``state.v``, all in place.

    Parameters without a gradient entry are skipped. Each array is updated
    with in-place operations in the order of the textbook formula
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``,
    ``p -= lr m_hat / (sqrt(v_hat) + eps)``, so the result is bit for bit that
    of the out-of-place expressions, with two scratch arrays per parameter.
    """
    b1, b2 = betas
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} for {name} {p.data.shape}")
        m, v = state.m[name], state.v[name]
        step = np.multiply(g, 1.0 - b1)
        m *= b1
        m += step
        denom = np.multiply(g, g)
        denom *= 1.0 - b2
        v *= b2
        v += denom
        np.divide(v, 1.0 - b2**t, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, 1.0 - b1**t, out=step)  # m_hat
        step *= lr
        step /= denom
        p.data -= step


def lr_at_epoch(epoch: int, base_lr: float, decay_epochs=(10, 20, 30), factor: float = 0.1) -> float:
    """Step decay: multiply by ``factor`` once per decay epoch reached."""
    n = sum(1 for e in decay_epochs if epoch >= e)
    return base_lr * factor**n
