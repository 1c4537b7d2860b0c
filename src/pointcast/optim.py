"""Adam with bias correction and the step-decay learning-rate schedule.

``adam_init`` keeps both moments in one flat array, a row each, laid out in
the order of the parameter dict, with per-name views of the rows for
checkpoints. ``adam_step`` takes the parameters and the gradient as flat
rows laid out the same way and updates them and both moments in place, so a
parameter row that another process maps (``network.train``'s shard workers
read the parameters from shared memory) sees every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .nn import flat_views

# values per update of a flat step, so that its two scratch arrays stay at
# 512 KiB each however large the model
FLAT_CHUNK = 1 << 16

BETAS = (0.9, 0.999)  # decay rates of the first and second moments
EPS = 1e-8            # added to sqrt(v_hat) in the step's denominator


@dataclass
class AdamState:
    flat: np.ndarray            # (2, n): the first-moment row, then the second-moment row
    m: dict[str, np.ndarray]    # name -> view of flat[0]
    v: dict[str, np.ndarray]    # name -> view of flat[1]
    step: int = 0


def adam_init(params: dict[str, Tensor]) -> AdamState:
    flat = np.zeros((2, sum(t.data.size for t in params.values())))
    return AdamState(flat, flat_views(flat[0], params), flat_views(flat[1], params))


def _update(p, g, m, v, lr, t) -> None:
    """Adam on one array, in place: 14 numpy calls whatever its size."""
    b1, b2 = BETAS
    step = np.multiply(g, 1.0 - b1)
    m *= b1
    m += step
    denom = np.multiply(g, g)
    denom *= 1.0 - b2
    v *= b2
    v += denom
    np.divide(v, 1.0 - b2**t, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += EPS
    np.divide(m, 1.0 - b1**t, out=step)  # m_hat
    step *= lr
    step /= denom
    p -= step


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update of the flat ``params`` row, ``state.m`` and ``state.v``, all in place.

    ``params`` and ``grads`` are flat rows laid out as ``state.flat``'s rows,
    stepped FLAT_CHUNK values at a time. Each update runs in-place operations
    in the order of the textbook formula ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2``, ``p -= lr m_hat / (sqrt(v_hat) + EPS)``, with
    ``(b1, b2) = BETAS``, so the result is bit for bit that of the
    out-of-place expressions, with two scratch arrays per update.
    """
    if not params.shape == grads.shape == state.flat[0].shape:
        raise ValueError(f"adam_step: flat parameters {params.shape} and gradient "
                         f"{grads.shape} for moments {state.flat[0].shape}")
    state.step += 1
    for lo in range(0, params.size, FLAT_CHUNK):
        at = slice(lo, lo + FLAT_CHUNK)
        _update(params[at], grads[at], state.flat[0, at], state.flat[1, at], lr, state.step)


def lr_at_epoch(epoch: int, base_lr: float, decay_epochs=(10, 20, 30), factor: float = 0.1) -> float:
    """Step decay: multiply by ``factor`` once per decay epoch reached."""
    n = sum(1 for e in decay_epochs if epoch >= e)
    return base_lr * factor**n
