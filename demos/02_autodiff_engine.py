#!/usr/bin/env python3
"""The reverse-mode engine underneath the network.

Builds a small computation graph with the scatter/gather primitives that
power feature propagation, runs backward, and verifies one gradient against
central finite differences.
"""

import numpy as np

from pointcast import autodiff as ad
from pointcast.indexing import group_by_keys

rng = np.random.default_rng(0)

# features for 6 points living in 3 groups (think: points sharing voxels)
x = ad.parameter(rng.normal(size=(6, 4)))
w = ad.parameter(rng.normal(size=(4, 3)) * 0.5)
groups = group_by_keys(np.array([0, 0, 1, 1, 1, 2]))

h = ad.relu(ad.linear(x, w))
pooled = ad.scatter_mean(h, groups)  # group features
spread = ad.gather_rows(pooled, groups)  # back to points
loss = ad.smooth_l1(ad.concat_cols(h, spread), np.zeros((6, 6)))
print(f"loss = {loss.item():.6f}")

ad.backward(loss)
print(f"dL/dw row 0: {w.grad[0].round(6)}")

# finite-difference spot check on one weight entry
h_step = 1e-5
orig = w.data[0, 0]


def loss_value():
    hh = ad.relu(ad.linear(x, w))
    pp = ad.scatter_mean(hh, groups)
    ss = ad.gather_rows(pp, groups)
    return ad.smooth_l1(ad.concat_cols(hh, ss), np.zeros((6, 6))).item()


w.data[0, 0] = orig + h_step
up = loss_value()
w.data[0, 0] = orig - h_step
down = loss_value()
w.data[0, 0] = orig
numeric = (up - down) / (2 * h_step)
print(f"analytic {w.grad[0, 0]:.8f} vs numeric {numeric:.8f}")

# conservation: scatter_mean preserves column sums weighted by group size
counts = groups.counts()[:, None]
print("conservation residual:",
      np.abs((pooled.data * counts).sum(0) - h.data.sum(0)).max())
