"""Dynamic temporal learning: multi-interval feature propagation and instance pooling.

Variable-length agent histories are handled purely through instance-time
grouping; there is no padding anywhere, and nothing ever mixes features
across instances. So the blocks run as well on any stage's
:class:`~pointcast.indexing.RowTables`, whose rows are a union of whole
instances, as on every row.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .indexing import RowTables


@dataclass
class TemporalParams:
    interval_mlps: list  # one MLP per interval
    pool_mlp: list       # pre-pooling transform
    pool_proj: list      # projection after concat with the pooled feature
    out_proj: list       # block output projection


def init_temporal(reg, name, c_in, cfg, rng) -> TemporalParams:
    interval_mlps = []
    c = c_in
    for i in range(len(cfg.intervals)):
        interval_mlps.append(
            nn.init_mlp(reg, f"{name}/mil/i{i}", [c, cfg.interval_width], rng, final_norm_act=True)
        )
        c = 2 * cfg.interval_width  # sliced group feature concat F_t
    pool_mlp = nn.init_mlp(reg, f"{name}/pool", [c, cfg.temporal_width], rng, final_norm_act=True)
    pool_proj = nn.init_mlp(reg, f"{name}/proj", [c + cfg.temporal_width, cfg.temporal_width],
                            rng, final_norm_act=True)
    out_proj = nn.init_mlp(reg, f"{name}/out", [cfg.temporal_width, cfg.temporal_width],
                           rng, final_norm_act=True)
    return TemporalParams(interval_mlps, pool_mlp, pool_proj, out_proj)


def multi_interval(rows: RowTables, feats: Tensor, interval_mlps) -> list:
    """Progressive group-transform-pool-slice-concat over the interval ladder of ``rows``.

    For each interval t: points regroup by (instance, floor(time / t)); the
    per-point features pass through that interval's MLP; group means propagate
    back to points by slicing, and concatenate with the transformed features
    as input to the next interval. The slice and the concat are never
    materialized: the result is the column blocks ``[(group means, groups),
    F_t]`` of the last interval, which the next linear map takes as they are.
    """
    if not rows.by_interval:
        raise ValueError("multi_interval: empty interval list")
    if len(rows.by_interval) != len(interval_mlps):
        raise ValueError("multi_interval: plan and params have different interval counts")
    o_p = feats
    for groups, mlp in zip(rows.by_interval, interval_mlps):
        f_t = nn.apply_mlp(mlp, o_p)
        o_p = [(ad.scatter_mean(f_t, groups), groups), f_t]
    return o_p


def instance_pool(rows: RowTables, blocks: list, pool_mlp, pool_proj) -> Tensor:
    """Max-pool transformed features per instance and concat back to each point.

    ``blocks`` are the per-point features as column blocks of
    :func:`~pointcast.autodiff.linear`; the pooled feature joins them as one
    more block, gathered per point.
    """
    groups = rows.by_instance
    pooled = ad.scatter_max(nn.apply_mlp(pool_mlp, blocks), groups)
    return nn.apply_mlp(pool_proj, [*blocks, (pooled, groups)])


def temporal_block(rows: RowTables, feats: Tensor, params: TemporalParams) -> Tensor:
    x = multi_interval(rows, feats, params.interval_mlps)
    x = instance_pool(rows, x, params.pool_mlp, params.pool_proj)
    return nn.apply_mlp(params.out_proj, x)
