"""pointcast: spatio-temporal point-cloud learning for trajectory forecasting."""

import os

# One BLAS thread unless the caller chose otherwise, set before the first
# numpy import: the process then runs one OS thread, so `train` can fork its
# shard worker, and its bytes do not depend on the core count. A caller that
# imported numpy first keeps its pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .autodiff import Tensor, backward, constant, parameter  # noqa: E402
from .indexing import (  # noqa: E402
    GroupTable,
    IndexedPointSet,
    build_groups_by_instance,
    build_groups_by_voxel,
    index_scene,
    plan_scene,
    regroup_by_interval,
    voxelize,
)
from .metrics import EvalReport, ade, evaluate, evaluate_report, fde, scene_errors  # noqa: E402
from .network import (  # noqa: E402
    Model,
    ModelConfig,
    PredictionSet,
    TrainConfig,
    forward,
    init_model,
    rank_trajectories,
    select_best,
    total_loss,
    train,
)
from .scenes import (  # noqa: E402
    AugConfig,
    AgentTrack,
    Frame,
    MapElement,
    Scene,
    augment,
    load_scene,
    normalize,
    save_scene,
)
from .synth import gen_synthetic  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "AgentTrack",
    "AugConfig",
    "EvalReport",
    "Frame",
    "GroupTable",
    "IndexedPointSet",
    "MapElement",
    "Model",
    "ModelConfig",
    "PredictionSet",
    "Scene",
    "Tensor",
    "TrainConfig",
    "ade",
    "augment",
    "backward",
    "build_groups_by_instance",
    "build_groups_by_voxel",
    "constant",
    "evaluate",
    "evaluate_report",
    "fde",
    "forward",
    "gen_synthetic",
    "index_scene",
    "init_model",
    "load_scene",
    "normalize",
    "parameter",
    "plan_scene",
    "rank_trajectories",
    "regroup_by_interval",
    "save_scene",
    "scene_errors",
    "select_best",
    "total_loss",
    "train",
    "voxelize",
]
