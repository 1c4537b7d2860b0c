"""pointcast: spatio-temporal point-cloud learning for trajectory forecasting."""

from .autodiff import Tensor, backward, constant, parameter
from .indexing import (
    GroupTable,
    IndexedPointSet,
    build_groups_by_instance,
    build_groups_by_voxel,
    index_scene,
    plan_scene,
    regroup_by_interval,
    voxelize,
)
from .metrics import EvalReport, ade, evaluate, evaluate_report, fde, scene_errors
from .network import (
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
from .scenes import (
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
from .synth import gen_synthetic

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
