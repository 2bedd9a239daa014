"""Continual representation learning with delayed-codebook index distillation.

A small, fully deterministic numpy benchmark framework: a dense-network
engine verified by finite differences, K-means codebooks built at task
boundaries, index-prediction distillation during task training, finetune /
LwF / SimCLR baselines, and the continual metrics (average seen accuracy,
maximum forgetting) with linear-probe evaluation.
"""

from .config import ExperimentConfig, config_from_dict, load_config
from .data import (
    SyntheticConfig,
    TaskDataset,
    generate_synthetic_tasks,
    load_feature_file,
    save_feature_file,
    split_classes_into_tasks,
)
from .errors import (
    ConfigError,
    NumericError,
    ParseError,
    ShapeError,
    StateError,
    ValidationError,
)
from .harness import (
    AccuracyMatrix,
    RunRecord,
    average_accuracy,
    max_forgetting,
    run_sequence,
    sweep,
)
from .kmeans import Codebook, IndexAssignment, kmeans_fit
from .nn import (
    DenseParams,
    GradientSet,
    Network,
    finite_difference_check,
    forward,
    init_network,
    sgd_step,
    softmax,
)
from .objectives import (
    AugmentationConfig,
    TeacherSnapshot,
    augment_two_views,
    lwf_distill_loss,
    nt_xent_loss,
    supervised_ce_loss,
)
from .probe import ProbeConfig, linear_probe, subset_sample
from .regularizer import (
    DecorState,
    PredictorConfig,
    combined_loss,
    deserialize_state,
    distill_loss,
    increment,
    init_index_predictor,
    serialize_state,
    storage_bits,
)

__version__ = "0.1.0"
