"""System-level SPNN: architecture, builder pipeline and inference helpers."""

from .builder import (
    SPNNTask,
    SPNNTrainingConfig,
    build_software_model,
    build_trained_spnn,
    extract_weights,
    prepare_feature_sets,
    spnn_from_model,
    train_software_model,
)
from .inference import monte_carlo_accuracy
from .spnn import (
    SPNN,
    NetworkPerturbation,
    NetworkPerturbationBatch,
    SPNNArchitecture,
    stack_network_perturbations,
)

__all__ = [
    "SPNN",
    "SPNNArchitecture",
    "NetworkPerturbation",
    "NetworkPerturbationBatch",
    "stack_network_perturbations",
    "SPNNTask",
    "SPNNTrainingConfig",
    "build_software_model",
    "train_software_model",
    "prepare_feature_sets",
    "extract_weights",
    "spnn_from_model",
    "build_trained_spnn",
    "monte_carlo_accuracy",
]
