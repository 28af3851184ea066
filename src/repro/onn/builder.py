"""End-to-end construction of the paper's SPNN: data -> training -> hardware.

The paper's flow (§III-D) is:

1. take the image corpus, compute shifted-FFT features and keep the 4x4
   center crop (16 complex features),
2. train the complex-valued software network (two hidden layers of 16
   neurons, modulus-Softplus activations, squared-modulus + LogSoftMax
   output, cross-entropy loss),
3. map the trained weight matrices onto MZI meshes via SVD + Clements.

:func:`build_trained_spnn` performs all three steps and returns the
compiled :class:`~repro.onn.spnn.SPNN` together with the held-out test set,
ready for the EXP 1 / EXP 2 Monte Carlo studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..datasets.fft_features import fft_crop_features
from ..datasets.synthetic_mnist import Dataset, load_synthetic_mnist
from ..nn.activations import LogSoftmax, ModulusSoftplus, ModulusSquared
from ..nn.layers import ComplexLinear
from ..nn.metrics import TrainingHistory
from ..nn.module import Sequential
from ..utils.rng import RNGLike, ensure_rng
from .spnn import SPNN, SPNNArchitecture
from .training_step import train_spnn


@dataclass
class SPNNTrainingConfig:
    """Hyper-parameters for building and training the software model."""

    architecture: SPNNArchitecture = field(default_factory=SPNNArchitecture)
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 2e-2
    num_train: int = 4000
    num_test: int = 1000
    fft_crop: int = 4
    seed: int = 2021


@dataclass
class SPNNTask:
    """A trained SPNN together with the datasets used to build and test it."""

    spnn: SPNN
    history: TrainingHistory
    train_features: np.ndarray
    train_labels: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    baseline_accuracy: float

    @property
    def num_test_samples(self) -> int:
        return len(self.test_labels)


def build_software_model(architecture: SPNNArchitecture, rng: RNGLike = None) -> Sequential:
    """Software model matching the paper's SPNN pipeline.

    Every hidden linear layer is followed by modulus-Softplus; the final
    layer by squared-modulus (intensity) and LogSoftMax.
    """
    gen = ensure_rng(rng)
    modules: List = []
    dims = architecture.layer_dims
    for index in range(architecture.num_linear_layers):
        modules.append(ComplexLinear(dims[index], dims[index + 1], bias=False, rng=gen))
        if index != architecture.num_linear_layers - 1:
            modules.append(ModulusSoftplus(beta=architecture.softplus_beta))
    modules.append(ModulusSquared())
    modules.append(LogSoftmax())
    return Sequential(*modules)


def extract_weights(model: Sequential) -> List[np.ndarray]:
    """Collect the complex weight matrices of a software model, in layer order."""
    return [module.weight_matrix() for module in model if isinstance(module, ComplexLinear)]


def spnn_from_model(model: Sequential, architecture: SPNNArchitecture, compile_hardware: bool = True) -> SPNN:
    """Wrap a trained software model into a (compiled) :class:`SPNN`."""
    return SPNN(extract_weights(model), architecture=architecture, compile_hardware=compile_hardware)


def train_software_model(
    features: np.ndarray,
    labels: np.ndarray,
    config: SPNNTrainingConfig,
    val_features: Optional[np.ndarray] = None,
    val_labels: Optional[np.ndarray] = None,
    rng: RNGLike = None,
) -> Tuple[Sequential, TrainingHistory]:
    """Train the complex-valued software model with Adam + cross-entropy.

    Runs the compiled training step (:mod:`repro.onn.training_step`),
    byte-equal to the autograd :class:`~repro.nn.trainer.Trainer`.
    """
    gen = ensure_rng(rng if rng is not None else config.seed)
    model = build_software_model(config.architecture, rng=gen)
    history = train_spnn(
        model,
        features,
        labels,
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.learning_rate,
        val_features=val_features,
        val_labels=val_labels,
        rng=gen,
    )
    return model, history


def prepare_feature_sets(
    config: SPNNTrainingConfig,
    dataset_pair: Optional[Tuple[Dataset, Dataset]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dataset -> FFT features: ``(train_x, train_y, test_x, test_y)``.

    Shared by :func:`build_trained_spnn` and the experiments that train
    several models on *identical* data (e.g. baseline vs. noise-aware in
    the robustness study), so the corpus and feature extraction are
    generated exactly once per configuration.
    """
    if dataset_pair is None:
        dataset_pair = load_synthetic_mnist(
            num_train=config.num_train, num_test=config.num_test, seed=config.seed
        )
    train_set, test_set = dataset_pair

    train_features = fft_crop_features(train_set.images, crop=config.fft_crop)
    test_features = fft_crop_features(test_set.images, crop=config.fft_crop)
    if train_features.shape[1] != config.architecture.input_size:
        raise ValueError(
            f"FFT crop {config.fft_crop} produces {train_features.shape[1]} features but the "
            f"architecture expects {config.architecture.input_size}"
        )
    return train_features, train_set.labels, test_features, test_set.labels


def build_trained_spnn(
    config: Optional[SPNNTrainingConfig] = None,
    dataset_pair: Optional[Tuple[Dataset, Dataset]] = None,
    rng: RNGLike = None,
) -> SPNNTask:
    """Full pipeline: dataset -> FFT features -> training -> compiled SPNN.

    Parameters
    ----------
    config:
        Training/configuration options; defaults reproduce the paper's
        architecture with a laptop-sized synthetic corpus.
    dataset_pair:
        Pre-generated ``(train, test)`` datasets; generated from the config
        seed when omitted.
    rng:
        Seed controlling weight initialization and batch order (defaults to
        ``config.seed``).
    """
    config = config if config is not None else SPNNTrainingConfig()
    train_features, train_labels, test_features, test_labels = prepare_feature_sets(
        config, dataset_pair
    )

    model, history = train_software_model(
        train_features,
        train_labels,
        config,
        val_features=test_features,
        val_labels=test_labels,
        rng=rng,
    )
    spnn = spnn_from_model(model, config.architecture, compile_hardware=True)
    baseline_accuracy = spnn.accuracy(test_features, test_labels, use_hardware=True)
    return SPNNTask(
        spnn=spnn,
        history=history,
        train_features=train_features,
        train_labels=train_labels,
        test_features=test_features,
        test_labels=test_labels,
        baseline_accuracy=baseline_accuracy,
    )
