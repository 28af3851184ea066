"""Neural-network substrate: modules, layers, activations, losses, optimizers."""

from .activations import (
    LogSoftmax,
    Modulus,
    ModulusSoftplus,
    ModulusSquared,
    ReLU,
    Softplus,
)
from .layers import ComplexLinear, RealLinear
from .losses import CrossEntropyLoss
from .metrics import RunningAverage, TrainingHistory, top1_accuracy
from .module import Module, Parameter, Sequential
from .optim import SGD, Adam, Optimizer
from .trainer import EarlyStopFn, Trainer, TrainerConfig, iterate_minibatches

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ComplexLinear",
    "RealLinear",
    "ModulusSoftplus",
    "ModulusSquared",
    "Modulus",
    "LogSoftmax",
    "Softplus",
    "ReLU",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "Trainer",
    "TrainerConfig",
    "EarlyStopFn",
    "iterate_minibatches",
    "top1_accuracy",
    "RunningAverage",
    "TrainingHistory",
]
