"""Complex-capable reverse-mode automatic differentiation over NumPy.

This subpackage is the training substrate for the software model of the
silicon-photonic neural network: a light-weight tensor/autograd engine with
Wirtinger-convention gradients for complex parameters.
"""

from .functional import (
    accuracy,
    cross_entropy,
    log_softmax,
    modulus,
    nll_loss,
    relu,
    sigmoid,
    softmax,
    softplus,
)
from .grad_check import check_gradients, numerical_gradient
from .tensor import Tensor, as_tensor

__all__ = [
    "Tensor",
    "as_tensor",
    "softplus",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "modulus",
    "nll_loss",
    "cross_entropy",
    "accuracy",
    "check_gradients",
    "numerical_gradient",
]
