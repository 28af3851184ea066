"""Activation modules matching the paper's SPNN pipeline (§III-D).

The paper applies the non-linear Softplus to the *modulus* of the complex
activations after each linear layer, a squared-modulus intensity measurement
after the output layer, and a final LogSoftMax to obtain a probability
distribution.  Each of these is provided as a :class:`Module` so the SPNN
architecture can be expressed declaratively.
"""

from __future__ import annotations

from ..autograd import functional as F
from ..autograd.tensor import Tensor, as_tensor
from .module import Module


class ModulusSoftplus(Module):
    """``softplus(|z|)`` — the hidden-layer non-linearity of the paper's SPNN.

    The output is real; subsequent complex linear layers treat it as a
    complex vector with zero imaginary part, which mirrors an
    intensity-based electro-optic activation followed by re-modulation.
    """

    def __init__(self, beta: float = 1.0):
        super().__init__()
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)

    def forward(self, x) -> Tensor:
        return F.softplus(as_tensor(x).abs(), beta=self.beta)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ModulusSoftplus(beta={self.beta})"


class ModulusSquared(Module):
    """``|z|^2`` — models the photodetector intensity measurement."""

    def forward(self, x) -> Tensor:
        return as_tensor(x).abs2()

    def __repr__(self) -> str:  # pragma: no cover
        return "ModulusSquared()"


class Modulus(Module):
    """``|z|`` — field-amplitude measurement (used by ablation variants)."""

    def forward(self, x) -> Tensor:
        return as_tensor(x).abs()

    def __repr__(self) -> str:  # pragma: no cover
        return "Modulus()"


class LogSoftmax(Module):
    """Log-softmax along the class axis, producing log-probabilities."""

    def __init__(self, axis: int = -1):
        super().__init__()
        self.axis = int(axis)

    def forward(self, x) -> Tensor:
        return F.log_softmax(x, axis=self.axis)

    def __repr__(self) -> str:  # pragma: no cover
        return f"LogSoftmax(axis={self.axis})"


class Softplus(Module):
    """Plain real Softplus activation."""

    def __init__(self, beta: float = 1.0):
        super().__init__()
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)

    def forward(self, x) -> Tensor:
        return F.softplus(x, beta=self.beta)


class ReLU(Module):
    """Plain real ReLU activation (baseline digital models)."""

    def forward(self, x) -> Tensor:
        return F.relu(x)
