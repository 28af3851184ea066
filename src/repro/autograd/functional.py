"""Functional (stateless) operations built on :class:`~repro.autograd.tensor.Tensor`.

These implement the real-valued tail of the SPNN pipeline from the paper
(§III-D): the Softplus applied to the modulus of complex activations, the
squared-modulus intensity measurement, the LogSoftMax output stage and the
cross-entropy loss, plus a handful of generally useful activations.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from ..exceptions import AutogradError
from .tensor import ArrayLike, Tensor, as_tensor


def _require_real(tensor: Tensor, op: str) -> Tensor:
    if tensor.is_complex:
        raise AutogradError(f"{op} expects a real tensor; apply .abs() or .abs2() first")
    return tensor


def softplus(x: ArrayLike, beta: float = 1.0, threshold: float = 30.0) -> Tensor:
    """Numerically stable Softplus ``log(1 + exp(beta x)) / beta``.

    For ``beta * x > threshold`` the linear asymptote ``x`` is used, as in
    common deep-learning frameworks, to avoid overflow.
    """
    x = _require_real(as_tensor(x), "softplus")
    scaled = x.data * beta
    out_data = np.where(scaled > threshold, x.data, np.log1p(np.exp(np.minimum(scaled, threshold))) / beta)

    def backward(grad: np.ndarray):
        grad = np.real(grad)
        sig = np.where(scaled > threshold, 1.0, 1.0 / (1.0 + np.exp(-np.minimum(scaled, threshold))))
        return (grad * sig,)

    return Tensor._make(out_data, (x,), backward, "softplus")


def relu(x: ArrayLike) -> Tensor:
    """Rectified linear unit for real tensors."""
    x = _require_real(as_tensor(x), "relu")
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray):
        return (np.real(grad) * (x.data > 0.0),)

    return Tensor._make(out_data, (x,), backward, "relu")


def sigmoid(x: ArrayLike) -> Tensor:
    """Logistic sigmoid for real tensors."""
    x = _require_real(as_tensor(x), "sigmoid")
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray):
        return (np.real(grad) * out_data * (1.0 - out_data),)

    return Tensor._make(out_data, (x,), backward, "sigmoid")


def log_softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis`` with the usual max-shift stabilization."""
    x = _require_real(as_tensor(x), "log_softmax")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    out_data = shifted - log_norm

    def backward(grad: np.ndarray):
        grad = np.real(grad)
        softmax = np.exp(out_data)
        return (grad - softmax * np.sum(grad, axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward, "log_softmax")


def softmax(x: ArrayLike, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (derived from :func:`log_softmax` for stability)."""
    return log_softmax(x, axis=axis).exp()


def modulus(x: ArrayLike) -> Tensor:
    """Element-wise modulus ``|z|`` (alias of :meth:`Tensor.abs`)."""
    return as_tensor(x).abs()


def nll_loss(log_probs: ArrayLike, targets: Union[Sequence[int], np.ndarray], reduction: str = "mean") -> Tensor:
    """Negative log-likelihood loss for log-probability inputs.

    Parameters
    ----------
    log_probs:
        Real tensor of shape ``(batch, classes)`` holding log-probabilities.
    targets:
        Integer class indices of shape ``(batch,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    log_probs = _require_real(as_tensor(log_probs), "nll_loss")
    if log_probs.ndim != 2:
        raise AutogradError(f"nll_loss expects (batch, classes) log-probabilities, got shape {log_probs.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != log_probs.shape[0]:
        raise AutogradError(
            f"targets must be 1-D with length {log_probs.shape[0]}, got shape {targets.shape}"
        )
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= log_probs.shape[1]:
        raise AutogradError("target class index out of range")
    batch = log_probs.shape[0]
    rows = np.arange(batch)
    picked = -log_probs.data[rows, targets]

    if reduction == "none":
        out_data = picked
        scale = -1.0
    elif reduction == "sum":
        out_data = picked.sum()
        scale = -1.0
    elif reduction == "mean":
        out_data = picked.mean()
        scale = -1.0 / batch
    else:
        raise AutogradError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray):
        grad = np.real(grad)
        full = np.zeros_like(log_probs.data)
        if reduction == "none":
            full[rows, targets] = scale * grad
        else:
            full[rows, targets] = scale * float(grad)
            if reduction == "mean":
                pass  # scale already includes the 1/batch factor
        return (full,)

    return Tensor._make(np.asarray(out_data), (log_probs,), backward, "nll_loss")


def cross_entropy(logits: ArrayLike, targets: Union[Sequence[int], np.ndarray], reduction: str = "mean") -> Tensor:
    """Cross-entropy loss: ``nll_loss(log_softmax(logits), targets)``."""
    return nll_loss(log_softmax(logits, axis=-1), targets, reduction=reduction)


def accuracy(log_probs: ArrayLike, targets: Union[Sequence[int], np.ndarray]) -> float:
    """Top-1 classification accuracy (plain float, no autodiff)."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    predictions = np.argmax(log_probs.data, axis=-1)
    if predictions.shape != targets.shape:
        raise AutogradError(f"prediction shape {predictions.shape} does not match targets {targets.shape}")
    return float(np.mean(predictions == targets))
