"""Compiled training step for the SPNN software model.

The paper's software network (§III-D) -- bias-free complex linear layers,
the modulus-Softplus after every hidden layer, the squared-modulus
intensity and LogSoftMax, trained with cross-entropy -- is trained here
without the autograd engine: the forward pass, its hand-derived backward
pass and the Adam update run as straight-line NumPy on one flat complex
weight buffer.

Bit-identity contract: every float operation is the one the autograd
:class:`~repro.nn.trainer.Trainer` performs on the same
:class:`~repro.nn.module.Sequential`, in the same order and with the same
matmul operand layouts (real activations go through the promoted complex
``@``; the weight gradient is ``conj(a).T @ g`` transposed), so the trained
weights and the :class:`~repro.nn.metrics.TrainingHistory` are byte-equal.
Adam runs unchanged on the flat buffer: its update is elementwise, so one
buffer steps every weight exactly as one parameter per layer would.  The
only passes skipped are passes that change no bit:

* Softplus's ``m * 1.0``, ``/ 1.0`` and saturation ``where`` (and the clamp
  of its derivative) when no entry saturates, via
  :func:`repro.arrays.kernels.softplus`;
* the gradient with respect to the input batch, which autograd computes
  and discards;
* the NLL + LogSoftMax backward, folded into ``exp(lp) * (1/n)`` with
  ``1/n`` subtracted at the targets -- exact, because each row of the NLL
  gradient holds a single non-zero.

The autograd ``Trainer`` stays the engine of noise-aware training and is
this step's test oracle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..arrays import kernels
from ..exceptions import AutogradError
from ..nn.activations import LogSoftmax, ModulusSoftplus, ModulusSquared
from ..nn.layers import ComplexLinear
from ..nn.metrics import RunningAverage, TrainingHistory, top1_accuracy
from ..nn.module import Parameter, Sequential
from ..nn.optim import Adam
from ..nn.trainer import check_finite_loss, iterate_minibatches
from ..utils.rng import RNGLike, ensure_rng

#: Softplus linearization threshold (the autograd ``softplus`` default).
_THRESHOLD = 30.0
#: Guard of the modulus derivative at exact zeros (``Tensor.abs`` default).
_ABS_EPS = 1e-12


def _spnn_layout(model: Sequential) -> Tuple[List[ComplexLinear], List[float]]:
    """The linear layers and hidden Softplus betas of an SPNN software model.

    Accepts exactly the stack :func:`~repro.onn.builder.build_software_model`
    builds: ``(ComplexLinear, ModulusSoftplus) * k, ComplexLinear,
    ModulusSquared, LogSoftmax`` with bias-free linear layers.
    """
    modules = list(model)
    linears = modules[:-2:2]
    activations = modules[1:-2:2]
    valid = (
        len(modules) >= 3
        and len(modules) % 2 == 1
        and all(isinstance(m, ComplexLinear) and m.bias is None for m in linears)
        and all(isinstance(m, ModulusSoftplus) for m in activations)
        and isinstance(modules[-2], ModulusSquared)
        and isinstance(modules[-1], LogSoftmax)
        and modules[-1].axis in (-1, 1)
    )
    if not valid:
        raise ValueError(
            "the compiled training step needs a bias-free (ComplexLinear, ModulusSoftplus)* "
            f"ComplexLinear, ModulusSquared, LogSoftmax stack, got {modules!r}"
        )
    return linears, [m.beta for m in activations]


def _labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels, checked as ``nll_loss`` checks them."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise AutogradError(f"targets must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise AutogradError("target class index out of range")
    return labels


def _features(features: np.ndarray) -> np.ndarray:
    """Features at the dtype ``Tensor`` stores them: complex128 or float64."""
    features = np.asarray(features)
    return features.astype(np.complex128 if features.dtype.kind == "c" else np.float64, copy=False)


def _nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood, as ``nll_loss(reduction="mean")``."""
    return float((-log_probs[np.arange(len(labels)), labels]).mean())


class SPNNTrainingStep:
    """Forward, backward and Adam update of one SPNN software model.

    The weights live in one flat complex :class:`Parameter` stepped by
    :class:`~repro.nn.optim.Adam`; :meth:`write_back` copies them into the
    model's layers.
    """

    def __init__(self, model: Sequential, lr: float):
        self.model = model
        self.linears, self.betas = _spnn_layout(model)
        self.num_classes = self.linears[-1].out_features
        self.shapes = [layer.weight.shape for layer in self.linears]
        offsets = np.cumsum([0] + [rows * cols for rows, cols in self.shapes])
        self.spans = list(zip(offsets[:-1], offsets[1:]))
        self.flat = Parameter(np.concatenate([layer.weight.data.ravel() for layer in self.linears]))
        self.flat.grad = np.empty_like(self.flat.data)
        self.optimizer = Adam([self.flat], lr=lr)
        self._grads = self._views(self.flat.grad)

    def _views(self, buffer: np.ndarray) -> List[np.ndarray]:
        return [buffer[start:stop].reshape(shape) for (start, stop), shape in zip(self.spans, self.shapes)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Log-probabilities of a batch (no intermediates kept)."""
        weights = self._views(self.flat.data)
        for weight, beta in zip(weights, self.betas):
            magnitude = np.abs(x @ weight.T)
            x = kernels.softplus(np, magnitude, beta, _THRESHOLD, out=magnitude)
        z = x @ weights[-1].T
        return kernels.log_softmax(np, (z * np.conj(z)).real)

    def step(self, x: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        """One Adam step on a minibatch; returns ``(loss, log_probs)``.

        A non-finite loss takes no step: the weights stay as they were.
        """
        weights = self._views(self.flat.data)
        inputs, outputs, magnitudes = [], [], []
        for weight, beta in zip(weights, self.betas):
            z = x @ weight.T
            magnitude = np.abs(z)
            inputs.append(x)
            outputs.append(z)
            magnitudes.append(magnitude)
            x = kernels.softplus(np, magnitude, beta, _THRESHOLD)
        z = x @ weights[-1].T
        inputs.append(x)
        log_probs = kernels.log_softmax(np, (z * np.conj(z)).real)
        loss = _nll(log_probs, labels)
        if not np.isfinite(loss):
            return loss, log_probs

        inv_n = 1.0 / len(labels)
        grad = np.exp(log_probs)
        grad *= inv_n
        grad[np.arange(len(labels)), labels] -= inv_n
        grad_z = 2.0 * grad * z
        for index in range(len(weights) - 1, -1, -1):
            self._grads[index][...] = (np.conj(inputs[index].T) @ grad_z).T
            if index == 0:
                break
            grad_h = np.real(grad_z @ np.conj(weights[index]))
            magnitude, beta = magnitudes[index - 1], self.betas[index - 1]
            scaled = magnitude if beta == 1.0 else magnitude * beta
            saturated = scaled > _THRESHOLD
            if saturated.any():
                sig = np.where(saturated, 1.0, 1.0 / (1.0 + np.exp(-np.minimum(scaled, _THRESHOLD))))
            else:
                sig = 1.0 / (1.0 + np.exp(-scaled))
            grad_z = grad_h * sig * outputs[index - 1] / np.maximum(magnitude, _ABS_EPS)
        self.optimizer.step()
        return loss, log_probs

    def evaluate(self, features: np.ndarray, labels: np.ndarray, batch_size: int) -> Tuple[float, float]:
        """``(mean_loss, accuracy)`` over a held-out set, in batches."""
        self.model.eval()
        loss_avg, acc_avg = RunningAverage(), RunningAverage()
        for batch_x, batch_y in iterate_minibatches(features, labels, batch_size, shuffle=False):
            log_probs = self.forward(batch_x)
            loss_avg.update(_nll(log_probs, batch_y), weight=len(batch_y))
            acc_avg.update(top1_accuracy(log_probs, batch_y), weight=len(batch_y))
        return loss_avg.value, acc_avg.value

    def write_back(self) -> None:
        """Copy the trained weights into the model's layers."""
        for layer, weight in zip(self.linears, self._views(self.flat.data)):
            layer.weight.data = weight.copy()


def train_spnn(
    model: Sequential,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    val_features: Optional[np.ndarray] = None,
    val_labels: Optional[np.ndarray] = None,
    rng: RNGLike = None,
) -> TrainingHistory:
    """Train ``model`` in place with Adam + cross-entropy; return the history.

    Byte-equal to ``Trainer(model, Adam(model.parameters(), lr=lr),
    config=TrainerConfig(epochs=epochs, batch_size=batch_size),
    rng=rng).fit(features, labels, val_features, val_labels)``: the same
    shuffles, per-epoch validation, history and divergence error.
    """
    gen = ensure_rng(rng)
    step = SPNNTrainingStep(model, lr)
    features, labels = _features(features), _labels(labels, step.num_classes)
    validate = val_features is not None and val_labels is not None
    if validate:
        val_features = _features(val_features)
        val_labels = _labels(val_labels, step.num_classes)
    history = TrainingHistory()
    try:
        for epoch in range(epochs):
            model.train()
            loss_avg, acc_avg = RunningAverage(), RunningAverage()
            for batch_x, batch_y in iterate_minibatches(features, labels, batch_size, rng=gen):
                loss, log_probs = step.step(batch_x, batch_y)
                check_finite_loss(loss, epoch + 1)
                loss_avg.update(loss, weight=len(batch_y))
                acc_avg.update(top1_accuracy(log_probs, batch_y), weight=len(batch_y))
            train_loss, train_acc = loss_avg.value, acc_avg.value
            val_loss, val_acc = step.evaluate(val_features, val_labels, batch_size) if validate else (None, None)
            history.record(train_loss, train_acc, val_loss, val_acc)
            check_finite_loss(train_loss, epoch + 1)
    finally:
        step.write_back()
    return history
