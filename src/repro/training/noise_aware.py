"""Noise-aware (variation-injected) training of the SPNN software model.

Standard training optimizes the loss of the *ideal* weight matrices; the
paper then shows that the compiled hardware realizing those matrices under
fabrication/thermal variations loses most of its accuracy.
:class:`NoiseAwareTrainer` closes that gap by optimizing the **expected loss
under variations**: every minibatch is evaluated through ``K`` perturbed
copies of the effective weight matrices,

.. math::

    L = \\frac{1}{K} \\sum_{k=1}^{K} \\ell\\bigl(f(x; W + \\Delta W_k), y\\bigr),

where the offsets :math:`\\Delta W_k` come from a
:class:`~repro.training.injector.NoiseInjector` (hardware-calibrated draws
of the :mod:`repro.variation` models) and a
:class:`~repro.training.schedule.PerturbationSchedule` scales the injected
sigma per epoch.  The ``K`` draws ride a leading batch axis through one
vectorized forward/backward pass — the same layout the batched Monte Carlo
engine established — and the gradients of all draws accumulate into the
single shared weight (the noise is a constant in the graph, so this is the
straight-through estimator of the expected-loss gradient).

The trainer subclasses :class:`repro.nn.trainer.Trainer` and overrides only
the :meth:`~repro.nn.trainer.Trainer.training_step` hook: epoch loop,
shuffling, gradient clipping, history, early stopping and evaluation are
shared with ordinary software training.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..autograd.tensor import Tensor, as_tensor
from ..exceptions import ConfigurationError, ShapeError
from ..nn.layers import ComplexLinear
from ..nn.module import Module, Sequential
from ..nn.optim import Optimizer
from ..nn.trainer import Trainer, TrainerConfig
from ..observability.recorder import active as _active_recorder
from ..utils.rng import RNGLike
from .injector import NoiseInjector
from .schedule import PerturbationSchedule


def complex_linear_modules(model: Sequential) -> List[ComplexLinear]:
    """The :class:`ComplexLinear` modules of a sequential model, in forward order."""
    if not isinstance(model, Sequential):
        raise ConfigurationError(
            f"noise-aware training requires a Sequential model (ordered layers), got {type(model)!r}"
        )
    return [module for module in model if isinstance(module, ComplexLinear)]


def forward_with_weight_offsets(
    model: Sequential,
    features: np.ndarray,
    offsets: Sequence[np.ndarray],
) -> Tensor:
    """Forward pass with additive per-draw offsets on every complex weight.

    Parameters
    ----------
    model:
        Sequential software model (the paper's SPNN pipeline).
    features:
        Minibatch of shape ``(batch, in_features)``.
    offsets:
        One ``(K, out, in)`` complex array per :class:`ComplexLinear`
        module, added to the live weight as a constant (gradients flow to
        the weight, not the noise).

    Returns
    -------
    Tensor
        Outputs of shape ``(K, batch, classes)`` — draw ``k`` is the model
        evaluated with every weight ``W_l`` replaced by ``W_l +
        offsets[l][k]``.
    """
    linears = complex_linear_modules(model)
    offsets = list(offsets)
    if len(offsets) != len(linears):
        raise ShapeError(
            f"expected {len(linears)} offset arrays (one per ComplexLinear), got {len(offsets)}"
        )
    draws = None
    for index, (module, offset) in enumerate(zip(linears, offsets)):
        offset = np.asarray(offset)
        expected = (module.out_features, module.in_features)
        if offset.ndim != 3 or offset.shape[1:] != expected:
            raise ShapeError(
                f"offsets[{index}] must have shape (K, {expected[0]}, {expected[1]}), got {offset.shape}"
            )
        if draws is None:
            draws = offset.shape[0]
        elif offset.shape[0] != draws:
            raise ShapeError(
                f"offsets[{index}] has {offset.shape[0]} draws, expected {draws}"
            )

    activations = as_tensor(features)
    linear_index = 0
    for module in model:
        if isinstance(module, ComplexLinear):
            # (K, out, in) -> (K, in, out); x @ W_eff^T broadcasts the
            # minibatch over the K draws in one stacked matmul, and the
            # matmul backward un-broadcasts the weight gradient by summing
            # over K — exactly the expected-loss gradient estimator.
            effective = module.weight + Tensor(offsets[linear_index])
            activations = activations @ effective.transpose((0, 2, 1))
            if module.bias is not None:
                activations = activations + module.bias
            linear_index += 1
        else:
            activations = module(activations)
    return activations


class NoiseAwareTrainer(Trainer):
    """Trains a software model against hardware-calibrated weight noise.

    Parameters
    ----------
    model:
        Sequential software model (its :class:`ComplexLinear` layers are
        the ones that receive injected noise).
    optimizer:
        Optimizer bound to ``model.parameters()``.
    injector:
        Source of the per-step weight offsets (variation model, draw count,
        recompile cadence).
    schedule:
        Per-epoch sigma scaling; defaults to constant full-sigma injection.
    loss_fn, config, rng:
        As in :class:`~repro.nn.trainer.Trainer`.

    The injector's ``reuse_draws``/``incremental`` modes choose which
    equally valid noise the estimator sees.  An injector belongs to one
    trainer: it carries the noise RNG stream and the snapshot/draw caches.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        injector: NoiseInjector,
        schedule: Optional[PerturbationSchedule] = None,
        loss_fn=None,
        config: Optional[TrainerConfig] = None,
        rng: RNGLike = None,
    ):
        super().__init__(model, optimizer, loss_fn=loss_fn, config=config, rng=rng)
        self._linears = complex_linear_modules(model)  # validates the model shape
        self.injector = injector
        self.schedule = schedule if schedule is not None else PerturbationSchedule.constant()
        if not isinstance(self.loss_fn, Module) and not callable(self.loss_fn):  # pragma: no cover
            raise ConfigurationError("loss_fn must be callable")

    # ------------------------------------------------------------------ #
    @property
    def current_sigma_scale(self) -> float:
        """The schedule's sigma scale for the epoch currently training."""
        return self.schedule.scale(self.epoch, self.config.epochs)

    def _weights(self) -> List[np.ndarray]:
        return [module.weight.data for module in self._linears]

    def _progress_extra(self) -> dict:
        return {
            "sigma_scale": self.current_sigma_scale,
            "exact_recompiles": self.injector.exact_recompiles,
            "incremental_recompiles": self.injector.incremental_recompiles,
        }

    def training_step(self, batch_x: np.ndarray, batch_y: np.ndarray):
        """Expected loss over ``K`` hardware-noise draws of this minibatch."""
        with _active_recorder().span(
            "train/noise_step", epoch=self.epoch, batch=len(batch_y)
        ) as span:
            offsets = self.injector.weight_offsets(self._weights(), self.current_sigma_scale)
            if offsets is None:
                # Scheduled-off epochs (e.g. the start of a ramp) fall back to
                # the ordinary noise-free step.
                span.set("draws", 0)
                return super().training_step(batch_x, batch_y)
            outputs = forward_with_weight_offsets(self.model, batch_x, offsets)
            draws, batch = outputs.shape[0], outputs.shape[1]
            span.set("draws", int(draws))
            flat = outputs.reshape(draws * batch, outputs.shape[-1])
            tiled_targets = np.tile(np.asarray(batch_y, dtype=np.int64), draws)
            loss = self.loss_fn(flat, tiled_targets)
            return loss, flat, tiled_targets
