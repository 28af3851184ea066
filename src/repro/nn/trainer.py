"""Mini-batch training loop for the SPNN software model.

The paper trains the complex-valued network in software (with a
cross-entropy loss) and then maps the trained weight matrices onto MZI
meshes.  :class:`Trainer` performs that software training step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..autograd.tensor import Tensor
from ..exceptions import TrainingError
from ..observability.progress import emit_epoch
from ..utils.rng import RNGLike, ensure_rng
from .losses import CrossEntropyLoss
from .metrics import RunningAverage, TrainingHistory, top1_accuracy
from .module import Module
from .optim import Optimizer

#: Early-stop hook signature: receives the history accumulated so far
#: (including the epoch just finished) and returns ``True`` to stop training.
EarlyStopFn = Callable[[TrainingHistory], bool]


def iterate_minibatches(
    features: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    shuffle: bool = True,
    rng: RNGLike = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(batch_features, batch_targets)`` minibatches.

    The final partial batch is always yielded so every sample is seen once
    per epoch.
    """
    features = np.asarray(features)
    targets = np.asarray(targets)
    if len(features) != len(targets):
        raise TrainingError(f"features ({len(features)}) and targets ({len(targets)}) lengths differ")
    if len(features) == 0:
        raise TrainingError("cannot iterate over an empty dataset")
    if batch_size < 1:
        raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
    indices = np.arange(len(features))
    if shuffle:
        ensure_rng(rng).shuffle(indices)
    for start in range(0, len(indices), batch_size):
        batch = indices[start : start + batch_size]
        yield features[batch], targets[batch]


def check_finite_loss(loss: float, epoch: int) -> None:
    """Raise :class:`TrainingError` on a non-finite loss (``epoch`` counts from 1).

    The trainers check every minibatch loss before its backward pass, so a
    diverging run stops at its first bad minibatch with finite weights,
    and then every epoch's mean.
    """
    if not np.isfinite(loss):
        raise TrainingError(f"training diverged at epoch {epoch} (loss={loss})")


@dataclass
class TrainerConfig:
    """Hyper-parameters for :class:`Trainer`."""

    epochs: int = 10
    batch_size: int = 64
    shuffle: bool = True
    log_every: int = 0  # 0 disables progress printing
    clip_grad_norm: Optional[float] = None


class Trainer:
    """Trains a :class:`Module` classifier with an :class:`Optimizer`.

    Parameters
    ----------
    model:
        The network; its output must be log-probabilities or logits
        compatible with ``loss_fn``.
    optimizer:
        Optimizer instance bound to ``model.parameters()``.
    loss_fn:
        Loss module/callable taking ``(outputs, targets)``.  Defaults to
        cross-entropy over log-probabilities (the paper's setup, where the
        model ends with LogSoftMax).
    config:
        Loop hyper-parameters.
    rng:
        Seed controlling batch shuffling.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Optional[Callable] = None,
        config: Optional[TrainerConfig] = None,
        rng: RNGLike = None,
    ):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss(from_log_probs=True)
        self.config = config if config is not None else TrainerConfig()
        self.rng = ensure_rng(rng)
        self.history = TrainingHistory()
        #: Index of the epoch currently being trained (set by :meth:`fit`);
        #: subclasses may read it inside :meth:`training_step` (e.g. to
        #: evaluate a perturbation schedule).
        self.epoch = 0

    # ------------------------------------------------------------------ #
    def _clip_gradients(self) -> None:
        max_norm = self.config.clip_grad_norm
        if max_norm is None:
            return
        total = 0.0
        for param in self.optimizer.parameters:
            if param.grad is not None:
                total += float(np.sum(np.abs(param.grad) ** 2))
        norm = np.sqrt(total)
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.optimizer.parameters:
                if param.grad is not None:
                    param.grad = param.grad * scale

    def _progress_extra(self) -> dict:
        """Extra fields for the structured per-epoch progress record.

        Subclasses append what only they know — the noise-aware trainer
        reports injector recompile counters and the scheduled sigma scale.
        """
        return {}

    def training_step(self, batch_x: np.ndarray, batch_y: np.ndarray) -> Tuple[Tensor, Tensor, np.ndarray]:
        """Forward pass + loss for one minibatch.

        Returns ``(loss, outputs, targets)`` where ``targets`` are the labels
        matching ``outputs`` row for row.  Subclasses override this single
        hook to change how the loss is computed (e.g. noise-injected
        training averages the loss over several perturbation draws and
        returns the correspondingly tiled targets) while reusing the
        epoch loop, gradient clipping and bookkeeping of the base class.
        """
        outputs = self.model(Tensor(batch_x))
        loss = self.loss_fn(outputs, batch_y)
        return loss, outputs, batch_y

    def train_epoch(self, features: np.ndarray, targets: np.ndarray) -> Tuple[float, float]:
        """Run one epoch; returns ``(mean_loss, mean_accuracy)``.

        Raises :class:`TrainingError` at the first non-finite minibatch
        loss, before its backward pass and optimizer step.
        """
        self.model.train()
        loss_avg = RunningAverage()
        acc_avg = RunningAverage()
        for batch_x, batch_y in iterate_minibatches(
            features, targets, self.config.batch_size, shuffle=self.config.shuffle, rng=self.rng
        ):
            self.optimizer.zero_grad()
            loss, outputs, step_targets = self.training_step(batch_x, batch_y)
            loss_value = float(np.real(loss.item()))
            check_finite_loss(loss_value, self.epoch + 1)
            loss.backward()
            self._clip_gradients()
            self.optimizer.step()
            loss_avg.update(loss_value, weight=len(batch_y))
            acc_avg.update(top1_accuracy(outputs, step_targets), weight=len(batch_y))
        return loss_avg.value, acc_avg.value

    def evaluate(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        batch_size: Optional[int] = None,
        shuffle: bool = False,
        rng: RNGLike = None,
        max_batches: Optional[int] = None,
    ) -> Tuple[float, float]:
        """Return ``(mean_loss, accuracy)`` on a held-out set (no updates).

        Parameters
        ----------
        features, targets:
            Evaluation set.
        batch_size:
            Evaluation batch size (defaults to the training batch size).
        shuffle, rng:
            Seedable batch order: with ``shuffle=True`` the batches are
            drawn in a reproducible random order controlled by ``rng`` —
            combined with ``max_batches`` this evaluates a seeded random
            subsample (cheap periodic validation on large sets).
        max_batches:
            Stop after this many batches (``None`` evaluates everything).
        """
        self.model.eval()
        batch_size = batch_size or self.config.batch_size
        if max_batches is not None and max_batches < 1:
            raise TrainingError(f"max_batches must be >= 1, got {max_batches}")
        loss_avg = RunningAverage()
        acc_avg = RunningAverage()
        for index, (batch_x, batch_y) in enumerate(
            iterate_minibatches(features, targets, batch_size, shuffle=shuffle, rng=rng)
        ):
            if max_batches is not None and index >= max_batches:
                break
            outputs = self.model(Tensor(batch_x))
            loss = self.loss_fn(outputs, batch_y)
            loss_avg.update(float(np.real(loss.item())), weight=len(batch_y))
            acc_avg.update(top1_accuracy(outputs, batch_y), weight=len(batch_y))
        return loss_avg.value, acc_avg.value

    def fit(
        self,
        train_features: np.ndarray,
        train_targets: np.ndarray,
        val_features: Optional[np.ndarray] = None,
        val_targets: Optional[np.ndarray] = None,
        early_stop: Optional[EarlyStopFn] = None,
    ) -> TrainingHistory:
        """Train for ``config.epochs`` epochs and return the history.

        Parameters
        ----------
        train_features, train_targets:
            Training set.
        val_features, val_targets:
            Optional held-out set evaluated after every epoch.
        early_stop:
            Optional hook called after every recorded epoch with the
            :class:`TrainingHistory` so far; returning ``True`` ends
            training immediately (the history stays truthful — it contains
            exactly the epochs that ran).
        """
        for epoch in range(self.config.epochs):
            self.epoch = epoch
            train_loss, train_acc = self.train_epoch(train_features, train_targets)
            if val_features is not None and val_targets is not None:
                val_loss, val_acc = self.evaluate(val_features, val_targets)
            else:
                val_loss, val_acc = None, None
            self.history.record(train_loss, train_acc, val_loss, val_acc)
            if self.config.log_every and (epoch + 1) % self.config.log_every == 0:
                message = f"epoch {epoch + 1:3d}: train loss {train_loss:.4f}, train acc {train_acc:.3f}"
                if val_acc is not None:
                    message += f", val acc {val_acc:.3f}"
                # Without a progress sink this prints ``message`` verbatim
                # (the historical behavior); with one, the structured record
                # goes to the sink instead.
                emit_epoch(
                    message,
                    epoch=epoch + 1,
                    train_loss=float(train_loss),
                    train_acc=float(train_acc),
                    val_loss=None if val_loss is None else float(val_loss),
                    val_acc=None if val_acc is None else float(val_acc),
                    lr=getattr(self.optimizer, "lr", None),
                    **self._progress_extra(),
                )
            check_finite_loss(train_loss, epoch + 1)
            if early_stop is not None and early_stop(self.history):
                break
        return self.history
