"""Classification metrics and running averages used during training."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..autograd.tensor import Tensor


def top1_accuracy(outputs, targets) -> float:
    """Fraction of samples whose arg-max output matches the target class."""
    data = outputs.data if isinstance(outputs, Tensor) else np.asarray(outputs)
    targets = np.asarray(targets, dtype=np.int64)
    predictions = np.argmax(data, axis=-1)
    if predictions.shape != targets.shape:
        raise ValueError(f"prediction shape {predictions.shape} does not match targets {targets.shape}")
    if targets.size == 0:
        raise ValueError("cannot compute accuracy on an empty batch")
    return float(np.mean(predictions == targets))


@dataclass
class RunningAverage:
    """Numerically simple running mean used for per-epoch loss tracking."""

    total: float = 0.0
    count: int = 0

    def update(self, value: float, weight: int = 1) -> None:
        self.total += float(value) * weight
        self.count += int(weight)

    @property
    def value(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def reset(self) -> None:
        self.total = 0.0
        self.count = 0


@dataclass
class TrainingHistory:
    """Per-epoch record of training/validation loss and accuracy."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    def record(self, train_loss: float, train_accuracy: float, val_loss: float | None = None, val_accuracy: float | None = None) -> None:
        self.train_loss.append(float(train_loss))
        self.train_accuracy.append(float(train_accuracy))
        if val_loss is not None:
            self.val_loss.append(float(val_loss))
        if val_accuracy is not None:
            self.val_accuracy.append(float(val_accuracy))

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else float("nan")

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "train_loss": list(self.train_loss),
            "train_accuracy": list(self.train_accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }
