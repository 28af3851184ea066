"""Loss modules for training the SPNN software model."""

from __future__ import annotations

import numpy as np

from ..autograd import functional as F
from ..autograd.tensor import Tensor
from .module import Module


class CrossEntropyLoss(Module):
    """Cross-entropy between logits and integer class targets.

    Matches the paper's training setup (§III-D): the network ends with a
    LogSoftMax, so this module accepts either raw logits
    (``from_log_probs=False``) or already-log-softmaxed outputs
    (``from_log_probs=True``).
    """

    def __init__(self, from_log_probs: bool = False, reduction: str = "mean"):
        super().__init__()
        if reduction not in {"mean", "sum", "none"}:
            raise ValueError(f"unknown reduction {reduction!r}")
        self.from_log_probs = bool(from_log_probs)
        self.reduction = reduction

    def forward(self, outputs, targets) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        if self.from_log_probs:
            return F.nll_loss(outputs, targets, reduction=self.reduction)
        return F.cross_entropy(outputs, targets, reduction=self.reduction)
