"""Variation-aware training: harden the SPNN against hardware uncertainties.

The characterization experiments (EXP 1 / EXP 2 / yield) *measure* how SPNN
accuracy collapses under fabrication and thermal variations; this subsystem
*mitigates* the collapse by injecting hardware-calibrated perturbations into
the software training loop:

* :class:`NoiseInjector` — compiles the moving weights onto photonic
  hardware and draws stacked effective-weight offsets from the
  :mod:`repro.variation` models,
* :class:`PerturbationSchedule` — constant / linear-ramp / curriculum
  scaling of the injected sigma over the epochs,
* :class:`NoiseAwareTrainer` — a :class:`repro.nn.Trainer` subclass whose
  training step averages the loss over ``K`` noise draws (vectorized along
  a leading batch axis).

The injector's opt-in performance modes (``incremental`` warm-started
recompilation, ``reuse_draws`` window-amortized draws) are what make
noise-aware training cost a small multiple — not ~25x — of the plain loop;
see :class:`NoiseInjector` and the ``benchmarks/bench_noise_aware_training``
speed section.

The end-to-end workload lives in
:mod:`repro.experiments.exp3_robust_training` (CLI: ``spnn-repro robust``).
"""

from .injector import NoiseInjector
from .noise_aware import (
    NoiseAwareTrainer,
    complex_linear_modules,
    forward_with_weight_offsets,
    make_noise_aware_trainer,
)
from .schedule import SCHEDULE_KINDS, PerturbationSchedule

__all__ = [
    "NoiseInjector",
    "PerturbationSchedule",
    "SCHEDULE_KINDS",
    "NoiseAwareTrainer",
    "make_noise_aware_trainer",
    "forward_with_weight_offsets",
    "complex_linear_modules",
]
