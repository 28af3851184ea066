"""Noise-aware training benchmark: robustness recovery plus training speed.

Runs the EXP 3 smoke configuration (baseline and noise-aware training on
identical data/init/batch order, then the Monte Carlo evaluation sweep) and
asserts the subsystem's load-bearing properties:

* **recovery** — the noise-aware model's mean Monte Carlo hardware accuracy
  at the trained sigma beats the baseline model's by at least
  ``REPRO_ROBUST_RECOVERY_FLOOR`` (default 5 percentage points), without
  giving up nominal accuracy;
* **speed** — the optimized noise-aware step (incremental recompilation +
  window-amortized draws) is at least
  ``REPRO_NOISE_STEP_SPEEDUP_FLOOR`` times (default 3x) faster than the
  original per-step-draw, from-scratch-recompile path at the same smoke
  configuration;

and reports the wall-clock cost of the trainings so regressions of the
injected-noise step show up next to the accuracy numbers.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.experiments.exp3_robust_training import (
    BASELINE,
    robust_label,
    run_exp3,
    train_baseline_model,
    train_noise_aware_model,
)
from repro.experiments.registry import get_experiment
from repro.nn.optim import Adam
from repro.nn.trainer import TrainerConfig
from repro.onn.builder import build_software_model, prepare_feature_sets
from repro.training import (
    NoiseAwareTrainer,
    NoiseInjector,
    PerturbationSchedule,
)
from repro.utils.rng import ensure_rng
from repro.variation.models import UncertaintyModel

#: Required mean-accuracy recovery (fraction) at the trained sigma.
ROBUST_RECOVERY_FLOOR = float(os.environ.get("REPRO_ROBUST_RECOVERY_FLOOR", "0.05"))

#: Maximum admissible loss of nominal (variation-free) accuracy.
NOMINAL_ACCURACY_TOLERANCE = 0.03

#: Wall-clock ceiling for the noise-aware smoke training (seconds); shared
#: CI runners can relax it, same idiom as the other timing floors.
ROBUST_TRAINING_SECONDS_CEILING = float(
    os.environ.get("REPRO_ROBUST_TRAINING_SECONDS_CEILING", "120")
)

#: Required per-step speedup of the optimized noise-aware path over the
#: original (PR 3) path.  The acceptance target is 3x (measured ~3.5-4x on
#: an unloaded core); shared CI runners relax it through the env knob.
NOISE_STEP_SPEEDUP_FLOOR = float(os.environ.get("REPRO_NOISE_STEP_SPEEDUP_FLOOR", "3.0"))

#: Epochs of pure full-sigma injection timed per path in the speed scenario.
#: Long enough that the one-time initial compile (identical for both paths)
#: does not dominate the optimized path's per-step average.
SPEEDUP_TIMING_EPOCHS = 8


def test_noise_aware_training_recovers_accuracy(bench_workers):
    """EXP 3 smoke: recovery floor at the trained sigma, any worker count."""
    config = get_experiment("robust").smoke_config
    if bench_workers:
        config = dataclasses.replace(config, workers=bench_workers)
    result = run_exp3(config)

    sigma = config.train_sigmas[0]
    key = robust_label(sigma)
    baseline_mean = result.mean_accuracy(BASELINE, sigma)
    robust_mean = result.mean_accuracy(key, sigma)
    recovery = robust_mean - baseline_mean
    print(
        f"\nEXP 3 smoke @ sigma {sigma}: baseline {100 * baseline_mean:.2f}%, "
        f"noise-aware {100 * robust_mean:.2f}%, recovery {100 * recovery:+.2f}%"
    )
    assert recovery >= ROBUST_RECOVERY_FLOOR, (
        f"noise-aware hardware accuracy must beat the baseline by "
        f">= {100 * ROBUST_RECOVERY_FLOOR:.0f}% at the trained sigma, "
        f"measured {100 * recovery:+.2f}%"
    )
    assert (
        result.nominal_accuracy[key]
        >= result.nominal_accuracy[BASELINE] - NOMINAL_ACCURACY_TOLERANCE
    ), "hardening must not sacrifice nominal accuracy"


def _timed_noise_aware_fit(config, train_x, train_y, epochs, optimized):
    """Seconds per training step of pure full-sigma noise-aware epochs.

    Both paths share data, initialization and batch order; the constant
    full-sigma schedule makes every step a noise-injected one, so the
    measured ratio is the per-step cost of the injection machinery itself
    (sampling + recompilation + the K-draw forward/backward), not diluted
    by the noise-free epochs of the curriculum.
    """
    training = config.training
    gen = ensure_rng(training.seed)
    model = build_software_model(training.architecture, rng=gen)
    injector = NoiseInjector(
        UncertaintyModel.for_case(config.case, config.train_sigmas[0]),
        draws=config.draws,
        recompile_every=config.recompile_every,
        scheme=training.architecture.scheme,
        rng=config.noise_seed,
        incremental=optimized,
        reuse_draws=optimized,
    )
    trainer = NoiseAwareTrainer(
        model,
        Adam(model.parameters(), lr=training.learning_rate),
        injector,
        schedule=PerturbationSchedule.constant(1.0),
        config=TrainerConfig(epochs=epochs, batch_size=training.batch_size),
        rng=gen,
    )
    start = time.perf_counter()
    trainer.fit(train_x, train_y)
    elapsed = time.perf_counter() - start
    steps = epochs * -(-len(train_x) // training.batch_size)
    return elapsed / steps


def test_noise_aware_step_speedup():
    """Tentpole floor: optimized noise-aware steps >= 3x the PR 3 path.

    The optimized path flips the injector's ``incremental`` (warm-started
    SVD + in-place Clements retune with exact fallback) and ``reuse_draws``
    (one K-draw batch per recompile window) knobs — exactly what EXP 3
    runs with.  Both paths compute the same
    expected-loss estimator; only the wall clock differs.
    """
    config = get_experiment("robust").smoke_config
    train_x, train_y, _, _ = prepare_feature_sets(config.training)

    # Interleaved warmup (JIT-free Python, but caches/allocator state still
    # matter on shared runners), then one timed fit per path.
    _timed_noise_aware_fit(config, train_x, train_y, 1, optimized=True)
    _timed_noise_aware_fit(config, train_x, train_y, 1, optimized=False)
    baseline_step = _timed_noise_aware_fit(
        config, train_x, train_y, SPEEDUP_TIMING_EPOCHS, optimized=False
    )
    optimized_step = _timed_noise_aware_fit(
        config, train_x, train_y, SPEEDUP_TIMING_EPOCHS, optimized=True
    )
    speedup = baseline_step / optimized_step
    print(
        f"\nnoise-aware step: original {1e3 * baseline_step:.2f}ms, "
        f"optimized {1e3 * optimized_step:.2f}ms ({speedup:.2f}x, "
        f"K={config.draws} draws, recompile every {config.recompile_every} steps)"
    )
    assert speedup >= NOISE_STEP_SPEEDUP_FLOOR, (
        f"optimized noise-aware step must be >= {NOISE_STEP_SPEEDUP_FLOOR:.1f}x faster "
        f"than the original path, measured {speedup:.2f}x"
    )


def test_noise_aware_training_cost_report():
    """Wall-clock of noise-aware vs. plain training at smoke scale.

    No floor is asserted (the K-draw estimator plus periodic recompilation
    is legitimately more expensive than the plain loop); the printed ratio
    is the regression-tracking artifact.
    """
    config = get_experiment("robust").smoke_config
    train_x, train_y, _, _ = prepare_feature_sets(config.training)

    start = time.perf_counter()
    train_baseline_model(train_x, train_y, config)
    baseline_seconds = time.perf_counter() - start

    start = time.perf_counter()
    train_noise_aware_model(train_x, train_y, config, config.train_sigmas[0])
    robust_seconds = time.perf_counter() - start

    print(
        f"\ntraining cost: baseline {baseline_seconds:.2f}s, "
        f"noise-aware {robust_seconds:.2f}s "
        f"(x{robust_seconds / max(baseline_seconds, 1e-9):.1f}, "
        f"K={config.draws} draws, recompile every {config.recompile_every} steps)"
    )
    assert robust_seconds < ROBUST_TRAINING_SECONDS_CEILING, (
        "noise-aware smoke training must stay laptop-friendly "
        f"(measured {robust_seconds:.1f}s, ceiling {ROBUST_TRAINING_SECONDS_CEILING:.0f}s)"
    )
