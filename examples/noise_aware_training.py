"""Noise-aware training: harden the SPNN against fabrication variations.

Demonstrates the variation-aware training subsystem end to end:

1. prepare the paper's FFT-feature dataset once,
2. train a **baseline** model with the ordinary software loop and a
   **noise-aware** model with :class:`repro.training.NoiseAwareTrainer`
   (identical data, init and batch order — the only difference is the
   injected hardware noise, scheduled with a sigma curriculum),
3. compile both onto MZI meshes and compare their Monte Carlo hardware
   accuracy at the trained sigma,
4. show a custom schedule and a K-draw sweep for further exploration.

Run with:  python examples/noise_aware_training.py
CLI twin:  spnn-repro robust --smoke
"""

from __future__ import annotations

import time

import numpy as np

from repro.nn import Adam, Trainer, TrainerConfig
from repro.onn import (
    SPNNTrainingConfig,
    build_software_model,
    monte_carlo_accuracy,
    prepare_feature_sets,
    spnn_from_model,
)
from repro.training import (
    NoiseAwareTrainer,
    NoiseInjector,
    PerturbationSchedule,
)
from repro.utils.rng import ensure_rng
from repro.variation import UncertaintyModel

TRAIN_SIGMA = 0.0075  # normalized component sigma to harden against
DRAWS = 8             # perturbation draws per minibatch (expected-loss estimator)
ITERATIONS = 100      # Monte Carlo iterations of the final evaluation
CONFIG = SPNNTrainingConfig(num_train=800, num_test=250, epochs=40)


def main() -> None:
    print("preparing the FFT-feature dataset...")
    train_x, train_y, test_x, test_y = prepare_feature_sets(CONFIG)
    architecture = CONFIG.architecture
    trainer_config = TrainerConfig(epochs=CONFIG.epochs, batch_size=CONFIG.batch_size)

    # ------------------------------------------------------------------ #
    # baseline: the paper's ordinary software training
    # ------------------------------------------------------------------ #
    print("training the baseline model...")
    gen = ensure_rng(CONFIG.seed)
    baseline = build_software_model(architecture, rng=gen)
    Trainer(
        baseline, Adam(baseline.parameters(), lr=CONFIG.learning_rate),
        config=trainer_config, rng=gen,
    ).fit(train_x, train_y)

    # ------------------------------------------------------------------ #
    # noise-aware: same seed, loss averaged over K hardware-noise draws
    # ------------------------------------------------------------------ #
    print(f"training the noise-aware model (sigma {TRAIN_SIGMA}, K={DRAWS})...")
    # The two performance knobs (both opt-in, what EXP 3 runs with):
    #   incremental — warm-start the SVD/Clements snapshot in place
    #     instead of decomposing from scratch (exact fallback on drift),
    #   reuse_draws — draw the K offset batches once per recompile window
    #     and reuse them across its steps (schedule-aware rescaling).
    # Together they cut the noise-aware step ~3.5-4x at this scale; drop
    # them (the defaults) for the original bit-stable per-step-draw path.
    injector = NoiseInjector(
        UncertaintyModel.both(TRAIN_SIGMA),
        draws=DRAWS,
        recompile_every=5,  # recompile the hardware snapshot every 5 steps
        rng=12345,
        incremental=True,
        reuse_draws=True,
    )
    # Curriculum: learn the task noise-free first, then harden at 50% and
    # 100% of the target sigma.  Also try PerturbationSchedule.linear_ramp()
    # or PerturbationSchedule.constant() here.
    schedule = PerturbationSchedule.curriculum((0.0, 0.0, 0.5, 1.0))
    print(
        f"  sigma scale steps at epochs {schedule.change_epochs(CONFIG.epochs)} "
        "(each boundary re-draws/rescales the amortized noise cache)"
    )
    gen = ensure_rng(CONFIG.seed)
    robust = build_software_model(architecture, rng=gen)
    start = time.perf_counter()
    NoiseAwareTrainer(
        robust, Adam(robust.parameters(), lr=CONFIG.learning_rate),
        injector, schedule=schedule, config=trainer_config, rng=gen,
    ).fit(train_x, train_y)
    print(f"  noise-aware training took {time.perf_counter() - start:.1f}s")

    # ------------------------------------------------------------------ #
    # characterize both as hardware, exactly like EXP 1
    # ------------------------------------------------------------------ #
    print(f"evaluating Monte Carlo hardware accuracy at sigma {TRAIN_SIGMA}...")
    model = UncertaintyModel.both(TRAIN_SIGMA)
    results = {}
    for name, software in (("baseline", baseline), ("noise-aware", robust)):
        spnn = spnn_from_model(software, architecture)
        nominal = spnn.accuracy(test_x, test_y, use_hardware=True)
        samples = monte_carlo_accuracy(
            spnn, test_x, test_y, model, iterations=ITERATIONS, rng=99
        )
        results[name] = (nominal, samples)
        print(
            f"  {name:12s} nominal {100 * nominal:6.2f}%   "
            f"under variations {100 * samples.mean():6.2f}% "
            f"(+/- {100 * samples.std():.2f}%)"
        )

    recovery = results["noise-aware"][1].mean() - results["baseline"][1].mean()
    print(f"\naccuracy recovered by noise-aware training: {100 * recovery:+.2f}%")
    print("full experiment (several sigmas + yield sweep): spnn-repro robust --smoke")


if __name__ == "__main__":
    main()
