"""Parallel yield study: sharded Monte Carlo + the §I yield motivation.

Demonstrates the execution layer end to end:

1. train + compile the paper's 16-16-16-10 SPNN (small corpus for speed),
2. sweep the uncertainty level and estimate the parametric yield at each,
   sharding the 1000-realization Monte Carlo runs across worker processes,
3. verify the bit-identity guarantee: the sharded samples equal the serial
   samples exactly, so worker count is purely a wall-clock knob.

Run with:  python examples/parallel_yield_study.py
CLI twin:  spnn-repro yield --smoke --workers 2
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import yield_sweep
from repro.execution import available_workers
from repro.onn import SPNNTrainingConfig, build_trained_spnn

SIGMAS = (0.0, 0.01, 0.025, 0.05, 0.1)
ITERATIONS = 200  # the paper uses 1000; reduced so the example stays snappy


def main() -> None:
    print("training + compiling the SPNN (small corpus)...")
    task = build_trained_spnn(SPNNTrainingConfig(num_train=800, num_test=250, epochs=30))

    workers = min(4, available_workers())
    print(f"running the yield sweep serially and with {workers} worker(s)...")

    start = time.perf_counter()
    serial = yield_sweep(
        task.spnn, task.test_features, task.test_labels,
        sigmas=SIGMAS, iterations=ITERATIONS, rng=13, workers=1,
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = yield_sweep(
        task.spnn, task.test_features, task.test_labels,
        sigmas=SIGMAS, iterations=ITERATIONS, rng=13, workers=workers,
    )
    sharded_seconds = time.perf_counter() - start

    for sigma in SIGMAS:
        assert np.array_equal(serial.accuracy_samples[sigma], sharded.accuracy_samples[sigma])
    print(
        f"bit-identical samples confirmed; serial {serial_seconds:.1f}s, "
        f"{workers} workers {sharded_seconds:.1f}s"
    )

    print()
    print(sharded.report())


if __name__ == "__main__":
    main()
