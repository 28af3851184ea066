"""Micro-benchmarks of the core computational kernels.

These are plain performance benchmarks (not paper reproductions): the
Clements decomposition of a 16x16 unitary, perturbed mesh evaluation
(single and batched), and the Monte Carlo accuracy engine of the full SPNN
against its looped reference trial — the operations every experiment
in the paper loops over.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis.monte_carlo import MonteCarloRunner
from repro.mesh import MZIMesh, clements_decompose
from repro.onn import monte_carlo_accuracy
from repro.onn.inference import NetworkAccuracyTrial
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation import (
    UncertaintyModel,
    sample_mesh_perturbation,
    sample_mesh_perturbation_batch,
    sample_network_perturbation,
)

#: Monte Carlo iterations of the paper's experiments (and of the speedup scenario).
PAPER_MC_ITERATIONS = 1000

#: Required batched-vs-looped speedup.  The acceptance target is 5x (what a
#: quiet development machine measures with ~40% margin); CI smoke jobs on
#: shared runners override this down (wall-clock ratios are noisy there)
#: so the assertion stays a regression guard without flaking the pipeline.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SPEEDUP_FLOOR", "5.0"))


def test_clements_decompose_16(benchmark):
    unitary = random_unitary(16, rng=0)
    decomposition = benchmark(clements_decompose, unitary)
    assert decomposition.num_mzis == 120


def test_perturbed_mesh_matrix_16(benchmark):
    mesh = MZIMesh.from_unitary(random_unitary(16, rng=1))
    model = UncertaintyModel.both(0.05)
    perturbation = sample_mesh_perturbation(mesh, model, rng=2)
    matrix = benchmark(mesh.matrix, perturbation)
    assert matrix.shape == (16, 16)


def test_spnn_monte_carlo_trial(benchmark, spnn_task):
    """One EXP 1 Monte Carlo iteration: sample a network perturbation + evaluate accuracy."""
    model = UncertaintyModel.both(0.05)
    spnn = spnn_task.spnn
    features, labels = spnn_task.test_features, spnn_task.test_labels
    counter = {"seed": 0}

    def trial():
        counter["seed"] += 1
        perturbation = sample_network_perturbation(spnn.photonic_layers, model, counter["seed"])
        return spnn.accuracy(features, labels, perturbations=perturbation)

    accuracy = benchmark(trial)
    assert 0.0 <= accuracy <= 1.0


def test_perturbed_mesh_matrix_batch_16(benchmark):
    """Batched evaluation of 256 perturbed 16x16 mesh realizations at once."""
    mesh = MZIMesh.from_unitary(random_unitary(16, rng=1))
    model = UncertaintyModel.both(0.05)
    batch = sample_mesh_perturbation_batch(mesh, model, spawn_rngs(2, 256))
    matrices = benchmark(mesh.matrix_batch, batch)
    assert matrices.shape == (256, 16, 16)


def test_hardware_inference_throughput(benchmark, spnn_task):
    """Nominal hardware inference over the benchmark test set."""
    spnn = spnn_task.spnn
    features = spnn_task.test_features
    log_probs = benchmark(spnn.forward_hardware, features)
    assert log_probs.shape == (len(features), 10)
    assert np.allclose(np.exp(log_probs).sum(axis=-1), 1.0)


def test_spnn_monte_carlo_batched_1000(benchmark, spnn_task):
    """The paper-scale Monte Carlo scenario (B=1000) on the vectorized engine."""
    model = UncertaintyModel.both(0.05)
    spnn = spnn_task.spnn
    features, labels = spnn_task.test_features, spnn_task.test_labels

    accuracies = benchmark(
        monte_carlo_accuracy,
        spnn,
        features,
        labels,
        model,
        iterations=PAPER_MC_ITERATIONS,
        rng=0,
    )
    assert accuracies.shape == (PAPER_MC_ITERATIONS,)
    assert np.all((accuracies >= 0) & (accuracies <= 1))


def test_spnn_monte_carlo_batched_speedup(spnn_task):
    """Acceptance scenario: B=1000, paper architecture — batched vs looped.

    Uses an engine-dominated evaluation subset (64 samples) so the measured
    ratio reflects the per-iteration mesh-rebuild cost the vectorized path
    removes; the two paths must also agree sample for sample.
    """
    model = UncertaintyModel.both(0.05)
    spnn = spnn_task.spnn
    features = spnn_task.test_features[:64]
    labels = spnn_task.test_labels[:64]
    kwargs = dict(
        spnn=spnn, features=features, labels=labels, model=model,
        iterations=PAPER_MC_ITERATIONS, rng=7,
    )

    # Warm caches / lazy BLAS initialisation outside the measured windows.
    monte_carlo_accuracy(**{**kwargs, "iterations": 20})

    oracle = NetworkAccuracyTrial(spnn, features, labels, model)
    start = time.perf_counter()
    looped = MonteCarloRunner(iterations=PAPER_MC_ITERATIONS).run(oracle, rng=7).samples
    looped_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = monte_carlo_accuracy(**kwargs)
    batched_seconds = time.perf_counter() - start

    assert np.array_equal(looped, batched), "batched MC path must be bit-identical to the loop"
    speedup = looped_seconds / batched_seconds
    print(
        f"\nMC B={PAPER_MC_ITERATIONS}: looped {looped_seconds:.2f}s, "
        f"batched {batched_seconds:.2f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR:.1f}x speedup, measured {speedup:.1f}x"
    )
