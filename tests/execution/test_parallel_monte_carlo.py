"""Worker-count invariance, chunk-boundary and pickling tests for the engine.

The load-bearing guarantee of the execution layer: Monte Carlo samples are
bit-identical for every backend and every worker count, because the child
streams are spawned deterministically before any scheduling happens and
chunks reassemble by start index into the exact serial order.
"""

import pickle

import numpy as np
import pytest

from repro.analysis import MonteCarloRunner, per_mzi_rvd_criticality, score_components
from repro.analysis.critical import SingleMZIRVDMetric
from repro.analysis.monte_carlo import evaluate_batch_chunk, evaluate_scalar_chunk
from repro.exceptions import ShapeError
from repro.mesh import MZIMesh
from repro.onn.inference import NetworkAccuracyBatchTrial, NetworkAccuracyTrial
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation import UncertaintyModel, sample_network_perturbation_batch
from repro.variation.sampler import sample_mesh_perturbation_batch

WORKER_COUNTS = (1, 2, 4)


# --------------------------------------------------------------------------- #
# module-level trials (process backends pickle these into workers)
# --------------------------------------------------------------------------- #


def normal_trial(generator):
    return generator.normal()


def normal_batch_trial(generators):
    return np.array([generator.normal() for generator in generators])


def mesh_rvd_trial(generator):
    """A trial exercising real library code paths inside worker processes."""
    from repro.analysis import rvd
    from repro.variation.sampler import sample_mesh_perturbation

    mesh = MZIMesh.from_unitary(random_unitary(4, rng=13))
    perturbation = sample_mesh_perturbation(mesh, UncertaintyModel.both(0.05), generator)
    return rvd(mesh.matrix(perturbation), mesh.ideal_matrix())


def constant_metric(component_id, generator):
    return float(component_id) + 0.0 * generator.normal()


def noisy_metric(component_id, generator):
    return float(component_id) + generator.normal()


def noisy_batch_metric(component_id, generator, iterations):
    """Consumes the stream exactly like `noisy_metric` looped — bit-identical."""
    return np.array([float(component_id) + generator.normal() for _ in range(iterations)])


def wrong_shape_batch_trial(generators):
    return np.zeros(len(generators) + 1)


class TestWorkerCountInvariance:
    def test_scalar_run_bit_identical_across_worker_counts(self):
        serial = MonteCarloRunner(iterations=23).run(normal_trial, rng=11).samples
        for workers in WORKER_COUNTS:
            runner = MonteCarloRunner(iterations=23, chunk_size=4, workers=workers)
            assert np.array_equal(runner.run(normal_trial, rng=11).samples, serial), workers

    def test_batched_run_bit_identical_across_worker_counts(self):
        serial = MonteCarloRunner(iterations=23).run_batched(normal_batch_trial, rng=11).samples
        for workers in WORKER_COUNTS:
            runner = MonteCarloRunner(iterations=23, chunk_size=4, workers=workers)
            assert np.array_equal(runner.run_batched(normal_batch_trial, rng=11).samples, serial)

    def test_scalar_and_batched_agree_under_sharding(self):
        scalar = MonteCarloRunner(iterations=17, workers=2, chunk_size=3).run(normal_trial, rng=5)
        batched = MonteCarloRunner(iterations=17, workers=4, chunk_size=5).run_batched(
            normal_batch_trial, rng=5
        )
        assert np.array_equal(scalar.samples, batched.samples)

    def test_real_mesh_trial_in_workers(self):
        serial = MonteCarloRunner(iterations=6).run(mesh_rvd_trial, rng=3).samples
        sharded = MonteCarloRunner(iterations=6, workers=2, chunk_size=2).run(
            mesh_rvd_trial, rng=3
        ).samples
        assert np.array_equal(serial, sharded)

    def test_explicit_backend_name(self):
        serial = MonteCarloRunner(iterations=9).run(normal_trial, rng=0).samples
        named = MonteCarloRunner(iterations=9, backend="multiprocess", workers=2, chunk_size=2)
        assert np.array_equal(named.run(normal_trial, rng=0).samples, serial)

    def test_invalid_backend_rejected_at_construction(self):
        with pytest.raises(ValueError):
            MonteCarloRunner(iterations=5, backend="gpu")
        with pytest.raises(ValueError):
            MonteCarloRunner(iterations=5, workers=0)


class TestChunkBoundaries:
    @pytest.mark.parametrize(
        "iterations,chunk_size,workers",
        [
            (10, 3, 4),  # iterations not divisible by chunk_size x workers
            (7, 3, 2),  # ragged final chunk
            (5, 1, 4),  # one realization per chunk
            (3, 8, 2),  # chunk larger than iterations -> single chunk
            (2, 2, 4),  # fewer chunks than workers
            (1, 1, 2),  # single iteration
        ],
    )
    def test_ragged_chunking_is_lossless(self, iterations, chunk_size, workers):
        serial = MonteCarloRunner(iterations=iterations).run(normal_trial, rng=2).samples
        runner = MonteCarloRunner(iterations=iterations, chunk_size=chunk_size, workers=workers)
        assert np.array_equal(runner.run(normal_trial, rng=2).samples, serial)
        assert np.array_equal(runner.run_batched(normal_batch_trial, rng=2).samples, serial)

    def test_explicit_chunk_size_caps_but_never_defeats_sharding(self):
        # A chunk_size >= iterations must not collapse a parallel run to a
        # single task.
        from repro.execution import SerialBackend, resolve_backend

        runner = MonteCarloRunner(iterations=8, chunk_size=250, workers=2)
        backend = resolve_backend(runner.backend, runner.workers)
        assert runner._effective_chunk_size(backend) < 8
        # ... while still acting as a memory cap when it is the smaller bound
        capped = MonteCarloRunner(iterations=1000, chunk_size=10, workers=2)
        assert capped._effective_chunk_size(resolve_backend(capped.backend, capped.workers)) == 10
        # ... and staying untouched on the serial backend.
        serial = MonteCarloRunner(iterations=1000, chunk_size=250)
        assert serial._effective_chunk_size(SerialBackend()) == 250

    def test_auto_chunking_covers_all_iterations(self):
        # No explicit chunk_size: parallel backends pick ~2 chunks per worker.
        runner = MonteCarloRunner(iterations=11, workers=4)
        result = runner.run(normal_trial, rng=9)
        serial = MonteCarloRunner(iterations=11).run(normal_trial, rng=9)
        assert np.array_equal(result.samples, serial.samples)

    def test_batch_trial_shape_error_propagates_from_workers(self):
        runner = MonteCarloRunner(iterations=6, workers=2, chunk_size=3)
        with pytest.raises(ShapeError):
            runner.run_batched(wrong_shape_batch_trial, rng=0)


class TestRunManyBatched:
    def test_batched_run_many_matches_scalar_route(self):
        runner = MonteCarloRunner(iterations=12)
        scalar = runner.run_many({"a": normal_trial, "b": normal_trial}, rng=4)
        batched = runner.run_many(
            {"a": normal_batch_trial, "b": normal_batch_trial}, rng=4, batched=True
        )
        for label in ("a", "b"):
            assert np.array_equal(scalar[label].samples, batched[label].samples)
            assert batched[label].label == label

    def test_batched_run_many_with_workers(self):
        serial = MonteCarloRunner(iterations=10).run_many(
            {"x": normal_batch_trial}, rng=1, batched=True
        )
        sharded = MonteCarloRunner(iterations=10, workers=2, chunk_size=3).run_many(
            {"x": normal_batch_trial}, rng=1, batched=True
        )
        assert np.array_equal(serial["x"].samples, sharded["x"].samples)


class TestScoreComponentsBatched:
    def test_batched_metric_bit_identical_to_scalar_reference(self):
        scalar = score_components([0, 1, 2], noisy_metric, iterations=8, rng=6)
        batched = score_components(
            [0, 1, 2], batch_metric_fn=noisy_batch_metric, iterations=8, rng=6
        )
        assert np.array_equal(scalar.as_array(), batched.as_array())
        assert [c.std for c in scalar.scores] == [c.std for c in batched.scores]

    def test_sharded_across_components_bit_identical(self):
        serial = score_components([0, 1, 2, 3], noisy_metric, iterations=5, rng=2)
        for workers in WORKER_COUNTS:
            sharded = score_components(
                [0, 1, 2, 3], noisy_metric, iterations=5, rng=2, workers=workers
            )
            assert np.array_equal(serial.as_array(), sharded.as_array())

    def test_requires_some_metric(self):
        with pytest.raises(ValueError, match="metric_fn"):
            score_components([0, 1], iterations=3, rng=0)

    def test_batch_metric_shape_enforced(self):
        with pytest.raises(ShapeError):
            score_components(
                [0],
                batch_metric_fn=lambda cid, gen, iters: np.zeros(iters + 1),
                iterations=4,
                rng=0,
            )

    def test_constant_metric_ranking_unchanged(self):
        report = score_components(
            [0, 1, 2], constant_metric, iterations=5, rng=0, metric="identity"
        )
        assert report.metric == "identity"
        assert report.ranked()[0].identifier == 2


class TestPerMZISharding:
    def test_per_mzi_rvd_workers_bit_identical(self):
        mesh = MZIMesh.from_unitary(random_unitary(5, rng=8))
        model = UncertaintyModel.both(0.05)
        serial = per_mzi_rvd_criticality(mesh, model, iterations=10, rng=4).as_array()
        scorer = SingleMZIRVDMetric(mesh=mesh, model=model, reference=mesh.ideal_matrix())
        for workers in WORKER_COUNTS:
            sharded = per_mzi_rvd_criticality(
                mesh, model, iterations=10, rng=4, workers=workers
            ).as_array()
            assert np.array_equal(serial, sharded), workers
            looped = score_components(
                range(mesh.num_mzis), metric_fn=scorer.scalar, iterations=10, rng=4,
                workers=workers,
            ).as_array()
            assert np.array_equal(serial, looped), workers


class TestFig3Sharding:
    def test_run_fig3_workers_bit_identical(self):
        from repro.experiments import Fig3Config, run_fig3

        base = dict(matrix_size=4, num_matrices=2, iterations=5, seed=17)
        serial = run_fig3(Fig3Config(**base)).rvd_table()
        sharded = run_fig3(Fig3Config(workers=2, **base)).rvd_table()
        assert np.array_equal(serial, sharded)


class TestPickling:
    def test_mesh_perturbation_batch_roundtrip(self):
        mesh = MZIMesh.from_unitary(random_unitary(4, rng=1))
        batch = sample_mesh_perturbation_batch(
            mesh, UncertaintyModel.both(0.05), spawn_rngs(0, 3)
        )
        clone = pickle.loads(pickle.dumps(batch))
        assert np.array_equal(batch.delta_theta, clone.delta_theta)
        assert np.array_equal(batch.delta_phi, clone.delta_phi)

    def test_chunk_evaluators_are_picklable(self):
        assert pickle.loads(pickle.dumps(evaluate_scalar_chunk)) is evaluate_scalar_chunk
        assert pickle.loads(pickle.dumps(evaluate_batch_chunk)) is evaluate_batch_chunk

    def test_single_mzi_metric_bound_methods_roundtrip(self):
        mesh = MZIMesh.from_unitary(random_unitary(4, rng=2))
        metric = SingleMZIRVDMetric(
            mesh=mesh,
            model=UncertaintyModel.both(0.05),
            reference=mesh.ideal_matrix(),
        )
        clone_batched = pickle.loads(pickle.dumps(metric.batched))
        gen_a, gen_b = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(metric.batched(0, gen_a, 4), clone_batched(0, gen_b, 4))


class TestSPNNTrialsPickleAndShard:
    """End-to-end: the SPNN task trials survive pickling and process workers."""

    def test_network_trials_pickle_roundtrip(self, small_task):
        model = UncertaintyModel.both(0.05)
        features = small_task.test_features[:20]
        labels = small_task.test_labels[:20]
        scalar = NetworkAccuracyTrial(
            spnn=small_task.spnn, features=features, labels=labels, model=model
        )
        batched = NetworkAccuracyBatchTrial(
            spnn=small_task.spnn, features=features, labels=labels, model=model
        )
        scalar_clone = pickle.loads(pickle.dumps(scalar))
        batched_clone = pickle.loads(pickle.dumps(batched))
        gen_a, gen_b = np.random.default_rng(7), np.random.default_rng(7)
        assert scalar(gen_a) == scalar_clone(gen_b)
        gens_a, gens_b = spawn_rngs(8, 3), spawn_rngs(8, 3)
        assert np.array_equal(batched(gens_a), batched_clone(gens_b))

    def test_network_perturbation_batch_roundtrip(self, small_task):
        batch = sample_network_perturbation_batch(
            small_task.spnn.photonic_layers, UncertaintyModel.both(0.05), spawn_rngs(0, 2)
        )
        clone = pickle.loads(pickle.dumps(batch))
        for layer, layer_clone in zip(batch, clone):
            assert np.array_equal(layer.u.delta_theta, layer_clone.u.delta_theta)
            assert np.array_equal(layer.v.delta_phi, layer_clone.v.delta_phi)

    def test_monte_carlo_accuracy_worker_invariance(self, small_task):
        from repro.onn import monte_carlo_accuracy

        model = UncertaintyModel.both(0.05)
        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        kwargs = dict(iterations=8, rng=21)
        serial = monte_carlo_accuracy(
            small_task.spnn, features, labels, model, **kwargs
        )
        for workers in (2, 4):
            sharded = monte_carlo_accuracy(
                small_task.spnn, features, labels, model, workers=workers, **kwargs
            )
            assert np.array_equal(serial, sharded), workers
        oracle = NetworkAccuracyTrial(small_task.spnn, features, labels, model)
        looped_sharded = MonteCarloRunner(iterations=8, workers=2).run(oracle, rng=21).samples
        assert np.array_equal(serial, looped_sharded)
