"""Eval-size-aware default chunking of the Monte Carlo runner.

The serial default used to schedule *all* iterations as one vectorized
chunk.  The batch trials advertise a ``preferred_chunk_size()`` derived
from what one realization holds for the whole chunk, and the runner honors
it whenever no explicit ``chunk_size`` is configured.  The forward pass
runs in its own sub-chunks, so the hint does not depend on the
evaluation-set size.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.monte_carlo import MonteCarloRunner, plan_chunk_size
from repro.analysis.recalibration import RecalibrationPolicy
from repro.analysis.timeline import AccuracyTimelineTrial, evaluate_timeline_chunk
from repro.execution import MultiprocessBackend, SerialBackend, ThreadBackend
from repro.onn import SPNNArchitecture
from repro.analysis.monte_carlo import evaluate_batch_chunk
from repro.onn.inference import CHUNK_TARGET_BYTES, NetworkAccuracyBatchTrial, monte_carlo_accuracy
from repro.onn.spnn import SPNN
from repro.utils.rng import spawn_slice
from repro.variation.models import UncertaintyModel
from repro.variation.process import build_process


def _spnn(seed=1, dims=(16, 16, 16, 10)):
    gen = np.random.default_rng(seed)
    arch = SPNNArchitecture(layer_dims=dims)
    weights = [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 4.0
        for shape in arch.weight_shapes()
    ]
    return SPNN(weights, arch)


def _eval_set(spnn, samples, seed=2):
    gen = np.random.default_rng(seed)
    width = spnn.architecture.input_size
    features = gen.standard_normal((samples, width)) + 1j * gen.standard_normal((samples, width))
    labels = gen.integers(0, spnn.architecture.output_size, samples)
    return features, labels


def _trial(spnn, features, labels, sigma=0.02):
    return NetworkAccuracyBatchTrial(
        spnn=spnn, features=features, labels=labels, model=UncertaintyModel.both(sigma)
    )


@pytest.fixture(scope="module")
def paper_trial():
    """The paper's shapes: 16-16-16-10 compiled to 687 MZIs, 1000 eval samples."""
    spnn = _spnn().compile()
    assert sum(layer.num_mzis for layer in spnn.photonic_layers) == 687
    return _trial(spnn, *_eval_set(spnn, 1000))


class TestPreferredChunkSize:
    def test_does_not_depend_on_the_eval_set_size(self):
        spnn = _spnn().compile()
        small = _trial(spnn, *_eval_set(spnn, 64))
        large = _trial(spnn, *_eval_set(spnn, 10_000))
        assert large.preferred_chunk_size() == small.preferred_chunk_size() >= 1

    def test_paper_shapes_hint(self, paper_trial):
        assert 90 <= paper_trial.preferred_chunk_size() <= 130

    def test_chunk_at_the_hint_traces_near_the_target(self, paper_trial):
        """One chunk at the hint, generators included, traces within 25% of the target."""
        hint = paper_trial.preferred_chunk_size()
        task = (0, paper_trial, (spawn_slice(3, hint),))
        evaluate_batch_chunk((0, paper_trial, (spawn_slice(3, 4),)))  # warm caches
        tracemalloc.start()
        try:
            evaluate_batch_chunk(task)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.75 * CHUNK_TARGET_BYTES <= peak <= 1.25 * CHUNK_TARGET_BYTES, peak

    def test_runner_honors_the_hint_on_the_serial_backend(self):
        spnn = _spnn()
        trial = _trial(spnn, *_eval_set(spnn, 10_000))
        runner = MonteCarloRunner(iterations=1000)
        chunk = runner._effective_chunk_size(SerialBackend(), trial)
        assert chunk == trial.preferred_chunk_size()
        assert chunk < 1000

    def test_explicit_chunk_size_still_wins(self):
        spnn = _spnn()
        trial = _trial(spnn, *_eval_set(spnn, 10_000))
        runner = MonteCarloRunner(iterations=1000, chunk_size=77)
        assert runner._effective_chunk_size(SerialBackend(), trial) == 77

    def test_hint_caps_parallel_chunks_but_never_inflates_them(self):
        spnn = _spnn()
        # Tiny eval set -> huge hint; the two-chunks-per-worker target must
        # still shard the run.
        trial = _trial(spnn, *_eval_set(spnn, 8))
        runner = MonteCarloRunner(iterations=40)
        backend = MultiprocessBackend(workers=4)
        assert runner._effective_chunk_size(backend, trial) == 5
        # Many iterations -> the hint caps the parallel chunk.
        compiled = _trial(spnn.compile(), *_eval_set(spnn, 8))
        runner = MonteCarloRunner(iterations=1000)
        assert runner._effective_chunk_size(backend, compiled) == compiled.preferred_chunk_size()

    def test_thread_chunks_are_hint_sized_and_balanced(self):
        spnn = _spnn()
        trial = _trial(spnn, *_eval_set(spnn, 1000))
        hint = trial.preferred_chunk_size()
        backend = ThreadBackend(2)
        # A run that fits one hint-sized chunk stays one chunk (inline).
        assert MonteCarloRunner(iterations=hint)._effective_chunk_size(backend, trial) == hint
        # Two hint-sized chunks' worth splits evenly over the two threads.
        iterations = hint + hint // 2
        chunk = MonteCarloRunner(iterations=iterations)._effective_chunk_size(backend, trial)
        assert chunk == -(-iterations // 2)
        # Many chunks keep the serial hint-sized chunks, in a multiple of two.
        chunk = MonteCarloRunner(iterations=7 * hint)._effective_chunk_size(backend, trial)
        assert chunk <= hint and -(-7 * hint // chunk) % 2 == 0

    def test_thread_backend_caps_at_an_explicit_chunk_size(self):
        runner = MonteCarloRunner(iterations=40, chunk_size=30)
        # Two chunks of at most 30 round up to four, one per thread.
        assert runner._effective_chunk_size(ThreadBackend(4), trial=None) == 10
        runner = MonteCarloRunner(iterations=20, chunk_size=30)
        assert runner._effective_chunk_size(ThreadBackend(4), trial=None) == 20

    def test_scalar_trials_stay_one_chunk_on_threads(self):
        runner = MonteCarloRunner(iterations=123)
        assert runner._effective_chunk_size(ThreadBackend(2), trial=None) == 123

    def test_scalar_trials_keep_the_old_default(self):
        runner = MonteCarloRunner(iterations=123)
        assert runner._effective_chunk_size(SerialBackend(), trial=None) == 123


@pytest.fixture(scope="module")
def paper_timeline_trial():
    """The default drift study's chunk at paper shapes: phase-only OU drift,
    served without maintenance and under the schedule in one pass."""
    spnn = _spnn().compile()
    features, labels = _eval_set(spnn, 1000)
    return AccuracyTimelineTrial(
        spnn=spnn,
        features=features,
        labels=labels,
        model=UncertaintyModel.for_case("phs", 0.05),
        process=build_process("ou"),
        num_steps=3,
        policies=(None, RecalibrationPolicy(every=2)),
    )


class TestTimelineChunkHint:
    def test_paper_shapes_plan_two_100_timeline_chunks_on_two_threads(
        self, paper_timeline_trial
    ):
        assert 100 <= paper_timeline_trial.preferred_chunk_size() <= 160
        assert plan_chunk_size(200, ThreadBackend(2), None, paper_timeline_trial) == 100

    def test_chunk_at_the_hint_traces_near_the_target(self, paper_timeline_trial):
        """State, compensation, fields, matrices and stacks: within 25% of the target."""
        hint = paper_timeline_trial.preferred_chunk_size()
        evaluate_timeline_chunk((0, paper_timeline_trial, (spawn_slice(3, 4),)))  # warm caches
        tracemalloc.start()
        try:
            evaluate_timeline_chunk((0, paper_timeline_trial, (spawn_slice(3, hint),)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.75 * CHUNK_TARGET_BYTES <= peak <= 1.25 * CHUNK_TARGET_BYTES, peak


class TestRegressionAt10k:
    def test_synthetic_10k_eval_set_matches_explicit_chunking(self):
        """Auto-chunked samples are bit-identical to explicitly chunked ones."""
        spnn = _spnn()
        features, labels = _eval_set(spnn, 10_000)
        model = UncertaintyModel.both(0.02)
        auto = monte_carlo_accuracy(spnn, features, labels, model, iterations=6, rng=9)
        explicit = monte_carlo_accuracy(
            spnn, features, labels, model, iterations=6, rng=9, chunk_size=2
        )
        assert auto.tobytes() == explicit.tobytes()
