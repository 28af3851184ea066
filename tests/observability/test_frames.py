"""Worker-frame telemetry: picklable wrapper, deterministic merge, bit-identity."""

import pickle

import numpy as np
import pytest

from repro.analysis.monte_carlo import MonteCarloRunner
from repro.execution import resolve_backend
from repro.observability import observe
from repro.observability.dispatch import DispatchAggregator, active_collector, use_collector
from repro.observability.frames import (
    ChunkFrame,
    InstrumentedChunkEvaluator,
    KernelDispatch,
    _chunk_fields,
    _payload_bytes,
    map_chunks,
)


def draw_trial(gen):
    """Module-level scalar trial so process backends can pickle it."""
    return float(gen.standard_normal())


def echo_chunk(task):
    """Module-level chunk evaluator returning ``(start, samples)``."""
    start, _, streams = task
    return start, np.full(len(streams), float(start))


class TestChunkFrame:
    def test_record_round_trip(self):
        frame = ChunkFrame(
            label="mc",
            start=10,
            count=5,
            seconds=0.25,
            worker=4242,
            task_bytes=100,
            result_bytes=40,
            dispatches=[KernelDispatch("fused", 16, 5, 2, 3, 0.01)],
            index=2,
        )
        record = frame.to_record()
        assert record["type"] == "frame"
        rebuilt = ChunkFrame.from_record(record)
        assert rebuilt == frame

    def test_chunk_fields_reads_engine_task_layout(self):
        assert _chunk_fields((12, draw_trial, (object(), object(), object()))) == (12, 3)

    def test_chunk_fields_tolerates_foreign_shapes(self):
        assert _chunk_fields("not a tuple") == (-1, 0)
        assert _chunk_fields(()) == (-1, 0)
        assert _chunk_fields((0, draw_trial, 17)) == (0, 0)

    def test_payload_bytes_reads_only_nbytes(self):
        samples = np.zeros(8, dtype=np.float64)
        assert _payload_bytes((3, samples)) == samples.nbytes
        assert _payload_bytes([samples, (samples,)]) == 2 * samples.nbytes
        assert _payload_bytes("scalar") == 0


class TestInstrumentedChunkEvaluator:
    def test_is_picklable(self):
        wrapped = InstrumentedChunkEvaluator(echo_chunk, "mc")
        clone = pickle.loads(pickle.dumps(wrapped))
        assert clone == wrapped

    def test_returns_result_and_frame(self):
        wrapped = InstrumentedChunkEvaluator(echo_chunk, "mc")
        task = (4, echo_chunk, tuple(range(3)))
        result, frame = wrapped(task)
        start, samples = result
        assert start == 4, "result must pass through unchanged"
        assert np.array_equal(samples, np.full(3, 4.0))
        assert frame.label == "mc"
        assert frame.start == 4
        assert frame.count == 3
        assert frame.seconds >= 0.0
        assert frame.worker > 0
        assert frame.task_bytes > 0
        assert frame.result_bytes == 3 * 8  # three float64 samples
        assert frame.index == -1  # stamped by the parent, not the worker

    def test_chunk_local_collector_shadows_and_restores(self):
        parent = DispatchAggregator()
        with use_collector(parent):
            wrapped = InstrumentedChunkEvaluator(echo_chunk, "mc")
            wrapped((0, echo_chunk, tuple(range(2))))
            assert active_collector() is parent
        # The inline evaluation never recorded into the parent collector.
        assert len(parent) == 0


class TestMapChunks:
    def test_disabled_path_is_a_pass_through(self):
        backend = resolve_backend(None, None)
        tasks = [(0, echo_chunk, tuple(range(2))), (2, echo_chunk, tuple(range(2)))]
        results = map_chunks(backend, echo_chunk, tasks)
        assert [start for start, _ in results] == [0, 2]

    def test_enabled_path_strips_frames_in_task_order(self):
        backend = resolve_backend(None, None)
        tasks = [(start, echo_chunk, tuple(range(2))) for start in (0, 2, 4)]
        with observe() as rec:
            results = map_chunks(backend, echo_chunk, tasks, label="mc")
        assert [start for start, _ in results] == [0, 2, 4]
        assert [frame.index for frame in rec.frames] == [0, 1, 2]
        assert [frame.start for frame in rec.frames] == [0, 2, 4]
        assert all(frame.label == "mc" for frame in rec.frames)


class TestDeterministicMerge:
    """ISSUE invariants: bit-identity and frame determinism across workers."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_traced_run_is_bit_identical_to_untraced(self, workers):
        runner = MonteCarloRunner(iterations=20, chunk_size=5, workers=workers)
        untraced = runner.run(draw_trial, rng=7)
        with observe():
            traced = runner.run(draw_trial, rng=7)
        assert np.array_equal(untraced.samples, traced.samples)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_frame_schedule_matches_the_planned_chunking(self, workers):
        """Frames reproduce exactly the schedule ``plan_chunk_size`` planned.

        The planned chunk size legitimately varies with the worker count
        (parallel backends split finer for load balance) but never the
        coverage: frames tile ``[0, iterations)`` in order, and rerunning at
        the same worker count reproduces the identical frame list.
        """
        from repro.analysis.monte_carlo import plan_chunk_size

        iterations = 20
        runner = MonteCarloRunner(iterations=iterations, chunk_size=5, workers=workers)
        backend = resolve_backend(None, workers)
        chunk = plan_chunk_size(iterations, backend, 5, draw_trial)
        expected = [
            (start, min(chunk, iterations - start))
            for start in range(0, iterations, chunk)
        ]
        schedules = []
        for _ in range(2):
            with observe() as rec:
                runner.run(draw_trial, rng=7)
            assert [f.index for f in rec.frames] == list(range(len(rec.frames)))
            schedules.append([(f.start, f.count) for f in rec.frames])
        assert schedules[0] == expected
        assert schedules[0] == schedules[1], "frame content must be run-invariant"

    def test_multiprocess_frames_carry_worker_pids(self):
        import os

        runner = MonteCarloRunner(iterations=8, chunk_size=2, workers=2)
        with observe() as rec:
            runner.run(draw_trial, rng=3)
        pids = {frame.worker for frame in rec.frames}
        assert pids, "expected frames from the sharded run"
        assert os.getpid() not in pids, "chunks must have run in worker processes"

    def test_rng_untouched_by_tracing(self):
        """Recording consumes no randomness: same stream before and after."""
        gen_a = np.random.default_rng(11)
        gen_b = np.random.default_rng(11)
        baseline = gen_a.standard_normal(4)
        with observe() as rec:
            with rec.span("noise-free"):
                rec.counter_add("c")
        assert np.array_equal(baseline, gen_b.standard_normal(4))
