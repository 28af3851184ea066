"""The in-process thread backend: ordering, BLAS pinning and thread safety.

Threads share one process, so every piece of scratch the chunk path reuses
must be per thread.  The properties here compare the threaded runs with the
serial reference bit for bit, and run the fused sweep kernel from two
threads at once against the looped oracle.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.monte_carlo import MonteCarloRunner
from repro.analysis.timeline import timeline_sweep
from repro.analysis.yield_analysis import yield_sweep
from repro.arrays import apply_column_sweep
from repro.cli import main
from repro.execution import Backend, MultiprocessBackend, SerialBackend, ThreadBackend
from repro.execution import blas
from repro.mesh.mesh import MZIMesh
from repro.observability import active_collector, observe
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.process import OrnsteinUhlenbeckProcess
from repro.variation.sampler import sample_mesh_perturbation_batch

needs_blas_control = pytest.mark.skipif(
    blas.blas_thread_control() is None, reason="this BLAS exports no thread-count entry point"
)


def square(value):
    return value * value


def fail_on_three(value):
    if value == 3:
        raise RuntimeError("boom on 3")
    return value


def report_blas_threads(_):
    """Module-level so pool workers can pickle it."""
    return blas.get_blas_threads()


def native_thread_id(_):
    return threading.get_native_id()


class TestThreadBackend:
    def test_maps_in_order(self):
        assert ThreadBackend(3).map(square, range(10)) == [value * value for value in range(10)]

    def test_protocol_parallelism_and_pickle(self):
        backend = ThreadBackend(2)
        assert isinstance(backend, Backend)
        assert backend.parallelism == 2
        assert pickle.loads(pickle.dumps(backend)) == backend
        assert backend.map(square, []) == []

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadBackend(0)

    def test_runs_tasks_on_pool_threads(self):
        ids = set(ThreadBackend(2).map(native_thread_id, range(8)))
        assert threading.get_native_id() not in ids
        assert 1 <= len(ids) <= 2

    def test_single_task_runs_inline(self):
        assert ThreadBackend(4).map(native_thread_id, [0]) == [threading.get_native_id()]

    def test_task_error_propagates(self):
        with pytest.raises(RuntimeError, match="boom on 3"):
            ThreadBackend(2).map(fail_on_three, range(6))


@needs_blas_control
class TestBlasPinning:
    @pytest.mark.parametrize("budget,threads,expected", [(2, 2, 1), (4, 2, 2), (3, 2, 1), (2, 3, 1)])
    def test_map_pins_blas_to_its_share_then_restores(self, monkeypatch, budget, threads, expected):
        monkeypatch.setattr(blas, "available_workers", lambda: budget)
        before = blas.get_blas_threads()
        seen = ThreadBackend(threads).map(report_blas_threads, range(2 * threads))
        assert set(seen) == {expected}
        assert blas.get_blas_threads() == before

    def test_restores_after_a_failed_task(self, monkeypatch):
        monkeypatch.setattr(blas, "available_workers", lambda: 2)
        before = blas.get_blas_threads()
        with pytest.raises(RuntimeError):
            ThreadBackend(2).map(fail_on_three, range(6))
        assert blas.get_blas_threads() == before

    def test_blas_threads_context_restores(self):
        before = blas.get_blas_threads()
        with blas.blas_threads(1):
            assert blas.get_blas_threads() == 1
        assert blas.get_blas_threads() == before

    def test_process_workers_pin_blas_under_a_two_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(blas, "available_workers", lambda: 2)
        assert MultiprocessBackend(workers=2).map(report_blas_threads, range(4)) == [1, 1, 1, 1]
        with MultiprocessBackend(workers=2) as backend:
            assert backend.map(report_blas_threads, range(4)) == [1, 1, 1, 1]


class TestMissingBlasControl:
    @pytest.fixture
    def no_symbols(self, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: None)
        blas._control.cache_clear()
        yield
        blas._control.cache_clear()

    def test_warns_once_naming_the_blas_then_runs(self, no_symbols):
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        with pytest.warns(RuntimeWarning, match=str(config["name"])) as caught:
            assert blas.blas_thread_control() is None
            assert blas.set_blas_threads(1) is None
            assert blas.get_blas_threads() is None
            assert ThreadBackend(2).map(square, range(4)) == [0, 1, 4, 9]
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blas.blas_thread_control()


def _sweep_inputs(n: int, batch: int, seed: int):
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=seed), scheme="clements")
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.02), spawn_rngs(seed + 1, batch)
    )
    stacks, _ = mesh._column_stacks_and_phases(perturbation)
    program = mesh.column_program()
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (batch, n, n))
    return program, stacks, eye


class TestSweepKernelUnderThreads:
    @pytest.mark.parametrize("kernel", ["fused", None], ids=["fused", "default"])
    def test_threads_at_once_match_the_looped_oracle(self, kernel):
        """Different batch shapes and draws, concurrently, more threads than cores.

        ``default`` runs whatever kernel the registry selects, as the
        thread backend does.
        """
        shapes = ((37, 3), (64, 11), (5, 19))
        cases = [_sweep_inputs(16, batch, seed) for batch, seed in shapes]
        oracles = []
        for program, components, eye in cases:
            looped = eye.copy()
            apply_column_sweep(looped, components, program, kernel="looped")
            oracles.append(looped)
        start = threading.Barrier(len(cases))
        mismatches = []
        done = []

        def sweep(index):
            program, components, eye = cases[index]
            start.wait()
            for _ in range(25):
                swept = eye.copy()
                apply_column_sweep(swept, components, program, kernel=kernel)
                if not np.array_equal(swept, oracles[index]):
                    mismatches.append(index)
            done.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=sweep, args=(index,)) for index in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == list(range(len(cases)))
        assert mismatches == []


class TestPerThreadState:
    def test_worker_threads_start_without_the_callers_collector(self):
        with observe() as recorder:
            assert active_collector() is recorder.dispatches
            seen = ThreadBackend(2).map(lambda _: active_collector(), range(4))
            assert seen == [None] * 4
            assert active_collector() is recorder.dispatches


# --------------------------------------------------------------------------- #
# threaded sweeps equal the serial reference
# --------------------------------------------------------------------------- #

_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(
    workers=st.sampled_from([2, 3]),
    chunk_size=st.sampled_from([None, 1, 3]),
    timelines=st.integers(min_value=1, max_value=7),
    num_steps=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_timeline_sweep_threaded_equals_serial(
    small_task, workers, chunk_size, timelines, num_steps, seed
):
    kwargs = dict(
        model=UncertaintyModel.phase_only(0.08),
        process=OrnsteinUhlenbeckProcess(correlation_time=4.0),
        num_steps=num_steps,
        timelines=timelines,
        rng=seed,
        chunk_size=chunk_size,
    )
    args = (small_task.spnn, small_task.test_features, small_task.test_labels)
    [serial] = timeline_sweep(*args, backend=SerialBackend(), **kwargs)
    [threaded] = timeline_sweep(*args, backend=ThreadBackend(workers), **kwargs)
    assert threaded.accuracy.tobytes() == serial.accuracy.tobytes()
    assert threaded.recalibrations.tobytes() == serial.recalibrations.tobytes()


@_SETTINGS
@given(
    workers=st.sampled_from([2, 3]),
    chunk_size=st.sampled_from([None, 1, 3]),
    iterations=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_yield_sweep_threaded_equals_serial(small_task, workers, chunk_size, iterations, seed):
    kwargs = dict(
        sigmas=(0.0, 0.03, 0.08),
        iterations=iterations,
        rng=seed,
        chunk_size=chunk_size,
    )
    args = (small_task.spnn, small_task.test_features, small_task.test_labels)
    serial = yield_sweep(*args, backend=SerialBackend(), **kwargs)
    threaded = yield_sweep(*args, backend=ThreadBackend(workers), **kwargs)
    for sigma in serial.sigmas:
        assert threaded.accuracy_samples[sigma].tobytes() == serial.accuracy_samples[sigma].tobytes()


def test_robust_smoke_threaded_equals_serial(tmp_path, capsys):
    """EXP 3's training and evaluation sweeps give the same JSON threaded and serial."""
    outputs = {}
    for label, flags in (("threaded", []), ("serial", ["--workers", "1"])):
        path = tmp_path / f"{label}.json"
        assert main(["robust", "--smoke", "--output", str(path), *flags]) == 0
        outputs[label] = json.loads(path.read_text())
    capsys.readouterr()
    assert outputs["serial"]["config"].pop("workers") == 1
    assert outputs["threaded"]["config"].pop("workers") is None
    assert json.dumps(outputs["threaded"], sort_keys=True) == json.dumps(outputs["serial"], sort_keys=True)


# --------------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------------- #


def _kernel_calls(recorder) -> dict:
    calls: dict = {}
    entries = [entry.to_record() for frame in recorder.frames for entry in frame.dispatches]
    for entry in entries + recorder.dispatches.entries():
        calls[entry["kernel"]] = calls.get(entry["kernel"], 0) + entry["calls"]
    return calls


def test_observed_threaded_sweep_frames_and_dispatch_totals(small_task):
    args = (small_task.spnn, small_task.test_features, small_task.test_labels)
    kwargs = dict(sigmas=(0.03, 0.05), iterations=6, rng=3, chunk_size=2)
    recorders = []
    for backend in (SerialBackend(), ThreadBackend(2)):
        with observe() as recorder:
            yield_sweep(*args, backend=backend, **kwargs)
            assert active_collector() is recorder.dispatches
        recorders.append(recorder)
    serial, threaded = recorders
    # One sweep of 2 x 6 folded rows in chunks of 2.
    assert len(threaded.frames) == len(serial.frames) == 6
    assert [frame.start for frame in threaded.frames] == [frame.start for frame in serial.frames]
    # In a process's main thread the native thread id is the pid.
    assert {frame.worker for frame in serial.frames} == {os.getpid()}
    assert threading.get_native_id() not in {frame.worker for frame in threaded.frames}
    assert _kernel_calls(threaded) == _kernel_calls(serial)
    assert active_collector() is None


def test_threaded_runner_matches_serial_with_scalar_trials():
    def trial(generator):
        return float(generator.standard_normal())

    serial = MonteCarloRunner(iterations=9, backend=SerialBackend()).run(trial, rng=4)
    threaded = MonteCarloRunner(iterations=9, chunk_size=2, backend=ThreadBackend(2)).run(trial, rng=4)
    assert threaded.samples.tobytes() == serial.samples.tobytes()
