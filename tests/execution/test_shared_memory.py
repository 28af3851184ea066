"""Shared-memory eval hosting: roundtrip, bit-identity, lifecycle."""

import os
import pickle
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.monte_carlo import evaluate_batch_chunk, run_sweep, sweep_scope
from repro.execution import (
    MultiprocessBackend,
    SerialBackend,
    SharedArray,
    pool_scope,
    resolve_array,
    shared_eval_arrays,
    shared_memory_available,
)
from repro.onn import SPNNArchitecture
from repro.onn.inference import monte_carlo_accuracy
from repro.onn.spnn import SPNN
from repro.utils.rng import spawn_rngs, spawn_slice
from repro.variation.models import UncertaintyModel

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


def _small_spnn(seed=3):
    gen = np.random.default_rng(seed)
    arch = SPNNArchitecture(layer_dims=(8, 8, 6))
    weights = [
        (gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))) / 3.0,
        (gen.standard_normal((6, 8)) + 1j * gen.standard_normal((6, 8))) / 3.0,
    ]
    spnn = SPNN(weights, arch)
    features = gen.standard_normal((50, 8)) + 1j * gen.standard_normal((50, 8))
    labels = gen.integers(0, 6, 50)
    return spnn, features, labels


class TestSharedArray:
    def test_roundtrip_preserves_bytes(self):
        array = np.random.default_rng(0).standard_normal((17, 5))
        handle = SharedArray.create(array)
        try:
            assert np.array_equal(handle.array, array)
            assert handle.array.dtype == array.dtype
            assert not handle.array.flags.writeable
        finally:
            handle.close()
            handle.unlink()

    def test_complex_and_integer_dtypes(self):
        for array in (
            np.arange(12, dtype=np.int64).reshape(3, 4),
            (np.arange(6) + 1j * np.arange(6)).reshape(2, 3),
        ):
            handle = SharedArray.create(array)
            try:
                assert np.array_equal(handle.array, array)
            finally:
                handle.close()
                handle.unlink()

    def test_pickled_form_is_a_lightweight_handle(self):
        import pickle

        array = np.zeros((1000, 100))  # 800 KB payload
        handle = SharedArray.create(array)
        try:
            payload = pickle.dumps(handle)
            assert len(payload) < 1024  # name + metadata, not the data
            clone = pickle.loads(payload)
            assert np.array_equal(clone.array, array)
        finally:
            handle.close()
            handle.unlink()

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            SharedArray.create(np.zeros(0))

    def test_resolve_array_passthrough(self):
        plain = np.arange(4)
        assert resolve_array(plain) is plain


class TestSharedEvalArrays:
    def test_serial_backend_passes_arrays_through(self):
        features = np.arange(6.0)
        with shared_eval_arrays(SerialBackend(), features) as (out,):
            assert isinstance(out, np.ndarray)
            assert np.array_equal(out, features)

    def test_single_worker_multiprocess_passes_through(self):
        features = np.arange(6.0)
        with shared_eval_arrays(MultiprocessBackend(workers=1), features) as (out,):
            assert isinstance(out, np.ndarray)

    def test_sharded_backend_hosts_handles_and_unlinks(self):
        features = np.arange(6.0)
        backend = MultiprocessBackend(workers=2)
        with shared_eval_arrays(backend, features) as (handle,):
            assert isinstance(handle, SharedArray)
            name = handle.name
            assert np.array_equal(handle.array, features)
        # After the context the segment is gone.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestBitIdentity:
    def test_shared_eval_bit_identical_for_every_worker_count(self):
        """The ROADMAP contract: shared-memory hosting never changes samples."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        reference = monte_carlo_accuracy(spnn, features, labels, model, iterations=24, rng=11)
        for workers in (1, 2, 4):
            backend = MultiprocessBackend(workers=workers)
            with pool_scope(backend), shared_eval_arrays(backend, features, labels) as (
                shared_features,
                shared_labels,
            ):
                samples = monte_carlo_accuracy(
                    spnn,
                    shared_features,
                    shared_labels,
                    model,
                    iterations=24,
                    rng=11,
                    backend=backend,
                )
            assert samples.tobytes() == reference.tobytes(), f"workers={workers}"

    def test_workspace_and_shared_memory_compose_bit_identically(self):
        """Workspace arenas are per-process: reuse is aliasing-safe under sharding."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        reference = monte_carlo_accuracy(spnn, features, labels, model, iterations=16, rng=5)
        for workers in (1, 2):
            backend = MultiprocessBackend(workers=workers)
            with pool_scope(backend), shared_eval_arrays(backend, features, labels) as (
                shared_features,
                shared_labels,
            ):
                # Two consecutive runs through the same per-process arenas:
                # buffer recycling must not leak state between runs.
                first = monte_carlo_accuracy(
                    spnn, shared_features, shared_labels, model,
                    iterations=16, rng=5, backend=backend, use_workspace=True,
                )
                second = monte_carlo_accuracy(
                    spnn, shared_features, shared_labels, model,
                    iterations=16, rng=5, backend=backend, use_workspace=True,
                )
            assert first.tobytes() == reference.tobytes(), f"workers={workers}"
            assert second.tobytes() == reference.tobytes(), f"workers={workers}"


def test_worker_attach_keeps_the_owner_registration(monkeypatch):
    """Attaching never unregisters: the registration belongs to the owner."""
    from multiprocessing import resource_tracker

    unregistered = []
    unregister = resource_tracker.unregister

    def spy(name, rtype):
        unregistered.append(name)
        unregister(name, rtype)

    monkeypatch.setattr(resource_tracker, "unregister", spy)
    owner = SharedArray.create(np.arange(4.0))
    try:
        worker = pickle.loads(pickle.dumps(owner))
        assert np.array_equal(worker.array, np.arange(4.0))
        assert unregistered == []
    finally:
        owner.close()
        owner.unlink()


#: Sharded runs in a fresh interpreter: a pool whose workers start before
#: anything is hosted, two hostings in that pool, then a pool per map.
_SHARDED_RUNS = textwrap.dedent(
    """
    import numpy as np
    from repro.execution import MultiprocessBackend, pool_scope, shared_eval_arrays
    from repro.execution.shared import shared_network
    from repro.onn import SPNNArchitecture
    from repro.onn.inference import monte_carlo_accuracy
    from repro.onn.spnn import SPNN
    from repro.variation.models import UncertaintyModel

    gen = np.random.default_rng(3)
    weights = [
        (gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))) / 3.0,
        (gen.standard_normal((6, 8)) + 1j * gen.standard_normal((6, 8))) / 3.0,
    ]
    spnn = SPNN(weights, SPNNArchitecture(layer_dims=(8, 8, 6)))
    features = gen.standard_normal((50, 8)) + 1j * gen.standard_normal((50, 8))
    labels = gen.integers(0, 6, 50)
    model = UncertaintyModel.both(0.05)
    backend = MultiprocessBackend(workers=2)

    def hosted_run():
        with shared_network(backend, spnn) as net, shared_eval_arrays(backend, features, labels) as (x, y):
            monte_carlo_accuracy(net, x, y, model, iterations=400, rng=1, backend=backend)

    with pool_scope(backend):
        monte_carlo_accuracy(spnn, features, labels, model, iterations=400, rng=1, backend=backend)
        hosted_run()
        hosted_run()
    hosted_run()
    hosted_run()
    """
)


def _shm_segments() -> set:
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory under /dev/shm")
def test_sharded_runs_exit_cleanly():
    """Workers attach without touching the owner's resource-tracker entry.

    A worker that unregistered its attachment deleted the owner's entry,
    so the owner's ``unlink`` made the tracker print ``KeyError``; a worker
    with a tracker of its own reported the segments as leaked.
    """
    before = _shm_segments()
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SHARDED_RUNS], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # Both failure modes print through the tracker: a KeyError traceback
    # from resource_tracker.py, or "resource_tracker: ... leaked" warnings.
    assert "resource_tracker" not in done.stderr, done.stderr
    assert _shm_segments() - before == set()


@dataclass(frozen=True)
class HostedNormalTrial:
    """Picklable batch trial reading a hosted array; ``fail`` raises instead."""

    features: object
    fail: bool = False

    def __call__(self, generators):
        if self.fail:
            raise RuntimeError("chunk failed")
        offset = float(resolve_array(self.features).sum())
        return np.array([offset + generator.standard_normal() for generator in generators])


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory under /dev/shm")
def test_failing_sweep_leaves_nothing_behind():
    """A chunk error reaches the caller, unlinks the hosting, keeps the pool."""
    features = np.arange(40.0).reshape(5, 8)
    labels = np.arange(5)
    before = _shm_segments()
    with MultiprocessBackend(workers=2) as backend:
        with pytest.raises(RuntimeError, match="chunk failed"):
            with sweep_scope(backend, features, labels) as (hosted, _, _):
                assert isinstance(hosted, SharedArray)
                assert _shm_segments() - before
                parts = [
                    (HostedNormalTrial(hosted), spawn_slice(1, 8)),
                    (HostedNormalTrial(hosted, fail=True), spawn_slice(2, 8)),
                ]
                run_sweep(backend, evaluate_batch_chunk, parts, chunk_size=2)
        assert _shm_segments() - before == set()
        assert backend.pool_is_open
        # The same pool runs a clean sweep afterwards.
        with sweep_scope(backend, features, labels) as (hosted, _, _):
            [samples] = run_sweep(
                backend, evaluate_batch_chunk, [(HostedNormalTrial(hosted), spawn_slice(3, 6))], chunk_size=2
            )
    expected = HostedNormalTrial(features)(spawn_rngs(3, 6))
    assert samples.tobytes() == expected.tobytes()
    assert _shm_segments() - before == set()


def test_hosted_inputs_pass_through():
    """A scope inside a scope hosts nothing twice: handles come back as they are."""
    spnn, features, labels = _small_spnn()
    with MultiprocessBackend(workers=2) as backend:
        with sweep_scope(backend, features, labels, spnn) as (outer_x, outer_y, outer_net):
            assert outer_net is not spnn
            with sweep_scope(backend, outer_x, labels, outer_net) as (inner_x, inner_y, inner_net):
                assert inner_x is outer_x and inner_net is outer_net
                assert isinstance(inner_y, SharedArray) and inner_y is not outer_y
            with sweep_scope(backend, outer_x, outer_y) as (_, _, network):
                assert network is None
