"""Tests for the pluggable execution backends and backend resolution."""

import pickle

import pytest

from repro.execution import (
    BACKEND_NAMES,
    Backend,
    MultiprocessBackend,
    SerialBackend,
    ThreadBackend,
    available_workers,
    pool_scope,
    resolve_backend,
)
from repro.execution import backends as backends_module


def square(value):
    """Module-level so process backends can pickle it."""
    return value * value


def faulty(value):
    raise RuntimeError(f"boom on {value}")


class TestSerialBackend:
    def test_maps_in_order(self):
        assert SerialBackend().map(square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_parallelism_is_one(self):
        assert SerialBackend().parallelism == 1

    def test_empty_task_list(self):
        assert SerialBackend().map(square, []) == []

    def test_satisfies_protocol(self):
        assert isinstance(SerialBackend(), Backend)


class TestMultiprocessBackend:
    def test_maps_in_order(self):
        backend = MultiprocessBackend(workers=2)
        assert backend.map(square, list(range(7))) == [v * v for v in range(7)]

    def test_single_worker_runs_inline(self):
        # workers=1 must not spin up a pool (closures would otherwise fail
        # to pickle) — it degenerates to serial execution.
        backend = MultiprocessBackend(workers=1)
        assert backend.map(lambda v: v + 1, [1, 2]) == [2, 3]

    def test_single_task_runs_inline(self):
        assert MultiprocessBackend(workers=4).map(lambda v: v + 1, [41]) == [42]

    def test_parallelism_reports_workers(self):
        assert MultiprocessBackend(workers=3).parallelism == 3
        assert MultiprocessBackend().parallelism == available_workers()

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            MultiprocessBackend(workers=2).map(faulty, [1, 2])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessBackend(workers=0)

    def test_satisfies_protocol(self):
        assert isinstance(MultiprocessBackend(workers=2), Backend)


class TestPersistentPool:
    def test_pool_opens_and_closes_with_context(self):
        backend = MultiprocessBackend(workers=2)
        assert not backend.pool_is_open
        with backend:
            assert backend.pool_is_open
        assert not backend.pool_is_open

    def test_pool_is_reused_across_maps(self):
        backend = MultiprocessBackend(workers=2)
        with backend:
            executor = backend._executor
            first = backend.map(square, [1, 2, 3])
            second = backend.map(square, [4, 5])
            assert backend._executor is executor  # same pool, not re-forked
        assert first == [1, 4, 9] and second == [16, 25]

    def test_results_identical_with_and_without_persistent_pool(self):
        backend = MultiprocessBackend(workers=2)
        transient = backend.map(square, list(range(6)))
        with backend:
            persistent = backend.map(square, list(range(6)))
        assert transient == persistent

    def test_context_is_reentrant_outermost_exit_closes(self):
        backend = MultiprocessBackend(workers=2)
        with backend:
            executor = backend._executor
            with backend:
                assert backend._executor is executor
                assert backend.map(square, [3, 4]) == [9, 16]
            assert backend.pool_is_open  # inner exit must not kill the pool
        assert not backend.pool_is_open

    def test_single_worker_context_opens_no_pool(self):
        backend = MultiprocessBackend(workers=1)
        with backend:
            assert not backend.pool_is_open
            assert backend.map(square, [2]) == [4]

    def test_exception_inside_context_still_closes_pool(self):
        backend = MultiprocessBackend(workers=2)
        with pytest.raises(RuntimeError):
            with backend:
                raise RuntimeError("boom")
        assert not backend.pool_is_open

    def test_pickled_backend_drops_the_live_pool(self):
        backend = MultiprocessBackend(workers=2)
        with backend:
            clone = pickle.loads(pickle.dumps(backend))
        assert clone.workers == 2
        assert not clone.pool_is_open

    def test_pool_scope_passthrough_for_serial(self):
        serial = SerialBackend()
        with pool_scope(serial) as scoped:
            assert scoped is serial
            assert scoped.map(square, [3]) == [9]

    def test_pool_scope_opens_multiprocess_pool(self):
        backend = MultiprocessBackend(workers=2)
        with pool_scope(backend) as scoped:
            assert scoped is backend
            assert backend.pool_is_open
        assert not backend.pool_is_open


class TestResolveBackend:
    def test_default_uses_the_thread_budget(self, monkeypatch):
        monkeypatch.setattr(backends_module, "available_workers", lambda: 3)
        assert resolve_backend() == ThreadBackend(3)
        assert resolve_backend(None, None) == ThreadBackend(3)
        assert isinstance(resolve_backend(None, 1), SerialBackend)

    def test_default_is_serial_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(backends_module, "available_workers", lambda: 1)
        assert isinstance(resolve_backend(), SerialBackend)

    def test_workers_alone_selects_multiprocess(self):
        backend = resolve_backend(None, 4)
        assert isinstance(backend, MultiprocessBackend)
        assert backend.parallelism == 4

    def test_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("multiprocess"), MultiprocessBackend)
        assert isinstance(resolve_backend("MULTIPROCESS", 2), MultiprocessBackend)

    def test_instance_passthrough(self):
        backend = MultiprocessBackend(workers=2)
        assert resolve_backend(backend) is backend

    def test_instance_with_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(MultiprocessBackend(workers=2), workers=4)

    def test_serial_with_many_workers_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend("serial", workers=2)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("quantum")

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(3.14)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            resolve_backend(None, 0)

    def test_backend_names_constant(self):
        assert set(BACKEND_NAMES) == {"serial", "multiprocess", "gpu", "fleet"}
