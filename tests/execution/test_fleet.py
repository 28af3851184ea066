"""The distributed sweep fleet: transport, artifact cache, bit-identity.

The load-bearing guarantees, mirroring the rest of the execution layer:

* **Bit-identity** — fleet results equal serial results for any worker
  count and any cache state (cold or warm), on the real analysis sweeps
  (``yield_sweep``, ``timeline_sweep``, ``monte_carlo_accuracy``).
* **Warm cache transfers hashes, not arrays** — a repeat request over the
  same spec pushes zero artifact bytes once every worker link is warm,
  and per-chunk task payloads stay within 2x of the ``StreamSlice``
  recipe floor.
* **Failure is loud, never a hang** — a worker disconnect mid-request
  either requeues to a surviving worker or surfaces a clear
  ``FleetRequestError`` within the request deadline.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import time

import numpy as np
import pytest

from repro.execution import (
    BACKEND_NAMES,
    FleetBackend,
    FleetRequestError,
    FleetServer,
    SerialBackend,
    local_fleet,
    pool_scope,
    resolve_backend,
)
from repro.execution.fleet import (
    ArrayRef,
    ConnectionClosed,
    TrialRef,
    array_digest,
    artifact_store,
    parse_address,
    publish_array,
    publish_trial,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.execution.fleet.cache import ArtifactStore
from repro.utils.rng import spawn_slice
from repro.variation import UncertaintyModel

WORKER_COUNTS = (1, 2, 4)

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not _FORK_AVAILABLE,
    reason="fleet tests fork local workers (test-module evaluators must resolve)",
)


# --------------------------------------------------------------------------- #
# module-level evaluators (pickled through the socket into the workers)
# --------------------------------------------------------------------------- #


def echo_chunk(task):
    start, trial, streams = task
    return start, trial(streams)


def slow_chunk(task):
    start, trial, streams = task
    time.sleep(float(streams))
    return start, trial(streams)


class ScaleTrial:
    """A minimal picklable trial: multiply the payload by a constant."""

    def __init__(self, scale: float):
        self.scale = scale

    def __call__(self, value):
        return self.scale * value


# --------------------------------------------------------------------------- #
# transport
# --------------------------------------------------------------------------- #


class TestProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            payload = {"type": "task", "index": 3, "payload": np.arange(5)}
            send_frame(left, payload)
            received = recv_frame(right)
            assert received["type"] == "task"
            assert received["index"] == 3
            np.testing.assert_array_equal(received["payload"], np.arange(5))
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_closed(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(right)
        finally:
            right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.2:9100") == ("10.0.0.2", 9100)
        with pytest.raises(ValueError):
            parse_address("no-port-here")
        with pytest.raises(ValueError):
            parse_address("host:notaport")


# --------------------------------------------------------------------------- #
# artifact cache
# --------------------------------------------------------------------------- #


class TestArtifactCache:
    def test_array_digest_is_content_addressed(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert array_digest(a) == array_digest(a.copy())
        assert array_digest(a) != array_digest(a + 1.0)
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(4, 3))

    def test_array_ref_pickles_as_a_hash(self):
        ref = publish_array(np.zeros((64, 64)))
        wire = pickle.dumps(ref, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(wire) < 120  # a digest, not 32 KiB of zeros
        clone = pickle.loads(wire)
        assert clone == ref
        np.testing.assert_array_equal(clone.array, np.zeros((64, 64)))

    def test_trial_publish_dedupes_identical_trials(self):
        first, _ = publish_trial(ScaleTrial(2.5))
        second, _ = publish_trial(ScaleTrial(2.5))
        third, _ = publish_trial(ScaleTrial(3.5))
        assert first.digest == second.digest
        assert first.digest != third.digest
        assert isinstance(first, TrialRef)

    def test_store_lru_evicts_by_bytes(self):
        store = ArtifactStore(max_bytes=3000)
        for index in range(4):
            store.put(f"d{index}", np.zeros(128), nbytes=1024)
        assert store.total_bytes <= 3000
        assert "d0" not in store  # oldest evicted
        assert "d3" in store
        assert store.missing(("d0", "d3")) == ("d0",)

    def test_store_get_miss_is_a_clear_error(self):
        with pytest.raises(KeyError, match="artifact"):
            ArtifactStore().get("deadbeef" * 4)


# --------------------------------------------------------------------------- #
# backend resolution and scheduling plumbing
# --------------------------------------------------------------------------- #


class TestFleetResolution:
    def test_fleet_is_a_registered_backend(self):
        assert "fleet" in BACKEND_NAMES

    def test_resolve_backend_builds_a_fleet(self):
        backend = resolve_backend("fleet", workers=3)
        assert isinstance(backend, FleetBackend)
        assert backend.min_workers == 3

    def test_pool_scope_keeps_the_coordinator_alive(self):
        with local_fleet(workers=1) as fleet:
            with pool_scope(fleet):
                pass
            # pool_scope exit must NOT close the persistent coordinator.
            result = fleet.map(echo_chunk, [(0, ScaleTrial(2.0), 4.0)])
            assert result == [(0, 8.0)]

    def test_order_preserved_and_results_match_inline(self):
        tasks = [(i, ScaleTrial(1.5), float(i)) for i in range(11)]
        expected = [echo_chunk(task) for task in tasks]
        with local_fleet(workers=2) as fleet:
            assert fleet.map(echo_chunk, tasks) == expected


# --------------------------------------------------------------------------- #
# bit-identity against the serial backend on the real sweeps
# --------------------------------------------------------------------------- #


def _yield_kwargs():
    return dict(sigmas=(0.0, 0.02, 0.05), iterations=6, rng=13)


def _timeline_kwargs():
    from repro.variation.process import OrnsteinUhlenbeckProcess

    return dict(
        model=UncertaintyModel.phase_only(0.08),
        process=OrnsteinUhlenbeckProcess(correlation_time=4.0),
        num_steps=3,
        timelines=6,
        rng=5,
    )


class TestFleetBitIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_yield_sweep_matches_serial(self, small_task, workers):
        from repro.analysis.yield_analysis import yield_sweep

        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        serial = yield_sweep(small_task.spnn, features, labels, **_yield_kwargs())
        with local_fleet(workers=workers) as fleet:
            sharded = yield_sweep(
                small_task.spnn, features, labels, backend=fleet, **_yield_kwargs()
            )
        for sigma in _yield_kwargs()["sigmas"]:
            assert np.array_equal(
                serial.accuracy_samples[sigma], sharded.accuracy_samples[sigma]
            ), (workers, sigma)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_timeline_sweep_matches_serial(self, small_task, workers):
        from repro.analysis.timeline import timeline_sweep

        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        [serial] = timeline_sweep(small_task.spnn, features, labels, **_timeline_kwargs())
        with local_fleet(workers=workers) as fleet:
            [sharded] = timeline_sweep(
                small_task.spnn, features, labels, backend=fleet, **_timeline_kwargs()
            )
        np.testing.assert_array_equal(serial.accuracy, sharded.accuracy)
        np.testing.assert_array_equal(serial.recalibrations, sharded.recalibrations)

    def test_monte_carlo_accuracy_matches_serial(self, small_task):
        from repro.onn.inference import monte_carlo_accuracy

        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        model = UncertaintyModel.both(0.03)
        serial = monte_carlo_accuracy(
            small_task.spnn, features, labels, model, iterations=12, rng=7
        )
        with local_fleet(workers=2) as fleet:
            sharded = monte_carlo_accuracy(
                small_task.spnn,
                features,
                labels,
                model,
                iterations=12,
                rng=7,
                backend=fleet,
            )
        np.testing.assert_array_equal(serial, sharded)


# --------------------------------------------------------------------------- #
# cold vs warm artifact cache
# --------------------------------------------------------------------------- #


class TestArtifactCacheColdWarm:
    def test_warm_request_transfers_hashes_not_arrays(self, small_task):
        """Repeat the same sweep on the same fleet: blobs stop flowing.

        The first (cold) request pushes the trial/network/eval-array blobs
        to the worker links it uses; once every link has served once, an
        identical request pushes **zero** artifact bytes — only digests and
        per-chunk ``StreamSlice`` recipes travel — and results stay
        bit-identical throughout.
        """
        from repro.analysis.yield_analysis import yield_sweep

        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        with local_fleet(workers=2) as fleet:
            cold = yield_sweep(
                small_task.spnn, features, labels, backend=fleet, **_yield_kwargs()
            )
            cold_requests = len(fleet.request_log)
            cold_artifact_bytes = sum(
                entry["artifact_bytes"] for entry in fleet.request_log
            )
            assert cold_artifact_bytes > 0  # the cold run really pushed blobs

            warm_bytes = None
            for _ in range(4):  # links warm lazily; a couple of repeats saturate
                warm = yield_sweep(
                    small_task.spnn, features, labels, backend=fleet, **_yield_kwargs()
                )
                for sigma in _yield_kwargs()["sigmas"]:
                    assert np.array_equal(
                        cold.accuracy_samples[sigma], warm.accuracy_samples[sigma]
                    )
                latest = fleet.request_log[-1]
                warm_bytes = latest["artifact_bytes"]
                if warm_bytes == 0:
                    break
            assert warm_bytes == 0, fleet.request_log

            # Per-chunk payloads are hash-sized: within 2x of what the
            # bare StreamSlice recipe for the largest chunk pickles to.
            chunks = sum(e["tasks"] for e in fleet.request_log[cold_requests:])
            task_bytes = sum(e["task_bytes"] for e in fleet.request_log[cold_requests:])
            slice_bytes = _stream_slice_floor(_yield_kwargs()["iterations"])
            assert task_bytes / chunks <= 2 * slice_bytes, (
                task_bytes / chunks,
                slice_bytes,
            )

    def test_cold_and_warm_runs_match_serial(self, small_task):
        from repro.onn.inference import monte_carlo_accuracy

        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        model = UncertaintyModel.phase_only(0.05)
        serial = monte_carlo_accuracy(
            small_task.spnn, features, labels, model, iterations=8, rng=3
        )
        with local_fleet(workers=2) as fleet:
            for _ in range(3):  # cold, then warm, then warmer
                sample = monte_carlo_accuracy(
                    small_task.spnn,
                    features,
                    labels,
                    model,
                    iterations=8,
                    rng=3,
                    backend=fleet,
                )
                np.testing.assert_array_equal(serial, sample)


def _stream_slice_floor(count: int) -> int:
    """Pickled bytes of a bare ``(start, digest-ref, (StreamSlice,))`` chunk task."""
    recipe = spawn_slice(np.random.default_rng(0), count)
    task = (0, TrialRef("0" * 32), (recipe,))
    return len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))


# --------------------------------------------------------------------------- #
# failure semantics: disconnects and deadlines, never hangs
# --------------------------------------------------------------------------- #


def _spawn_worker(address: str) -> multiprocessing.Process:
    context = multiprocessing.get_context("fork")
    process = context.Process(target=run_worker, args=(address,), daemon=True)
    process.start()
    return process


class TestFailureSemantics:
    def test_close_retires_the_accept_thread_and_releases_the_port(self):
        # A closed coordinator must leave nothing behind: a leaked accept
        # thread blocked on a recycled fd number can steal connections
        # meant for a newer coordinator (its stale closed flag then drops
        # the worker silently), and a pinned listener keeps the port.
        server = FleetServer()
        host, port = server._host, server._port
        server.close()
        server._accept_thread.join(timeout=5.0)
        assert not server._accept_thread.is_alive()
        fresh = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        fresh.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            fresh.bind((host, port))  # raises if the old listener lingers
        finally:
            fresh.close()

    def test_worker_death_with_no_survivors_is_a_clear_error(self):
        server = FleetServer()
        worker = _spawn_worker(server.address)
        try:
            server.wait_for_workers(1, timeout=30.0)
            backend = FleetBackend(min_workers=1, timeout=60.0, server=server)
            tasks = [(0, ScaleTrial(1.0), 30.0)]  # sleeps 30s per chunk
            started = time.monotonic()

            def killer():
                time.sleep(1.0)
                worker.terminate()

            import threading

            threading.Thread(target=killer, daemon=True).start()
            with pytest.raises(FleetRequestError, match="disconnected"):
                backend.map(slow_chunk, tasks)
            assert time.monotonic() - started < 20.0  # error, not a hang
        finally:
            worker.terminate()
            server.close()

    def test_worker_death_requeues_to_survivors(self):
        server = FleetServer()
        workers = [_spawn_worker(server.address) for _ in range(2)]
        try:
            server.wait_for_workers(2, timeout=30.0)
            backend = FleetBackend(min_workers=2, timeout=120.0, server=server)
            tasks = [(i, ScaleTrial(2.0), 0.3) for i in range(8)]
            expected = [(i, 0.6) for i in range(8)]

            def killer():
                time.sleep(0.5)
                workers[0].terminate()

            import threading

            threading.Thread(target=killer, daemon=True).start()
            assert backend.map(slow_chunk, tasks) == expected
            assert server.worker_count == 1
        finally:
            for worker in workers:
                worker.terminate()
            server.close()

    def test_request_deadline_surfaces_a_timeout(self):
        server = FleetServer()
        worker = _spawn_worker(server.address)
        try:
            server.wait_for_workers(1, timeout=30.0)
            backend = FleetBackend(min_workers=1, timeout=1.0, server=server)
            with pytest.raises(FleetRequestError, match="timed out"):
                backend.map(slow_chunk, [(0, ScaleTrial(1.0), 30.0)])
        finally:
            worker.terminate()
            server.close()

    def test_worker_error_names_the_worker_and_chunk(self):
        with local_fleet(workers=1) as fleet:
            with pytest.raises(FleetRequestError, match="failed chunk"):
                fleet.map(echo_chunk, [(0, ScaleTrial(1.0), "not-a-number")])
            # The fleet stays serviceable after a failed request.
            assert fleet.map(echo_chunk, [(1, ScaleTrial(2.0), 3.0)]) == [(1, 6.0)]

    def test_no_workers_connected_fails_fast(self):
        backend = FleetBackend(min_workers=1, connect_timeout=0.5)
        try:
            with pytest.raises(FleetRequestError, match="spnn-repro worker --connect"):
                backend.map(echo_chunk, [(0, ScaleTrial(1.0), 1.0)])
        finally:
            backend.close()


# --------------------------------------------------------------------------- #
# telemetry: frames carry the evaluating host
# --------------------------------------------------------------------------- #


class TestFleetTelemetry:
    def test_traced_fleet_frames_carry_host_and_wire_payload(self, small_task):
        from repro.analysis.yield_analysis import yield_sweep
        from repro.observability import observe

        features = small_task.test_features[:40]
        labels = small_task.test_labels[:40]
        with local_fleet(workers=2) as fleet:
            yield_sweep(  # warm every link so frame payloads are hash-sized
                small_task.spnn, features, labels, backend=fleet, **_yield_kwargs()
            )
            with observe() as rec:
                traced = yield_sweep(
                    small_task.spnn, features, labels, backend=fleet, **_yield_kwargs()
                )
            serial = yield_sweep(small_task.spnn, features, labels, **_yield_kwargs())
            for sigma in _yield_kwargs()["sigmas"]:
                assert np.array_equal(
                    serial.accuracy_samples[sigma], traced.accuracy_samples[sigma]
                )
        frames = [f for f in rec.frames if f.label == "yield"]
        assert frames
        assert all(f.host for f in frames)
        slice_bytes = _stream_slice_floor(_yield_kwargs()["iterations"])
        for frame in frames:
            # Instrumentation measures the wire payload (refs + recipe),
            # not the rehydrated arrays.
            assert frame.task_bytes <= 2 * slice_bytes, frame
        # The fleet's hosting runs through its own spans.
        names = {s.name for s in rec.spans}
        assert "fleet/host_arrays" in names
        assert "fleet/host_network" in names
