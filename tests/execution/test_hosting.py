"""Fork-inherited input hosting: tokens, bit-identity, pool generations, cleanup."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.monte_carlo import evaluate_batch_chunk, run_sweep, sweep_scope
from repro.analysis.yield_analysis import bisect_max_tolerable_sigma
from repro.exceptions import ConfigurationError, HostingError
from repro.execution import (
    Hosted,
    MultiprocessBackend,
    SerialBackend,
    ThreadBackend,
    hosted_inputs,
    resolve_array,
    resolve_network,
)
from repro.execution.backends import _process_pool
from repro.execution.hosting import hosting_generation
from repro.onn import SPNNArchitecture
from repro.onn.inference import NetworkAccuracyBatchTrial, monte_carlo_accuracy
from repro.onn.spnn import SPNN
from repro.utils.rng import spawn_rngs, spawn_slice
from repro.variation.models import UncertaintyModel

SRC = Path(__file__).resolve().parents[2] / "src"


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


def _shm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def _worker_pids(backend) -> frozenset:
    """Pids of the persistent pool's workers."""
    return frozenset(backend._executor._processes)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


class TestHostedInputs:
    def test_in_process_backends_pass_inputs_through(self):
        spnn, features, labels = _small_spnn()
        for backend in (SerialBackend(), ThreadBackend(2), MultiprocessBackend(workers=1)):
            with hosted_inputs(backend, features, labels, spnn) as (x, y, network):
                assert x is features and y is labels and network is spnn
        assert hosting_generation() == 0

    def test_sharded_backend_hosts_tokens_until_exit(self):
        spnn, features, labels = _small_spnn()
        with hosted_inputs(MultiprocessBackend(workers=2), features, labels, spnn, None) as hosted:
            x, y, network, nothing = hosted
            assert all(isinstance(value, Hosted) for value in (x, y, network))
            assert nothing is None
            assert resolve_array(x) is features and resolve_array(y) is labels
            assert resolve_network(network) is spnn
            assert hosting_generation() == max(value.token for value in (x, y, network))
        assert hosting_generation() == 0
        with pytest.raises(HostingError, match="not in this process's table"):
            resolve_array(x)

    def test_token_pickles_to_a_few_bytes(self):
        features = np.zeros((1000, 100))  # 800 KB
        with hosted_inputs(MultiprocessBackend(workers=2), features) as (handle,):
            payload = pickle.dumps(handle)
            assert len(payload) < 128
            assert resolve_array(pickle.loads(payload)) is features

    def test_unknown_token_is_a_clear_error(self):
        with pytest.raises(HostingError) as caught:
            resolve_network(Hosted(10**9))
        assert not isinstance(caught.value, KeyError)

    def test_worker_forked_before_the_hosting_reports_it(self):
        """A raw pool that is not replaced cannot see a newer token."""
        features = np.arange(6.0)
        with _process_pool(2) as executor:
            executor.submit(os.getpid).result()  # forks the workers now
            with hosted_inputs(MultiprocessBackend(workers=2), features) as (handle,):
                with pytest.raises(HostingError, match=f"#{handle.token}"):
                    executor.submit(resolve_array, handle).result()

    def test_resolve_array_passthrough(self):
        plain = np.arange(4)
        assert resolve_array(plain) is plain

    def test_worker_resolves_complex_and_integer_arrays_byte_equal(self):
        arrays = (
            np.arange(12, dtype=np.int64).reshape(3, 4),
            (np.arange(6) + 1j * np.arange(6)).reshape(2, 3),
        )
        with MultiprocessBackend(workers=2) as backend:
            with hosted_inputs(backend, *arrays) as handles:
                resolved = backend.map(resolve_array, list(handles))
        for array, copy in zip(arrays, resolved):
            assert copy.dtype == array.dtype and copy.shape == array.shape
            assert copy.tobytes() == array.tobytes()

    def test_hosted_trial_payload_shrinks(self):
        """A trial over tokens pickles to a fraction of one over the inputs."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        full = len(pickle.dumps(NetworkAccuracyBatchTrial(spnn=spnn, features=features, labels=labels, model=model)))
        with hosted_inputs(MultiprocessBackend(workers=2), features, labels, spnn) as (x, y, network):
            hosted = len(pickle.dumps(NetworkAccuracyBatchTrial(spnn=network, features=x, labels=y, model=model)))
        assert hosted < full / 10


class TestForkContext:
    def test_pool_context_is_fork(self, monkeypatch):
        """Pinned, not taken from the default (``forkserver`` from 3.14)."""
        default = multiprocessing.context._default_context
        monkeypatch.setattr(default, "_actual_context", multiprocessing.get_context("spawn"))
        with MultiprocessBackend(workers=2) as backend:
            assert backend._executor._mp_context is multiprocessing.get_context("fork")

    def test_missing_fork_is_a_configuration_error(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        with pytest.raises(ConfigurationError, match="fork"):
            with MultiprocessBackend(workers=2):
                pass
        with pytest.raises(ConfigurationError, match="fork"):
            MultiprocessBackend(workers=2).map(abs, [1, 2])


class TestBitIdentity:
    def test_hosted_eval_bit_identical_for_every_worker_count(self):
        """Hosting never changes samples."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        reference = monte_carlo_accuracy(spnn, features, labels, model, iterations=24, rng=11)
        for workers in (1, 2, 4):
            backend = MultiprocessBackend(workers=workers)
            with sweep_scope(backend, features, labels, spnn) as (x, y, network):
                samples = monte_carlo_accuracy(network, x, y, model, iterations=24, rng=11, backend=backend)
            assert samples.tobytes() == reference.tobytes(), f"workers={workers}"

    def test_workspace_and_hosting_compose_bit_identically(self):
        """Workspace arenas are per-process: reuse is aliasing-safe under sharding."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        reference = monte_carlo_accuracy(spnn, features, labels, model, iterations=16, rng=5)
        for workers in (1, 2):
            backend = MultiprocessBackend(workers=workers)
            with sweep_scope(backend, features, labels) as (x, y, _):
                # Two consecutive runs through the same per-process arenas:
                # buffer recycling must not leak state between runs.
                first = monte_carlo_accuracy(
                    spnn, x, y, model, iterations=16, rng=5, backend=backend, use_workspace=True,
                )
                second = monte_carlo_accuracy(
                    spnn, x, y, model, iterations=16, rng=5, backend=backend, use_workspace=True,
                )
            assert first.tobytes() == reference.tobytes(), f"workers={workers}"
            assert second.tobytes() == reference.tobytes(), f"workers={workers}"


    def test_pickled_network_token_bit_identical_across_workers(self):
        """A token that crossed a pickle boundary serves ``workers=`` sweeps."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        reference = monte_carlo_accuracy(spnn, features, labels, model, iterations=10, rng=5)
        with hosted_inputs(MultiprocessBackend(workers=2), spnn) as (handle,):
            for workers in (1, 2):
                samples = monte_carlo_accuracy(
                    pickle.loads(pickle.dumps(handle)), features, labels, model,
                    iterations=10, rng=5, workers=workers, chunk_size=3,
                )
                assert samples.tobytes() == reference.tobytes(), f"workers={workers}"


class TestPoolGenerations:
    def test_pool_serving_a_newer_hosting_matches_serial(self):
        """A pool forked under one hosting is re-forked for a newer one."""
        spnn, features, labels = _small_spnn()
        other_spnn, other_features, other_labels = _small_spnn(seed=4)
        model = UncertaintyModel.both(0.02)
        expected = monte_carlo_accuracy(other_spnn, other_features, other_labels, model, iterations=24, rng=2)
        with MultiprocessBackend(workers=2) as backend:
            with sweep_scope(backend, features, labels, spnn) as (x, y, network):
                monte_carlo_accuracy(network, x, y, model, iterations=24, rng=2, backend=backend)
                first_pids = _worker_pids(backend)
                with sweep_scope(backend, other_features, other_labels, other_spnn) as (ox, oy, other):
                    samples = monte_carlo_accuracy(other, ox, oy, model, iterations=24, rng=2, backend=backend)
                    assert _worker_pids(backend).isdisjoint(first_pids)
        assert samples.tobytes() == expected.tobytes()

    def test_scope_hosting_nothing_new_keeps_the_pool(self):
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        with MultiprocessBackend(workers=2) as backend:
            with sweep_scope(backend, features, labels, spnn) as (x, y, network):
                monte_carlo_accuracy(network, x, y, model, iterations=24, rng=2, backend=backend)
                pids = _worker_pids(backend)
                with sweep_scope(backend, x, y, network):
                    monte_carlo_accuracy(network, x, y, model, iterations=24, rng=2, backend=backend)
                assert _worker_pids(backend) == pids
            # The hosting has exited: nothing newer, so the pool stays too.
            monte_carlo_accuracy(spnn, features, labels, model, iterations=24, rng=2, backend=backend)
            assert _worker_pids(backend) == pids

    def test_outer_scope_serves_one_network_after_another(self):
        """EXP 3's shape: one eval-set hosting, a network hosted per model."""
        spnn, features, labels = _small_spnn()
        other_spnn = _small_spnn(seed=4)[0]
        model = UncertaintyModel.both(0.02)
        expected = [
            monte_carlo_accuracy(net, features, labels, model, iterations=24, rng=6) for net in (spnn, other_spnn)
        ]
        with MultiprocessBackend(workers=2) as backend:
            with sweep_scope(backend, features, labels) as (x, y, _):
                for net, reference in zip((spnn, other_spnn), expected):
                    with sweep_scope(backend, x, y, net) as (_, _, hosted):
                        samples = monte_carlo_accuracy(hosted, x, y, model, iterations=24, rng=6, backend=backend)
                    assert samples.tobytes() == reference.tobytes()

    def test_pool_per_map_forks_after_the_hosting(self):
        """Without a persistent pool every map forks with the live table."""
        spnn, features, labels = _small_spnn()
        model = UncertaintyModel.both(0.02)
        expected = monte_carlo_accuracy(spnn, features, labels, model, iterations=24, rng=8)
        backend = MultiprocessBackend(workers=2)
        with hosted_inputs(backend, features, labels, spnn) as (x, y, network):
            samples = monte_carlo_accuracy(network, x, y, model, iterations=24, rng=8, backend=backend)
        assert not backend.pool_is_open
        assert samples.tobytes() == expected.tobytes()

    def test_tokens_are_never_reused(self):
        """A newer hosting always outranks what older workers inherited."""
        backend = MultiprocessBackend(workers=2)
        with hosted_inputs(backend, np.arange(3.0)) as (first,):
            pass
        with hosted_inputs(backend, np.arange(3.0)) as (second,):
            assert second.token > first.token
            assert hosting_generation() == second.token

    def test_bisection_probes_share_one_pool(self, monkeypatch):
        """Every probe of a bisection runs on the workers of its one hosting."""
        spnn, features, labels = _small_spnn()
        seen = []
        original_map = MultiprocessBackend.map

        def recording_map(self, fn, tasks):
            results = original_map(self, fn, tasks)
            seen.append(_worker_pids(self))
            return results

        monkeypatch.setattr(MultiprocessBackend, "map", recording_map)
        backend = MultiprocessBackend(workers=2)
        # The nominal accuracy passes its own spec and sigma_hi fails it, so
        # the bracket is bisected.
        nominal = spnn.accuracy(features, labels, use_hardware=True)
        result = bisect_max_tolerable_sigma(
            spnn, features, labels, accuracy_threshold=nominal, sigma_hi=0.5, tolerance=0.05,
            iterations=8, rng=1, backend=backend,
        )
        assert result.upper_bound is not None and len(result.probes) >= 4
        assert len(seen) == len(result.probes) - 1  # sigma_lo = 0 is not sampled
        assert len(set(seen)) == 1 and len(seen[0]) == 2


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


def test_failing_sweep_leaves_nothing_behind():
    """A chunk error reaches the caller, drops the hosting, keeps the pool."""
    features = np.arange(40.0).reshape(5, 8)
    labels = np.arange(5)
    before = _shm_segments()
    with MultiprocessBackend(workers=2) as backend:
        with pytest.raises(RuntimeError, match="chunk failed"):
            with sweep_scope(backend, features, labels) as (hosted, _, _):
                assert isinstance(hosted, Hosted)
                assert hosting_generation() == hosted.token + 1
                parts = [
                    (HostedNormalTrial(hosted), spawn_slice(1, 8)),
                    (HostedNormalTrial(hosted, fail=True), spawn_slice(2, 8)),
                ]
                run_sweep(backend, evaluate_batch_chunk, parts, chunk_size=2)
        assert hosting_generation() == 0
        assert backend.pool_is_open
        # The same backend runs a clean sweep afterwards.
        with sweep_scope(backend, features, labels) as (hosted, _, _):
            [samples] = run_sweep(
                backend, evaluate_batch_chunk, [(HostedNormalTrial(hosted), spawn_slice(3, 6))], chunk_size=2
            )
    expected = HostedNormalTrial(features)(spawn_rngs(3, 6))
    assert samples.tobytes() == expected.tobytes()
    assert _shm_segments() - before == set()


def test_hosted_inputs_pass_through():
    """A scope inside a scope hosts nothing twice: tokens come back as they are."""
    spnn, features, labels = _small_spnn()
    with MultiprocessBackend(workers=2) as backend:
        with sweep_scope(backend, features, labels, spnn) as (outer_x, outer_y, outer_net):
            assert isinstance(outer_net, Hosted)
            with sweep_scope(backend, outer_x, labels, outer_net) as (inner_x, inner_y, inner_net):
                assert inner_x is outer_x and inner_net is outer_net
                assert isinstance(inner_y, Hosted) and inner_y != outer_y
            with sweep_scope(backend, outer_x, outer_y) as (_, _, network):
                assert network is None


#: Sharded runs in a fresh interpreter: a pool whose workers start before
#: anything is hosted, two hostings in that pool, then a pool per map.
_SHARDED_RUNS = textwrap.dedent(
    """
    import numpy as np
    from multiprocessing import resource_tracker
    from repro.analysis.monte_carlo import sweep_scope
    from repro.execution import MultiprocessBackend, pool_scope
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
        with sweep_scope(backend, features, labels, spnn) as (x, y, net):
            monte_carlo_accuracy(net, x, y, model, iterations=400, rng=1, backend=backend)

    with pool_scope(backend):
        monte_carlo_accuracy(spnn, features, labels, model, iterations=400, rng=1, backend=backend)
        hosted_run()
        hosted_run()
    monte_carlo_accuracy(spnn, features, labels, model, iterations=400, rng=1, backend=backend)
    print(resource_tracker._resource_tracker._pid)
    """
)


def test_sharded_runs_start_no_resource_tracker():
    """Sharded sweeps create no shared memory, so no tracker process starts."""
    before = _shm_segments()
    done = subprocess.run(
        [sys.executable, "-c", _SHARDED_RUNS], env=_child_env(), capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"
    assert "resource_tracker" not in done.stderr, done.stderr
    assert _shm_segments() - before == set()


def _children(pid: int) -> set:
    """Child pids of ``pid``, read from ``/proc``."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.add(int(entry))
    return children


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads worker pids from /proc")
def test_ctrl_c_mid_sweep_leaves_nothing_behind():
    """SIGINT to a sharded CLI sweep's process group, as a terminal's Ctrl-C sends it."""
    before = _shm_segments()
    command = [
        sys.executable, "-u", "-m", "repro.cli", "yield", "--smoke",
        "--workers", "2", "--iterations", "3000", "--progress",
    ]
    proc = subprocess.Popen(
        command, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # Bounds the blocking reads below: a run that hangs is killed, and the
    # test then fails on its exit code or its missing frame.
    watchdog = threading.Timer(120, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    workers, appeared = set(), set()
    try:
        for line in proc.stdout:
            appeared |= _shm_segments() - before
            if "chunk 1/" in line:
                break
        else:
            pytest.fail(f"no chunk frame before exit: {proc.stderr.read()}")
        workers = _children(proc.pid)
        os.killpg(proc.pid, signal.SIGINT)
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline:
            appeared |= _shm_segments() - before
            time.sleep(0.05)
        returncode = proc.poll()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert returncode is not None, "the sweep outlived SIGINT by 60 s"
    assert returncode != 0
    assert len(workers) >= 2
    time.sleep(0.5)
    assert [pid for pid in workers if _alive(pid)] == []
    assert appeared | (_shm_segments() - before) == set()
