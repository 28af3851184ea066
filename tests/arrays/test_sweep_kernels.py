"""The column-sweep kernel registry: conformance, selection and blocking.

Every registered kernel is held to the same contract on the same packed
:class:`~repro.arrays.ColumnProgram`: host kernels (``looped``, ``fused``,
``numba``) and the strict mock device must match the reference loop **bit
for bit**; a real CuPy device, when present, to ``allclose`` at fixed
seeds.  Kernels whose dependencies are missing (numba, CuPy) are *skipped*,
never failed — the registry's whole point is graceful degradation.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.arrays import (
    HOST_BACKEND,
    SWEEP_KERNEL_ENV,
    FusedSweepKernel,
    apply_column_sweep,
    available_sweep_kernels,
    get_array_backend,
    get_sweep_kernel,
    register_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
    to_host,
    use_array_backend,
)
from repro.arrays.sweep import _HOST_BLOCK_ELEMENTS
from repro.mesh.mesh import MZIMesh
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import sample_mesh_perturbation_batch
from repro.exceptions import ConfigurationError


def _sweep_inputs(n: int, batch: int, backend, scheme: str = "clements", seed: int = 7):
    """Packed program + column-sorted components + identity work batch."""
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=seed), scheme=scheme)
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.02), spawn_rngs(seed + 1, batch)
    )
    components, _ = mesh._blocks_and_phases(perturbation, backend)
    program = mesh.column_program(backend)
    sorted_components = tuple(c[..., program.perm] for c in components)
    xp = backend.xp
    eye = xp.broadcast_to(
        xp.eye(n, dtype=xp.complex128), (batch, n, n)
    )
    return program, sorted_components, eye


def _kernel_backend(name: str):
    """The array backend a kernel should be exercised on, or None to skip."""
    kernel = get_sweep_kernel(name)
    if not kernel.available():
        pytest.skip(f"sweep kernel {name!r} is unavailable (dependency missing)")
    if kernel.supports(HOST_BACKEND):
        return HOST_BACKEND
    from repro.arrays import available_array_backends

    for candidate in available_array_backends():
        backend = get_array_backend(candidate)
        if kernel.supports(backend):
            return backend
    pytest.skip(f"no array backend in this environment supports kernel {name!r}")


class TestRegistry:
    def test_reference_kernels_registered(self):
        names = sweep_kernel_names()
        for expected in ("looped", "fused", "numba", "cupy_raw"):
            assert expected in names

    def test_available_kernels_always_include_reference(self):
        available = available_sweep_kernels(HOST_BACKEND)
        assert "looped" in available
        assert "fused" in available

    def test_get_unknown_kernel_fails_loudly(self):
        with pytest.raises(ConfigurationError):
            get_sweep_kernel("no-such-kernel")

    def test_register_requires_name(self):
        class Nameless(FusedSweepKernel):
            name = ""

        with pytest.raises(ConfigurationError):
            register_sweep_kernel(Nameless())

    def test_env_override_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "looped")
        assert select_sweep_kernel(HOST_BACKEND).name == "looped"

    def test_env_override_unknown_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "no-such-kernel")
        with pytest.raises(ConfigurationError):
            select_sweep_kernel(HOST_BACKEND)

    def test_env_override_unavailable_fails_loudly(self, monkeypatch):
        kernel = get_sweep_kernel("numba")
        if kernel.available():  # pragma: no cover - numba-equipped machines
            pytest.skip("numba installed; unavailability cannot be simulated")
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "numba")
        with pytest.raises(ConfigurationError):
            select_sweep_kernel(HOST_BACKEND)

    def test_env_override_unsupported_backend_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "fused")
        mock = get_array_backend("mock_device")
        kernel = get_sweep_kernel("fused")
        if kernel.supports(mock):
            monkeypatch.setenv(SWEEP_KERNEL_ENV, "cupy_raw")
            if get_sweep_kernel("cupy_raw").available():  # pragma: no cover
                pytest.skip("CuPy installed; unsupported case needs a host-only env")
            with pytest.raises(ConfigurationError):
                select_sweep_kernel(mock)
        else:  # pragma: no cover - depends on fused's backend support
            with pytest.raises(ConfigurationError):
                select_sweep_kernel(mock)

    def test_default_selection_prefers_fused_on_host(self):
        selected = select_sweep_kernel(HOST_BACKEND)
        if get_sweep_kernel("numba").available():  # pragma: no cover
            assert selected.name == "numba"
        else:
            assert selected.name == "fused"

    def test_kernel_availability_probe_memoized(self):
        for name in ("fused", "looped"):
            kernel = get_sweep_kernel(name)
            first = kernel.availability()
            assert kernel.availability() is first, "probe result must be memoized"
            assert first == (True, None)

    def test_static_dispatch_on_numpy_backend(self, monkeypatch):
        monkeypatch.delenv(SWEEP_KERNEL_ENV, raising=False)
        if get_sweep_kernel("numba").available():  # pragma: no cover
            pytest.skip("numba installed; it precedes fused in the static order")
        numpy_backend = get_array_backend("numpy")
        assert select_sweep_kernel(numpy_backend).name == "fused"
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "looped")
        assert select_sweep_kernel(numpy_backend).name == "looped"

    def test_dispatch_writes_no_cache(self, tmp_path):
        # A fresh interpreter with an empty cache directory and no REPRO_*
        # overrides: building a mesh and sweeping a batch must not measure
        # anything into, or write anything under, the cache directory.
        cache = tmp_path / "xdg-cache"
        cache.mkdir()
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["XDG_CACHE_HOME"] = str(cache)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
        )
        script = (
            "from repro.mesh.mesh import MZIMesh\n"
            "from repro.utils import random_unitary\n"
            "from repro.utils.rng import spawn_rngs\n"
            "from repro.variation.models import UncertaintyModel\n"
            "from repro.variation.sampler import sample_mesh_perturbation_batch\n"
            "mesh = MZIMesh.from_unitary(random_unitary(8, rng=3), scheme='clements')\n"
            "batch = sample_mesh_perturbation_batch(mesh, UncertaintyModel.both(0.01), spawn_rngs(5, 16))\n"
            "assert mesh.matrix_batch(batch).shape == (16, 8, 8)\n"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=120)
        assert list(cache.iterdir()) == []

    def test_apply_accepts_kernel_instance(self):
        backend = HOST_BACKEND
        program, components, eye = _sweep_inputs(6, 3, backend)
        by_name = np.asarray(eye).copy()
        by_instance = np.asarray(eye).copy()
        apply_column_sweep(backend, by_name, components, program, kernel="fused")
        apply_column_sweep(
            backend, by_instance, components, program, kernel=FusedSweepKernel()
        )
        np.testing.assert_array_equal(by_instance, by_name)


@pytest.mark.parametrize("name", sorted(sweep_kernel_names()))
@pytest.mark.parametrize(
    "n,batch,scheme",
    [(6, 4, "clements"), (6, 4, "reck"), (8, 9, "clements")],
)
class TestKernelConformance:
    """Every kernel against the looped host reference on the same inputs."""

    def test_matches_reference(self, name, n, batch, scheme):
        backend = _kernel_backend(name)
        host_program, host_components, host_eye = _sweep_inputs(
            n, batch, HOST_BACKEND, scheme=scheme
        )
        reference = np.asarray(host_eye).copy()
        apply_column_sweep(
            HOST_BACKEND, reference, host_components, host_program, kernel="looped"
        )
        if backend is HOST_BACKEND:
            result = np.asarray(host_eye).copy()
            apply_column_sweep(backend, result, host_components, host_program, kernel=name)
        else:
            with use_array_backend(backend):
                program, components, eye = _sweep_inputs(n, batch, backend, scheme=scheme)
                result = backend.xp.empty_like(eye)
                result[...] = eye
                apply_column_sweep(backend, result, components, program, kernel=name)
            result = to_host(result)
        if backend.is_host or backend.name == "mock_device":
            np.testing.assert_array_equal(result, reference)
        else:  # pragma: no cover - requires a CUDA device
            np.testing.assert_allclose(result, reference, rtol=1e-10, atol=1e-12)


class TestFusedBlocking:
    """The fused kernel's internal cache blocking is a pure perf detail."""

    def test_blocked_path_bit_identical_to_looped(self):
        n = 16
        block = max(1, _HOST_BLOCK_ELEMENTS // (n * n))
        for batch in (block + 1, 3 * block + 7, 1):
            program, components, eye = _sweep_inputs(n, batch, HOST_BACKEND, seed=batch)
            looped = np.asarray(eye).copy()
            fused = np.asarray(eye).copy()
            apply_column_sweep(HOST_BACKEND, looped, components, program, kernel="looped")
            apply_column_sweep(HOST_BACKEND, fused, components, program, kernel="fused")
            np.testing.assert_array_equal(fused, looped)

    def test_single_matrix_lead_bit_identical(self):
        program, components, eye = _sweep_inputs(6, 1, HOST_BACKEND)
        single_components = tuple(np.asarray(c)[0] for c in components)
        looped = np.asarray(eye)[0].copy()
        fused = looped.copy()
        apply_column_sweep(HOST_BACKEND, looped, single_components, program, kernel="looped")
        apply_column_sweep(HOST_BACKEND, fused, single_components, program, kernel="fused")
        np.testing.assert_array_equal(fused, looped)

    def test_internal_blocking_flags(self):
        assert get_sweep_kernel("fused").blocks_internally
        assert get_sweep_kernel("numba").blocks_internally
        assert get_sweep_kernel("cupy_raw").blocks_internally
        assert not get_sweep_kernel("looped").blocks_internally
