"""The column-sweep kernel registry: conformance, selection and blocking.

Every registered kernel is held to the same contract on the same packed
:class:`~repro.arrays.ColumnProgram`: it must match the ``looped``
reference **bit for bit**.
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
    SWEEP_KERNEL_ENV,
    FusedSweepKernel,
    apply_column_sweep,
    get_sweep_kernel,
    register_sweep_kernel,
    select_sweep_kernel,
    sweep_kernel_names,
)
from repro.arrays.sweep import _HOST_BLOCK_ELEMENTS
from repro.mesh.mesh import MZIMesh
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import sample_mesh_perturbation_batch
from repro.exceptions import ConfigurationError


def _sweep_inputs(n: int, batch: int, scheme: str = "clements", seed: int = 7):
    """Packed program + column-sorted components + identity work batch."""
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=seed), scheme=scheme)
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.02), spawn_rngs(seed + 1, batch)
    )
    stacks, _ = mesh._column_stacks_and_phases(perturbation)
    eye = np.broadcast_to(np.eye(n, dtype=np.complex128), (batch, n, n))
    return mesh.column_program(), stacks, eye


class TestRegistry:
    def test_reference_kernels_registered(self):
        names = sweep_kernel_names()
        for expected in ("looped", "fused"):
            assert expected in names

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
        assert select_sweep_kernel().name == "looped"

    def test_env_override_unknown_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "no-such-kernel")
        with pytest.raises(ConfigurationError):
            select_sweep_kernel()

    def test_static_dispatch_prefers_fused(self, monkeypatch):
        monkeypatch.delenv(SWEEP_KERNEL_ENV, raising=False)
        assert select_sweep_kernel().name == "fused"
        monkeypatch.setenv(SWEEP_KERNEL_ENV, "looped")
        assert select_sweep_kernel().name == "looped"

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
        program, components, eye = _sweep_inputs(6, 3)
        by_name = np.asarray(eye).copy()
        by_instance = np.asarray(eye).copy()
        apply_column_sweep(by_name, components, program, kernel="fused")
        apply_column_sweep(by_instance, components, program, kernel=FusedSweepKernel())
        np.testing.assert_array_equal(by_instance, by_name)


@pytest.mark.parametrize("name", sorted(sweep_kernel_names()))
@pytest.mark.parametrize(
    "n,batch,scheme",
    [(6, 4, "clements"), (6, 4, "reck"), (8, 9, "clements")],
)
class TestKernelConformance:
    """Every kernel against the looped host reference on the same inputs."""

    def test_matches_reference(self, name, n, batch, scheme):
        program, components, eye = _sweep_inputs(n, batch, scheme=scheme)
        reference = np.asarray(eye).copy()
        apply_column_sweep(reference, components, program, kernel="looped")
        result = np.asarray(eye).copy()
        apply_column_sweep(result, components, program, kernel=name)
        np.testing.assert_array_equal(result, reference)


class TestFusedBlocking:
    """The fused kernel's internal cache blocking is a pure perf detail."""

    def test_blocked_path_bit_identical_to_looped(self):
        n = 16
        block = max(1, _HOST_BLOCK_ELEMENTS // (n * n))
        for batch in (block + 1, 3 * block + 7, 1):
            program, components, eye = _sweep_inputs(n, batch, seed=batch)
            looped = np.asarray(eye).copy()
            fused = np.asarray(eye).copy()
            apply_column_sweep(looped, components, program, kernel="looped")
            apply_column_sweep(fused, components, program, kernel="fused")
            np.testing.assert_array_equal(fused, looped)

    def test_single_matrix_lead_bit_identical(self):
        program, components, eye = _sweep_inputs(6, 1)
        single_components = tuple(np.asarray(c)[0] for c in components)
        looped = np.asarray(eye)[0].copy()
        fused = looped.copy()
        apply_column_sweep(looped, single_components, program, kernel="looped")
        apply_column_sweep(fused, single_components, program, kernel="fused")
        np.testing.assert_array_equal(fused, looped)

    def test_internal_blocking_flags(self):
        assert get_sweep_kernel("fused").blocks_internally
        assert not get_sweep_kernel("looped").blocks_internally
