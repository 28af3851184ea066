"""Column-ordered block components and nominal splitters, compared as bytes.

The mesh gathers its real device parameters into column order before the
trigonometry and writes the block components straight into the packed
``(CA, CB)`` sweep stacks; a phase-only model hands it no splitter fields
at all.  Both must give the very bytes of the historical pipeline, so
every comparison here is on ``.tobytes()``: ``==`` would let a ``-0.0``
pass for ``+0.0``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import HOST_BACKEND
from repro.arrays.kernels import apply_mzi_blocks, block_components, mzi_block_components
from repro.arrays.sweep import SWEEP_KERNEL_ENV
from repro.mesh.mesh import MeshPerturbationBatch, MZIMesh
from repro.photonics.constants import IDEAL_SPLITTER_AMPLITUDE
from repro.photonics.mzi import mzi_transfer_components
from repro.utils import random_unitary
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import mesh_batch_draw_length, mesh_perturbation_batch_from_draws

#: Phases with both signed zeros and the other exact points of the phasor.
PHASES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, np.pi / 2]),
    st.floats(-7.0, 7.0, allow_nan=False),
)

MODELS = {
    "phs": UncertaintyModel.phase_only(0.05),
    "bes": UncertaintyModel.splitter_only(0.05),
    "both": UncertaintyModel.both(0.05),
    "phs+screen": UncertaintyModel.phase_only(0.05, perturb_output_phases=True),
}


def _mesh(data, n: int, scheme: str) -> MZIMesh:
    """A compiled mesh retuned to generated phases (signed zeros included)."""
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=n), scheme=scheme)
    count = mesh.num_mzis
    thetas = data.draw(st.lists(PHASES, min_size=count, max_size=count))
    phis = data.draw(st.lists(PHASES, min_size=count, max_size=count))
    mesh.retune(np.array(thetas), np.array(phis), mesh.output_phases)
    return mesh


def _draws(data, mesh: MZIMesh, model: UncertaintyModel, batch: int) -> np.ndarray:
    seed = data.draw(st.integers(0, 2**32 - 1))
    length = mesh_batch_draw_length(mesh, model)
    return np.random.default_rng(seed).standard_normal((batch, length))


def _propagation_order_matrices(mesh: MZIMesh, perturbation) -> np.ndarray:
    """The historical pipeline: components in propagation order, then gathered."""
    thetas, phis = mesh.thetas(), mesh.phis()
    r_in = r_out = np.full(mesh.num_mzis, IDEAL_SPLITTER_AMPLITUDE)
    if perturbation.delta_theta is not None:
        thetas = thetas + perturbation.delta_theta
    if perturbation.delta_phi is not None:
        phis = phis + perturbation.delta_phi
    if perturbation.delta_r_in is not None:
        r_in = np.clip(r_in + perturbation.delta_r_in, 0.0, 1.0)
    if perturbation.delta_r_out is not None:
        r_out = np.clip(r_out + perturbation.delta_r_out, 0.0, 1.0)
    output_phases = mesh.output_phases
    if perturbation.delta_output_phase is not None:
        output_phases = output_phases + perturbation.delta_output_phase
    program = mesh.column_program(HOST_BACKEND)
    b00, b01, b10, b11 = (
        c[..., program.perm] for c in mzi_transfer_components(thetas, phis, r_in, r2=r_out)
    )
    batch = perturbation.batch_size
    ca = np.empty((batch, mesh.num_mzis, 2), dtype=np.complex128)
    cb = np.empty_like(ca)
    ca[..., 0], ca[..., 1], cb[..., 0], cb[..., 1] = b00, b10, b01, b11
    matrices = np.empty((batch, mesh.n, mesh.n), dtype=np.complex128)
    matrices[...] = np.eye(mesh.n)
    apply_mzi_blocks(matrices, (ca, cb), program)
    phases = np.exp(1j * output_phases)
    if phases.ndim == 1:
        phases = phases[None]
    return phases[:, :, None] * matrices


class TestNominalSplitters:
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 16),
        scheme=st.sampled_from(["clements", "reck"]),
        batch=st.integers(1, 50),
    )
    def test_none_splitter_fields_equal_explicit_zero_fields(self, data, n, scheme, batch):
        mesh = _mesh(data, n, scheme)
        model = UncertaintyModel.phase_only(data.draw(st.sampled_from([0.0, 0.01, 0.08])))
        draws = _draws(data, mesh, model, batch)
        gated = mesh_perturbation_batch_from_draws(mesh, model, draws)
        assert gated.delta_r_in is None and gated.delta_r_out is None
        count = mesh.num_mzis
        explicit = MeshPerturbationBatch(
            delta_theta=gated.delta_theta,
            delta_phi=gated.delta_phi,
            delta_r_in=draws[:, 2 * count : 3 * count] * 0.0,
            delta_r_out=draws[:, 3 * count : 4 * count] * 0.0,
        )
        matrices = mesh.matrix_batch(gated).tobytes()
        assert matrices == mesh.matrix_batch(explicit).tobytes()
        assert matrices == _propagation_order_matrices(mesh, explicit).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        batch=st.integers(1, 50),
        count=st.integers(1, 40),
    )
    def test_nominal_reflectance_components_equal_zero_shifted_ones(self, data, batch, count):
        """Any nominal ``r`` in [0, 1], the ends included: ``(M,)`` against ``(B, M)``."""
        values = st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, IDEAL_SPLITTER_AMPLITUDE]), st.floats(0.0, 1.0)),
            min_size=count,
            max_size=count,
        )
        r_in, r_out = np.array(data.draw(values)), np.array(data.draw(values))
        rows = st.lists(PHASES, min_size=batch * count, max_size=batch * count)
        theta = np.array(data.draw(rows)).reshape(batch, count)
        phi = np.array(data.draw(rows)).reshape(batch, count)
        zeros = np.random.default_rng(count).standard_normal((batch, count)) * 0.0

        def stacked(*args, **kwargs):
            stacks = (np.empty((batch, count, 2), complex), np.empty((batch, count, 2), complex))
            mzi_block_components(np, *args, out=block_components(stacks), **kwargs)
            return stacks

        nominal = stacked(theta, phi, r_in, r2=r_out)
        shifted = stacked(
            theta, phi, np.clip(r_in + zeros, 0.0, 1.0), r2=np.clip(r_out + zeros, 0.0, 1.0)
        )
        plain = mzi_block_components(np, theta, phi, r_in, r2=r_out)
        for got, want in zip(nominal, shifted):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(block_components(nominal), plain):
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestColumnOrderedComponents:
    @pytest.mark.parametrize("kernel", ["fused", "looped"])
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 16),
        scheme=st.sampled_from(["clements", "reck"]),
        batch=st.integers(1, 50),
        case=st.sampled_from(sorted(MODELS)),
    )
    def test_matrix_batch_equals_the_propagation_order_pipeline(
        self, kernel, data, n, scheme, batch, case
    ):
        mesh = _mesh(data, n, scheme)
        model = MODELS[case]
        perturbation = mesh_perturbation_batch_from_draws(
            mesh, model, _draws(data, mesh, model, batch)
        )
        expected = _propagation_order_matrices(mesh, perturbation).tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(SWEEP_KERNEL_ENV, kernel)
            assert mesh.matrix_batch(perturbation).tobytes() == expected
            single = perturbation.realization(batch - 1)
            assert mesh.matrix(single).tobytes() == expected[-16 * n * n :]
