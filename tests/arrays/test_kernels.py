"""The out-buffer kernels of :mod:`repro.arrays.kernels` against plain NumPy.

Each kernel is held to an independent oracle: the textbook expression it
stands for (Softplus, log-softmax, the MZI transfer matrix of Eq. (5) as a
product of splitter and phase matrices, a device-by-device 2x2 sweep), and
to the bit-identity properties the batched Monte Carlo path relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import kernels
from repro.mesh.mesh import MZIMesh
from repro.photonics.mzi import mzi_transfer
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import sample_mesh_perturbation_batch

GEN = np.random.default_rng(1234)


def _complex(shape, seed):
    gen = np.random.default_rng(seed)
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


class TestMatmulTransposed:
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
    def test_real_split_matches_complex_product(self, lead):
        activations = np.random.default_rng(1).standard_normal((5, 4))
        matrix = _complex(lead + (6, 4), 2)
        result = kernels.matmul_transposed(activations, matrix)
        expected = np.matmul(activations.astype(np.complex128), np.swapaxes(matrix, -2, -1))
        assert result.dtype == np.complex128
        assert result.shape == lead + (5, 6)
        np.testing.assert_allclose(result, expected, rtol=1e-13, atol=1e-14)

    def test_complex_activations_take_the_plain_matmul(self):
        activations = _complex((5, 4), 3)
        matrix = _complex((6, 4), 4)
        np.testing.assert_array_equal(
            kernels.matmul_transposed(activations, matrix), np.matmul(activations, matrix.T)
        )

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_batched_matrix_bit_identical_to_per_slice(self, kind):
        activations = (
            np.random.default_rng(5).standard_normal((7, 4))
            if kind == "real"
            else _complex((7, 4), 5)
        )
        matrices = _complex((3, 6, 4), 6)
        batched = kernels.matmul_transposed(activations, matrices)
        for index, matrix in enumerate(matrices):
            np.testing.assert_array_equal(
                batched[index], kernels.matmul_transposed(activations, matrix)
            )


class TestSoftplus:
    @pytest.mark.parametrize("beta", [1.0, 0.5, 2.0])
    def test_matches_reference_formula(self, beta):
        x = np.linspace(-5.0, 5.0, 41)
        np.testing.assert_array_equal(
            kernels.softplus(x, beta=beta), np.log1p(np.exp(beta * x)) / beta
        )

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_saturated_entries_pass_through(self, beta):
        x = np.array([-3.0, 0.0, 14.0, 16.0, 40.0, 100.0])
        result = kernels.softplus(x, beta=beta, threshold=30.0)
        saturated = beta * x > 30.0
        assert saturated.any() and not saturated.all()
        np.testing.assert_array_equal(result[saturated], x[saturated])
        np.testing.assert_array_equal(
            result[~saturated], np.log1p(np.exp(beta * x[~saturated])) / beta
        )

    @pytest.mark.parametrize("saturated", [False, True])
    def test_in_place_equals_out_of_place(self, saturated):
        x = np.linspace(-4.0, 4.0, 17)
        if saturated:
            x[-1] = 50.0
        expected = kernels.softplus(x.copy())
        buffer = x.copy()
        result = kernels.softplus(buffer, out=buffer)
        np.testing.assert_array_equal(result, expected)

    def test_non_finite_inputs(self):
        result = kernels.softplus(np.array([np.nan, np.inf, -np.inf, 0.0]))
        assert np.isnan(result[0])
        assert result[1] == np.inf
        assert result[2] == 0.0
        assert result[3] == np.log1p(1.0)


class TestLogSoftmax:
    @pytest.mark.parametrize("shape", [(5,), (4, 7), (2, 3, 6)])
    def test_rows_are_normalised(self, shape):
        x = np.random.default_rng(7).standard_normal(shape) * 3.0
        result = kernels.log_softmax(x)
        assert result.shape == shape
        np.testing.assert_allclose(np.exp(result).sum(axis=-1), 1.0, rtol=1e-14)

    def test_shift_invariant(self):
        x = np.random.default_rng(8).standard_normal((4, 5))
        np.testing.assert_allclose(
            kernels.log_softmax(x + 123.0), kernels.log_softmax(x), rtol=0, atol=1e-12
        )

    def test_large_logits_stay_finite(self):
        result = kernels.log_softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(result[:, :2]))
        assert result[0, 0] == 0.0 and result[0, 1] == -1000.0


class TestUnitPhasor:
    @pytest.mark.parametrize(
        "angle",
        [0.3, np.linspace(-2 * np.pi, 2 * np.pi, 33), GEN.uniform(-10.0, 10.0, (2, 3, 4))],
        ids=["scalar", "line", "cube"],
    )
    def test_bit_identical_to_complex_exp(self, angle):
        np.testing.assert_array_equal(kernels.unit_phasor(angle), np.exp(1j * np.asarray(angle)))

    def test_fills_the_out_buffer(self):
        angle = np.linspace(0.0, 1.0, 5)
        out = np.empty(5, dtype=np.complex128)
        assert kernels.unit_phasor(angle, out=out) is out
        np.testing.assert_array_equal(out, np.exp(1j * angle))

    def test_integer_and_list_input_promote_to_complex128(self):
        result = kernels.unit_phasor([0, 1, 2])
        assert result.dtype == np.complex128
        np.testing.assert_array_equal(result, np.exp(1j * np.array([0.0, 1.0, 2.0])))


def _eq5_oracle(theta, phi, r1, t1, r2, t2):
    """Eq. (5) as the product ``B(r2, t2) P(theta) B(r1, t1) P(phi)``."""

    def splitter(r, t):
        return np.array([[r, 1j * t], [1j * t, r]])

    def phase(angle):
        return np.diag([np.exp(1j * angle), 1.0])

    return splitter(r2, t2) @ phase(theta) @ splitter(r1, t1) @ phase(phi)


class TestMZIBlockComponents:
    @pytest.mark.parametrize(
        "r1,t1,r2,t2",
        [
            (np.sqrt(0.5), None, None, None),
            (0.70, None, 0.72, None),
            (0.69, 0.70, 0.71, 0.68),
        ],
        ids=["ideal", "asymmetric", "lossy"],
    )
    def test_matches_the_splitter_phase_product(self, r1, t1, r2, t2):
        thetas = np.linspace(0.0, np.pi, 4)
        phis = np.linspace(-np.pi, np.pi, 4)
        blocks = kernels.mzi_block_components(thetas, phis, r1, t1=t1, r2=r2, t2=t2)
        r2_value = r1 if r2 is None else r2
        t1_value = np.sqrt(1.0 - r1**2) if t1 is None else t1
        t2_value = np.sqrt(1.0 - r2_value**2) if t2 is None else t2
        for index, (theta, phi) in enumerate(zip(thetas, phis)):
            expected = _eq5_oracle(theta, phi, r1, t1_value, r2_value, t2_value)
            got = np.array(
                [[blocks[0][index], blocks[1][index]], [blocks[2][index], blocks[3][index]]]
            )
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_ideal_splitters_reduce_to_the_ideal_mzi(self):
        thetas = GEN.uniform(0.0, np.pi, 6)
        phis = GEN.uniform(-np.pi, np.pi, 6)
        b00, b01, b10, b11 = kernels.mzi_block_components(thetas, phis, np.sqrt(0.5))
        ideal = mzi_transfer(thetas, phis)
        expected = (ideal[..., 0, 0], ideal[..., 0, 1], ideal[..., 1, 0], ideal[..., 1, 1])
        for got, want in zip((b00, b01, b10, b11), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_lossless_splitters_give_unitary_blocks(self):
        thetas = GEN.uniform(0.0, np.pi, 8)
        phis = GEN.uniform(-np.pi, np.pi, 8)
        r1 = GEN.uniform(0.6, 0.8, 8)
        r2 = GEN.uniform(0.6, 0.8, 8)
        b00, b01, b10, b11 = kernels.mzi_block_components(thetas, phis, r1, r2=r2)
        blocks = np.stack([np.stack([b00, b01], -1), np.stack([b10, b11], -1)], -2)
        gram = blocks @ np.conj(np.swapaxes(blocks, -2, -1))
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(2), gram.shape), atol=1e-14)

    def test_out_buffers_receive_the_same_values(self):
        thetas = GEN.uniform(0.0, np.pi, 5)
        phis = GEN.uniform(-np.pi, np.pi, 5)
        fresh = kernels.mzi_block_components(thetas, phis, 0.7, r2=0.71)
        out = tuple(np.empty(5, dtype=np.complex128) for _ in range(4))
        written = kernels.mzi_block_components(thetas, phis, 0.7, r2=0.71, out=out)
        for buffer, result, expected in zip(out, written, fresh):
            assert result is buffer
            np.testing.assert_array_equal(result, expected)


def _mesh_sweep_inputs(n, scheme, batch):
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=n + 1), scheme=scheme)
    perturbation = sample_mesh_perturbation_batch(
        mesh, UncertaintyModel.both(0.03), spawn_rngs(n, batch)
    )
    stacks, _ = mesh._column_stacks_and_phases(perturbation)
    return mesh.column_program(), stacks


def test_block_components_are_views_of_the_packed_stacks():
    ca = _complex((3, 4, 2), 10)
    cb = _complex((3, 4, 2), 11)
    b00, b01, b10, b11 = kernels.block_components((ca, cb))
    for view, stack, slot in ((b00, ca, 0), (b01, cb, 0), (b10, ca, 1), (b11, cb, 1)):
        assert np.shares_memory(view, stack)
        np.testing.assert_array_equal(view, stack[..., slot])


class TestApplyMZIBlocks:
    @pytest.mark.parametrize("n,scheme", [(5, "clements"), (5, "reck"), (6, "clements")])
    def test_matches_a_device_by_device_sweep(self, n, scheme):
        program, stacks = _mesh_sweep_inputs(n, scheme, 3)
        start = _complex((3, n, n), 12)
        swept = start.copy()
        kernels.apply_mzi_blocks(swept, stacks, program)
        b00, b01, b10, b11 = (np.asarray(c) for c in kernels.block_components(stacks))
        expected = start.copy()
        for device in range(len(program.top)):
            top, bottom = int(program.top[device]), int(program.bottom[device])
            upper = expected[:, top, :].copy()
            lower = expected[:, bottom, :].copy()
            expected[:, top, :] = b00[:, device, None] * upper + b01[:, device, None] * lower
            expected[:, bottom, :] = b10[:, device, None] * upper + b11[:, device, None] * lower
        np.testing.assert_array_equal(swept, expected)

    def test_batched_bit_identical_to_single_realizations(self):
        program, stacks = _mesh_sweep_inputs(6, "clements", 4)
        start = _complex((4, 6, 6), 13)
        batched = start.copy()
        kernels.apply_mzi_blocks(batched, stacks, program)
        for index in range(4):
            single = start[index].copy()
            kernels.apply_mzi_blocks(single, tuple(np.asarray(s)[index] for s in stacks), program)
            np.testing.assert_array_equal(batched[index], single)
