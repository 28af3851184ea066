"""Workspace arena semantics and the injector's amortized/incremental modes."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.training import (
    NoiseInjector,
    VectorizedWorkspace,
    process_workspace,
    reset_process_workspace,
)
from repro.variation import UncertaintyModel


def _weights(seed=0, dims=(6, 8, 5)):
    gen = np.random.default_rng(seed)
    shapes = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    return [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 3.0
        for shape in shapes
    ]


class TestVectorizedWorkspace:
    def test_same_key_reuses_the_allocation(self):
        ws = VectorizedWorkspace()
        first = ws.buffer("a", (4, 5), np.float64)
        second = ws.buffer("a", (4, 5), np.float64)
        assert first.base is second.base
        assert ws.num_buffers == 1

    def test_smaller_request_is_a_view_of_the_same_backing(self):
        ws = VectorizedWorkspace()
        full = ws.buffer("a", (10, 3), np.float64)
        partial = ws.buffer("a", (4, 3), np.float64)
        assert partial.shape == (4, 3)
        assert partial.base is full.base
        # ... and the full size comes back without reallocating.
        again = ws.buffer("a", (10, 3), np.float64)
        assert again.base is full.base

    def test_growth_and_dtype_change_reallocate(self):
        ws = VectorizedWorkspace()
        small = ws.buffer("a", (2, 2), np.float64)
        grown = ws.buffer("a", (8, 8), np.float64)
        assert grown.base is not small.base
        complex_buffer = ws.buffer("a", (2, 2), np.complex128)
        assert complex_buffer.dtype == np.complex128

    def test_distinct_keys_never_alias(self):
        ws = VectorizedWorkspace()
        a = ws.buffer(("stage", 0), (3, 3), np.float64)
        b = ws.buffer(("stage", 1), (3, 3), np.float64)
        a[...] = 1.0
        b[...] = 2.0
        assert np.all(a == 1.0) and np.all(b == 2.0)

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            VectorizedWorkspace().buffer("a", (-1, 2))

    def test_clear_and_nbytes(self):
        ws = VectorizedWorkspace()
        ws.buffer("a", (4,), np.float64)
        assert ws.nbytes >= 4 * 8
        ws.clear()
        assert ws.num_buffers == 0

    def test_process_workspace_is_a_singleton_until_reset(self):
        reset_process_workspace()
        first = process_workspace()
        assert process_workspace() is first
        reset_process_workspace()
        assert process_workspace() is not first


class TestInjectorWorkspace:
    def test_offsets_bit_identical_with_and_without_workspace(self):
        weights = _weights()
        plain = NoiseInjector(UncertaintyModel.both(0.01), draws=3, rng=42)
        backed = NoiseInjector(
            UncertaintyModel.both(0.01), draws=3, rng=42, workspace=VectorizedWorkspace()
        )
        for _ in range(3):
            for expected, actual in zip(
                plain.weight_offsets(weights), backed.weight_offsets(weights)
            ):
                assert np.array_equal(expected, actual)

    def test_workspace_buffers_are_recycled_across_steps(self):
        weights = _weights()
        injector = NoiseInjector(
            UncertaintyModel.both(0.01), draws=2, rng=0, workspace=VectorizedWorkspace()
        )
        first = injector.weight_offsets(weights)
        second = injector.weight_offsets(weights)
        for a, b in zip(first, second):
            assert a.base is b.base  # same arena allocation, new contents


class TestDrawReuse:
    def test_draws_reused_within_a_recompile_window(self):
        weights = _weights()
        injector = NoiseInjector(
            UncertaintyModel.both(0.01), draws=3, recompile_every=4, rng=9, reuse_draws=True
        )
        window = [np.copy(o) for o in injector.weight_offsets(weights)]
        for _ in range(3):  # steps 2-4 of the window reuse the draw verbatim
            for cached, again in zip(window, injector.weight_offsets(weights)):
                assert np.array_equal(cached, again)
        # Step 5 starts a new window: recompile + fresh draw.
        fresh = injector.weight_offsets(weights)
        assert not all(
            np.array_equal(cached, new) for cached, new in zip(window, fresh)
        )

    def test_reuse_is_deterministic_across_runs(self):
        weights = _weights()

        def run():
            injector = NoiseInjector(
                UncertaintyModel.both(0.01),
                draws=2,
                recompile_every=3,
                rng=123,
                reuse_draws=True,
            )
            collected = []
            for _ in range(7):
                collected.append([np.copy(o) for o in injector.weight_offsets(weights)])
            return collected

        for step_a, step_b in zip(run(), run()):
            for a, b in zip(step_a, step_b):
                assert np.array_equal(a, b)

    def test_scale_change_rescales_exactly_for_the_gaussian_sampler(self):
        weights = _weights()
        rescaled = NoiseInjector(
            UncertaintyModel.both(0.02), draws=2, recompile_every=10, rng=7, reuse_draws=True
        )
        direct = NoiseInjector(
            UncertaintyModel.both(0.02), draws=2, recompile_every=10, rng=7, reuse_draws=True
        )
        rescaled.weight_offsets(weights, sigma_scale=0.5)
        via_rescale = rescaled.weight_offsets(weights, sigma_scale=1.0)
        via_draw = direct.weight_offsets(weights, sigma_scale=1.0)
        # The rescale path reuses the window's standard normals at the new
        # sigma — the same perturbations the direct draw would have made
        # (up to float rescaling round-off).
        for a, b in zip(via_rescale, via_draw):
            assert np.allclose(a, b, atol=1e-12)

    def test_zero_scale_steps_do_not_touch_the_cache(self):
        weights = _weights()
        injector = NoiseInjector(
            UncertaintyModel.both(0.01), draws=2, recompile_every=10, rng=13, reuse_draws=True
        )
        cached = [np.copy(o) for o in injector.weight_offsets(weights)]
        assert injector.weight_offsets(weights, sigma_scale=0.0) is None
        for a, b in zip(cached, injector.weight_offsets(weights)):
            assert np.array_equal(a, b)


class TestIncrementalRecompile:
    def test_incremental_matches_exact_snapshot_numerically(self):
        weights = _weights()
        exact = NoiseInjector(UncertaintyModel.both(0.01), draws=2, recompile_every=2, rng=1)
        warm = NoiseInjector(
            UncertaintyModel.both(0.01), draws=2, recompile_every=2, rng=1, incremental=True
        )
        moving = [np.copy(w) for w in weights]
        gen = np.random.default_rng(99)
        for step in range(6):
            offsets_exact = exact.weight_offsets(moving)
            offsets_warm = warm.weight_offsets(moving)
            for a, b in zip(offsets_exact, offsets_warm):
                if step == 0:
                    # The initial compile is exact in both injectors and the
                    # streams are identical: bit-identical offsets.
                    assert np.array_equal(a, b)
                else:
                    # Warm snapshots use a (valid) different SVD basis, so
                    # the offsets are different draws of the same noise —
                    # equal in scale, not elementwise.
                    ratio = np.linalg.norm(a) / np.linalg.norm(b)
                    assert 0.5 < ratio < 2.0
            # Both snapshots reconstruct the same weights exactly.
            for layer_exact, layer_warm in zip(exact.snapshot_layers, warm.snapshot_layers):
                assert np.max(np.abs(layer_exact.ideal_matrix() - layer_warm.ideal_matrix())) < 1e-9
            for w in moving:
                w += 0.003 * (
                    gen.standard_normal(w.shape) + 1j * gen.standard_normal(w.shape)
                )
        assert warm.incremental_recompiles >= 1
        assert warm.exact_recompiles >= 1  # the initial compile is exact

    def test_drift_threshold_forces_exact_recompile(self):
        weights = _weights()
        injector = NoiseInjector(
            UncertaintyModel.both(0.01),
            draws=1,
            recompile_every=1,
            rng=3,
            incremental=True,
            drift_threshold=1e-6,
        )
        injector.weight_offsets(weights)
        moved = [w + 0.1 for w in weights]
        injector.weight_offsets(moved)
        assert injector.exact_recompiles == 2
        assert injector.incremental_recompiles == 0

    def test_invalid_drift_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseInjector(UncertaintyModel.both(0.01), drift_threshold=0.0)
