"""Tests for the NoiseInjector (hardware-calibrated training noise)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.training import NoiseInjector
from repro.variation import UncertaintyModel


def _weights(seed=0, dims=(6, 8, 5)):
    """Random complex weight matrices for a small (6 -> 8 -> 5) network."""
    gen = np.random.default_rng(seed)
    shapes = [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
    return [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 3.0
        for shape in shapes
    ]


class TestOffsets:
    def test_shapes_one_per_layer(self):
        weights = _weights()
        injector = NoiseInjector(UncertaintyModel.both(0.01), draws=3, rng=1)
        offsets = injector.weight_offsets(weights)
        assert len(offsets) == len(weights)
        for weight, offset in zip(weights, offsets):
            assert offset.shape == (3,) + weight.shape
            assert offset.dtype == np.complex128
            assert np.all(np.abs(offset) < 10)  # sane magnitudes

    def test_fixed_seed_reproduces_offsets_bit_for_bit(self):
        weights = _weights()
        a = NoiseInjector(UncertaintyModel.both(0.01), draws=4, rng=42)
        b = NoiseInjector(UncertaintyModel.both(0.01), draws=4, rng=42)
        for _ in range(3):  # successive calls advance both streams identically
            off_a = a.weight_offsets(weights)
            off_b = b.weight_offsets(weights)
            for x, y in zip(off_a, off_b):
                assert np.array_equal(x, y)

    def test_draws_are_distinct(self):
        weights = _weights()
        injector = NoiseInjector(UncertaintyModel.both(0.01), draws=2, rng=0)
        offsets = injector.weight_offsets(weights)
        assert not np.array_equal(offsets[0][0], offsets[0][1])

    def test_scale_zero_returns_none(self):
        injector = NoiseInjector(UncertaintyModel.both(0.01), draws=2, rng=0)
        assert injector.weight_offsets(_weights(), sigma_scale=0.0) is None

    def test_null_model_returns_none(self):
        injector = NoiseInjector(UncertaintyModel.both(0.0), draws=2, rng=0)
        assert injector.weight_offsets(_weights()) is None

    def test_sigma_scale_equals_prescaled_model(self):
        weights = _weights()
        scaled = NoiseInjector(UncertaintyModel.both(0.02), draws=2, rng=7)
        direct = NoiseInjector(UncertaintyModel.both(0.01), draws=2, rng=7)
        off_scaled = scaled.weight_offsets(weights, sigma_scale=0.5)
        off_direct = direct.weight_offsets(weights, sigma_scale=1.0)
        for x, y in zip(off_scaled, off_direct):
            assert np.allclose(x, y, atol=1e-12)

    def test_offsets_grow_with_sigma(self):
        weights = _weights()
        small = NoiseInjector(UncertaintyModel.both(0.002), draws=4, rng=3)
        large = NoiseInjector(UncertaintyModel.both(0.02), draws=4, rng=3)
        rms = lambda offs: np.sqrt(np.mean([np.mean(np.abs(o) ** 2) for o in offs]))
        assert rms(large.weight_offsets(weights)) > 3 * rms(small.weight_offsets(weights))


class TestSnapshotCadence:
    def test_recompile_every_controls_snapshot_refresh(self):
        injector = NoiseInjector(UncertaintyModel.both(0.01), draws=1, recompile_every=2, rng=0)
        first = _weights(seed=1)
        injector.weight_offsets(first)  # compiles (step 0)
        snapshot = injector.snapshot_layers
        # Second call within the cadence: different weights, same snapshot.
        injector.weight_offsets(_weights(seed=2))
        assert [id(l) for l in injector.snapshot_layers] == [id(l) for l in snapshot]
        # Third call exceeds the cadence: snapshot is rebuilt.
        injector.weight_offsets(_weights(seed=3))
        assert [id(l) for l in injector.snapshot_layers] != [id(l) for l in snapshot]

    def test_scheduled_off_steps_age_the_snapshot(self):
        injector = NoiseInjector(UncertaintyModel.both(0.01), draws=1, recompile_every=2, rng=0)
        injector.weight_offsets(_weights(seed=1))  # compile
        snapshot = injector.snapshot_layers
        injector.weight_offsets(_weights(seed=2), sigma_scale=0.0)  # noise-free step still ages
        injector.weight_offsets(_weights(seed=3))
        assert [id(l) for l in injector.snapshot_layers] != [id(l) for l in snapshot]

    def test_layer_count_change_forces_recompile(self):
        injector = NoiseInjector(UncertaintyModel.both(0.01), draws=1, recompile_every=100, rng=0)
        injector.weight_offsets(_weights(dims=(6, 8, 5)))
        offsets = injector.weight_offsets(_weights(dims=(6, 8, 8, 5)))
        assert len(offsets) == 3


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            NoiseInjector(UncertaintyModel.both(0.01), draws=0)
        with pytest.raises(ConfigurationError):
            NoiseInjector(UncertaintyModel.both(0.01), recompile_every=0)

    def test_negative_scale_rejected(self):
        injector = NoiseInjector(UncertaintyModel.both(0.01), rng=0)
        with pytest.raises(ConfigurationError):
            injector.weight_offsets(_weights(), sigma_scale=-0.5)


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
