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


class TestWorkspaceInjector:
    """A workspace only changes where the draws live, never their values."""

    def test_offsets_bit_identical_with_and_without_workspace(self):
        from repro.training.workspace import VectorizedWorkspace

        weights = _weights()
        plain = NoiseInjector(UncertaintyModel.both(0.01), draws=3, rng=5)
        arena = NoiseInjector(
            UncertaintyModel.both(0.01), draws=3, rng=5, workspace=VectorizedWorkspace()
        )
        for _ in range(3):  # successive steps advance both streams identically
            for expected, got in zip(plain.weight_offsets(weights), arena.weight_offsets(weights)):
                assert np.array_equal(got, expected)

    def test_rescaled_cached_draws_bit_identical_with_workspace(self):
        from repro.training.workspace import VectorizedWorkspace

        weights = _weights()
        kwargs = dict(draws=2, rng=9, reuse_draws=True, recompile_every=3)
        plain = NoiseInjector(UncertaintyModel.both(0.01), **kwargs)
        arena = NoiseInjector(
            UncertaintyModel.both(0.01), workspace=VectorizedWorkspace(), **kwargs
        )
        for scale in (1.0, 0.5, 0.25, 1.0):
            for expected, got in zip(
                plain.weight_offsets(weights, sigma_scale=scale),
                arena.weight_offsets(weights, sigma_scale=scale),
            ):
                assert np.array_equal(got, expected)
