"""Tests for the shifted-FFT feature pipeline."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    FeatureConfig,
    FFTFeatureExtractor,
    center_crop,
    fft_crop_features,
    full_fft_features,
    generate_dataset,
    shifted_fft2,
)
from repro.datasets import fft_features
from repro.exceptions import ShapeError


class TestShiftedFFT:
    def test_dc_component_is_centered(self):
        """A constant image concentrates all energy at the center after fftshift."""
        image = np.ones((8, 8))
        spectrum = shifted_fft2(image)
        center = np.unravel_index(np.argmax(np.abs(spectrum)), spectrum.shape)
        assert center == (4, 4)

    def test_batch_and_single_shapes(self):
        batch = np.random.default_rng(0).random((3, 8, 8))
        assert shifted_fft2(batch).shape == (3, 8, 8)
        assert shifted_fft2(batch[0]).shape == (8, 8)

    def test_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            shifted_fft2(np.zeros((2, 2, 2, 2)))

    def test_parseval_energy_preserved(self):
        image = np.random.default_rng(1).random((8, 8))
        spectrum = shifted_fft2(image)
        assert np.sum(np.abs(spectrum) ** 2) / 64 == pytest.approx(np.sum(image**2))


class TestCenterCrop:
    def test_crop_shape(self):
        spectrum = np.arange(64).reshape(8, 8)
        assert center_crop(spectrum, 4).shape == (4, 4)
        assert center_crop(np.stack([spectrum] * 2), 4).shape == (2, 4, 4)

    def test_crop_contains_center(self):
        image = np.ones((8, 8))
        spectrum = shifted_fft2(image)
        block = center_crop(spectrum, 2)
        assert np.abs(block).max() == pytest.approx(64.0)

    def test_rejects_invalid_crop(self):
        with pytest.raises(ShapeError):
            center_crop(np.zeros((8, 8)), 0)
        with pytest.raises(ShapeError):
            center_crop(np.zeros((8, 8)), 9)


class TestFeaturePipelines:
    def test_fft_crop_features_shape_and_dtype(self):
        data = generate_dataset(6, rng=0)
        features = fft_crop_features(data.images, crop=4)
        assert features.shape == (6, 16)
        assert features.dtype == np.complex128

    def test_normalization_bounds_magnitudes(self):
        data = generate_dataset(4, rng=1)
        normalized = fft_crop_features(data.images, crop=4, normalize=True)
        raw = fft_crop_features(data.images, crop=4, normalize=False)
        assert np.abs(normalized).max() <= 1.0 + 1e-9
        assert np.allclose(raw, normalized * 28 * 28)

    def test_full_fft_features_shape(self):
        data = generate_dataset(3, rng=2)
        assert full_fft_features(data.images).shape == (3, 784)

    def test_single_image_input(self):
        data = generate_dataset(1, rng=3)
        assert fft_crop_features(data.images[0], crop=4).shape == (16,)
        assert full_fft_features(data.images[0]).shape == (784,)

    def test_features_distinguish_classes(self):
        """FFT-crop features must carry class information (not collapse to a constant)."""
        data = generate_dataset(40, rng=4)
        features = fft_crop_features(data.images, crop=4)
        class_means = [
            np.abs(features[data.labels == c]).mean(axis=0)
            for c in np.unique(data.labels)
        ]
        spread = np.std(np.stack(class_means), axis=0).sum()
        assert spread > 0.01

    def test_extractor_object(self):
        extractor = FFTFeatureExtractor(FeatureConfig(crop=3))
        assert extractor.config.num_features == 9
        data = generate_dataset(5, rng=5)
        features, labels = extractor.transform_dataset(data)
        assert features.shape == (5, 9)
        assert np.array_equal(labels, data.labels)


def _unblocked(images, crop):
    """The whole batch through one spectrum: the features before blocking."""
    spectrum = shifted_fft2(images)
    block = spectrum if crop is None else center_crop(spectrum, crop)
    return block.reshape(block.shape[0], -1) / (images.shape[-1] * images.shape[-2])


class TestBlockedFeatures:
    @settings(max_examples=40, deadline=None)
    @given(
        block=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=-1, max_value=1),
        blocks=st.integers(min_value=1, max_value=3),
        crop=st.sampled_from([1, 2, 3, 4, 7, None]),
        shape=st.sampled_from([(7, 7), (8, 10), (28, 28)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_blocked_features_equal_unblocked(self, block, extra, blocks, crop, shape, seed):
        """Image counts on and either side of block boundaries give the same bytes."""
        n = max(1, block * blocks + extra)
        images = np.random.default_rng(seed).random((n, *shape))
        expected = _unblocked(images, crop)
        with mock.patch.object(fft_features, "_BLOCK", block):
            if crop is None:
                got = full_fft_features(images)
                single = full_fft_features(images[0])
            else:
                got = fft_crop_features(images, crop=crop)
                single = fft_crop_features(images[0], crop=crop)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert single.tobytes() == expected[0].tobytes()

    def test_crop_feature_peak_memory_is_bounded(self):
        """The paper-size training set never holds its whole spectrum (95.7 MB)."""
        images = np.random.default_rng(0).random((4000, 28, 28))
        tracemalloc.start()
        try:
            fft_crop_features(images, crop=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_cli_synthesis_and_features_load_no_scipy(self):
        """The yield/drift set-up path (CLI import, dataset, features) never imports scipy."""
        code = (
            "import sys, repro.cli\n"
            "from repro.experiments.registry import get_experiment\n"
            "from repro.onn.builder import prepare_feature_sets\n"
            "prepare_feature_sets(get_experiment('yield').smoke_config.training)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
