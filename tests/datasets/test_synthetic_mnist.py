"""Tests for the synthetic MNIST substitute."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    IMAGE_SIZE,
    NUM_CLASSES,
    Dataset,
    generate_dataset,
    load_synthetic_mnist,
    random_style,
    render_digit,
)
from repro.exceptions import ConfigurationError


class TestRenderDigit:
    def test_shape_and_range(self):
        image = render_digit(3, rng=0)
        assert image.shape == (IMAGE_SIZE, IMAGE_SIZE)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_non_trivial_content(self):
        image = render_digit(8, rng=1)
        assert image.max() > 0.5
        assert image.mean() < 0.6  # digits are sparse strokes, not full frames

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=10**6))
    def test_property_all_digits_render(self, digit, seed):
        image = render_digit(digit, rng=seed)
        assert image.shape == (IMAGE_SIZE, IMAGE_SIZE)
        assert np.isfinite(image).all()
        assert image.max() > 0.0

    def test_rejects_invalid_digit(self):
        with pytest.raises(ConfigurationError):
            render_digit(10)

    def test_custom_image_size(self):
        assert render_digit(1, rng=0, image_size=14).shape == (14, 14)

    def test_styles_change_output(self):
        a = render_digit(5, style=random_style(0), rng=0)
        b = render_digit(5, style=random_style(1), rng=0)
        assert not np.allclose(a, b)

    def test_classes_are_visually_distinct(self):
        """Different digit skeletons must produce measurably different images."""
        zero = render_digit(0, rng=0, style=random_style(0, variability=0.0))
        one = render_digit(1, rng=0, style=random_style(0, variability=0.0))
        assert np.abs(zero - one).mean() > 0.05


class TestDataset:
    def test_generate_balanced_counts(self):
        data = generate_dataset(50, rng=0)
        assert len(data) == 50
        counts = data.class_counts()
        assert counts.max() - counts.min() <= 1

    def test_generate_unbalanced(self):
        data = generate_dataset(30, rng=0, balanced=False)
        assert len(data) == 30

    def test_generate_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            generate_dataset(0)

    def test_dataset_validation(self):
        with pytest.raises(ConfigurationError):
            Dataset(images=np.zeros((2, 4, 4)), labels=np.zeros(3, dtype=int))

    def test_subset(self):
        data = generate_dataset(20, rng=1)
        sub = data.subset([0, 5, 7])
        assert len(sub) == 3
        assert np.array_equal(sub.labels, data.labels[[0, 5, 7]])

    def test_load_synthetic_mnist_shapes(self):
        train, test = load_synthetic_mnist(num_train=40, num_test=20, seed=3)
        assert train.images.shape == (40, IMAGE_SIZE, IMAGE_SIZE)
        assert test.images.shape == (20, IMAGE_SIZE, IMAGE_SIZE)
        assert set(np.unique(train.labels)) <= set(range(NUM_CLASSES))

    def test_load_is_deterministic_in_seed(self):
        a_train, _ = load_synthetic_mnist(num_train=10, num_test=5, seed=7)
        b_train, _ = load_synthetic_mnist(num_train=10, num_test=5, seed=7)
        assert np.array_equal(a_train.images, b_train.images)

    def test_train_and_test_are_independent_streams(self):
        _, test_small = load_synthetic_mnist(num_train=10, num_test=15, seed=7)
        _, test_large = load_synthetic_mnist(num_train=50, num_test=15, seed=7)
        assert np.array_equal(test_small.images, test_large.images)

    def test_different_seeds_differ(self):
        a_train, _ = load_synthetic_mnist(num_train=10, num_test=5, seed=1)
        b_train, _ = load_synthetic_mnist(num_train=10, num_test=5, seed=2)
        assert not np.allclose(a_train.images, b_train.images)

    @pytest.mark.parametrize("variability", [-0.5, float("nan"), float("inf")])
    def test_rejects_invalid_variability(self, variability):
        with pytest.raises(ConfigurationError, match="variability"):
            random_style(0, variability=variability)
        with pytest.raises(ConfigurationError, match="variability"):
            generate_dataset(5, rng=0, variability=variability)
        with pytest.raises(ConfigurationError, match="variability"):
            load_synthetic_mnist(num_train=5, num_test=5, variability=variability)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=30),
    count=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    binary=st.booleans(),
)
def test_batched_blur_equals_scipy_gaussian_filter(size, count, seed, binary):
    """One batched blur with per-image sigmas is scipy's ``gaussian_filter`` bit for bit."""
    from scipy.ndimage import gaussian_filter

    from repro.datasets.synthetic_mnist import _gaussian_blur

    gen = np.random.default_rng(seed)
    images = gen.random((count, size, size))
    if binary:
        images = (images > 0.8).astype(np.float64)
    sigmas = gen.uniform(0.1, 3.0, count)
    expected = np.stack([gaussian_filter(image, sigma=float(sigma)) for image, sigma in zip(images, sigmas)])
    assert _gaussian_blur(images, sigmas).tobytes() == expected.tobytes()
