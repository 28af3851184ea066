"""The block renderer reproduces the original per-segment renderer byte for byte.

The reference below is a frozen copy of the original scalar implementation:
seven scalar ``normal`` draws per style, one ``np.linspace`` per polyline
segment, and one rasterisation, filter and noise pass per image.  The
production renderer must match it exactly on every image and label.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from repro.datasets import DigitStyle, generate_dataset, load_synthetic_mnist, random_style, render_digit
from repro.datasets.synthetic_mnist import NUM_CLASSES, _digit_strokes

_REFERENCE_STROKES = _digit_strokes()


def reference_random_style(gen, variability=1.0):
    v = float(variability)
    return DigitStyle(
        dx=float(gen.normal(0.0, 0.04 * v)),
        dy=float(gen.normal(0.0, 0.04 * v)),
        scale=float(1.0 + gen.normal(0.0, 0.08 * v)),
        rotation=float(gen.normal(0.0, 0.12 * v)),
        shear=float(gen.normal(0.0, 0.15 * v)),
        stroke_width=float(np.clip(1.4 + gen.normal(0.0, 0.35 * v), 0.8, 2.6)),
        blur=float(np.clip(0.6 + gen.normal(0.0, 0.15 * v), 0.3, 1.2)),
        noise=float(np.clip(0.02 * v, 0.0, 0.08)),
    )


def reference_render_digit(digit, style, gen, image_size=28):
    canvas = np.zeros((image_size, image_size), dtype=np.float64)
    for stroke in _REFERENCE_STROKES[digit]:
        points = style.transform(np.asarray(stroke, dtype=np.float64))
        dense = []
        for start, stop in zip(points[:-1], points[1:]):
            seg_len = np.hypot(*(stop - start))
            samples = max(int(seg_len * image_size * 2), 2)
            ts = np.linspace(0.0, 1.0, samples)
            dense.append(start[None, :] + ts[:, None] * (stop - start)[None, :])
        for chunk in dense:
            cols = chunk[:, 0] * (image_size - 1)
            rows = chunk[:, 1] * (image_size - 1)
            valid = (cols >= 0) & (cols <= image_size - 1) & (rows >= 0) & (rows <= image_size - 1)
            cols, rows = cols[valid], rows[valid]
            canvas[np.round(rows).astype(int), np.round(cols).astype(int)] = 1.0
    canvas = gaussian_filter(canvas, sigma=style.stroke_width * 0.45)
    if canvas.max() > 0:
        canvas = canvas / canvas.max()
    canvas = np.clip(canvas * 1.6, 0.0, 1.0)
    canvas = gaussian_filter(canvas, sigma=style.blur * 0.5)
    if canvas.max() > 0:
        canvas = canvas / canvas.max()
    if style.noise > 0:
        canvas = np.clip(canvas + gen.normal(0.0, style.noise, canvas.shape), 0.0, 1.0)
    return canvas


def reference_generate_dataset(num_samples, seed, image_size=28, variability=1.0, balanced=True):
    gen = np.random.default_rng(seed)
    if balanced:
        labels = np.arange(num_samples) % NUM_CLASSES
        gen.shuffle(labels)
    else:
        labels = gen.integers(0, NUM_CLASSES, size=num_samples)
    images = np.zeros((num_samples, image_size, image_size), dtype=np.float64)
    for i, label in enumerate(labels):
        style = reference_random_style(gen, variability)
        images[i] = reference_render_digit(int(label), style, gen, image_size)
    return images, np.asarray(labels, dtype=np.int64)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    num_samples=st.integers(min_value=1, max_value=40),
    variability=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    image_size=st.sampled_from([14, 28]),
    balanced=st.booleans(),
)
def test_generate_dataset_matches_reference(seed, num_samples, variability, image_size, balanced):
    data = generate_dataset(
        num_samples, rng=seed, image_size=image_size, variability=variability, balanced=balanced
    )
    images, labels = reference_generate_dataset(num_samples, seed, image_size, variability, balanced)
    assert np.array_equal(data.labels, labels)
    assert data.images.tobytes() == images.tobytes()


def test_generate_dataset_matches_reference_across_blocks():
    """Several render blocks in one call leave the stream order untouched."""
    data = generate_dataset(600, rng=11)
    images, labels = reference_generate_dataset(600, 11)
    assert np.array_equal(data.labels, labels)
    assert data.images.tobytes() == images.tobytes()


def test_load_synthetic_mnist_matches_reference():
    train, test = load_synthetic_mnist(num_train=30, num_test=12, seed=2021)
    train_seq, test_seq = np.random.SeedSequence(2021).spawn(2)
    for data, seq in ((train, train_seq), (test, test_seq)):
        images, labels = reference_generate_dataset(len(data), np.random.default_rng(seq))
        assert np.array_equal(data.labels, labels)
        assert data.images.tobytes() == images.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    digit=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=10**6),
    variability=st.sampled_from([0.0, 0.5, 1.0, 2.5]),
)
def test_render_digit_and_random_style_match_reference(digit, seed, variability):
    assert random_style(seed, variability) == reference_random_style(np.random.default_rng(seed), variability)
    gen = np.random.default_rng(seed)
    expected = reference_render_digit(digit, reference_random_style(gen), gen)
    assert render_digit(digit, rng=seed).tobytes() == expected.tobytes()


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_render_digit_with_given_style_matches_reference(noise):
    style = DigitStyle(dx=0.03, rotation=-0.2, shear=0.1, stroke_width=2.0, noise=noise)
    expected = reference_render_digit(4, style, np.random.default_rng(5), image_size=20)
    assert render_digit(4, style=style, rng=5, image_size=20).tobytes() == expected.tobytes()
