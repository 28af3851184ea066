"""Datasets and feature pipelines: synthetic MNIST and shifted-FFT features."""

from .fft_features import (
    center_crop,
    fft_crop_features,
    full_fft_features,
    shifted_fft2,
)
from .synthetic_mnist import (
    IMAGE_SIZE,
    NUM_CLASSES,
    Dataset,
    DigitStyle,
    generate_dataset,
    load_synthetic_mnist,
    random_style,
    render_digit,
)

__all__ = [
    "IMAGE_SIZE",
    "NUM_CLASSES",
    "Dataset",
    "DigitStyle",
    "render_digit",
    "random_style",
    "generate_dataset",
    "load_synthetic_mnist",
    "shifted_fft2",
    "center_crop",
    "fft_crop_features",
    "full_fft_features",
]
