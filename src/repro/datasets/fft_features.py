"""Fourier-domain feature extraction for the SPNN input stage.

The paper converts each 28x28 real-valued image into a complex-valued
feature vector by taking the *shifted* 2-D FFT and keeping only a small
region at the center of the frequency spectrum (a 4x4 crop giving 16
complex features, §III-D).  This module implements that pipeline, plus the
uncompressed 784-dimensional variant used for the baseline-accuracy number.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import ShapeError


#: Images transformed together.  Only the kept coefficients outlive a
#: block, so the transient spectrum stays a few MB at any dataset size.
_BLOCK = 256


def _as_batch(array: np.ndarray, what: str, dtype=None) -> Tuple[np.ndarray, bool]:
    """``(batch, single)``: ``array`` as ``(n, h, w)`` and whether it was ``(h, w)``."""
    array = np.asarray(array, dtype=dtype)
    single = array.ndim == 2
    if single:
        array = array[np.newaxis]
    if array.ndim != 3:
        raise ShapeError(f"{what} must have shape (n, h, w) or (h, w), got {array.shape}")
    return array, single


def _crop_window(h: int, w: int, crop: int) -> Tuple[slice, slice]:
    """Row and column slices of the central ``crop x crop`` block."""
    if crop < 1 or crop > h or crop > w:
        raise ShapeError(f"crop must be in [1, {min(h, w)}], got {crop}")
    top = (h - crop) // 2
    left = (w - crop) // 2
    return slice(top, top + crop), slice(left, left + crop)


def shifted_fft2(images: np.ndarray) -> np.ndarray:
    """Centered 2-D FFT of a batch of images.

    Parameters
    ----------
    images:
        Array of shape ``(n, h, w)`` or ``(h, w)``.

    Returns
    -------
    numpy.ndarray
        Complex spectrum with the DC component moved to the center
        (``fftshift``), same shape as the input.
    """
    images, single = _as_batch(images, "images", np.float64)
    spectrum = np.fft.fftshift(np.fft.fft2(images), axes=(-2, -1))
    return spectrum[0] if single else spectrum


def center_crop(spectrum: np.ndarray, crop: int) -> np.ndarray:
    """Extract the central ``crop x crop`` block of a (batched) spectrum."""
    spectrum, single = _as_batch(spectrum, "spectrum")
    rows, cols = _crop_window(spectrum.shape[1], spectrum.shape[2], crop)
    block = spectrum[:, rows, cols]
    return block[0] if single else block


def _spectrum_features(images: np.ndarray, crop: int | None, normalize: bool) -> np.ndarray:
    """Flattened shifted spectra (center-cropped unless ``crop`` is None).

    The spectra are taken ``_BLOCK`` images at a time and written into the
    preallocated ``(n, features)`` output.  Every image is transformed on
    its own, so the result is byte-equal to transforming the whole batch.
    """
    images, single = _as_batch(images, "images", np.float64)
    n, h, w = images.shape
    rows, cols = (slice(None), slice(None)) if crop is None else _crop_window(h, w, crop)
    width = h * w if crop is None else crop * crop
    features = np.empty((n, width), dtype=np.complex128)
    for start in range(0, n, _BLOCK):
        spectrum = shifted_fft2(images[start : start + _BLOCK])
        block = spectrum[:, rows, cols].reshape(len(spectrum), width)
        features[start : start + len(block)] = block / (h * w) if normalize else block
    return features[0] if single else features


def fft_crop_features(images: np.ndarray, crop: int = 4, normalize: bool = True) -> np.ndarray:
    """Full paper pipeline: shifted FFT -> ``crop x crop`` center -> flatten.

    Parameters
    ----------
    images:
        ``(n, h, w)`` batch of real images.
    crop:
        Side of the central frequency block (4 in the paper -> 16 complex
        features).
    normalize:
        Divide by the number of image pixels so the feature magnitudes are
        O(1) regardless of image size; this keeps the photonic input powers
        in a physically sensible range and stabilizes training.

    Returns
    -------
    numpy.ndarray
        Complex array of shape ``(n, crop*crop)``.
    """
    return _spectrum_features(images, crop, normalize)


def full_fft_features(images: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Uncompressed shifted-FFT features flattened to ``(n, h*w)`` complex."""
    return _spectrum_features(images, None, normalize)
