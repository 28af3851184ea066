"""Procedural synthetic handwritten-digit dataset (MNIST substitute).

The paper evaluates its SPNN on MNIST.  This environment has no network
access, so an equivalent corpus is generated procedurally: each digit class
is defined by a stroke skeleton (polylines and ellipses in a normalized
coordinate frame), rendered onto a 28x28 grid with per-sample random affine
jitter, stroke-width variation, blur and pixel noise.  The result has the
same shape, value range and class structure as MNIST, so every downstream
code path of the reproduction — FFT feature extraction, complex-valued
training, SVD-to-mesh compilation and Monte Carlo uncertainty analysis —
is exercised identically.  The substitution is documented in DESIGN.md.

Random-stream contract: every image consumes normals from its generator in
a fixed order — first the 7 style normals of :func:`random_style` (dx, dy,
scale, rotation, shear, stroke width, blur), then ``image_size**2`` pixel
noise normals in row-major order (none when the noise level is 0, i.e. at
``variability=0``).  :func:`generate_dataset` draws the labels first and
then renders the images in order, so a dataset is a pure function of its
seed and arguments, independent of how the images are blocked internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import RNGLike, ensure_rng

#: Image side length, matching MNIST.
IMAGE_SIZE = 28

#: Number of digit classes.
NUM_CLASSES = 10

Point = Tuple[float, float]
Stroke = List[Point]


def _ellipse(cx: float, cy: float, rx: float, ry: float, start: float = 0.0, stop: float = 2 * np.pi, points: int = 40) -> Stroke:
    """Polyline approximation of an ellipse arc in the unit square."""
    angles = np.linspace(start, stop, points)
    return [(cx + rx * np.cos(a), cy + ry * np.sin(a)) for a in angles]


def _line(p0: Point, p1: Point, points: int = 12) -> Stroke:
    """Polyline with ``points`` samples between two endpoints."""
    ts = np.linspace(0.0, 1.0, points)
    return [(p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])) for t in ts]


def _digit_strokes() -> Dict[int, List[Stroke]]:
    """Stroke skeletons for the ten digits in (x, y) with y increasing downward."""
    strokes: Dict[int, List[Stroke]] = {
        0: [_ellipse(0.5, 0.5, 0.28, 0.38)],
        1: [_line((0.38, 0.3), (0.55, 0.15)), _line((0.55, 0.15), (0.55, 0.85))],
        2: [
            _ellipse(0.5, 0.33, 0.26, 0.2, start=np.pi, stop=2.35 * np.pi, points=30),
            _line((0.72, 0.45), (0.28, 0.85)),
            _line((0.28, 0.85), (0.75, 0.85)),
        ],
        3: [
            _ellipse(0.48, 0.33, 0.24, 0.18, start=0.75 * np.pi, stop=2.4 * np.pi, points=30),
            _ellipse(0.48, 0.67, 0.26, 0.2, start=1.6 * np.pi, stop=3.25 * np.pi, points=30),
        ],
        4: [
            _line((0.62, 0.15), (0.3, 0.62)),
            _line((0.3, 0.62), (0.78, 0.62)),
            _line((0.62, 0.15), (0.62, 0.88)),
        ],
        5: [
            _line((0.72, 0.15), (0.32, 0.15)),
            _line((0.32, 0.15), (0.3, 0.48)),
            _ellipse(0.5, 0.65, 0.24, 0.22, start=1.35 * np.pi, stop=2.85 * np.pi, points=30),
        ],
        6: [
            _line((0.62, 0.13), (0.36, 0.5)),
            _ellipse(0.5, 0.66, 0.22, 0.2),
        ],
        7: [
            _line((0.28, 0.16), (0.74, 0.16)),
            _line((0.74, 0.16), (0.42, 0.86)),
        ],
        8: [
            _ellipse(0.5, 0.32, 0.2, 0.17),
            _ellipse(0.5, 0.68, 0.24, 0.2),
        ],
        9: [
            _ellipse(0.5, 0.34, 0.22, 0.2),
            _line((0.7, 0.36), (0.62, 0.87)),
        ],
    }
    return strokes


#: Module-level cache of the digit skeletons, one ``(points, 2)`` array per stroke.
_DIGIT_STROKES = {
    digit: [np.asarray(stroke, dtype=np.float64) for stroke in strokes]
    for digit, strokes in _digit_strokes().items()
}

#: Polyline segments per digit (a stroke of ``p`` points has ``p - 1``).
_SEGMENTS = np.array([sum(len(stroke) - 1 for stroke in _DIGIT_STROKES[digit]) for digit in range(NUM_CLASSES)])

#: Spread of each style normal at ``variability=1``, in draw order:
#: dx, dy, scale, rotation, shear, stroke width, blur.
_STYLE_SPREADS = np.array([0.04, 0.04, 0.08, 0.12, 0.15, 0.35, 0.15])

#: Images rendered together; bounds the per-block temporaries to a few MB.
_BLOCK = 256


@dataclass(frozen=True)
class DigitStyle:
    """Per-sample rendering style parameters.

    Attributes mirror common sources of intra-class variation in
    handwritten digits: position, scale, slant, stroke thickness and blur.
    """

    dx: float = 0.0
    dy: float = 0.0
    scale: float = 1.0
    rotation: float = 0.0
    shear: float = 0.0
    stroke_width: float = 1.4
    blur: float = 0.6
    noise: float = 0.02

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the affine style transform to ``(n, 2)`` unit-square points."""
        centered = points - 0.5
        cos_r, sin_r = np.cos(self.rotation), np.sin(self.rotation)
        rot = np.array([[cos_r, -sin_r], [sin_r, cos_r]])
        shear = np.array([[1.0, self.shear], [0.0, 1.0]])
        transformed = centered @ (rot @ shear).T * self.scale
        return transformed + 0.5 + np.array([self.dx, self.dy])


def random_style(rng: RNGLike = None, variability: float = 1.0) -> DigitStyle:
    """Draw a random :class:`DigitStyle`.

    ``variability`` scales every jitter amplitude; 0 gives the canonical
    glyph, 1 the default MNIST-like spread.
    """
    gen = ensure_rng(rng)
    v = _check_variability(variability)
    return _styles(gen.normal(0.0, _STYLE_SPREADS * v)[None, :], v)[0]


def _check_variability(variability: float) -> float:
    v = float(variability)
    if not (np.isfinite(v) and v >= 0.0):
        raise ConfigurationError(f"variability must be finite and >= 0, got {variability}")
    return v


def _noise_level(variability: float) -> float:
    return float(np.clip(0.02 * variability, 0.0, 0.08))


def _styles(draws: np.ndarray, variability: float) -> List[DigitStyle]:
    """One style per row of ``(n, 7)`` normals drawn at ``_STYLE_SPREADS * variability``."""
    fields = draws.copy()
    fields[:, 2] += 1.0
    fields[:, 5] = np.clip(1.4 + draws[:, 5], 0.8, 2.6)
    fields[:, 6] = np.clip(0.6 + draws[:, 6], 0.3, 1.2)
    noise = _noise_level(variability)
    return [DigitStyle(*row, noise=noise) for row in fields.tolist()]


def _normalized(canvas: np.ndarray) -> np.ndarray:
    """Scale each image of the block to peak 1 (all-zero images stay zero)."""
    peak = canvas.max(axis=(1, 2))
    return canvas / np.where(peak > 0, peak, 1.0)[:, None, None]


def _gaussian_blur(images: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Blur image ``i`` of ``(n, h, w)`` with a Gaussian of ``sigmas[i]``.

    Bit for bit ``scipy.ndimage.gaussian_filter(images[i], sigmas[i])``, by
    doing scipy's float operations in its order: radius ``int(4 sigma +
    0.5)``, kernel ``exp(-0.5 / sigma**2 * x**2)`` over its sum, ``reflect``
    borders (NumPy's ``symmetric`` padding), axis 0 then axis 1 of each
    image.  Images that share a radius are blurred together.
    """
    out = np.empty_like(images)
    radii = (4.0 * sigmas + 0.5).astype(np.int64)
    for radius in np.unique(radii).tolist():
        members = np.flatnonzero(radii == radius)
        sigma = sigmas[members, None]
        kernel = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
        weights = (kernel / kernel.sum(axis=1, keepdims=True))[:, radius:, None, None]
        block = _correlate_rows(images[members], weights)
        out[members] = _correlate_rows(block.swapaxes(1, 2), weights).swapaxes(1, 2)
    return out


def _correlate_rows(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Correlate axis 1 of ``(m, h, w)`` with symmetric kernels ``w[j] = weights[:, j]``.

    scipy's symmetric-kernel loop: ``out = x[0] * w[0]``, then
    ``out += (x[-j] + x[+j]) * w[j]`` for ``j`` from the radius down to 1.
    """
    radius = weights.shape[1] - 1
    rows = block.shape[1]
    padded = np.pad(block, ((0, 0), (radius, radius), (0, 0)), mode="symmetric")
    out = block * weights[:, 0]
    for j in range(radius, 0, -1):
        before = padded[:, radius - j : radius - j + rows]
        after = padded[:, radius + j : radius + j + rows]
        out += (before + after) * weights[:, j]
    return out


def _render_block(
    digits: Sequence[int],
    styles: Sequence[DigitStyle],
    noise: np.ndarray | None,
    image_size: int,
) -> np.ndarray:
    """Render ``(len(digits), image_size, image_size)`` images in [0, 1].

    ``noise`` is the additive pixel noise per image, or ``None`` for none.
    Every polyline segment is densified to ``max(int(2 * length * size), 2)``
    evenly spaced samples, endpoints included, exactly as ``np.linspace``
    spaces them; the samples land on the nearest pixel.
    """
    starts, deltas = [], []
    for digit, style in zip(digits, styles):
        for stroke in _DIGIT_STROKES[digit]:
            points = style.transform(stroke)
            starts.append(points[:-1])
            deltas.append(points[1:] - points[:-1])
    starts, deltas = np.concatenate(starts), np.concatenate(deltas)
    owner = np.repeat(np.arange(len(digits)), _SEGMENTS[np.asarray(digits)])

    # Densify every segment at once: sample k of n sits at k * (1 / (n - 1)),
    # the last one pinned to 1.0, as np.linspace(0.0, 1.0, n) computes it.
    samples = np.maximum((np.hypot(deltas[:, 0], deltas[:, 1]) * image_size * 2).astype(np.int64), 2)
    segment = np.repeat(np.arange(len(samples)), samples)
    ends = np.cumsum(samples)
    ts = (np.arange(ends[-1]) - (ends - samples)[segment]) * (1.0 / (samples - 1))[segment]
    ts[ends - 1] = 1.0
    dense = starts[segment] + ts[:, None] * deltas[segment]

    cols = dense[:, 0] * (image_size - 1)
    rows = dense[:, 1] * (image_size - 1)
    valid = (cols >= 0) & (cols <= image_size - 1) & (rows >= 0) & (rows <= image_size - 1)
    canvas = np.zeros((len(digits), image_size, image_size), dtype=np.float64)
    canvas[owner[segment][valid], np.round(rows[valid]).astype(int), np.round(cols[valid]).astype(int)] = 1.0

    # Thicken the strokes and soften edges; each image has its own sigmas.
    canvas = _gaussian_blur(canvas, np.array([style.stroke_width * 0.45 for style in styles]))
    canvas = np.clip(_normalized(canvas) * 1.6, 0.0, 1.0)
    canvas = _gaussian_blur(canvas, np.array([style.blur * 0.5 for style in styles]))
    canvas = _normalized(canvas)
    if noise is not None:
        canvas = np.clip(canvas + noise, 0.0, 1.0)
    return canvas


def render_digit(
    digit: int,
    style: DigitStyle | None = None,
    rng: RNGLike = None,
    image_size: int = IMAGE_SIZE,
) -> np.ndarray:
    """Render one digit as a ``(image_size, image_size)`` float image in [0, 1].

    Parameters
    ----------
    digit:
        Class label in ``0..9``.
    style:
        Rendering style; drawn randomly from ``rng`` when omitted.
    rng:
        Seed/generator used for the style and the additive pixel noise.
    image_size:
        Output resolution (28 matches MNIST).
    """
    if digit not in _DIGIT_STROKES:
        raise ConfigurationError(f"digit must be in 0..9, got {digit}")
    gen = ensure_rng(rng)
    if style is None:
        style = random_style(gen)
    noise = gen.normal(0.0, style.noise, (image_size, image_size)) if style.noise > 0 else None
    return _render_block([int(digit)], [style], noise, image_size)[0]


@dataclass
class Dataset:
    """A simple in-memory image-classification dataset."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.images) != len(self.labels):
            raise ConfigurationError(
                f"images ({len(self.images)}) and labels ({len(self.labels)}) lengths differ"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(self.images[indices], self.labels[indices])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=NUM_CLASSES)


def generate_dataset(
    num_samples: int,
    rng: RNGLike = None,
    image_size: int = IMAGE_SIZE,
    variability: float = 1.0,
    balanced: bool = True,
) -> Dataset:
    """Generate ``num_samples`` synthetic digit images with labels.

    With ``balanced=True`` the class counts differ by at most one; otherwise
    labels are sampled uniformly at random.
    """
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    v = _check_variability(variability)
    gen = ensure_rng(rng)
    if balanced:
        labels = np.arange(num_samples) % NUM_CLASSES
        gen.shuffle(labels)
    else:
        labels = gen.integers(0, NUM_CLASSES, size=num_samples)
    # One row of normals per image, in stream order: 7 style draws, then
    # the pixel noise (absent when the noise level is 0).  Broadcasting the
    # spreads through ``gen.normal`` evaluates ``0.0 + spread * z`` in the
    # same C routine as one scalar draw, so the block reproduces the
    # per-image stream exactly on every platform.
    noise = _noise_level(v)
    pixels = image_size * image_size if noise > 0 else 0
    spreads = np.concatenate([_STYLE_SPREADS * v, np.full(pixels, noise)])
    images = np.empty((num_samples, image_size, image_size), dtype=np.float64)
    for start in range(0, num_samples, _BLOCK):
        block = labels[start : start + _BLOCK]
        draws = gen.normal(0.0, spreads, size=(len(block), spreads.size))
        block_noise = draws[:, 7:].reshape(-1, image_size, image_size) if pixels else None
        images[start : start + len(block)] = _render_block(block, _styles(draws[:, :7], v), block_noise, image_size)
    return Dataset(images=images, labels=np.asarray(labels, dtype=np.int64))


def load_synthetic_mnist(
    num_train: int = 4000,
    num_test: int = 1000,
    seed: int = 2021,
    image_size: int = IMAGE_SIZE,
    variability: float = 1.0,
) -> Tuple[Dataset, Dataset]:
    """Return ``(train, test)`` synthetic-MNIST datasets.

    The split is deterministic in ``seed`` and the train/test generators are
    independent streams, so enlarging one split never changes the other.
    """
    parent = np.random.SeedSequence(seed)
    train_seq, test_seq = parent.spawn(2)
    train = generate_dataset(num_train, rng=np.random.default_rng(train_seq), image_size=image_size, variability=variability)
    test = generate_dataset(num_test, rng=np.random.default_rng(test_seq), image_size=image_size, variability=variability)
    return train, test
