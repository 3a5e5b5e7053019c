"""Impulse-noise tooling: the median-residual score that rates how noisy an
image is, and the seeded salt-and-pepper injector that manufactures paired
training data from clean images."""

from __future__ import annotations

import numpy as np

from .core import ValidationError
from .morphology import luminance


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _median_filter_3x3(values: np.ndarray) -> np.ndarray:
    """3x3 median with replicate border padding.

    Each vertical triple of the padded plane is sorted once, with three
    compare-exchanges. A window's median is then the median of the largest
    of its three column minima, the median of its column medians and the
    smallest of its column maxima. Only minima and maxima are taken, so the
    result is one of the nine inputs bit for bit, as the median of an odd
    count is.
    """
    padded = np.pad(values, 1, mode="edge")
    height, width = values.shape
    top, middle, bottom = (padded[dy : dy + height] for dy in range(3))
    low, high = np.minimum(top, middle), np.maximum(top, middle)
    middle, high = np.minimum(high, bottom), np.maximum(high, bottom)
    low, middle = np.minimum(low, middle), np.maximum(low, middle)
    left, centre, right = (np.s_[:, dx : dx + width] for dx in range(3))
    return _median3(
        np.maximum(np.maximum(low[left], low[centre]), low[right]),
        _median3(middle[left], middle[centre], middle[right]),
        np.minimum(np.minimum(high[left], high[centre]), high[right]),
    )


def noise_score(pixels) -> float:
    """Mean absolute residual between luminance and its 3x3 median.

    Smooth content survives the median filter nearly unchanged, so the
    residual is dominated by impulse corruption; scores live in [0, 255].
    """
    lum = luminance(pixels)
    return float(np.abs(lum - _median_filter_3x3(lum)).mean())


def inject_salt_pepper(
    pixels,
    density: float,
    salt_ratio: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Corrupt whole pixels to pure white or black at the given density.

    Each pixel is independently hit with probability `density`; a hit
    becomes white with probability `salt_ratio`, else black. The same
    (image, density, salt_ratio, seed) always produces the same output.
    """
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must lie in [0, 1], got {density}")
    if not 0.0 <= salt_ratio <= 1.0:
        raise ValidationError(f"salt_ratio must lie in [0, 1], got {salt_ratio}")
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValidationError("expected an (H, W, 3) image")
    rng = np.random.default_rng(seed)
    height, width = pixels.shape[:2]
    corrupted = rng.random((height, width)) < density
    salt = rng.random((height, width)) < salt_ratio
    out = pixels.copy()
    out[corrupted & salt] = 255
    out[corrupted & ~salt] = 0
    return out
