"""Impulse-noise tooling: the median-residual score that rates how noisy an
image is, and the seeded salt-and-pepper injector that manufactures paired
training data from clean images."""

from __future__ import annotations

import numpy as np

from .core import ValidationError
from .morphology import luminance


# Paeth's median-of-9 exchange network (Graphics Gems, 1990, in the order
# of Devillard's "Fast median search", 1998): after these 19 compare-exchanges
# slot 4 holds the median. Each exchange only moves values, so the result is
# one of the nine inputs bit for bit, as the median of an odd count is.
_MEDIAN9_EXCHANGES = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)


def _median_filter_3x3(values: np.ndarray) -> np.ndarray:
    """3x3 median with replicate border padding."""
    padded = np.pad(values, 1, mode="edge")
    height, width = values.shape
    slots = [
        padded[dy : dy + height, dx : dx + width]
        for dy in range(3)
        for dx in range(3)
    ]
    for a, b in _MEDIAN9_EXCHANGES:
        low, high = np.minimum(slots[a], slots[b]), np.maximum(slots[a], slots[b])
        slots[a], slots[b] = low, high
    return slots[4]


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
