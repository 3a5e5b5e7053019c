"""Impulse-noise tooling: the median-residual score used to split a corpus
into noisy and clean subsets, and the seeded salt-and-pepper injector that
manufactures paired training data from the clean side."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import ValidationError
from .morphology import luminance


def _median_filter_3x3(values: np.ndarray) -> np.ndarray:
    """3x3 median with replicate border padding."""
    padded = np.pad(values, 1, mode="edge")
    height, width = values.shape
    windows = np.stack(
        [
            padded[dy : dy + height, dx : dx + width]
            for dy in range(3)
            for dx in range(3)
        ]
    )
    return np.median(windows, axis=0)


def noise_score(pixels) -> float:
    """Mean absolute residual between luminance and its 3x3 median.

    Smooth content survives the median filter nearly unchanged, so the
    residual is dominated by impulse corruption; scores live in [0, 255].
    """
    lum = luminance(pixels)
    return float(np.abs(lum - _median_filter_3x3(lum)).mean())


def partition_by_noise(scored: Iterable, threshold: float) -> tuple[list[str], list[str]]:
    """Stable split of (image_id, residual) pairs into (noisy, clean) ids by
    residual > threshold."""
    if not threshold >= 0:  # NaN fails too
        raise ValidationError(f"noise threshold must be >= 0, got {threshold}")
    noisy: list[str] = []
    clean: list[str] = []
    for image_id, residual in scored:
        (noisy if residual > threshold else clean).append(image_id)
    return noisy, clean


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
