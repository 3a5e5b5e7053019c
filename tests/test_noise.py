import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcrescue.core import ValidationError
from wbcrescue.morphology import luminance
from wbcrescue.noise import _median_filter_3x3, inject_salt_pepper, noise_score


def _rgb(gray_rows):
    gray = np.asarray(gray_rows, dtype=np.uint8)
    return np.repeat(gray[:, :, None], 3, axis=2)


def _naive_median_residual(gray):
    """Independent evaluation: explicit loops with replicate padding."""
    gray = np.asarray(gray, dtype=float)
    height, width = gray.shape
    total = 0.0
    for y in range(height):
        for x in range(width):
            window = []
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy = min(max(y + dy, 0), height - 1)
                    xx = min(max(x + dx, 0), width - 1)
                    window.append(gray[yy, xx])
            window.sort()
            total += abs(gray[y, x] - window[4])
    return total / (height * width)


def _stacked_median_reference(values):
    """np.median over the 9 edge-padded shifted views: the oracle for the
    median from sorted columns."""
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


# Paeth's median-of-9 exchange network (Graphics Gems, 1990, in the order
# of Devillard's "Fast median search", 1998): after these 19 compare-exchanges
# slot 4 holds the median.
_MEDIAN9_EXCHANGES = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)


def _exchange_network_reference(values):
    """The exchange network over the nine shifted views: a second oracle,
    which like the filter only moves values."""
    padded = np.pad(values, 1, mode="edge")
    height, width = values.shape
    slots = [
        padded[dy : dy + height, dx : dx + width]
        for dy in range(3)
        for dx in range(3)
    ]
    for a, b in _MEDIAN9_EXCHANGES:
        slots[a], slots[b] = np.minimum(slots[a], slots[b]), np.maximum(slots[a], slots[b])
    return slots[4]


@st.composite
def _luminance_planes(draw):
    """Luminance of 1x1 to 30x30 RGB images, single rows and columns included:
    colors from a small palette (heavy ties) or uniform, then 0/255 impulses."""
    side = st.integers(1, 30)
    height, width = draw(
        st.one_of(
            st.just((1, 1)), st.tuples(st.just(1), side), st.tuples(side, st.just(1)),
            st.tuples(side, side),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        palette = rng.integers(0, 256, size=(draw(st.integers(1, 4)), 3))
        pixels = palette[rng.integers(len(palette), size=(height, width))]
    else:
        pixels = rng.integers(0, 256, size=(height, width, 3))
    hit = rng.random((height, width)) < draw(st.floats(0.0, 1.0))
    pixels[hit] = np.where(rng.random((height, width)) < 0.5, 0, 255)[hit][:, None]
    return luminance(pixels.astype(np.uint8))


@given(_luminance_planes())
@settings(max_examples=300, deadline=None)
def test_median_network_matches_stacked_median(values):
    median = _median_filter_3x3(values)
    assert np.array_equal(median, _stacked_median_reference(values))
    assert median.tobytes() == _exchange_network_reference(values).tobytes()


def test_constant_image_scores_zero():
    assert noise_score(_rgb(np.full((7, 7), 123))) == 0.0


def test_single_impulse_scores_exactly():
    gray = np.zeros((5, 5), dtype=np.uint8)
    gray[2, 2] = 255
    assert noise_score(_rgb(gray)) == 255 / 25
    assert noise_score(_rgb(gray)) == 10.2


def test_smooth_gradient_scores_low():
    gradient = np.tile(np.arange(0, 160, 10, dtype=np.uint8), (16, 1))
    score = noise_score(_rgb(gradient))
    assert score < 1.0
    assert score == pytest.approx(_naive_median_residual(gradient), abs=1e-12)


def test_score_matches_naive_filter_on_random_images():
    rng = np.random.default_rng(6)
    for _ in range(10):
        gray = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)
        assert noise_score(_rgb(gray)) == pytest.approx(
            _naive_median_residual(gray), abs=1e-10
        )


def test_score_is_flip_invariant():
    rng = np.random.default_rng(61)
    gray = rng.integers(0, 256, size=(9, 12), dtype=np.uint8)
    image = _rgb(gray)
    score = noise_score(image)
    assert noise_score(image[:, ::-1]) == pytest.approx(score, abs=1e-12)
    assert noise_score(image[::-1, :]) == pytest.approx(score, abs=1e-12)


def test_inject_zero_density_is_identity():
    rng = np.random.default_rng(1)
    image = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    assert np.array_equal(inject_salt_pepper(image, 0.0, seed=5), image)


def test_inject_full_density_full_salt():
    image = np.zeros((8, 8, 3), dtype=np.uint8)
    out = inject_salt_pepper(image, 1.0, salt_ratio=1.0, seed=5)
    assert (out == 255).all()


def test_inject_full_density_full_pepper():
    image = np.full((8, 8, 3), 80, dtype=np.uint8)
    out = inject_salt_pepper(image, 1.0, salt_ratio=0.0, seed=5)
    assert (out == 0).all()


def test_inject_is_deterministic():
    rng = np.random.default_rng(2)
    image = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    first = inject_salt_pepper(image, 0.2, seed=99)
    second = inject_salt_pepper(image, 0.2, seed=99)
    assert np.array_equal(first, second)
    other_seed = inject_salt_pepper(image, 0.2, seed=100)
    assert not np.array_equal(first, other_seed)


def test_inject_corruption_count_within_binomial_bounds():
    image = np.full((256, 256, 3), 128, dtype=np.uint8)
    out = inject_salt_pepper(image, 0.1, seed=7)
    changed = int((out != image).any(axis=2).sum())
    n = 256 * 256
    expected = 0.1 * n
    sigma = (n * 0.1 * 0.9) ** 0.5
    assert abs(changed - expected) <= 4 * sigma
    assert noise_score(out) > noise_score(image)


def test_inject_corrupts_whole_pixels():
    rng = np.random.default_rng(3)
    image = rng.integers(1, 255, size=(24, 24, 3), dtype=np.uint8)
    out = inject_salt_pepper(image, 0.3, seed=11)
    changed = (out != image).any(axis=2)
    assert set(np.unique(out[changed]).tolist()) <= {0, 255}
    corrupted_pixels = out[changed]
    assert ((corrupted_pixels == 0).all(axis=1) | (corrupted_pixels == 255).all(axis=1)).all()


def test_noise_score_monotone_in_density():
    rng = np.random.default_rng(8)
    images = [
        np.full((48, 48, 3), 100, dtype=np.uint8),
        _rgb(np.tile(np.linspace(0, 200, 48).astype(np.uint8), (48, 1))),
        rng.integers(90, 160, size=(48, 48, 3), dtype=np.uint8),
    ]
    for image in images:
        scores = [
            noise_score(inject_salt_pepper(image, density, seed=4))
            for density in (0.0, 0.02, 0.05, 0.1, 0.2)
        ]
        assert all(a <= b for a, b in zip(scores, scores[1:]))


def test_inject_validates_parameters():
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    with pytest.raises(ValidationError):
        inject_salt_pepper(image, -0.1)
    with pytest.raises(ValidationError):
        inject_salt_pepper(image, 1.1)
    with pytest.raises(ValidationError):
        inject_salt_pepper(image, 0.5, salt_ratio=2.0)
    with pytest.raises(ValidationError, match=r"expected an \(H, W, 3\) image"):
        inject_salt_pepper(image[:, :, 0], 0.5)
