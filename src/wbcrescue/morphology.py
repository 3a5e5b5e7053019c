"""Biological shape features: contour spikiness for irregular-membrane cells
and the nucleus/cytoplasm vector with its Mahalanobis gate for plasma-like
cells."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ValidationError, read_csv, read_key_values, write_csv
from .ingest import CellSample

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def luminance(pixels) -> np.ndarray:
    """Rec.601 luminance of an (H, W, 3) image as float64."""
    arr = np.asarray(pixels, dtype=np.float64)
    return (
        arr[..., 0] * LUMA_WEIGHTS[0]
        + arr[..., 1] * LUMA_WEIGHTS[1]
        + arr[..., 2] * LUMA_WEIGHTS[2]
    )


def largest_foreground_component(mask) -> np.ndarray:
    """Boolean mask of the largest 8-connected foreground component.

    Ties go to the component encountered first in row-major scan order.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError("mask must be a 2-D array")
    if not mask.any():
        raise ValidationError("empty mask")
    height, width = mask.shape
    labels = np.zeros((height, width), dtype=np.int32)
    sizes = [0]  # label 0 is background
    for y, x in zip(*np.nonzero(mask)):
        if labels[y, x]:
            continue
        label = len(sizes)
        labels[y, x] = label
        stack = [(int(y), int(x))]
        count = 0
        while stack:
            cy, cx = stack.pop()
            count += 1
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = cy + dy, cx + dx
                    if (
                        0 <= ny < height
                        and 0 <= nx < width
                        and mask[ny, nx]
                        and not labels[ny, nx]
                    ):
                        labels[ny, nx] = label
                        stack.append((ny, nx))
        sizes.append(count)
    return labels == int(np.argmax(sizes))


# Moore neighborhood in clockwise order (image coordinates, y grows down),
# starting at the west neighbor; offsets are (dx, dy).
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))
_MOORE_INDEX = {offset: i for i, offset in enumerate(_MOORE)}


def trace_contour(mask) -> np.ndarray:
    """Moore-neighbor boundary trace of the mask's largest component.

    Returns the closed boundary as an (n, 2) array of (x, y) coordinates,
    starting at the topmost-then-leftmost boundary pixel. Thin protrusions
    are walked out and back, so their pixels appear twice; an isolated
    pixel yields a single-point contour. The walk is a deterministic state
    machine over (pixel, backtrack) pairs and stops when a state repeats,
    which closes the boundary cycle even for degenerate one-pixel-wide
    shapes.
    """
    component = largest_foreground_component(mask)
    height, width = component.shape
    ys, xs = np.nonzero(component)
    x0, y0 = int(xs[0]), int(ys[0])

    def foreground(x: int, y: int) -> bool:
        return 0 <= x < width and 0 <= y < height and bool(component[y, x])

    if not any(foreground(x0 + dx, y0 + dy) for dx, dy in _MOORE):
        return np.array([[x0, y0]], dtype=np.int64)

    def step(cx: int, cy: int, bx: int, by: int) -> tuple[int, int, int, int]:
        base = _MOORE_INDEX[(bx - cx, by - cy)]
        px, py = bx, by
        for turn in range(1, 9):
            dx, dy = _MOORE[(base + turn) % 8]
            nx, ny = cx + dx, cy + dy
            if foreground(nx, ny):
                return nx, ny, px, py
            px, py = nx, ny
        raise AssertionError("pixel with no foreground neighbor reached tracing")

    state = (x0, y0, x0 - 1, y0)
    seen: dict[tuple[int, int, int, int], int] = {}
    points: list[tuple[int, int]] = []
    while state not in seen:
        seen[state] = len(points)
        points.append((state[0], state[1]))
        state = step(*state)
    cycle = points[seen[state]:]
    pivot = min(range(len(cycle)), key=lambda i: (cycle[i][1], cycle[i][0]))
    return np.array(cycle[pivot:] + cycle[:pivot], dtype=np.int64)


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull of integer points, counterclockwise."""
    pts = sorted({(int(x), int(y)) for x, y in np.asarray(points)})
    if len(pts) <= 2:
        return np.array(pts, dtype=np.int64)

    def cross(o, a, b) -> int:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1], dtype=np.int64)


def polygon_perimeter(points) -> float:
    """Length of the closed polygonal cycle through the given points.

    Summed with fsum so the result depends only on the multiset of segment
    lengths, keeping scores bit-identical under translation and mirroring.
    """
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        return 0.0
    closed = np.vstack([pts, pts[:1]])
    deltas = np.diff(closed, axis=0)
    return math.fsum(np.hypot(deltas[:, 0], deltas[:, 1]).tolist())


def spikiness(contour) -> float:
    """Contour irregularity: boundary length over convex hull length, minus 1.

    Zero for convex shapes (the boundary already is its hull); grows as
    protrusions lengthen the boundary faster than the hull. Contours with
    fewer than 3 distinct points are degenerate and score 0.
    """
    pts = np.asarray(contour)
    if len({(int(x), int(y)) for x, y in pts}) < 3:
        return 0.0
    hull_perimeter = polygon_perimeter(convex_hull(pts))
    if hull_perimeter <= 0.0:
        return 0.0
    return max(0.0, polygon_perimeter(pts) / hull_perimeter - 1.0)


def _split_cost_exact(sorted_values: Sequence[float], split: int) -> float:
    """Within-cluster sum of squares for a sorted-value split, via fsum."""
    cost = 0.0
    for part in (sorted_values[:split], sorted_values[split:]):
        center = math.fsum(part) / len(part)
        cost += math.fsum((value - center) ** 2 for value in part)
    return cost


# Up to this many foreground pixels every split is costed exactly with fsum,
# so the chosen split's cost equals the exhaustive minimum even on tied
# inputs; above it, prefix sums cost all splits at once, within a few ulps.
_EXACT_SPLIT_LIMIT = 64


def _best_threshold_split(sorted_values: np.ndarray) -> int:
    """Index of the optimal 2-cluster split of sorted values.

    Only boundaries between distinct values are valid splits; ties go to
    the smallest index.
    """
    n = len(sorted_values)
    candidates = np.flatnonzero(sorted_values[1:] > sorted_values[:-1]) + 1
    if n <= _EXACT_SPLIT_LIMIT:
        values = sorted_values.tolist()
        return min(candidates.tolist(), key=lambda i: (_split_cost_exact(values, i), i))
    prefix = np.cumsum(sorted_values)
    prefix_sq = np.cumsum(sorted_values * sorted_values)
    left, left_sq = prefix[candidates - 1], prefix_sq[candidates - 1]
    right = prefix[-1] - left
    costs = (left_sq - left * left / candidates) + (
        (prefix_sq[-1] - left_sq) - right * right / (n - candidates)
    )
    return int(candidates[np.argmin(costs)])


def kmeans2_luminance(sample: CellSample) -> tuple[np.ndarray, np.ndarray]:
    """Partition foreground pixels into nucleus and cytoplasm by luminance.

    The optimal 1-D 2-means partition is always a threshold, so this takes
    the threshold between distinct luminances with the least within-cluster
    sum of squares; when two thresholds cost the same, the lower one wins.

    Returns (nucleus_mask, cytoplasm_mask); the darker cluster is the
    nucleus and the two masks partition the foreground.
    """
    foreground = np.asarray(sample.mask, dtype=bool)
    if not foreground.any():
        raise ValidationError(f"{sample.image_id}: empty mask")
    values = luminance(sample.pixels)[foreground]
    if values.size < 2:
        raise ValidationError(f"{sample.image_id}: need at least 2 foreground pixels to cluster")
    sorted_values = np.sort(values)
    if sorted_values[0] == sorted_values[-1]:
        raise ValidationError(f"{sample.image_id}: degenerate luminance distribution")
    cut = sorted_values[_best_threshold_split(sorted_values) - 1]
    nucleus_mask = np.zeros_like(foreground)
    nucleus_mask[foreground] = values <= cut
    return nucleus_mask, foreground & ~nucleus_mask


@dataclass(frozen=True)
class MorphVector:
    """(nucleus/cytoplasm area ratio, normalized cytoplasm luminance,
    nucleus eccentricity relative to the equivalent cell radius)."""

    nc_ratio: float
    staining: float
    centroid_offset: float

    def as_array(self) -> np.ndarray:
        return np.array([self.nc_ratio, self.staining, self.centroid_offset])


def morph_vector(sample: CellSample) -> MorphVector:
    """Extract the 3-component shape vector from one segmented cell."""
    nucleus_mask, cytoplasm_mask = kmeans2_luminance(sample)
    area_nucleus = int(nucleus_mask.sum())
    area_cytoplasm = int(cytoplasm_mask.sum())
    if area_nucleus == 0 or area_cytoplasm == 0:
        raise ValidationError(f"{sample.image_id}: degenerate segmentation")
    lum = luminance(sample.pixels)
    staining = float(lum[cytoplasm_mask].mean()) / 255.0
    ys, xs = np.nonzero(sample.mask)
    cell_centroid = np.array([xs.mean(), ys.mean()])
    nys, nxs = np.nonzero(nucleus_mask)
    nucleus_centroid = np.array([nxs.mean(), nys.mean()])
    area_cell = len(xs)
    equivalent_radius = math.sqrt(area_cell / math.pi)
    delta = nucleus_centroid - cell_centroid
    offset = float(np.hypot(delta[0], delta[1])) / equivalent_radius
    return MorphVector(area_nucleus / area_cytoplasm, staining, offset)


def _det3(m: np.ndarray) -> float:
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _invert_spd_3x3(matrix: np.ndarray, where: str) -> np.ndarray:
    """Closed-form 3x3 inverse, guarded by Sylvester's criterion and a finite result."""
    minor1 = float(matrix[0, 0])
    minor2 = float(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    minor3 = _det3(matrix)
    if minor1 <= 0.0 or minor2 <= 0.0 or minor3 <= 0.0:
        raise ValidationError(f"{where}: degenerate covariance")
    m = matrix
    cofactors = np.array(
        [
            [
                m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1],
                m[0, 2] * m[2, 1] - m[0, 1] * m[2, 2],
                m[0, 1] * m[1, 2] - m[0, 2] * m[1, 1],
            ],
            [
                m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2],
                m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0],
                m[0, 2] * m[1, 0] - m[0, 0] * m[1, 2],
            ],
            [
                m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0],
                m[0, 1] * m[2, 0] - m[0, 0] * m[2, 1],
                m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0],
            ],
        ]
    )
    with np.errstate(over="ignore"):
        inverse = cofactors / minor3
    if not np.all(np.isfinite(inverse)):
        raise ValidationError(f"{where}: degenerate covariance")
    return inverse


@dataclass(frozen=True)
class GaussianGate:
    """Fitted mean/covariance model answering Mahalanobis queries."""

    mean: np.ndarray        # (3,)
    covariance: np.ndarray  # (3, 3)
    precision: np.ndarray   # inverse of covariance + ridge * I
    ridge: float
    sample_count: int


def fit_gaussian_gate(features, ridge_scale: float = 1e-6) -> GaussianGate:
    """Fit a Gaussian gate to calibration vectors (n > 3 required).

    Uses the unbiased covariance estimator with a trace-scaled ridge so the
    gate stays defined for small, nearly collinear calibration sets.
    """
    rows = [f.as_array() if isinstance(f, MorphVector) else np.asarray(f, float) for f in features]
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != 3:
        raise ValidationError("calibration features must be 3-vectors")
    n = len(matrix)
    if n <= 3:
        raise ValidationError(
            f"insufficient calibration samples: got {n}, need more than 3"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("non-finite calibration feature")
    if not math.isfinite(ridge_scale) or ridge_scale < 0.0:
        raise ValidationError(f"ridge_scale must be >= 0, got {ridge_scale}")
    mean = matrix.mean(axis=0)
    centered = matrix - mean
    covariance = centered.T @ centered / (n - 1)
    covariance = (covariance + covariance.T) / 2.0
    ridge = ridge_scale * float(np.trace(covariance)) / 3.0
    return _build_gate(mean, covariance, ridge, n, "gate fit")


def _build_gate(mean, covariance, ridge: float, count: int, where: str) -> GaussianGate:
    """Check the gate parameters, invert covariance + ridge * I, freeze it all."""
    if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(covariance)):
        raise ValidationError(f"{where}: non-finite gate parameters")
    if np.abs(covariance - covariance.T).max() > 1e-9:
        raise ValidationError(f"{where}: covariance is not symmetric")
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise ValidationError(f"{where}: ridge must be finite and >= 0, got {ridge}")
    if count <= 3:
        raise ValidationError(f"{where}: n must be > 3, got {count}")
    precision = _invert_spd_3x3(covariance + ridge * np.eye(3), where)
    for array in (mean, covariance, precision):
        array.flags.writeable = False
    return GaussianGate(mean, covariance, precision, ridge, count)


def mahalanobis(gate: GaussianGate, vector) -> float:
    """Mahalanobis distance of a 3-vector from the gate's distribution."""
    arr = vector.as_array() if isinstance(vector, MorphVector) else np.asarray(vector, float)
    if arr.shape != (3,):
        raise ValidationError("morphological vector must have 3 components")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("non-finite morphological vector")
    delta = arr - gate.mean
    with np.errstate(all="ignore"):  # overflow gives inf (far away) or NaN (rejected)
        squared = float(delta @ gate.precision @ delta)
    if math.isnan(squared):
        raise ValidationError("Mahalanobis distance is NaN: vector too far out of range")
    return math.sqrt(max(0.0, squared))  # the clamp absorbs rounding just below 0


def calibrate_spikiness_threshold(reference_scores, k: float = 2.0) -> float:
    """Outlier threshold: mean + k population standard deviations."""
    scores = np.asarray(list(reference_scores), dtype=np.float64)
    if scores.size < 2:
        raise ValidationError("need at least 2 reference scores to calibrate")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("non-finite reference score")
    if not math.isfinite(k):
        raise ValidationError(f"k must be finite, got {k}")
    return float(scores.mean() + k * scores.std())


def save_gate(path, gate: GaussianGate) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("mean = " + " ".join(f"{v:.17g}" for v in gate.mean) + "\n")
        handle.write("cov = " + " ".join(f"{v:.17g}" for v in gate.covariance.ravel()) + "\n")
        handle.write(f"ridge = {gate.ridge:.17g}\n")
        handle.write(f"n = {gate.sample_count}\n")


def load_gate(path) -> GaussianGate:
    """Read a gate model file and rebuild the cached precision matrix."""
    entries = {key: value.split() for _, key, value in read_key_values(path)}
    for key, length in (("mean", 3), ("cov", 9), ("ridge", 1), ("n", 1)):
        if key not in entries:
            raise ValidationError(f"{path}: missing {key!r} line")
        if len(entries[key]) != length:
            raise ValidationError(
                f"{path}: {key!r} needs {length} values, got {len(entries[key])}"
            )
    try:
        mean = np.array([float(v) for v in entries["mean"]])
        covariance = np.array([float(v) for v in entries["cov"]]).reshape(3, 3)
        ridge = float(entries["ridge"][0])
        count = int(entries["n"][0])
    except ValueError as exc:
        raise ValidationError(f"{path}: bad numeric value ({exc})") from None
    return _build_gate(mean, covariance, ridge, count, str(path))


FEATURE_HEADER = ("image_id", "nc_ratio", "staining", "centroid_offset", "spikiness")


def write_features_csv(path, rows: Iterable[tuple[str, MorphVector, float]]) -> None:
    write_csv(
        path,
        FEATURE_HEADER,
        (
            [image_id, *(f"{x:.12g}" for x in (v.nc_ratio, v.staining, v.centroid_offset, spike))]
            for image_id, v, spike in rows
        ),
    )


def read_features_csv(path) -> list[tuple[str, MorphVector, float]]:
    rows = []
    for lineno, row in read_csv(path, FEATURE_HEADER):
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric feature value") from None
        rows.append((row[0], MorphVector(values[0], values[1], values[2]), values[3]))
    return rows
