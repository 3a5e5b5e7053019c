"""Biological shape features: contour spikiness for irregular-membrane cells
and the nucleus/cytoplasm vector with its Mahalanobis gate for plasma-like
cells."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import ValidationError, read_csv, read_key_values, write_csv
from .ingest import CellSample

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def luminance(pixels) -> np.ndarray:
    """Rec.601 luminance of an (..., 3) array of pixels as float64.

    Bool and integer channels are weighted as they are: an integer times a
    float is the float64 product, without a float64 copy of the pixels.
    Every other dtype is converted to float64 first, since a float32 array
    weighted directly would stay float32.
    """
    arr = np.asarray(pixels)
    if arr.dtype.kind not in "biu":
        arr = arr.astype(np.float64, copy=False)
    return (
        arr[..., 0] * LUMA_WEIGHTS[0]
        + arr[..., 1] * LUMA_WEIGHTS[1]
        + arr[..., 2] * LUMA_WEIGHTS[2]
    )


def largest_foreground_component(mask) -> np.ndarray:
    """Boolean mask of the largest 8-connected foreground component.

    Ties go to the component encountered first in row-major scan order.

    Run-based two-pass labelling (He, Chao & Suzuki, IEEE TIP 2008): the
    horizontal runs of foreground pixels are the units, and runs of adjacent
    rows that touch are merged with union-find. Each merge keeps the lower
    run index as the root, so a component's root is its first run in
    row-major order and `argmax` over the per-root sizes applies the tie rule.

    The runs are read from flat indices of the `(H, W + 1)` edge array, one
    row-major pass each for starts and ends; a run's start and exclusive end
    lie in the same row, so its length is the difference of their indices.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError("mask must be a 2-D array")
    if not mask.any():
        raise ValidationError("empty mask")
    height, width = mask.shape
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    first = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - first  # ends are paired with starts in order
    rows, starts = np.divmod(first, width + 1)
    ends = starts + lengths
    row_first = np.searchsorted(rows, np.arange(height + 1)).tolist()
    s, e = starts.tolist(), ends.tolist()
    parent = list(range(len(s)))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for y in range(1, height):
        i, i_stop = row_first[y - 1], row_first[y]
        j, j_stop = i_stop, row_first[y + 1]
        while i < i_stop and j < j_stop:
            # 8-connectivity: the runs touch when they overlap or meet at a
            # diagonal, i.e. each starts no later than the other's end.
            if s[j] <= e[i] and s[i] <= e[j]:
                a, b = find(i), find(j)
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
            # The run that ends first can touch no later run of the other row.
            if e[i] <= e[j]:
                i += 1
            else:
                j += 1
    roots = np.array([find(k) for k in range(len(s))])
    if not roots.any():  # every run joined run 0: the mask is one component
        return mask.copy()
    sizes = np.bincount(roots, weights=lengths)
    keep = roots == int(np.argmax(sizes))
    # The runs list the foreground pixels in row-major order, as the mask does.
    component = np.zeros_like(mask)
    component[mask] = np.repeat(keep, lengths)
    return component


# Moore neighborhood in clockwise order (image coordinates, y grows down),
# starting at the west neighbor; offsets are (dx, dy). Bit k of a pixel's
# neighbor code is set when its neighbor in direction k is foreground.
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))


def _next_direction_table() -> bytes:
    """Entry `code * 8 + back`: the first direction clockwise after `back`
    whose bit is set in `code`. Code 0, an isolated pixel, is never walked."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    order = (np.arange(8)[:, None] + np.arange(1, 9)) % 8  # [back, turn - 1]
    first_turn = np.argmax(bits[:, order], axis=2)  # [code, back]
    return order[np.arange(8), first_turn].astype(np.uint8).tobytes()


_NEXT_DIRECTION = _next_direction_table()
# After a move in direction k the backtrack is the neighbor examined just
# before, direction k - 1 of the old pixel: _MOORE[k - 1] - _MOORE[k] as
# seen from the new one.
_BACKTRACK_AFTER = tuple(
    _MOORE.index((_MOORE[k - 1][0] - _MOORE[k][0], _MOORE[k - 1][1] - _MOORE[k][1]))
    for k in range(8)
)


def trace_contour(mask) -> np.ndarray:
    """Moore-neighbor boundary trace of the mask's largest component.

    Returns the closed boundary as an (n, 2) array of (x, y) coordinates,
    starting at the topmost-then-leftmost boundary pixel. Thin protrusions
    are walked out and back, so their pixels appear twice; an isolated
    pixel yields a single-point contour. The walk is a deterministic state
    machine over (pixel, backtrack) pairs and stops when a state repeats,
    which closes the boundary cycle even for degenerate one-pixel-wide
    shapes.

    The component is padded by one background pixel, so no step leaves the
    array, and each pixel's 8-neighbor code is computed up front; a state is
    the integer `pixel * 8 + backtrack` over the padded raster, and the next
    direction is one lookup in `_NEXT_DIRECTION`.
    """
    padded = np.pad(largest_foreground_component(mask), 1).view(np.uint8)
    width = padded.shape[1]
    flat = padded.ravel()
    size = len(flat)
    # Codes of every pixel but the top and bottom pad rows; those of the pad
    # columns wrap around the rows and are wrong, but no walk reaches them.
    codes = np.zeros_like(flat)
    inner = codes[width + 1 : size - width - 1]
    for dx, dy in reversed(_MOORE):  # Horner's rule: bit k is doubled k times
        inner += inner
        inner |= flat[width + 1 + dy * width + dx : size - width - 1 + dy * width + dx]
    start = int(np.argmax(flat))
    if not codes[start]:
        return np.array([[start % width - 1, start // width - 1]], dtype=np.int64)
    code_of = codes.tobytes()
    moves = [((dy * width + dx) << 3) + _BACKTRACK_AFTER[k] for k, (dx, dy) in enumerate(_MOORE)]
    # Backtrack 0, the west neighbor, is background: it comes earlier in the scan.
    state = start << 3
    seen: dict[int, int] = {}
    while state not in seen:
        seen[state] = len(seen)
        pixel = state >> 3
        state = (pixel << 3) + moves[_NEXT_DIRECTION[code_of[pixel] << 3 | state & 7]]
    cycle = np.array(list(seen)[seen[state]:], dtype=np.int64) >> 3
    pivot = int(np.argmin(cycle))  # flat indices sort topmost-then-leftmost
    ys, xs = np.divmod(np.roll(cycle, -pivot), width)
    return np.stack([xs - 1, ys - 1], axis=1)


def _distinct_points(points) -> np.ndarray:
    """The distinct rows of (n, 2) integer points, sorted by (x, y)."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    return pts[first]


def _chain(points: list[list[int]]) -> list[list[int]]:
    """One monotone chain: each point in turn, after dropping the chain's
    last points while they do not turn strictly left towards it."""
    chain: list[list[int]] = []
    for p in points:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull_of_distinct(pts: np.ndarray) -> np.ndarray:
    """Monotone-chain hull of points already distinct and sorted by (x, y).

    A point between the lowest and the highest point of its column lies on
    the segment joining them, so it is never a strict hull vertex (the
    throw-away step of Akl & Toussaint, IPL 1978). The lower chain runs over
    the column minima and up the last column, the upper chain back over the
    column maxima and down the first column.
    """
    if len(pts) <= 2:
        return np.array(pts.tolist(), dtype=np.int64)
    column_edge = pts[1:, 0] != pts[:-1, 0]
    minima = pts[np.concatenate(([True], column_edge))].tolist()
    maxima = pts[np.concatenate((column_edge, [True]))].tolist()
    lower = _chain(minima + maxima[-1:])
    upper = _chain(maxima[::-1] + minima[:1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.int64)


def convex_hull(points) -> np.ndarray:
    """Monotone-chain convex hull of integer points, counterclockwise."""
    return _hull_of_distinct(_distinct_points(points))


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
    distinct = _distinct_points(contour)
    if len(distinct) < 3:
        return 0.0
    hull_perimeter = polygon_perimeter(_hull_of_distinct(distinct))
    if hull_perimeter <= 0.0:
        return 0.0
    return max(0.0, polygon_perimeter(contour) / hull_perimeter - 1.0)


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


def _foreground_split(sample: CellSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample's foreground gathered once and split by 2-means.

    Returns the flat row-major indices of the foreground pixels, their
    luminance, and the flags of the darker cluster, all in that order. The
    optimal 1-D 2-means partition is always a threshold, so this takes the
    threshold between distinct luminances with the least within-cluster sum
    of squares; when two thresholds cost the same, the lower one wins.
    """
    flat = np.flatnonzero(np.asarray(sample.mask, dtype=bool))
    if flat.size == 0:
        raise ValidationError(f"{sample.image_id}: empty mask")
    values = luminance(np.asarray(sample.pixels).reshape(-1, 3).take(flat, axis=0))
    if values.size < 2:
        raise ValidationError(f"{sample.image_id}: need at least 2 foreground pixels to cluster")
    sorted_values = np.sort(values)
    if sorted_values[0] == sorted_values[-1]:
        raise ValidationError(f"{sample.image_id}: degenerate luminance distribution")
    cut = sorted_values[_best_threshold_split(sorted_values) - 1]
    return flat, values, values <= cut


def kmeans2_luminance(sample: CellSample) -> tuple[np.ndarray, np.ndarray]:
    """Partition foreground pixels into nucleus and cytoplasm by luminance.

    The least-cost luminance threshold splits the foreground; see
    `_foreground_split`. Returns (nucleus_mask, cytoplasm_mask); the darker
    cluster is the nucleus and the two masks partition the foreground.
    """
    flat, _, dark = _foreground_split(sample)
    foreground = np.asarray(sample.mask, dtype=bool)
    nucleus = np.zeros(foreground.shape, dtype=bool)
    nucleus.ravel()[flat[dark]] = True  # a new C-ordered array ravels to a view
    return nucleus, foreground & ~nucleus


class MorphVector(NamedTuple):
    """(nucleus/cytoplasm area ratio, normalized cytoplasm luminance,
    nucleus eccentricity relative to the equivalent cell radius)."""

    nc_ratio: float
    staining: float
    centroid_offset: float


def morph_vector(sample: CellSample) -> MorphVector:
    """Extract the 3-component shape vector from one segmented cell.

    Every term comes from one foreground split. Pixels are addressed by
    their flat row-major index, so each mean sees its values in the order a
    boolean-mask selection would give them.
    """
    flat, values, dark = _foreground_split(sample)
    area_cell = len(flat)
    area_nucleus = int(np.count_nonzero(dark))
    area_cytoplasm = area_cell - area_nucleus
    if area_nucleus == 0 or area_cytoplasm == 0:
        raise ValidationError(f"{sample.image_id}: degenerate segmentation")
    staining = float(values[~dark].mean()) / 255.0
    ys, xs = np.divmod(flat, np.shape(sample.mask)[1])
    cell_centroid = np.array([xs.mean(), ys.mean()])
    nucleus_centroid = np.array([xs[dark].mean(), ys[dark].mean()])
    equivalent_radius = math.sqrt(area_cell / math.pi)
    delta = nucleus_centroid - cell_centroid
    offset = float(np.hypot(delta[0], delta[1])) / equivalent_radius
    return MorphVector(area_nucleus / area_cytoplasm, staining, offset)


def _invert_spd_3x3(matrix: np.ndarray, where: str) -> np.ndarray:
    """Closed-form 3x3 inverse, guarded by Sylvester's criterion and a finite result.

    The adjugate's columns are the cross products of the rows; the
    determinant expands the first row along the adjugate's first column, and
    the leading 2x2 minor is the adjugate's last entry.
    """
    r0, r1, r2 = matrix
    adjugate = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=1)
    det = r0[0] * adjugate[0, 0] + r0[1] * adjugate[1, 0] + r0[2] * adjugate[2, 0]
    if r0[0] <= 0.0 or adjugate[2, 2] <= 0.0 or det <= 0.0:
        raise ValidationError(f"{where}: degenerate covariance")
    with np.errstate(over="ignore"):
        inverse = adjugate / det
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
    matrix = np.asarray(list(features), float)
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
    arr = np.asarray(vector, float)
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
