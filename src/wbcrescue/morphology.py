"""Biological shape features: contour spikiness for irregular-membrane cells
and the nucleus/cytoplasm vector with its Mahalanobis gate for plasma-like
cells."""

from __future__ import annotations

import math
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


def _run_roots(mask: np.ndarray, diagonal: bool) -> tuple[np.ndarray, np.ndarray]:
    """The root and the length of each horizontal run of a 2-D boolean mask,
    in row-major order: run-based two-pass labelling (He, Chao & Suzuki, IEEE
    TIP 2008). Runs of adjacent rows are merged with union-find when they
    share a column or, with `diagonal` (8-connectivity), meet at a corner;
    the lower run index stays the root, so a component's root is its first
    run. The runs come from flat indices of the `(H, W + 1)` edge array, and
    a run's start and exclusive end lie in one row."""
    height, width = mask.shape
    framed = np.zeros((height, width + 2), dtype=np.int8)
    framed[:, 1:-1] = mask
    edges = np.diff(framed, axis=1)
    first = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - first  # ends are paired with starts in order
    rows, starts = np.divmod(first, width + 1)
    row_first = np.searchsorted(rows, np.arange(height + 1)).tolist()
    # Each run reaches one column past its end when corners count.
    s, e = starts.tolist(), (starts + lengths + diagonal).tolist()
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
            if s[j] < e[i] and s[i] < e[j]:  # each starts before the other's reach
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
    return np.array([find(k) for k in range(len(s))]), lengths


def largest_foreground_component(mask) -> np.ndarray:
    """Boolean mask of the largest 8-connected foreground component. Ties go
    to the component that comes first in row-major order: its root is the
    lower run, so `argmax` over the sizes per root finds it first."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError("mask must be a 2-D array")
    if not mask.any():
        raise ValidationError("empty mask")
    roots, lengths = _run_roots(mask, diagonal=True)
    if not roots.any():  # every run joined run 0: the mask is one component
        return mask.copy()
    keep = roots == int(np.argmax(np.bincount(roots, weights=lengths)))
    # The runs list the foreground pixels in row-major order, as the mask does.
    component = np.zeros_like(mask)
    component[mask] = np.repeat(keep, lengths)
    return component


class Contour(NamedTuple):
    """An outer boundary as `trace_contour` measures it."""

    axial: int  # unit steps
    diagonal: int  # diagonal steps
    left: int  # the first column
    top: np.ndarray  # int64 row of each column's top pixel, from column `left` on
    bottom: np.ndarray  # int64 row of each column's bottom pixel


def _bit_quads(padded: np.ndarray) -> tuple[int, int, int]:
    """`(axial, diagonal, euler)` from the 2x2 windows of a 0/1 uint8 raster
    framed by background: Gray's bit-quads (S. B. Gray, "Local properties of
    binary images in two dimensions", IEEE Trans. Computers, 1971), told apart
    by their pixel count; a window of two is a diagonal pair when its opposite
    corners agree. `euler` is Gray's 8-connected (n1 - n3 - 2 nD) / 4,
    components less holes.

    The weights count the steps of the Moore walk. Put each pixel at its
    centre, so that the windows are the unit squares between centres. The walk
    keeps the outside on one hand and steps to the first foreground neighbour,
    so each step crosses the window of the background it turned past. If both
    of that window's other pixels are background, it holds two 4-adjacent
    pixels and the step is its side: 1 to `axial`. If one is foreground, it
    holds three and the step cuts its empty corner: 1 to `diagonal`. A window
    of a diagonal pair is a pinch, passed once on each side: 2 to `diagonal`.
    A window of one pixel is a corner turned in place. A one-pixel spur is
    walked out and back, so the windows on both of its sides count. The walk
    sees only the outer boundary, so the counts match it once holes are filled.
    """
    pairs = padded[:, :-1] + padded[:, 1:]
    held = pairs[:-1] + pairs[1:]
    two = held == 2
    crossed = np.count_nonzero(two & (padded[:-1, :-1] == padded[1:, 1:]))  # nD
    ones, threes = np.count_nonzero(held == 1), np.count_nonzero(held == 3)
    euler = (ones - threes - 2 * crossed) // 4
    return np.count_nonzero(two) - crossed, 2 * crossed + threes, euler


def trace_contour(mask) -> Contour:
    """Measure the outer boundary of the mask's largest 8-connected component,
    cropped to its bounding box and framed by background, without walking it
    (`_bit_quads`). Holes are filled only when the Euler number shows some.
    That moves no column's top or bottom pixel: a hole pixel has the component
    above and below it, or its background would reach the frame."""
    component = largest_foreground_component(mask)
    rows = np.flatnonzero(component.any(axis=1))
    cropped = component[rows[0] : rows[-1] + 1]
    columns = np.flatnonzero(cropped.any(axis=0))  # an interval: the component is connected
    cropped = cropped[:, columns[0] : columns[-1] + 1]
    height, width = cropped.shape
    padded = np.zeros((height + 2, width + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = cropped
    axial, diagonal, euler = _bit_quads(padded)
    if euler != 1:  # fill what the frame's 4-connected background, rooted at run 0, misses
        background = padded == 0
        roots, lengths = _run_roots(background, diagonal=False)
        padded[background] = np.repeat(roots != 0, lengths)
        axial, diagonal, _ = _bit_quads(padded)
    top, bottom = rows[0] + cropped.argmax(axis=0), rows[-1] - cropped[::-1].argmax(axis=0)
    return Contour(int(axial), int(diagonal), int(columns[0]), top, bottom)


def _chain(points: np.ndarray) -> list[list[int]]:
    """One monotone chain: each point in turn, after dropping the chain's
    last points while they do not turn strictly left towards it. One NumPy
    pass first drops the inner points that do not turn strictly left from
    their neighbours, which are no strict vertices; its products are exact
    in int64 for coordinates that span less than 2**31."""
    if len(points) > 2 and int(points.max()) - int(points.min()) < 2**31:
        step = np.diff(points, axis=0)  # (a - o) x (b - o) == (a - o) x (b - a)
        turns = step[:-1, 0] * step[1:, 1] > step[:-1, 1] * step[1:, 0]
        points = points[np.concatenate(([True], turns, [True]))]
    chain: list[list[int]] = []
    for p in points.tolist():
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _hull(minima: np.ndarray, maxima: np.ndarray) -> list[list[int]]:
    """Monotone-chain hull, counterclockwise from the lowest (x, y), of the
    lowest and the highest point of each column, both given in column order.

    A point between the two ends of its column lies on the segment joining
    them, so it is never a strict hull vertex (the throw-away step of Akl &
    Toussaint, IPL 1978). The lower chain runs over the minima and up the
    last column, the upper chain back over the maxima and down the first.
    """
    lower = _chain(np.concatenate((minima, maxima[-1:])))
    upper = _chain(np.concatenate((maxima[::-1], minima[:1])))
    return lower[:-1] + upper[:-1]


def polygon_perimeter(points) -> float:
    """Length of the closed polygonal cycle through the given points, summed
    with fsum so that it depends only on the multiset of segment lengths:
    scores stay bit-identical under translation and mirroring."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    deltas = np.diff(pts, axis=0, append=pts[:1])
    return math.fsum(np.hypot(deltas[:, 0], deltas[:, 1]).tolist())


# fl(sqrt(2)), the length np.hypot gives a diagonal step, as a ratio of ints.
_ROOT2_NUMERATOR, _ROOT2_DENOMINATOR = math.sqrt(2.0).as_integer_ratio()


def spikiness(contour: Contour) -> float:
    """Contour irregularity: boundary length over convex hull length, minus 1.

    Zero for convex shapes; grows as protrusions lengthen the boundary faster
    than the hull. Fewer than 3 distinct column ends score 0; the hull of more
    keeps the first and the last, so its perimeter is >= 2. Each strict vertex
    of the boundary's hull is a column's top or bottom, so the hulls are the
    same. The length is `axial + diagonal * fl(sqrt(2))` rounded once, as
    `fsum` over the walk's steps rounds it, where a float product would round
    twice: an int over an int is correctly rounded, as in `float(Fraction(...))`.
    """
    top, bottom = contour.top, contour.bottom
    if len(top) + np.count_nonzero(top != bottom) < 3:
        return 0.0
    xs = np.arange(contour.left, contour.left + len(top))
    hull = _hull(np.stack((xs, top), axis=1), np.stack((xs, bottom), axis=1))
    scaled = contour.axial * _ROOT2_DENOMINATOR + contour.diagonal * _ROOT2_NUMERATOR
    return max(0.0, scaled / _ROOT2_DENOMINATOR / polygon_perimeter(hull) - 1.0)


def _split_cost_exact(sorted_values: Sequence[float], split: int) -> float:
    """Within-cluster sum of squares for a sorted-value split, via fsum."""
    cost = 0.0
    for part in (sorted_values[:split], sorted_values[split:]):
        center = math.fsum(part) / len(part)
        cost += math.fsum((value - center) ** 2 for value in part)
    return cost


def _best_threshold_split(sorted_values: np.ndarray) -> int:
    """Index of the split of sorted values, at a boundary between distinct
    values, with the least `_split_cost_exact`; on equal cost the smallest.
    One prefix sum ranks all splits by their between-cluster sum of squares
    (Otsu, IEEE SMC 1979); fsum re-costs those that may tie the best."""
    n = len(sorted_values)
    below = np.flatnonzero(sorted_values[1:] > sorted_values[:-1])  # each split minus 1
    prefix = np.cumsum(sorted_values)
    total = prefix[-1]
    sizes = below + 1.0
    gaps = prefix[below] * n - sizes * total
    scores = gaps / (sizes * (n - sizes)) * gaps
    # A split of i values with sum L has the within-cluster cost
    # sum(x**2) - T**2 / n - S / n, where T is the total and the score
    # S = (n*L - i*T)**2 / (i*(n - i)) is n times the between-cluster sum of
    # squares: the least cost is the greatest score. u = 2**-53, A = sum|x|,
    # M = max|x|. cumsum errs by (n - 1)*u*A at any index, so n*L - i*T errs by
    # (2n**2 + 1)*u*A with its three roundings; over i*(n - i) it is the gap of
    # the two means, at most 2M, so a score errs by n*(9n + 8)*u*A*M,
    # second-order terms included for n <= 2**25. fsum's cost errs by 5*u*A*M,
    # so the fsum argmin scores within n*(18n + 26)*u*A*M of the greatest, and
    # 20*n*(n + 2) covers it. The negative values come first, so A is the total
    # less twice their prefix sum. NaN scores stay for fsum.
    negative = int(np.searchsorted(sorted_values, 0.0))
    abs_sum = total - 2.0 * prefix[negative - 1] if negative else total
    window = 20.0 * n * (n + 2) * 2.0**-53 * abs_sum * max(-sorted_values[0], sorted_values[-1])
    near = below[~(scores < scores.max() - window)] + 1
    if len(near) == 1:
        return int(near[0])
    values = sorted_values.tolist()
    return min(near.tolist(), key=lambda i: (_split_cost_exact(values, i), i))


def kmeans2_luminance(sample: CellSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample's foreground gathered once and split by luminance 2-means.

    Returns the flat row-major indices of the foreground pixels, their
    luminance, and the flags of the darker cluster (the nucleus; the rest is
    cytoplasm), all in that order. The optimal 1-D 2-means partition is
    always a threshold: the one with the least within-cluster sum of
    squares, the lower one on a tie, at any size.
    """
    flat = np.flatnonzero(np.asarray(sample.mask, dtype=bool))
    if flat.size == 0:
        raise ValidationError(f"{sample.image_id}: empty mask")
    values = luminance(np.asarray(sample.pixels).reshape(-1, 3).take(flat, axis=0))
    if values.size < 2:
        raise ValidationError(f"{sample.image_id}: need at least 2 foreground pixels to cluster")
    sorted_values = np.sort(values)
    # -inf sorts first, and +inf and NaN last, so the ends show any of them.
    if not (math.isfinite(sorted_values[0]) and math.isfinite(sorted_values[-1])):
        raise ValidationError(f"{sample.image_id}: non-finite luminance")
    if sorted_values[0] == sorted_values[-1]:
        raise ValidationError(f"{sample.image_id}: degenerate luminance distribution")
    cut = sorted_values[_best_threshold_split(sorted_values) - 1]
    return flat, values, values <= cut


class MorphVector(NamedTuple):
    """(nucleus/cytoplasm area ratio, normalized cytoplasm luminance,
    nucleus eccentricity relative to the equivalent cell radius)."""

    nc_ratio: float
    staining: float
    centroid_offset: float


def _centroid(flat: np.ndarray, shape: tuple[int, int]) -> tuple[float, float]:
    """(x, y) mean of the pixels at ascending flat row-major indices.

    The coordinate sums are exact integers: the pixels from row y on start at
    the first index >= y * width, so the row sum counts them once for each
    y >= 1, and the column sum is the index sum less width times it. While
    each coordinate sum is below 2**53, `np.mean` of the coordinates adds
    them exactly too, so both give the same correctly rounded quotient; that
    holds for images of under 2**31 pixels whose pixel count times longer
    side is below 2**53, and the int64 index sum cannot wrap there either.
    """
    height, width = shape
    row_starts = np.searchsorted(flat, np.arange(width, height * width, width))
    row_sum = (height - 1) * len(flat) - int(row_starts.sum())
    return (int(flat.sum()) - width * row_sum) / len(flat), row_sum / len(flat)


def morph_vector(sample: CellSample) -> MorphVector:
    """Extract the 3-component shape vector from one segmented cell.

    Every term comes from one `kmeans2_luminance` split. Pixels are addressed by
    their flat row-major index, so each mean sees its values in the order a
    boolean-mask selection would give them.
    """
    flat, values, dark = kmeans2_luminance(sample)
    area_cell = len(flat)
    area_nucleus = int(np.count_nonzero(dark))
    area_cytoplasm = area_cell - area_nucleus  # both > 0: the split lies between two values
    staining = float(values[~dark].mean()) / 255.0
    cell_x, cell_y = _centroid(flat, np.shape(sample.mask))
    nucleus_x, nucleus_y = _centroid(flat[dark], np.shape(sample.mask))
    equivalent_radius = math.sqrt(area_cell / math.pi)
    offset = float(np.hypot(nucleus_x - cell_x, nucleus_y - cell_y)) / equivalent_radius
    return MorphVector(area_nucleus / area_cytoplasm, staining, offset)


def _invert_spd_3x3(matrix: np.ndarray, where: str) -> np.ndarray:
    """Closed-form 3x3 inverse, guarded by Sylvester's criterion and a finite result.

    The adjugate's columns are the cross products of the rows; the
    determinant expands the first row along the adjugate's first column, and
    the leading 2x2 minor is the adjugate's last entry.
    """
    r0, r1, r2 = matrix
    # A product past float range is inf or NaN, which the checks reject.
    with np.errstate(over="ignore", invalid="ignore"):
        adjugate = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=1)
        det = r0[0] * adjugate[0, 0] + r0[1] * adjugate[1, 0] + r0[2] * adjugate[2, 0]
        if r0[0] <= 0.0 or adjugate[2, 2] <= 0.0 or det <= 0.0:
            raise ValidationError(f"{where}: degenerate covariance")
        inverse = adjugate / det
    if not np.all(np.isfinite(inverse)):
        raise ValidationError(f"{where}: degenerate covariance")
    return inverse


class GaussianGate(NamedTuple):
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
    with np.errstate(over="ignore", invalid="ignore"):  # `_build_gate` rejects inf and NaN
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
    with np.errstate(over="ignore"):  # an inf difference is asymmetric too
        if np.abs(covariance - covariance.T).max() > 1e-9:
            raise ValidationError(f"{where}: covariance is not symmetric")
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise ValidationError(f"{where}: ridge must be finite and >= 0, got {ridge}")
    if count <= 3:
        raise ValidationError(f"{where}: n must be > 3, got {count}")
    with np.errstate(over="ignore"):  # an inf sum fails the inverse's checks
        shifted = covariance + ridge * np.eye(3)
    precision = _invert_spd_3x3(shifted, where)
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
    with np.errstate(all="ignore"):  # overflow gives inf (far away) or NaN (rejected)
        delta = arr - gate.mean
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
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below as not finite
        threshold = float(scores.mean() + k * scores.std())
    if not math.isfinite(threshold):
        raise ValidationError(f"spikiness threshold overflows: mean + {k:g} std is {threshold}")
    return threshold


def save_gate(path, gate: GaussianGate) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("mean = " + " ".join(f"{v:.17g}" for v in gate.mean) + "\n")
        handle.write("cov = " + " ".join(f"{v:.17g}" for v in gate.covariance.ravel()) + "\n")
        handle.write(f"ridge = {gate.ridge:.17g}\n")
        handle.write(f"n = {gate.sample_count}\n")


def load_gate(path) -> GaussianGate:
    """Read a gate model file and rebuild the cached precision matrix."""
    lengths = {"mean": 3, "cov": 9, "ridge": 1, "n": 1}
    entries = {}
    for lineno, key, value in read_key_values(path):
        if key not in lengths:
            raise ValidationError(f"{path}:{lineno}: unknown gate key {key!r}")
        entries[key] = value.split()
    for key, length in lengths.items():
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
