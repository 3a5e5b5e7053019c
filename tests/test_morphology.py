import ast
import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wbcrescue import morphology, noise
from wbcrescue.core import ValidationError
from wbcrescue.ingest import CellSample
from wbcrescue.morphology import (
    _best_threshold_split,
    _bit_quads,
    _hull,
    _invert_spd_3x3,
    LUMA_WEIGHTS,
    Contour,
    GaussianGate,
    MorphVector,
    calibrate_spikiness_threshold,
    fit_gaussian_gate,
    kmeans2_luminance,
    largest_foreground_component,
    load_gate,
    luminance,
    mahalanobis,
    morph_vector,
    polygon_perimeter,
    read_features_csv,
    save_gate,
    spikiness,
    trace_contour,
    write_features_csv,
)

import reference
from reference import distinct_points, split_masks
from synth import cell_sample, disc_mask, eccentric_cell, gray_sample, star_mask


def _rect_mask(height, width, shape=(12, 12), offset=(1, 1)):
    mask = np.zeros(shape, dtype=bool)
    mask[offset[0] : offset[0] + height, offset[1] : offset[1] + width] = True
    return mask


# ------------------------------------------------------------- contour


def test_single_pixel_contour_is_degenerate():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    contour = trace_contour(mask)
    assert isinstance(contour, Contour)
    assert (contour.axial, contour.diagonal) == (0, 0)
    assert contour.top.dtype == contour.bottom.dtype == np.int64
    assert (contour.left, contour.top.tolist(), contour.bottom.tolist()) == (1, [1], [1])
    assert spikiness(contour) == 0.0
    assert reference.trace_contour(mask).tolist() == [[1, 1]]


def test_solid_3x3_square_ring():
    mask = _rect_mask(3, 3, shape=(5, 5), offset=(0, 0))
    assert reference.trace_contour(mask).tolist() == [
        [0, 0], [1, 0], [2, 0], [2, 1], [2, 2], [1, 2], [0, 2], [0, 1],
    ]
    contour = trace_contour(mask)
    assert (contour.axial, contour.diagonal) == (8, 0)
    assert (contour.left, contour.top.tolist(), contour.bottom.tolist()) == (0, [0] * 3, [2] * 3)


def test_contour_follows_largest_component():
    mask = np.zeros((12, 12), dtype=bool)
    mask[1:3, 1:4] = True          # 6 pixels
    mask[5:10, 5:9] = True         # 20 pixels
    contour = trace_contour(mask)
    assert (contour.left, len(contour.top)) == (5, 4)
    assert contour.top.tolist() == [5] * 4 and contour.bottom.tolist() == [9] * 4
    assert (contour.axial, contour.diagonal) == (14, 0)


def test_largest_component_tie_breaks_by_scan_order():
    mask = np.zeros((5, 9), dtype=bool)
    mask[0, 0:2] = True
    mask[4, 7:9] = True
    component = largest_foreground_component(mask)
    assert component[0, 0] and not component[4, 7]


def test_empty_mask_is_an_error():
    with pytest.raises(ValidationError, match="empty mask"):
        trace_contour(np.zeros((4, 4), dtype=bool))


def test_mask_must_be_2d():
    with pytest.raises(ValidationError, match="mask must be a 2-D array"):
        largest_foreground_component(np.ones((2, 2, 2), dtype=bool))


def _flood_labels(mask, diagonal=True):
    """Pixel-by-pixel flood fill, 8-connected or, without `diagonal`,
    4-connected: each pixel's component label, numbered from 1 in row-major
    order of the components' first pixels, and the component sizes, with a
    0 first for the label of background."""
    mask = np.asarray(mask, dtype=bool)
    height, width = mask.shape
    steps = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if diagonal or not dy or not dx]
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
            for dy, dx in steps:
                ny, nx = cy + dy, cx + dx
                if 0 <= ny < height and 0 <= nx < width and mask[ny, nx] and not labels[ny, nx]:
                    labels[ny, nx] = label
                    stack.append((ny, nx))
        sizes.append(count)
    return labels, sizes


def _flood_fill_reference(mask):
    """The largest 8-connected component by flood fill, the first in
    row-major order on a tie: the oracle for the run-based labelling."""
    labels, sizes = _flood_labels(mask)
    return labels == int(np.argmax(sizes))


@st.composite
def _random_masks(draw):
    """Non-empty boolean masks of 1x1 to 40x40 at any density, with single
    rows and single columns drawn as often as the rest."""
    side = st.integers(1, 40)
    height, width = draw(
        st.one_of(
            st.tuples(st.just(1), side), st.tuples(side, st.just(1)), st.tuples(side, side)
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((height, width)) < draw(st.floats(0.0, 1.0))
    mask.flat[rng.integers(mask.size)] = True
    return mask


@given(_random_masks())
@settings(max_examples=300, deadline=None)
def test_labelling_matches_flood_fill(mask):
    assert np.array_equal(largest_foreground_component(mask), _flood_fill_reference(mask))


def _u_beside_inner_blob():
    """A U whose arms enclose the top of an equal-sized blob: the blob's
    first run lies between the U's two first runs, which only merge at the
    bottom row, and the tie goes to the U."""
    mask = np.zeros((12, 11), dtype=bool)
    mask[0:11, 0] = mask[0:11, 10] = True
    mask[11, :] = True
    expected = mask.copy()
    mask[0:4, 2:9] = True
    mask[4, 2:7] = True
    assert expected.sum() == (mask & ~expected).sum() == 33
    return mask, expected


def _plus_touching_all_borders():
    mask = np.zeros((9, 9), dtype=bool)
    mask[4, :] = mask[:, 4] = True
    expected = mask.copy()
    mask[0, 0] = mask[8, 8] = True
    return mask, expected


def _checkerboard():
    yy, xx = np.mgrid[:7, :10]
    mask = (yy + xx) % 2 == 1  # connected only through diagonals
    return mask, mask.copy()


def _labelling_2d_reference(mask):
    """Run-based labelling with runs found by two 2-D `np.nonzero` passes
    and scattered back even when one component is the whole mask: the
    oracle for the labelling from flat run indices."""
    mask = np.asarray(mask, dtype=bool)
    height = mask.shape[0]
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]
    lengths = ends - starts
    row_first = np.searchsorted(rows, np.arange(height + 1)).tolist()
    s, e = starts.tolist(), ends.tolist()
    parent = list(range(len(s)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for y in range(1, height):
        i, i_stop = row_first[y - 1], row_first[y]
        j, j_stop = i_stop, row_first[y + 1]
        while i < i_stop and j < j_stop:
            if s[j] <= e[i] and s[i] <= e[j]:
                a, b = find(i), find(j)
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
            if e[i] <= e[j]:
                i += 1
            else:
                j += 1
    roots = np.array([find(k) for k in range(len(s))])
    sizes = np.bincount(roots, weights=lengths)
    keep = roots == int(np.argmax(sizes))
    component = np.zeros_like(mask)
    component[mask] = np.repeat(keep, lengths)
    return component


@given(_random_masks())
@settings(max_examples=300, deadline=None)
def test_labelling_matches_2d_run_reference(mask):
    component = largest_foreground_component(mask)
    assert component.dtype == bool
    assert np.array_equal(component, _labelling_2d_reference(mask))


def _runs_in_last_column():
    """A triangle of runs that each end in the last column, beside a
    larger block that wins."""
    mask = np.zeros((6, 9), dtype=bool)
    mask[0, 8] = mask[1, 7:] = mask[2, 6:] = True
    mask[4:6, 0:6] = True
    expected = np.zeros_like(mask)
    expected[4:6, 0:6] = True
    return mask, expected


def _single_row():
    mask = np.array([[1, 1, 0, 1, 1, 1, 0, 0, 1]], dtype=bool)
    expected = np.array([[0, 0, 0, 1, 1, 1, 0, 0, 0]], dtype=bool)
    return mask, expected


def _single_column():
    mask, expected = _single_row()
    return mask.T.copy(), expected.T.copy()


def _all_true():
    mask = np.ones((5, 7), dtype=bool)
    return mask, mask.copy()


@pytest.mark.parametrize(
    "case",
    [
        _u_beside_inner_blob, _plus_touching_all_borders, _checkerboard,
        _runs_in_last_column, _single_row, _single_column, _all_true,
    ],
)
def test_labelling_explicit_cases(case):
    mask, expected = case()
    assert np.array_equal(largest_foreground_component(mask), expected)
    assert np.array_equal(_flood_fill_reference(mask), expected)
    assert np.array_equal(_labelling_2d_reference(mask), expected)


@pytest.mark.parametrize(
    "mask",
    [np.ones((5, 7), dtype=bool), np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool),
     _checkerboard()[0], disc_mask(16, 6.0)],
)
def test_one_component_result_is_a_new_array(mask):
    before = mask.copy()
    component = largest_foreground_component(mask)
    assert not np.shares_memory(component, mask)
    assert component.flags.writeable
    component[...] = False
    assert np.array_equal(mask, before)


def test_labelling_accepts_uint8_0_255_mask():
    mask, expected = _plus_touching_all_borders()
    component = largest_foreground_component(mask.astype(np.uint8) * 255)
    assert component.dtype == bool
    assert np.array_equal(component, expected)


def test_labelling_size_agrees_with_scipy():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(91)
    masks = [disc_mask(64, 20.0) | disc_mask(64, 6.0, center=(6.0, 6.0))]
    masks += [rng.random((48, 37)) < density for density in (0.2, 0.45, 0.6, 0.9)]
    for mask in masks:
        labels, _ = ndimage.label(mask, structure=np.ones((3, 3)))
        largest = np.bincount(labels.ravel())[1:].max()
        assert int(largest_foreground_component(mask).sum()) == int(largest)


def test_contour_is_closed_8_connected_cycle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        mask = rng.random((14, 14)) < 0.45
        mask[6, 6] = True
        contour = reference.trace_contour(mask)
        if len(contour) == 1:
            continue
        closed = np.vstack([contour, contour[:1]])
        steps = np.abs(np.diff(closed, axis=0))
        assert steps.max() <= 1
        assert (steps.sum(axis=1) > 0).all()


def test_thin_line_walks_out_and_back():
    mask = np.zeros((3, 6), dtype=bool)
    mask[1, 0:5] = True
    assert polygon_perimeter(reference.trace_contour(mask)) == pytest.approx(8.0)
    contour = trace_contour(mask)
    assert (contour.axial, contour.diagonal) == (8, 0)
    assert spikiness(contour) == 0.0


def _column_ends(points):
    """Each column's lowest and highest point among the points, sorted by x."""
    pts = distinct_points(points)
    edge = pts[1:, 0] != pts[:-1, 0]
    return pts[np.concatenate(([True], edge))], pts[np.concatenate((edge, [True]))]


def _contour_points(contour):
    """The contour's column tops and bottoms as (x, y) points."""
    xs = np.arange(contour.left, contour.left + len(contour.top))
    return np.concatenate((np.stack((xs, contour.top), axis=1),
                           np.stack((xs, contour.bottom), axis=1)))


def _assert_measures_the_walk(mask):
    """The counts are the walk's unit and diagonal steps, the column tops and
    bottoms are its points' column ends, and the spikiness is the reference's."""
    contour = trace_contour(mask)
    walk = reference.trace_contour(mask)
    steps = np.abs(np.diff(np.vstack([walk, walk[:1]]), axis=0)).sum(axis=1)
    assert type(contour.axial) is int and type(contour.diagonal) is int
    assert contour.axial == np.count_nonzero(steps == 1)
    assert contour.diagonal == np.count_nonzero(steps == 2)
    assert type(contour.left) is int
    assert contour.top.dtype == contour.bottom.dtype == np.int64
    assert np.array_equal(_contour_points(contour), np.concatenate(_column_ends(walk)))
    assert spikiness(contour) == reference.spikiness(walk)
    return contour


def _from_rows(*rows):
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


_WALK_CASES = {
    "start at column 0": _from_rows("....", "#...", "##..", "###."),
    "start at row 0": _from_rows("..#..", ".###.", "#####"),
    "start at the corner": _from_rows("###", "#..", "#.."),
    "1xN": np.ones((1, 6), dtype=bool),
    "Nx1": np.ones((5, 1), dtype=bool),
    "single pixel": np.ones((1, 1), dtype=bool),
    "single inner pixel": _from_rows("...", ".#.", "..."),
    "diagonal only": _from_rows("#...#", ".#.#.", "..#..", ".#.#.", "#...#"),
    "anti-diagonal": _from_rows("...#", "..#.", ".#..", "#..."),
    "spur out and back": _from_rows("......", ".##...", ".#####", ".##...", "......"),
    "spur upward": _from_rows("..#..", "..#..", ".###.", ".###."),
    "ring with a hole": _from_rows("#####", "#...#", "#...#", "#####"),
    "thin ring with a hole": _from_rows(".#.", "#.#", ".#."),
    "touching all borders": _from_rows("..#..", "..#..", "#####", "..#..", "..#.."),
    "full raster": np.ones((4, 5), dtype=bool),
    "two holes": _from_rows("#######", "#.###.#", "#######"),
    "hole holding debris": _from_rows("#######", "#.....#", "#..#..#", "#.....#", "#######"),
    "hole that leaks at a corner": _from_rows("####.", "#..#.", "####.", "....."),
    "holes under a spur": _from_rows("...#...", "#######", "#.#.#.#", "#######"),
}


@pytest.mark.parametrize("name", list(_WALK_CASES))
def test_contour_walk_explicit_cases(name):
    _assert_measures_the_walk(_WALK_CASES[name])


def test_contour_walk_explicit_points():
    walk = reference.trace_contour
    assert walk(_WALK_CASES["1xN"]).tolist() == (
        [[x, 0] for x in range(6)] + [[x, 0] for x in range(4, 0, -1)]
    )
    assert walk(_WALK_CASES["Nx1"]).tolist() == (
        [[0, y] for y in range(5)] + [[0, y] for y in range(3, 0, -1)]
    )
    assert walk(_WALK_CASES["single pixel"]).tolist() == [[0, 0]]
    assert walk(_WALK_CASES["thin ring with a hole"]).tolist() == [
        [1, 0], [2, 1], [1, 2], [0, 1],
    ]
    # The hole is filled first: a plus of five pixels, four diagonal steps.
    assert trace_contour(_WALK_CASES["thin ring with a hole"])[:2] == (0, 4)
    assert walk(_WALK_CASES["spur out and back"]).tolist() == [
        [1, 1], [2, 1], [3, 2], [4, 2], [5, 2], [4, 2], [3, 2], [2, 3], [1, 3], [1, 2],
    ]


@pytest.mark.parametrize("length", [1, 2, 7])
def test_line_counts_pin_both_sides(length):
    for mask in (np.ones((1, length), dtype=bool), np.ones((length, 1), dtype=bool)):
        contour = trace_contour(mask)
        assert (contour.axial, contour.diagonal) == (2 * (length - 1), 0)
        assert spikiness(contour) == 0.0
    assert trace_contour(np.eye(length, dtype=bool))[:2] == (0, 2 * (length - 1))


@given(_random_masks())
@settings(max_examples=300, deadline=None)
def test_contour_matches_moore_walk(mask):
    _assert_measures_the_walk(mask)
    _assert_measures_the_walk(mask[::-1, ::-1])  # a non-contiguous view


@st.composite
def _cell_masks(draw):
    """Cell-like masks: a filled rectangle, disc or star, with holes, one-pixel
    spurs, single pixels and debris blobs drawn in, or a lone pixel or line."""
    side = draw(st.integers(1, 30))
    mask = np.zeros((side + 8, side + 8), dtype=bool)
    kind = draw(st.sampled_from(["rectangle", "disc", "star"] * 2 + ["pixel", "row", "column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    middle = (side + 7) / 2.0
    if kind == "rectangle":
        mask[4 : 4 + side, 4 : 4 + draw(st.integers(1, side))] = True
    elif kind in ("disc", "star"):
        yy, xx = np.mgrid[: side + 8, : side + 8]
        angle, radius = np.arctan2(yy - middle, xx - middle), np.hypot(yy - middle, xx - middle)
        wave = draw(st.floats(0.0, 0.4)) * np.cos(draw(st.integers(3, 9)) * angle)
        mask = radius <= (side / 2.0) * (1.0 + (wave if kind == "star" else 0.0))
    elif kind == "pixel":
        mask[4, 4] = True
    else:
        line = mask[4, 4 : 4 + side] if kind == "row" else mask[4 : 4 + side, 4]
        line[:] = True
    for change in rng.choice(["hole", "hole", "spur", "pixel"], size=rng.integers(0, 6)):
        y, x = rng.integers(0, side + 8, size=2)
        if change == "hole":  # around a foreground pixel, mostly inside the shape
            inside = np.flatnonzero(mask)
            if len(inside):
                y, x = divmod(int(inside[rng.integers(len(inside))]), mask.shape[1])
            mask[y : y + rng.integers(1, 4), x : x + rng.integers(1, 4)] = False
        elif change == "spur":
            dy, dx = ((0, 1), (1, 0), (1, 1), (-1, 1))[rng.integers(4)]
            for step in range(int(rng.integers(1, 6))):
                if 0 <= y + step * dy < mask.shape[0] and 0 <= x + step * dx < mask.shape[1]:
                    mask[y + step * dy, x + step * dx] = True
        else:
            mask[y, x] = True
    if draw(st.booleans()):  # a debris blob in a corner
        mask[:2, :2] = True
    if not mask.any():
        mask[4, 4] = True
    return mask


@given(_cell_masks(), st.integers(0, 5), st.integers(0, 5), st.sampled_from(
    [(1, 1), (1, -1), (-1, 1), (-1, -1)]))
@settings(max_examples=300, deadline=None)
def test_spikiness_from_bit_quads_equals_the_walk(mask, dy, dx, mirror):
    # `_assert_measures_the_walk` requires the two scores to be equal floats.
    mask = mask[:: mirror[0], :: mirror[1]]
    shifted = np.zeros((mask.shape[0] + dy, mask.shape[1] + dx), dtype=bool)
    shifted[dy:, dx:] = mask
    for drawn in (mask, shifted):
        _assert_measures_the_walk(drawn)


def _fill_reference(component):
    """Every pixel that the 4-connected background outside the raster does
    not reach, by flood fill over the raster framed by one pixel."""
    framed = np.pad(component, 1)
    labels, _ = _flood_labels(~framed, diagonal=False)
    return (labels != labels[0, 0])[1:-1, 1:-1]


@given(_random_masks())
@settings(max_examples=200, deadline=None)
def test_holes_are_filled_and_counted_as_flood_fill_finds_them(mask):
    component = largest_foreground_component(mask)
    padded = np.pad(component, 1).astype(np.uint8)
    filled = np.pad(_fill_reference(component), 1).astype(np.uint8)
    # The sizes list a 0 for the label of foreground, then the outside.
    holes = len(_flood_labels(padded == 0, diagonal=False)[1]) - 2
    assert _bit_quads(padded)[2] == 1 - holes
    assert _bit_quads(filled)[2] == 1
    assert trace_contour(mask)[:2] == _bit_quads(filled)[:2]


# ----------------------------------------------------------- spikiness


def test_rectangles_score_exactly_zero():
    for height, width in ((2, 2), (3, 3), (5, 9), (1, 6), (7, 2)):
        assert spikiness(trace_contour(_rect_mask(height, width))) == 0.0


def test_discs_score_below_rasterization_allowance():
    for radius in (5, 6, 8, 10, 14):
        mask = disc_mask(40, radius)
        assert spikiness(trace_contour(mask)) <= 0.08


def test_star_spikiness_grows_with_amplitude():
    scores = [
        spikiness(trace_contour(star_mask(40, 8, 10.0, float(amplitude))))
        for amplitude in (1, 3, 5)
    ]
    assert scores[0] < scores[1] < scores[2]


def test_spikiness_translation_and_mirror_invariance():
    base = star_mask(40, 7, 9.0, 4.0, center=(16.0, 15.0))
    score = spikiness(trace_contour(base))
    shifted = np.zeros_like(base)
    shifted[3:, 2:] = base[:-3, :-2]
    assert spikiness(trace_contour(shifted)) == score
    assert spikiness(trace_contour(base[:, ::-1])) == score
    assert spikiness(trace_contour(base[::-1, :])) == score


def convex_hull(points):
    """Monotone-chain hull of integer points, counterclockwise, as
    `spikiness` computes it from each column's lowest and highest point."""
    return np.array(_hull(*_column_ends(points)), dtype=np.int64)


def test_convex_hull_of_square_ring():
    points = _contour_points(trace_contour(_rect_mask(4, 4, shape=(6, 6), offset=(1, 1))))
    hull = convex_hull(points)
    assert set(map(tuple, hull.tolist())) == {(1, 1), (4, 1), (4, 4), (1, 4)}


_point_sets = st.one_of(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=40),
    st.lists(st.tuples(st.just(3), st.integers(-50, 50)), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(-50, 50), st.just(-2)), min_size=1, max_size=8),
    st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12)), max_size=12),
)


@given(_point_sets)
@settings(max_examples=400, deadline=None)
def test_convex_hull_matches_full_monotone_chain(points):
    # `spikiness` builds no hull below 3 distinct points; of one point, the
    # chains would give it twice.
    points = np.array(points, dtype=np.int64).reshape(-1, 2)
    if len(distinct_points(points)) < 3:
        return
    hull = convex_hull(points)
    expected = reference.convex_hull(points)
    assert hull.dtype == np.int64 and hull.shape == expected.shape
    assert np.array_equal(hull, expected)


def test_hull_and_spikiness_match_oracle_on_stars():
    for amplitude in (0.0, 2.0, 5.0):
        mask = star_mask(48, 7, 12.0, amplitude)
        contour, walk = trace_contour(mask), reference.trace_contour(mask)
        assert np.array_equal(convex_hull(_contour_points(contour)), reference.convex_hull(walk))
        assert spikiness(contour) == reference.spikiness(walk)


@given(st.one_of(_point_sets, _random_masks().map(lambda mask: _contour_points(trace_contour(mask)))))
@settings(max_examples=300, deadline=None)
def test_hull_of_three_distinct_points_has_a_positive_perimeter(points):
    # `spikiness` divides by this perimeter without a zero check.
    if len(distinct_points(points)) >= 3:
        assert polygon_perimeter(convex_hull(points)) >= 2.0


# -------------------------------------------------------------- 2-means


def test_kmeans_worked_example():
    gray = np.array([[10, 12], [200, 210]], dtype=np.uint8)
    sample = gray_sample(gray, np.ones((2, 2), dtype=bool))
    nucleus, cytoplasm = split_masks(sample)
    values = luminance(sample.pixels)
    assert sorted(values[nucleus]) == pytest.approx([10.0, 12.0])
    assert sorted(values[cytoplasm]) == pytest.approx([200.0, 210.0])
    assert values[nucleus].mean() == pytest.approx(11.0)
    assert values[cytoplasm].mean() == pytest.approx(205.0)


def test_kmeans_two_point_case():
    gray = np.array([[0, 255]], dtype=np.uint8)
    sample = gray_sample(gray, np.ones((1, 2), dtype=bool))
    nucleus, cytoplasm = split_masks(sample)
    assert nucleus.tolist() == [[True, False]]
    assert cytoplasm.tolist() == [[False, True]]


def test_kmeans_outputs_partition_foreground():
    rng = np.random.default_rng(9)
    for _ in range(20):
        gray = rng.integers(0, 256, size=(6, 6), dtype=np.uint8)
        mask = rng.random((6, 6)) < 0.7
        mask[2, 2] = mask[3, 3] = True
        gray[2, 2], gray[3, 3] = 0, 255  # guarantee two distinct luminances
        sample = gray_sample(gray, mask)
        nucleus, cytoplasm = split_masks(sample)
        assert not (nucleus & cytoplasm).any()
        assert ((nucleus | cytoplasm) == mask).all()


def test_kmeans_rejects_flat_luminance():
    gray = np.full((3, 3), 77, dtype=np.uint8)
    with pytest.raises(ValidationError, match="degenerate luminance"):
        kmeans2_luminance(gray_sample(gray, np.ones((3, 3), dtype=bool)))


def test_kmeans_needs_two_pixels():
    gray = np.zeros((2, 2), dtype=np.uint8)
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 0] = True
    with pytest.raises(ValidationError, match="at least 2 foreground"):
        kmeans2_luminance(gray_sample(gray, mask))


def _oracle_cost(part):
    center = math.fsum(part) / len(part)
    return math.fsum((value - center) ** 2 for value in part)


def _oracle_best_wcss(values):
    """Exhaustive enumeration of threshold partitions of 1-D values."""
    ordered = sorted(values)
    best = math.inf
    for cut in sorted(set(ordered))[:-1]:
        left = [v for v in ordered if v <= cut]
        right = [v for v in ordered if v > cut]
        best = min(best, _oracle_cost(left) + _oracle_cost(right))
    return best


def _returned_wcss(sample, nucleus, cytoplasm):
    values = luminance(sample.pixels)
    return _oracle_cost(list(values[nucleus])) + _oracle_cost(list(values[cytoplasm]))


def test_kmeans_matches_threshold_oracle_on_small_inputs():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        gray = np.zeros((3, 4), dtype=np.uint8)
        mask = np.zeros((3, 4), dtype=bool)
        cells = rng.choice(12, size=n, replace=False)
        values = rng.integers(0, 256, size=n)
        if len(set(values.tolist())) < 2:
            values[0] = (values[0] + 91) % 256
        for cell, value in zip(cells, values):
            mask[cell // 4, cell % 4] = True
            gray[cell // 4, cell % 4] = value
        if len(set(values.tolist())) < 2:
            continue
        sample = gray_sample(gray, mask)
        nucleus, cytoplasm = split_masks(sample)
        got = _returned_wcss(sample, nucleus, cytoplasm)
        want = _oracle_best_wcss(list(luminance(sample.pixels)[mask]))
        assert got == want


def test_kmeans_escapes_locally_stable_split():
    # Plain Lloyd iteration from extreme centroids stalls on the balanced
    # split of {0, 10, 11, 21}; optimum isolates the far endpoint.
    gray = np.array([[0, 10], [11, 21]], dtype=np.uint8)
    sample = gray_sample(gray, np.ones((2, 2), dtype=bool))
    nucleus, cytoplasm = split_masks(sample)
    got = _returned_wcss(sample, nucleus, cytoplasm)
    want = _oracle_best_wcss(list(luminance(sample.pixels)[sample.mask]))
    assert got == want
    assert int(nucleus.sum()) == 3


def test_kmeans_tie_goes_to_lower_threshold():
    # {0} | {1, 1, 2} and {0, 1, 1} | {2} both cost exactly 2/3.
    gray = np.array([[0, 1, 1, 2]], dtype=np.uint8)
    nucleus, cytoplasm = split_masks(gray_sample(gray, np.ones((1, 4), dtype=bool)))
    assert nucleus.tolist() == [[True, False, False, False]]
    assert cytoplasm.tolist() == [[False, True, True, True]]


def test_kmeans_splits_two_levels_whose_squares_overflow():
    # Every prefix-sum cost is NaN here; the lone threshold is still taken.
    pixels = np.zeros((1, 100, 3))
    pixels[0, :50] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        nucleus, _ = split_masks(CellSample("cell", pixels, np.ones((1, 100), dtype=bool)))
    assert nucleus[0].tolist() == [False] * 50 + [True] * 50


def _oracle_best_split(values):
    """Exhaustive fsum costing of every threshold: the number of values at
    or below the least-cost one, the lowest threshold winning a tie."""
    ordered = sorted(values)
    costs = []
    for cut in sorted(set(ordered))[:-1]:
        split = sum(value <= cut for value in ordered)
        costs.append((_oracle_cost(ordered[:split]) + _oracle_cost(ordered[split:]), split))
    return min(costs)[1]


def _equally_spaced_rgb(base, step, counts):
    """A 1-row cell of RGB levels base + k * step, counts[k] pixels each."""
    pixels = np.repeat(base + np.arange(len(counts))[:, None] * step, counts, axis=0)
    return CellSample("cell", pixels.astype(np.uint8)[None], np.ones((1, len(pixels)), dtype=bool))


@st.composite
def _large_cells(draw):
    """Cells past 64 px: equally spaced RGB or few gray levels (65-2000 px;
    an odd number of equal RGB counts ties), two textured base colors
    (65-400 px, so the exhaustive oracle stays fast), many dark pixels with
    1-3 bright ones, where `total - left` cancels (65-2000 px), or 2-8 signed
    float gray levels whose magnitudes span up to 66 decades (65-2000 px),
    where sum|x| is not the total."""
    kind = draw(st.sampled_from(["rgb", "gray", "textured", "bright", "float"]))
    n = draw(st.integers(65, 400 if kind == "textured" else 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "float":
        count = draw(st.integers(2, 8))
        exponents = rng.uniform(-6, -6 + draw(st.sampled_from([1e-9, 0.01, 1, 6, 66])), count)
        levels = rng.choice([-1.0, 1.0], count) * 10.0**exponents
        gray = rng.choice(levels, size=n)
        gray[:2] = levels[:2]
        if len(set(gray.tolist())) < 2:
            gray[0] = -gray[1]
        pixels = np.repeat(gray[:, None], 3, axis=1)
        return CellSample("cell", pixels.reshape(1, n, 3), np.ones((1, n), dtype=bool))
    if kind == "rgb":
        levels = int(rng.choice([2, 3, 3, 4, 5, 5]))
        step = rng.integers(1, 256 // levels, size=3)
        base = rng.integers(0, 256 - (levels - 1) * step)
        if rng.random() < 0.75:
            counts = [max(n // levels, 65 // levels + 1)] * levels
        else:
            counts = rng.multinomial(n - levels, np.full(levels, 1 / levels)) + 1
        return _equally_spaced_rgb(base, step, counts)
    if kind == "gray":
        if draw(st.booleans()):
            levels = np.arange(draw(st.integers(2, 5))) * draw(st.integers(1, 60))
        else:
            levels = rng.choice(256, size=draw(st.integers(2, 6)), replace=False)
        gray = rng.choice(levels, size=n)
        gray[:2] = levels[:2]
        pixels = np.repeat(gray[:, None], 3, axis=1)
    elif kind == "textured":
        bases = rng.integers(0, 256, size=(2, 3))
        texture = rng.integers(-20, 21, size=(n, 3))
        pixels = np.clip(bases[rng.integers(0, 2, size=n)] + texture, 0, 255)
        pixels[0], pixels[1] = 0, 255
    else:
        dark = rng.integers(0, 256, size=(draw(st.integers(1, 4)), 3)) // 8
        pixels = dark[rng.integers(0, len(dark), size=n)]
        bright = draw(st.integers(1, 3))
        pixels[:bright] = rng.integers(200, 256, size=(bright, 3))
    return CellSample("cell", pixels.astype(np.uint8).reshape(1, n, 3), np.ones((1, n), dtype=bool))


@given(_large_cells())
@settings(max_examples=300, deadline=None)
def test_kmeans_large_inputs_reach_the_optimum(sample):
    nucleus, _ = split_masks(sample)
    assert int(nucleus.sum()) == _oracle_best_split(list(luminance(sample.pixels)[sample.mask]))


@pytest.mark.parametrize("count", [21, 109, 333])
def test_three_level_tie_takes_the_lower_threshold_at_every_size(count):
    # Both thresholds cost the same under fsum (exactly, at 109 px a level);
    # prefix sums alone took the upper one from 327 px on, for nc_ratio 2.0.
    sample = _equally_spaced_rgb(np.array([164, 26, 159]), np.array([4, 13, 22]), [count] * 3)
    assert morph_vector(sample).nc_ratio == 0.5


def _luminance_via_float64_copy(pixels):
    """The reference formula: weight a float64 copy of the channels."""
    arr = np.asarray(pixels, dtype=np.float64)
    red, green, blue = LUMA_WEIGHTS
    return arr[..., 0] * red + arr[..., 1] * green + arr[..., 2] * blue


_PIXEL_ELEMENTS = {
    np.dtype(np.bool_): st.booleans(),
    np.dtype(np.uint8): None,
    np.dtype(np.uint16): None,
    np.dtype(np.int16): None,
    np.dtype(np.int64): st.integers(-(2**62), 2**62) | st.sampled_from([-(2**62), 2**62]),
    np.dtype(np.float16): st.floats(width=16, allow_nan=False, allow_infinity=False),
    np.dtype(np.float32): st.floats(width=32, allow_nan=False, allow_infinity=False),
    np.dtype(np.float64): st.floats(-1e300, 1e300),
}


@st.composite
def _pixel_arrays(draw):
    dtype = draw(st.sampled_from(list(_PIXEL_ELEMENTS)))
    leading = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=6))
    pixels = draw(hnp.arrays(dtype, (*leading, 3), elements=_PIXEL_ELEMENTS[dtype]))
    return pixels.tolist() if draw(st.booleans()) else pixels


@given(_pixel_arrays())
@settings(max_examples=300, deadline=None)
def test_luminance_matches_the_float64_copy_formula_for_every_dtype(pixels):
    want = _luminance_via_float64_copy(pixels)
    got = luminance(pixels)
    assert got.dtype == np.float64 == want.dtype
    assert np.array_equal(got, want)


def test_threshold_is_globally_optimal_among_all_partitions():
    # The threshold restriction of the oracle is sound: on tiny inputs the
    # best threshold split matches the best among all 2-partitions.
    rng = np.random.default_rng(3)
    for _ in range(30):
        values = [float(v) for v in rng.integers(0, 50, size=6)]
        if len(set(values)) < 2:
            continue
        best_any = math.inf
        for code in range(1, 2**6 - 1):
            left = [values[i] for i in range(6) if code >> i & 1]
            right = [values[i] for i in range(6) if not code >> i & 1]
            best_any = min(best_any, _oracle_cost(left) + _oracle_cost(right))
        assert _oracle_best_wcss(values) == pytest.approx(best_any, abs=1e-9)


# --------------------------------------------------------- morph vector


def test_morph_vector_concentric_geometry():
    size = 28
    cell_radius = math.sqrt(300 / math.pi)
    nucleus_radius = math.sqrt(100 / math.pi)
    sample = cell_sample(
        disc_mask(size, cell_radius), disc_mask(size, nucleus_radius),
        nucleus_gray=50, cytoplasm_gray=210,
    )
    vector = morph_vector(sample)
    assert vector.nc_ratio == pytest.approx(0.5, abs=0.05)
    assert vector.centroid_offset == pytest.approx(0.0, abs=0.05)


def test_morph_vector_offset_half_radius():
    size = 32
    center = ((size - 1) / 2.0, (size - 1) / 2.0)
    mask = disc_mask(size, 12.0, center)
    nucleus = disc_mask(size, 5.0, (center[0] + 6.0, center[1]))
    vector = morph_vector(cell_sample(mask, nucleus))
    assert vector.centroid_offset == pytest.approx(0.5, abs=0.05)


def test_morph_vector_staining_endpoint():
    sample = cell_sample(
        disc_mask(16, 6.0), disc_mask(16, 3.0), nucleus_gray=0, cytoplasm_gray=255
    )
    assert morph_vector(sample).staining == pytest.approx(1.0, abs=1e-12)


def test_morph_vector_is_resolution_stable():
    sample = eccentric_cell(nucleus_shift=3.0)
    upsampled = CellSample(
        "cell2x",
        np.repeat(np.repeat(sample.pixels, 2, axis=0), 2, axis=1),
        np.repeat(np.repeat(sample.mask, 2, axis=0), 2, axis=1),
    )
    small = morph_vector(sample)
    big = morph_vector(upsampled)
    assert abs(small.nc_ratio - big.nc_ratio) < 0.02
    assert abs(small.centroid_offset - big.centroid_offset) < 0.02


def _kmeans_reference(sample):
    """Luminance of the whole image and 2-D boolean selection: the oracle for
    the gather over flat foreground indices."""
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


def _morph_vector_reference(sample):
    nucleus_mask, cytoplasm_mask = _kmeans_reference(sample)
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
    equivalent_radius = math.sqrt(len(xs) / math.pi)
    delta = nucleus_centroid - cell_centroid
    offset = float(np.hypot(delta[0], delta[1])) / equivalent_radius
    return MorphVector(area_nucleus / area_cytoplasm, staining, offset)


def _outcome(fn, sample):
    try:
        return fn(sample)
    except ValidationError as exc:
        return str(exc)


@st.composite
def _textured_cells(draw):
    """Random masks (1xN, Nx1, touching the borders) under RGB cells of two
    base colors with per-channel texture, or of one flat color."""
    mask = draw(_random_masks())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = rng.integers(0, 256, size=(2, 3))
    texture = rng.integers(-20, 21, size=(*mask.shape, 3)) * draw(st.sampled_from([0, 1]))
    pixels = np.clip(bases[rng.integers(0, 2, size=mask.shape)] + texture, 0, 255)
    return CellSample("cell", pixels.astype(np.uint8), mask)


@given(_textured_cells())
@settings(max_examples=300, deadline=None)
def test_morph_vector_matches_full_image_reference(sample):
    masks = _outcome(split_masks, sample)
    expected = _outcome(_kmeans_reference, sample)
    if isinstance(expected, str):
        assert masks == expected
    else:
        assert all(np.array_equal(a, b) for a, b in zip(masks, expected))
    assert _outcome(morph_vector, sample) == _outcome(_morph_vector_reference, sample)


def _morph_vector_from_masks_reference(sample):
    """The shape vector read back from `split_masks`'s two masks, each
    term gathered by its own flat-index pass: the oracle for the vector taken
    from one shared foreground split."""
    nucleus_mask, cytoplasm_mask = split_masks(sample)
    nucleus = np.flatnonzero(nucleus_mask)
    cytoplasm = np.flatnonzero(cytoplasm_mask)
    area_nucleus = len(nucleus)
    area_cytoplasm = len(cytoplasm)
    if area_nucleus == 0 or area_cytoplasm == 0:
        raise ValidationError(f"{sample.image_id}: degenerate segmentation")
    gathered = np.asarray(sample.pixels).reshape(-1, 3).take(cytoplasm, axis=0)
    staining = float(luminance(gathered).mean()) / 255.0
    width = nucleus_mask.shape[1]
    ys, xs = np.divmod(np.flatnonzero(sample.mask), width)
    cell_centroid = np.array([xs.mean(), ys.mean()])
    nys, nxs = np.divmod(nucleus, width)
    nucleus_centroid = np.array([nxs.mean(), nys.mean()])
    equivalent_radius = math.sqrt(len(xs) / math.pi)
    delta = nucleus_centroid - cell_centroid
    offset = float(np.hypot(delta[0], delta[1])) / equivalent_radius
    return MorphVector(area_nucleus / area_cytoplasm, staining, offset)


def _bits_or_message(fn, sample):
    outcome = _outcome(fn, sample)
    return outcome if isinstance(outcome, str) else np.array(outcome, dtype=np.float64).tobytes()


def _rgb_cell(rgb, mask, image_id="cell"):
    rgb = np.asarray(rgb, dtype=np.uint8)
    return CellSample(image_id, np.broadcast_to(rgb, (*mask.shape, 3)).copy(), mask)


def _one_dark_pixel():
    mask = disc_mask(9, 3.5)
    sample = _rgb_cell([200, 180, 190], mask)
    sample.pixels[4, 4] = 20
    return sample


def _equal_luminance_colours():
    # (0, 31, 0) and (1, 0, 157) differ, but their Rec.601 luminances are
    # the same float64: one luminance cluster.
    mask = np.ones((3, 4), dtype=bool)
    sample = _rgb_cell([0, 31, 0], mask)
    sample.pixels[1:, 2:] = [1, 0, 157]
    return sample


def _column_major_cell():
    sample = eccentric_cell(nucleus_shift=2.0)
    return CellSample(
        "cell", np.asfortranarray(sample.pixels), np.asfortranarray(sample.mask)
    )


@given(_textured_cells())
@settings(max_examples=300, deadline=None)
@example(_rgb_cell([90, 90, 90], np.zeros((4, 5), dtype=bool)))  # empty mask
@example(_rgb_cell([90, 90, 90], np.eye(1, 6, 3, dtype=bool)))  # one pixel
@example(_rgb_cell([90, 90, 90], disc_mask(8, 3.0)))  # flat luminance
@example(_equal_luminance_colours())
@example(_one_dark_pixel())
@example(_column_major_cell())
def test_morph_vector_matches_mask_reference(sample):
    got = _bits_or_message(morph_vector, sample)
    assert got == _bits_or_message(_morph_vector_from_masks_reference, sample)
    if not isinstance(got, str):
        nucleus, cytoplasm = split_masks(sample)
        nc_ratio = int(nucleus.sum()) / int(cytoplasm.sum())
        assert morph_vector(sample).nc_ratio == nc_ratio


@given(st.one_of(_textured_cells(), _large_cells()))
@settings(max_examples=300, deadline=None)
def test_split_leaves_both_clusters_non_empty(sample):
    # `morph_vector` divides by both cluster sizes without a zero check.
    try:
        _, _, dark = kmeans2_luminance(sample)
    except ValidationError:  # an empty mask or a flat luminance
        return
    assert dark.any() and not dark.all()


@st.composite
def _edge_shaped_cells(draw):
    """Textured cells on 1xN, Nx1, Fortran-ordered and 65536-wide masks, the
    shapes where row and column sums are degenerate or the flat indices
    dwarf the columns."""
    kind = draw(st.sampled_from(["row", "column", "fortran", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 400))
    shape = {"row": (1, n), "column": (n, 1), "fortran": (n // 20 + 2, 23), "wide": (3, 65536)}[kind]
    density = draw(st.sampled_from([0.002, 0.3, 1.0])) / (100 if kind == "wide" else 1)
    mask = rng.random(shape) < density
    mask.flat[rng.choice(mask.size, 2, replace=False)] = True
    pixels = rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8)
    if kind == "fortran":
        return CellSample("cell", np.asfortranarray(pixels), np.asfortranarray(mask))
    return CellSample("cell", pixels, mask)


@given(_edge_shaped_cells())
@settings(max_examples=60, deadline=None)
def test_morph_vector_matches_mask_reference_on_edge_shapes(sample):
    assert _bits_or_message(morph_vector, sample) == _bits_or_message(
        _morph_vector_from_masks_reference, sample
    )


def _near_tie_cell(k, window_share):
    """k values each of -1, 0 and 1 + eps, with eps a multiple of 2**-52 set
    so that in exact arithmetic the upper split outscores the lower one by
    about `window_share` of the window stated in `_best_threshold_split`,
    20*n*(n + 2)*u*sum|x|*max|x|, the score of i values summing to L being
    (n*L - i*T)**2 / (i*(n - i)). Returns the values and the exact share."""
    n = 3 * k

    def values_and_share(top):
        values = [-1.0] * k + [0.0] * k + [top] * k
        exact = [Fraction(v) for v in values]
        total = sum(exact)
        lower, upper = (
            (n * sum(exact[:i]) - i * total) ** 2 / (i * (n - i)) for i in (k, 2 * k)
        )
        window = 20 * n * (n + 2) * Fraction(1, 2**53) * sum(map(abs, exact)) * Fraction(top)
        return np.array(values), (upper - lower) / window

    eps = 2.0**-40
    _, share = values_and_share(1.0 + eps)
    return values_and_share(1.0 + round(window_share / share * eps * 2**52) * 2.0**-52)


@pytest.mark.parametrize("k", [30, 333])
def test_split_recosts_every_candidate_within_the_window(k, monkeypatch):
    # The upper split is better, but by less than the window: both must be
    # costed again with fsum. Far outside the window neither is.
    exact = morphology._split_cost_exact
    recosted = []

    def spy(values, split):
        recosted.append(split)
        return exact(values, split)

    monkeypatch.setattr(morphology, "_split_cost_exact", spy)
    values, share = _near_tie_cell(k, 0.7)
    assert 0.6 < share < 0.8
    assert _best_threshold_split(values) == 2 * k
    assert sorted(recosted) == [k, 2 * k]
    recosted.clear()
    values, share = _near_tie_cell(k, 1e6)
    assert share > 1e5
    assert _best_threshold_split(values) == 2 * k
    assert recosted == []


def test_per_pixel_code_makes_no_blas_call():
    # OpenBLAS runs a product over per-pixel arrays on its own threads, which
    # then compete with the --threads workers; only the 3-vector products of
    # the gate may use it. Equal bits cannot show such a call, so read the code.
    blas = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}
    allowed = {"fit_gaussian_gate", "mahalanobis"}
    for module in (morphology, noise):
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, ast.FunctionDef) and node.name not in allowed:
                for inner in ast.walk(node):
                    assert not isinstance(inner, ast.MatMult), node.name
                    if isinstance(inner, ast.Call):
                        callee = inner.func
                        name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                        assert name not in blas, node.name


def test_morph_vector_messages_name_the_cell():
    cases = [
        (_rgb_cell([90, 90, 90], np.zeros((4, 5), dtype=bool), "a"), "a: empty mask"),
        (_rgb_cell([90, 90, 90], np.eye(1, 6, 3, dtype=bool), "b"),
         "b: need at least 2 foreground pixels to cluster"),
        (_rgb_cell([90, 90, 90], disc_mask(8, 3.0), "c"), "c: degenerate luminance distribution"),
    ]
    for sample, message in cases:
        for fn in (morph_vector, kmeans2_luminance):
            with pytest.raises(ValidationError) as info:
                fn(sample)
            assert str(info.value) == message
    equal = _equal_luminance_colours()
    assert _outcome(morph_vector, equal) == "cell: degenerate luminance distribution"


def test_morph_vector_matches_reference_on_large_textured_cells():
    rng = np.random.default_rng(12)
    for shift in (0.0, 2.5, 5.0):
        sample = eccentric_cell(nucleus_shift=shift)
        texture = rng.integers(-15, 16, size=sample.pixels.shape)
        pixels = np.clip(sample.pixels.astype(int) + texture, 0, 255).astype(np.uint8)
        textured = CellSample("cell", pixels, sample.mask)
        assert morph_vector(textured) == _morph_vector_reference(textured)


# ------------------------------------------------------- gaussian gate


def _jittered_ones(n=10, scale=1e-3, seed=2):
    rng = np.random.default_rng(seed)
    return np.ones((n, 3)) + rng.normal(0, scale, size=(n, 3))


def test_fit_matches_textbook_estimators():
    data = _jittered_ones()
    gate = fit_gaussian_gate(data)
    n = len(data)
    mean = [math.fsum(data[:, j]) / n for j in range(3)]
    assert np.allclose(gate.mean, mean, atol=1e-12)
    for i in range(3):
        for j in range(3):
            expected = (
                math.fsum((data[r, i] - mean[i]) * (data[r, j] - mean[j]) for r in range(n))
                / (n - 1)
            )
            assert gate.covariance[i, j] == pytest.approx(expected, abs=1e-15)
    assert np.allclose(gate.mean, [1.0, 1.0, 1.0], atol=1e-2)


def test_fit_on_whitened_draws_gives_identity_precision():
    rng = np.random.default_rng(17)
    draws = rng.normal(size=(10_000, 3))
    draws -= draws.mean(axis=0)
    transform = np.linalg.inv(np.linalg.cholesky(np.cov(draws.T, bias=False)))
    whitened = draws @ transform.T
    gate = fit_gaussian_gate(whitened, ridge_scale=1e-6)
    assert np.abs(gate.precision - np.eye(3)).max() < 1e-3


def test_fit_requires_four_samples():
    with pytest.raises(ValidationError, match="insufficient calibration samples"):
        fit_gaussian_gate(np.ones((3, 3)))


def test_fit_rejects_non_finite():
    data = _jittered_ones()
    data[0, 0] = math.nan
    with pytest.raises(ValidationError, match="non-finite"):
        fit_gaussian_gate(data)


def test_fit_rejects_singular_without_ridge():
    data = np.tile([1.0, 2.0, 3.0], (8, 1))
    with pytest.raises(ValidationError, match="degenerate covariance"):
        fit_gaussian_gate(data, ridge_scale=0.0)


def test_fit_is_permutation_invariant():
    data = _jittered_ones(n=40)
    rng = np.random.default_rng(0)
    shuffled = data[rng.permutation(len(data))]
    a = fit_gaussian_gate(data)
    b = fit_gaussian_gate(shuffled)
    assert np.abs(a.mean - b.mean).max() < 1e-12
    assert np.abs(a.covariance - b.covariance).max() < 1e-12


def test_precision_inverts_ridged_covariance():
    data = np.random.default_rng(8).normal(size=(50, 3))
    gate = fit_gaussian_gate(data)
    product = gate.precision @ (gate.covariance + gate.ridge * np.eye(3))
    assert np.abs(product - np.eye(3)).max() < 1e-6


def _det3_reference(m):
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _invert_spd_3x3_reference(matrix, where):
    """The nine cofactors written out: the oracle for the adjugate built from
    cross products of the rows."""
    minor1 = float(matrix[0, 0])
    minor2 = float(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    minor3 = _det3_reference(matrix)
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


@st.composite
def _symmetric_matrices(draw):
    """Symmetric 3x3 matrices: F F^T for a random factor F (positive
    definite, or singular when a row of F repeats another), or F + F^T
    (often indefinite). F's entries are scaled by powers of ten from 1e-150
    to 1e150 around a common exponent, so that the adjugate's products
    underflow, overflow or lose the minors to rounding."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponent = draw(st.one_of(st.integers(-40, 40), st.integers(-150, 150)))
    spread = draw(st.integers(0, 12))
    offsets = rng.integers(-spread, spread + 1, size=(3, 3))
    scales = 10.0 ** np.clip(exponent + offsets, -150, 150)
    factor = rng.normal(size=(3, 3)) * scales
    kind = draw(st.sampled_from(["definite", "definite", "singular", "indefinite"]))
    if kind == "singular":
        factor[2] = factor[rng.integers(2)]
    matrix = factor + factor.T if kind == "indefinite" else factor @ factor.T
    return (matrix + matrix.T) / 2.0


def _inverse_outcome(invert, matrix):
    with np.errstate(all="ignore"):
        try:
            return invert(matrix, "cov").tobytes()
        except ValidationError as exc:
            return str(exc)


@given(_symmetric_matrices())
@settings(max_examples=500, deadline=None)
@example(np.diag([1e10, 1e-310, 1.0]))  # the inverse overflows
@example(np.diag([1e-310, 1e-310, 1e-310]))  # the minors underflow to 0
@example(np.diag([1e200, 1e200, 1e200]))  # the minors overflow to inf
@example(np.diag([1.0, -1.0, -1.0]))  # det > 0, but the leading 2x2 minor is not
@example(np.zeros((3, 3)))
@example(np.ones((3, 3)))
@example(np.eye(3))
def test_gate_inverse_matches_cofactor_reference(matrix):
    assert _inverse_outcome(_invert_spd_3x3, matrix) == _inverse_outcome(
        _invert_spd_3x3_reference, matrix
    )


def test_mahalanobis_at_mean_is_zero():
    gate = fit_gaussian_gate(_jittered_ones())
    assert mahalanobis(gate, gate.mean) == 0.0


def test_mahalanobis_identity_covariance_is_euclidean():
    gate = GaussianGate(
        mean=np.zeros(3), covariance=np.eye(3), precision=np.eye(3),
        ridge=0.0, sample_count=10,
    )
    assert mahalanobis(gate, [3.0, 0.0, 0.0]) == pytest.approx(3.0, abs=1e-12)


def test_mahalanobis_diagonal_case():
    gate = GaussianGate(
        mean=np.zeros(3),
        covariance=np.diag([4.0, 1.0, 1.0]),
        precision=np.diag([0.25, 1.0, 1.0]),
        ridge=0.0,
        sample_count=10,
    )
    assert mahalanobis(gate, [2.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)


def test_mahalanobis_rejects_nan_distance():
    covariance = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
    gate = GaussianGate(np.zeros(3), covariance, np.linalg.inv(covariance), 0.0, 30)
    with pytest.raises(ValidationError, match="Mahalanobis distance is NaN"):
        mahalanobis(gate, [1e308, 1e308, 0.0])
    assert mahalanobis(gate, [0.0, 0.0, 2.0]) == pytest.approx(2.0)


def test_mahalanobis_of_a_difference_past_float_range_is_rejected():
    # The difference overflows to inf, and inf * 0 in the product is NaN.
    gate = GaussianGate(np.full(3, 1e308), np.eye(3), np.eye(3), 0.0, 30)
    with pytest.raises(ValidationError, match="^Mahalanobis distance is NaN"):
        mahalanobis(gate, [-1e308] * 3)


def test_mahalanobis_rejects_non_finite():
    gate = fit_gaussian_gate(_jittered_ones())
    with pytest.raises(ValidationError, match="non-finite"):
        mahalanobis(gate, [math.inf, 0.0, 0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fit_gaussian_gate(np.ones((5, 2))), "calibration features must be 3-vectors"),
        (lambda: fit_gaussian_gate(_jittered_ones(), -1.0), "ridge_scale must be >= 0, got -1.0"),
        (lambda: mahalanobis(fit_gaussian_gate(_jittered_ones()), [0.0, 0.0]),
         "morphological vector must have 3 components"),
        (lambda: calibrate_spikiness_threshold([0.1, math.nan]), "non-finite reference score"),
        # Finite features whose covariance product overflows.
        (lambda: fit_gaussian_gate(1e200 * _jittered_ones()),
         "gate fit: non-finite gate parameters"),
        # Finite scores whose threshold would be inf, tau_s's "never pass" sentinel.
        (lambda: calibrate_spikiness_threshold([1e308, 1e308]),
         "spikiness threshold overflows: mean + 2 std is inf"),
        (lambda: calibrate_spikiness_threshold([1e308, 1e308], k=0.0),
         "spikiness threshold overflows: mean + 0 std is nan"),
        (lambda: calibrate_spikiness_threshold([1e200, 2e200]),
         "spikiness threshold overflows: mean + 2 std is inf"),
        (lambda: calibrate_spikiness_threshold([0.0, 1e10], k=1e300),
         "spikiness threshold overflows: mean + 1e+300 std is inf"),
    ],
    ids=["fit-shape", "fit-ridge", "mahalanobis-shape", "calibrate-nan", "fit-overflow",
         "calibrate-mean-overflow", "calibrate-mean-overflow-k0", "calibrate-std-overflow",
         "calibrate-k-overflow"],
)
def test_gate_and_calibration_reject_bad_arguments(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


# --------------------------------------------------- threshold calibration


def test_calibration_zero_variance():
    assert calibrate_spikiness_threshold([0.1, 0.1, 0.1]) == pytest.approx(0.1)


def test_calibration_two_points():
    assert calibrate_spikiness_threshold([0.0, 1.0], k=2.0) == pytest.approx(1.5)


def test_calibration_k_zero_is_mean():
    assert calibrate_spikiness_threshold([0.2, 0.4], k=0.0) == pytest.approx(0.3)


def test_calibration_needs_two_scores():
    with pytest.raises(ValidationError):
        calibrate_spikiness_threshold([0.5])


def test_calibration_rejects_non_finite_k():
    with pytest.raises(ValidationError, match="k must be finite"):
        calibrate_spikiness_threshold([0.2, 0.4], k=math.inf)


# ----------------------------------------------------------- gate file


def test_gate_file_round_trip(tmp_path):
    gate = fit_gaussian_gate(np.random.default_rng(4).normal(size=(30, 3)))
    path = tmp_path / "pc.gate"
    save_gate(path, gate)
    loaded = load_gate(path)
    assert np.allclose(loaded.mean, gate.mean, atol=0)
    assert np.allclose(loaded.covariance, gate.covariance, atol=0)
    assert np.allclose(loaded.precision, gate.precision, atol=1e-12)
    assert loaded.sample_count == gate.sample_count


def test_gate_file_accepts_comments_and_rejects_repeated_key(tmp_path):
    gate = fit_gaussian_gate(np.random.default_rng(4).normal(size=(30, 3)))
    path = tmp_path / "pc.gate"
    save_gate(path, gate)
    text = path.read_text(encoding="utf-8")
    path.write_text("# fitted gate\n" + text.replace("\n", "  # note\n", 1), encoding="utf-8")
    assert np.array_equal(load_gate(path).mean, gate.mean)
    path.write_text(text + "mean = 0 0 0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"pc\.gate:5: 'mean' already set on line 1"):
        load_gate(path)


def test_gate_file_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "pc.gate"
    save_gate(path, fit_gaussian_gate(np.random.default_rng(4).normal(size=(30, 3))))
    text = path.read_text(encoding="utf-8")
    path.write_text(text + "bogus = 1 2 3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"pc\.gate:5: unknown gate key 'bogus'$"):
        load_gate(path)
    path.write_text(text.replace("ridge", "# ridge"), encoding="utf-8")
    with pytest.raises(ValidationError, match=r"pc\.gate: missing 'ridge' line$"):
        load_gate(path)


def test_gate_file_rejects_garbage(tmp_path):
    path = tmp_path / "pc.gate"
    for bad, message in (
        ({"mean": "1 2"}, "'mean' needs 3 values"),
        ({"mean": "0 x 0"}, "bad numeric value (could not convert string to float: 'x')"),
        ({"n": "30.5"}, "bad numeric value (invalid literal for int() with base 10: '30.5')"),
        ({"mean": "nan 0 0"}, "non-finite gate parameters"),
        ({"cov": "1 0.5 0 0 1 0 0 0 1"}, "covariance is not symmetric"),
        ({"ridge": "nan"}, "ridge must be finite and >= 0, got nan"),
        ({"ridge": "inf"}, "ridge must be finite and >= 0, got inf"),
        ({"n": "-5"}, "n must be > 3, got -5"),
        # Passes Sylvester's criterion, but the inverse overflows.
        ({"cov": "1e10 0 0 0 1e-310 0 0 0 1"}, "degenerate covariance"),
        # Finite, but the minors, the asymmetry or the ridge sum overflow.
        ({"cov": "1e200 0 0 0 1e200 0 0 0 1e200"}, "degenerate covariance"),
        ({"cov": "1 1.7e308 0 -1.7e308 1 0 0 0 1"}, "covariance is not symmetric"),
        ({"cov": "1.7e308 0 0 0 1 0 0 0 1", "ridge": "1.7e308"}, "degenerate covariance"),
    ):
        entries = {"mean": "0 0 0", "cov": "1 0 0 0 1 0 0 0 1", "ridge": "0", "n": "30", **bad}
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"pc\.gate: {re.escape(message)}"):
            load_gate(path)


def test_features_csv_round_trip(tmp_path):
    rows = [
        ("a", MorphVector(0.5, 0.6, 0.1), 0.02),
        ("b", MorphVector(1.25, 0.3, 0.41), 0.33),
    ]
    path = tmp_path / "features.csv"
    write_features_csv(path, rows)
    loaded = read_features_csv(path)
    assert [image_id for image_id, _, _ in loaded] == ["a", "b"]
    assert loaded[0][1].nc_ratio == pytest.approx(0.5, abs=1e-9)
    assert loaded[1][2] == pytest.approx(0.33, abs=1e-9)
