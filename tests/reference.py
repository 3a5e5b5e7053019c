"""The straight-line restatement of the three-phase decision, and the cells
and gate it is checked on; shared by the acceptance criteria and the
CLI-level oracle. Its spikiness is the former contour form, a Moore walk of
the boundary and the monotone chain over all its distinct points: the oracle
of the bit-quad counts and the column-extreme hull. Also the former
`csv.writer`-based CSV writer, the oracle of the writers that render rows
themselves, the former per-row probability table writer, the oracle of the
digit-table one, the former row-by-row label reader, the oracle of the bulk one,
the former mask-building form of `kmeans2_luminance`, through which the
2-means tests read its split, and the former `Path`-based image listing, the
oracle of the `scandir` one."""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from wbcrescue.core import ValidationError, csv_field, read_keyed_csv
from wbcrescue.morphology import (
    fit_gaussian_gate,
    kmeans2_luminance,
    largest_foreground_component,
    mahalanobis,
    morph_vector,
    polygon_perimeter,
)

from synth import cell_sample, disc_mask, eccentric_cell, gray_sample, star_mask


# Moore neighborhood in clockwise order (image coordinates, y grows down),
# starting at the west neighbor; offsets are (dx, dy).
_MOORE = ((-1, 0), (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1))
_MOORE_INDEX = {offset: i for i, offset in enumerate(_MOORE)}


def trace_contour(mask):
    """Moore-neighbor walk of the boundary of the mask's largest component,
    over (x, y, backtrack x, backtrack y) states with a bounds check per
    neighbor.

    Returns the closed boundary as an (n, 2) array of (x, y) coordinates,
    starting at the topmost-then-leftmost boundary pixel. Thin protrusions
    are walked out and back, so their pixels appear twice; an isolated
    pixel yields a single-point contour. The walk stops when a state
    repeats, which closes the cycle even for one-pixel-wide shapes.
    """
    component = largest_foreground_component(mask)
    height, width = component.shape
    ys, xs = np.nonzero(component)
    x0, y0 = int(xs[0]), int(ys[0])

    def foreground(x, y):
        return 0 <= x < width and 0 <= y < height and bool(component[y, x])

    if not any(foreground(x0 + dx, y0 + dy) for dx, dy in _MOORE):
        return np.array([[x0, y0]], dtype=np.int64)

    def step(cx, cy, bx, by):
        base = _MOORE_INDEX[(bx - cx, by - cy)]
        px, py = bx, by
        for turn in range(1, 9):
            dx, dy = _MOORE[(base + turn) % 8]
            nx, ny = cx + dx, cy + dy
            if foreground(nx, ny):
                return nx, ny, px, py
            px, py = nx, ny
        raise AssertionError("pixel with no foreground neighbor reached tracing")

    # The west neighbor of the first pixel in scan order is background.
    state = (x0, y0, x0 - 1, y0)
    seen = {}
    points = []
    while state not in seen:
        seen[state] = len(points)
        points.append((state[0], state[1]))
        state = step(*state)
    cycle = points[seen[state]:]
    pivot = min(range(len(cycle)), key=lambda i: (cycle[i][1], cycle[i][0]))
    return np.array(cycle[pivot:] + cycle[:pivot], dtype=np.int64)


def distinct_points(points):
    """The distinct rows of (n, 2) integer points, sorted by (x, y)."""
    pts = np.asarray(points, dtype=np.int64).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    return pts[first]


def convex_hull(points):
    """Monotone chain over every distinct point, counterclockwise from the
    lowest (x, y), strict vertices only."""
    pts = [tuple(p) for p in distinct_points(points).tolist()]
    if len(pts) <= 2:
        return np.array(pts, dtype=np.int64)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1], dtype=np.int64)


def spikiness(contour):
    """The contour form of `morphology.spikiness`: the walked cycle's length
    over its hull's, minus 1, and 0 below 3 distinct points."""
    if len(distinct_points(contour)) < 3:
        return 0.0
    hull_perimeter = polygon_perimeter(convex_hull(contour))
    return max(0.0, polygon_perimeter(contour) / hull_perimeter - 1.0)


def sample_pool():
    """Cells by name: spiky, round, off-centre nucleus, and three that cannot
    be measured (flat luminance, empty mask, a 1x2 cell)."""
    return {
        "star_a": cell_sample(star_mask(32, 8, 8.0, 5.0), disc_mask(32, 4.0)),
        "star_b": cell_sample(star_mask(32, 7, 9.0, 6.0), disc_mask(32, 5.0)),
        "star_c": cell_sample(star_mask(32, 9, 7.0, 4.0), disc_mask(32, 4.0)),
        "disc_a": eccentric_cell(nucleus_shift=0.0),
        "disc_b": eccentric_cell(nucleus_shift=0.0, nucleus_radius=4.0),
        "pc_a": eccentric_cell(nucleus_shift=3.0),
        "pc_b": eccentric_cell(nucleus_shift=3.5, nucleus_radius=6.5),
        "flat": gray_sample(np.full((12, 12), 99, dtype=np.uint8), disc_mask(12, 4.0)),
        "empty": gray_sample(np.full((6, 6), 10, dtype=np.uint8), np.zeros((6, 6), bool)),
        "tiny": gray_sample(
            np.array([[5, 250]], dtype=np.uint8), np.ones((1, 2), dtype=bool)
        ),
    }


def split_masks(sample):
    """`kmeans2_luminance`'s split as (nucleus_mask, cytoplasm_mask): the
    darker cluster is the nucleus and the two masks partition the foreground."""
    flat, _, dark = kmeans2_luminance(sample)
    foreground = np.asarray(sample.mask, dtype=bool)
    nucleus = np.zeros(foreground.shape, dtype=bool)
    nucleus.ravel()[flat[dark]] = True  # a new C-ordered array ravels to a view
    return nucleus, foreground & ~nucleus


def pc_gate():
    rng = np.random.default_rng(100)
    population = np.array([0.45, 0.55, 0.3]) + rng.normal(0, 0.05, size=(60, 3))
    return fit_gaussian_gate(population)


def argmax_first(values):
    best = 0
    for index, value in enumerate(values):
        if value > values[best]:
            best = index
    return best


def reference_decide(p_swin, p_med, factors, tau, tau_s, tau_m, sample, gate, ply, pc):
    """`(final label, phase)` of one row, where `ply` and `pc` are the class
    indices of PLY and PC in the catalog."""
    rare = (ply, pc)
    base = argmax_first(list(p_swin))
    boosted = [p * f for p, f in zip(p_swin, factors)]
    candidate = argmax_first(boosted)
    if candidate not in rare:
        return base, "NoCandidate"
    if base in rare and candidate != base:
        return base, "NoCandidate"
    if p_med[candidate] < tau:
        return base, "FailedSemantic"
    if candidate == ply:
        try:
            score = spikiness(trace_contour(sample.mask))
        except ValidationError:
            return base, "FailedMorphology"
        if score > tau_s:
            return ply, "Rescued"
        return base, "FailedMorphology"
    try:
        vector = morph_vector(sample)
    except ValidationError:
        return base, "FailedMorphology"
    if mahalanobis(gate, vector) <= tau_m:
        return pc, "Rescued"
    return base, "FailedMorphology"


def csv_module_write(path, header, rows) -> None:
    """The former `core.write_csv`: `csv.writer` with `\r\n` ends, cut back
    to `\n` per row, so that a bare `\r` in a field is quoted before
    Python 3.13 too."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        sink = SimpleNamespace(write=lambda record: handle.write(record[:-2] + "\n"))
        writer = csv.writer(sink, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_prob_table(path, table) -> None:
    """The former `ingest.write_prob_table`: one `%` template per row, each
    probability with `%.12g`, through a text file."""
    template = "%s," + ",".join(["%.12g"] * len(table.label_set)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(map(csv_field, ["image_id", *table.label_set.names])) + "\n")
        handle.writelines(template % (csv_field(image_id), *row.tolist())
                          for image_id, row in zip(table.ids, table.matrix))


def read_label_csv(path, label_set):
    """The former `metrics.read_label_csv`: every file read row by row
    through `read_keyed_csv`."""
    rows = []
    for lineno, (image_id, name) in read_keyed_csv(path, ["image_id", "label"]):
        if name not in label_set:
            raise ValidationError(f"{path}:{lineno}: unknown label {name!r}")
        rows.append((image_id, label_set.index_of(name)))
    if not rows:
        raise ValidationError(f"{path}: no rows")
    return rows


def list_image_ids(images_dir):
    """The former `ingest.list_image_ids`: one `Path.is_file()` per entry."""
    directory = Path(images_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    return sorted({entry.stem for entry in directory.iterdir()
                   if entry.is_file() and entry.suffix in (".ppm", ".pgm")})
