"""The straight-line restatement of the three-phase decision, and the cells
and gate it is checked on; shared by the acceptance criteria and the
CLI-level oracle. Also the former `csv.writer`-based CSV writer, the oracle
of the writers that render rows themselves, the former row-by-row label
reader, the oracle of the bulk one, the former mask-building form of
`kmeans2_luminance`, through which the 2-means tests read its split, and the
former `Path`-based image listing, the oracle of the `scandir` one."""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from wbcrescue.core import ValidationError, read_keyed_csv
from wbcrescue.morphology import (
    fit_gaussian_gate,
    kmeans2_luminance,
    mahalanobis,
    morph_vector,
    spikiness,
    trace_contour,
)

from synth import cell_sample, disc_mask, eccentric_cell, gray_sample, star_mask


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
