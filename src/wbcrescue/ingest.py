"""File ingestion: probability tables, class counts, cell images and masks,
plus arithmetic-mean fusion of multiple probability tables."""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (ClassCounts, LabelSet, ValidationError, join_ids, normalize_probs,
                   read_csv, read_keyed_csv, write_csv)
from .netpbm import read_pnm


class SampleNotFoundError(FileNotFoundError):
    """Image or mask file for a requested sample does not exist."""


class ProbTable:
    """Ordered per-image probability rows from one classifier branch: the
    image ids and one read-only (N, K) float64 matrix whose row i belongs to
    ids[i]."""

    def __init__(self, label_set: LabelSet, ids: Iterable[str], matrix):
        self.label_set = label_set
        self.ids: tuple[str, ...] = tuple(ids)
        self.matrix = np.array(matrix, dtype=np.float64)
        if self.matrix.shape != (len(self.ids), len(label_set)):
            raise ValidationError(
                f"probability matrix shape {self.matrix.shape} does not match "
                f"{len(self.ids)} ids by catalog size {len(label_set)}"
            )
        self.matrix.flags.writeable = False
        seen: set[str] = set()
        for image_id in self.ids:
            if image_id in seen:
                raise ValidationError(f"duplicate image_id {image_id!r}")
            seen.add(image_id)

    def __len__(self) -> int:
        return len(self.ids)


def parse_prob_table(path, label_set: LabelSet) -> ProbTable:
    """Parse a probability CSV with header `image_id,<class1>,...,<classK>`.

    Rows are validated together and renormalized to sum exactly 1; row order
    is preserved. Errors name the file, line, and offending column; when
    several rows are bad, the earliest one is reported.
    """
    width = len(label_set)
    ids: list[str] = []
    lines = array("q")
    values = array("d")
    try:
        for lineno, row in read_keyed_csv(path, ["image_id", *label_set.names]):
            for column, cell in enumerate(row[1:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: column {label_set.name_at(column)}: "
                        f"non-numeric value {cell!r}"
                    ) from None
            ids.append(row[0])
            lines.append(lineno)
    except ValidationError:
        # A bad row read before this error wins, so check those rows first,
        # without the cells of a row cut short by a non-numeric one.
        del values[len(ids) * width:]
        _check_prob_rows(path, lines, values, width)
        raise
    return ProbTable(label_set, ids, _check_prob_rows(path, lines, values, width))


def _check_prob_rows(path, lines, values, width: int) -> np.ndarray:
    matrix = np.frombuffer(values, dtype=np.float64).reshape(-1, width)
    return normalize_probs(matrix, where=lambda row: f"{path}:{lines[row]}")


def write_prob_table(path, table: ProbTable) -> None:
    write_csv(
        path,
        ["image_id", *table.label_set.names],
        (
            [image_id, *(f"{value:.12g}" for value in probs)]
            for image_id, probs in zip(table.ids, table.matrix)
        ),
    )


def parse_class_counts(path, label_set: LabelSet) -> ClassCounts:
    """Parse a `class,count` CSV; every catalog class must appear once."""
    counts: dict[str, int] = {}
    for lineno, (name, cell) in read_csv(path, ["class", "count"]):
        if name not in label_set:
            raise ValidationError(f"{path}:{lineno}: unknown class name {name!r}")
        if name in counts:
            raise ValidationError(f"{path}:{lineno}: duplicate count for class {name!r}")
        try:
            value = int(cell)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: non-integer count {cell!r} for class {name!r}"
            ) from None
        if value < 0:
            raise ValidationError(f"{path}:{lineno}: negative count {value} for class {name!r}")
        counts[name] = value
    for name in label_set:
        if name not in counts:
            raise ValidationError(f"{path}: missing count for class {name}")
    return ClassCounts(tuple(counts[name] for name in label_set))


@dataclass(frozen=True)
class CellSample:
    """One cell image with the binary mask isolating the leukocyte."""

    image_id: str
    pixels: np.ndarray  # (H, W, 3) uint8
    mask: np.ndarray    # (H, W) bool

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValidationError(f"{self.image_id}: pixels must be (H, W, 3)")
        if self.mask.shape != self.pixels.shape[:2]:
            raise ValidationError(
                f"{self.image_id}: dimension mismatch: image "
                f"{self.pixels.shape[1]}x{self.pixels.shape[0]} vs mask "
                f"{self.mask.shape[1] if self.mask.ndim == 2 else '?'}x{self.mask.shape[0]}"
            )


def read_image_rgb(path) -> np.ndarray:
    """Read a netpbm image as (H, W, 3); grayscale is channel-replicated."""
    pixels = read_pnm(path)
    if pixels.ndim == 2:
        pixels = np.repeat(pixels[:, :, None], 3, axis=2)
    return pixels


def load_cell_sample(image_path, mask_path, image_id: str) -> CellSample:
    """Load a P6 (or P5, promoted to RGB) image and its P5 mask.

    Mask pixels above 127 count as foreground.
    """
    pixels = read_image_rgb(image_path)
    mask_raw = read_pnm(mask_path)
    if mask_raw.ndim != 2:
        raise ValidationError(f"{mask_path}: mask must be P5 grayscale")
    mask = mask_raw > 127
    pixels.flags.writeable = False
    mask.flags.writeable = False
    try:
        return CellSample(image_id, pixels, mask)
    except ValidationError as exc:  # the image and mask sizes differ: name both files
        raise ValidationError(f"{image_path}, {mask_path}: {exc}") from None


def average_prob_tables(tables: Sequence[ProbTable]) -> ProbTable:
    """Element-wise arithmetic mean over tables sharing a catalog and ids,
    each row joined by id; rows follow the first table's order."""
    if not tables:
        raise ValidationError("no probability tables to average")
    first = tables[0]
    lacks = "probability tables disagree on image ids: table {} lacks".format
    total = first.matrix.copy()  # summed in table order, as np.mean sums a stack
    for number, table in enumerate(tables[1:], start=2):
        if table.label_set != first.label_set:
            raise ValidationError("probability tables use different label catalogs")
        total += table.matrix[join_ids(first.ids, table.ids, lacks(number), lacks(1))]
    total /= len(tables)
    return ProbTable(first.label_set, first.ids, total)


SampleSource = Callable[[str], CellSample]

_IMAGE_SUFFIXES = (".ppm", ".pgm")


def find_image(images_dir, image_id: str) -> Path:
    """Path of `<id>.ppm` under `images_dir`, else of `<id>.pgm`. An id
    holding a path separator names no file there, so it has no image."""
    directory = Path(images_dir)
    if not any(sep and sep in image_id for sep in ("/", os.sep, os.altsep)):
        for suffix in _IMAGE_SUFFIXES:
            candidate = directory / (image_id + suffix)
            if candidate.is_file():
                return candidate
    raise SampleNotFoundError(f"no image for {image_id!r} under {directory}")


class DirectorySampleSource:
    """Looks up `<id>.ppm`/`<id>.pgm` images and `<id>.pgm` masks on demand."""

    def __init__(self, images_dir, masks_dir):
        self.images_dir = Path(images_dir)
        self.masks_dir = Path(masks_dir)

    def mask_path(self, image_id: str) -> Path:
        return self.masks_dir / (image_id + ".pgm")

    def __call__(self, image_id: str) -> CellSample:
        image_path = find_image(self.images_dir, image_id)
        mask_path = self.mask_path(image_id)
        if not mask_path.is_file():
            raise SampleNotFoundError(f"no mask for {image_id!r} under {self.masks_dir}")
        return load_cell_sample(image_path, mask_path, image_id)


def list_image_ids(images_dir) -> list[str]:
    """Deterministically ordered ids of all netpbm images in a directory."""
    directory = Path(images_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    ids = {
        entry.stem
        for entry in directory.iterdir()
        if entry.is_file() and entry.suffix in _IMAGE_SUFFIXES
    }
    return sorted(ids)
