"""File ingestion: probability tables, class counts, cell images and masks,
plus arithmetic-mean fusion of multiple probability tables."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import ClassCounts, LabelSet, ValidationError, normalize_probs
from .netpbm import read_pnm


class SampleNotFoundError(FileNotFoundError):
    """Image or mask file for a requested sample does not exist."""


class ProbTable:
    """Ordered per-image probability rows from one classifier branch."""

    def __init__(self, label_set: LabelSet, rows: Sequence[tuple[str, np.ndarray]]):
        self.label_set = label_set
        self.rows = tuple(rows)
        by_id: dict[str, np.ndarray] = {}
        for image_id, probs in self.rows:
            if image_id in by_id:
                raise ValidationError(f"duplicate image_id {image_id!r}")
            if len(probs) != len(label_set):
                raise ValidationError(
                    f"{image_id}: probability vector length {len(probs)} "
                    f"does not match catalog size {len(label_set)}"
                )
            by_id[image_id] = probs
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.rows)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(image_id for image_id, _ in self.rows)

    def probs_for(self, image_id: str) -> np.ndarray:
        try:
            return self._by_id[image_id]
        except KeyError:
            raise ValidationError(f"no probabilities for image_id {image_id!r}") from None

    def __contains__(self, image_id: object) -> bool:
        return image_id in self._by_id


def parse_prob_table(path, label_set: LabelSet) -> ProbTable:
    """Parse a probability CSV with header `image_id,<class1>,...,<classK>`.

    Rows are validated and renormalized to sum exactly 1; row order is
    preserved. Errors name the file, line, and offending column.
    """
    expected_header = ["image_id", *label_set.names]
    rows: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty probability file")
        if header != expected_header:
            raise ValidationError(
                f"{path}: header mismatch: expected {','.join(expected_header)!r}, "
                f"got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ValidationError(
                    f"{path}:{lineno}: expected {len(expected_header)} columns, got {len(row)}"
                )
            image_id = row[0]
            if not image_id:
                raise ValidationError(f"{path}:{lineno}: empty image_id")
            if image_id in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
            seen.add(image_id)
            values = np.empty(len(label_set), dtype=np.float64)
            for column, cell in enumerate(row[1:]):
                try:
                    values[column] = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}:{lineno}: column {label_set.name_at(column)}: "
                        f"non-numeric value {cell!r}"
                    ) from None
            probs = normalize_probs(values, where=f"{path}:{lineno}")
            rows.append((image_id, probs))
    return ProbTable(label_set, rows)


def write_prob_table(path, table: ProbTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["image_id", *table.label_set.names])
        for image_id, probs in table:
            writer.writerow([image_id, *(f"{value:.12g}" for value in probs)])


def parse_class_counts(path, label_set: LabelSet) -> ClassCounts:
    """Parse a `class,count` CSV; every catalog class must appear once."""
    counts: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["class", "count"]:
            raise ValidationError(f"{path}: expected header 'class,count'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 2 columns")
            name, cell = row
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
                raise ValidationError(
                    f"{path}:{lineno}: negative count {value} for class {name!r}"
                )
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

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


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
    pixels = np.ascontiguousarray(pixels)
    pixels.flags.writeable = False
    mask.flags.writeable = False
    return CellSample(image_id, pixels, mask)


def average_prob_tables(tables: Sequence[ProbTable]) -> ProbTable:
    """Element-wise arithmetic mean over tables sharing ids and catalog.

    Output rows follow the first table's order.
    """
    if not tables:
        raise ValidationError("no probability tables to average")
    first = tables[0]
    for table in tables[1:]:
        if table.label_set != first.label_set:
            raise ValidationError("probability tables use different label catalogs")
        if set(table.ids) != set(first.ids):
            missing = sorted(set(first.ids) ^ set(table.ids))[:5]
            raise ValidationError(
                f"probability tables disagree on image ids (e.g. {missing})"
            )
    rows = []
    for image_id, _ in first:
        stacked = np.stack([table.probs_for(image_id) for table in tables])
        mean = stacked.mean(axis=0)
        mean.flags.writeable = False
        rows.append((image_id, mean))
    return ProbTable(first.label_set, rows)


SampleSource = Callable[[str], CellSample]

_IMAGE_SUFFIXES = (".ppm", ".pgm")


def find_image(images_dir, image_id: str) -> Path:
    """Path of `<id>.ppm` under `images_dir`, else of `<id>.pgm`."""
    directory = Path(images_dir)
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

    def __call__(self, image_id: str) -> CellSample:
        image_path = find_image(self.images_dir, image_id)
        mask_path = self.masks_dir / (image_id + ".pgm")
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
