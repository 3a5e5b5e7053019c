"""File ingestion: probability tables, class counts, cell images and masks,
plus arithmetic-mean fusion of multiple probability tables."""

from __future__ import annotations

import functools
import os
from array import array
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (ClassCounts, Frozen, LabelSet, ValidationError, csv_column, errors_in, join_ids,
                   normalize_probs, read_keyed_csv, read_plain_csv, write_csv_lines)
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
        if len(set(self.ids)) < len(self.ids):
            seen: set[str] = set()
            for image_id in self.ids:
                if image_id in seen:
                    raise ValidationError(f"duplicate image_id {image_id!r}")
                seen.add(image_id)

    @classmethod
    def _own(cls, label_set: LabelSet, ids: tuple[str, ...], matrix: np.ndarray) -> ProbTable:
        """A table that takes unique ids and a fresh read-only (N, K) float64
        matrix as they are, without the copy and the repeat scan."""
        table = cls.__new__(cls)
        table.label_set, table.ids, table.matrix = label_set, ids, matrix
        return table

    def __len__(self) -> int:
        return len(self.ids)


def parse_prob_table(path, label_set: LabelSet) -> ProbTable:
    """Parse a probability CSV with header `image_id,<class1>,...,<classK>`.

    Rows are validated together and renormalized to sum exactly 1; row order
    is preserved. Errors name the file, line, and offending column; when
    several rows are bad, the earliest one is reported.

    A plain file (`core.read_plain_csv`) is read in bulk; any other is read
    by the row reader. A plain file holds row i on line i + 2, so every
    result and error is the row reader's.
    """
    plain = read_plain_csv(path, ["image_id", *label_set.names], "f8")
    if plain is None:
        return _parse_prob_table_rows(path, label_set)
    ids, matrix = plain
    probs = normalize_probs(matrix, where=lambda row: f"{path}:{row + 2}")
    return ProbTable._own(label_set, ids, probs)


def _parse_prob_table_rows(path, label_set: LabelSet) -> ProbTable:
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
    return ProbTable._own(label_set, tuple(ids), _check_prob_rows(path, lines, values, width))


def _check_prob_rows(path, lines, values, width: int) -> np.ndarray:
    matrix = np.frombuffer(values, dtype=np.float64).reshape(-1, width)
    return normalize_probs(matrix, where=lambda row: f"{path}:{lines[row]}")


_CHUNK_ROWS = 1024
_BAND = 0.5 - 2.0 ** -12


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Built on first use: the powers of ten `10**(12 + lead)`; and words of
    ASCII bytes, in native byte order, for the groups 0-9999 as four digits
    with their trailing zeros as NUL bytes, then the same groups in full, for
    the first and the second word of `,0.` and `lead` zeros, and for `\n`."""
    groups = np.arange(10000)
    digits = np.empty((2, 10000, 4), np.uint8)
    for place in range(4):
        digits[:, :, place] = 48 + groups // 10 ** (3 - place) % 10
        digits[0, groups % 10 ** (4 - place) == 0, place] = 0
    prefix = np.zeros((4, 8), np.uint8)
    for lead in range(4):
        prefix[lead, :3 + lead] = np.frombuffer((",0." + "0" * lead).encode(), np.uint8)
    first, second = prefix.view(np.uint32).T.copy()
    scale, newline = np.array([1e12, 1e13, 1e14, 1e15]), np.frombuffer(b"\n\0\0\0", np.uint32)
    return scale, digits.view(np.uint32).ravel(), first, second, newline


def _render_rows(ids: Sequence[str], matrix: np.ndarray, template: str) -> list[bytes]:
    """The rows `template % (ids[i], *matrix[i])`, UTF-8 encoded, as pieces
    to write in order. A row whose cells are all certified (see
    `write_prob_table`) is laid out in one row of a NUL-padded word matrix:
    its id, then for each cell the two words of `,0.` and its leading zeros
    and the three digit words of its 12-digit mantissa, then `\n`. Any other
    row, or one whose id holds a NUL, is filled into the template, and its
    text goes between the matrix's rows before and after it."""
    scale, digits, first, second, newline = _digit_tables()
    rows, k = matrix.shape
    certified = (matrix >= 1e-4) & (matrix < 1)
    x = np.where(certified, matrix, 0.5)  # no NaN or inf reaches the arithmetic
    lead = (x < 0.1).view(np.uint8) + (x < 0.01) + (x < 0.001)
    y = x * scale.take(lead)
    mantissa = np.rint(y)
    certified &= (np.abs(y - mantissa) < _BAND) & (mantissa >= 1e11) & (mantissa < 1e12)
    mantissa = mantissa.astype(np.int64)
    high, low = mantissa // 10 ** 8, mantissa % 10 ** 4
    mid = mantissa // 10 ** 4 % 10 ** 4

    joined = "".join(ids)
    text = joined.encode()
    widths = np.fromiter(map(len, ids), np.intp, rows)
    if len(text) != len(joined):  # an id beyond ASCII: count its bytes
        widths = np.fromiter((len(image_id.encode()) for image_id in ids), np.intp, rows)
    id_words = -(-int(widths.max()) // 4)
    out = np.empty((rows, id_words + 5 * k + 1), np.uint32)
    out[:, :id_words] = 0
    out.view(np.uint8)[:, :4 * id_words][np.arange(4 * id_words) < widths[:, None]] = (
        np.frombuffer(text, np.uint8))
    cells = out[:, id_words:-1].reshape(rows, k, 5)
    cells[..., 0], cells[..., 1] = first.take(lead), second.take(lead)
    cells[..., 2] = digits.take(high + 10000 * ((mid | low) != 0))
    cells[..., 3] = digits.take(mid + 10000 * (low != 0))
    cells[..., 4] = digits.take(low)
    out[:, -1] = newline

    fallback = set((np.flatnonzero(~certified) // k).tolist())
    if "\0" in joined:  # a NUL in an id would be compacted away
        fallback.update(row for row, image_id in enumerate(ids) if "\0" in image_id)
    pieces, start = [], 0
    for row in sorted(fallback):
        pieces.append(out[start:row].tobytes().translate(None, b"\0"))
        pieces.append((template % (ids[row], *matrix[row].tolist())).encode())
        start = row + 1
    pieces.append(out[start:].tobytes().translate(None, b"\0"))
    return pieces


def write_prob_table(path, table: ProbTable) -> None:
    """Write the table as CSV, each probability as `%.12g` renders it, in
    chunks of 1024 rows.

    A cell `x` is certified when `1e-4 <= x < 1` and, with `lead` its zeros
    after `0.` (from comparing `x` with 0.1, 0.01 and 0.001),
    `y = x * 10**(12 + lead)` (an exact power of ten) and `m = rint(y)`,
    `abs(y - m) < 0.5 - 2**-12` and `10**11 <= m < 10**12`. As `y < 2**40`,
    `y` is within `2**-14` of the exact product, so `m` is the correctly
    rounded 12-digit mantissa that `%.12g` prints in fixed notation. Its
    three 4-digit groups come from a 10,000-entry table of ASCII digit words,
    with a second table that holds trailing zeros as NUL bytes for the last
    non-zero group; a NUL-padded row is compacted with
    `bytes.translate(None, b"\0")`. A row with any other cell (0, 1, below
    `1e-4`, NaN, inf, -0.0, inside the rounding band or a carry into the next
    decade), or whose id holds a NUL, is filled into the `%` template as
    before. The chunks keep the matrix and its temporaries under 1 MB."""
    ids = csv_column(table.ids)
    template = "%s," + ",".join(["%.12g"] * len(table.label_set)) + "\n"
    write_csv_lines(path, ["image_id", *table.label_set.names], (
        piece
        for start in range(0, len(ids), _CHUNK_ROWS)
        for piece in _render_rows(ids[start:start + _CHUNK_ROWS],
                                  table.matrix[start:start + _CHUNK_ROWS], template)
    ))


def parse_class_counts(path, label_set: LabelSet) -> ClassCounts:
    """Parse a `class,count` CSV; every catalog class must appear once."""
    counts: dict[str, int] = {}
    for lineno, (name, cell) in read_keyed_csv(path, ["class", "count"]):
        if name not in label_set:
            raise ValidationError(f"{path}:{lineno}: unknown class name {name!r}")
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
    with errors_in(path):
        return ClassCounts(tuple(counts[name] for name in label_set))


class CellSample(Frozen):
    """One cell image with the binary mask isolating the leukocyte: `pixels`
    (H, W, 3) uint8 and `mask` (H, W) bool."""

    __slots__ = ("image_id", "pixels", "mask")

    def __init__(self, image_id: str, pixels: np.ndarray, mask: np.ndarray):
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValidationError(f"{image_id}: pixels must be (H, W, 3)")
        if mask.shape != pixels.shape[:2]:
            raise ValidationError(
                f"{image_id}: dimension mismatch: image "
                f"{pixels.shape[1]}x{pixels.shape[0]} vs mask "
                f"{mask.shape[1] if mask.ndim == 2 else '?'}x{mask.shape[0]}"
            )
        self._set(image_id=image_id, pixels=pixels, mask=mask)


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
    with errors_in(f"{image_path}, {mask_path}"):  # the sizes differ: name both files
        return CellSample(image_id, pixels, mask)


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
    total.flags.writeable = False
    return ProbTable._own(first.label_set, first.ids, total)


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


def _is_file(entry: os.DirEntry) -> bool:
    """`entry.is_file()`, with no `stat` for a regular file on Linux, or
    `Path.is_file()` where that raises, as on a symlink loop."""
    try:
        return entry.is_file()
    except OSError:
        return Path(entry.path).is_file()


def list_image_ids(images_dir) -> list[str]:
    """Deterministically ordered ids of all netpbm images in a directory.
    Names split as `Path` splits them: `.ppm` alone has no suffix, and
    `a.b.ppm` is the id `a.b`. A symlink counts as the file it leads to."""
    directory = Path(images_dir)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    with os.scandir(directory) as entries:
        names = sorted(entry.name for entry in entries
                       if entry.name[-4:] in _IMAGE_SUFFIXES and entry.name[:-4] and _is_file(entry))
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # a byte that is not UTF-8 decodes to a lone surrogate
            raise ValidationError(
                f"{directory}: image file name {os.fsencode(name)!r} is not UTF-8"
            ) from None
    return sorted({name[:-4] for name in names})
