"""Shared domain types: label catalog, probability validation, run
configuration, and the per-image decision trace; plus the text readers and
the CSV writer every input and output goes through."""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

ClassId = int

# Pre-normalization slack allowed on a single probability entry.
ENTRY_EPSILON = 1e-6
# Maximum deviation of a probability row's sum from 1 before rejection.
SUM_DELTA = 1e-3

# Ships with the five standard hematology abbreviations the engine treats
# specially plus neutral placeholders; real deployments pass their own
# catalog file.
DEFAULT_LABELS = (
    "SNE", "LY", "VLY", "PLY", "PC",
    "WBC06", "WBC07", "WBC08", "WBC09", "WBC10", "WBC11", "WBC12", "WBC13",
)

# The rare classes that have a shape filter: irregular-contour screening
# for prolymphocytes, distribution gating for plasma cells.
SPIKY_CLASS = "PLY"
GATED_CLASS = "PC"
FILTERED_CLASSES = frozenset({SPIKY_CLASS, GATED_CLASS})


class ValidationError(ValueError):
    """Bad input content or configuration; maps to CLI exit code 1."""


@contextmanager
def errors_in(where):
    """Prefix the message of a ValidationError raised inside with `where: `."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


class Frozen:
    """Base of the immutable value types. A subclass names its fields in
    `__slots__` and sets them in `__init__` through `_set`; assigning or
    deleting one afterwards raises AttributeError. `==`, hash and repr go over
    the fields, not over a slot named `_...`, which holds what they derive."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _items(self) -> tuple:
        return tuple((name, getattr(self, name)) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._items() == other._items() if same else NotImplemented

    def __hash__(self):
        return hash(self._items())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__name__}({fields})"


class LabelSet(Frozen):
    """Ordered, immutable catalog of class names.

    Every probability vector, count vector, and confusion matrix in the
    engine is indexed by a LabelSet; indices are stable for its lifetime.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(names) < 2:
            raise ValidationError("label catalog needs at least 2 classes")
        index: dict[str, int] = {}
        for position, name in enumerate(names):
            if not name:
                raise ValidationError(f"empty class name at position {position}")
            if name in index:
                raise ValidationError(f"duplicate class name {name!r}")
            index[name] = position
        self._set(names=names, _index=index)

    def index_of(self, name: str) -> ClassId:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown class name {name!r}") from None

    def name_at(self, class_id: ClassId) -> str:
        if not 0 <= class_id < len(self.names):
            raise ValidationError(f"class id {class_id} out of range")
        return self.names[class_id]

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index


_UNDECODED = re.compile("[\udc80-\udcff]")  # valid UTF-8 never decodes to these


def _text_lines(path) -> Iterator[str]:
    """Yield the lines of a UTF-8 text input with newlines untranslated (as
    `csv` needs). `surrogateescape` turns bytes that are not UTF-8 into
    _UNDECODED; a line holding them raises ValidationError naming it."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii() and _UNDECODED.search(line):
                raise ValidationError(f"{path}:{lineno}: not UTF-8 text")
            yield line


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield `(lineno, line)` for each stripped line, `#` comments and blank
    lines removed."""
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_key_values(path) -> Iterator[tuple[int, str, str]]:
    """Yield `(lineno, key, value)` from `key = value` lines; a line without
    `=` or a key set twice raises ValidationError naming the line."""
    seen: dict[str, int] = {}
    for lineno, line in read_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in seen:
            raise ValidationError(f"{path}:{lineno}: {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        yield lineno, key, value.strip()


def read_csv(path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield `(line, row)` for each non-blank row after the required header,
    where `line` is the physical line the row ends on."""
    header = list(header)
    reader = csv.reader(_text_lines(path))
    try:
        first = next(reader, [])
        if first != header:
            raise ValidationError(
                f"{path}: header mismatch: expected {','.join(header)!r}, "
                f"got {','.join(first)!r}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}:{reader.line_num}: expected {len(header)} columns, got {len(row)}"
                )
            yield reader.line_num, row
    except csv.Error as exc:  # such as a field over the size limit
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None


# Bytes that no plain file holds: a quote; NUL, on which `csv` raises before
# Python 3.11; \x1c-\x1f, which `loadtxt` strips from a number and `float()`
# does not.
_NOT_PLAIN_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def read_plain_csv(path, header: Sequence[str],
                   cell: str | type) -> tuple[tuple[str, ...], np.ndarray] | None:
    r"""The keys and the (N, len(header) - 1) other cells of a plain CSV
    file, each cell read as the NumPy type `cell` (`object` for `str`) by
    one `np.loadtxt` call; None for any other file, which its readers then
    read with `read_keyed_csv`.

    A plain file reads the same under `read_keyed_csv` and `loadtxt`:
    - strict UTF-8 and the exact header line, with no `,` in a name;
    - none of `_NOT_PLAIN_BYTES`, and `\r` only in a `\r\n` line end;
    - no blank line, which `loadtxt` skips, so row i is on line i + 2;
    - at least one row, each with exactly one field per header column
      (`loadtxt` rejects any other count) and each cell one that `loadtxt`
      reads as `cell`;
    - keys non-empty and unique;
    - no line longer than `csv.field_size_limit()`.
    """
    if not _plain_bytes(path, header):
        return None
    dtype = np.dtype([("key", object), ("cells", cell, (len(header) - 1,))])
    # The file is passed open, in binary: given a path, `loadtxt` would read
    # a file named `*.gz` or `*.bz2` as compressed, and a binary file ends
    # its lines only at `\n`.
    with open(path, "rb") as handle:
        try:
            rows = np.loadtxt(handle, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                              ndmin=1, encoding="utf-8")
        except ValueError:  # a field count, a cell that it rejects, or not UTF-8
            return None
    keys = tuple(rows["key"].tolist())
    if "" in keys or len(set(keys)) < len(keys):
        return None
    return keys, rows["cells"]


def _plain_bytes(path, header: Sequence[str]) -> bool:
    """Whether a file holds the bytes a plain CSV file may hold
    (`read_plain_csv`), UTF-8 aside, with a line after the header. The file
    is read a chunk at a time, never whole."""
    head = ",".join(header).encode("utf-8")
    if head.count(b",") != len(header) - 1:
        return False
    limit = csv.field_size_limit()
    lines = 0
    with open(path, "rb") as handle:
        if handle.readline() not in {head + b"\n", head + b"\r\n"}:
            return False
        handle.seek(0)
        # Each chunk ends at a line end, or at the end of the file, so no line
        # spans two chunks.
        while chunk := handle.read(1 << 20) + handle.readline():
            if any(byte in chunk for byte in _NOT_PLAIN_BYTES) or (
                    b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
                return False
            ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            # Bytes per line, its `\n` included; the last is a line without
            # one, 0 when the chunk ends in `\n`. A line of 2 bytes or fewer
            # is blank (`loadtxt` would skip it) or holds no row.
            sizes = np.diff(ends, prepend=-1, append=len(chunk) - 1)
            if sizes[:-1].min(initial=3) <= 2 or sizes.max() > limit:
                return False
            lines += len(ends) + bool(sizes[-1])
    return lines > 1


def read_keyed_csv(path, header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """`read_csv` whose first column is a key: an empty or repeated key
    raises ValidationError naming the line."""
    seen: set[str] = set()
    for lineno, row in read_csv(path, header):
        key = row[0]
        if not key:
            raise ValidationError(f"{path}:{lineno}: empty {header[0]}")
        if key in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate {header[0]} {key!r}")
        seen.add(key)
        yield lineno, row


def join_ids(ids: Sequence[str], other: Sequence[str], missing: str,
             extra: str) -> slice | list[int]:
    """The rows of `other` that hold the ids of `ids`, in `ids` order, as a
    NumPy index: `slice(None)` when both list the same ids in the same order,
    else the row of each id. Each side holds an id once. Raise
    ValidationError unless both hold the same ids: the message is `missing`
    for ids only `ids` holds, else `extra`, followed by up to five of those
    ids, sorted, and `...` when there are more."""
    if tuple(ids) == tuple(other):
        return slice(None)
    index = dict(zip(other, range(len(other))))
    rows = [index.get(image_id, -1) for image_id in ids]
    if -1 in rows:
        message, odd = missing, {image_id for image_id, row in zip(ids, rows) if row < 0}
    elif len(index) > len(rows):
        message, odd = extra, index.keys() - ids
    else:
        return rows
    names = sorted(odd)
    raise ValidationError(f"{message} {names[:5]}" + ("..." if len(names) > 5 else ""))


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def csv_field(value: object) -> str:
    r"""`str(value)` as one CSV field: quoted, with each `"` doubled, when it
    holds `,`, `"`, `\r` or `\n`. This is `csv.writer`'s minimal quoting with a
    `\r\n` terminator, stated here so that every Python writes the same bytes
    (before 3.13, `csv` quotes only the terminator's characters)."""
    text = str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_column(values: Sequence[str]) -> Sequence[str]:
    """`[csv_field(v) for v in values]`, or `values` when none needs quoting."""
    if _NEEDS_QUOTES.search("".join(values)):
        return [csv_field(value) for value in values]
    return values


def write_csv_lines(path, header: Sequence[str], lines: Iterable[bytes]) -> None:
    r"""Write UTF-8 CSV: the header, then `lines`, each one or more rows
    already rendered with `csv_field` and encoded, every row ending in `\n`."""
    with open(path, "wb") as handle:
        handle.write(_csv_row(header).encode())
        handle.writelines(lines)


def write_csv_columns(path, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    """Write UTF-8 CSV: the header, then the fields `columns[j][i]` of row i."""
    rows = "\n".join(map(",".join, zip(*columns)))
    write_csv_lines(path, header, [rows.encode(), b"\n"] if len(columns[0]) else [])


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    r"""Write UTF-8 CSV with `\n` row ends, each value as `csv_field` renders
    it. A row of one empty field is written `""`, as `csv` does, so that it
    reads back as a row and not as a blank line."""
    write_csv_lines(path, header, (_csv_row(row).encode() for row in rows))


def _csv_row(row: Sequence[object]) -> str:
    fields = [csv_field(value) for value in row]
    return ('""' if fields == [""] else ",".join(fields)) + "\n"


def default_label_set() -> LabelSet:
    return LabelSet(DEFAULT_LABELS)


def load_label_file(path) -> LabelSet:
    """Read a catalog file: one class name per line, `#` comments allowed."""
    names = [line for _, line in read_lines(path)]
    with errors_in(path):
        return LabelSet(names)


def normalize_probs(
    matrix, *, where: Callable[[int], str] = "probability row {}".format
) -> np.ndarray:
    """Validate an (N, K) matrix of raw probability rows and renormalize each
    row to sum exactly 1, as a new read-only matrix.

    Entries must be finite and lie in [0, 1 + ENTRY_EPSILON], and each row
    sum must be within SUM_DELTA of 1; larger drift is treated as a corrupt
    row, not noise. The first bad row raises ValidationError, prefixed with
    `where(row)`, for the first check it fails in that order.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValidationError("expected an (N, K) matrix of at least 2 probabilities per row")
    finite = np.isfinite(arr).all(axis=1)
    in_range = ((arr >= 0.0) & (arr <= 1.0 + ENTRY_EPSILON)).all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # only in rows that fail a check above
        totals = arr.sum(axis=1)
    bad = np.flatnonzero(~(finite & in_range & (np.abs(totals - 1.0) <= SUM_DELTA)))
    if bad.size:
        row = int(bad[0])
        if not finite[row]:
            raise ValidationError(f"{where(row)}: non-finite probability value")
        if not in_range[row]:
            raise ValidationError(f"{where(row)}: probability entry out of range [0, 1]")
        raise ValidationError(
            f"{where(row)}: probability sum out of tolerance (got {totals[row]:.6f})"
        )
    out = arr / totals[:, None]
    out.flags.writeable = False
    return out


class ClassCounts(Frozen):
    """Per-class training-sample counts, aligned with a LabelSet."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[int, ...]):
        if not counts:
            raise ValidationError("empty class counts")
        for value in counts:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"invalid class count {value!r}")
        if max(counts) <= 0:
            raise ValidationError("all class counts are zero")
        self._set(counts=counts)

    def __getitem__(self, class_id: ClassId) -> int:
        return self.counts[class_id]

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def max_count(self) -> int:
        return max(self.counts)


def _check_threshold(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    return value


class RescueConfig(Frozen):
    """Thresholds and class roles steering the rescue pipeline.

    tau_s and tau_m accept +/-inf as sentinels so operators can force a
    filter to always or never pass (used by ablation runs).
    """

    __slots__ = ("rare_classes", "boost_overrides", "tau", "tau_s", "tau_m", "boost_cap")

    def __init__(self, rare_classes: Iterable[str] = FILTERED_CLASSES,
                 boost_overrides: Mapping[str, float] | None = None, tau: float = 0.5,
                 tau_s: float = 0.15, tau_m: float = 3.0, boost_cap: float = 10.0):
        rare_classes = frozenset(rare_classes)
        boost_overrides = dict(boost_overrides or {})  # each config its own dict
        tau = _check_threshold("tau", tau)
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {tau}")
        tau_s = _check_threshold("tau_s", tau_s)
        tau_m = _check_threshold("tau_m", tau_m)
        cap = float(boost_cap)
        if not math.isfinite(cap) or cap < 1.0:
            raise ValidationError(f"boost_cap must be a finite value >= 1, got {cap}")
        for name, value in boost_overrides.items():
            value = float(value)
            if not math.isfinite(value) or value < 1.0 or value > cap:
                raise ValidationError(
                    f"boost override for {name!r} must lie in [1, {cap}], got {value}"
                )
            if name not in rare_classes:
                raise ValidationError(f"boost override for non-rare class {name!r}")
        self._set(rare_classes=rare_classes, boost_overrides=boost_overrides, tau=tau,
                  tau_s=tau_s, tau_m=tau_m, boost_cap=cap)

    def validate_against(self, label_set: LabelSet) -> None:
        for name in sorted(self.rare_classes):
            if name not in label_set:
                raise ValidationError(f"rare class {name!r} not in label catalog")
        unfiltered = sorted(self.rare_classes - FILTERED_CLASSES)
        if unfiltered:
            raise ValidationError(
                f"rare classes without a shape filter: {unfiltered} "
                f"(supported: {sorted(FILTERED_CLASSES)})"
            )


_CONFIG_KEYS = {"rare_classes", "tau", "tau_s", "tau_m", "boost_cap"}


def parse_config_file(path, label_set: LabelSet) -> RescueConfig:
    """Parse the flat key=value config format (# comments, boost.<CLASS> keys)."""
    fields: dict[str, object] = {}
    overrides: dict[str, float] = {}
    for lineno, key, value in read_key_values(path):
        if key.startswith("boost."):
            class_name = key[len("boost."):]
            if class_name not in label_set:
                raise ValidationError(
                    f"{path}:{lineno}: boost override for unknown class {class_name!r}"
                )
            overrides[class_name] = _parse_float(path, lineno, key, value)
        elif key == "rare_classes":
            names = [part.strip() for part in value.split(",") if part.strip()]
            fields["rare_classes"] = frozenset(names)
        elif key in _CONFIG_KEYS:
            fields[key] = _parse_float(path, lineno, key, value)
        else:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
    with errors_in(path):
        config = RescueConfig(boost_overrides=overrides, **fields)
        config.validate_against(label_set)
    return config


def _parse_float(path, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: value for {key!r} is not a number: {value!r}"
        ) from None


class Phase(Enum):
    """How far the pipeline got before settling on a final label."""

    NO_CANDIDATE = "NoCandidate"
    FAILED_SEMANTIC = "FailedSemantic"
    FAILED_MORPHOLOGY = "FailedMorphology"
    RESCUED = "Rescued"


class DecisionTrace(NamedTuple):
    """Audit record for one image's pass through the rescue pipeline."""

    image_id: str
    base_label: ClassId
    candidate: ClassId | None
    phase_reached: Phase
    spikiness: float | None = None
    mahalanobis: float | None = None
    error: str | None = None

    @property
    def final_label(self) -> ClassId:
        """The candidate when the row was rescued, else the base label."""
        return self.candidate if self.phase_reached is Phase.RESCUED else self.base_label
