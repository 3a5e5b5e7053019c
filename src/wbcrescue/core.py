"""Shared domain types: label catalog, probability validation, run
configuration, and the per-image decision trace; plus the text readers and
the CSV writer every input and output goes through."""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
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


@dataclass(frozen=True)
class LabelSet:
    """Ordered, immutable catalog of class names.

    Every probability vector, count vector, and confusion matrix in the
    engine is indexed by a LabelSet; indices are stable for its lifetime.
    """

    names: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(self.names)
        if len(names) < 2:
            raise ValidationError("label catalog needs at least 2 classes")
        index: dict[str, int] = {}
        for position, name in enumerate(names):
            if not name:
                raise ValidationError(f"empty class name at position {position}")
            if name in index:
                raise ValidationError(f"duplicate class name {name!r}")
            index[name] = position
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", index)

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


def join_ids(ids: Sequence[str], other: Sequence[str], missing: str, extra: str) -> list[int]:
    """The row of `other` that holds each id of `ids`, in `ids` order; each
    side holds an id once. Raise ValidationError unless both hold the same
    ids: the message is `missing` for ids only `ids` holds, else `extra`,
    followed by up to five of those ids, sorted, and `...` when there are more."""
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    r"""Write UTF-8 CSV with `\n` row ends. The writer runs with `\r\n` ends,
    cut back per row, because before Python 3.13 `csv` quotes only the
    terminator's characters and would leave a bare `\r` in a field unquoted."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        sink = SimpleNamespace(write=lambda record: handle.write(record[:-2] + "\n"))
        writer = csv.writer(sink, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def default_label_set() -> LabelSet:
    return LabelSet(DEFAULT_LABELS)


def load_label_file(path) -> LabelSet:
    """Read a catalog file: one class name per line, `#` comments allowed."""
    names = [line for _, line in read_lines(path)]
    if not names:
        raise ValidationError(f"{path}: no class names found")
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


@dataclass(frozen=True)
class ClassCounts:
    """Per-class training-sample counts, aligned with a LabelSet."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValidationError("empty class counts")
        for value in self.counts:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(f"invalid class count {value!r}")
        if max(self.counts) <= 0:
            raise ValidationError("all class counts are zero")

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


@dataclass(frozen=True)
class RescueConfig:
    """Thresholds and class roles steering the rescue pipeline.

    tau_s and tau_m accept +/-inf as sentinels so operators can force a
    filter to always or never pass (used by ablation runs).
    """

    rare_classes: frozenset[str] = FILTERED_CLASSES
    boost_overrides: Mapping[str, float] = field(default_factory=dict)
    tau: float = 0.5
    tau_s: float = 0.15
    tau_m: float = 3.0
    boost_cap: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "rare_classes", frozenset(self.rare_classes))
        object.__setattr__(self, "boost_overrides", dict(self.boost_overrides))
        tau = _check_threshold("tau", self.tau)
        if not 0.0 <= tau <= 1.0:
            raise ValidationError(f"tau must lie in [0, 1], got {tau}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "tau_s", _check_threshold("tau_s", self.tau_s))
        object.__setattr__(self, "tau_m", _check_threshold("tau_m", self.tau_m))
        cap = float(self.boost_cap)
        if not math.isfinite(cap) or cap < 1.0:
            raise ValidationError(f"boost_cap must be a finite value >= 1, got {cap}")
        object.__setattr__(self, "boost_cap", cap)
        for name, value in self.boost_overrides.items():
            value = float(value)
            if not math.isfinite(value) or value < 1.0 or value > cap:
                raise ValidationError(
                    f"boost override for {name!r} must lie in [1, {cap}], got {value}"
                )
            if name not in self.rare_classes:
                raise ValidationError(f"boost override for non-rare class {name!r}")

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
