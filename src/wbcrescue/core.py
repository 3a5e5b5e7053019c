"""Shared domain types: label catalog, probability validation, run
configuration, and the per-image decision trace; plus the text readers and
the CSV writer every input and output goes through."""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence

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


@contextmanager
def _open_text(path):
    """Open a text input as UTF-8 with newlines untranslated (as `csv`
    needs); bytes that do not decode raise ValidationError naming the file."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not UTF-8 text") from None


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield `(lineno, line)` for each stripped line, `#` comments and blank
    lines removed."""
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
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
    with _open_text(path) as handle:
        reader = csv.reader(handle)
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


def normalize_probs(values, *, where: str = "probability vector") -> np.ndarray:
    """Validate a raw probability row and renormalize it to sum exactly 1.

    Entries must lie in [0, 1 + ENTRY_EPSILON] and the sum must be within
    SUM_DELTA of 1; larger drift is treated as a corrupt row, not noise.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValidationError(f"{where}: expected a vector of at least 2 probabilities")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where}: non-finite probability value")
    if np.any(arr < 0.0) or np.any(arr > 1.0 + ENTRY_EPSILON):
        raise ValidationError(f"{where}: probability entry out of range [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_DELTA:
        raise ValidationError(
            f"{where}: probability sum out of tolerance (got {total:.6f})"
        )
    out = arr / total
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


@dataclass(frozen=True)
class DecisionTrace:
    """Audit record for one image's pass through the rescue pipeline."""

    image_id: str
    base_label: ClassId
    candidate: ClassId | None
    phase_reached: Phase
    spikiness: float | None
    mahalanobis: float | None
    final_label: ClassId
    error: str | None = None

    def __post_init__(self):
        if self.phase_reached is Phase.RESCUED:
            if self.candidate is None or self.final_label != self.candidate:
                raise ValidationError(
                    f"{self.image_id}: rescued trace must finalize its candidate"
                )
        elif self.final_label != self.base_label:
            raise ValidationError(
                f"{self.image_id}: non-rescued trace must keep the base label"
            )
