"""The rescue pipeline: rarity boosting surfaces a candidate, a second
classifier branch verifies it semantically, and shape filters grant or deny
the final label swap."""

from __future__ import annotations

import math
import os
import sys
from typing import Iterator, Mapping, Sequence

import numpy as np

from .core import (
    GATED_CLASS,
    SPIKY_CLASS,
    ClassCounts,
    DecisionTrace,
    Frozen,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
    csv_column,
    join_ids,
    write_csv_columns,
)
from .ingest import CellSample, ProbTable, SampleNotFoundError, SampleSource
from .morphology import (
    GaussianGate,
    mahalanobis,
    morph_vector,
    spikiness,
    trace_contour,
)


class BoostFactors(Frozen):
    """Per-class multiplicative boosts; exactly 1 outside the rare set."""

    __slots__ = ("factors", "rare_indices")

    def __init__(self, factors: np.ndarray, rare_indices: frozenset[int]):
        factors = np.asarray(factors, dtype=np.float64)
        factors.flags.writeable = False
        if np.any(factors < 1.0) or not np.all(np.isfinite(factors)):
            raise ValidationError("boost factors must be finite and >= 1")
        for class_id, value in enumerate(factors):
            if class_id not in rare_indices and value != 1.0:
                raise ValidationError(
                    f"boost factor for non-rare class index {class_id} must be 1"
                )
        self._set(factors=factors, rare_indices=rare_indices)


def compute_boost_factors(
    label_set: LabelSet, counts: ClassCounts, config: RescueConfig
) -> BoostFactors:
    """Derive boost factors from training counts: the rarer the class, the
    larger its boost, log-scaled against the majority class and clamped to
    [1, boost_cap]. Explicit config overrides win."""
    config.validate_against(label_set)
    if len(counts) != len(label_set):
        raise ValidationError(
            f"class counts length {len(counts)} does not match catalog size {len(label_set)}"
        )
    factors = np.ones(len(label_set), dtype=np.float64)
    rare_indices = frozenset(label_set.index_of(name) for name in config.rare_classes)
    for name in sorted(config.rare_classes):
        class_id = label_set.index_of(name)
        if name in config.boost_overrides:
            factors[class_id] = config.boost_overrides[name]
            continue
        count = counts[class_id]
        if count == 0:
            raise ValidationError(f"boost undefined for zero-count class {name!r}")
        try:
            raw = math.log1p(counts.max_count / count)
        except OverflowError:  # a ratio past float range: its limit, the cap
            raw = math.inf
        factors[class_id] = min(config.boost_cap, max(1.0, raw))
    return BoostFactors(factors, rare_indices)


def phase1_candidate(
    p_swin: np.ndarray, boosts: BoostFactors
) -> tuple[np.ndarray, np.ndarray]:
    """Base argmax and boosted argmax over the last axis of `p_swin`, shape
    (..., K). The candidate is -1 where the boosted argmax is not a rare
    class. Ties break to the lowest class index."""
    probs = np.asarray(p_swin, dtype=np.float64)
    base = np.argmax(probs, axis=-1)
    top = np.argmax(probs * boosts.factors, axis=-1)
    return base, np.where(np.isin(top, sorted(boosts.rare_indices)), top, -1)


def _denial(exc: Exception) -> tuple[Phase, None, None, str]:
    """The phase-3 outcome of a row whose shape could not be judged."""
    return Phase.FAILED_MORPHOLOGY, None, None, str(exc)


def phase3_filter(
    candidate_name: str,
    sample: CellSample,
    gate: GaussianGate | None,
    config: RescueConfig,
) -> tuple[Phase, float | None, float | None, str | None]:
    """Apply the class-specific shape filter.

    Returns the last four fields of the row's `DecisionTrace`, in field
    order: `(phase_reached, spikiness, mahalanobis, error)`, the phase being
    `Phase.RESCUED` or `Phase.FAILED_MORPHOLOGY`. A sample whose morphology
    cannot be measured (empty mask, flat or non-finite luminance) is denied
    with the measurement's error rather than erroring out: an unmeasurable
    cell must not be rescued.
    """
    if candidate_name == SPIKY_CLASS:
        try:
            score = spikiness(trace_contour(sample.mask))
        except ValidationError as exc:
            return _denial(exc)
        phase = Phase.RESCUED if score > config.tau_s else Phase.FAILED_MORPHOLOGY
        return phase, score, None, None
    if candidate_name == GATED_CLASS:
        if gate is None:
            raise ValidationError(
                f"gate model required to filter {GATED_CLASS} candidates"
            )
        try:
            vector = morph_vector(sample)
        except ValidationError as exc:
            return _denial(exc)
        distance = mahalanobis(gate, vector)
        phase = Phase.RESCUED if distance <= config.tau_m else Phase.FAILED_MORPHOLOGY
        return phase, None, distance, None
    raise ValidationError(f"no shape filter defined for class {candidate_name!r}")


def parallel_map(fn, items, threads: int) -> list:
    """`[fn(item) for item in items]` on up to `threads` worker threads,
    0 meaning one per CPU this process may run on. Results keep input order."""
    if threads < 0:
        raise ValidationError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            threads = os.cpu_count() or 1
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with sys.modules[__name__].ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def __getattr__(name: str):
    """Import `ThreadPoolExecutor` on first access (PEP 562), so a run that
    starts no pool never loads `concurrent.futures`. `parallel_map` reads it
    through the module at each call, so a patched class is the one used."""
    if name != "ThreadPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ThreadPoolExecutor
    globals()[name] = ThreadPoolExecutor
    return ThreadPoolExecutor


PHASES = tuple(Phase)


class Decisions(Frozen):
    """A batch's decisions as columns in table order: the image `ids`, the
    `base` label, the `candidate` pursued (-1 where none is) and the `phase`
    reached (int8, a position in `PHASES`). `outcomes` maps each row that
    reached the shape filters to its `(spikiness, mahalanobis, error)`.
    Indexing and iteration read row i as its `DecisionTrace`; equality is identity."""

    __slots__ = ("ids", "base", "candidate", "phase", "outcomes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, ids: Sequence[str], base: np.ndarray, candidate: np.ndarray,
                 phase: np.ndarray, outcomes: Mapping[int, tuple]):
        self._set(ids=ids, base=base, candidate=candidate, phase=phase, outcomes=outcomes)

    @property
    def final(self) -> np.ndarray:
        """The candidate where the row was rescued, else the base label."""
        return np.where(self.phase == PHASES.index(Phase.RESCUED), self.candidate, self.base)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> DecisionTrace:
        row = range(len(self.ids))[row]
        candidate = int(self.candidate[row])
        return DecisionTrace(self.ids[row], int(self.base[row]), None if candidate < 0 else candidate,
                             PHASES[self.phase[row]], *self.outcomes.get(row, ()))

    def __iter__(self) -> Iterator[DecisionTrace]:
        return map(self.__getitem__, range(len(self.ids)))


def rescue_batch(
    swin_table: ProbTable,
    med_table: ProbTable,
    sample_source: SampleSource,
    counts: ClassCounts,
    gate: GaussianGate | None,
    config: RescueConfig,
    *,
    skip_missing: bool = False,
    threads: int = 1,
) -> Decisions:
    """Decide every image in the primary table, in table order.

    Phases 1 and 2 run on the whole probability matrix at once. Only the
    rows whose candidate survives verification load their sample and reach
    the shape filters, possibly on worker threads; output order is the
    table order regardless.
    """
    label_set = swin_table.label_set
    if med_table.label_set != label_set:
        raise ValidationError("probability tables use different label catalogs")
    med_rows = join_ids(swin_table.ids, med_table.ids, "image ids missing from verifier table:",
                        "verifier table has ids absent from the primary table:")
    boosts = compute_boost_factors(label_set, counts, config)
    base, candidate = phase1_candidate(swin_table.matrix, boosts)
    # A rare base prediction is never displaced: when boosting surfaces a
    # different rare class than an already-rare base label, no candidate is
    # pursued.
    rare_base = np.isin(base, sorted(boosts.rare_indices))
    pursued = (candidate >= 0) & ~(rare_base & (candidate != base))
    verifier = med_table.matrix[np.arange(len(base))[med_rows], np.maximum(candidate, 0)]
    verified = np.flatnonzero(pursued & (verifier >= config.tau)).tolist()

    def filter_row(row: int) -> tuple[Phase, float | None, float | None, str | None]:
        try:
            sample = sample_source(swin_table.ids[row])
        except SampleNotFoundError as exc:
            if not skip_missing:
                raise
            return _denial(exc)
        return phase3_filter(label_set.name_at(int(candidate[row])), sample, gate, config)

    phase = np.where(pursued, PHASES.index(Phase.FAILED_SEMANTIC),
                     PHASES.index(Phase.NO_CANDIDATE)).astype(np.int8)
    outcomes = parallel_map(filter_row, verified, threads)
    phase[verified] = [PHASES.index(outcome[0]) for outcome in outcomes]
    return Decisions(swin_table.ids, base, np.where(pursued, candidate, -1), phase,
                     {row: outcome[1:] for row, outcome in zip(verified, outcomes)})


def write_predictions_csv(path, decisions: Decisions, label_set: LabelSet) -> None:
    names = np.array(csv_column(label_set.names), dtype=object)
    write_csv_columns(path, ["image_id", "label"],
                      [csv_column(decisions.ids), names[decisions.final].tolist()])


def write_trace_csv(path, decisions: Decisions, label_set: LabelSet) -> None:
    """Audit CSV; fields the pipeline never evaluated stay empty."""
    # Each name quoted once, and "" last, where a candidate of -1 reads.
    names = np.array([*csv_column(label_set.names), ""], dtype=object)
    base, candidate, final = names[[decisions.base, decisions.candidate, decisions.final]].tolist()
    phases = np.array([phase.value for phase in PHASES], dtype=object)[decisions.phase].tolist()
    scores = [[""] * len(decisions), [""] * len(decisions)]
    for row, outcome in decisions.outcomes.items():
        for column, score in zip(scores, outcome):  # spikiness, mahalanobis
            if score is not None:
                column[row] = format(score, ".9g")
    write_csv_columns(
        path,
        ["image_id", "base", "candidate", "phase", "spikiness", "mahalanobis", "final"],
        [csv_column(decisions.ids), base, candidate, phases, *scores, final],
    )
