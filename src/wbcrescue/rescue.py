"""The rescue pipeline: rarity boosting surfaces a candidate, a second
classifier branch verifies it semantically, and shape filters grant or deny
the final label swap."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    GATED_CLASS,
    SPIKY_CLASS,
    ClassCounts,
    DecisionTrace,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
    join_ids,
    write_csv,
)
from .ingest import CellSample, ProbTable, SampleNotFoundError, SampleSource
from .morphology import (
    GaussianGate,
    mahalanobis,
    morph_vector,
    spikiness,
    trace_contour,
)


@dataclass(frozen=True)
class BoostFactors:
    """Per-class multiplicative boosts; exactly 1 outside the rare set."""

    factors: np.ndarray
    rare_indices: frozenset[int]

    def __post_init__(self):
        factors = np.asarray(self.factors, dtype=np.float64)
        factors.flags.writeable = False
        object.__setattr__(self, "factors", factors)
        if np.any(factors < 1.0) or not np.all(np.isfinite(factors)):
            raise ValidationError("boost factors must be finite and >= 1")
        for class_id, value in enumerate(factors):
            if class_id not in self.rare_indices and value != 1.0:
                raise ValidationError(
                    f"boost factor for non-rare class index {class_id} must be 1"
                )


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
        raw = math.log1p(counts.max_count / count)
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
    cannot be measured (empty mask, flat luminance) is denied with the
    measurement's error rather than erroring out: an unmeasurable cell must
    not be rescued.
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
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
) -> list[DecisionTrace]:
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
    verifier = med_table.matrix[med_rows, np.maximum(candidate, 0)]
    verified = np.flatnonzero(pursued & (verifier >= config.tau)).tolist()

    def filter_row(row: int) -> DecisionTrace:
        image_id = swin_table.ids[row]
        row_candidate = int(candidate[row])
        try:
            sample = sample_source(image_id)
        except SampleNotFoundError as exc:
            if not skip_missing:
                raise
            outcome = _denial(exc)
        else:
            outcome = phase3_filter(label_set.name_at(row_candidate), sample, gate, config)
        return DecisionTrace(image_id, int(base[row]), row_candidate, *outcome)

    traces = [
        DecisionTrace(image_id, b, c, Phase.FAILED_SEMANTIC)
        if p
        else DecisionTrace(image_id, b, None, Phase.NO_CANDIDATE)
        for image_id, b, c, p in zip(
            swin_table.ids, base.tolist(), candidate.tolist(), pursued.tolist()
        )
    ]
    for row, trace in zip(verified, parallel_map(filter_row, verified, threads)):
        traces[row] = trace
    return traces


def write_predictions_csv(path, traces: list[DecisionTrace], label_set: LabelSet) -> None:
    write_csv(
        path,
        ["image_id", "label"],
        ([trace.image_id, label_set.name_at(trace.final_label)] for trace in traces),
    )


def write_trace_csv(path, traces: list[DecisionTrace], label_set: LabelSet) -> None:
    """Audit CSV; fields the pipeline never evaluated stay empty."""
    write_csv(
        path,
        ["image_id", "base", "candidate", "phase", "spikiness", "mahalanobis", "final"],
        (
            [
                trace.image_id,
                label_set.name_at(trace.base_label),
                "" if trace.candidate is None else label_set.name_at(trace.candidate),
                trace.phase_reached.value,
                "" if trace.spikiness is None else f"{trace.spikiness:.9g}",
                "" if trace.mahalanobis is None else f"{trace.mahalanobis:.9g}",
                label_set.name_at(trace.final_label),
            ]
            for trace in traces
        ),
    )
