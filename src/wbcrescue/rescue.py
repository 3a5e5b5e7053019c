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
    ClassCounts,
    DecisionTrace,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
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


@dataclass(frozen=True)
class Phase3Result:
    passed: bool
    spikiness: float | None = None
    mahalanobis: float | None = None
    error: str | None = None


# Shape filters are keyed by class name: irregular-contour screening for
# prolymphocytes, distribution gating for plasma cells.
SPIKY_CLASS = "PLY"
GATED_CLASS = "PC"
FILTERED_CLASSES = frozenset({SPIKY_CLASS, GATED_CLASS})


def phase3_filter(
    candidate_name: str,
    sample: CellSample,
    gate: GaussianGate | None,
    config: RescueConfig,
) -> Phase3Result:
    """Apply the class-specific shape filter.

    A sample whose morphology cannot be measured (empty mask, flat
    luminance) fails the filter rather than erroring out: an unmeasurable
    cell must not be rescued.
    """
    if candidate_name == SPIKY_CLASS:
        try:
            score = spikiness(trace_contour(sample.mask))
        except ValidationError as exc:
            return Phase3Result(False, error=str(exc))
        return Phase3Result(score > config.tau_s, spikiness=score)
    if candidate_name == GATED_CLASS:
        if gate is None:
            raise ValidationError(
                f"gate model required to filter {GATED_CLASS} candidates"
            )
        try:
            vector = morph_vector(sample)
        except ValidationError as exc:
            return Phase3Result(False, error=str(exc))
        distance = mahalanobis(gate, vector)
        return Phase3Result(distance <= config.tau_m, mahalanobis=distance)
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
    missing = [image_id for image_id in swin_table.ids if image_id not in med_table]
    if missing:
        raise ValidationError(
            f"image ids missing from verifier table: {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    extra = [image_id for image_id in med_table.ids if image_id not in swin_table]
    if extra:
        raise ValidationError(
            f"verifier table has ids absent from the primary table: {extra[:5]}"
            + ("..." if len(extra) > 5 else "")
        )
    boosts = compute_boost_factors(label_set, counts, config)
    base, candidate = phase1_candidate(swin_table.matrix, boosts)
    # A rare base prediction is never displaced: when boosting surfaces a
    # different rare class than an already-rare base label, no candidate is
    # pursued.
    rare_base = np.isin(base, sorted(boosts.rare_indices))
    pursued = (candidate >= 0) & ~(rare_base & (candidate != base))
    p_med = med_table.aligned_to(swin_table.ids)
    verifier = p_med[np.arange(len(p_med)), np.maximum(candidate, 0)]
    verified = np.flatnonzero(pursued & (verifier >= config.tau)).tolist()

    def filter_row(row: int) -> DecisionTrace:
        image_id = swin_table.ids[row]
        row_base, row_candidate = int(base[row]), int(candidate[row])
        try:
            sample = sample_source(image_id)
        except SampleNotFoundError as exc:
            if not skip_missing:
                raise
            result = Phase3Result(False, error=str(exc))
        else:
            result = phase3_filter(label_set.name_at(row_candidate), sample, gate, config)
        return DecisionTrace(
            image_id,
            row_base,
            row_candidate,
            Phase.RESCUED if result.passed else Phase.FAILED_MORPHOLOGY,
            result.spikiness,
            result.mahalanobis,
            row_candidate if result.passed else row_base,
            error=result.error,
        )

    traces = [
        DecisionTrace(image_id, b, c, Phase.FAILED_SEMANTIC, None, None, b)
        if p
        else DecisionTrace(image_id, b, None, Phase.NO_CANDIDATE, None, None, b)
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
