"""The rescue pipeline: rarity boosting surfaces a candidate, a second
classifier branch verifies it semantically, and shape filters grant or deny
the final label swap."""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ClassCounts,
    ClassId,
    DecisionTrace,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
)
from .ingest import CellSample, ProbTable, SampleNotFoundError
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
) -> tuple[ClassId, ClassId | None]:
    """Base argmax plus the boosted argmax, if the latter lands on a rare
    class. Ties break to the lowest class index."""
    probs = np.asarray(p_swin, dtype=np.float64)
    base = int(np.argmax(probs))
    boosted = probs * boosts.factors
    top = int(np.argmax(boosted))
    return base, (top if top in boosts.rare_indices else None)


def phase2_verify(p_med: np.ndarray, candidate: ClassId, tau: float) -> bool:
    """Candidate survives when the verifier branch rates it at least tau."""
    return float(np.asarray(p_med)[candidate]) >= tau


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


def suppress_and_rescue(
    image_id: str,
    p_swin: np.ndarray,
    p_med: np.ndarray,
    sample: CellSample | None = None,
    *,
    boosts: BoostFactors,
    gate: GaussianGate | None,
    config: RescueConfig,
    label_set: LabelSet,
    sample_loader: Callable[[str], CellSample] | None = None,
    missing_sample_ok: bool = False,
) -> DecisionTrace:
    """Run the full three-phase decision for one image.

    The sample (or a loader for it) is consulted only when a candidate
    survives semantic verification. A rare base prediction is never
    displaced: when boosting surfaces a different rare class than an
    already-rare base label, no candidate is pursued.
    """
    if len(p_swin) != len(label_set) or len(p_med) != len(label_set):
        raise ValidationError(f"{image_id}: probability vectors do not match catalog")
    base, candidate = phase1_candidate(p_swin, boosts)
    if candidate is None or (base in boosts.rare_indices and candidate != base):
        return DecisionTrace(image_id, base, None, Phase.NO_CANDIDATE, None, None, base)
    if not phase2_verify(p_med, candidate, config.tau):
        return DecisionTrace(
            image_id, base, candidate, Phase.FAILED_SEMANTIC, None, None, base
        )
    if sample is None:
        if sample_loader is None:
            raise ValidationError(
                f"{image_id}: sample required for morphological filtering"
            )
        try:
            sample = sample_loader(image_id)
        except SampleNotFoundError as exc:
            if not missing_sample_ok:
                raise
            return DecisionTrace(
                image_id,
                base,
                candidate,
                Phase.FAILED_MORPHOLOGY,
                None,
                None,
                base,
                error=str(exc),
            )
    result = phase3_filter(label_set.name_at(candidate), sample, gate, config)
    if result.passed:
        return DecisionTrace(
            image_id,
            base,
            candidate,
            Phase.RESCUED,
            result.spikiness,
            result.mahalanobis,
            candidate,
        )
    return DecisionTrace(
        image_id,
        base,
        candidate,
        Phase.FAILED_MORPHOLOGY,
        result.spikiness,
        result.mahalanobis,
        base,
        error=result.error,
    )


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
    sample_source: Callable[[str], CellSample],
    counts: ClassCounts,
    gate: GaussianGate | None,
    config: RescueConfig,
    *,
    skip_missing: bool = False,
    threads: int = 1,
) -> list[DecisionTrace]:
    """Decide every image in the primary table, in table order.

    Samples are loaded lazily (only for images whose candidate reaches the
    shape filters). Images may be processed concurrently; output order is
    the input order regardless.
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

    def decide(row: tuple[str, np.ndarray]) -> DecisionTrace:
        image_id, p_swin = row
        return suppress_and_rescue(
            image_id,
            p_swin,
            med_table.probs_for(image_id),
            boosts=boosts,
            gate=gate,
            config=config,
            label_set=label_set,
            sample_loader=sample_source,
            missing_sample_ok=skip_missing,
        )

    return parallel_map(decide, swin_table.rows, threads)


def write_predictions_csv(path, traces: list[DecisionTrace], label_set: LabelSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["image_id", "label"])
        for trace in traces:
            writer.writerow([trace.image_id, label_set.name_at(trace.final_label)])


def write_trace_csv(path, traces: list[DecisionTrace], label_set: LabelSet) -> None:
    """Audit CSV; fields the pipeline never evaluated stay empty."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["image_id", "base", "candidate", "phase", "spikiness", "mahalanobis", "final"]
        )
        for trace in traces:
            writer.writerow(
                [
                    trace.image_id,
                    label_set.name_at(trace.base_label),
                    "" if trace.candidate is None else label_set.name_at(trace.candidate),
                    trace.phase_reached.value,
                    "" if trace.spikiness is None else f"{trace.spikiness:.9g}",
                    "" if trace.mahalanobis is None else f"{trace.mahalanobis:.9g}",
                    label_set.name_at(trace.final_label),
                ]
            )
