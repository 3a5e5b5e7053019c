"""Macro-averaged evaluation metrics over a multiclass confusion matrix."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import (ClassId, LabelSet, ValidationError, join_ids, read_keyed_csv, read_plain_csv,
                   write_csv)


def build_confusion(
    truth: Sequence[ClassId], preds: Sequence[ClassId], num_classes: int
) -> np.ndarray:
    """K x K count matrix; rows are true classes, columns predictions."""
    if len(truth) != len(preds):
        raise ValidationError(
            f"length mismatch: {len(truth)} truth labels vs {len(preds)} predictions"
        )
    if len(truth) == 0:
        raise ValidationError("no samples to evaluate")
    t = np.asarray(truth, dtype=np.int64)
    p = np.asarray(preds, dtype=np.int64)
    bad = np.flatnonzero((t < 0) | (t >= num_classes) | (p < 0) | (p >= num_classes))
    if bad.size:
        row = int(bad[0])
        raise ValidationError(f"class id out of range: truth={truth[row]}, pred={preds[row]}")
    counts = np.bincount(t * num_classes + p, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes).astype(np.int64, copy=False)


class MetricsReport(NamedTuple):
    """Macro metrics plus the per-class table they average over.

    Per-class values with a zero denominator follow the usual toolkit
    conventions: precision/recall/F1 fall back to 0, specificity to 1, so
    classes absent from the evaluation drag the macro means down rather
    than becoming undefined.
    """

    macro_f1: float
    balanced_accuracy: float
    macro_precision: float
    macro_specificity: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    specificity: np.ndarray
    support: np.ndarray
    total: int


def compute_metrics(confusion: np.ndarray) -> MetricsReport:
    matrix = np.asarray(confusion)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("confusion matrix must be square")
    if np.any(matrix < 0):
        raise ValidationError("confusion matrix entries must be non-negative")
    total = int(matrix.sum())
    if total == 0:
        raise ValidationError("empty confusion matrix")
    k = matrix.shape[0]
    tp = np.diag(matrix).astype(np.float64)
    row_sums = matrix.sum(axis=1).astype(np.float64)
    col_sums = matrix.sum(axis=0).astype(np.float64)
    fn = row_sums - tp
    fp = col_sums - tp
    tn = total - tp - fn - fp

    precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
    recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
    f1 = np.where(2 * tp + fp + fn > 0, 2 * tp / np.maximum(2 * tp + fp + fn, 1), 0.0)
    specificity = np.where(tn + fp > 0, tn / np.maximum(tn + fp, 1), 1.0)
    for array in (precision, recall, f1, specificity):
        array.flags.writeable = False
    return MetricsReport(
        macro_f1=float(f1.mean()),
        balanced_accuracy=float(recall.mean()),
        macro_precision=float(precision.mean()),
        macro_specificity=float(specificity.mean()),
        precision=precision,
        recall=recall,
        f1=f1,
        specificity=specificity,
        support=matrix.sum(axis=1),
        total=total,
    )


def read_label_csv(path, label_set: LabelSet) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an `image_id,label` CSV as its ids and their int64 class ids,
    mapping labels through the catalog; ids must be non-empty and unique. A
    plain file (`core.read_plain_csv`) whose labels are all in the catalog
    is read in bulk; any other is read by the row reader, so every error is
    the row reader's."""
    plain = read_plain_csv(path, ["image_id", "label"], object)
    if plain is not None:
        index = dict(zip(label_set.names, range(len(label_set))))
        class_ids = np.array([index.get(label, -1) for label in plain[1][:, 0].tolist()],
                             dtype=np.int64)
        if (class_ids >= 0).all():
            return plain[0], class_ids
    return _read_label_rows(path, label_set)


def _read_label_rows(path, label_set: LabelSet) -> tuple[tuple[str, ...], np.ndarray]:
    ids: list[str] = []
    labels: list[ClassId] = []
    for lineno, (image_id, name) in read_keyed_csv(path, ["image_id", "label"]):
        if name not in label_set:
            raise ValidationError(f"{path}:{lineno}: unknown label {name!r}")
        ids.append(image_id)
        labels.append(label_set.index_of(name))
    if not ids:
        raise ValidationError(f"{path}: no rows")
    return tuple(ids), np.array(labels, dtype=np.int64)


def evaluate(pred_path, truth_path, label_set: LabelSet) -> tuple[MetricsReport, np.ndarray]:
    """Join predictions with ground truth on image_id and score them."""
    pred_ids, pred_labels = read_label_csv(pred_path, label_set)
    truth_ids, truth_labels = read_label_csv(truth_path, label_set)
    rows = join_ids(truth_ids, pred_ids, f"{pred_path}: missing predictions for ids",
                    f"{pred_path}: predictions for unknown ids")
    confusion = build_confusion(truth_labels, pred_labels[rows], len(label_set))
    return compute_metrics(confusion), confusion


def format_report(report: MetricsReport, label_set: LabelSet) -> str:
    """Fixed-precision text report, stable across runs."""
    lines = [
        f"samples: {report.total}",
        f"macro_f1: {report.macro_f1:.6f}",
        f"balanced_accuracy: {report.balanced_accuracy:.6f}",
        f"macro_precision: {report.macro_precision:.6f}",
        f"macro_specificity: {report.macro_specificity:.6f}",
        "",
        "class,precision,recall,f1,specificity,support",
    ]
    for class_id, name in enumerate(label_set):
        lines.append(
            f"{name},{report.precision[class_id]:.6f},{report.recall[class_id]:.6f},"
            f"{report.f1[class_id]:.6f},{report.specificity[class_id]:.6f},"
            f"{int(report.support[class_id])}"
        )
    return "\n".join(lines) + "\n"


def write_confusion_csv(path, confusion: np.ndarray, label_set: LabelSet) -> None:
    write_csv(
        path,
        ["true\\pred", *label_set.names],
        ([name, *confusion[class_id].tolist()] for class_id, name in enumerate(label_set)),
    )
