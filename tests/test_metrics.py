import numpy as np
import pytest

from wbcrescue.core import LabelSet, ValidationError
from wbcrescue.metrics import (
    build_confusion,
    compute_metrics,
    evaluate,
    format_report,
    read_label_csv,
    write_confusion_csv,
)

from synth import write_csv


def _brute_force_per_class(matrix):
    """First-principles per-class stats, independent of the library path."""
    k = len(matrix)
    total = sum(sum(row) for row in matrix)
    stats = []
    for c in range(k):
        tp = matrix[c][c]
        fn = sum(matrix[c]) - tp
        fp = sum(matrix[r][c] for r in range(k)) - tp
        tn = total - tp - fn - fp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        specificity = tn / (tn + fp) if tn + fp else 1.0
        stats.append((precision, recall, f1, specificity))
    return stats


def test_build_confusion_single_pair():
    assert build_confusion([0], [0], 2).tolist() == [[1, 0], [0, 0]]


def test_build_confusion_two_pairs():
    matrix = build_confusion([0, 1], [1, 1], 2)
    assert matrix[0, 1] == 1 and matrix[1, 1] == 1


def test_build_confusion_matches_tally():
    rng = np.random.default_rng(13)
    truth = rng.integers(0, 5, size=1000).tolist()
    preds = rng.integers(0, 5, size=1000).tolist()
    matrix = build_confusion(truth, preds, 5)
    tally = {}
    for t, p in zip(truth, preds):
        tally[(t, p)] = tally.get((t, p), 0) + 1
    for (t, p), count in tally.items():
        assert matrix[t, p] == count
    assert int(matrix.sum()) == 1000


def test_build_confusion_validates():
    with pytest.raises(ValidationError, match="length mismatch"):
        build_confusion([0], [0, 1], 2)
    with pytest.raises(ValidationError, match="out of range"):
        build_confusion([0], [5], 2)
    with pytest.raises(ValidationError):
        build_confusion([], [], 2)


def test_perfect_classifier_scores_one():
    matrix = np.diag([5, 3, 7])
    report = compute_metrics(matrix)
    assert report.macro_f1 == 1.0
    assert report.balanced_accuracy == 1.0
    assert report.macro_precision == 1.0
    assert report.macro_specificity == 1.0


def test_worked_two_class_fixture():
    report = compute_metrics(np.array([[8, 2], [1, 9]]))
    assert report.macro_precision == pytest.approx((8 / 9 + 9 / 11) / 2, abs=1e-12)
    assert report.balanced_accuracy == pytest.approx(0.85, abs=1e-12)
    assert report.macro_f1 == pytest.approx((16 / 19 + 18 / 21) / 2, abs=1e-12)
    assert report.macro_f1 == pytest.approx(0.8496, abs=5e-5)


def test_absent_class_conventions():
    matrix = np.zeros((3, 3), dtype=int)
    matrix[0, 0] = 10
    matrix[1, 1] = 4
    report = compute_metrics(matrix)
    assert report.precision[2] == 0.0
    assert report.recall[2] == 0.0
    assert report.f1[2] == 0.0
    assert report.specificity[2] == 1.0
    assert report.macro_f1 == pytest.approx(2 / 3, abs=1e-12)


def test_metrics_match_brute_force_on_random_matrices():
    rng = np.random.default_rng(29)
    for _ in range(25):
        matrix = rng.integers(0, 40, size=(13, 13))
        report = compute_metrics(matrix)
        expected = _brute_force_per_class(matrix.tolist())
        for c, (precision, recall, f1, specificity) in enumerate(expected):
            assert abs(report.precision[c] - precision) <= 1e-12
            assert abs(report.recall[c] - recall) <= 1e-12
            assert abs(report.f1[c] - f1) <= 1e-12
            assert abs(report.specificity[c] - specificity) <= 1e-12
        assert report.macro_f1 == pytest.approx(
            sum(e[2] for e in expected) / 13, abs=1e-12
        )


def test_sample_order_is_irrelevant():
    rng = np.random.default_rng(31)
    truth = rng.integers(0, 4, size=300)
    preds = rng.integers(0, 4, size=300)
    order = rng.permutation(300)
    a = compute_metrics(build_confusion(truth.tolist(), preds.tolist(), 4))
    b = compute_metrics(build_confusion(truth[order].tolist(), preds[order].tolist(), 4))
    assert a.macro_f1 == b.macro_f1
    assert a.balanced_accuracy == b.balanced_accuracy


def test_relabeling_equivariance():
    rng = np.random.default_rng(37)
    truth = rng.integers(0, 5, size=400).tolist()
    preds = rng.integers(0, 5, size=400).tolist()
    perm = rng.permutation(5).tolist()
    a = compute_metrics(build_confusion(truth, preds, 5))
    b = compute_metrics(
        build_confusion([perm[t] for t in truth], [perm[p] for p in preds], 5)
    )
    assert a.macro_f1 == pytest.approx(b.macro_f1, abs=1e-12)
    assert a.balanced_accuracy == pytest.approx(b.balanced_accuracy, abs=1e-12)
    assert a.macro_precision == pytest.approx(b.macro_precision, abs=1e-12)
    assert a.macro_specificity == pytest.approx(b.macro_specificity, abs=1e-12)


def test_specificity_dominates_on_imbalanced_fixture():
    # Dominant class predicted correctly; rare classes partly confused.
    matrix = np.array(
        [
            [500, 0, 0],
            [3, 5, 2],
            [4, 2, 4],
        ]
    )
    report = compute_metrics(matrix)
    assert report.macro_specificity >= report.balanced_accuracy


def test_empty_matrix_is_an_error():
    with pytest.raises(ValidationError, match="empty confusion matrix"):
        compute_metrics(np.zeros((3, 3), dtype=int))


# ------------------------------------------------------------- evaluate


def test_evaluate_identical_files(tmp_path, labels13):
    rows = [[f"img{i}", "LY" if i % 2 else "SNE"] for i in range(10)]
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], rows)
    truth = write_csv(tmp_path / "truth.csv", ["image_id", "label"], rows)
    report, confusion = evaluate(pred, truth, labels13)
    assert report.macro_specificity == 1.0
    # Absent catalog classes contribute recall 0 to the macro mean.
    assert report.balanced_accuracy == pytest.approx(2 / 13, abs=1e-12)
    assert int(confusion.sum()) == 10


def test_evaluate_single_disagreement(tmp_path):
    labels = LabelSet(["A", "B"])
    truth_rows = [[f"img{i}", "A" if i < 6 else "B"] for i in range(10)]
    pred_rows = [list(row) for row in truth_rows]
    pred_rows[0][1] = "B"
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], pred_rows)
    truth = write_csv(tmp_path / "truth.csv", ["image_id", "label"], truth_rows)
    report, confusion = evaluate(pred, truth, labels)
    assert confusion.tolist() == [[5, 1], [0, 4]]
    expected = compute_metrics(np.array([[5, 1], [0, 4]]))
    assert report.macro_f1 == expected.macro_f1


def test_evaluate_reports_missing_ids(tmp_path, labels13):
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], [["img0", "LY"]])
    truth = write_csv(
        tmp_path / "truth.csv", ["image_id", "label"], [["img0", "LY"], ["img1", "SNE"]]
    )
    with pytest.raises(ValidationError, match="missing predictions.*img1"):
        evaluate(pred, truth, labels13)


@pytest.mark.parametrize("side", ["missing", "unknown"])
def test_evaluate_names_five_mismatched_ids_sorted(tmp_path, labels13, side):
    shared = [["img0", "LY"]]
    odd = [[image_id, "SNE"] for image_id in "gfedcba"]
    pred_rows, truth_rows = (shared, shared + odd) if side == "missing" else (shared + odd, shared)
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], pred_rows)
    truth = write_csv(tmp_path / "truth.csv", ["image_id", "label"], truth_rows)
    wording = "missing predictions for" if side == "missing" else "predictions for unknown"
    with pytest.raises(ValidationError) as raised:
        evaluate(pred, truth, labels13)
    assert str(raised.value) == f"{pred}: {wording} ids ['a', 'b', 'c', 'd', 'e']..."


@pytest.mark.parametrize("empty_in", ["pred", "truth"])
def test_evaluate_rejects_an_empty_id(tmp_path, labels13, empty_in):
    rows = {"pred": [["img0", "LY"]], "truth": [["img0", "LY"]]}
    rows[empty_in].append(["", "SNE"])
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], rows["pred"])
    truth = write_csv(tmp_path / "truth.csv", ["image_id", "label"], rows["truth"])
    with pytest.raises(ValidationError) as raised:
        evaluate(pred, truth, labels13)
    assert str(raised.value) == f"{pred if empty_in == 'pred' else truth}:3: empty image_id"


def test_read_label_csv_rejects_unknown_label(tmp_path, labels13):
    path = write_csv(tmp_path / "pred.csv", ["image_id", "label"], [["img0", "nope"]])
    with pytest.raises(ValidationError, match="unknown label"):
        read_label_csv(path, labels13)


def test_report_formatting_is_fixed_precision(tmp_path):
    labels = LabelSet(["A", "B"])
    report = compute_metrics(np.array([[8, 2], [1, 9]]))
    text = format_report(report, labels)
    assert text.splitlines()[0] == "samples: 20"
    assert "macro_f1: 0.849624" in text
    assert text.splitlines()[-1].startswith("B,")
    assert text == format_report(report, labels)


def test_confusion_csv(tmp_path):
    labels = LabelSet(["A", "B"])
    path = tmp_path / "cm.csv"
    write_confusion_csv(path, np.array([[8, 2], [1, 9]]), labels)
    assert path.read_text().splitlines() == [
        "true\\pred,A,B",
        "A,8,2",
        "B,1,9",
    ]
