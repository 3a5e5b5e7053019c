import csv
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcrescue.core import LabelSet, ValidationError
from wbcrescue.metrics import (
    build_confusion,
    compute_metrics,
    evaluate,
    format_report,
    read_label_csv,
    write_confusion_csv,
)

import reference
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


def _confusion_loop_reference(truth, preds, num_classes):
    """The former per-pair `build_confusion`, kept as the oracle."""
    if len(truth) != len(preds):
        raise ValidationError(
            f"length mismatch: {len(truth)} truth labels vs {len(preds)} predictions"
        )
    if len(truth) == 0:
        raise ValidationError("no samples to evaluate")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(truth, preds):
        if not (0 <= t < num_classes and 0 <= p < num_classes):
            raise ValidationError(f"class id out of range: truth={t}, pred={p}")
        matrix[t, p] += 1
    return matrix


def _confusion_outcome(build):
    try:
        matrix = build()
    except ValidationError as exc:
        return "error", str(exc)
    return matrix.dtype, matrix.shape, matrix.tobytes()


@st.composite
def _label_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    # Mostly valid ids, with some out of range on either side.
    ids = st.one_of(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(-3, k + 3))
    truth = draw(st.lists(ids, max_size=40))
    preds = draw(st.lists(ids, min_size=len(truth), max_size=len(truth)))
    if draw(st.integers(0, 9)) == 0:
        preds = preds + draw(st.lists(ids, min_size=1, max_size=2))
    return truth, preds, k


@given(_label_pairs())
@settings(max_examples=300, deadline=None)
def test_build_confusion_matches_the_pair_loop(drawn):
    truth, preds, k = drawn
    assert _confusion_outcome(lambda: build_confusion(truth, preds, k)) == \
        _confusion_outcome(lambda: _confusion_loop_reference(truth, preds, k))


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


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.ones(3, dtype=int), "confusion matrix must be square"),
        (np.ones((2, 3), dtype=int), "confusion matrix must be square"),
        (np.array([[2, -1], [0, 1]]), "confusion matrix entries must be non-negative"),
    ],
    ids=["1-d", "2x3", "negative"],
)
def test_malformed_confusion_matrix_is_an_error(matrix, message):
    with pytest.raises(ValidationError, match=message):
        compute_metrics(matrix)


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


# A catalog whose names include one that is not a plain CSV field.
_LABELS = LabelSet(["SNE", "LY", "a b", 'q"t'])

# What sends a file to the row reader: each but "valid" is one row's flaw.
_LABEL_ROWS = ["valid", "unknown", "no id", "repeat", "quoted", "blank", "quote", "nul", "byte",
               "bare cr", "extra"]


@st.composite
def _label_csv(draw):
    """CSV text with the `image_id,label` header and up to 6 rows, ended by
    `\n` or `\r\n`, the last perhaps by nothing. Up to two rows send the
    file to the row reader."""
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    kinds = ["valid"] * draw(st.integers(min_value=0, max_value=6))
    for kind in draw(st.lists(st.sampled_from(_LABEL_ROWS), max_size=2)) if kinds else ():
        kinds[draw(st.integers(0, len(kinds) - 1))] = kind
    lines = ["image_id,label"]
    for row, kind in enumerate(kinds):
        image_id = draw(st.sampled_from(["a", "img 1", "#é", "b\x85"])) + str(row)
        label = draw(st.sampled_from(_LABELS.names))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "unknown":
            label = draw(st.sampled_from(["", "sne", "LY ", "PC", "SNEX", "a bc"]))
        elif kind == "no id":
            image_id = ""
        elif kind == "repeat":
            image_id = lines[-1].split(",")[0]
        elif kind == "quoted":
            image_id = '"' + draw(st.sampled_from(["a0", "x,y", 'q""t', "c\r\nd"])) + '"'
        elif kind in ("quote", "nul", "byte"):
            # "\udcff" is written as the byte 0xff, which is not UTF-8.
            image_id += {"quote": '"', "nul": "\x00", "byte": "\udcff"}[kind]
        elif kind == "extra":
            label += ",SNE"
        lines.append(f"{image_id},{label}")
    ends = [terminator] + ["\r" if kind == "bare cr" else terminator for kind in kinds]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    return "".join(line + end for line, end in zip(lines, ends))


def _label_pairs(path, label_set):
    """`read_label_csv` as the reference gives it: (id, class id) pairs."""
    ids, labels = read_label_csv(path, label_set)
    assert labels.dtype == np.int64
    return list(zip(ids, labels.tolist()))


def _label_outcome(read, path):
    try:
        return read(path, _LABELS)
    except ValidationError as exc:
        return str(exc)


@given(_label_csv())
# One example for each check on the bytes of a plain file: a blank line, a
# space-only line, an empty id, ids of 31, 32, 33 and 40 bytes, which a
# fixed-width text field would cut, characters that some readers split on or
# strip inside an id, a bare `\r`, an id at and one character over the `csv`
# size limit, and no final line end.
@example("image_id,label\na,SNE\n\nb,LY\n")
@example("image_id,label\na,SNE\r\n\r\nb,LY\r\n")
@example("image_id,label\na,SNE\n \nb,LY\n")
@example("image_id,label\n,SNE\nb,LY\n")
@example(f"image_id,label\n{'i' * 31},SNE\n")
@example(f"image_id,label\n{'i' * 32},SNE\n")
@example(f"image_id,label\n{'i' * 33},SNE\n")
@example(f"image_id,label\n{'i' * 33},SNE\n{'i' * 32},LY\n")
@example(f"image_id,label\n{'i' * 33},SNE\n{'i' * 33},LY\n")
@example(f"image_id,label\n{'i' * 40},SNE\n{'é' * 40},LY\n")
@example("image_id,label\na\x0bb,SNE\nc\x0c,LY\n")
@example("image_id,label\na\x1cb,SNE\n\x1f,LY\n")
@example("image_id,label\na\x85b,SNE\n\u2028,LY\n")
@example("image_id,label\na b,SNE\n c ,LY\n")
@example("image_id,label\na,SNE\rb,LY\n")
@example(f"image_id,label\n{'i' * csv.field_size_limit()},SNE\n")
@example(f"image_id,label\n{'i' * (csv.field_size_limit() + 1)},SNE\n")
@example("image_id,label\na,SNE\nb,LY")
@example("image_id,label\n\n\r\n")
# A label that starts with the longest name.
@example("image_id,label\na,SNEX\n")
@settings(max_examples=300, deadline=None)
def test_read_label_csv_matches_the_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
    expected = _label_outcome(reference.read_label_csv, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # `loadtxt` warns when it reads no row
        assert _label_outcome(_label_pairs, path) == expected


def test_a_catalog_name_ending_in_nul_matches_no_plain_label(tmp_path):
    labels = LabelSet(["A\x00", "B"])
    path = tmp_path / "labels.csv"
    path.write_text("image_id,label\nx,A\ny,B\n", encoding="utf-8")
    message = f"{path}:2: unknown label 'A'"
    assert _label_outcome(lambda p, _: reference.read_label_csv(p, labels), path) == message
    assert _label_outcome(lambda p, _: _label_pairs(p, labels), path) == message


# Every character a plain file may hold in a field.
_PLAIN_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters=',"\r\n\x00\x1c\x1d\x1e\x1f'),
                      min_size=1, max_size=40)


@given(
    names=st.lists(_PLAIN_TEXT, min_size=2, max_size=13, unique=True),
    terminator=st.sampled_from(["\n", "\r\n"]),
    last=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_plain_label_files_are_read_in_bulk(tmp_path_factory, names, terminator, last, data):
    """A plain file that holds every name of the catalog, the last-sorted one
    included, is read without the row reader, whatever its ids' lengths."""
    label_set = LabelSet(names)
    labels = data.draw(st.permutations(names + data.draw(st.lists(st.sampled_from(names),
                                                                  max_size=8))))
    ids = data.draw(st.lists(_PLAIN_TEXT, min_size=len(labels), max_size=len(labels),
                             unique=True))
    lines = ["image_id,label", *(f"{image_id},{label}" for image_id, label in zip(ids, labels))]
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_text(terminator.join(lines) + (terminator if last else ""), encoding="utf-8",
                    newline="")
    expected = reference.read_label_csv(path, label_set)
    with mock.patch("wbcrescue.metrics.read_keyed_csv",
                    side_effect=AssertionError("a plain file was read row by row")):
        assert _label_pairs(path, label_set) == expected


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
