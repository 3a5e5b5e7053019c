from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wbcrescue.core import ENTRY_EPSILON, SUM_DELTA, LabelSet, ValidationError, read_csv
from wbcrescue.ingest import (
    DirectorySampleSource,
    ProbTable,
    SampleNotFoundError,
    average_prob_tables,
    find_image,
    list_image_ids,
    load_cell_sample,
    parse_class_counts,
    parse_prob_table,
    write_prob_table,
)
from wbcrescue.netpbm import read_pnm, write_pnm

from synth import write_csv


@pytest.fixture
def labels2():
    return LabelSet(["SNE", "LY"])


# ---------------------------------------------------------------- netpbm


def test_ppm_round_trip(tmp_path):
    pixels = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    path = tmp_path / "img.ppm"
    write_pnm(path, pixels)
    assert np.array_equal(read_pnm(path), pixels)


def test_pgm_round_trip(tmp_path):
    gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img.pgm"
    write_pnm(path, gray)
    assert np.array_equal(read_pnm(path), gray)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 # width\n2\n255\n\x01\x02\x03\x04")
    assert np.array_equal(read_pnm(path), np.array([[1, 2], [3, 4]], dtype=np.uint8))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "img.pbm"
    path.write_bytes(b"P4\n2 2\n")
    with pytest.raises(ValidationError, match="unsupported magic number"):
        read_pnm(path)


def test_wrong_maxval_rejected(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValidationError, match="maxval"):
        read_pnm(path)


def test_truncated_raster_rejected(tmp_path):
    # Declared sizes far beyond the file must fail the same way, without
    # allocating the declared raster.
    path = tmp_path / "img.pgm"
    for header, expected in [
        (b"P5\n2 2\n255\n", 4),
        (b"P5\n100000 100000\n255\n", 10**10),
        (b"P6\n4000000000 4000000000\n255\n", 48 * 10**18),
    ]:
        path.write_bytes(header + b"\x00\x00")
        with pytest.raises(ValidationError, match=rf"truncated raster \(2 of {expected} bytes\)"):
            read_pnm(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pnm(tmp_path / "nope.pgm")


# ----------------------------------------------------------- cell samples


def _write_sample(tmp_path, gray_rows, mask_rows):
    image = np.array(gray_rows, dtype=np.uint8)
    mask = np.array(mask_rows, dtype=np.uint8)
    image_path = tmp_path / "cell.pgm"
    mask_path = tmp_path / "cell_mask.pgm"
    write_pnm(image_path, image)
    write_pnm(mask_path, mask)
    return image_path, mask_path


def test_load_cell_sample_promotes_grayscale(tmp_path):
    image_path, mask_path = _write_sample(
        tmp_path, [[7, 8], [9, 10]], [[255, 255], [255, 255]]
    )
    sample = load_cell_sample(image_path, mask_path, "cell")
    assert sample.pixels.shape == (2, 2, 3)
    assert tuple(sample.pixels[0, 0]) == (7, 7, 7)
    assert sample.pixels.flags.c_contiguous
    assert int(sample.mask.sum()) == 4


def test_full_mask_counts_all_foreground(tmp_path):
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    mask = np.full((4, 4), 255, dtype=np.uint8)
    write_pnm(tmp_path / "c.ppm", image)
    write_pnm(tmp_path / "m.pgm", mask)
    sample = load_cell_sample(tmp_path / "c.ppm", tmp_path / "m.pgm", "c")
    assert sample.pixels.flags.c_contiguous
    assert int(sample.mask.sum()) == 16


def test_mask_binarization_threshold(tmp_path):
    image_path, mask_path = _write_sample(
        tmp_path, [[0, 0], [0, 0]], [[127, 128], [0, 255]]
    )
    sample = load_cell_sample(image_path, mask_path, "cell")
    assert sample.mask.tolist() == [[False, True], [False, True]]
    assert sample.mask.dtype == np.bool_


def test_dimension_mismatch_rejected(tmp_path):
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    mask = np.full((3, 3), 255, dtype=np.uint8)
    write_pnm(tmp_path / "c.ppm", image)
    write_pnm(tmp_path / "m.pgm", mask)
    with pytest.raises(ValidationError, match="dimension mismatch"):
        load_cell_sample(tmp_path / "c.ppm", tmp_path / "m.pgm", "c")


def test_rgb_mask_rejected(tmp_path):
    image = np.zeros((2, 2, 3), dtype=np.uint8)
    write_pnm(tmp_path / "c.ppm", image)
    write_pnm(tmp_path / "m.ppm", image)
    with pytest.raises(ValidationError, match="mask must be P5"):
        load_cell_sample(tmp_path / "c.ppm", tmp_path / "m.ppm", "c")


# --------------------------------------------------------- prob tables


def test_parse_prob_table_happy_path(tmp_path, labels2):
    path = write_csv(tmp_path / "p.csv", ["image_id", "SNE", "LY"], [["img1", "0.7", "0.3"]])
    table = parse_prob_table(path, labels2)
    assert table.ids == ("img1",)
    assert table.matrix[table.ids.index("img1")].sum() == pytest.approx(1.0, abs=1e-12)


def test_parse_prob_table_rejects_header_mismatch(tmp_path, labels2):
    path = write_csv(tmp_path / "p.csv", ["image_id", "LY", "SNE"], [["img1", "0.7", "0.3"]])
    with pytest.raises(ValidationError, match="header mismatch"):
        parse_prob_table(path, labels2)


def test_parse_prob_table_rejects_bad_sum(tmp_path, labels2):
    path = write_csv(tmp_path / "p.csv", ["image_id", "SNE", "LY"], [["img1", "0.5", "0.4"]])
    with pytest.raises(ValidationError, match="probability sum out of tolerance"):
        parse_prob_table(path, labels2)


def test_parse_prob_table_renormalizes_small_drift(tmp_path, labels2):
    path = write_csv(
        tmp_path / "p.csv", ["image_id", "SNE", "LY"], [["img1", "0.70005", "0.29945"]]
    )
    table = parse_prob_table(path, labels2)
    total = 0.70005 + 0.29945
    expected = np.array([0.70005 / total, 0.29945 / total])
    assert np.allclose(table.matrix[table.ids.index("img1")], expected, atol=1e-12)


def test_parse_prob_table_names_bad_cell(tmp_path, labels2):
    path = write_csv(tmp_path / "p.csv", ["image_id", "SNE", "LY"], [["img1", "0.7", "x"]])
    with pytest.raises(ValidationError, match=r"p\.csv:2: column LY: non-numeric"):
        parse_prob_table(path, labels2)
    # A quoted id spanning lines 2-3 puts the bad row on physical line 4.
    multiline = tmp_path / "q.csv"
    multiline.write_text('image_id,SNE,LY\n"a\nb",0.7,0.3\nimg1,0.7,x\n', encoding="utf-8")
    with pytest.raises(ValidationError, match=r"q\.csv:4: column LY: non-numeric"):
        parse_prob_table(multiline, labels2)


def test_parse_prob_table_rejects_duplicate_id(tmp_path, labels2):
    path = write_csv(
        tmp_path / "p.csv",
        ["image_id", "SNE", "LY"],
        [["img1", "0.7", "0.3"], ["img1", "0.2", "0.8"]],
    )
    with pytest.raises(ValidationError, match="duplicate image_id"):
        parse_prob_table(path, labels2)


def test_parse_prob_table_accepts_crlf(tmp_path, labels2):
    path = tmp_path / "p.csv"
    path.write_bytes(b"image_id,SNE,LY\r\nimg1,0.6,0.4\r\n")
    table = parse_prob_table(path, labels2)
    assert table.matrix[table.ids.index("img1")][0] == pytest.approx(0.6, abs=1e-12)


def test_prob_table_serialization_round_trip(tmp_path, labels2):
    rng = np.random.default_rng(3)
    rows = []
    for i in range(20):
        probs = rng.random(2) + 1e-3
        probs /= probs.sum()
        rows.append([f"img{i}", f"{probs[0]:.9f}", f"{probs[1]:.9f}"])
    original = parse_prob_table(write_csv(tmp_path / "a.csv", ["image_id", "SNE", "LY"], rows), labels2)
    write_prob_table(tmp_path / "b.csv", original)
    reparsed = parse_prob_table(tmp_path / "b.csv", labels2)
    assert reparsed.ids == original.ids
    for image_id, probs in zip(original.ids, original.matrix):
        assert np.allclose(reparsed.matrix[reparsed.ids.index(image_id)], probs, atol=1e-9)



def _normalize_row_reference(values, where):
    """The former per-row `core.normalize_probs`."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where}: non-finite probability value")
    if np.any(arr < 0.0) or np.any(arr > 1.0 + ENTRY_EPSILON):
        raise ValidationError(f"{where}: probability entry out of range [0, 1]")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_DELTA:
        raise ValidationError(f"{where}: probability sum out of tolerance (got {total:.6f})")
    return arr / total


def _parse_prob_table_rows_reference(path, label_set):
    """The former row-by-row `parse_prob_table`, kept as the oracle: each row
    is converted and checked before the next one is read."""
    ids = []
    rows = []
    seen = set()
    for lineno, row in read_csv(path, ["image_id", *label_set.names]):
        image_id = row[0]
        if not image_id:
            raise ValidationError(f"{path}:{lineno}: empty image_id")
        if image_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate image_id {image_id!r}")
        seen.add(image_id)
        values = np.empty(len(label_set), dtype=np.float64)
        for column, cell in enumerate(row[1:]):
            try:
                values[column] = float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: column {label_set.name_at(column)}: "
                    f"non-numeric value {cell!r}"
                ) from None
        ids.append(image_id)
        rows.append(_normalize_row_reference(values, f"{path}:{lineno}"))
    return ProbTable(label_set, ids, np.reshape(rows, (len(ids), len(label_set))))


def _parse_outcome(parse, path, label_set):
    """(ids, matrix bytes) of a parsed table, or its error message."""
    try:
        table = parse(path, label_set)
    except ValidationError as exc:
        return "error", str(exc)
    assert table.matrix.shape == (len(table.ids), len(label_set))
    return table.ids, table.matrix.tobytes()


_ODD_CELLS = [
    "nan", "inf", "-inf", "-0.0", "1_0", " 0.5", "0.5 ", "1e-3", "x", "", "0x1", "1.5",
    "-0.1", "1.0000005", "1.00001", "1e309", "٠.٥", "1e", "--1", ".", "1.2.3",
]

# Mostly ids that need quoting; few enough that ids repeat.
_QUOTED_IDS = ["a", "b", "a,b", 'q"t', "c\rd", "e\nf", "g\r\nh", " "]


@st.composite
def _prob_csv(draw):
    """(label set, CSV text) of up to 8 rows: mostly valid, some blank, some
    with a bad cell, a drifted sum, an empty, repeated or quoted id, or one
    cell too few or too many."""
    k = draw(st.integers(min_value=2, max_value=40))
    lines = ["image_id," + ",".join(f"C{i}" for i in range(k))]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(
            ["valid"] * 6 + ["blank", "odd", "odd", "scaled", "short", "long", "no id"]
        ))
        if kind == "blank":
            lines.append("")
            continue
        image_id = draw(st.sampled_from(_QUOTED_IDS))
        if kind == "no id":
            image_id = ""
        weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
        scale = draw(st.sampled_from([1.0, 1.0009, 0.9991, 1.0011, 0.9989, 0.5, 2.0]))
        if kind != "scaled":
            scale = 1.0
        cells = [repr(scale * w / sum(weights)) for w in weights]
        if kind == "odd":
            cells[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append("0")
        lines.append(",".join(['"' + image_id.replace('"', '""') + '"', *cells]))
    return LabelSet([f"C{i}" for i in range(k)]), draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@given(_prob_csv())
@settings(max_examples=400, deadline=None)
def test_parse_prob_table_matches_row_reference(tmp_path_factory, inputs):
    label_set, text = inputs
    path = tmp_path_factory.mktemp("prob") / "p.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = _parse_outcome(_parse_prob_table_rows_reference, path, label_set)
    assert _parse_outcome(parse_prob_table, path, label_set) == expected


@pytest.mark.parametrize(
    "later",
    [
        b"c,0.5",  # a wrong column count, raised inside read_csv
        b"a,0.5,0.5",  # a repeated id
        b"d,0.5,x",  # a non-numeric cell
        b"e\xff,0.5,0.5",  # bytes that are not UTF-8, raised inside read_csv
    ],
    ids=["columns", "repeat", "cell", "utf8"],
)
def test_parse_prob_table_reports_the_earliest_of_two_bad_rows(tmp_path, labels2, later):
    path = tmp_path / "p.csv"
    path.write_bytes(b"image_id,SNE,LY\na,0.5,0.5\nb,0.5,0.4\nc,0.5,0.5\n" + later + b"\n")
    message = f"{path}:3: probability sum out of tolerance (got 0.900000)"
    assert _parse_outcome(_parse_prob_table_rows_reference, path, labels2) == ("error", message)
    assert _parse_outcome(parse_prob_table, path, labels2) == ("error", message)


def test_parse_prob_table_names_the_line_of_bytes_that_are_not_utf8(tmp_path, labels2):
    path = tmp_path / "p.csv"
    path.write_bytes(b"image_id,SNE,LY\na,0.5,0.5\n\"b\n\",0.5,0.5\ne\xff,0.5,0.5\nf,0.5,0.5\n")
    message = f"{path}:5: not UTF-8 text"
    assert _parse_outcome(parse_prob_table, path, labels2) == ("error", message)


def _row_table_reference(label_set, rows):
    """The former row-by-row ProbTable constructor, kept as the oracle:
    (ids, matrix) of (image_id, probs) pairs, or its ValidationError."""
    index = {}
    vectors = []
    for image_id, probs in rows:
        if image_id in index:
            raise ValidationError(f"duplicate image_id {image_id!r}")
        if len(probs) != len(label_set):
            raise ValidationError(
                f"{image_id}: probability vector length {len(probs)} "
                f"does not match catalog size {len(label_set)}"
            )
        index[image_id] = len(vectors)
        vectors.append(probs)
    matrix = np.array(vectors, dtype=np.float64).reshape(len(vectors), len(label_set))
    return tuple(index), matrix


@st.composite
def _table_inputs(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    # A small id alphabet makes repeats, including several of them, common.
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "img1", "img10", ""]), max_size=12))
    width = k + draw(st.sampled_from([0, 0, 0, -1, 1]))
    matrix = draw(hnp.arrays(np.float64, (len(ids), width), elements=st.floats(width=64)))
    return LabelSet([f"C{i}" for i in range(k)]), ids, matrix


def _outcome(build):
    """(ids, shape, matrix bits) of the (ids, matrix) that `build` returns,
    or its error message."""
    try:
        ids, matrix = build()
    except ValidationError as exc:
        return "error", str(exc)
    assert matrix.dtype == np.float64
    return ids, matrix.shape, matrix.tobytes()


@given(_table_inputs())
@settings(max_examples=300, deadline=None)
def test_constructor_matches_row_reference(inputs):
    label_set, ids, matrix = inputs
    expected = _outcome(lambda: _row_table_reference(label_set, zip(ids, matrix)))
    actual = _outcome(lambda: attrgetter("ids", "matrix")(ProbTable(label_set, ids, matrix)))
    if not ids and matrix.shape[1] != len(label_set):
        # Zero rows give the reference no width to check; the matrix's
        # own shape still does.
        assert expected[0] == () and actual[0] == "error"
    elif expected[0] == "error" and "duplicate" not in expected[1]:
        # Width errors differ in wording: one row's length, or the shape.
        assert actual[0] == "error" and "shape" in actual[1]
    else:
        assert actual == expected


def test_constructor_checks_shape_and_repeats(labels2):
    with pytest.raises(ValidationError, match="duplicate image_id 'b'"):
        ProbTable(labels2, ["a", "b", "b", "a"], np.zeros((4, 2)))
    with pytest.raises(ValidationError, match="shape"):
        ProbTable(labels2, ["a", "b"], np.zeros((3, 2)))
    with pytest.raises(ValidationError, match="shape"):
        ProbTable(labels2, ["a", "b"], np.zeros(4))
    empty = ProbTable(labels2, [], np.empty((0, 2)))
    assert len(empty) == 0 and empty.matrix.shape == (0, 2) and "a" not in empty.ids


def test_table_matrix_is_a_read_only_copy(labels2):
    source = np.array([[0.25, 0.75], [0.5, 0.5]])
    table = ProbTable(labels2, ["a", "b"], source)
    with pytest.raises(ValueError):
        table.matrix[0, 0] = 1.0
    source[0, 0] = 9.0
    rows = [[0.125, 0.875]]
    listed = ProbTable(labels2, ["c"], rows)
    rows[0][0] = 9.0
    assert table.matrix.tolist() == [[0.25, 0.75], [0.5, 0.5]]
    assert listed.matrix.tolist() == [[0.125, 0.875]]
    # Another table's read-only matrix is accepted, and copied again.
    again = ProbTable(labels2, table.ids, table.matrix)
    assert not again.matrix.flags.writeable and again.matrix is not table.matrix
    assert list(again.matrix[[1, 0]].ravel()) == [0.5, 0.5, 0.25, 0.75]


# ---------------------------------------------------------- class counts


def test_parse_class_counts_census(tmp_path):
    labels = LabelSet(["SNE", "PC", "PLY"])
    path = write_csv(
        tmp_path / "c.csv", ["class", "count"],
        [["SNE", "17354"], ["PC", "90"], ["PLY", "14"]],
    )
    counts = parse_class_counts(path, labels)
    assert counts.counts == (17354, 90, 14)


def test_parse_class_counts_uniform(tmp_path, labels2):
    path = write_csv(tmp_path / "c.csv", ["class", "count"], [["SNE", "100"], ["LY", "100"]])
    assert parse_class_counts(path, labels2).counts == (100, 100)


def test_parse_class_counts_missing_class(tmp_path):
    labels = LabelSet(["SNE", "PLY"])
    path = write_csv(tmp_path / "c.csv", ["class", "count"], [["SNE", "10"]])
    with pytest.raises(ValidationError, match="missing count for class PLY"):
        parse_class_counts(path, labels)


def test_parse_class_counts_rejects_bad_rows(tmp_path, labels2):
    bad_name = write_csv(tmp_path / "a.csv", ["class", "count"], [["XX", "1"], ["LY", "2"]])
    with pytest.raises(ValidationError, match="unknown class name"):
        parse_class_counts(bad_name, labels2)
    negative = write_csv(tmp_path / "b.csv", ["class", "count"], [["SNE", "-1"], ["LY", "2"]])
    with pytest.raises(ValidationError, match="negative count"):
        parse_class_counts(negative, labels2)
    fractional = write_csv(tmp_path / "c.csv", ["class", "count"], [["SNE", "1.5"], ["LY", "2"]])
    with pytest.raises(ValidationError, match="non-integer count"):
        parse_class_counts(fractional, labels2)


# --------------------------------------------------------------- fusion


def _table(labels2, rows):
    return ProbTable(labels2, [image_id for image_id, _ in rows], [values for _, values in rows])


def test_average_single_table_is_identity(labels2):
    table = _table(labels2, [("img1", [0.8, 0.2])])
    merged = average_prob_tables([table])
    assert np.allclose(merged.matrix[merged.ids.index("img1")], [0.8, 0.2])


def test_average_two_tables(labels2):
    a = _table(labels2, [("img1", [0.8, 0.2])])
    b = _table(labels2, [("img1", [0.6, 0.4])])
    merged = average_prob_tables([a, b])
    assert np.allclose(merged.matrix[merged.ids.index("img1")], [0.7, 0.3], atol=1e-15)


def test_average_matches_brute_force(labels2):
    rng = np.random.default_rng(11)
    ids = [f"img{i}" for i in range(8)]
    tables = []
    for _ in range(5):
        rows = []
        for image_id in ids:
            probs = rng.random(2) + 1e-6
            rows.append(probs / probs.sum())
        tables.append(ProbTable(labels2, ids, rows))
    merged = average_prob_tables(tables)
    for image_id in ids:
        expected = [0.0, 0.0]
        for table in tables:
            row = table.matrix[table.ids.index(image_id)]
            expected[0] += row[0]
            expected[1] += row[1]
        expected = [value / 5 for value in expected]
        assert np.allclose(merged.matrix[merged.ids.index(image_id)], expected, atol=1e-12)
        assert abs(merged.matrix[merged.ids.index(image_id)].sum() - 1.0) <= 1e-3


@given(count=st.integers(1, 12), rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_average_is_np_mean_of_the_rows_joined_by_id(count, rows, seed):
    rng = np.random.default_rng(seed)
    labels = LabelSet(["C0", "C1", "C2"])
    ids = [f"img{i}" for i in range(rows)]
    matrices = [rng.dirichlet(np.ones(3), size=rows) for _ in range(count)]
    orders = [rng.permutation(rows) for _ in range(count)]
    tables = [ProbTable(labels, [ids[r] for r in order], matrix[order])
              for matrix, order in zip(matrices, orders)]
    merged = average_prob_tables(tables)
    assert merged.ids == tables[0].ids
    expected = np.mean([matrix[orders[0]] for matrix in matrices], axis=0)
    assert np.array_equal(merged.matrix, expected)


def test_average_keeps_first_table_order(labels2):
    a = _table(labels2, [("b", [0.5, 0.5]), ("a", [0.4, 0.6])])
    b = _table(labels2, [("a", [0.4, 0.6]), ("b", [0.5, 0.5])])
    assert average_prob_tables([a, b]).ids == ("b", "a")


def test_average_rejects_id_mismatch(labels2):
    a = _table(labels2, [("img1", [0.5, 0.5])])
    b = _table(labels2, [("img2", [0.5, 0.5])])
    with pytest.raises(ValidationError, match="disagree on image ids"):
        average_prob_tables([a, b])


def test_average_names_the_table_that_lacks_ids(labels2):
    # Seven ids that only one table holds, out of order: the first five
    # sorted are named.
    first = _table(labels2, [(image_id, [0.5, 0.5]) for image_id in "gfedcba"])
    second = _table(labels2, [("z", [0.5, 0.5])])
    third = _table(labels2, [(image_id, [0.5, 0.5]) for image_id in "gfedcbaqponmlk"])
    message = "probability tables disagree on image ids: table {} lacks {}..."
    with pytest.raises(ValidationError) as lacks_second:
        average_prob_tables([first, second])
    assert str(lacks_second.value) == message.format(2, "['a', 'b', 'c', 'd', 'e']")
    with pytest.raises(ValidationError) as lacks_first:
        average_prob_tables([first, first, third])
    assert str(lacks_first.value) == message.format(1, "['k', 'l', 'm', 'n', 'o']")


def test_average_rejects_catalog_mismatch(labels2):
    other = LabelSet(["SNE", "VLY"])
    a = _table(labels2, [("img1", [0.5, 0.5])])
    b = ProbTable(other, ["img1"], [[0.5, 0.5]])
    with pytest.raises(ValidationError, match="different label catalogs"):
        average_prob_tables([a, b])


def test_average_requires_input():
    with pytest.raises(ValidationError):
        average_prob_tables([])


# -------------------------------------------------------- sample source


def test_directory_source_finds_and_misses(tmp_path):
    images = tmp_path / "images"
    masks = tmp_path / "masks"
    images.mkdir()
    masks.mkdir()
    write_pnm(images / "a.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
    write_pnm(masks / "a.pgm", np.full((2, 2), 255, dtype=np.uint8))
    source = DirectorySampleSource(images, masks)
    assert source("a").image_id == "a"
    with pytest.raises(SampleNotFoundError):
        source("b")
    write_pnm(images / "b.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(SampleNotFoundError, match="no mask"):
        source("b")
    assert list_image_ids(images) == ["a", "b"]
    # `.ppm` wins over a `.pgm` of the same id, for samples and bare lookups.
    write_pnm(images / "x.ppm", np.full((2, 2, 3), 200, dtype=np.uint8))
    write_pnm(images / "x.pgm", np.zeros((2, 2), dtype=np.uint8))
    write_pnm(masks / "x.pgm", np.full((2, 2), 255, dtype=np.uint8))
    assert find_image(images, "x") == images / "x.ppm"
    assert (source("x").pixels == 200).all()
    with pytest.raises(SampleNotFoundError) as from_source:
        source("z")
    with pytest.raises(SampleNotFoundError) as from_lookup:
        find_image(str(images), "z")
    assert str(from_source.value) == str(from_lookup.value)


@pytest.mark.parametrize("spelling", ["parent", "absolute", "subdirectory"])
def test_ids_holding_a_path_separator_have_no_image(tmp_path, spelling):
    images = tmp_path / "images"
    (images / "sub").mkdir(parents=True)
    (tmp_path / "outside").mkdir()
    for directory in (images / "sub", tmp_path / "outside"):
        write_pnm(directory / "a.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
    image_id = {
        "parent": "../outside/a",
        "absolute": str(tmp_path / "outside" / "a"),
        "subdirectory": "sub/a",
    }[spelling]
    with pytest.raises(SampleNotFoundError, match="no image for"):
        find_image(images, image_id)


def test_dot_ids_name_files_inside_the_directory(tmp_path):
    for image_id in (".", ".."):
        write_pnm(tmp_path / (image_id + ".ppm"), np.zeros((2, 2, 3), dtype=np.uint8))
        assert find_image(tmp_path, image_id) == tmp_path / (image_id + ".ppm")
    assert list_image_ids(tmp_path) == [".", ".."]
