import csv
import re
import warnings
from fractions import Fraction
from operator import attrgetter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wbcrescue.core import (ENTRY_EPSILON, SUM_DELTA, LabelSet, ValidationError, read_csv,
                            read_plain_csv)
from wbcrescue.ingest import (
    CellSample,
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
    _render_rows,
)
from wbcrescue.netpbm import read_pnm, write_pnm

import reference
from reference import csv_module_write
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


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P5\n0 2\n255\n", "width must be positive, got 0"),
        (b"P6\n2 -3\n255\n", "height must be positive, got -3"),
        (b"P5\n2 2x\n255\n", "bad height token b'2x'"),
    ],
)
def test_bad_dimension_rejected(tmp_path, header, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(header + b"\x00" * 12)
    with pytest.raises(ValidationError, match=re.escape(f"img.pgm: {message}")):
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


@pytest.mark.parametrize("data", [b"", b"P5", b"P5\n2 2\n# maxval next", b"P6 2 2"])
def test_file_ending_inside_its_header_is_rejected(tmp_path, data):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=r"img\.pgm: truncated netpbm header$"):
        read_pnm(path)


@pytest.mark.parametrize(
    "pixels, message",
    [
        (np.zeros((2, 2), dtype=np.float64), "netpbm raster must be uint8"),
        (np.zeros((2, 2, 4), dtype=np.uint8), "cannot encode array of shape (2, 2, 4)"),
        (np.zeros(4, dtype=np.uint8), "cannot encode array of shape (4,)"),
    ],
)
def test_write_pnm_rejects_arrays_it_cannot_encode(tmp_path, pixels, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        write_pnm(tmp_path / "img.ppm", pixels)
    assert not (tmp_path / "img.ppm").exists()


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


def test_cell_sample_needs_three_channels():
    with pytest.raises(ValidationError, match=r"^c: pixels must be \(H, W, 3\)$"):
        CellSample("c", np.zeros((2, 2), dtype=np.uint8), np.ones((2, 2), dtype=bool))


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


def test_parse_prob_table_reads_a_gz_name_as_text(tmp_path, labels2):
    path = tmp_path / "p.csv.gz"
    path.write_bytes(b"image_id,SNE,LY\nimg1,0.6,0.4\n")
    assert parse_prob_table(path, labels2).matrix.tolist() == [[0.6, 0.4]]


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



_ODD_FLOATS = st.sampled_from([
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1.0, -1.0,
    # Ties and near-ties at the 12th significant digit.
    0.1234567890125, 0.9999999999995, 1.0000000000005e-5, 2.5e-12, 123456789012.5,
])


@st.composite
def _written_tables(draw):
    k = draw(st.integers(min_value=2, max_value=13))
    names = draw(st.lists(st.text(alphabet='SNELY,"\r\n é', min_size=1, max_size=4),
                          min_size=k, max_size=k, unique=True))
    ids = draw(st.lists(st.text(alphabet='ab,"\r\n #é細', max_size=5),
                        max_size=8, unique=True))
    matrix = draw(hnp.arrays(np.float64, (len(ids), k),
                             elements=st.one_of(_ODD_FLOATS, st.floats(width=64))))
    return ProbTable(LabelSet(names), ids, matrix)


@given(_written_tables())
@settings(max_examples=200, deadline=None)
def test_write_prob_table_matches_the_csv_module_writer(tmp_path_factory, table):
    folder = tmp_path_factory.mktemp("table")
    write_prob_table(folder / "new.csv", table)
    csv_module_write(
        folder / "old.csv",
        ["image_id", *table.label_set.names],
        ([image_id, *(f"{value:.12g}" for value in probs)]
         for image_id, probs in zip(table.ids, table.matrix)),
    )
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@pytest.mark.parametrize("quoted", [False, True])
@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 4097])
def test_write_prob_table_matches_the_per_row_writer_across_chunks(tmp_path, rows, quoted):
    # Every fifth id is 40 characters long and, when `quoted`, every third
    # needs quoting, so both kinds fall on each side of the writer's chunk
    # edges, every 1024 rows.
    ids = [
        f'"{i}",x' if quoted and i % 3 == 0
        else ("é" * 36 + f"{i:04d}" if i % 5 == 0 else f"id{i}")
        for i in range(rows)
    ]
    matrix = np.random.default_rng(rows).random((rows, 13))
    table = ProbTable(LabelSet([f"C{k}" for k in range(13)]), ids, matrix)
    write_prob_table(tmp_path / "new.csv", table)
    reference.write_prob_table(tmp_path / "old.csv", table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _nextafter_steps(value, steps):
    for _ in range(abs(steps)):
        value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
    return float(value)


_CELLS = st.one_of(
    # Both sides of each edge where the digit path starts, stops or adds a
    # leading zero.
    st.builds(_nextafter_steps, st.sampled_from([1e-4, 1e-3, 0.01, 0.1, 1.0]),
              st.integers(min_value=-3, max_value=3)),
    # Ties and near-ties at the 12th significant digit, in each decade.
    st.builds(lambda k, lead, steps: _nextafter_steps((k + 0.5) / 10 ** (12 + lead), steps),
              st.integers(min_value=10 ** 11, max_value=10 ** 12 - 1),
              st.integers(min_value=0, max_value=3), st.integers(min_value=-2, max_value=2)),
    # Short decimals, whose mantissas end in zeros.
    st.integers(min_value=1, max_value=15).flatmap(
        lambda digits: st.integers(min_value=1, max_value=10 ** digits - 1)
        .map(lambda k: k / 10 ** digits)),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3]),
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(width=64),
)


def _digit_path_must_render(value: float) -> bool:
    """Whether `value` is at least 2**-11 inside the digit path's rounding
    band in exact arithmetic, with no carry into the next decade."""
    if not 1e-4 <= value < 1:
        return False
    exact = Fraction(value)
    lead = sum(exact < Fraction(1, 10 ** power) for power in (1, 2, 3))
    scaled = exact * 10 ** (12 + lead)
    mantissa = round(scaled)
    return abs(scaled - mantissa) < Fraction(1, 2) - Fraction(1, 2 ** 11) and mantissa < 10 ** 12


@given(st.lists(_CELLS, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_the_cell_renderer_writes_each_cell_as_percent_12g(values):
    # One cell per row; the template marks the rows it writes with `!`.
    matrix = np.array(values, dtype=np.float64).reshape(-1, 1)
    ids = [str(row) for row in range(len(values))]
    text = b"".join(_render_rows(ids, matrix, "%s,%.12g!\n")).decode()
    lines = text.split("\n")
    assert lines.pop() == "" and len(lines) == len(values)
    for row, (line, value) in enumerate(zip(lines, values)):
        by_template = line.endswith("!")
        assert line.removesuffix("!") == f"{row},{'%.12g' % value}"
        if not by_template:
            assert 1e-4 <= value < 1
        if _digit_path_must_render(value):
            assert not by_template, value


def test_write_prob_table_writes_ids_the_digit_path_cannot_hold_as_before(tmp_path):
    # Ids with a row end, a quote, a comma, text beyond ASCII and a NUL, on
    # both sides of the chunk edge at row 1024, next to rows that the
    # template writes: one with a 0 and one with a NaN.
    kinds = ["a\nb", 'q"x', "a,b", "é細", "nul\0id", "\0", "", "plain", "\r"]
    ids = [f"{kinds[i % len(kinds)]}{i}" for i in range(1030)]
    matrix = np.random.default_rng(7).random((len(ids), 3))
    matrix[[3, 1022, 1025], 0] = 0.0
    matrix[[4, 1023], 2] = np.nan
    table = ProbTable(LabelSet(["SNE", "LY", "P,C"]), ids, matrix)
    write_prob_table(tmp_path / "new.csv", table)
    reference.write_prob_table(tmp_path / "old.csv", table)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
    "-0.1", "1.0000005", "1.00001", "1e309", "٠.٥", "٣", "１", "1e", "--1", ".", "1.2.3",
    "0\x00", "+.5", "1.",
]

# Ids that are written quoted.
_QUOTED_IDS = ["a", "a,b", 'q"t', "c\rd", "e\nf", "g\r\nh", " "]
# Ids written as they are: to `csv` each is one field read back as written,
# though some hold characters that other readers split lines or fields on.
_RAW_IDS = ["a", "img 1", " c ", "#d", "é細", "f\x0cg", "h\x85i", "l\x1cm", "n\to"]

# What sends a file to the row reader: each but "valid" is one row's flaw.
_ROW_KINDS = ["valid", "quoted", "raw quote", "nul id", "byte id", "no id", "repeat", "blank",
              "space", "bare cr", "odd", "scaled", "short", "long", "huge"]


def _prob_cells(draw, k):
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    spelling = draw(st.sampled_from([repr, "{:.9f}".format, "{:.12g}".format, "{:.3e}".format]))
    return [spelling(w / sum(weights)) for w in weights]


@st.composite
def _prob_csv(draw):
    """(label set, CSV text) of up to 8 rows, each ended by `\n` or by `\r\n`,
    the last one perhaps by nothing, and perhaps a BOM first. Most files are
    plain; the rest have up to two rows that send the file to the row
    reader: a quote, a NUL, a byte that is not UTF-8, an empty or repeated
    id, a blank or space-only line, a bare `\r`, a cell that is not a plain
    number, a drifted sum, a cell too few or too many, or a field near the
    `csv` size limit."""
    k = draw(st.integers(min_value=2, max_value=40))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    kinds = ["valid"] * draw(st.integers(min_value=0, max_value=8))
    for kind in draw(st.lists(st.sampled_from(_ROW_KINDS), max_size=2)) if kinds else ():
        kinds[draw(st.integers(0, len(kinds) - 1))] = kind
    lines = ["image_id," + ",".join(f"C{i}" for i in range(k))]
    for row, kind in enumerate(kinds):
        if kind in ("blank", "space"):
            lines.append("" if kind == "blank" else draw(st.sampled_from([" ", "\t"])))
            continue
        image_id = draw(st.sampled_from(_RAW_IDS)) + str(row)
        if kind == "quoted":
            image_id = '"' + draw(st.sampled_from(_QUOTED_IDS)).replace('"', '""') + '"'
        elif kind in ("raw quote", "nul id", "byte id"):
            # "\udcff" is written as the byte 0xff, which is not UTF-8.
            image_id += {"raw quote": '"', "nul id": "\x00", "byte id": "\udcff"}[kind]
        elif kind == "no id":
            image_id = ""
        elif kind == "repeat":
            image_id = lines[-1].split(",")[0]  # the header's or the row before's
        cells = _prob_cells(draw, k)
        column = draw(st.integers(0, k - 1))
        if kind == "odd":
            cells[column] = draw(st.sampled_from(_ODD_CELLS))
        elif kind == "scaled":
            scale = draw(st.sampled_from([1.0009, 0.9991, 1.0011, 0.9989, 0.5, 2.0]))
            cells = [repr(scale * float(cell)) for cell in cells]
        elif kind == "short":
            cells.pop()
        elif kind == "long":
            cells.append("0")
        elif kind == "huge":
            # The same number, led by zeros to one character under, at or
            # over the size limit.
            width = csv.field_size_limit() + draw(st.integers(-1, 1))
            cells[column] = cells[column].rjust(width, "0")
        lines.append(",".join([image_id, *cells]))
    ends = [terminator] + ["\r" if kind == "bare cr" else terminator for kind in kinds]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.integers(0, 19)) == 0:
        text = "\ufeff" + text
    return LabelSet([f"C{i}" for i in range(k)]), text


def _two(text):
    return LabelSet(["C0", "C1"]), "image_id,C0,C1\n" + text


@given(_prob_csv())
# A cell too many, which `usecols` would drop, and one example for each check
# on the bytes of a plain file: a blank line, a space-only line, an empty id,
# ids of 31, 32, 33 and 40 bytes, which a fixed-width text field would cut,
# characters that some readers split on or strip inside an id, a bare `\r`,
# a field at and one character over the `csv` size limit, and no final line
# end.
@example(_two("a,0.5,0.5,0\n"))
@example(_two("a,0.5,0.5\n\nb,0.5,0.5\n"))
@example(_two("a,0.5,0.5\r\n\r\n"))
@example(_two("a,0.5,0.5\n \nb,0.5,0.5\n"))
@example(_two(",0.5,0.5\nb,0.5,0.5\n"))
@example(_two(f"{'i' * 31},0.5,0.5\n"))
@example(_two(f"{'i' * 32},0.5,0.5\n"))
@example(_two(f"{'i' * 33},0.5,0.5\n"))
@example(_two(f"{'i' * 33},0.5,0.5\n{'i' * 32},0.5,0.5\n"))
@example(_two(f"{'i' * 40},0.5,0.5\n{'é' * 40},0.5,0.5\n"))
@example(_two(f"{'i' * csv.field_size_limit()},0.5,0.5\n"))
@example(_two("a\x0bb,0.5,0.5\nc\x0c,0.5,0.5\n"))
@example(_two("a\x1cb,0.5,0.5\nc,0.5,0.5\n"))
@example(_two("a,\x1c0.5,0.5\n"))
@example(_two("a\x85b,0.5,0.5\n\u2028,0.5,0.5\n"))
@example(_two("a b,0.5,0.5\n c ,0.5,0.5\n"))
@example(_two("a,0.5,0.5\rb,0.5,0.5\n"))
# UTF-8 that is overlong, a surrogate, truncated, out of range, and cut at
# the end of the file.
@example(_two("a\udcc0\udcaf,0.5,0.5\n"))
@example(_two("a,0.5,0.5\nb\udced\udca0\udc80,0.5,0.5\n"))
@example(_two("a\udce2\udc82,0.5,0.5\n"))
@example(_two("a\udcf4\udc90\udc80\udc80,0.5,0.5\n"))
@example(_two("a,0.5,0.5\udcc3"))
@example(_two(f"a,{'1'.zfill(csv.field_size_limit())},0\n"))
@example(_two(f"a,{'1'.zfill(csv.field_size_limit() + 1)},0\n"))
@example(_two("a,0.5,0.5\nb,0.25,0.75"))
@example(_two("\n\r\n"))
# A name holding a comma, in a header that does not quote it.
@example((LabelSet(["a,b", "C1"]), "image_id,a,b,C1\nx,0.5,0.5\n"))
@settings(max_examples=500, deadline=None)
def test_parse_prob_table_matches_row_reference(tmp_path_factory, inputs):
    label_set, text = inputs
    path = tmp_path_factory.mktemp("prob") / "p.csv"
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
    expected = _parse_outcome(_parse_prob_table_rows_reference, path, label_set)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # `loadtxt` warns when it reads no row
        assert _parse_outcome(parse_prob_table, path, label_set) == expected


@given(
    k=st.integers(min_value=2, max_value=13),
    ids=st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters=',"\r\n\x00\x1c\x1d\x1e\x1f'),
                         min_size=1, max_size=40),
                 min_size=1, max_size=8, unique=True),
    terminator=st.sampled_from(["\n", "\r\n"]),
    last=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_plain_prob_tables_are_read_in_bulk(tmp_path_factory, k, ids, terminator, last, data):
    label_set = LabelSet([f"C{i}" for i in range(k)])
    lines = ["image_id," + ",".join(label_set.names)]
    lines += [",".join([image_id, *_prob_cells(data.draw, k)]) for image_id in ids]
    path = tmp_path_factory.mktemp("plain") / "p.csv"
    path.write_text(terminator.join(lines) + (terminator if last else ""),
                    encoding="utf-8", newline="")
    expected = _parse_outcome(_parse_prob_table_rows_reference, path, label_set)
    with mock.patch("wbcrescue.ingest.read_keyed_csv",
                    side_effect=AssertionError("a plain file was read row by row")):
        table = parse_prob_table(path, label_set)
    assert (table.ids, table.matrix.tobytes()) == expected
    assert not table.matrix.flags.writeable


_SPELLINGS = st.one_of(
    st.floats(width=64, allow_nan=False, allow_infinity=False).map(repr),
    st.from_regex(r"[-+]?[0-9]{0,20}\.?[0-9]{0,20}([eE][-+]?[0-9]{1,4})?", fullmatch=True),
)


# Every character a plain file may hold in a cell.
_CELL_CHARACTERS = st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters=',"\r\n\x00\x1c\x1d\x1e\x1f')
# The characters that `float()` or `loadtxt` may strip or read as a digit.
_SPACES_AND_DIGITS = [chr(code) for code in range(0x110000)
                      if chr(code).isspace() or chr(code).isdigit() or chr(code) == "_"]


@given(st.one_of(
    st.text(alphabet="-+0123456789.eE", min_size=1, max_size=30),
    _SPELLINGS,
    st.text(_CELL_CHARACTERS, min_size=1, max_size=30),
    # A number with a character or two added: one that may be stripped or
    # read as a digit, or any other one a plain cell may hold.
    st.tuples(_SPELLINGS,
              st.one_of(st.sampled_from(_SPACES_AND_DIGITS),
                        st.text(_CELL_CHARACTERS, min_size=1, max_size=2)),
              st.integers(0, 30)).map(lambda t: t[0][:t[2]] + t[1] + t[0][t[2]:]),
))
@example("1_0")
@example("٣")
@example("\xa00.5")
@example("0.5\x85")
@example("\u30000.5\u2028")
@example("1e400")
@example("nan")
@settings(max_examples=500, deadline=None)
def test_loadtxt_reads_plain_number_cells_as_float_does(tmp_path_factory, cell):
    """The bulk path accepts no cell that `float()` reads differently, and
    it reads or rejects a cell of `[-+0-9.eE]` alone as `float()` does. It
    may reject a cell with any other character, which only sends the file to
    the row reader."""
    path = tmp_path_factory.mktemp("cell") / "c.csv"
    path.write_text(f"image_id,C0\nx,{cell}\n", encoding="utf-8", newline="")
    plain = read_plain_csv(path, ["image_id", "C0"], "f8")
    try:
        expected = np.float64(float(cell)).tobytes()
    except ValueError:
        expected = "rejected"
    actual = "rejected" if plain is None else plain[1][0, 0].tobytes()
    if re.fullmatch("[-+0-9.eE]+", cell):
        assert actual == expected
    else:
        assert actual in ("rejected", expected)


def test_plain_cells_around_each_space_or_digit_character_read_as_float_does(tmp_path):
    """Exhaustive over the characters that `float()` or `loadtxt` may strip
    or read as a digit, line breaks aside: alone, before and after a number,
    the bulk path accepts none that `float()` reads differently."""
    cells = [cell for char in _SPACES_AND_DIGITS if char not in "\r\n"
             for cell in (char, char + "0.5", "0.5" + char)]
    for cell in cells:
        path = tmp_path / "c.csv"
        path.write_text(f"image_id,C0\nx,{cell}\n", encoding="utf-8", newline="")
        plain = read_plain_csv(path, ["image_id", "C0"], "f8")
        if plain is not None:
            assert plain[1][0, 0].tobytes() == np.float64(float(cell)).tobytes(), repr(cell)


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


@pytest.mark.parametrize("line", [2, 3, 501])
def test_plain_table_with_a_bad_row_names_it_without_the_row_reader(tmp_path, labels2, line):
    path = tmp_path / "p.csv"
    rows = [f"r{row},0.25,0.75" for row in range(2, 502)]
    rows[line - 2] = f"r{line},0.5,0.4"
    path.write_text("image_id,SNE,LY\n" + "\n".join(rows) + "\n", encoding="utf-8")
    message = f"{path}:{line}: probability sum out of tolerance (got 0.900000)"
    assert _parse_outcome(_parse_prob_table_rows_reference, path, labels2) == ("error", message)
    with mock.patch("wbcrescue.ingest._parse_prob_table_rows",
                    side_effect=AssertionError("a plain file was read row by row")) as rows_reader:
        assert _parse_outcome(parse_prob_table, path, labels2) == ("error", message)
    rows_reader.assert_not_called()


@pytest.mark.parametrize("tail", ["\nx,0.5,0.4\n", "\r\nx,0.5,0.4\n", "x,0.5,0.5"],
                         ids=["blank", "blank-crlf", "unterminated"])
def test_the_line_that_starts_the_second_chunk_is_checked(tmp_path, labels2, tail):
    """`_plain_bytes` reads 1 MiB and then to the line's end, so the first
    chunk ends with the row that holds byte 2**20 and `tail` starts the
    second: a blank line before a bad row, or one last row with no `\\n`."""
    head = "image_id,SNE,LY\n"
    rows = [f"r{row:09d},0.25,0.75\n" for row in range((2**20 - len(head)) // 21 + 1)]
    path = tmp_path / "p.csv"
    path.write_text(head + "".join(rows) + tail, encoding="utf-8", newline="")
    assert len(head) + 21 * (len(rows) - 1) < 2**20 < len(head) + 21 * len(rows)
    expected = _parse_outcome(_parse_prob_table_rows_reference, path, labels2)
    assert _parse_outcome(parse_prob_table, path, labels2) == expected


def test_a_header_that_needs_quoting_is_read_by_the_row_reader(tmp_path):
    labels = LabelSet(["a,b", "LY"])
    path = write_csv(tmp_path / "p.csv", ["image_id", "a,b", "LY"], [["x", "0.25", "0.75"]])
    assert path.read_bytes().startswith(b'image_id,"a,b",LY\n')
    table = parse_prob_table(path, labels)
    assert (table.ids, table.matrix.tolist()) == (("x",), [[0.25, 0.75]])


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


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["SNE", "1"], ["SNE", "2"], ["LY", "3"]], ":3: duplicate class 'SNE'"),
        ([["SNE", "1"], ["", "2"]], ":3: empty class"),
        ([["SNE", "0"], ["LY", "0"]], ": all class counts are zero"),
    ],
    ids=["repeated", "empty", "all-zero"],
)
def test_class_counts_errors_name_the_file(tmp_path, labels2, rows, message):
    path = write_csv(tmp_path / "counts.csv", ["class", "count"], rows)
    with pytest.raises(ValidationError) as raised:
        parse_class_counts(path, labels2)
    assert str(raised.value) == f"{path}{message}"


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


@pytest.mark.parametrize("count", [1, 2, 3])
def test_average_is_a_fresh_read_only_matrix(labels2, count):
    rng = np.random.default_rng(count)
    ids = [f"img{i}" for i in range(6)]
    tables = [ProbTable(labels2, rng.permutation(ids).tolist(), rng.dirichlet([1, 1], size=6))
              for _ in range(count)]
    merged = average_prob_tables(tables)
    first = tables[0]
    joined = [table.matrix[[table.ids.index(image_id) for image_id in first.ids]] for table in tables]
    former = ProbTable(labels2, first.ids, np.mean(joined, axis=0))
    assert merged.ids == first.ids
    assert merged.matrix.tobytes() == former.matrix.tobytes()
    assert not merged.matrix.flags.writeable
    assert not any(np.shares_memory(merged.matrix, table.matrix) for table in tables)


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


def _make_entry(directory, name, kind):
    """Create `name` in `directory` as a file, a directory, or a symlink to
    a file, to a directory, to nowhere, to itself (a loop), or through a
    file (ENOTDIR)."""
    path = directory / name
    if kind == "file":
        path.write_bytes(b"")
    elif kind == "dir":
        path.mkdir()
    else:
        target = {"to file": "target-file", "to dir": "target-dir", "broken": "nowhere",
                  "loop": name, "through file": "target-file/x"}[kind]
        path.symlink_to(target)


_ENTRY_KINDS = ["file", "dir", "to file", "to dir", "broken", "loop", "through file"]


def _listing_dir(directory):
    directory.mkdir(exist_ok=True)
    (directory / "target-file").write_bytes(b"")
    (directory / "target-dir").mkdir()
    return directory


def test_list_image_ids_reads_names_and_links_as_path_does(tmp_path):
    images = _listing_dir(tmp_path / "images")
    entries = {
        "a.ppm": "file", "b.pgm": "file", "c.ppm": "file", "c.pgm": "file", "a.b.ppm": "file",
        "..ppm": "file", ".ppm": "file", ".pgm": "file", "x.PPM": "file", "y.ppm.bak": "file",
        "ppm": "file", "d.ppm": "dir", "s.ppm": "to file", "sd.pgm": "to dir",
        "broken.ppm": "broken", "loop.ppm": "loop", "nd.ppm": "through file",
    }
    for name, kind in entries.items():
        _make_entry(images, name, kind)
    expected = [".", "a", "a.b", "b", "c", "s"]
    assert list_image_ids(images) == reference.list_image_ids(images) == expected
    assert list_image_ids(str(images)) == expected
    for path in (images / "a.ppm", tmp_path / "missing"):
        for lister in (list_image_ids, reference.list_image_ids):
            with pytest.raises(NotADirectoryError, match=f"^{re.escape(str(path))} is not"):
                lister(path)


@given(st.dictionaries(
    st.builds(lambda stem, suffix: "".join(stem) + suffix,
              st.lists(st.sampled_from("ab.pgmPG"), max_size=4),
              st.sampled_from(["", ".ppm", ".pgm", ".PGM", ".ppm.", "ppm"])),
    st.sampled_from(_ENTRY_KINDS), max_size=8))
@settings(max_examples=200, deadline=None)
def test_list_image_ids_matches_the_path_listing(tmp_path_factory, entries):
    images = _listing_dir(tmp_path_factory.mktemp("images"))
    for name, kind in entries.items():
        if name not in ("", ".", ".."):
            _make_entry(images, name, kind)
    assert list_image_ids(images) == reference.list_image_ids(images)


def test_dot_ids_name_files_inside_the_directory(tmp_path):
    for image_id in (".", ".."):
        write_pnm(tmp_path / (image_id + ".ppm"), np.zeros((2, 2, 3), dtype=np.uint8))
        assert find_image(tmp_path, image_id) == tmp_path / (image_id + ".ppm")
    assert list_image_ids(tmp_path) == [".", ".."]
