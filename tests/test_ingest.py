import numpy as np
import pytest

from wbcrescue.core import LabelSet, ValidationError
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
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(ValidationError, match="truncated raster"):
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
    assert int(sample.mask.sum()) == 4


def test_full_mask_counts_all_foreground(tmp_path):
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    mask = np.full((4, 4), 255, dtype=np.uint8)
    write_pnm(tmp_path / "c.ppm", image)
    write_pnm(tmp_path / "m.pgm", mask)
    sample = load_cell_sample(tmp_path / "c.ppm", tmp_path / "m.pgm", "c")
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
    assert table.probs_for("img1").sum() == pytest.approx(1.0, abs=1e-12)


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
    assert np.allclose(table.probs_for("img1"), expected, atol=1e-12)


def test_parse_prob_table_names_bad_cell(tmp_path, labels2):
    path = write_csv(tmp_path / "p.csv", ["image_id", "SNE", "LY"], [["img1", "0.7", "x"]])
    with pytest.raises(ValidationError, match=r"p\.csv:2: column LY: non-numeric"):
        parse_prob_table(path, labels2)


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
    assert table.probs_for("img1")[0] == pytest.approx(0.6, abs=1e-12)


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
    for image_id, probs in original:
        assert np.allclose(reparsed.probs_for(image_id), probs, atol=1e-9)


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
    return ProbTable(
        labels2, [(image_id, np.array(values, dtype=float)) for image_id, values in rows]
    )


def test_average_single_table_is_identity(labels2):
    table = _table(labels2, [("img1", [0.8, 0.2])])
    merged = average_prob_tables([table])
    assert np.allclose(merged.probs_for("img1"), [0.8, 0.2])


def test_average_two_tables(labels2):
    a = _table(labels2, [("img1", [0.8, 0.2])])
    b = _table(labels2, [("img1", [0.6, 0.4])])
    merged = average_prob_tables([a, b])
    assert np.allclose(merged.probs_for("img1"), [0.7, 0.3], atol=1e-15)


def test_average_matches_brute_force(labels2):
    rng = np.random.default_rng(11)
    ids = [f"img{i}" for i in range(8)]
    tables = []
    for _ in range(5):
        rows = []
        for image_id in ids:
            probs = rng.random(2) + 1e-6
            rows.append((image_id, probs / probs.sum()))
        tables.append(ProbTable(labels2, rows))
    merged = average_prob_tables(tables)
    for image_id in ids:
        expected = [0.0, 0.0]
        for table in tables:
            row = table.probs_for(image_id)
            expected[0] += row[0]
            expected[1] += row[1]
        expected = [value / 5 for value in expected]
        assert np.allclose(merged.probs_for(image_id), expected, atol=1e-12)
        assert abs(merged.probs_for(image_id).sum() - 1.0) <= 1e-3


def test_average_keeps_first_table_order(labels2):
    a = _table(labels2, [("b", [0.5, 0.5]), ("a", [0.4, 0.6])])
    b = _table(labels2, [("a", [0.4, 0.6]), ("b", [0.5, 0.5])])
    assert average_prob_tables([a, b]).ids == ("b", "a")


def test_average_rejects_id_mismatch(labels2):
    a = _table(labels2, [("img1", [0.5, 0.5])])
    b = _table(labels2, [("img2", [0.5, 0.5])])
    with pytest.raises(ValidationError, match="disagree on image ids"):
        average_prob_tables([a, b])


def test_average_rejects_catalog_mismatch(labels2):
    other = LabelSet(["SNE", "VLY"])
    a = _table(labels2, [("img1", [0.5, 0.5])])
    b = ProbTable(other, [("img1", np.array([0.5, 0.5]))])
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
