import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wbcrescue.core import (
    DEFAULT_LABELS,
    ClassCounts,
    DecisionTrace,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
    default_label_set,
    load_label_file,
    normalize_probs,
    parse_config_file,
    read_csv,
    read_keyed_csv,
    write_csv,
)
from wbcrescue.ingest import parse_class_counts, parse_prob_table
from wbcrescue.metrics import read_label_csv
from wbcrescue.morphology import load_gate, read_features_csv

import synth


def test_label_set_identity_construction():
    labels = LabelSet(["SNE", "LY", "PLY", "PC"])
    assert len(labels) == 4
    assert labels.index_of("SNE") == 0
    assert labels.name_at(3) == "PC"


def test_label_set_rejects_duplicates():
    with pytest.raises(ValidationError, match="duplicate class name"):
        LabelSet(["LY", "LY"])


def test_label_set_rejects_empty_name():
    with pytest.raises(ValidationError, match="empty class name"):
        LabelSet(["LY", ""])


def test_label_set_needs_two_classes():
    with pytest.raises(ValidationError):
        LabelSet(["LY"])


def test_default_catalog_has_13_classes_and_the_special_names():
    labels = default_label_set()
    assert len(labels) == 13
    for name in ("SNE", "LY", "VLY", "PLY", "PC"):
        assert name in labels


def test_label_round_trip():
    labels = default_label_set()
    for name in labels:
        assert labels.name_at(labels.index_of(name)) == name


@given(st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=20, unique=True))
def test_label_round_trip_property(names):
    labels = LabelSet(names)
    for position, name in enumerate(names):
        assert labels.index_of(name) == position
        assert labels.name_at(position) == name


def test_load_label_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("SNE\n# comment\nLY\n\nPC\n", encoding="utf-8")
    labels = load_label_file(path)
    assert labels.names == ("SNE", "LY", "PC")


@pytest.mark.parametrize(
    "reader",
    [
        load_label_file,
        lambda path: parse_config_file(path, default_label_set()),
        lambda path: parse_prob_table(path, default_label_set()),
        lambda path: parse_class_counts(path, default_label_set()),
        lambda path: read_label_csv(path, default_label_set()),
        read_features_csv,
        load_gate,
    ],
    ids=[
        "load_label_file", "parse_config_file", "parse_prob_table", "parse_class_counts",
        "read_label_csv", "read_features_csv", "load_gate",
    ],
)
def test_text_readers_reject_non_utf8(tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(b"image_id,\xff\n")
    with pytest.raises(ValidationError, match=r"input\.txt:1: not UTF-8 text"):
        reader(path)


_CELLS = st.text(
    alphabet=st.one_of(
        st.sampled_from([",", '"', "\n", "\r", " ", "#", "é", "白", "🩸"]),
        st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    ),
    max_size=8,
)


@given(rows=st.lists(st.lists(_CELLS, min_size=3, max_size=3), max_size=6))
def test_csv_round_trip_keeps_rows_and_physical_lines(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    write_csv(path, ["image_id", "label", "value"], rows)
    read = list(read_csv(path, ["image_id", "label", "value"]))
    assert [row for _, row in read] == rows
    # Record i ends after the header line, i + 1 row ends and every line
    # break quoted inside the fields of records 0..i.
    breaks = [sum(len(re.findall("\r\n|\r|\n", cell)) for cell in row) for row in rows]
    expected = [1 + (i + 1) + sum(breaks[: i + 1]) for i in range(len(rows))]
    assert [line for line, _ in read] == expected
    text = path.read_bytes().decode("utf-8")
    assert len(re.findall("\r\n|\r|\n", text)) == (expected[-1] if rows else 1)


def test_synth_csv_ids_needing_quotes_read_back(tmp_path):
    ids = ["a\rb", "c\r\nd", "e,f", "g\nh", "plain"]
    path = synth.write_csv(tmp_path / "ids.csv", ["image_id", "label"],
                           [[image_id, "SNE"] for image_id in ids])
    assert [row[0] for _, row in read_keyed_csv(path, ["image_id", "label"])] == ids


def test_normalize_accepts_exact_sum():
    probs = normalize_probs([[0.7, 0.3]])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_normalize_rejects_large_drift():
    with pytest.raises(ValidationError, match="probability sum out of tolerance"):
        normalize_probs([[0.5, 0.4]])


def test_normalize_renormalizes_small_drift():
    values = [0.70005, 0.29995 - 5e-4]
    total = sum(values)
    probs = normalize_probs([values])
    for got, raw in zip(probs[0], values):
        assert got == pytest.approx(raw / total, abs=1e-12)


def test_normalize_rejects_out_of_range_entries():
    with pytest.raises(ValidationError, match="out of range"):
        normalize_probs([[-0.1, 1.1]])
    with pytest.raises(ValidationError, match="out of range"):
        normalize_probs([[1.2, 0.0]])


def test_normalize_rejects_non_finite():
    with pytest.raises(ValidationError, match="non-finite"):
        normalize_probs([[math.nan, 1.0]])


def test_normalized_vector_is_read_only():
    probs = normalize_probs([[0.5, 0.5]])
    with pytest.raises(ValueError):
        probs[0, 0] = 0.9



def test_normalize_reports_first_bad_row_and_its_first_failed_check():
    rows = [[0.5, 0.5], [0.5, 0.4], [math.inf, 2.0], [0.6, 0.4]]
    where = "p.csv:{}".format
    with pytest.raises(ValidationError, match=r"^p\.csv:1: probability sum .* \(got 0\.900000\)$"):
        normalize_probs(rows, where=where)
    with pytest.raises(ValidationError, match=r"^p\.csv:2: non-finite"):
        normalize_probs(rows[2:], where=lambda row: where(row + 2))
    with pytest.raises(ValidationError, match=r"^probability row 0: probability entry out of"):
        normalize_probs([[1.5, -0.5], [0.5, 0.4]])
    assert normalize_probs(np.empty((0, 3))).shape == (0, 3)
    assert normalize_probs([rows[0], rows[3]]).tolist() == [[0.5, 0.5], [0.6, 0.4]]


def test_class_counts_validation():
    counts = ClassCounts((17354, 90, 14))
    assert counts.max_count == 17354
    assert counts[2] == 14
    with pytest.raises(ValidationError):
        ClassCounts((0, 0))
    with pytest.raises(ValidationError):
        ClassCounts((1, -2))


def test_config_defaults_are_sane():
    config = RescueConfig()
    assert config.rare_classes == frozenset({"PLY", "PC"})
    assert config.boost_cap == 10.0


def test_config_rejects_bad_tau():
    with pytest.raises(ValidationError):
        RescueConfig(tau=1.5)
    with pytest.raises(ValidationError):
        RescueConfig(tau=math.inf)


def test_config_accepts_infinite_shape_thresholds():
    config = RescueConfig(tau_s=math.inf, tau_m=-math.inf)
    assert config.tau_s == math.inf
    assert config.tau_m == -math.inf
    with pytest.raises(ValidationError):
        RescueConfig(tau_s=math.nan)


def test_config_rejects_bad_overrides():
    with pytest.raises(ValidationError, match="non-rare"):
        RescueConfig(boost_overrides={"LY": 2.0})
    with pytest.raises(ValidationError):
        RescueConfig(boost_overrides={"PLY": 0.5})
    with pytest.raises(ValidationError):
        RescueConfig(boost_overrides={"PLY": 11.0})


def test_config_file_round_trip(tmp_path, labels13):
    path = tmp_path / "rescue.conf"
    path.write_text(
        "# thresholds\n"
        "rare_classes = PLY,PC\n"
        "tau = 0.4\n"
        "tau_s = 0.2  # spikiness\n"
        "tau_m = 2.5\n"
        "boost_cap = 9\n"
        "boost.PC = 4.0\n",
        encoding="utf-8",
    )
    config = parse_config_file(path, labels13)
    assert config.tau == 0.4
    assert config.tau_s == 0.2
    assert config.tau_m == 2.5
    assert config.boost_cap == 9.0
    assert config.boost_overrides == {"PC": 4.0}


def test_config_file_rejects_unknown_key(tmp_path, labels13):
    path = tmp_path / "rescue.conf"
    path.write_text("tua = 0.5\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="unknown config key"):
        parse_config_file(path, labels13)


def test_config_file_rejects_unknown_rare_class(tmp_path, labels13):
    path = tmp_path / "rescue.conf"
    path.write_text("rare_classes = PLY,XXX\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="not in label catalog"):
        parse_config_file(path, labels13)
    path.write_text("rare_classes = PLY,VLY\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="without a shape filter"):
        parse_config_file(path, labels13)


def test_config_file_rejects_bad_number(tmp_path, labels13):
    path = tmp_path / "rescue.conf"
    path.write_text("tau = zero\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="not a number"):
        parse_config_file(path, labels13)


def test_config_file_rejects_repeated_key(tmp_path, labels13):
    path = tmp_path / "rescue.conf"
    path.write_text("tau = 0.9\n# later\ntau = 0.1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"rescue\.conf:3: 'tau' already set on line 1"):
        parse_config_file(path, labels13)


def test_trace_derives_final_label_from_phase():
    assert DecisionTrace("img", 0, 3, Phase.RESCUED, 0.4).final_label == 3
    for phase in (Phase.FAILED_SEMANTIC, Phase.FAILED_MORPHOLOGY):
        assert DecisionTrace("img", 0, 3, phase).final_label == 0
    assert DecisionTrace("img", 2, None, Phase.NO_CANDIDATE).final_label == 2


def test_phase_tags_are_stable_strings():
    assert [phase.value for phase in Phase] == [
        "NoCandidate",
        "FailedSemantic",
        "FailedMorphology",
        "Rescued",
    ]
