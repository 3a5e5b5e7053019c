import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcrescue.core import (
    DEFAULT_LABELS,
    ClassCounts,
    DecisionTrace,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
    csv_column,
    csv_field,
    default_label_set,
    join_ids,
    load_label_file,
    normalize_probs,
    parse_config_file,
    read_csv,
    read_keyed_csv,
    write_csv,
)
from wbcrescue.ingest import CellSample, ProbTable, parse_class_counts, parse_prob_table
from wbcrescue.metrics import MetricsReport, read_label_csv
from wbcrescue.morphology import GaussianGate, load_gate, read_features_csv
from wbcrescue.rescue import BoostFactors, Decisions

import synth
from reference import csv_module_write


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
    "text, message",
    [
        ("SNE\nLY\nSNE\n", "duplicate class name 'SNE'"),
        ("SNE\n", "label catalog needs at least 2 classes"),
        ("# no names\n", "label catalog needs at least 2 classes"),
    ],
    ids=["repeated", "one", "empty"],
)
def test_label_file_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "labels.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as raised:
        load_label_file(path)
    assert str(raised.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: default_label_set().index_of("XYZ"), "unknown class name 'XYZ'"),
        (lambda: default_label_set().name_at(13), "class id 13 out of range"),
        (lambda: normalize_probs([0.5, 0.5]), "expected an (N, K) matrix"),
        (lambda: normalize_probs([[1.0], [1.0]]), "expected an (N, K) matrix"),
    ],
    ids=["index_of", "name_at", "probs-1d", "probs-one-column"],
)
def test_core_types_reject_bad_arguments(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


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


_VALUES = st.one_of(
    _CELLS,
    st.sampled_from(["", "\r\n", '""', " , "]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(width=64),
)


@given(
    header=st.lists(_CELLS, min_size=1, max_size=6),
    rows=st.lists(st.lists(_VALUES, min_size=1, max_size=6), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_write_csv_matches_the_csv_module_writer(tmp_path_factory, header, rows):
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "new.csv", header, rows)
    csv_module_write(folder / "old.csv", header, rows)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def test_write_csv_quotes_a_row_of_one_empty_field(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["image_id"], [[""], ["a"]])
    assert path.read_bytes() == b'image_id\n""\na\n'
    assert [row for _, row in read_csv(path, ["image_id"])] == [[""], ["a"]]


_PLAIN_CELLS = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                              blacklist_characters=',"\r\n'), max_size=6)


@st.composite
def _id_columns(draw):
    """Any list of cells, or a list of cells that need no quoting but one."""
    if draw(st.booleans()):
        return draw(st.lists(st.one_of(_PLAIN_CELLS, _CELLS), max_size=8))
    values = draw(st.lists(_PLAIN_CELLS, max_size=8))
    odd = draw(st.tuples(_PLAIN_CELLS, st.sampled_from([",", '"', "\r", "\n"]), _PLAIN_CELLS))
    values.insert(draw(st.integers(min_value=0, max_value=len(values))), "".join(odd))
    return values


@given(_id_columns())
@settings(max_examples=300)
def test_csv_column_quotes_as_csv_field_does(values):
    column = csv_column(values)
    assert list(column) == [csv_field(value) for value in values]
    if column is not values:  # the quoted copy is made only when it is needed
        assert [csv_field(value) for value in values] != values


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
    with pytest.raises(ValidationError, match="empty class counts"):
        ClassCounts(())


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


_PIXELS, _MASK = np.zeros((2, 3, 3), np.uint8), np.ones((2, 3), bool)
_VECTOR, _MATRIX = np.array([1.0, 2.0]), np.eye(2)
# Each value type, positional arguments, and the fields they fill in order.
_VALUE_TYPES = [
    (LabelSet, [("A", "B")], ["names"]),
    (ClassCounts, [(3, 1)], ["counts"]),
    (RescueConfig, [{"PLY"}, {"PLY": 2.0}, 0.25, 0.5, 2.0, 4.0],
     ["rare_classes", "boost_overrides", "tau", "tau_s", "tau_m", "boost_cap"]),
    (CellSample, ["a", _PIXELS, _MASK], ["image_id", "pixels", "mask"]),
    (ProbTable, [LabelSet(("A", "B")), ("a",), [[0.25, 0.75]]], ["label_set", "ids", "matrix"]),
    (MetricsReport, [0.5, 0.25, 0.5, 0.75, *[_VECTOR] * 5, 4],
     ["macro_f1", "balanced_accuracy", "macro_precision", "macro_specificity", "precision",
      "recall", "f1", "specificity", "support", "total"]),
    (GaussianGate, [_VECTOR, _MATRIX, _MATRIX, 0.0, 5],
     ["mean", "covariance", "precision", "ridge", "sample_count"]),
    (BoostFactors, [[1.0, 2.0], frozenset({1})], ["factors", "rare_indices"]),
    (Decisions, [["a", "b"], np.array([0, 1]), np.array([-1, 1]), np.array([0, 3], np.int8), {}],
     ["ids", "base", "candidate", "phase", "outcomes"]),
]


@pytest.mark.parametrize("kind, args, fields", _VALUE_TYPES,
                         ids=[kind.__name__ for kind, _, _ in _VALUE_TYPES])
def test_value_types_construct_as_before_and_are_immutable(kind, args, fields):
    value = kind(*args)
    shown = repr(value)
    assert shown == repr(kind(**dict(zip(fields, args))))
    assert shown.startswith(f"{kind.__name__}({fields[0]}=")
    assert not hasattr(value, "__dict__")
    for name in [*fields, "added"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == shown


def test_value_types_compare_as_before():
    assert LabelSet(["A", "B"]) == LabelSet(("A", "B"))
    assert hash(LabelSet(["A", "B"])) == hash(LabelSet(("A", "B")))
    assert LabelSet(["A", "B"]) != LabelSet(["B", "A"])
    assert LabelSet(["A", "B"]) != ("A", "B")
    assert ClassCounts((3, 1)) == ClassCounts((3, 1)) != ClassCounts((1, 3))
    first, second = RescueConfig(), RescueConfig()
    assert first == second and first != RescueConfig(tau=0.25)
    assert first.boost_overrides == {} and first.boost_overrides is not second.boost_overrides
    overrides = {"PLY": 2.0}
    assert RescueConfig(boost_overrides=overrides).boost_overrides is not overrides
    decisions = [Decisions(*_VALUE_TYPES[-1][1]) for _ in range(2)]
    assert decisions[0] == decisions[0] and decisions[0] != decisions[1]
    assert len(set(decisions)) == 2
    tables = [ProbTable(*_VALUE_TYPES[4][1]) for _ in range(2)]
    assert tables[0] == tables[0] and tables[0] != tables[1]
    assert len(set(tables)) == 2


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("tau 0.5\n", ":1: expected key=value, got 'tau 0.5'"),
        ("# boosts\nboost.XYZ = 2\n", ":2: boost override for unknown class 'XYZ'"),
        ("tau = 2\n", ": tau must lie in [0, 1], got 2.0"),
        ("boost_cap = 0.5\n", ": boost_cap must be a finite value >= 1, got 0.5"),
        ("boost.PLY = 12\n", ": boost override for 'PLY' must lie in [1, 10.0], got 12.0"),
        ("rare_classes = PLY\nboost.PC = 2\n", ": boost override for non-rare class 'PC'"),
        ("rare_classes = PLY,VLY\n", ": rare classes without a shape filter: ['VLY'] "
         "(supported: ['PC', 'PLY'])"),
    ],
    ids=["no-equals", "boost-unknown", "tau", "boost-cap", "boost-range", "boost-non-rare",
         "rare-unfiltered"],
)
def test_config_file_errors_name_the_file(tmp_path, labels13, text, message):
    path = tmp_path / "rescue.conf"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError) as raised:
        parse_config_file(path, labels13)
    assert str(raised.value) == f"{path}{message}"


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


def _join_ids_reference(ids, other, missing, extra):
    """The former `join_ids`: a dict over `other` for every pair of lists."""
    index = dict(zip(other, range(len(other))))
    rows = [index.get(image_id, -1) for image_id in ids]
    if -1 in rows:
        message, odd = missing, {image_id for image_id, row in zip(ids, rows) if row < 0}
    elif len(index) > len(rows):
        message, odd = extra, index.keys() - ids
    else:
        return rows
    names = sorted(odd)
    raise ValidationError(f"{message} {names[:5]}" + ("..." if len(names) > 5 else ""))


def _join_outcome(join, ids, other):
    """The rows of `other` in `ids` order as a list, or the error message."""
    try:
        rows = join(ids, other, "missing", "extra")
    except ValidationError as exc:
        return str(exc)
    return np.arange(len(other))[rows].tolist()


@given(st.lists(st.text(max_size=3), unique=True, max_size=12), st.data())
@settings(max_examples=200, deadline=None)
def test_join_ids_matches_the_dict_join(ids, data):
    """The same rows or error as a dict over `other`, whether `other` lists
    the same ids in the same order, in another order, or not the same ids."""
    other = data.draw(st.one_of(
        st.just(list(ids)),
        st.permutations(ids),
        st.lists(st.sampled_from(ids + ["x", "y"]), unique=True) if ids else st.just(["x"]),
    ))
    assert _join_outcome(join_ids, tuple(ids), other) == \
        _join_outcome(_join_ids_reference, tuple(ids), other)


@pytest.mark.parametrize("count, suffix", [(5, ""), (6, "...")])
def test_join_ids_names_five_odd_ids_and_marks_more(count, suffix):
    ids = [f"i{n}" for n in range(count)]
    with pytest.raises(ValidationError) as raised:
        join_ids(ids, [], "missing", "extra")
    assert str(raised.value) == f"missing {ids[:5]}{suffix}"


def test_join_ids_of_equal_lists_is_a_slice_that_gathers_nothing():
    assert join_ids(("a", "b"), ["a", "b"], "missing", "extra") == slice(None)
    matrix = np.arange(4.0).reshape(2, 2)
    assert np.shares_memory(matrix[join_ids(("a", "b"), ("a", "b"), "", "")], matrix)
    assert join_ids(("a", "b"), ("b", "a"), "missing", "extra") == [1, 0]
