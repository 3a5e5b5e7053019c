"""CLI-level differential oracle: `rescue --trace`, `ensemble` and
`evaluate --confusion` on small random corpora, run through `cli.run` and
read back with `csv`, checked row by row against the straight-line reference
or an independent tally."""

import csv
import io
import math
from collections import Counter
from contextlib import redirect_stderr
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcrescue.cli import run
from wbcrescue.core import ENTRY_EPSILON, SUM_DELTA, ValidationError
from wbcrescue.morphology import load_gate, mahalanobis, morph_vector, save_gate
from wbcrescue.netpbm import write_pnm

from reference import (
    argmax_first, pc_gate, reference_decide, sample_pool, spikiness, trace_contour,
)

POOL = sample_pool()
_OTHER_CLASSES = ["SNE", "LY", "VLY", "WBC06", "WBC07", "WBC08"]
# Characters csv must quote, a leading space and non-ASCII text; no path
# separator, so every id names a file.
_ID_ALPHABET = 'ab,"\r\n é細'
# Probabilities are multiples of 1/16: exact in binary, so ties are exact,
# and an unscaled row sums to exactly 1 and survives parsing and
# renormalizing unchanged.
_SIXTEENTHS = 16
# Row sums a relative 1e-6 of SUM_DELTA inside or outside 1 +- SUM_DELTA:
# far wider than the rounding of a sum of at most 8 entries.
_INSIDE, _OUTSIDE = SUM_DELTA * (1 - 1e-6), SUM_DELTA * (1 + 1e-6)


@st.composite
def _prob_rows(draw, k):
    cuts = sorted(draw(st.lists(st.integers(0, _SIXTEENTHS), min_size=k - 1, max_size=k - 1)))
    return [(high - low) / _SIXTEENTHS for low, high in zip([0, *cuts], [*cuts, _SIXTEENTHS])]


def _scaled(row, scale):
    """`row` scaled to sum `scale`; a scale above 1 that would push an entry
    past 1 + ENTRY_EPSILON is mirrored below 1, so only the sum is off."""
    if max(row) * scale > 1 + ENTRY_EPSILON:
        scale = 2 - scale
    return [p * scale for p in row]


@st.composite
def _edge_rows(draw, k):
    """Rows whose sums lie just inside the SUM_DELTA band, or at 1."""
    scale = draw(st.one_of(st.sampled_from([1.0, 1 - _INSIDE, 1 + _INSIDE]),
                           st.floats(1 - _INSIDE, 1 + _INSIDE)))
    return _scaled(draw(_prob_rows(k)), scale)


def _renormalized(row):
    """The row as `rescue` holds it: parsed from its repr, divided by its sum."""
    parsed = np.array([float(repr(p)) for p in row])
    return (parsed / parsed.sum()).tolist()


@st.composite
def _catalogs(draw):
    others = draw(st.permutations(_OTHER_CLASSES))[: draw(st.integers(0, len(_OTHER_CLASSES)))]
    return draw(st.permutations(["PLY", "PC", *others]))


_IDS = st.lists(st.text(_ID_ALPHABET, min_size=1, max_size=5), min_size=1, max_size=10,
                unique=True)


@st.composite
def _corpora(draw):
    names = draw(_catalogs())
    ids = draw(_IDS)
    rows = [(image_id, draw(_edge_rows(len(names))), draw(_edge_rows(len(names))),
             draw(st.sampled_from(sorted(POOL)))) for image_id in ids]
    boost = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 4.0]), st.floats(1.0, 10.0))
    config = {
        "boost.PLY": draw(boost),
        "boost.PC": draw(boost),
        # A tau equal to a renormalized verifier entry puts a `>= tau` test
        # on that exact value.
        "tau": draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0),
                              st.sampled_from([p for row in rows for p in _renormalized(row[2])]))),
        "tau_s": draw(st.one_of(st.sampled_from([-math.inf, math.inf, 0.15]),
                                st.floats(-1.0, 1.0))),
        "tau_m": draw(st.one_of(st.sampled_from([-math.inf, math.inf, 3.0]),
                                st.floats(0.0, 20.0))),
    }
    return names, rows, draw(st.permutations(range(len(rows)))), config


def _csv_text(header, rows):
    # Every field quoted: before Python 3.13, csv leaves a bare \r unquoted
    # unless the line terminator holds one.
    text = io.StringIO()
    csv.writer(text, quoting=csv.QUOTE_ALL).writerows([header, *rows])
    return text.getvalue()


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_csv_text(header, rows))


def _write_corpus(work, names, rows, med_order, config):
    (work / "images").mkdir()
    (work / "masks").mkdir()
    for image_id, _, _, key in rows:
        sample = POOL[key]
        write_pnm(work / "images" / (image_id + ".ppm"), np.asarray(sample.pixels))
        mask = np.where(sample.mask, 255, 0).astype(np.uint8)
        write_pnm(work / "masks" / (image_id + ".pgm"), mask)
    header = ["image_id", *names]
    _write_csv(work / "swin.csv", header, [[i, *map(repr, p)] for i, p, _, _ in rows])
    _write_csv(work / "med.csv", header,
               [[rows[r][0], *map(repr, rows[r][2])] for r in med_order])
    _write_csv(work / "counts.csv", ["class", "count"], [[name, 100] for name in names])
    (work / "labels.txt").write_text("".join(name + "\n" for name in names), encoding="utf-8")
    (work / "rescue.conf").write_text(
        "".join(f"{key} = {value!r}\n" for key, value in config.items()), encoding="utf-8"
    )
    save_gate(work / "pc.gate", pc_gate())


def _expected_rows(names, rows, config, gate):
    """`(pred.csv rows, trace.csv rows)` as the reference decides them."""
    ply, pc = names.index("PLY"), names.index("PC")
    factors = [1.0] * len(names)
    factors[ply], factors[pc] = config["boost.PLY"], config["boost.PC"]
    pred, trace = [["image_id", "label"]], [
        ["image_id", "base", "candidate", "phase", "spikiness", "mahalanobis", "final"]
    ]
    for image_id, p_swin, p_med, key in rows:
        sample = POOL[key]
        p_swin, p_med = _renormalized(p_swin), _renormalized(p_med)
        label, phase = reference_decide(p_swin, p_med, factors, config["tau"], config["tau_s"],
                                        config["tau_m"], sample, gate, ply, pc)
        candidate = argmax_first([p * f for p, f in zip(p_swin, factors)])
        scores = ["", ""]
        if phase in ("Rescued", "FailedMorphology"):
            try:
                if candidate == ply:
                    scores[0] = f"{spikiness(trace_contour(sample.mask)):.9g}"
                else:
                    scores[1] = f"{mahalanobis(gate, morph_vector(sample)):.9g}"
            except ValidationError:  # an unmeasurable cell has no score
                pass
        pred.append([image_id, names[label]])
        trace.append([
            image_id, names[argmax_first(p_swin)],
            "" if phase == "NoCandidate" else names[candidate], phase, *scores, names[label],
        ])
    return pred, trace


# The rescue inputs that _write_corpus writes, by flag.
_INPUTS = {
    "--swin": "swin.csv", "--med": "med.csv", "--counts": "counts.csv", "--images": "images",
    "--masks": "masks", "--gate": "pc.gate", "--config": "rescue.conf", "--labels": "labels.txt",
}


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@given(_corpora())
@settings(max_examples=40, deadline=None)
def test_rescue_trace_matches_reference_through_the_cli(tmp_path_factory, corpus):
    names, rows, med_order, config = corpus
    work = tmp_path_factory.mktemp("oracle")
    _write_corpus(work, names, rows, med_order, config)
    outputs = []
    for threads in ("1", "2"):
        pred, trace = work / f"pred{threads}.csv", work / f"trace{threads}.csv"
        argv = ["--threads", threads, "rescue", "--out", str(pred), "--trace", str(trace)]
        for flag, name in _INPUTS.items():
            argv += [flag, str(work / name)]
        assert run(argv) == 0
        outputs.append((pred.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
    expected_pred, expected_trace = _expected_rows(names, rows, config, load_gate(work / "pc.gate"))
    assert _read_rows(work / "pred1.csv") == expected_pred
    assert _read_rows(work / "trace1.csv") == expected_trace


@st.composite
def _corpora_with_a_bad_sum(draw):
    """A corpus in which one row of one table sums to just outside the
    SUM_DELTA band; returns it with that table's name and the row's place
    in the file."""
    names, rows, med_order, config = draw(_corpora())
    table = draw(st.sampled_from(["swin", "med"]))
    at = draw(st.integers(0, len(rows) - 1))
    scale = draw(st.one_of(st.sampled_from([1 - _OUTSIDE, 1 + _OUTSIDE]),
                           st.floats(0.9, 1 - _OUTSIDE), st.floats(1 + _OUTSIDE, 1.1)))
    bad = _scaled(draw(_prob_rows(len(names))), scale)
    r = at if table == "swin" else med_order[at]
    image_id, p_swin, p_med, key = rows[r]
    rows[r] = (image_id, bad, p_med, key) if table == "swin" else (image_id, p_swin, bad, key)
    return (names, rows, med_order, config), table, at


@given(_corpora_with_a_bad_sum())
@settings(max_examples=20, deadline=None)
def test_rescue_names_the_line_of_a_sum_outside_the_band(tmp_path_factory, case):
    (names, rows, med_order, config), table, at = case
    work = tmp_path_factory.mktemp("bad-sum")
    _write_corpus(work, names, rows, med_order, config)
    argv = ["rescue", "--out", str(work / "pred.csv")]
    for flag, name in _INPUTS.items():
        argv += [flag, str(work / name)]
    with redirect_stderr(io.StringIO()) as err:
        assert run(argv) == 1
    ids = [rows[r][0] for r in (range(len(rows)) if table == "swin" else med_order)]
    # The physical line the row ends on: a quoted id may hold \r and \n.
    line = len(_csv_text(["image_id", *names], [[i] for i in ids[: at + 1]]).splitlines())
    assert (f"error: {work / (table + '.csv')}:{line}: probability sum out of tolerance"
            in err.getvalue())
    assert not (work / "pred.csv").exists()


@st.composite
def _scored_tables(draw):
    """Two folds and a prediction file in one order, and a second fold and a
    truth file listing the same ids in drawn permutations of it."""
    names = draw(_catalogs())
    ids = draw(_IDS)
    rows = [(image_id, draw(_prob_rows(len(names))), draw(_prob_rows(len(names))),
             draw(st.sampled_from(names)), draw(st.sampled_from(names))) for image_id in ids]
    orders = [draw(st.permutations(range(len(rows)))) for _ in range(2)]
    return names, rows, *orders


def _macro_f1(truth, pred, names):
    """Mean over the catalog of 2TP / (2TP + FP + FN), 0 when that is 0/0."""
    total = Fraction(0)
    for name in names:
        tp = sum(t == p == name for t, p in zip(truth, pred))
        wrong = sum((t == name) != (p == name) for t, p in zip(truth, pred))
        total += Fraction(2 * tp, 2 * tp + wrong) if tp or wrong else 0
    return total / len(names)


@given(_scored_tables())
@settings(max_examples=40, deadline=None)
def test_ensemble_and_evaluate_join_by_id_through_the_cli(tmp_path_factory, tables):
    names, rows, fold_order, truth_order = tables
    work = tmp_path_factory.mktemp("joins")
    header = ["image_id", *names]
    _write_csv(work / "a.csv", header, [[i, *map(repr, p)] for i, p, _, _, _ in rows])
    _write_csv(work / "b.csv", header,
               [[rows[r][0], *map(repr, rows[r][2])] for r in fold_order])
    _write_csv(work / "pred.csv", ["image_id", "label"], [[i, p] for i, _, _, p, _ in rows])
    _write_csv(work / "truth.csv", ["image_id", "label"],
               [[rows[r][0], rows[r][4]] for r in truth_order])
    (work / "labels.txt").write_text("".join(name + "\n" for name in names), encoding="utf-8")
    labels = ["--labels", str(work / "labels.txt")]
    outputs = []
    for threads in ("1", "2"):
        mean, report, confusion = (work / f"{threads}-{name}" for name in
                                   ("mean.csv", "report.txt", "confusion.csv"))
        assert run(["--threads", threads, "ensemble", str(work / "a.csv"), str(work / "b.csv"),
                    *labels, "--out", str(mean)]) == 0
        assert run(["--threads", threads, "evaluate", "--pred", str(work / "pred.csv"),
                    "--truth", str(work / "truth.csv"), *labels, "--out", str(report),
                    "--confusion", str(confusion)]) == 0
        outputs.append([path.read_bytes() for path in (mean, report, confusion)])
    assert outputs[0] == outputs[1]

    assert _read_rows(work / "1-mean.csv") == [header] + [
        [image_id, *(f"{(a + b) / 2:.12g}" for a, b in zip(p_a, p_b))]
        for image_id, p_a, p_b, _, _ in rows
    ]
    truth = [t for _, _, _, _, t in rows]
    pred = [p for _, _, _, p, _ in rows]
    samples, macro_f1 = (work / "1-report.txt").read_text(encoding="utf-8").splitlines()[:2]
    assert samples == f"samples: {len(rows)}"
    assert macro_f1.startswith("macro_f1: ")
    # .6f rounds to within 5e-7; allow for the float sum on top of that.
    assert abs(float(macro_f1.split()[1]) - _macro_f1(truth, pred, names)) <= 5e-7 + 1e-12
    tally = Counter(zip(truth, pred))
    assert _read_rows(work / "1-confusion.csv") == [["true\\pred", *names]] + [
        [t, *(str(tally[t, p]) for p in names)] for t in names
    ]
