"""The benchmark workloads: how each corpus is built, which commands run on
it, what a fresh interpreter loads as set-up, and how outputs are checked.

Every check is independent of the engine's code: expected labels, trace
phases, noise decisions and macro F1 follow from how the corpus was built.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import corpus as C


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Path, int], C.Corpus]
    commands: Callable[[C.Corpus, Path], list[list[str]]]
    outputs: tuple[str, ...]  # files or directories under the output directory
    setup_code: str
    setup_args: Callable[[C.Corpus], list[str]]
    check: Callable[[C.Corpus, Path], "Check"]


@dataclass
class Check:
    failed: set  # image ids whose output failed verification
    macro_f1: float


def macro_f1(pairs, classes) -> float:
    """Mean per-class F1 over `classes`; a class never seen or predicted scores 0."""
    scores = []
    for cls in classes:
        tp = sum(1 for truth, pred in pairs if truth == cls and pred == cls)
        fp = sum(1 for truth, pred in pairs if truth != cls and pred == cls)
        fn = sum(1 for truth, pred in pairs if truth == cls and pred != cls)
        scores.append(2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return sum(scores) / len(scores)


def expected_macro_f1(corpus: C.Corpus) -> float:
    if corpus.rows:
        return macro_f1([(k.truth, k.final) for _, k in corpus.rows], C.LABELS.names)
    return macro_f1([(n, n) for n in corpus.noisy.values()], (True, False))


def read_rows(path: Path, header: list[str]) -> list[list[str]] | None:
    """Data rows of a CSV, or None when it is missing or its header is wrong."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != header:
                return None
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error):
        return None


def digest(path: Path) -> str:
    """sha256 of a file, or of every file in a directory by name."""
    sha = hashlib.sha256()
    if path.is_dir():
        for child in sorted(path.iterdir()):
            sha.update(child.name.encode() + b"\0" + child.read_bytes())
    elif path.is_file():
        sha.update(path.read_bytes())
    else:
        return "missing"
    return sha.hexdigest()


def differing_ids(path: Path, reference: Path, all_ids) -> set:
    """Image ids whose output differs between two runs of the same output."""
    if path.is_dir() and reference.is_dir():
        names = {p.name for p in path.iterdir()} | {p.name for p in reference.iterdir()}
        return {
            name.split(".", 1)[0] for name in names
            if digest(path / name) != digest(reference / name)
        }
    if path.suffix == ".csv" and path.is_file() and reference.is_file():
        def keyed(p):
            lines = p.read_text(encoding="utf-8").splitlines()[1:]
            return {line.split(",", 1)[0]: line for line in lines}
        a, b = keyed(path), keyed(reference)
        return {key for key in a.keys() | b.keys() if a.get(key) != b.get(key)}
    return set(all_ids)


# --- rescue workloads --------------------------------------------------------

TRACE_HEADER = ["image_id", "base", "candidate", "phase", "spikiness", "mahalanobis", "final"]
PROB_HEADER = ["image_id", *C.LABELS.names]


def _rare(kind: C.Kind) -> str:
    return next((c for c in kind.swin if c in ("PLY", "PC")), "")


def check_rescue(corpus: C.Corpus, out: Path) -> Check:
    ids = corpus.image_ids
    preds = read_rows(out / "pred.csv", ["image_id", "label"])
    trace = read_rows(out / "trace.csv", TRACE_HEADER)
    if preds is None or trace is None or len(preds) != len(ids) or len(trace) != len(ids):
        return Check(set(ids), 0.0)
    failed = set()
    pairs = []
    for (image_id, kind), pred, row in zip(corpus.rows, preds, trace):
        base = max(kind.swin, key=kind.swin.get)
        row_ok = (len(row) == 7 and row[:4] == [image_id, base, _rare(kind), kind.phase]
                  and row[6] == kind.final)
        if pred != [image_id, kind.final] or not row_ok:
            failed.add(image_id)
        pairs.append((kind.truth, pred[1] if len(pred) == 2 else None))
    return Check(failed, macro_f1(pairs, C.LABELS.names))


def check_tables(corpus: C.Corpus, out: Path) -> Check:
    result = check_rescue(corpus, out)
    fused = read_rows(out / "swin.csv", PROB_HEADER)
    if fused is None or [row[:1] for row in fused] != [[i] for i in corpus.image_ids]:
        result.failed.update(corpus.image_ids)
    try:
        report = (out / "report.txt").read_text(encoding="utf-8").splitlines()
    except OSError:
        report = []
    want = [f"samples: {len(corpus.rows)}", f"macro_f1: {expected_macro_f1(corpus):.6f}"]
    if report[:2] != want:
        result.failed.update(corpus.image_ids)
    return result


def _rescue_args(corpus: C.Corpus, swin: Path, out: Path) -> list[str]:
    return [
        "rescue", "--swin", str(swin), "--med", str(corpus.path("med.csv")),
        "--counts", str(corpus.path("counts.csv")), "--images", str(corpus.images),
        "--masks", str(corpus.masks), "--gate", str(corpus.path("pc.gate")),
        "--config", str(corpus.path("rescue.conf")), "--labels", str(corpus.path("labels.txt")),
        "--out", str(out / "pred.csv"), "--trace", str(out / "trace.csv"),
    ]


def tables_commands(corpus: C.Corpus, out: Path) -> list[list[str]]:
    labels = str(corpus.path("labels.txt"))
    return [
        ["ensemble", *map(str, corpus.folds), "--labels", labels, "--out", str(out / "swin.csv")],
        _rescue_args(corpus, out / "swin.csv", out),
        ["evaluate", "--pred", str(out / "pred.csv"), "--truth", str(corpus.path("truth.csv")),
         "--labels", labels, "--out", str(out / "report.txt")],
    ]


def cells_commands(corpus: C.Corpus, out: Path) -> list[list[str]]:
    return [_rescue_args(corpus, corpus.folds[0], out)]


RESCUE_SETUP = (
    "import sys\n"
    "from wbcrescue.cli import load_gate, load_label_file, parse_class_counts, parse_config_file\n"
    "labels = load_label_file(sys.argv[1])\n"
    "parse_config_file(sys.argv[2], labels)\n"
    "parse_class_counts(sys.argv[3], labels)\n"
    "load_gate(sys.argv[4])\n"
)


def rescue_setup_args(corpus: C.Corpus) -> list[str]:
    return [str(corpus.path(n)) for n in ("labels.txt", "rescue.conf", "counts.csv", "pc.gate")]


# --- scan workload -----------------------------------------------------------

def read_ppm(path: Path) -> np.ndarray | None:
    """A P6 file as written by ``wbcrescue.netpbm.write_pnm``; read here
    without the engine's reader so that the check does not trust it."""
    try:
        data = path.read_bytes()
    except OSError:
        return None
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        return None
    try:
        width, height = (int(v) for v in parts[1].split())
    except ValueError:
        return None
    raster = np.frombuffer(parts[3], dtype=np.uint8)
    if raster.size != width * height * 3:
        return None
    return raster.reshape(height, width, 3)


def _injected_ok(clean: np.ndarray | None, noisy: np.ndarray | None) -> bool:
    """Every changed pixel is pure black or white, at roughly the set density."""
    if clean is None or noisy is None or clean.shape != noisy.shape:
        return False
    changed = np.any(clean != noisy, axis=2)
    impulse = np.all(noisy == 0, axis=2) | np.all(noisy == 255, axis=2)
    return bool(np.all(impulse[changed])) and 0.03 <= changed.mean() <= 0.15


def check_scan(corpus: C.Corpus, out: Path) -> Check:
    ids = corpus.image_ids
    features = read_rows(out / "features.csv",
                         ["image_id", "nc_ratio", "staining", "centroid_offset", "spikiness"])
    scores = read_rows(out / "scores.csv", ["image_id", "residual"])
    if features is None or scores is None or len(features) != len(ids) or len(scores) != len(ids):
        return Check(set(ids), 0.0)
    failed = set()
    pairs = []
    for image_id, feature, score in zip(ids, features, scores):
        try:
            values = [float(v) for v in feature[1:]] if len(feature) == 5 else []
            residual = float(score[1]) if len(score) == 2 else math.nan
        except ValueError:
            values, residual = [], math.nan
        shape_ok = (
            len(values) == 4 and all(math.isfinite(v) for v in values)
            and (values[3] > C.TAU_S) == (corpus.shapes[image_id] == "star")
        )
        decided = residual > C.NOISE_THRESHOLD
        pairs.append((corpus.noisy[image_id], decided))
        injected = _injected_ok(read_ppm(corpus.images / f"{image_id}.ppm"),
                                read_ppm(out / "noisy" / f"{image_id}.ppm"))
        if (feature[:1] != [image_id] or score[:1] != [image_id] or not shape_ok
                or decided != corpus.noisy[image_id] or not injected):
            failed.add(image_id)
    return Check(failed, macro_f1(pairs, (True, False)))


def scan_commands(corpus: C.Corpus, out: Path) -> list[list[str]]:
    images, masks = str(corpus.images), str(corpus.masks)
    return [
        ["features", "--images", images, "--masks", masks, "--out", str(out / "features.csv")],
        ["noise-score", "--images", images, "--out", str(out / "scores.csv")],
        ["inject-noise", "--images", images, "--out", str(out / "noisy"), *C.INJECT_ARGS],
    ]


SCAN_SETUP = (
    "import sys\n"
    "from wbcrescue.cli import list_image_ids\n"
    "list_image_ids(sys.argv[1])\n"
)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tables-50k",
            "ensemble, rescue and evaluate over 50k rows with 1% phase-3 rows on 32 px "
            "cells: time goes to CSV parse/write, phases 1-2 and per-row dispatch",
            lambda root, seed: C.build_table_corpus(root, seed, C.TABLE_MIX, 32, 2, "t"),
            tables_commands,
            ("swin.csv", "pred.csv", "trace.csv", "report.txt"),
            RESCUE_SETUP,
            rescue_setup_args,
            check_tables,
        ),
        Workload(
            "cells-360",
            "rescue over 100 rows, 80 reaching the shape filters on 360 px textured cells: "
            "time goes to lazy decode and morphology, tables are trivial",
            lambda root, seed: C.build_table_corpus(root, seed, C.CELL_MIX, 360, 1, "c"),
            cells_commands,
            ("pred.csv", "trace.csv"),
            RESCUE_SETUP,
            rescue_setup_args,
            check_rescue,
        ),
        Workload(
            "scan-128",
            "features, noise-score and inject-noise over 300 textured 128 px cells: eager "
            "morphology on every image, noise scoring and netpbm writes",
            lambda root, seed: C.build_scan_corpus(root, seed, C.SCAN_SHAPES, 128),
            scan_commands,
            ("features.csv", "scores.csv", "noisy"),
            SCAN_SETUP,
            lambda corpus: [str(corpus.images)],
            check_scan,
        ),
    )
}
