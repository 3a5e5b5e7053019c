import csv
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wbcrescue import cli, morphology, rescue
from wbcrescue.cli import run
from wbcrescue.core import RescueConfig, default_label_set
from wbcrescue.ingest import (
    DirectorySampleSource,
    parse_prob_table,
    read_image_rgb,
)
from wbcrescue.metrics import read_label_csv
from wbcrescue.morphology import (
    MorphVector,
    fit_gaussian_gate,
    load_gate,
    morph_vector,
    read_features_csv,
    save_gate,
    write_features_csv,
)
from wbcrescue.netpbm import write_pnm
from wbcrescue.noise import noise_score

from reference import pc_gate, sample_pool
from synth import build_corpus, write_csv, write_label_file


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    paths = build_corpus(root, n_common=20, n_rare_each=6, n_decoys_each=3)
    labels = default_label_set()
    truth = dict(zip(*read_label_csv(paths.truth, labels)))
    pc = labels.index_of("PC")
    source = DirectorySampleSource(paths.images, paths.masks)
    vectors = [
        morph_vector(source(image_id))
        for image_id, label in truth.items()
        if label == pc
    ]
    gate_path = root / "pc.gate"
    save_gate(gate_path, fit_gaussian_gate(vectors, ridge_scale=1e-3))
    config_path = root / "rescue.conf"
    config_path.write_text(
        "rare_classes = PLY,PC\ntau = 0.5\ntau_s = 0.15\ntau_m = 3.0\n",
        encoding="utf-8",
    )
    return paths, gate_path, config_path


def _rescue_args(paths, gate_path, config_path, out, trace=None, extra=()):
    args = [
        "rescue",
        "--swin", str(paths.swin),
        "--med", str(paths.med),
        "--counts", str(paths.counts),
        "--images", str(paths.images),
        "--masks", str(paths.masks),
        "--gate", str(gate_path),
        "--config", str(config_path),
        "--labels", str(paths.labels),
        "--out", str(out),
    ]
    if trace is not None:
        args += ["--trace", str(trace)]
    return args + list(extra)


def test_unknown_subcommand_prints_usage(capsys, monkeypatch):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    monkeypatch.setattr(sys, "argv", ["wbcrescue", "frobnicate"])
    with pytest.raises(SystemExit) as raised:
        cli.main()
    assert raised.value.code == 1
    assert capsys.readouterr().err == err


def test_missing_input_file_is_io_error(tmp_path, capsys):
    code = run(
        [
            "evaluate",
            "--pred", str(tmp_path / "nope.csv"),
            "--truth", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "report.txt"),
        ]
    )
    assert code == 2
    assert "i/o error" in capsys.readouterr().err


def test_evaluate_identical_files(tmp_path, capsys):
    labels_path = write_label_file(tmp_path / "labels.txt", default_label_set())
    rows = [[f"img{i}", "SNE"] for i in range(6)]
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], rows)
    out = tmp_path / "report.txt"
    code = run(
        [
            "evaluate", "--pred", str(pred), "--truth", str(pred),
            "--labels", str(labels_path), "--out", str(out),
            "--confusion", str(tmp_path / "cm.csv"),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "macro_specificity: 1.000000" in text
    assert (tmp_path / "cm.csv").exists()


def test_evaluate_failure_leaves_no_output(tmp_path):
    labels_path = write_label_file(tmp_path / "labels.txt", default_label_set())
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], [["a", "SNE"]])
    truth = write_csv(
        tmp_path / "truth.csv", ["image_id", "label"], [["a", "SNE"], ["b", "LY"]]
    )
    out = tmp_path / "report.txt"
    code = run(
        [
            "evaluate", "--pred", str(pred), "--truth", str(truth),
            "--labels", str(labels_path), "--out", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()
    assert not list(tmp_path.glob("report.txt.tmp*"))


def test_ensemble_averages_tables(tmp_path):
    labels = default_label_set()
    labels_path = write_label_file(tmp_path / "labels.txt", labels)
    header = ["image_id", *labels.names]
    row_a = ["img0", "0.2", "0.25"] + ["0.05"] * 11
    row_b = ["img0", "0.4", "0.05"] + ["0.05"] * 11
    a = write_csv(tmp_path / "a.csv", header, [row_a])
    b = write_csv(tmp_path / "b.csv", header, [row_b])
    out = tmp_path / "mean.csv"
    assert run(["ensemble", str(a), str(b), "--labels", str(labels_path), "--out", str(out)]) == 0
    merged = parse_prob_table(out, labels)
    assert merged.matrix[merged.ids.index("img0")][0] == pytest.approx(0.3, abs=1e-9)
    assert merged.matrix[merged.ids.index("img0")][1] == pytest.approx(0.15, abs=1e-9)


def test_rescue_end_to_end(corpus, tmp_path):
    paths, gate_path, config_path = corpus
    out = tmp_path / "pred.csv"
    trace = tmp_path / "trace.csv"
    assert run(_rescue_args(paths, gate_path, config_path, out, trace)) == 0
    labels = default_label_set()
    predictions = dict(zip(*read_label_csv(out, labels)))
    truth = dict(zip(*read_label_csv(paths.truth, labels)))
    ply, pc = labels.index_of("PLY"), labels.index_of("PC")
    rescued_rare = sum(
        1 for image_id, label in truth.items()
        if label in (ply, pc) and predictions[image_id] == label
    )
    assert rescued_rare == 12  # every true rare cell recovered
    phases = [line.split(",")[3] for line in trace.read_text().splitlines()[1:]]
    assert phases.count("Rescued") == 12
    assert phases.count("FailedMorphology") == 6  # all decoys denied


def test_rescue_without_image_dirs_fails_at_phase3(corpus, tmp_path, capsys):
    paths, gate_path, config_path = corpus
    args = [
        "rescue",
        "--swin", str(paths.swin), "--med", str(paths.med),
        "--counts", str(paths.counts),
        "--gate", str(gate_path), "--config", str(config_path),
        "--labels", str(paths.labels),
        "--out", str(tmp_path / "pred.csv"),
    ]
    assert run(args) == 2
    assert not (tmp_path / "pred.csv").exists()
    assert run(args + ["--skip-missing"]) == 0
    labels = default_label_set()
    predictions = dict(zip(*read_label_csv(tmp_path / "pred.csv", labels)))
    truth = dict(zip(*read_label_csv(paths.truth, labels)))
    ply = labels.index_of("PLY")
    assert all(
        predictions[image_id] != ply
        for image_id, label in truth.items()
        if label == ply
    )


def test_rescue_with_one_image_dir_fails_before_parsing(corpus, tmp_path, capsys):
    paths, gate_path, config_path = corpus
    out = tmp_path / "pred.csv"
    for given, missing in (("--images", "--masks"), ("--masks", "--images")):
        args = _rescue_args(paths, gate_path, config_path, out, extra=["--skip-missing"])
        del args[args.index(missing) : args.index(missing) + 2]
        # A table that cannot be read would exit 2; the flag check comes first.
        args[args.index("--swin") + 1] = str(tmp_path / "absent.csv")
        assert run(args) == 1
        assert f"{given} was given without {missing}" in capsys.readouterr().err
        assert not out.exists()


_ZERO_COUNTS = "class,count\n" + "".join(f"{name},0\n" for name in default_label_set())


@pytest.mark.parametrize(
    "flag, text, message, without",
    [
        # Appended to the corpus gate's four lines.
        ("--gate", "bogus = 1 2 3\n", ":5: unknown gate key 'bogus'", None),
        ("--labels", "SNE\nLY\nSNE\n", ": duplicate class name 'SNE'", None),
        ("--labels", "SNE\n", ": label catalog needs at least 2 classes", None),
        ("--labels", "SNE\nLY\nPLY\n", ": rare class 'PC' not in label catalog", "--config"),
        ("--config", "tau = 2\n", ": tau must lie in [0, 1], got 2.0", None),
        ("--counts", _ZERO_COUNTS, ": all class counts are zero", None),
        ("--counts", "class,count\nSNE,1\nSNE,2\n", ":3: duplicate class 'SNE'", None),
    ],
    ids=["gate-key", "labels-repeated", "labels-one", "labels-without-config", "config-tau",
         "counts-zero", "counts-repeated"],
)
def test_rescue_input_errors_name_their_file(corpus, tmp_path, capsys, flag, text, message,
                                             without):
    paths, gate_path, config_path = corpus
    bad = tmp_path / "bad.txt"
    bad.write_text((gate_path.read_text() if flag == "--gate" else "") + text, encoding="utf-8")
    out = tmp_path / "pred.csv"
    args = _rescue_args(paths, gate_path, config_path, out)
    args[args.index(flag) + 1] = str(bad)
    if without:
        del args[args.index(without) : args.index(without) + 2]
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {bad}{message}\n"
    assert not out.exists()


def test_an_output_that_cannot_replace_its_target_leaves_no_temporary(corpus, tmp_path, capsys):
    paths, gate_path, config_path = corpus
    out = tmp_path / "pred.csv"
    out.mkdir()
    assert run(_rescue_args(paths, gate_path, config_path, out)) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert list(tmp_path.iterdir()) == [out]
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["rescue", "evaluate"])
def test_a_second_output_that_cannot_be_written_leaves_the_first_as_it_was(
        corpus, tmp_path, capsys, command):
    # The first output of the last run stays; the second cannot be created.
    first = tmp_path / ("pred.csv" if command == "rescue" else "report.txt")
    first.write_bytes(b"last run\n")
    if command == "rescue":
        paths, gate_path, config_path = corpus
        argv = _rescue_args(paths, gate_path, config_path, first, tmp_path / "nodir" / "t.csv")
    else:
        pred = write_csv(tmp_path / "in.csv", ["image_id", "label"], [["a", "SNE"]])
        argv = ["evaluate", "--pred", str(pred), "--truth", str(pred), "--out", str(first),
                "--confusion", str(tmp_path / "nodir" / "c.csv")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert first.read_bytes() == b"last run\n"
    assert not list(tmp_path.glob("*.tmp*"))
    assert not (tmp_path / "nodir").exists()


def test_a_directory_as_second_output_is_refused_before_the_first_is_replaced(
        corpus, tmp_path, capsys):
    paths, gate_path, config_path = corpus
    out, trace = tmp_path / "pred.csv", tmp_path / "trace"
    out.write_bytes(b"last run\n")
    trace.mkdir()
    assert run(_rescue_args(paths, gate_path, config_path, out, trace)) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{trace}'\n"
    assert out.read_bytes() == b"last run\n"
    assert sorted(tmp_path.iterdir()) == [out, trace] and not any(trace.iterdir())


def test_the_traced_split_is_the_one_that_runs(corpus, tmp_path, monkeypatch):
    # The benchmark times `morphology.kmeans2_luminance` by patching it as a
    # module global: each shape vector must call it once, through that name.
    paths, gate_path, _ = corpus
    calls = []
    split = morphology.kmeans2_luminance

    def counting(sample):
        calls.append(sample.image_id)
        return split(sample)

    monkeypatch.setattr(morphology, "kmeans2_luminance", counting)
    source = DirectorySampleSource(paths.images, paths.masks)
    ids = sorted(path.stem for path in Path(paths.images).iterdir())
    gate = load_gate(gate_path)
    for image_id in ids:
        morph_vector(source(image_id))
        rescue.phase3_filter("PC", source(image_id), gate, RescueConfig())
    assert calls == [image_id for image_id in ids for _ in range(2)]
    calls.clear()
    out = tmp_path / "features.csv"
    assert run(["features", "--images", str(paths.images), "--masks", str(paths.masks),
                "--out", str(out)]) == 0
    assert sorted(calls) == ids


def test_features_with_images_naming_a_file_is_io_error(tmp_path, capsys):
    image = tmp_path / "a.ppm"
    write_pnm(image, np.zeros((4, 4, 3), dtype=np.uint8))
    out = tmp_path / "features.csv"
    args = ["features", "--images", str(image), "--masks", str(tmp_path), "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == f"i/o error: {image} is not a directory\n"
    assert not out.exists()


def test_rescue_rejects_unfilterable_rare_class(corpus, tmp_path, capsys):
    paths, gate_path, _ = corpus
    config = tmp_path / "bad.conf"
    config.write_text("rare_classes = PLY,PC,VLY\n", encoding="utf-8")
    code = run(_rescue_args(paths, gate_path, config, tmp_path / "pred.csv"))
    assert code == 1
    assert "without a shape filter" in capsys.readouterr().err


def test_features_fit_and_calibrate(corpus, tmp_path, capsys):
    paths, _, _ = corpus
    features = tmp_path / "features.csv"
    assert run(
        [
            "features", "--images", str(paths.images), "--masks", str(paths.masks),
            "--out", str(features),
        ]
    ) == 0
    rows = read_features_csv(features)
    assert len(rows) == 38
    assert all(vector.nc_ratio > 0 for _, vector, _ in rows)

    gate_out = tmp_path / "fitted.gate"
    assert run(["fit-pc-model", "--features", str(features), "--out", str(gate_out)]) == 0
    gate = load_gate(gate_out)
    assert gate.sample_count == 38

    tau_out = tmp_path / "tau_s.txt"
    assert run(
        ["calibrate-spikiness", "--features", str(features), "--k", "2.0", "--out", str(tau_out)]
    ) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("tau_s = ")
    assert tau_out.read_text().startswith("tau_s = ")
    value = float(printed.split("=")[1])
    scores = [spike for _, _, spike in rows]
    mean = sum(scores) / len(scores)
    std = (sum((s - mean) ** 2 for s in scores) / len(scores)) ** 0.5
    assert value == pytest.approx(mean + 2 * std, rel=1e-6)


def test_calibrate_spikiness_rejects_nan_k(tmp_path, capsys):
    features = write_csv(
        tmp_path / "features.csv",
        ["image_id", "nc_ratio", "staining", "centroid_offset", "spikiness"],
        [["a", "0.5", "0.6", "0.1", "0.02"], ["b", "1.2", "0.3", "0.4", "0.33"]],
    )
    tau_out = tmp_path / "tau_s.txt"
    code = run(
        ["calibrate-spikiness", "--features", str(features), "--k", "nan", "--out", str(tau_out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "k must be finite" in captured.err
    assert captured.out == ""
    assert not tau_out.exists()


def test_calibrate_spikiness_prints_nothing_when_its_out_cannot_be_written(tmp_path, capsys):
    features = write_csv(
        tmp_path / "features.csv",
        ["image_id", "nc_ratio", "staining", "centroid_offset", "spikiness"],
        [["a", "0.5", "0.6", "0.1", "0.02"], ["b", "1.2", "0.3", "0.4", "0.33"]],
    )
    tau_out = tmp_path / "nodir" / "tau_s.txt"
    code = run(["calibrate-spikiness", "--features", str(features), "--out", str(tau_out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: ")
    assert list(tmp_path.iterdir()) == [features]


@pytest.mark.parametrize("spikes, k", [(["1e308", "1e308"], "2"), (["1e200", "2e200"], "2"),
                                       (["0", "1e10"], "1e300")])
def test_calibrate_spikiness_refuses_a_threshold_past_float_range(tmp_path, capsys, spikes, k):
    features = write_csv(
        tmp_path / "features.csv",
        ["image_id", "nc_ratio", "staining", "centroid_offset", "spikiness"],
        [["a", "0.5", "0.6", "0.1", spikes[0]], ["b", "1.2", "0.3", "0.4", spikes[1]]],
    )
    tau_out = tmp_path / "tau_s.txt"
    code = run(["calibrate-spikiness", "--features", str(features), "--k", k,
                "--out", str(tau_out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: spikiness threshold overflows: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [features]


@pytest.mark.parametrize("command", ["rescue", "evaluate"])
@pytest.mark.parametrize("spelling", ["plain", "dot", "symlink", "hard link", "new", "new dot"])
def test_two_outputs_naming_one_file_exit_1_before_any_work(tmp_path, capsys, command, spelling):
    target = tmp_path / "x.csv"
    if not spelling.startswith("new"):
        target.write_bytes(b"kept\n")
    second = {"plain": target, "dot": tmp_path / "." / "x.csv", "symlink": tmp_path / "link.csv",
              "hard link": tmp_path / "hard.csv", "new": target,
              "new dot": tmp_path / "." / "x.csv"}[spelling]
    if spelling == "symlink":
        second.symlink_to(target)
    elif spelling == "hard link":
        os.link(target, second)
    missing = str(tmp_path / "missing.csv")  # read by any work, which would exit 2
    if command == "rescue":
        argv = ["rescue", "--swin", missing, "--med", missing, "--counts", missing,
                "--out", str(target), "--trace", str(second)]
        flags = "--out and --trace"
    else:
        argv = ["evaluate", "--pred", missing, "--truth", missing,
                "--out", str(target), "--confusion", str(second)]
        flags = "--out and --confusion"
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {flags} name the same file {second}\n"
    if spelling.startswith("new"):
        assert not list(tmp_path.iterdir())
    else:
        assert target.read_bytes() == b"kept\n"
        assert not list(tmp_path.glob("*.tmp*"))


@pytest.mark.parametrize(
    "image_id, gray, mask_value, reason",
    [("b", None, 0, "b: empty mask"), ("c", 90, 255, "c: degenerate luminance distribution")],
)
def test_features_names_mask_of_unmeasurable_cell(tmp_path, capsys, image_id, gray, mask_value,
                                                   reason):
    images, masks = tmp_path / "images", tmp_path / "masks"
    images.mkdir()
    masks.mkdir()
    rng = np.random.default_rng(3)
    write_pnm(images / "a.ppm", rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
    write_pnm(masks / "a.pgm", np.full((8, 8), 255, dtype=np.uint8))
    pixels = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8) if gray is None else np.full(
        (8, 8, 3), gray, dtype=np.uint8
    )
    write_pnm(images / f"{image_id}.ppm", pixels)
    write_pnm(masks / f"{image_id}.pgm", np.full((8, 8), mask_value, dtype=np.uint8))
    out = tmp_path / "features.csv"
    args = ["features", "--images", str(images), "--masks", str(masks), "--out", str(out)]
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {masks / image_id}.pgm: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["features", "noise-score", "inject-noise"])
def test_image_file_name_that_is_not_utf8_exits_1(tmp_path, capsys, command):
    images, masks = tmp_path / "images", tmp_path / "masks"
    images.mkdir()
    masks.mkdir()
    name = os.fsdecode(b"\xffcell")
    try:
        write_pnm(images / f"{name}.ppm",
                  np.random.default_rng(3).integers(0, 256, (8, 8, 3), dtype=np.uint8))
    except OSError:  # APFS, for one, refuses a name that is not UTF-8
        pytest.skip("this filesystem refuses file names that are not UTF-8")
    write_pnm(masks / f"{name}.pgm", np.full((8, 8), 255, dtype=np.uint8))
    out = tmp_path / "out"
    args = [command, "--images", str(images), "--out", str(out)]
    if command == "features":
        args += ["--masks", str(masks)]
    if command == "inject-noise":
        args += ["--density", "0.2"]
    assert run(args) == 1
    assert capsys.readouterr().err == (
        f"error: {images}: image file name b'\\xffcell.ppm' is not UTF-8\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["images", "masks"]


def test_noise_score_and_inject(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    rng = np.random.default_rng(5)
    write_pnm(images / "flat.ppm", np.full((12, 12, 3), 90, dtype=np.uint8))
    write_pnm(images / "textured.ppm", rng.integers(0, 256, (12, 12, 3), dtype=np.uint8))

    scores = tmp_path / "scores.csv"
    assert run(["noise-score", "--images", str(images), "--out", str(scores)]) == 0
    lines = scores.read_text().splitlines()
    assert lines[0] == "image_id,residual"
    parsed = dict(line.split(",") for line in lines[1:])
    assert float(parsed["flat"]) == 0.0
    assert float(parsed["textured"]) > 0.0

    noisy_dir = tmp_path / "noisy"
    assert run(
        [
            "inject-noise", "--images", str(images), "--out", str(noisy_dir),
            "--density", "0.3", "--salt-ratio", "0.5", "--seed", "9",
        ]
    ) == 0
    corrupted = read_image_rgb(noisy_dir / "flat.ppm")
    assert corrupted.shape == (12, 12, 3)
    changed = (corrupted != 90).any(axis=2)
    assert 0 < int(changed.sum()) < 144
    assert set(np.unique(corrupted[changed]).tolist()) <= {0, 255}


def test_noise_score_prefers_ppm_over_pgm(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    textured = np.random.default_rng(7).integers(0, 256, (8, 8, 3), dtype=np.uint8)
    write_pnm(images / "x.ppm", textured)
    write_pnm(images / "x.pgm", np.full((8, 8), 90, dtype=np.uint8))
    scores = tmp_path / "scores.csv"
    assert run(["noise-score", "--images", str(images), "--out", str(scores)]) == 0
    assert scores.read_text().splitlines()[1:] == [f"x,{noise_score(textured):.6f}"]


def test_noise_score_quotes_ids_with_commas(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    write_pnm(images / "a,b.ppm", np.full((8, 8, 3), 90, dtype=np.uint8))
    scores = tmp_path / "scores.csv"
    assert run(["noise-score", "--images", str(images), "--out", str(scores)]) == 0
    with open(scores, newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [["image_id", "residual"], ["a,b", "0.000000"]]


def _write_cells(images, count, size):
    images.mkdir()
    rng = np.random.default_rng(11)
    for i in range(count):
        write_pnm(images / f"c{i:02d}.ppm", rng.integers(0, 256, (size, size, 3), dtype=np.uint8))


def _fail(exc):
    def fail(*_):
        raise exc
    return fail


@pytest.mark.parametrize("patch", ["CDLL raises", "no mallopt", "confstr raises", "not glibc"])
def test_allocator_tuning_is_a_silent_no_op_where_it_cannot_run(tmp_path, monkeypatch, capsys,
                                                                 patch):
    images = tmp_path / "images"
    _write_cells(images, 3, 12)
    argv = ["noise-score", "--images", str(images), "--out"]
    assert run([*argv, str(tmp_path / "tuned.csv")]) == 0
    if patch == "CDLL raises":
        monkeypatch.setattr(cli.ctypes, "CDLL", _fail(OSError("no such library")))
    elif patch == "no mallopt":
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    elif patch == "not glibc":  # as on musl: no version, and mallopt is never looked up
        monkeypatch.setattr(cli.os, "confstr", lambda name: None)
        monkeypatch.setattr(cli.ctypes, "CDLL", _fail(AssertionError("CDLL was loaded")))
    else:
        monkeypatch.setattr(cli.os, "confstr", _fail(ValueError("unrecognized configuration name")))
    capsys.readouterr()
    assert run([*argv, str(tmp_path / "untuned.csv")]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "untuned.csv").read_bytes() == (tmp_path / "tuned.csv").read_bytes()


def test_allocator_tuning_sets_both_glibc_thresholds(tmp_path, monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    images = tmp_path / "images"
    _write_cells(images, 1, 8)
    assert run(["noise-score", "--images", str(images), "--out", str(tmp_path / "s.csv")]) == 0
    # M_MMAP_THRESHOLD 4 MiB, then M_TRIM_THRESHOLD 64 MiB.
    assert calls == [(-3, 4 << 20), (-1, 64 << 20)]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


_FAULTS_AROUND_RUN = """
import resource, sys
from wbcrescue.cli import run
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
code = run(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator is tuned on glibc only")
def test_noise_score_reuses_heap_pages_from_image_to_image(tmp_path):
    # Each 128 px cell's float64 temporaries are ~131 KB. If freed heap went
    # back to the kernel after every image, the next image would fault it
    # in again: over 200 minor faults per image, against under 10 kept.
    images, count = tmp_path / "images", 40
    _write_cells(images, count, 128)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_AROUND_RUN, "--threads", "1", "noise-score",
         "--images", str(images), "--out", str(tmp_path / "scores.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    code, faults = map(int, proc.stdout.split())
    assert code == 0
    assert faults < 20 * count


def test_inject_noise_is_order_independent_per_image(tmp_path):
    # Per-image seeds derive from the id, so adding a file never changes
    # the corruption applied to existing ones.
    images_a = tmp_path / "a"
    images_a.mkdir()
    rng = np.random.default_rng(6)
    image = rng.integers(0, 256, (10, 10, 3), dtype=np.uint8)
    write_pnm(images_a / "x.ppm", image)
    out_a = tmp_path / "out_a"
    run(["inject-noise", "--images", str(images_a), "--out", str(out_a),
         "--density", "0.2", "--seed", "3"])

    images_b = tmp_path / "b"
    images_b.mkdir()
    write_pnm(images_b / "a_first.ppm", image)
    write_pnm(images_b / "x.ppm", image)
    out_b = tmp_path / "out_b"
    run(["inject-noise", "--images", str(images_b), "--out", str(out_b),
         "--density", "0.2", "--seed", "3"])
    assert (out_a / "x.ppm").read_bytes() == (out_b / "x.ppm").read_bytes()


def _images_with_truncated_c2(directory):
    directory.mkdir()
    rng = np.random.default_rng(8)
    for image_id in ("c0", "c1", "c2", "c3"):
        write_pnm(directory / f"{image_id}.ppm", rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    path = directory / "c2.ppm"
    path.write_bytes(path.read_bytes()[:-5])


@pytest.mark.parametrize("threads", ["1", "4"])
def test_inject_noise_failure_removes_its_outputs(tmp_path, capsys, threads):
    images = tmp_path / "images"
    _images_with_truncated_c2(images)
    fresh = tmp_path / "made" / "noisy"
    args = ["--threads", threads, "inject-noise", "--images", str(images), "--density", "0.2"]
    assert run([*args, "--out", str(fresh)]) == 1
    assert "c2.ppm" in capsys.readouterr().err
    assert not (tmp_path / "made").exists()

    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "keep.txt").write_text("kept\n")
    (existing / "c0.ppm").write_text("stale\n")  # kept: no copy replaces it
    assert run([*args, "--out", str(existing)]) == 1
    assert {p.name: p.read_text() for p in existing.iterdir()} == {
        "keep.txt": "kept\n", "c0.ppm": "stale\n"}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_failed_inject_noise_keeps_the_copies_of_an_earlier_run(tmp_path, capsys, threads):
    images = tmp_path / "images"
    images.mkdir()
    rng = np.random.default_rng(8)
    for image_id in ("c0", "c1", "c2"):
        write_pnm(images / f"{image_id}.ppm", rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    out = tmp_path / "noisy"
    args = ["--threads", threads, "inject-noise", "--images", str(images), "--out", str(out),
            "--density", "0.2"]
    assert run([*args, "--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["c0.ppm", "c1.ppm", "c2.ppm"]

    c2 = images / "c2.ppm"
    c2.write_bytes(c2.read_bytes()[:-5])
    assert run([*args, "--seed", "2"]) == 1  # another seed: every copy would change
    assert "c2.ppm" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not list(tmp_path.rglob("*.tmp*"))


@pytest.mark.parametrize("threads", ["1", "2"])
def test_inject_noise_over_a_directory_named_copy_replaces_no_copy(tmp_path, capsys, threads):
    images = tmp_path / "images"
    images.mkdir()
    rng = np.random.default_rng(8)
    for image_id in ("c0", "c1", "c2"):
        write_pnm(images / f"{image_id}.ppm", rng.integers(0, 256, (6, 6, 3), dtype=np.uint8))
    out = tmp_path / "noisy"
    out.mkdir()
    (out / "c0.ppm").write_bytes(b"old c0\n")
    (out / "c1.ppm").mkdir()
    (out / "c2.ppm").write_bytes(b"old c2\n")
    args = ["--threads", threads, "inject-noise", "--images", str(images), "--out", str(out),
            "--density", "0.2"]
    assert run(args) == 2
    assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{out / 'c1.ppm'}'\n"
    assert (out / "c0.ppm").read_bytes() == b"old c0\n"
    assert (out / "c2.ppm").read_bytes() == b"old c2\n"
    assert (out / "c1.ppm").is_dir() and not any((out / "c1.ppm").iterdir())
    assert not list(tmp_path.rglob("*.tmp*"))
    # A symlink to a directory is a target os.replace replaces.
    (out / "c1.ppm").rmdir()
    (out / "c1.ppm").symlink_to(tmp_path / "images", target_is_directory=True)
    assert run(args) == 0
    assert all(path.is_file() and not path.is_symlink() for path in out.iterdir())


@pytest.mark.parametrize("spelling", ["plain", "dot", "symlink"])
@pytest.mark.parametrize("truncated", [False, True])
def test_inject_noise_refuses_to_write_into_its_images(tmp_path, capsys, spelling, truncated):
    images = tmp_path / "imgs"
    _images_with_truncated_c2(images)
    if not truncated:
        write_pnm(images / "c2.ppm", np.zeros((6, 6, 3), dtype=np.uint8))
    before = {p.name: p.read_bytes() for p in images.iterdir()}
    out = {"plain": images, "dot": images / ".", "symlink": tmp_path / "link"}[spelling]
    if spelling == "symlink":
        out.symlink_to(images, target_is_directory=True)
    args = ["inject-noise", "--images", str(images), "--out", str(out), "--density", "0.2"]
    assert run(args) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out} is the --images directory; "
        "the noisy copies would overwrite the originals\n"
    )
    assert {p.name: p.read_bytes() for p in images.iterdir()} == before

@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--density", "1.5", "density must lie in [0, 1], got 1.5"),
        ("--salt-ratio", "-0.1", "salt_ratio must lie in [0, 1], got -0.1"),
    ],
)
@pytest.mark.parametrize("image_count", [0, 1])
def test_inject_noise_checks_rates_before_creating_out(
    tmp_path, capsys, option, value, message, image_count
):
    images = tmp_path / "images"
    images.mkdir()
    for index in range(image_count):
        write_pnm(images / f"x{index}.ppm", np.full((4, 4, 3), 90, dtype=np.uint8))
    out = tmp_path / "noisy"
    args = ["inject-noise", "--images", str(images), "--out", str(out), "--density", "0.2"]
    assert run([*args, option, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_threads_do_not_change_rescue_output(corpus, tmp_path):
    paths, gate_path, config_path = corpus
    outputs = []
    for threads in ("1", "8"):
        out = tmp_path / f"pred{threads}.csv"
        trace = tmp_path / f"trace{threads}.csv"
        args = ["--threads", threads] + _rescue_args(paths, gate_path, config_path, out, trace)
        assert run(args) == 0
        outputs.append(out.read_bytes() + trace.read_bytes())
    assert outputs[0] == outputs[1]


def test_threads_do_not_change_per_image_command_outputs(corpus, tmp_path):
    paths, _, _ = corpus
    outputs = []
    for threads in ("1", "4"):
        base = tmp_path / f"t{threads}"
        images = ["--images", str(paths.images)]
        commands = [
            ["features", *images, "--masks", str(paths.masks), "--out", str(base / "f.csv")],
            ["noise-score", *images, "--out", str(base / "scores.csv")],
            ["inject-noise", *images, "--out", str(base / "noisy"), "--density", "0.1"],
        ]
        base.mkdir()
        for command in commands:
            assert run(["--threads", threads, *command]) == 0
        outputs.append(
            {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}
        )
    assert len(outputs[0]) == 2 + 38
    assert outputs[0] == outputs[1]


def test_threads_zero_means_auto(corpus, tmp_path, monkeypatch):
    paths, gate_path, config_path = corpus
    pool_sizes = []

    class RecordingExecutor(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(rescue, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    out = tmp_path / "pred.csv"
    args = ["--threads", "0"] + _rescue_args(paths, gate_path, config_path, out)
    assert run(args) == 0
    assert out.exists()
    # Without an affinity call the pool falls back to the CPU count.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert run(args) == 0
    assert pool_sizes == [3, 5]


_IMPORTS_AROUND_RUN = """
import json, sys
import argparse, array, csv, numpy
baseline = set(sys.modules)
from wbcrescue import cli, rescue
unused = {"concurrent.futures", "logging", "dataclasses"}
one_thread = cli.run(["--threads", "1", "evaluate", *sys.argv[1:7]])
loaded_by_one = sorted(unused & set(sys.modules) - baseline)
two_threads = cli.run(["--threads", "2", "features", *sys.argv[7:]])
pool_loaded = "concurrent.futures" in sys.modules
from concurrent.futures import ThreadPoolExecutor
print(json.dumps([one_thread, loaded_by_one, two_threads, pool_loaded,
                  getattr(cli, "ThreadPoolExecutor") is ThreadPoolExecutor,
                  getattr(rescue, "ThreadPoolExecutor") is ThreadPoolExecutor]))
"""


def test_a_command_imports_the_thread_pool_only_when_it_starts_one(tmp_path):
    # Taken after what the package needs anyway (argparse, csv, array,
    # numpy), so that a stdlib whose argparse pulls in one of the three
    # does not fail the test.
    write_csv(tmp_path / "pred.csv", ["image_id", "label"], [["a", "SNE"], ["b", "LY"]])
    images, masks = tmp_path / "images", tmp_path / "masks"
    images.mkdir()
    masks.mkdir()
    pool = sample_pool()
    for name in ("star_a", "pc_a"):
        write_pnm(images / f"{name}.ppm", pool[name].pixels)
        write_pnm(masks / f"{name}.pgm", pool[name].mask.astype(np.uint8) * 255)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AROUND_RUN,
         "--pred", str(tmp_path / "pred.csv"), "--truth", str(tmp_path / "pred.csv"),
         "--out", str(tmp_path / "report.txt"),
         "--images", str(images), "--masks", str(masks), "--out", str(tmp_path / "f.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == [0, [], 0, True, True, True], proc.stderr
    assert len(read_features_csv(tmp_path / "f.csv")) == 2


def test_threads_default_to_one():
    args = cli.build_parser().parse_args(["evaluate", "--pred", "p", "--truth", "t", "--out", "o"])
    assert args.threads == 1


def test_negative_threads_is_usage_error(tmp_path, capsys):
    commands = (
        "rescue", "ensemble", "fit-pc-model", "calibrate-spikiness",
        "features", "noise-score", "inject-noise", "evaluate",
    )
    for command in commands:
        for text in ("-1", "abc"):
            assert run(["--threads", text, command]) == 1
            assert f"argument --threads: must be an integer >= 0, got {text!r}" in \
                capsys.readouterr().err
    truth = write_csv(tmp_path / "truth.csv", ["image_id", "label"], [["a", "LY"]])
    out = tmp_path / "report.txt"
    args = ["evaluate", "--pred", str(truth), "--truth", str(truth), "--out", str(out)]
    assert run(["--threads", "-1", *args]) == 1
    assert not out.exists()
    assert run(["--threads", "0", *args]) == 0


def test_rescue_without_gate_fails_when_pc_candidate_surfaces(corpus, tmp_path, capsys):
    paths, _, config_path = corpus
    args = [
        "rescue",
        "--swin", str(paths.swin), "--med", str(paths.med),
        "--counts", str(paths.counts),
        "--images", str(paths.images), "--masks", str(paths.masks),
        "--config", str(config_path), "--labels", str(paths.labels),
        "--out", str(tmp_path / "pred.csv"),
    ]
    assert run(args) == 1
    assert "gate model required" in capsys.readouterr().err
    assert not (tmp_path / "pred.csv").exists()


def test_gate_products_past_float_range_fail_with_one_error_line(corpus, tmp_path, capsys):
    # Tier-1 turns a RuntimeWarning into an error, so a leaked one fails here.
    paths, gate_path, config_path = corpus
    bad_gate = tmp_path / "huge.gate"
    lines = gate_path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad_gate.write_text(
        "".join("cov = 1e200 0 0 0 1e200 0 0 0 1e200\n" if line.startswith("cov") else line
                for line in lines),
        encoding="utf-8",
    )
    out = tmp_path / "pred.csv"
    assert run(_rescue_args(paths, bad_gate, config_path, out)) == 1
    assert capsys.readouterr().err == f"error: {bad_gate}: degenerate covariance\n"
    assert not out.exists()

    features = tmp_path / "features.csv"
    rng = np.random.default_rng(3)
    write_features_csv(
        features, [(f"c{i}", MorphVector(*(1e200 * (1 + rng.random(3)))), 0.0) for i in range(6)]
    )
    assert run(["fit-pc-model", "--features", str(features), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: gate fit: non-finite gate parameters\n"
    assert not out.exists()


def test_rescue_boosts_a_class_count_past_float_range_to_the_cap(corpus, tmp_path):
    paths, gate_path, config_path = corpus
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "class,count\n" + "".join(
            f"{name},{'1' + '0' * 400 if name == 'SNE' else 100}\n"
            for name in default_label_set().names
        ),
        encoding="utf-8",
    )
    out = tmp_path / "pred.csv"
    args = _rescue_args(paths, gate_path, config_path, out)
    args[args.index("--counts") + 1] = str(counts)
    assert run(args) == 0
    labels = default_label_set()
    assert sorted(read_label_csv(out, labels)[0]) == sorted(read_label_csv(paths.truth, labels)[0])


def test_rescue_rejects_gate_with_nan_ridge(corpus, tmp_path, capsys):
    paths, gate_path, config_path = corpus
    bad_gate = tmp_path / "nan.gate"
    lines = gate_path.read_text(encoding="utf-8").splitlines(keepends=True)
    bad_gate.write_text(
        "".join("ridge = nan\n" if line.startswith("ridge") else line for line in lines),
        encoding="utf-8",
    )
    out = tmp_path / "pred.csv"
    assert run(_rescue_args(paths, bad_gate, config_path, out)) == 1
    assert "nan.gate: ridge must be finite and >= 0, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_bad_probability_file_is_validation_error(corpus, tmp_path, capsys):
    paths, gate_path, config_path = corpus
    bad = write_csv(
        tmp_path / "bad.csv",
        ["image_id", *default_label_set().names],
        [["img0"] + ["0.05"] * 13],
    )
    args = _rescue_args(paths, gate_path, config_path, tmp_path / "pred.csv")
    args[args.index("--swin") + 1] = str(bad)
    assert run(args) == 1
    assert "out of tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "ensemble"])
def test_a_field_over_the_csv_size_limit_exits_1_naming_its_line(tmp_path, capsys, command):
    long_id = "x" * 200_000
    if command == "evaluate":
        bad = write_csv(tmp_path / "pred.csv", ["image_id", "label"], [[long_id, "SNE"]])
        args = ["evaluate", "--pred", str(bad), "--truth", str(bad)]
    else:
        header = ["image_id", *default_label_set().names]
        bad = write_csv(tmp_path / "a.csv", header, [[long_id, "0.5", "0.5"] + ["0"] * 11])
        args = ["ensemble", str(bad), str(bad)]
    out = tmp_path / "out.txt"
    assert run(args + ["--out", str(out)]) == 1
    assert f"error: {bad}:2: field larger than field limit" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("out.txt.tmp*"))


def test_rescue_loads_no_cell_from_outside_its_image_dirs(corpus, tmp_path):
    paths, gate_path, config_path = corpus
    trace = tmp_path / "trace.csv"
    assert run(_rescue_args(paths, gate_path, config_path, tmp_path / "pred.csv", trace)) == 0
    with open(trace, newline="", encoding="utf-8") as handle:
        image_id = next(row[0] for row in csv.reader(handle) if row[3] == "Rescued")
    # The rescued cell sits beside --images and --masks, and the tables
    # name it by a path that leads there.
    escaped = f"../outside/{image_id}"
    outside = tmp_path / "outside"
    for directory in (outside, tmp_path / "images", tmp_path / "masks"):
        directory.mkdir()
    shutil.copy(paths.images / f"{image_id}.ppm", outside)
    shutil.copy(paths.masks / f"{image_id}.pgm", outside)
    tables = {}
    for name in ("swin", "med"):
        with open(getattr(paths, name), newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        [probs] = [row[1:] for row in rows if row[0] == image_id]
        tables[name] = write_csv(tmp_path / f"{name}.csv", header, [[escaped, *probs]])
    args = [
        "rescue",
        "--swin", str(tables["swin"]), "--med", str(tables["med"]),
        "--counts", str(paths.counts),
        "--images", str(tmp_path / "images"), "--masks", str(tmp_path / "masks"),
        "--gate", str(gate_path), "--config", str(config_path),
        "--out", str(tmp_path / "escaped.csv"), "--trace", str(trace),
    ]
    assert run(args) == 2
    assert run(args + ["--skip-missing"]) == 0
    with open(trace, newline="", encoding="utf-8") as handle:
        [_, row] = csv.reader(handle)
    assert row[0] == escaped and row[3] == "FailedMorphology"


@pytest.fixture(scope="module")
def valid_inputs(corpus, tmp_path_factory):
    """Valid input files of the commands that read no images, by name."""
    paths, gate_path, config_path = corpus
    features = tmp_path_factory.mktemp("features") / "features.csv"
    argv = ["features", "--images", str(paths.images), "--masks", str(paths.masks)]
    assert run(argv + ["--out", str(features)]) == 0
    return {
        "truth": paths.truth, "swin": paths.swin, "med": paths.med, "counts": paths.counts,
        "config": config_path, "gate": gate_path, "features": features,
    }


# The input files of each command as (flag, name in valid_inputs); a None
# flag is a positional argument.
_FUZZ_COMMANDS = {
    "evaluate": [("--pred", "truth"), ("--truth", "truth")],
    "ensemble": [(None, "swin"), (None, "med")],
    "rescue": [
        ("--swin", "swin"), ("--med", "med"), ("--counts", "counts"),
        ("--config", "config"), ("--gate", "gate"),
    ],
    "fit-pc-model": [("--features", "features")],
    "calibrate-spikiness": [("--features", "features")],
}

_INSERTS = {"bom": b"\xff\xfe", "nul": b"\0", "quote": b'"', "long": b"x" * 140_000, "comma": b","}
_MUTATIONS = ["truncate", "byte", *_INSERTS]


def _mutate(data: bytes, mutation: str, at: int, byte: int) -> bytes:
    """`data` truncated at `at`, or with one insert there; a comma is
    inserted beside an existing one when there is any, doubling it."""
    at %= len(data) + 1
    if mutation == "truncate":
        return data[:at]
    commas = [i for i, value in enumerate(data) if value == ord(",")]
    if mutation == "comma" and commas:
        at = commas[at % len(commas)]
    insert = bytes([byte]) if mutation == "byte" else _INSERTS[mutation]
    return data[:at] + insert + data[at:]


@given(
    command=st.sampled_from(sorted(_FUZZ_COMMANDS)),
    slot=st.integers(0, 4),
    mutation=st.sampled_from(_MUTATIONS),
    at=st.integers(0, 2**16),
    byte=st.integers(0, 255),
)
# A field over the csv module's size limit in the second line of --pred.
@example(command="evaluate", slot=0, mutation="long", at=20, byte=0)
@settings(max_examples=200, deadline=None)
def test_malformed_input_never_escapes_run(
    valid_inputs, tmp_path_factory, command, slot, mutation, at, byte
):
    files = _FUZZ_COMMANDS[command]
    work = tmp_path_factory.mktemp("fuzz")
    argv = [command, "--out", str(work / "out")]
    for position, (flag, name) in enumerate(files):
        path = valid_inputs[name]
        if position == slot % len(files):
            mutated = work / path.name
            mutated.write_bytes(_mutate(path.read_bytes(), mutation, at, byte))
            path = mutated
        argv += [str(path)] if flag is None else [flag, str(path)]
    if command == "rescue":
        argv.append("--skip-missing")
    assert run(argv) in (0, 1, 2)


def test_verbose_is_decided_per_run(tmp_path, capsys):
    pred = write_csv(tmp_path / "pred.csv", ["image_id", "label"], [["a", "SNE"], ["b", "LY"]])
    truth = write_csv(tmp_path / "truth.csv", ["image_id", "label"], [["a", "SNE"], ["b", "SNE"]])
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth),
            "--out", str(tmp_path / "report.txt")]
    for verbose in (False, True, False):
        assert run(["--verbose"] * verbose + argv) == 0
        err = capsys.readouterr().err
        if verbose:
            assert err.startswith("INFO wbcrescue: macro_f1 ") and err.endswith(" over 2 samples\n")
        else:
            assert err == ""


@pytest.fixture(scope="module")
def cell_inputs(tmp_path_factory):
    """Three cells, one of them a grayscale P5 image, and the rescue inputs
    that send each one to a shape filter; by name."""
    root = tmp_path_factory.mktemp("cells")
    images, masks = root / "images", root / "masks"
    images.mkdir()
    masks.mkdir()
    pool = sample_pool()
    for image_id, key, suffix in (("p", "star_a", ".ppm"), ("q", "pc_a", ".ppm"),
                                  ("g", "disc_a", ".pgm")):
        pixels = pool[key].pixels
        write_pnm(images / (image_id + suffix), pixels if suffix == ".ppm" else pixels[:, :, 0])
        write_pnm(masks / f"{image_id}.pgm", np.where(pool[key].mask, 255, 0).astype(np.uint8))
    labels = default_label_set()
    rows = []
    for image_id, name in (("p", "PLY"), ("q", "PC"), ("g", "PLY")):
        probs = [0.1 / (len(labels) - 1)] * len(labels)
        probs[labels.index_of(name)] = 0.9
        rows.append([image_id, *map(repr, probs)])
    table = write_csv(root / "probs.csv", ["image_id", *labels], rows)
    counts = write_csv(root / "counts.csv", ["class", "count"], [[name, 100] for name in labels])
    save_gate(root / "pc.gate", pc_gate())
    return {"images": images, "masks": masks, "swin": table, "med": table, "counts": counts,
            "gate": root / "pc.gate"}


def _cell_command(command, inputs, out):
    """argv of `command` over the files of `cell_inputs` (or a copy of them)."""
    argv = [command, "--images", str(inputs["images"]), "--out", str(out)]
    if command in ("features", "rescue"):
        argv += ["--masks", str(inputs["masks"])]
    if command == "rescue":
        for flag in ("swin", "med", "counts", "gate"):
            argv += [f"--{flag}", str(inputs[flag])]
        argv.append("--skip-missing")
    if command == "inject-noise":
        argv += ["--density", "0.2"]
    return argv


def _copy_cells(inputs, work):
    copied = dict(inputs, images=work / "images", masks=work / "masks")
    shutil.copytree(inputs["images"], copied["images"])
    shutil.copytree(inputs["masks"], copied["masks"])
    return copied


@pytest.mark.parametrize("command", ["features", "rescue"])
def test_image_and_mask_size_mismatch_names_both_files(cell_inputs, tmp_path, capsys, command):
    inputs = _copy_cells(cell_inputs, tmp_path)
    image, mask = inputs["images"] / "p.ppm", inputs["masks"] / "p.pgm"
    write_pnm(mask, np.full((12, 10), 255, dtype=np.uint8))
    out = tmp_path / "out.csv"
    argv = _cell_command(command, inputs, out)
    if command == "rescue":
        argv.remove("--skip-missing")  # which would deny the rescue instead
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {image}, {mask}: p: dimension mismatch: image 32x32 vs mask 10x12\n"
    )
    assert not out.exists()


def _traced_rescue(inputs, work):
    """Exit status of `rescue --skip-missing` over `inputs`, and its trace rows by id."""
    trace = work / "trace.csv"
    status = run(_cell_command("rescue", inputs, work / "pred.csv") + ["--trace", str(trace)])
    if status:
        return status, None
    with open(trace, newline="", encoding="utf-8") as handle:
        return status, {row[0]: row for row in csv.reader(handle)}


@pytest.fixture(scope="module")
def cell_trace(cell_inputs, tmp_path_factory):
    """The trace rows of `rescue` over the clean `cell_inputs`, by id."""
    status, rows = _traced_rescue(cell_inputs, tmp_path_factory.mktemp("clean-trace"))
    assert status == 0
    return rows


def test_skip_missing_denies_a_truncated_image(cell_inputs, cell_trace, tmp_path, capsys):
    # --skip-missing denies the rescue of an image that is there but cannot
    # be read, as of one that is absent; without it the batch aborts.
    inputs = _copy_cells(cell_inputs, tmp_path)
    image = inputs["images"] / "p.ppm"
    image.write_bytes(image.read_bytes()[:-1])
    status, rows = _traced_rescue(inputs, tmp_path)
    assert status == 0 and capsys.readouterr().err == ""
    assert cell_trace["p"][3] == "Rescued"
    assert rows.pop("p") == ["p", "PLY", "PLY", "FailedMorphology", "", "", "PLY"]  # base PLY
    assert rows == {image_id: row for image_id, row in cell_trace.items() if image_id != "p"}

    argv = _cell_command("rescue", inputs, tmp_path / "aborted.csv")
    argv.remove("--skip-missing")
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {image}:")
    assert not (tmp_path / "aborted.csv").exists()


_PNM_MUTATIONS = ["truncate", "magic", "width", "height", "maxval", "flip", "trailing"]
_PNM_TOKENS = [b"", b"P3", b"P5", b"P6", b"0", b"-1", b"1", b"x", b"256", b"99999999999"]


def _mutate_pnm(data: bytes, mutation: str, at: int, byte: int, token: bytes) -> bytes:
    """`data`, a file as `write_pnm` writes it, with its raster truncated at
    `at`, a header token replaced by `token`, the byte at `at` XORed with
    `byte`, or `byte` appended."""
    header_end = data.index(b"\n255\n") + len(b"\n255\n")
    if mutation == "truncate":
        return data[: header_end + at % (len(data) - header_end)]
    if mutation == "flip":
        at %= len(data)
        return data[:at] + bytes([data[at] ^ byte]) + data[at + 1:]
    if mutation == "trailing":
        return data + bytes([byte])
    tokens = data[:header_end].split()
    tokens[["magic", "width", "height", "maxval"].index(mutation)] = token
    return b"%s\n%s %s\n%s\n" % tuple(tokens) + data[header_end:]


@given(
    command=st.sampled_from(["features", "noise-score", "inject-noise", "rescue"]),
    slot=st.integers(0, 5),
    mutation=st.sampled_from(_PNM_MUTATIONS),
    at=st.integers(0, 2**16),
    byte=st.integers(1, 255),
    token=st.sampled_from(_PNM_TOKENS),
)
@settings(max_examples=200, deadline=None)
def test_malformed_image_never_escapes_run(
    cell_inputs, cell_trace, tmp_path_factory, command, slot, mutation, at, byte, token
):
    work = tmp_path_factory.mktemp("image-fuzz")
    inputs = _copy_cells(cell_inputs, work)
    files = sorted(inputs["images"].iterdir())
    if command in ("features", "rescue"):
        files += sorted(inputs["masks"].iterdir())
    target = files[slot % len(files)]
    target.write_bytes(_mutate_pnm(target.read_bytes(), mutation, at, byte, token))
    if command != "rescue":
        assert run(_cell_command(command, inputs, work / "out")) in (0, 1, 2)
        return
    # --skip-missing denies a cell it cannot read, and decides every other as before.
    status, rows = _traced_rescue(inputs, work)
    assert status == 0
    damaged = target.name[:-4]
    assert {k: v for k, v in rows.items() if k != damaged} == {
        k: v for k, v in cell_trace.items() if k != damaged}
