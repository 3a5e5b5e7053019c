"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from wbcrescue.cli import run
from wbcrescue.core import (
    ClassCounts,
    RescueConfig,
    default_label_set,
)
from wbcrescue.ingest import DirectorySampleSource, ProbTable, parse_prob_table
from wbcrescue.metrics import compute_metrics, evaluate, read_label_csv
from wbcrescue.morphology import (
    GaussianGate,
    fit_gaussian_gate,
    luminance,
    mahalanobis,
    morph_vector,
    save_gate,
    spikiness,
    trace_contour,
)
from wbcrescue.noise import inject_salt_pepper, noise_score
from wbcrescue.rescue import compute_boost_factors, phase1_candidate, rescue_batch

from reference import pc_gate, reference_decide, sample_pool, split_masks
from synth import build_corpus, eccentric_cell, gray_sample, star_mask, write_csv

LABELS = default_label_set()
K = len(LABELS)
SNE, LY, PLY, PC = (LABELS.index_of(name) for name in ("SNE", "LY", "PLY", "PC"))


def _report(number: int, description: str, ok: bool):
    print(f"[acceptance] criterion {number:02d} ({description}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


# ---------------------------------------------------------------------
# Randomized decision corpus shared by criteria 1 and 2.
# ---------------------------------------------------------------------


def _random_groups(seed=424_242, n_groups=100, group_size=100):
    rng = np.random.default_rng(seed)
    pool = sample_pool()
    keys = sorted(pool)
    groups = []
    for g in range(n_groups):
        params = {
            "boost_ply": float(rng.uniform(1, 10)),
            "boost_pc": float(rng.uniform(1, 10)),
            "tau": float(rng.uniform(0, 1)),
            "tau_s": float(rng.uniform(0, 0.7)),
            "tau_m": float(rng.uniform(0, 5)),
        }
        cases = []
        for i in range(group_size):
            raw = rng.random(K) + 1e-9
            p_swin = raw / raw.sum()
            raw = rng.random(K) + 1e-9
            p_med = raw / raw.sum()
            key = keys[int(rng.integers(len(keys)))]
            cases.append((f"g{g}c{i}", p_swin, p_med, key))
        groups.append((params, cases))
    return pool, groups


@pytest.fixture(scope="module")
def decision_corpus():
    pool, groups = _random_groups()
    return pool, groups, pc_gate()


def _run_production(pool, groups, gate, boost_override=None):
    counts = ClassCounts(tuple([100] * K))
    all_traces = []
    for params, cases in groups:
        overrides = {
            "PLY": params["boost_ply"] if boost_override is None else boost_override,
            "PC": params["boost_pc"] if boost_override is None else boost_override,
        }
        config = RescueConfig(
            boost_overrides=overrides,
            tau=params["tau"],
            tau_s=params["tau_s"],
            tau_m=params["tau_m"],
        )
        swin = ProbTable(LABELS, [cid for cid, _, _, _ in cases], [p for _, p, _, _ in cases])
        med = ProbTable(LABELS, [cid for cid, _, _, _ in cases], [p for _, _, p, _ in cases])
        assignment = {cid: key for cid, _, _, key in cases}
        source = lambda image_id: pool[assignment[image_id]]
        traces = rescue_batch(swin, med, source, counts, gate, config, threads=1)
        all_traces.extend(traces)
    return all_traces


def test_criterion_01_reference_equivalence(decision_corpus):
    pool, groups, gate = decision_corpus
    started = time.monotonic()
    production = _run_production(pool, groups, gate)
    disagreements = 0
    index = 0
    for params, cases in groups:
        factors = [1.0] * K
        factors[PLY] = params["boost_ply"]
        factors[PC] = params["boost_pc"]
        for cid, p_swin, p_med, key in cases:
            expected = reference_decide(
                p_swin, p_med, factors,
                params["tau"], params["tau_s"], params["tau_m"],
                pool[key], gate, PLY, PC,
            )
            trace = production[index]
            index += 1
            if (trace.final_label, trace.phase_reached.value) != expected:
                disagreements += 1
    elapsed = time.monotonic() - started
    print(f"  10,000 cases in {elapsed:.1f}s, {disagreements} disagreements")
    _report(
        1,
        "production batch matches straight-line reference on 10k cases",
        disagreements == 0 and elapsed < 60.0,
    )


def test_criterion_02_rescue_invariants(decision_corpus):
    pool, groups, gate = decision_corpus
    production = _run_production(pool, groups, gate)
    rare = {PLY, PC}
    closure = all(t.final_label == t.base_label or t.final_label in rare
                  for t in production)
    fixed_point = all(t.final_label == t.base_label
                      for t in production if t.base_label in rare)
    identity = _run_production(pool, groups, gate, boost_override=1.0)
    boost_identity = all(t.final_label == t.base_label
                         for t in identity if t.base_label not in rare)

    counts = ClassCounts(tuple([100] * K))
    boosts = compute_boost_factors(LABELS, counts, RescueConfig(
        boost_overrides={"PLY": 4.0, "PC": 6.0}))
    rng = np.random.default_rng(3)
    scale_ok = True
    for _ in range(1000):
        raw = rng.random(K) + 1e-9
        probs = raw / raw.sum()
        reference = phase1_candidate(probs, boosts)
        for scale in (0.25, 3.0):
            if phase1_candidate(probs * scale, boosts) != reference:
                scale_ok = False
    _report(
        2,
        "closure, rare fixed point, boost identity, scale invariance",
        closure and fixed_point and boost_identity and scale_ok,
    )


# ---------------------------------------------------------------------


def _oracle_cost(part):
    center = math.fsum(part) / len(part)
    return math.fsum((value - center) ** 2 for value in part)


def _oracle_best_wcss(values):
    ordered = sorted(values)
    best = math.inf
    for cut in sorted(set(ordered))[:-1]:
        left = [v for v in ordered if v <= cut]
        right = [v for v in ordered if v > cut]
        best = min(best, _oracle_cost(left) + _oracle_cost(right))
    return best


def _cluster_wcss(sample, nucleus, cytoplasm):
    values = luminance(sample.pixels)
    return _oracle_cost(list(values[nucleus])) + _oracle_cost(list(values[cytoplasm]))


def test_criterion_03_kmeans_threshold_optimality():
    rng = np.random.default_rng(77)
    mismatches = 0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        values = rng.integers(0, 256, size=n)
        if len(set(values.tolist())) < 2:
            values[0] = (values[0] + 128) % 256
        gray = np.zeros((3, 4), dtype=np.uint8)
        mask = np.zeros((3, 4), dtype=bool)
        cells = rng.choice(12, size=n, replace=False)
        for cell, value in zip(cells, values):
            mask[cell // 4, cell % 4] = True
            gray[cell // 4, cell % 4] = value
        sample = gray_sample(gray, mask)
        nucleus, cytoplasm = split_masks(sample)
        got = _cluster_wcss(sample, nucleus, cytoplasm)
        want = _oracle_best_wcss(list(luminance(sample.pixels)[mask]))
        checked += 1
        if got != want:
            mismatches += 1

    two_value_mismatches = 0
    mask = np.ones((1, 2), dtype=bool)
    for low in range(0, 256, 1):
        for high in range(low + 1, 256, 5):
            gray = np.array([[low, high]], dtype=np.uint8)
            sample = gray_sample(gray, mask)
            nucleus, cytoplasm = split_masks(sample)
            if _cluster_wcss(sample, nucleus, cytoplasm) != 0.0:
                two_value_mismatches += 1
    full_pairs_ok = _all_two_value_pairs_exact()
    _report(
        3,
        "2-means equals exhaustive threshold optimum on small inputs",
        mismatches == 0 and checked == 1000
        and two_value_mismatches == 0 and full_pairs_ok,
    )


def _all_two_value_pairs_exact():
    # Every pair (a, b) must split into singletons with zero cost.
    mask = np.ones((1, 2), dtype=bool)
    for low in range(256):
        for high in range(low + 1, 256):
            gray = np.array([[low, high]], dtype=np.uint8)
            sample = gray_sample(gray, mask)
            nucleus, cytoplasm = split_masks(sample)
            if int(nucleus.sum()) != 1 or int(cytoplasm.sum()) != 1:
                return False
            values = luminance(sample.pixels)
            if values[nucleus][0] > values[cytoplasm][0]:
                return False
    return True


def test_criterion_04_spikiness_geometry():
    rect_ok = True
    for height, width in ((2, 2), (3, 5), (6, 6), (1, 7), (4, 9)):
        mask = np.zeros((12, 12), dtype=bool)
        mask[2 : 2 + height, 1 : 1 + width] = True
        if abs(spikiness(trace_contour(mask))) > 1e-9:
            rect_ok = False

    scores = [
        spikiness(trace_contour(star_mask(40, 8, 10.0, float(amplitude))))
        for amplitude in (1, 3, 5)
    ]
    monotone = scores[0] < scores[1] < scores[2]

    base = star_mask(40, 7, 9.0, 4.0, center=(17.0, 16.0))
    score = spikiness(trace_contour(base))
    shifted = np.zeros_like(base)
    shifted[2:, 3:] = base[:-2, :-3]
    invariant = (
        spikiness(trace_contour(shifted)) == score
        and spikiness(trace_contour(base[:, ::-1])) == score
        and spikiness(trace_contour(base[::-1, :])) == score
    )
    _report(4, "spikiness zero on rectangles, monotone on stars, invariant",
            rect_ok and monotone and invariant)


def test_criterion_05_mahalanobis_correctness():
    rng = np.random.default_rng(55)
    data = pc_gate()
    at_mean = mahalanobis(data, data.mean) == 0.0

    draws = rng.normal(size=(5000, 3))
    draws -= draws.mean(axis=0)
    transform = np.linalg.inv(np.linalg.cholesky(np.cov(draws.T)))
    whitened = draws @ transform.T
    identity_gate = fit_gaussian_gate(whitened, ridge_scale=0.0)
    euclid_ok = True
    for _ in range(50):
        vector = rng.normal(size=3)
        expected = float(np.linalg.norm(vector - identity_gate.mean))
        if abs(mahalanobis(identity_gate, vector) - expected) > 1e-6:
            euclid_ok = False

    diagonal_gate = GaussianGate(
        mean=np.zeros(3),
        covariance=np.diag([4.0, 1.0, 1.0]),
        precision=np.diag([0.25, 1.0, 1.0]),
        ridge=0.0,
        sample_count=10,
    )
    diag_ok = abs(mahalanobis(diagonal_gate, [2.0, 0.0, 0.0]) - 1.0) <= 1e-9

    samples = rng.normal(size=(200, 3))
    shuffled = samples[rng.permutation(len(samples))]
    a = fit_gaussian_gate(samples)
    b = fit_gaussian_gate(shuffled)
    permutation_ok = (
        np.abs(a.mean - b.mean).max() < 1e-12
        and np.abs(a.covariance - b.covariance).max() < 1e-12
    )
    _report(5, "gate distance identities and permutation-invariant fitting",
            at_mean and euclid_ok and diag_ok and permutation_ok)


def test_criterion_06_metrics_oracle():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        matrix = rng.integers(0, 25, size=(13, 13))
        report = compute_metrics(matrix)
        total = int(matrix.sum())
        if total == 0:
            continue
        f1s, recalls, precisions, specificities = [], [], [], []
        for c in range(13):
            tp = int(matrix[c, c])
            fn = int(matrix[c].sum()) - tp
            fp = int(matrix[:, c].sum()) - tp
            tn = total - tp - fn - fp
            precisions.append(tp / (tp + fp) if tp + fp else 0.0)
            recalls.append(tp / (tp + fn) if tp + fn else 0.0)
            f1s.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
            specificities.append(tn / (tn + fp) if tn + fp else 1.0)
        worst = max(
            worst,
            abs(report.macro_f1 - sum(f1s) / 13),
            abs(report.balanced_accuracy - sum(recalls) / 13),
            abs(report.macro_precision - sum(precisions) / 13),
            abs(report.macro_specificity - sum(specificities) / 13),
        )
    fixture = compute_metrics(np.array([[8, 2], [1, 9]]))
    fixture_ok = (
        abs(fixture.macro_f1 - 0.849624) < 1e-6
        and abs(fixture.balanced_accuracy - 0.85) < 1e-6
        and abs(fixture.macro_precision - (8 / 9 + 9 / 11) / 2) < 1e-6
    )
    _report(6, "metrics match brute-force tally and worked fixture",
            worst <= 1e-12 and fixture_ok)


def test_criterion_07_noise_pipeline():
    constant_ok = noise_score(np.full((9, 9, 3), 31, dtype=np.uint8)) == 0.0

    impulse = np.zeros((5, 5), dtype=np.uint8)
    impulse[2, 2] = 255
    impulse_rgb = np.repeat(impulse[:, :, None], 3, axis=2)
    impulse_ok = noise_score(impulse_rgb) == 10.2

    flat = np.full((256, 256, 3), 128, dtype=np.uint8)
    corrupted = inject_salt_pepper(flat, 0.1, seed=123)
    changed = int((corrupted != flat).any(axis=2).sum())
    n = 256 * 256
    sigma = math.sqrt(n * 0.1 * 0.9)
    binomial_ok = abs(changed - 0.1 * n) <= 4 * sigma

    rng = np.random.default_rng(7)
    images = [
        np.full((48, 48, 3), 100, dtype=np.uint8),
        np.repeat(np.tile(np.linspace(0, 220, 48).astype(np.uint8), (48, 1))[:, :, None], 3, axis=2),
        rng.integers(60, 190, size=(48, 48, 3), dtype=np.uint8),
        np.asarray(eccentric_cell(nucleus_shift=2.0).pixels),
    ]
    monotone_ok = True
    for image in images:
        scores = [
            noise_score(inject_salt_pepper(image, density, seed=42))
            for density in (0.0, 0.02, 0.05, 0.1, 0.2)
        ]
        if not all(a <= b for a, b in zip(scores, scores[1:])):
            monotone_ok = False
    _report(7, "noise score fixtures, binomial bound, monotone in density",
            constant_ok and impulse_ok and binomial_ok and monotone_ok)


def test_criterion_08_boost_factor_values():
    counts = {name: 1000 for name in LABELS}
    counts.update({"SNE": 17354, "PLY": 14, "PC": 90})
    class_counts = ClassCounts(tuple(counts[name] for name in LABELS))
    boosts = compute_boost_factors(LABELS, class_counts, RescueConfig())
    mpmath.mp.dps = 50
    expected_ply = float(mpmath.log(1 + mpmath.mpf(17354) / 14))
    expected_pc = float(mpmath.log(1 + mpmath.mpf(17354) / 90))
    ply_ok = abs(boosts.factors[PLY] - expected_ply) <= 1e-3
    pc_ok = abs(boosts.factors[PC] - expected_pc) <= 1e-3
    display_ok = abs(boosts.factors[PLY] - 7.124) <= 1e-3
    _report(8, "boost factors match high-precision log-rarity formula",
            ply_ok and pc_ok and display_ok)


# ---------------------------------------------------------------------
# CLI-level criteria share one 500-image corpus.
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    paths = build_corpus(root, n_common=300, n_rare_each=50, n_decoys_each=50)
    truth = dict(zip(*read_label_csv(paths.truth, LABELS)))
    source = DirectorySampleSource(paths.images, paths.masks)
    vectors = [
        morph_vector(source(image_id))
        for image_id, label in truth.items()
        if label == PC
    ]
    gate_path = root / "pc.gate"
    save_gate(gate_path, fit_gaussian_gate(vectors, ridge_scale=1e-3))
    config_path = root / "rescue.conf"
    config_path.write_text(
        "rare_classes = PLY,PC\ntau = 0.5\ntau_s = 0.15\ntau_m = 3.0\n",
        encoding="utf-8",
    )
    return paths, gate_path, config_path


def _rescue_cli(paths, gate_path, config_path, out, trace, threads="1"):
    return [
        "--threads", threads,
        "rescue",
        "--swin", str(paths.swin), "--med", str(paths.med),
        "--counts", str(paths.counts),
        "--images", str(paths.images), "--masks", str(paths.masks),
        "--gate", str(gate_path), "--config", str(config_path),
        "--labels", str(paths.labels),
        "--out", str(out), "--trace", str(trace),
    ]


def test_criterion_09_thread_count_determinism(pipeline_corpus, tmp_path):
    paths, gate_path, config_path = pipeline_corpus
    outputs: dict[str, list[bytes]] = {}

    for threads in ("1", "8"):
        base = tmp_path / f"t{threads}"
        base.mkdir()
        runs = {
            "features": [
                "--threads", threads, "features",
                "--images", str(paths.images), "--masks", str(paths.masks),
                "--out", str(base / "features.csv"),
            ],
            "noise-score": [
                "--threads", threads, "noise-score",
                "--images", str(paths.images), "--out", str(base / "scores.csv"),
            ],
            "inject-noise": [
                "--threads", threads, "inject-noise",
                "--images", str(paths.images), "--out", str(base / "noisy"),
                "--density", "0.05", "--seed", "11",
            ],
            "rescue": _rescue_cli(
                paths, gate_path, config_path,
                base / "pred.csv", base / "trace.csv", threads,
            ),
            "ensemble": [
                "--threads", threads, "ensemble", str(paths.swin), str(paths.med),
                "--labels", str(paths.labels), "--out", str(base / "mean.csv"),
            ],
        }
        for name, args in runs.items():
            assert run(args) == 0, name
        assert run([
            "--threads", threads, "fit-pc-model",
            "--features", str(base / "features.csv"),
            "--out", str(base / "all.gate"),
        ]) == 0
        assert run([
            "--threads", threads, "calibrate-spikiness",
            "--features", str(base / "features.csv"),
            "--out", str(base / "tau.txt"),
        ]) == 0
        assert run([
            "--threads", threads, "evaluate",
            "--pred", str(base / "pred.csv"), "--truth", str(paths.truth),
            "--labels", str(paths.labels),
            "--out", str(base / "report.txt"),
            "--confusion", str(base / "confusion.csv"),
        ]) == 0
        blobs = []
        for filename in (
            "features.csv", "scores.csv", "pred.csv", "trace.csv", "mean.csv",
            "all.gate", "tau.txt", "report.txt", "confusion.csv",
        ):
            blobs.append((base / filename).read_bytes())
        for noisy_file in sorted((base / "noisy").iterdir()):
            blobs.append(noisy_file.read_bytes())
        outputs[threads] = blobs

    identical = outputs["1"] == outputs["8"]
    _report(9, "byte-identical outputs for --threads 1 vs --threads 8", identical)


def test_criterion_10_end_to_end_ablation(pipeline_corpus, tmp_path):
    paths, gate_path, config_path = pipeline_corpus

    table = parse_prob_table(paths.swin, LABELS)
    base_rows = [
        [image_id, LABELS.name_at(int(np.argmax(probs)))]
        for image_id, probs in zip(table.ids, table.matrix)
    ]
    base_csv = write_csv(tmp_path / "base.csv", ["image_id", "label"], base_rows)

    full_pred = tmp_path / "full.csv"
    assert run(_rescue_cli(paths, gate_path, config_path, full_pred, tmp_path / "full_trace.csv")) == 0

    disabled_conf = tmp_path / "disabled.conf"
    disabled_conf.write_text(
        "rare_classes = PLY,PC\ntau = 0.5\ntau_s = inf\ntau_m = -inf\n",
        encoding="utf-8",
    )
    disabled_pred = tmp_path / "disabled.csv"
    assert run(_rescue_cli(paths, gate_path, disabled_conf, disabled_pred, tmp_path / "d_trace.csv")) == 0

    bypass_conf = tmp_path / "bypass.conf"
    bypass_conf.write_text(
        "rare_classes = PLY,PC\ntau = 0.5\ntau_s = -inf\ntau_m = inf\n",
        encoding="utf-8",
    )
    bypass_pred = tmp_path / "bypass.csv"
    assert run(_rescue_cli(paths, gate_path, bypass_conf, bypass_pred, tmp_path / "b_trace.csv")) == 0

    f1_base = evaluate(base_csv, paths.truth, LABELS)[0].macro_f1
    f1_full = evaluate(full_pred, paths.truth, LABELS)[0].macro_f1
    f1_disabled = evaluate(disabled_pred, paths.truth, LABELS)[0].macro_f1
    f1_bypass = evaluate(bypass_pred, paths.truth, LABELS)[0].macro_f1
    print(f"  macro-F1: base {f1_base:.4f}, shape-filter disabled {f1_disabled:.4f}, "
          f"filter bypassed {f1_bypass:.4f}, full {f1_full:.4f}")
    _report(
        10,
        "full pipeline beats base argmax; removing the shape filters hurts",
        f1_full > f1_base and f1_disabled < f1_full and f1_bypass < f1_full,
    )
