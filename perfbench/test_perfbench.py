"""Tests of the benchmark itself, outside the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import numpy as np  # noqa: E402

import corpus as C  # noqa: E402
import probe  # noqa: E402
from tracing import Span, Tracer, additivity_errors, covered, orphan_errors, self_times  # noqa: E402
from workloads import (  # noqa: E402
    cells_commands, check_rescue, check_scan, differing_ids, expected_macro_f1, scan_commands,
)
from wbcrescue import cli  # noqa: E402

SMALL_SCAN = {"star": 8, "round": 8, "eccentric": 8, "pale": 8}


def small_cells(root, seed=3):
    return C.build_table_corpus(root, seed, C.CELL_MIX, 32, 1, "c")


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_inputs(tmp_path):
    for name, build in (
        ("cells", small_cells),
        ("scan", lambda root, seed=3: C.build_scan_corpus(root, seed, SMALL_SCAN, 64)),
    ):
        first, again = build(tmp_path / f"{name}-a"), build(tmp_path / f"{name}-b")
        other = build(tmp_path / f"{name}-c", seed=4)
        assert tree_bytes(first.root) == tree_bytes(again.root)
        assert tree_bytes(first.root) != tree_bytes(other.root)


def test_stratified_cells_fix_the_work_across_seeds():
    shapes = ["star"] * 8 + ["pale"] * 4
    a, b = (C.stratified_cells(np.random.default_rng(seed), shapes) for seed in (1, 2))
    assert a != b
    for lo, hi in ((0, 8), (8, 12)):
        n = hi - lo
        for dealt in (a, b):
            assert sorted(u for (u, _), _ in dealt[lo:hi]) == [(k + 0.5) / n for k in range(n)]
            assert sum(debris for _, debris in dealt[lo:hi]) == n // 4


def test_sampler_probes_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.Sampler() as sampler:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 4  # entry, three ticks, exit
    assert all(sample > 0 for sample in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.reference_seconds(2.0, [probe.REF_S, 3 * probe.REF_S]) == 1.0


def span(id, name, parent, start, end):
    return Span(id, name, parent, None, 0, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "cli.run", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "b", 0, 3.0, 6.0),   # overlaps a, as workers in two threads do
        span(3, "a.child", 1, 2.0, 3.0),
        span(4, "c", 0, 9.5, 10.0),
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0), (9.5, 10.0)], 0.0, 10.0) == 5.5
    assert covered([(-1.0, 2.0)], 0.0, 1.0) == 1.0
    assert self_times(spans) == {0: 4.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 0.5}
    # Overlapping siblings cover some time twice, so the self times no longer add up.
    assert len(additivity_errors(spans)) == 1
    sequential = [s for s in spans if s.id != 2]
    assert additivity_errors(sequential) == []
    assert sum(self_times(sequential).values()) == 10.0


def test_additivity_flags_orphans():
    spans = [span(0, "cli.run", None, 0.0, 2.0), span(1, "netpbm.read_pnm", None, 0.5, 1.0)]
    assert any("no parent" in e for e in additivity_errors(spans))


def test_verification_flags_a_corrupted_prediction(tmp_path):
    corpus = small_cells(tmp_path / "corpus")
    out = tmp_path / "out"
    out.mkdir()
    for argv in cells_commands(corpus, out):
        assert cli.run(argv) == 0
    clean = check_rescue(corpus, out)
    assert clean.failed == set()
    assert clean.macro_f1 == expected_macro_f1(corpus)

    reference = tmp_path / "reference.csv"
    reference.write_bytes((out / "pred.csv").read_bytes())
    lines = (out / "pred.csv").read_text().splitlines()
    victim, _ = lines[7].split(",")
    lines[7] = f"{victim},SNE" if not lines[7].endswith(",SNE") else f"{victim},LY"
    (out / "pred.csv").write_text("\n".join(lines) + "\n")

    broken = check_rescue(corpus, out)
    assert broken.failed == {victim}
    assert broken.macro_f1 != expected_macro_f1(corpus)
    assert differing_ids(out / "pred.csv", reference, corpus.image_ids) == {victim}


def test_traced_threads_keep_their_parents(tmp_path):
    corpus = C.build_scan_corpus(tmp_path / "corpus", 5, SMALL_SCAN, 64)
    runs = {}
    for threads in (1, 3):
        out = tmp_path / f"out{threads}"
        out.mkdir()
        with Tracer() as tracer:
            for argv in scan_commands(corpus, out):
                assert cli.run(["--threads", str(threads), *argv]) == 0
        assert check_scan(corpus, out).failed == set()
        runs[threads] = tracer.spans
    assert cli.run.__name__ == "run" and not hasattr(cli.run, "__wrapped__")
    assert additivity_errors(runs[1]) == []
    assert orphan_errors(runs[3]) == []
    names = [sorted(s.name for s in spans) for spans in runs.values()]
    assert names[0] == names[1]
    assert {s.thread for s in runs[3]} != {s.thread for s in runs[1]}
