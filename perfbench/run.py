#!/usr/bin/env python3
"""wbcrescue benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload tables-50k --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The corpus is generated from --seed under
``.perfbench/``; the engine sees only the generated files.

--trace 0 runs the workload's command sequence in fresh ``wbcrescue``
processes, alternating --threads 1 and --threads N (N usable cores), one
command at a time, until --seconds have passed, and reports end-to-end
metrics. --trace 1 drives ``wbcrescue.cli.run`` in process, once untraced and
once with spans around every layer's public functions, and reports per-layer
metrics plus the tracing overhead. Every output is checked in both modes.

Times are reported in reference seconds (see probe.py); wall times are
printed alongside. The last line of stdout is a JSON object; lines above it
are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from probe import Sampler, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
STATE = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
DEFAULT_SEED = 0
SETUP_SAMPLES = 11
# Counts that must repeat exactly between the traced runs of a corpus, at
# --threads 1 and at --threads N.
COUNTS = ("rescue.candidates", "rescue.verified", "rescue.phase3.calls", "rescue.rescued",
          "ingest.sample_load.count", "rescue.phase3_latency.samples")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def flush(root: Path) -> None:
    """Write the corpus to disk now, so that its write-back does not compete
    with the timed processes."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


class Verifier:
    """Checks every output directory of one run and counts failed images.

    An image fails when its row is wrong by construction, when its output
    differs from the run's first sequence (so thread counts must agree byte
    for byte), or, on the default seed, when an output's digest differs from
    the recorded one. A command that exits non-zero fails every image.
    """

    def __init__(self, workload, corpus, seed):
        self.workload = workload
        self.corpus = corpus
        self.reference = None
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.macro_f1 = None
        self.notes = []
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.recorded = recorded.get(workload.name) if seed == recorded.get("seed") else None

    def add(self, label: str, out: Path, exited_ok: bool) -> None:
        from workloads import differing_ids, digest, expected_macro_f1

        ids = self.corpus.image_ids
        self.attempted += len(ids)
        if not exited_ok:
            self.failed += len(ids)
            self.notes.append(f"{label}: a command exited non-zero")
            return
        check = self.workload.check(self.corpus, out)
        bad = set(check.failed)
        if check.macro_f1 != expected_macro_f1(self.corpus):
            bad.update(ids)
            self.notes.append(f"{label}: macro_f1 {check.macro_f1} differs from construction")
        digests = {name: digest(out / name) for name in self.workload.outputs}
        if self.reference is None:
            self.reference, self.digests, self.macro_f1 = out, digests, check.macro_f1
            if self.recorded is not None and self.recorded != digests:
                bad.update(ids)
                self.notes.append(f"{label}: outputs differ from the recorded digests")
        else:
            for name in self.workload.outputs:
                if digests[name] != self.digests[name]:
                    bad |= differing_ids(out / name, self.reference / name, ids)
                    self.notes.append(f"{label}: {name} differs from the first sequence")
        if bad:
            self.notes.append(f"{label}: {len(bad)} images failed verification")
        self.failed += len(bad)


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    # Time the program, not the bytecode compiler: an installed package has
    # its bytecode cached, so let the untimed first interpreter write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_timed(argv, sink, samples: Path) -> tuple[int, int, float, float]:
    """Run one process through the probe launcher, to completion.

    Returns (exit code, peak RSS bytes, wall s, reference s).
    """
    argv = [sys.executable, str(LAUNCH), str(samples), *argv]
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=sink, stderr=sink, env=_env(), cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    wall = perf_counter() - start
    try:
        scaled = reference_seconds(wall, json.loads(samples.read_text()))
    except (OSError, ValueError, statistics.StatisticsError):
        scaled = wall  # the process died before reporting; it failed anyway
    samples.unlink(missing_ok=True)
    return proc.returncode, usage.ru_maxrss * 1024, wall, scaled


def run_sequence(argvs, threads: int, work: Path):
    """Run commands one after another in fresh processes.

    Returns (all exited 0, wall s, reference s, peak RSS bytes of the largest child).
    """
    wall = scaled = 0.0
    peak = 0
    with open(work / "commands.log", "ab") as sink:
        for argv in argvs:
            code, rss, w, s = run_timed(["cli", "--threads", str(threads), *argv], sink,
                                        work / "samples.json")
            wall, scaled, peak = wall + w, scaled + s, max(peak, rss)
            if code != 0:
                return False, wall, scaled, peak
    return True, wall, scaled, peak


def measure_setup(workload, corpus, verifier, work: Path, count: int, untimed: int = 0):
    """`count` fresh interpreters importing the CLI and loading the run's fixed
    inputs, as (wall, reference) seconds, after `untimed` ones that compile
    the bytecode."""
    times = []
    with open(work / "commands.log", "ab") as sink:
        for i in range(untimed + count):
            code, _, wall, scaled = run_timed(
                ["exec", workload.setup_code, *workload.setup_args(corpus)], sink,
                work / "samples.json")
            if code != 0:
                verifier.failed += 1
                verifier.notes.append(f"set-up interpreter exited with {code}")
            if i >= untimed:
                times.append((wall, scaled))
    return times


def _summary(label: str, pairs) -> str:
    walls = [w for w, _ in pairs]
    scaled = [s for _, s in pairs]
    lo, hi = quartiles(scaled)
    return (f"# {label}: {len(pairs)} samples, wall median {statistics.median(walls):.4f} s, "
            f"reference median {statistics.median(scaled):.4f} s (q1 {lo:.4f}, q3 {hi:.4f})")


def end_to_end(workload, corpus, verifier, seconds: float, work: Path) -> dict:
    threads = {"t1": 1, "tall": usable_cores()}
    times = {"t1": [], "tall": []}
    peaks = []
    # Half the set-up samples before the sequences and half after, so that
    # they do not all fall into one phase of the machine's drift.
    setup = measure_setup(workload, corpus, verifier, work, SETUP_SAMPLES // 2, untimed=1)
    deadline = perf_counter() + seconds
    pair = 0
    while True:
        started = perf_counter()
        for label in (("t1", "tall") if pair % 2 == 0 else ("tall", "t1")):
            out = work / f"out-{pair}-{label}"
            out.mkdir()
            ok, wall, scaled, peak = run_sequence(
                workload.commands(corpus, out), threads[label], work)
            times[label].append((wall, scaled))
            peaks.append(peak)
            verifier.add(f"{label}#{pair}", out, ok)
            if out != verifier.reference:
                shutil.rmtree(out)
        pair += 1
        if perf_counter() + (perf_counter() - started) > deadline:
            break
    setup += measure_setup(workload, corpus, verifier, work, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    for label, pairs in times.items():
        print(_summary(f"sequence at --threads {threads[label]}", pairs))
    print(_summary("set-up interpreter", setup))
    sequence = {label: statistics.median(s for _, s in pairs) for label, pairs in times.items()}
    return {
        "images_per_s.t1": (len(corpus.image_ids) / sequence["t1"], "1/s"),
        "images_per_s.tall": (len(corpus.image_ids) / sequence["tall"], "1/s"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": (statistics.median(peaks) / 1e6, "MB"),
        "macro_f1": (verifier.macro_f1 or 0.0, "ratio"),
    }


def in_process(argvs, threads: int) -> tuple[bool, float, float]:
    """Run commands through ``wbcrescue.cli.run`` in this process.

    Returns (all returned 0, wall s, reference s).
    """
    from wbcrescue import cli

    start = perf_counter()
    with Sampler() as sampler:
        ok = all(cli.run(["--threads", str(threads), *argv]) == 0 for argv in argvs)
    wall = perf_counter() - start
    return ok, wall, reference_seconds(wall, sampler.samples)


def scaled_layers(metrics: dict, factor: float) -> dict:
    """Per-layer metrics with times scaled like the end-to-end ones."""
    scale = {"s": factor, "1/s": 1.0 / factor}
    return {
        name: (value * scale[unit] if unit in scale else value, unit)
        for name, (value, unit) in metrics.items()
    }


def traced(workload, corpus, verifier, seconds: float, work: Path, spans_path: Path) -> dict:
    from layers import layer_metrics
    from tracing import Tracer, additivity_errors, orphan_errors

    untraced, traced_times, reps, per_rep = [], [], [], []
    deadline = perf_counter() + seconds
    rep = 0
    while True:
        started = perf_counter()
        for mode in (("plain", "traced") if rep % 2 == 0 else ("traced", "plain")):
            out = work / f"inproc-{rep}-{mode}"
            out.mkdir()
            if mode == "plain":
                ok, wall, scaled = in_process(workload.commands(corpus, out), 1)
                untraced.append((wall, scaled))
            else:
                with Tracer() as tracer:
                    ok, wall, scaled = in_process(workload.commands(corpus, out), 1)
                traced_times.append((wall, scaled))
                reps.append(tracer.spans)
                per_rep.append(scaled_layers(layer_metrics(tracer.spans), scaled / wall))
                for error in additivity_errors(tracer.spans):
                    verifier.failed += 1
                    verifier.notes.append(f"trace rep {rep}: {error}")
            verifier.add(f"{mode}#{rep}", out, ok)
            if out != verifier.reference:
                shutil.rmtree(out)
        if rep == 0:
            # Threads must hand spans to their workers: at N threads every
            # span still hangs under a cli.run root, and the same calls occur.
            out = work / "inproc-tall"
            out.mkdir()
            with Tracer() as tracer:
                ok, _, _ = in_process(workload.commands(corpus, out), usable_cores())
            verifier.add("traced-tall", out, ok)
            shutil.rmtree(out)
            tall_spans = tracer.spans
            orphans = orphan_errors(tall_spans)
            if Counter(s.name for s in tall_spans) != Counter(s.name for s in reps[0]):
                orphans.append("span counts differ between --threads 1 and N")
            for error in orphans:
                verifier.failed += 1
                verifier.notes.append(f"traced --threads {usable_cores()}: {error}")
        rep += 1
        if perf_counter() + (perf_counter() - started) > deadline:
            break

    # A run of --seconds may hold a single traced rep at --threads 1, but the
    # traced --threads N sequence is always there to compare it with.
    runs = [*per_rep, layer_metrics(tall_spans)]
    for name in COUNTS:
        if len({m[name][0] for m in runs}) != 1:
            verifier.failed += 1
            verifier.notes.append(f"count {name} changed between traced runs")
    metrics = {
        name: (statistics.median(m[name][0] for m in per_rep), unit)
        for name, (_, unit) in per_rep[0].items()
    }
    overhead = (statistics.median(s for _, s in traced_times)
                / statistics.median(s for _, s in untraced) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    print(_summary("traced in-process sequence at --threads 1", traced_times))
    print(_summary("untraced in-process sequence at --threads 1", untraced))
    print(f"# tracing overhead {overhead:+.2%} (reference-time medians)")
    spans_path.write_text(json.dumps(
        {"threads_1": [s.as_dict() for s in reps[-1]],
         f"threads_{usable_cores()}": [s.as_dict() for s in tall_spans]}))
    print(f"# spans written to {spans_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wbcrescue" / "cli.py").is_file() or not (TESTS / "synth.py").is_file():
        print(f"error: {ROOT} holds no wbcrescue sources (src/wbcrescue, tests/synth.py); "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = STATE / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        started = perf_counter()
        corpus = workload.build(work / "corpus", args.seed)
        flush(corpus.root)
        print(f"# {workload.name} seed {args.seed}: corpus built in {perf_counter() - started:.2f} s, "
              f"{len(corpus.image_ids)} images, {corpus.morphology_share:.0%} of images go through morphology, "
              f"{usable_cores()} usable cores")
        verifier = Verifier(workload, corpus, args.seed)
        if args.trace:
            spans_path = STATE / f"spans-{workload.name}-seed{args.seed}.json"
            metrics = traced(workload, corpus, verifier, args.seconds, work, spans_path)
        else:
            metrics = end_to_end(workload, corpus, verifier, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# output digests of the first sequence: {json.dumps(verifier.digests, sort_keys=True)}")
    for note in verifier.notes:
        print(f"# FAILED {note}")
    frac = verifier.failed / verifier.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':48s} {frac:>16.6g} frac ({verifier.failed} of {verifier.attempted} images)")
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
