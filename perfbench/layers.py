"""Per-layer metrics from the spans of one traced command sequence.

Each metric names its layer (a module of ``src/wbcrescue``). Times are
summed over all calls in the sequence; ``self_s`` subtracts the time the
span's traced children cover.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from tracing import self_times


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    work = defaultdict(float)
    calls = Counter()
    for span in spans:
        total[span.name] += span.duration
        own[span.name] += selfs[span.id]
        calls[span.name] += 1
        if isinstance(span.work, (int, float)):
            work[span.name] += span.work

    phases = Counter(
        trace.phase_reached.value
        for span in spans if span.name == "rescue.rescue_batch"
        for trace in span.work
    )
    decided = sum(phases.values())
    rescued = phases["Rescued"]
    phase3_calls = calls["rescue.phase3_filter"]

    # Phase-3 latency per candidate image: its sample load plus its filter.
    filtered = {s.image for s in spans if s.name == "rescue.phase3_filter"}
    latency = defaultdict(float)
    for span in spans:
        if span.image in filtered and span.name in ("ingest.sample_load", "rescue.phase3_filter"):
            latency[span.image] += span.duration
    p50, p99 = np.percentile(list(latency.values()), [50, 99]) if latency else (0.0, 0.0)

    parse_s = total["ingest.parse_prob_table"]
    return {
        "cli.run.s": (total["cli.run"], "s"),
        "cli.glue_s": (own["cli.run"], "s"),
        "core.load.s": (total["core.load"], "s"),
        "ingest.parse_prob_table.s": (parse_s, "s"),
        "ingest.parse_prob_table.rows_per_s": (
            work["ingest.parse_prob_table"] / parse_s if parse_s else 0.0, "1/s"),
        "ingest.average_prob_tables.s": (total["ingest.average_prob_tables"], "s"),
        "ingest.write_prob_table.s": (total["ingest.write_prob_table"], "s"),
        "ingest.sample_load.s": (total["ingest.sample_load"], "s"),
        "ingest.sample_load.count": (calls["ingest.sample_load"], "count"),
        "netpbm.read_pnm.s": (total["netpbm.read_pnm"], "s"),
        "netpbm.read_pnm.mb": (work["netpbm.read_pnm"] / 1e6, "MB"),
        "netpbm.write_pnm.s": (total["netpbm.write_pnm"], "s"),
        "netpbm.write_pnm.mb": (work["netpbm.write_pnm"] / 1e6, "MB"),
        "rescue.rescue_batch.self_s": (own["rescue.rescue_batch"], "s"),
        "rescue.write.s": (total["rescue.write"], "s"),
        "rescue.candidates": (decided - phases["NoCandidate"], "count"),
        "rescue.verified": (phases["FailedMorphology"] + rescued, "count"),
        "rescue.phase3.calls": (phase3_calls, "count"),
        "rescue.rescued": (rescued, "count"),
        "rescue.phase3_yield": (rescued / phase3_calls if phase3_calls else 0.0, "ratio"),
        "rescue.phase3_latency_s.p50": (float(p50), "s"),
        "rescue.phase3_latency_s.p99": (float(p99), "s"),
        "rescue.phase3_latency.samples": (len(latency), "count"),
        "morphology.largest_foreground_component.s": (
            total["morphology.largest_foreground_component"], "s"),
        "morphology.trace_contour.self_s": (own["morphology.trace_contour"], "s"),
        "morphology.spikiness.s": (total["morphology.spikiness"], "s"),
        "morphology.kmeans2_luminance.s": (total["morphology.kmeans2_luminance"], "s"),
        "morphology.morph_vector.self_s": (own["morphology.morph_vector"], "s"),
        "morphology.mahalanobis.s": (total["morphology.mahalanobis"], "s"),
        "morphology.foreground_mpx": (
            (work["morphology.largest_foreground_component"]
             + work["morphology.kmeans2_luminance"]) / 1e6, "Mpx"),
        "noise.noise_score.s": (total["noise.noise_score"], "s"),
        "noise.inject_salt_pepper.s": (total["noise.inject_salt_pepper"], "s"),
        "metrics.evaluate.s": (total["metrics.evaluate"], "s"),
    }
