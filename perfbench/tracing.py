"""In-process span tracing around the public functions of each layer.

The tracer patches names where their callers look them up: ``wbcrescue.cli``
binds its imports with ``from .x import y``, so a wrapper on the defining
module alone would never see the CLI's calls. Spans stay in memory until the
run ends. Thread pools in ``cli`` and ``rescue`` are swapped for an executor
that hands the submitting thread's current span to the worker, because
``ThreadPoolExecutor`` does not carry context into its threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "image", "thread", "start", "end", "work")

    def __init__(self, id, name, parent, image, thread, start=0.0, end=0.0, work=None):
        self.id = id
        self.name = name
        self.parent = parent  # id of the enclosing span, None for a root
        self.image = image
        self.thread = thread
        self.start = start
        self.end = end
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        work = self.work if isinstance(self.work, (int, float)) else None
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "image": self.image,
            "thread": self.thread, "start": self.start, "end": self.end, "work": work,
        }


def _image_from_path(args) -> str:
    return Path(args[0]).name.split(".", 1)[0]


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def current(self) -> Span | None:
        return getattr(self._local, "span", None)

    def wrap(self, name, fn, image_of=None, work_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            image = image_of(args) if image_of else (parent.image if parent else None)
            span = Span(next(self._ids), name, parent.id if parent else None, image,
                        threading.get_ident())
            self._local.span = span
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._local.span = parent
                self.spans.append(span)
            if work_of:
                span.work = work_of(args, result)
            return result

        return traced

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _executor(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def in_parent(*a, **kw):
                    saved = tracer.current()
                    tracer._local.span = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._local.span = saved

                return super().submit(in_parent, *args, **kwargs)

        return TracedExecutor

    def install(self) -> None:
        from wbcrescue import cli, ingest, morphology, rescue

        sample_id = lambda args: args[0].image_id  # noqa: E731
        count = lambda args, result: len(result)  # noqa: E731
        foreground = lambda args, result: int(np.count_nonzero(args[0]))  # noqa: E731
        cell_foreground = lambda args, result: int(np.count_nonzero(args[0].mask))  # noqa: E731
        wrap = self.wrap
        plan = [
            (cli, "run", "cli.run", None, None),
            (cli, "load_label_file", "core.load", None, None),
            (cli, "parse_config_file", "core.load", None, None),
            (cli, "parse_class_counts", "core.load", None, None),
            (cli, "load_gate", "core.load", None, None),
            (cli, "parse_prob_table", "ingest.parse_prob_table", None, count),
            (cli, "average_prob_tables", "ingest.average_prob_tables", None, None),
            (cli, "write_prob_table", "ingest.write_prob_table", None, None),
            (ingest, "read_pnm", "netpbm.read_pnm", _image_from_path,
             lambda args, result: result.nbytes),
            (cli, "write_pnm", "netpbm.write_pnm", _image_from_path,
             lambda args, result: np.asarray(args[1]).nbytes),
            (cli, "rescue_batch", "rescue.rescue_batch", None, lambda args, result: result),
            (rescue, "phase3_filter", "rescue.phase3_filter",
             lambda args: args[1].image_id, None),
            (cli, "write_predictions_csv", "rescue.write", None, None),
            (cli, "write_trace_csv", "rescue.write", None, None),
            (morphology, "largest_foreground_component",
             "morphology.largest_foreground_component", None, foreground),
            (morphology, "kmeans2_luminance", "morphology.kmeans2_luminance",
             sample_id, cell_foreground),
            (cli, "evaluate", "metrics.evaluate", None, None),
            (cli, "noise_score", "noise.noise_score", None, None),
            (cli, "inject_salt_pepper", "noise.inject_salt_pepper", None, None),
        ]
        for module in (cli, rescue):
            plan += [
                (module, "trace_contour", "morphology.trace_contour", None, None),
                (module, "spikiness", "morphology.spikiness", None, None),
                (module, "morph_vector", "morphology.morph_vector", sample_id, None),
            ]
        plan.append((rescue, "mahalanobis", "morphology.mahalanobis", None, None))
        for module, attr, name, image_of, work_of in plan:
            self._patch(module, attr, wrap(name, getattr(module, attr), image_of, work_of))

        class TracedSource(ingest.DirectorySampleSource):
            __call__ = wrap("ingest.sample_load", ingest.DirectorySampleSource.__call__,
                            lambda args: args[1])

        self._patch(cli, "DirectorySampleSource", TracedSource)
        executor = self._executor()
        self._patch(cli, "ThreadPoolExecutor", executor)
        self._patch(rescue, "ThreadPoolExecutor", executor)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def subtree_ids(spans, root_id: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span.id)
    found, stack = [], [root_id]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(kids.get(node, ()))
    return found


def orphan_errors(spans, root_name: str = "cli.run") -> list[str]:
    """Spans that do not hang under a `root_name` span, e.g. because a worker
    thread lost its parent."""
    ids = {span.id for span in spans}
    errors = []
    for span in spans:
        if span.parent is None and span.name != root_name:
            errors.append(f"span {span.name} (image {span.image}) has no parent")
        if span.parent is not None and span.parent not in ids:
            errors.append(f"span {span.name} points at a missing parent")
    return errors


def additivity_errors(spans, root_name: str = "cli.run", tolerance: float = 1e-6) -> list[str]:
    """Check that the self times under each root span add up to its duration.

    This holds when sibling spans do not overlap, which is the case for a
    single-threaded run; an orphaned span or a child outside its parent
    breaks it.
    """
    selfs = self_times(spans)
    errors = orphan_errors(spans, root_name)
    for root in (s for s in spans if s.parent is None and s.name == root_name):
        total = sum(selfs[i] for i in subtree_ids(spans, root.id))
        if abs(total - root.duration) > tolerance * max(root.duration, 1.0):
            errors.append(
                f"self times under {root_name} sum to {total:.9f} s, span is {root.duration:.9f} s"
            )
    return errors
