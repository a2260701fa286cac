"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces the package's entry points, at the names their
callers look them up, with wrappers that record a span per call: name, start,
end, parent span and job id, plus counts taken from the call's arguments or
result.  Spans stay in memory until the benchmark writes them out.  A layer's
self time is its spans' time minus the time of their direct children.
"""

import contextlib
import functools
import os
import statistics
import time
from collections import Counter, defaultdict

MIB = 1024 * 1024


def _file_mib(path):
    return os.path.getsize(path) / MIB


def _entry_points():
    """(owner, attribute, span name, counts from (args, result)) per wrapped call."""
    import tlkcpriv.analysis as analysis
    import tlkcpriv.anonymize as anonymize
    import tlkcpriv.cli as cli
    import tlkcpriv.metrics as metrics
    from tlkcpriv.background import ProjectedLog

    def anonymized(args, result):
        return {
            "iterations": len(result.iterations),
            "dropped_cases": len(result.dropped_cases),
            "events_removed": result.events_removed,
        }

    def cost_cells(args, result):
        return {"cost_cells": len(result.original_variants) * len(result.anonymized_variants)}

    points = [
        (cli, "load_log", "io.read", lambda a, r: {"read_mb": _file_mib(a[0])}),
        (cli, "save_log", "io.write", lambda a, r: {"write_mb": _file_mib(a[1])}),
        (cli, "truncate_to_accuracy", "log.prepare", None),
        (cli, "relativize_log", "log.prepare", None),
        (cli, "discretize_sensitive", "log.prepare", None),
        (cli, "audit_tlkc", "analysis.audit", None),
        (cli, "emd_data_utility", "metrics.emd", cost_cells),
        (cli, "dfg_compare", "metrics.graph", None),
        (cli, "handover_compare", "metrics.graph", None),
        (metrics, "linprog", "metrics.lp", None),
        (ProjectedLog, "__init__", "background.project", None),
        (ProjectedLog, "match_indices", "background.match", None),
    ]
    # audit_tlkc looks enumerate_mvt up in analysis, the anonymizers in their own module
    for owner in (analysis, anonymize):
        points.append((owner, "enumerate_mvt", "analysis.mvt", lambda a, r: {"mvts": len(r)}))
    points.append((anonymize, "enumerate_mft", "analysis.mft", lambda a, r: {"mfts": len(r)}))
    points.append((anonymize, "suppress_global", "anonymize.suppress", None))
    for cls in (anonymize.TlkcAnonymizer, anonymize.TlkcExtAnonymizer,
                anonymize.Baseline1, anonymize.Baseline2):
        points.append((cls, "anonymize", "anonymize.total", anonymized))
    return points


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "job": self._job,
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"].update(counts(args, result))
            return result

        return wrapper

    def _count_yields(self, key, fn):
        # a generator interleaves with its consumer, so it gets no span of its
        # own: each item counts towards the span that is open when it is drawn
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts = self._stack[-1]["counts"]
                counts[key] = counts.get(key, 0) + 1
                yield item

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        import tlkcpriv.background as background

        patches = [(o, a, self._wrap(n, getattr(o, a), c)) for o, a, n, c in _entry_points()]
        # enumerate_mvt imports _enumerate at call time, so the module attribute counts
        patches.append((background, "_enumerate",
                        self._count_yields("candidates", background._enumerate)))
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def job(self, job_id, main, argv):
        """Run one CLI job under a root span named ``cli``."""
        self._job = job_id
        try:
            return self._wrap("cli", main, None)(argv)
        finally:
            self._job = None


class JobTrace:
    """Totals over the spans of one job."""

    def __init__(self, spans):
        by_id = {s["id"]: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self._time = Counter()
        self._self = Counter()
        self._calls = Counter()
        self._counts = Counter()
        self.rounds = 0
        for s in spans:
            duration = s["end"] - s["start"]
            self._time[s["name"]] += duration
            self._self[s["name"]] += duration - child_time[s["id"]]
            self._calls[s["name"]] += 1
            self._counts.update(s["counts"])
            parent = by_id.get(s["parent"])
            if s["name"] == "analysis.mvt" and parent and parent["name"] == "anonymize.total":
                self.rounds += 1

    def time(self, name):
        return self._time[name]

    def self_time(self, name):
        return self._self[name]

    def calls(self, name):
        return self._calls[name]

    def count(self, key):
        return self._counts[key]


# name -> (unit, value from one job's JobTrace); trace.overhead_s comes from run.py
LAYER_METRICS = {
    "analysis.mvt_s": ("s", lambda t: t.time("analysis.mvt")),
    "analysis.mvt_calls": ("count", lambda t: t.calls("analysis.mvt")),
    "analysis.mvts": ("count", lambda t: t.count("mvts")),
    "analysis.mft_s": ("s", lambda t: t.time("analysis.mft")),
    "analysis.mfts": ("count", lambda t: t.count("mfts")),
    "analysis.audit_s": ("s", lambda t: t.time("analysis.audit")),
    "background.match_scans": ("count", lambda t: t.calls("background.match")),
    "background.candidates": ("count", lambda t: t.count("candidates")),
    "background.project_s": ("s", lambda t: t.time("background.project")),
    "background.projections": ("count", lambda t: t.calls("background.project")),
    "anonymize.total_s": ("s", lambda t: t.time("anonymize.total")),
    "anonymize.self_s": ("s", lambda t: t.self_time("anonymize.total")),
    "anonymize.suppress_s": ("s", lambda t: t.time("anonymize.suppress")),
    "anonymize.rounds": ("count", lambda t: t.rounds),
    "anonymize.iterations": ("count", lambda t: t.count("iterations")),
    "anonymize.dropped_cases": ("count", lambda t: t.count("dropped_cases")),
    "anonymize.events_removed": ("count", lambda t: t.count("events_removed")),
    "io.read_s": ("s", lambda t: t.time("io.read")),
    "io.read_mb": ("MiB", lambda t: t.count("read_mb")),
    "io.write_s": ("s", lambda t: t.time("io.write")),
    "io.write_mb": ("MiB", lambda t: t.count("write_mb")),
    "log.prepare_s": ("s", lambda t: t.time("log.prepare")),
    "metrics.emd_s": ("s", lambda t: t.time("metrics.emd")),
    "metrics.emd_self_s": ("s", lambda t: t.self_time("metrics.emd")),
    "metrics.lp_s": ("s", lambda t: t.time("metrics.lp")),
    "metrics.cost_cells": ("count", lambda t: t.count("cost_cells")),
    "metrics.graph_s": ("s", lambda t: t.time("metrics.graph")),
    "cli.self_s": ("s", lambda t: t.self_time("cli")),
}


def layer_metrics(spans):
    """Median over jobs of every layer metric, as ``{name: (value, unit)}``."""
    jobs = defaultdict(list)
    for s in spans:
        jobs[s["job"]].append(s)
    traces = [JobTrace(job_spans) for job_spans in jobs.values()]
    return {
        name: (statistics.median(value(t) for t in traces), unit)
        for name, (unit, value) in LAYER_METRICS.items()
    }
