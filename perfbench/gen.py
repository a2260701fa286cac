"""Seeded input generator for the benchmark.

``synthetic_cases(n, seed)`` draws the same random sequence as
``_synthetic_big_log`` in ``tests/test_acceptance.py``.  Every workload
starts from the log that helper gives for ``BASE_SEED``, the log behind the
ROADMAP baseline.  The benchmark's ``--seed`` then renames every label and
case id and shuffles the case order.  The renaming keeps the sort order of
the labels, which decides every tie in the program, so each seed does the
same work on different bytes.  A seed that changed the log's structure would
change the work itself: over the helper's seeds 4025 and 1-4, the 20k-case
log has 10,407 to 13,814 minimal violating candidates and the evaluate cost
matrix 102,760 to 119,200 cells.

The generator returns plain tuples and writes XES and CSV itself, so the
inputs stay the same bytes when the package's own readers and writers change.

Run as ``python3 -m perfbench.gen <workload> <seed> <workdir>`` to write one
workload's inputs into ``workdir`` and print their statistics as JSON.  The
benchmark runs it in a child process, so the generator's memory never counts
towards the measured process's peak resident set.
"""

import csv
import json
import random
import string
import sys
import time
from pathlib import Path

BASE_SEED = 4025

ACTIVITIES = [f"A{i:02d}" for i in range(16)]
RESOURCES = [f"R{i:02d}" for i in range(12)]
DISEASES = [f"D{i}" for i in range(8)]


def synthetic_cases(n, seed):
    """A skewed multi-variant log: a few frequent variants, a long unique
    tail, minute-level gaps.  Each case is ``(case_id, events, disease)``
    with events ``(activity, resource, epoch_seconds)``."""
    rng = random.Random(seed)
    backbone = []
    for _ in range(12):
        length = rng.randint(3, 9)
        backbone.append([rng.choice(ACTIVITIES) for _ in range(length)])
    cases = []
    for cid in range(n):
        if rng.random() < 0.75:
            acts = list(rng.choice(backbone))
            if rng.random() < 0.3:
                acts.insert(rng.randrange(len(acts) + 1), rng.choice(ACTIVITIES))
        else:
            acts = [rng.choice(ACTIVITIES) for _ in range(rng.randint(2, 12))]
        t = rng.randint(0, 600)
        events = []
        for a in acts:
            events.append((a, rng.choice(RESOURCES), t * 60))
            t += rng.randint(1, 240)
        cases.append((f"case{cid}", tuple(events), rng.choice(DISEASES)))
    return cases


def counterpart(cases, labels=3, drop=0.15):
    """A suppression-only edit of ``cases``: remove every event of a few
    activity labels, then drop about ``drop`` of the cases.  Cases that lose
    all their events are dropped too."""
    rng = random.Random(BASE_SEED)
    removed = set(rng.sample(sorted({e[0] for _, events, _ in cases for e in events}), labels))
    out = []
    for case_id, events, disease in cases:
        kept = tuple(e for e in events if e[0] not in removed)
        if kept and rng.random() >= drop:
            out.append((case_id, kept, disease))
    return out


def _order_preserving(labels, rng):
    fresh = set()
    while len(fresh) < len(labels):
        fresh.add("".join(rng.choices(string.ascii_uppercase, k=6)))
    return dict(zip(sorted(labels), sorted(fresh)))


def disguise(logs, seed):
    """Rename labels, sensitive values and case ids the same way in every log,
    keeping the labels' sort order, and shuffle each log's case order."""
    rng = random.Random(f"disguise-{seed}")
    base = logs[0]
    activity = _order_preserving({e[0] for _, events, _ in base for e in events}, rng)
    resource = _order_preserving({e[1] for _, events, _ in base for e in events}, rng)
    disease = _order_preserving({d for _, _, d in base}, rng)
    case_id = {c[0]: f"case{k}" for c, k in zip(base, rng.sample(range(len(base)), len(base)))}
    out = []
    for log in logs:
        renamed = [
            (case_id[cid], tuple((activity[a], resource[r], t) for a, r, t in events), disease[d])
            for cid, events, d in log
        ]
        rng.shuffle(renamed)
        out.append(renamed)
    return out


def workload_logs(workload, seed):
    """The workload's input logs as case tuples, one per input file."""
    base = synthetic_cases(workload.cases, BASE_SEED)
    logs = [base, counterpart(base)] if len(workload.inputs) == 2 else [base]
    return disguise(logs, seed)


def _stamp(seconds):
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(seconds))


def write_xes(cases, path):
    with open(path, "w", encoding="utf-8") as out:
        out.write("<?xml version='1.0' encoding='utf-8'?>\n")
        out.write('<log xes.version="2.0" xmlns="http://www.xes-standard.org/">\n')
        for case_id, events, disease in cases:
            out.write("  <trace>\n")
            out.write(f'    <string key="concept:name" value="{case_id}" />\n')
            out.write(f'    <string key="Disease" value="{disease}" />\n')
            for activity, resource, ts in events:
                out.write(
                    "    <event>\n"
                    f'      <string key="concept:name" value="{activity}" />\n'
                    f'      <string key="org:resource" value="{resource}" />\n'
                    f'      <date key="time:timestamp" value="{_stamp(ts)}" />\n'
                    "    </event>\n"
                )
            out.write("  </trace>\n")
        out.write("</log>\n")


def write_csv(cases, path):
    with open(path, "w", newline="", encoding="utf-8") as out:
        writer = csv.writer(out)
        writer.writerow(["CaseId", "Activity", "Timestamp", "Resource", "Disease"])
        for case_id, events, disease in cases:
            for activity, resource, ts in events:
                writer.writerow([case_id, activity, _stamp(ts), resource, disease])


def project(events, perspective):
    """Descriptors of a trace on an untimed perspective: ``A`` or ``AR``."""
    if perspective == "A":
        return tuple(e[0] for e in events)
    return tuple((e[0], e[1]) for e in events)


def describe(cases, perspective):
    traces = [project(events, perspective) for _, events, _ in cases]
    return {
        "cases": len(cases),
        "events": sum(len(t) for t in traces),
        "descriptors": len({d for t in traces for d in t}),
        "variants": len(set(traces)),
    }


def make_inputs(workload, seed, workdir):
    """Write the workload's input files into ``workdir``; return their
    statistics keyed by file name."""
    files = dict(zip(workload.inputs, workload_logs(workload, seed)))
    stats = {}
    for name, content in files.items():
        (write_xes if name.endswith(".xes") else write_csv)(content, workdir / name)
        stats[name] = describe(content, workload.perspective)
    if len(files) == 2:
        a, b = (s["variants"] for s in stats.values())
        stats["cost_cells"] = a * b
    return stats


def main(argv):
    from perfbench.workloads import WORKLOADS

    name, seed, workdir = argv
    print(json.dumps(make_inputs(WORKLOADS[name], int(seed), Path(workdir))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
