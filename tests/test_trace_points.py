"""The benchmark's trace points still reach the code they time.

``perfbench.tracing`` wraps package functions at the names their callers
look them up.  If a refactor moves one of them, ``Tracer.installed()`` fails
to find it or a per-layer metric silently reads zero; these jobs catch both.
"""

import pytest

from perfbench.tracing import JobTrace, Tracer
from tlkcpriv.cli import main

from .conftest import DATA

TREATMENT = str(DATA / "treatment_relative.csv")
FLAGS = [
    "-T", "hours", "-L", "2", "-K", "2", "-C", "0.5", "--theta", "0.25",
    "--bk", "rel/ar", "--sensitive", "Disease",
]
GREEDY = {"analysis.mvt", "anonymize.suppress", "background.project"}


@pytest.mark.parametrize(
    "algorithm,layers",
    [
        ("tlkc", GREEDY | {"analysis.mft"}),
        ("tlkc-ext", GREEDY),
        ("baseline1", set()),
        ("baseline2", set()),
    ],
)
def test_anonymize_job_hits_its_trace_points(tmp_path, algorithm, layers):
    argv = ["anonymize", "--algorithm", algorithm, *FLAGS,
            "-i", TREATMENT, "-o", str(tmp_path / "anon.csv")]
    tracer = Tracer()
    with tracer.installed():
        assert tracer.job(0, main, argv) == 0
    names = {span["name"] for span in tracer.spans}
    assert {"cli", "io.read", "io.write", "anonymize.total"} | layers <= names
    unexpected = {"analysis.mvt", "analysis.mft", "background.project"} - layers
    assert not unexpected & names
    trace = JobTrace(tracer.spans)
    if layers:
        assert trace.rounds == 1
        assert trace.count("mvts") == 5
        assert trace.count("candidates") > 0  # background._enumerate was drawn from
        assert trace.count("iterations") > 0
        # one projection per round; minimality reads the walk's own record,
        # so mining runs no full-log match scan
        assert trace.calls("background.project") == 1
        assert trace.calls("background.match") == 0


def test_attack_job_hits_the_match_scan():
    # single-candidate queries are what still scans the log
    argv = ["attack", *FLAGS, "-i", TREATMENT, "<RE/E4@1,BT/N1@7>"]
    tracer = Tracer()
    with tracer.installed():
        assert tracer.job(0, main, argv) == 0
    trace = JobTrace(tracer.spans)
    assert trace.calls("background.project") == 1
    assert trace.calls("background.match") == 1
