"""The benchmark's generator reproduces the acceptance suite's synthetic log,
its speed probe leaves the process as it found it, and BENCHMARK.json names
exactly what the benchmark runs and reports."""

import json
import signal
import time
from pathlib import Path

import pytest

from perfbench import gen
from perfbench.speed import SpeedProbe
from perfbench.tracing import LAYER_METRICS
from perfbench.workloads import WORKLOADS
from tests.test_acceptance import _synthetic_big_log
from tlkcpriv.io import CsvColumnMap, read_csv, read_xes

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def as_cases(log):
    return [
        (inst.case_id, tuple((e.activity, e.resource, e.timestamp) for e in inst.trace),
         inst.sensitive["Disease"])
        for inst in log
    ]


@pytest.mark.parametrize("seed", [4025, 7])
def test_generator_equals_acceptance_helper(seed, tmp_path):
    expected = as_cases(_synthetic_big_log(1050, seed))
    cases = gen.synthetic_cases(1050, seed)
    assert cases == expected
    gen.write_xes(cases, tmp_path / "log.xes")
    gen.write_csv(cases, tmp_path / "log.csv")
    assert as_cases(read_xes(tmp_path / "log.xes", ("Disease",))) == expected
    colmap = CsvColumnMap(sensitive_cols=("Disease",))
    assert as_cases(read_csv(tmp_path / "log.csv", colmap)) == expected


def test_counterpart_only_suppresses():
    cases, edited = gen.workload_logs(WORKLOADS["evaluate-800"], 11)
    source = {cid: (events, disease) for cid, events, disease in cases}
    assert 0 < len(edited) < len(cases)
    for cid, events, disease in edited:
        original, original_disease = source[cid]
        assert disease == original_disease
        it = iter(original)
        assert all(e in it for e in events)


def test_benchmark_json_names_what_runs():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [*LAYER_METRICS, "trace.overhead_s"]


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.sampling():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(probe.slices) > 2
    assert 0 < probe.spent_wall < 0.3
    assert probe.stolen >= 0
    assert min(probe.slices) <= probe.slice_s() <= max(probe.slices)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
