from pathlib import Path

import numpy as np
import pytest

from tlkcpriv import (
    CsvColumnMap,
    Event,
    EventLog,
    ProcessInstance,
    TimestampAccuracy,
    read_csv,
)

DATA = Path(__file__).parent / "data"

HOSPITAL_COLMAP = CsvColumnMap(
    sensitive_cols=("Age", "Disease"), timestamp_format="%d.%m.%Y-%H:%M:%S"
)

HOUR = 3600

# the eight-case treatment log with integer-hour relative timestamps
TREATMENT_TRACES = {
    "1": [("RE", "E4", 1), ("HO", "E3", 4), ("VI", "D1", 5), ("BT", "N1", 7), ("VI", "D1", 8)],
    "2": [("BT", "N1", 7), ("VI", "D1", 8), ("RL", "E2", 9)],
    "3": [("HO", "E3", 4), ("VI", "D1", 5), ("BT", "N1", 7), ("RL", "E2", 9)],
    "4": [("RE", "E4", 1), ("VI", "D1", 6), ("VI", "D1", 8), ("RL", "E2", 9)],
    "5": [("HO", "E3", 4), ("VI", "D1", 8), ("RL", "E2", 9)],
    "6": [("VI", "D1", 6), ("BT", "N1", 7), ("RL", "E2", 9)],
    "7": [("RE", "E4", 1), ("BT", "N1", 7), ("VI", "D1", 8), ("RL", "E2", 9)],
    "8": [("RE", "E4", 1), ("VI", "D1", 6), ("BT", "N1", 7), ("VI", "D1", 8)],
}
TREATMENT_DISEASE = {
    "1": "Cancer",
    "2": "Infection",
    "3": "Corona",
    "4": "Infection",
    "5": "Corona",
    "6": "Flu",
    "7": "Flu",
    "8": "Cancer",
}

# expected outputs of the k-anonymity baseline on the treatment log
TREATMENT_2ANON = {
    "1": [("BT", "N1", 7), ("VI", "D1", 8)],
    "2": [("BT", "N1", 7), ("VI", "D1", 8), ("RL", "E2", 9)],
    "3": [("BT", "N1", 7), ("RL", "E2", 9)],
    "4": [("VI", "D1", 8), ("RL", "E2", 9)],
    "5": [("VI", "D1", 8), ("RL", "E2", 9)],
    "6": [("BT", "N1", 7), ("RL", "E2", 9)],
    "7": [("BT", "N1", 7), ("VI", "D1", 8), ("RL", "E2", 9)],
    "8": [("BT", "N1", 7), ("VI", "D1", 8)],
}
TREATMENT_4ANON = {
    "1": [("BT", "N1", 7), ("VI", "D1", 8)],
    "2": [("BT", "N1", 7), ("VI", "D1", 8)],
    "3": [("RL", "E2", 9)],
    "4": [("RL", "E2", 9)],
    "5": [("RL", "E2", 9)],
    "6": [("RL", "E2", 9)],
    "7": [("BT", "N1", 7), ("VI", "D1", 8)],
    "8": [("BT", "N1", 7), ("VI", "D1", 8)],
}

# expected output of the greedy suppression run on the treatment log
TREATMENT_GREEDY = {
    "1": [("HO", "E3", 4), ("BT", "N1", 7), ("VI", "D1", 8)],
    "2": [("BT", "N1", 7), ("VI", "D1", 8), ("RL", "E2", 9)],
    "3": [("HO", "E3", 4), ("BT", "N1", 7), ("RL", "E2", 9)],
    "4": [("VI", "D1", 6), ("VI", "D1", 8), ("RL", "E2", 9)],
    "5": [("HO", "E3", 4), ("VI", "D1", 8), ("RL", "E2", 9)],
    "6": [("VI", "D1", 6), ("BT", "N1", 7), ("RL", "E2", 9)],
    "7": [("BT", "N1", 7), ("VI", "D1", 8), ("RL", "E2", 9)],
    "8": [("VI", "D1", 6), ("BT", "N1", 7), ("VI", "D1", 8)],
}


def build_log(traces, sensitive=None, attrs=()):
    instances = []
    for cid in sorted(traces):
        events = tuple(Event(a, r, h * HOUR) for a, r, h in traces[cid])
        sens = sensitive.get(cid, {}) if sensitive else {}
        instances.append(ProcessInstance(cid, events, sens))
    return EventLog(tuple(instances), tuple(attrs))


def walked(log, spec, max_size, accuracy=TimestampAccuracy.SECONDS):
    """``(candidate, match indices)`` of every pattern of sizes 1..max_size
    that the mining walk reaches, smaller ones first and each size in code
    order, decoded from ``background._enumerate``'s levels.  The walk goes
    one size further, never reached, so the last wanted level keeps its
    embeddings."""
    from tlkcpriv.background import ProjectedLog, _enumerate

    plog = ProjectedLog(log, spec, accuracy)
    found = []
    for level in _enumerate(plog.traces, len(plog.alphabet), spec.bk_type, max_size + 1):
        matched = np.split(level.trace_of[level.positions], np.cumsum(level.support)[:-1])
        found += zip(map(plog.decode, level.codes.tolist()),
                     (frozenset(m.tolist()) for m in matched))
        if level.codes.shape[1] == max_size:
            level.carry[:] = False
    return found


def hours_view(log):
    """Readable view of a relative-hours log: case -> [(act, res, hour)]."""
    return {
        inst.case_id: [(e.activity, e.resource, e.timestamp // HOUR) for e in inst.trace]
        for inst in log
    }


@pytest.fixture
def encode_builds(monkeypatch):
    """The ``(perspective, accuracy)`` of every projection ``EventLog`` builds."""
    import tlkcpriv.log

    calls = []
    original = tlkcpriv.log._encode

    def counting(log, ps, accuracy):
        calls.append((ps, accuracy))
        return original(log, ps, accuracy)

    monkeypatch.setattr(tlkcpriv.log, "_encode", counting)
    return calls


@pytest.fixture(scope="session")
def hospital_log():
    return read_csv(DATA / "hospital_log.csv", HOSPITAL_COLMAP)


@pytest.fixture(scope="session")
def treatment_log():
    return build_log(
        TREATMENT_TRACES,
        {cid: {"Disease": d} for cid, d in TREATMENT_DISEASE.items()},
        attrs=("Disease",),
    )
