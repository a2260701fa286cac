"""The benchmark's workloads: each job's command line and its output check.

A workload object lives for one benchmark run.  ``argv(job)`` is the CLI
command of one job; ``check(job, exit_code)`` runs after the timed loop,
raises ``CheckFailed`` when the job's output is wrong and otherwise returns
the job's fingerprint.  For ``PIN_SEED`` the fingerprints must equal those
pinned in ``pins.json``, so a change that alters results fails its jobs
instead of silently getting faster.
"""

import hashlib
import json
from pathlib import Path

from perfbench.gen import workload_logs

PIN_SEED = 4025
PINS = Path(__file__).with_name("pins.json")


class CheckFailed(Exception):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _event_log(cases):
    from tlkcpriv.log import Event, EventLog, ProcessInstance

    return EventLog(
        tuple(
            ProcessInstance(cid, tuple(Event(*e) for e in events), {"Disease": disease})
            for cid, events, disease in cases
        ),
        ("Disease",),
    )


def _is_subsequence(small, big):
    it = iter(big)
    return all(x in it for x in small)


class Workload:
    name = ""
    cases = 0
    inputs = ()  # file names; a second one is the suppression-only counterpart
    perspective = ""  # untimed perspective of the --bk spec, for input statistics
    params = {}  # privacy parameters, passed as CLI flags and to the checks

    def __init__(self, workdir, seed):
        self.workdir = Path(workdir)
        self.seed = seed
        self._verified = {}
        self._input = None

    def flags(self):
        return [
            "--bk", self.params["bk"], "-T", "hours", "-L", str(self.params["L"]),
            "-K", str(self.params["K"]), "-C", str(self.params["C"]),
            "--sensitive", "Disease",
        ]

    def privacy_params(self):
        from tlkcpriv.analysis import PrivacyParams

        return PrivacyParams(accuracy="hours", sensitive=("Disease",), **self.params)

    def prepared_input(self):
        """The generated input log as the CLI prepares it: truncated to hours."""
        from tlkcpriv.log import TimestampAccuracy, truncate_to_accuracy

        if self._input is None:
            log = _event_log(workload_logs(self, self.seed)[0])
            self._input = truncate_to_accuracy(log, TimestampAccuracy.HOURS)
        return self._input

    def path(self, name):
        return str(self.workdir / name)


class AnonymizeSeq20k(Workload):
    name = "anonymize-seq-20k"
    cases = 20_000
    inputs = ("log.xes",)
    perspective = "AR"
    params = {"bk": "seq/ar", "L": 2, "K": 5, "C": 0.8}

    def argv(self, job):
        return ["anonymize", "--algorithm", "tlkc", *self.flags(), "--theta", "0.2",
                "-i", self.path("log.xes"), "-o", self.path(f"out-{job}.xes")]

    def check(self, job, exit_code):
        _require(exit_code == 0, f"exit code {exit_code}")
        out = Path(self.path(f"out-{job}.xes"))
        key = hashlib.sha256(out.read_bytes()).hexdigest()
        if key not in self._verified:
            self._verified[key] = self._verify(out)
        report = Path(f"{out}.report.txt").read_text(encoding="utf-8")
        iterations = sum(1 for line in report.splitlines() if " winner=" in line)
        return {**self._verified[key], "iterations": iterations}

    def _verify(self, out):
        from tlkcpriv.analysis import audit_tlkc
        from tlkcpriv.io import load_log
        from tlkcpriv.log import TimestampAccuracy, truncate_to_accuracy

        published = truncate_to_accuracy(
            load_log(out, sensitive_attrs=("Disease",)), TimestampAccuracy.HOURS
        )
        report = audit_tlkc(published, self.privacy_params())
        _require(report.satisfied, f"output fails its audit: {report.lines()[:3]}")
        source = {inst.case_id: inst for inst in self.prepared_input()}
        digest = hashlib.sha256()
        for inst in published:
            original = source.get(inst.case_id)
            _require(original is not None, f"case {inst.case_id!r} is not in the input")
            _require(inst.sensitive == original.sensitive, f"case {inst.case_id!r} changed")
            _require(_is_subsequence(inst.trace, original.trace),
                     f"case {inst.case_id!r} is not a subsequence of its input trace")
            events = tuple((e.activity, e.resource, e.timestamp) for e in inst.trace)
            digest.update(repr((inst.case_id, inst.sensitive["Disease"], events)).encode())
        return {
            "digest": digest.hexdigest(),
            "cases": len(published),
            "events": published.total_events,
        }


class AuditMult4k(Workload):
    name = "audit-mult-4k"
    cases = 4_000
    inputs = ("log.csv",)
    perspective = "A"
    params = {"bk": "mult/ac", "L": 3, "K": 5, "C": 0.8}

    def argv(self, job):
        return ["audit", *self.flags(), "-i", self.path("log.csv"),
                "--report-json", self.path(f"audit-{job}.json")]

    def check(self, job, exit_code):
        from tlkcpriv.analysis import is_violating
        from tlkcpriv.background import parse_candidate

        _require(exit_code in (0, 1), f"exit code {exit_code}")
        payload = json.loads(Path(self.path(f"audit-{job}.json")).read_text(encoding="utf-8"))
        _require((exit_code == 0) == payload["satisfied"],
                 f"exit code {exit_code} disagrees with satisfied={payload['satisfied']}")
        _require(payload["satisfied"] == (not payload["violations"]),
                 "the verdict disagrees with the violation list")
        params = self.privacy_params()
        violations = []
        for record in payload["violations"]:
            text = f"{record['candidate']} {record['verdict']} {record['match_size']}"
            if text not in self._verified:
                cand = parse_candidate(record["candidate"], params.bk)
                verdict = is_violating(cand, self.prepared_input(), params)
                self._verified[text] = (
                    not verdict.ok
                    and verdict.describe() == record["verdict"]
                    and verdict.match_size == record["match_size"]
                )
            _require(self._verified[text], f"reported violation does not hold: {text}")
            violations.append(text)
        return {"satisfied": payload["satisfied"], "violations": violations}


class Evaluate800(Workload):
    name = "evaluate-800"
    cases = 800
    inputs = ("log.xes", "anon.xes")
    perspective = "A"

    def argv(self, job):
        return ["evaluate", "--metrics", "emd,dfg,handover", "--bk", "seq/ac", "-T", "hours",
                "--sensitive", "Disease", "-i", self.path("log.xes"),
                "--anonymized", self.path("anon.xes"), "--report", self.path(f"eval-{job}.json")]

    def check(self, job, exit_code):
        _require(exit_code == 0, f"exit code {exit_code}")
        payload = json.loads(Path(self.path(f"eval-{job}.json")).read_text(encoding="utf-8"))
        values = {
            f"emd.{key}": payload["metrics"]["emd"][key] for key in ("du", "transport_cost")
        }
        for graph in ("dfg", "handover"):
            for key in ("fitness", "precision", "f1"):
                values[f"{graph}.{key}"] = payload["metrics"][graph][key]
        for key, value in values.items():
            _require(0.0 <= value <= 1.0, f"{key} = {value} lies outside [0, 1]")
        return values


WORKLOADS = {w.name: w for w in (AnonymizeSeq20k, AuditMult4k, Evaluate800)}


def pin_mismatch(name, fingerprint):
    """Why ``fingerprint`` differs from the pinned one, or None when it agrees."""
    pinned = json.loads(PINS.read_text(encoding="utf-8"))[name]
    if pinned.keys() != fingerprint.keys():
        return f"fingerprint keys {sorted(fingerprint)} differ from pinned {sorted(pinned)}"
    for key, want in pinned.items():
        got = fingerprint[key]
        if isinstance(want, float):
            if abs(got - want) > 1e-9:
                return f"{key} = {got!r}, pinned {want!r}"
        elif got != want:
            return f"{key} = {got!r}, pinned {want!r}"
    return None
