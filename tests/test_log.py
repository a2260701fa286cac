import copy
import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlkcpriv import (
    Event,
    EventLog,
    LogError,
    MissingResourceError,
    Perspective,
    ProcessInstance,
    ProjectedEvent,
    TimestampAccuracy,
    directly_follows,
    discretize_sensitive,
    read_xes,
    relativize_log,
    truncate_to_accuracy,
    variants,
)
from tlkcpriv.anonymize import suppress_global
from tlkcpriv.log import _Columns

from .conftest import HOUR, build_log
from .oracles import (
    brute_directly_follows,
    hypothesis_logs,
    per_event_truncate,
    project_raw,
    random_log,
)
from .test_acceptance import _synthetic_big_log

HOURS = TimestampAccuracy.HOURS


def case(log, cid):
    return next(inst for inst in log if inst.case_id == cid)


def built(cases, attrs):
    """The log that the column builder makes of ``(case_id, activities,
    resources, seconds, sensitive)`` cases."""
    columns = _Columns()
    for fields in cases:
        columns.add(*fields)
    return columns.log(attrs)


def decoded(log, ps, accuracy=TimestampAccuracy.SECONDS):
    """``log.coded(ps, accuracy)`` decoded: per case, its tuple of descriptors."""
    traces, alphabet = log.coded(ps, accuracy)
    return {inst.case_id: tuple(alphabet[c] for c in t) for inst, t in zip(log, traces)}


class TestModel:
    def test_empty_trace_rejected(self):
        with pytest.raises(LogError, match="empty"):
            ProcessInstance("1", ())

    def test_unordered_trace_rejected(self):
        with pytest.raises(LogError, match="ordered"):
            ProcessInstance("1", (Event("a", None, 10), Event("b", None, 5)))

    def test_duplicate_case_ids_rejected(self):
        inst = ProcessInstance("1", (Event("a", None, 0),))
        with pytest.raises(LogError, match="duplicate"):
            EventLog((inst, inst))

    def test_missing_declared_sensitive_rejected(self):
        inst = ProcessInstance("1", (Event("a", None, 0),))
        with pytest.raises(LogError, match="sensitive"):
            EventLog((inst,), ("Disease",))

    def test_constructor_rejects_cases_from_logs(self, treatment_log):
        # readers and suppression build logs without the checks their cases
        # pass by construction; the public constructor still makes both
        cases = treatment_log.instances
        with pytest.raises(LogError, match="^duplicate case id '1'$"):
            EventLog(list(cases) + [cases[0]], ("Disease",))
        with pytest.raises(LogError, match="^case '1' lacks declared sensitive attribute 'Age'$"):
            EventLog(cases, ("Disease", "Age"))

    def test_empty_activity_rejected(self):
        with pytest.raises(LogError):
            Event("", None, 0)

    @pytest.mark.parametrize("ev", [Event("a", None, 7), Event("b", "r", -3600)])
    def test_event_survives_pickle_copy_and_replace(self, ev):
        assert not hasattr(ev, "__dict__")
        assert pickle.loads(pickle.dumps(ev)) == ev
        assert copy.copy(ev) == ev and copy.deepcopy(ev) == ev
        assert dataclasses.replace(ev) == ev
        moved = dataclasses.replace(ev, timestamp=9.0)
        assert moved == Event(ev.activity, ev.resource, 9) and type(moved.timestamp) is int
        with pytest.raises(LogError):
            dataclasses.replace(ev, activity="")


class TestProject:
    def test_hospital_case1_activity_resource(self, hospital_log):
        got = decoded(hospital_log, Perspective.AR)["1"]
        assert [(e.activity, e.resource) for e in got] == [
            ("RE", "E4"),
            ("VI", "D3"),
            ("RL", "E6"),
        ]

    def test_full_perspective_keeps_everything(self, hospital_log):
        trace = case(hospital_log, "2").trace
        got = decoded(hospital_log, Perspective.ART, TimestampAccuracy.SECONDS)["2"]
        assert len(got) == len(trace)
        assert all(
            (p.activity, p.resource, p.time) == (e.activity, e.resource, e.timestamp)
            for p, e in zip(got, trace)
        )

    def test_hospital_case1_activity_only(self, hospital_log):
        got = decoded(hospital_log, Perspective.A)["1"]
        assert [e.activity for e in got] == ["RE", "VI", "RL"]
        assert all(e.resource is None and e.time is None for e in got)

    def test_length_preserved_everywhere(self, hospital_log):
        for ps in Perspective:
            got = decoded(hospital_log, ps, HOURS)
            assert all(len(got[inst.case_id]) == len(inst.trace) for inst in hospital_log)


@st.composite
def coded_logs(draw):
    """Small logs with shared and missing resources, optionally relativized
    to an origin that may be negative."""
    resources = ["r1", "r2", ""] + [None] * draw(st.booleans())
    instances = []
    for i in range(draw(st.integers(0, 5))):
        stamps = sorted(draw(st.lists(st.integers(0, 3 * 86400), min_size=1, max_size=5)))
        trace = tuple(
            Event(draw(st.sampled_from("abc")), draw(st.sampled_from(resources)), ts)
            for ts in stamps
        )
        instances.append(ProcessInstance(str(i), trace))
    log = EventLog(tuple(instances))
    t0 = draw(st.none() | st.integers(-3 * 86400, 86400))
    return log if t0 is None else relativize_log(log, t0)


class TestProjectedLog:
    KEYS = [(ps, acc) for ps in Perspective for acc in TimestampAccuracy]

    def test_equals_per_case_projection_for_every_key(self):
        rng = random.Random(2406)
        for _ in range(30):
            log = random_log(rng)
            first = decoded(log, *self.KEYS[0])
            for ps, acc in self.KEYS:
                want = {inst.case_id: project_raw(inst, ps, acc.unit_seconds) for inst in log}
                assert decoded(log, ps, acc) == want
                assert log.coded(ps, acc) is log.coded(ps, acc)
            # the first key was evicted long ago and comes back equal
            assert decoded(log, *self.KEYS[0]) == first

    @settings(max_examples=120, deadline=None)
    @given(log=coded_logs())
    def test_coded_is_the_projection_in_canonical_codes(self, log):
        first = None
        bare = [(i, e) for i in log for e in i.trace if e.resource is None]
        for ps, acc in self.KEYS:
            if ps.has_resource and bare:
                inst, ev = bare[0]
                with pytest.raises(MissingResourceError) as got:
                    log.coded(ps, acc)
                assert str(got.value) == (
                    f"perspective {ps.value} requires a resource but event "
                    f"{ev.activity!r} in case {inst.case_id!r} has none"
                )
                continue
            want = tuple(project_raw(inst, ps, acc.unit_seconds) for inst in log)
            coded = log.coded(ps, acc)
            first = first or ((ps, acc), coded)
            traces, alphabet = coded
            keys = [e.sort_key() for e in alphabet]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert tuple(tuple(alphabet[c] for c in t) for t in traces) == want
            assert set(alphabet) == {e for t in want for e in t}
            assert log.coded(ps, acc) is coded
        if first is not None:
            # one slot: the first key was evicted and comes back rebuilt, equal
            key, coded = first
            assert log.coded(*key) == coded and log.coded(*key) is not coded

    def test_default_accuracy_is_seconds(self, treatment_log):
        log = EventLog(treatment_log.instances, treatment_log.sensitive_attrs)
        want = {inst.case_id: project_raw(inst, Perspective.ART, 1) for inst in log}
        assert decoded(log, Perspective.ART) == want

    def test_projected_log_equals_unprojected_twin(self, treatment_log):
        log = EventLog(treatment_log.instances, treatment_log.sensitive_attrs)
        twin = EventLog(treatment_log.instances, treatment_log.sensitive_attrs)
        log.coded(Perspective.AR, HOURS)
        assert log == twin and twin == log
        assert repr(log) == repr(twin)

    def test_missing_resource_names_case(self):
        log = build_log({"1": [("a", "r", 0)], "42": [("b", None, 0)]})
        with pytest.raises(MissingResourceError) as got:
            log.coded(Perspective.R)
        assert str(got.value) == (
            "perspective R requires a resource but event 'b' in case '42' has none"
        )
        assert len(log.coded(Perspective.A)[0]) == 2

    def test_untimed_projections_are_shared_across_accuracies(self, encode_builds):
        log = build_log({"1": [("a", "r", 0), ("b", "r", 5400)], "2": [("a", "r", 60)]})
        seconds = TimestampAccuracy.SECONDS
        hours = log.coded(Perspective.A, HOURS)
        assert log.coded(Perspective.A, seconds) is hours
        assert encode_builds == [(Perspective.A, HOURS)]
        timed = log.coded(Perspective.AT, HOURS)
        assert log.coded(Perspective.AT, seconds) != timed
        assert encode_builds[1:] == [(Perspective.AT, HOURS), (Perspective.AT, seconds)]


class TestTruncate:
    def test_floor_to_hour(self):
        log = build_log({"1": [("a", None, 0)]})
        log = EventLog(
            (ProcessInstance("1", (Event("a", None, 32 * HOUR + 45 * 60),)),)
        )
        got = truncate_to_accuracy(log, HOURS)
        assert got.instances[0].trace[0].timestamp == 32 * HOUR

    def test_seconds_is_identity(self, hospital_log):
        assert truncate_to_accuracy(hospital_log, TimestampAccuracy.SECONDS) == hospital_log

    def test_idempotent_and_order_preserving(self, hospital_log):
        once = truncate_to_accuracy(hospital_log, HOURS)
        twice = truncate_to_accuracy(once, HOURS)
        assert once == twice
        for before, after in zip(hospital_log, once):
            assert [e.activity for e in before.trace] == [e.activity for e in after.trace]

    @settings(max_examples=120, deadline=None)
    @given(log=coded_logs())
    def test_equals_the_per_event_floor(self, log):
        for acc in TimestampAccuracy:
            once = truncate_to_accuracy(log, acc)
            assert once == per_event_truncate(log, acc.unit_seconds)
            assert truncate_to_accuracy(once, acc) == once

    def test_equal_floored_events_are_one_object(self):
        log = truncate_to_accuracy(_synthetic_big_log(2000, 4025), HOURS)
        events = [ev for inst in log for ev in inst.trace]
        assert len({id(ev) for ev in events}) == len(set(events)) < len(events)

    def test_builder_orders_floors_and_shares_events(self):
        fields = (["a"] * 3, ["r", "r", None], [32 * HOUR + 45 * 60, 32 * HOUR + 1, 32 * HOUR])
        exact = built([("1", *fields, {})], ()).instances[0].trace
        assert [ev.timestamp for ev in exact] == [32 * HOUR, 32 * HOUR + 1, 32 * HOUR + 45 * 60]
        log = truncate_to_accuracy(
            built([("1", *fields, {}), ("2", ["a"], ["r"], [32 * HOUR + 59], {})], ()), HOURS)
        assert log.seconds.tolist() == [32 * HOUR] * 4
        (first, second, third), (fourth,) = (inst.trace for inst in log.instances)
        assert first == Event("a", None, 32 * HOUR)
        assert second == Event("a", "r", 32 * HOUR) and second is third is fourth

    def test_treatment_log_hours_are_integral(self, treatment_log):
        got = truncate_to_accuracy(treatment_log, HOURS)
        assert got == treatment_log  # fixture already sits on hour boundaries
        hours = {e.timestamp // HOUR for inst in got for e in inst.trace}
        assert hours == {1, 4, 5, 6, 7, 8, 9}


_FIELD_LISTS = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.sampled_from([None, "r", "s"]),
        st.one_of(  # equal, near, negative and wide stamps
            st.sampled_from([-1, 0, 59, 60, HOUR - 1, HOUR]),
            st.integers(-3 * 86400, 3 * 86400),
            st.integers(-(10**11), 10**11),
        ),
    ),
    max_size=12,
)


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(first=_FIELD_LISTS.filter(bool), second=_FIELD_LISTS.filter(bool))
    def test_builder_equals_a_stable_sort_then_the_per_event_floor(self, first, second):
        for acc in TimestampAccuracy:
            cases, oracles = [], []
            for cid, fields in (("1", first), ("2", second)):
                acts, resources, seconds = map(list, zip(*fields))
                cases.append((cid, acts, resources, seconds, {"S": cid}))
                ordered = sorted(fields, key=lambda f: f[2])  # stable
                oracles.append(ProcessInstance(cid, [Event(*f) for f in ordered], {"S": cid}))
            got = truncate_to_accuracy(built(cases, ("S",)), acc)
            want = per_event_truncate(EventLog(oracles, ("S",)), acc.unit_seconds)
            assert got == want and got.instances == want.instances
            # one object per equal event
            events = [ev for inst in got for ev in inst.trace]
            assert len({id(ev) for ev in events}) == len(set(events))

    @pytest.mark.parametrize("acc", list(TimestampAccuracy))
    def test_empty_trace_raises_the_constructors_error(self, acc, tmp_path):
        # the builder takes non-empty traces only; the reader that can meet
        # an empty one raises the constructor's error at every accuracy
        target = tmp_path / "log.xes"
        target.write_text('<log><trace><string key="concept:name" value="1"/></trace></log>')
        with pytest.raises(LogError, match=": case '1': empty traces are not allowed$"):
            truncate_to_accuracy(read_xes(target, ()), acc)

    @settings(max_examples=150, deadline=None)
    @given(log=hypothesis_logs(), bare=st.sets(st.integers(0, 49)))
    def test_instances_round_trip_through_the_columns(self, log, bare):
        # hypothesis_logs repeats hours within a case, and ``bare`` picks
        # events, counted across the log, that lose their resource
        events = iter(range(50))
        instances = tuple(
            ProcessInstance(inst.case_id, [
                Event(ev.activity, None, ev.timestamp) if next(events) in bare else ev
                for ev in inst.trace
            ], inst.sensitive)
            for inst in log
        )
        source = EventLog(instances, log.sensitive_attrs)
        assert source.instances is instances
        rebuilt = source._with()  # the same columns, no instances kept
        assert rebuilt.instances == instances and rebuilt.instances is not instances
        assert rebuilt == source and source == rebuilt
        assert rebuilt == EventLog(rebuilt.instances, log.sensitive_attrs)
        flat = [ev for inst in instances for ev in inst.trace]
        assert rebuilt.total_events == len(flat)
        assert rebuilt.activities() == {ev.activity for ev in flat}
        assert rebuilt.resources() == {ev.resource for ev in flat if ev.resource is not None}
        assert rebuilt.has_resources() == all(ev.resource is not None for ev in flat)

    @settings(max_examples=100, deadline=None)
    @given(log=coded_logs(), drop=st.sets(st.sampled_from("abc")))
    def test_suppressed_cases_equal_the_public_build(self, log, drop):
        out, _ = suppress_global(log, [ProjectedEvent(a) for a in drop], Perspective.A)
        assert out == EventLog(
            tuple(ProcessInstance(i.case_id, list(i.trace), i.sensitive) for i in out)
        )
        assert type(out.instances) is tuple and type(out.sensitive_attrs) is tuple
        for inst, sensitive in zip(out, out.case_sensitive):
            assert type(inst.trace) is tuple and inst.sensitive is not sensitive

    def test_timestamps_stay_within_the_int64_columns(self):
        # Python ints do not wrap; the columns would, so stamps and origins are bounded
        bound = 2**61
        for stamp in (bound + 1, -bound - 1, 2**64):
            with pytest.raises(LogError, match=r"more than 2\*\*61 seconds from the epoch$"):
                EventLog([ProcessInstance("1", [Event("a", None, stamp)])])
        log = EventLog([ProcessInstance("1", [Event("a", None, -bound), Event("b", None, bound)])])
        for t0 in (bound, -bound, 0):
            got = [ev.timestamp for ev in relativize_log(log, t0).instances[0].trace]
            assert got == [t0, t0 + 2 * bound]
            assert relativize_log(relativize_log(log, t0), -t0) == relativize_log(log, -t0)
        for t0 in (bound + 1, -bound - 1):
            with pytest.raises(LogError, match=r"more than 2\*\*61 seconds from the epoch$"):
                relativize_log(log, t0)
        # a float origin is taken whole, as Event took its stamps, so the column stays int64
        for t0 in (3600.0, np.float64(3600.7)):
            shifted = relativize_log(log, t0)
            assert shifted.seconds.dtype == np.int64
            assert [ev.timestamp for ev in shifted.instances[0].trace] == [3600, 3600 + 2 * bound]
            assert all(type(ev.timestamp) is int for ev in shifted.instances[0].trace)

    def test_columns_are_read_only(self):
        log = build_log({"1": [("a", "r", 0), ("b", None, HOUR)], "2": [("a", "r", 60)]})
        traces, _ = log.coded(Perspective.A)
        derived = (truncate_to_accuracy(log, TimestampAccuracy.SECONDS), relativize_log(log),
                   suppress_global(log, [ProjectedEvent("b")], Perspective.A)[0])
        for holder in (log, *derived):
            for name in ("seconds", "activity_codes", "resource_codes", "bounds"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(holder, name)[0] = 1
        for array in (traces.codes, traces.bounds, derived[2].coded(Perspective.A)[0].codes):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert log == build_log({"1": [("a", "r", 0), ("b", None, HOUR)], "2": [("a", "r", 60)]})

    def test_logs_differing_in_one_field_differ(self):
        log = build_log({"1": [("a", "r", 0), ("b", None, 1)]}, {"1": {"S": 1}}, ("S",))
        twin = truncate_to_accuracy(
            built([("1", ["a", "b"], ["r", None], [0, HOUR], {"S": 1})], ("S",)), HOURS)
        assert twin == log
        for other in (
            build_log({"1": [("a", "r", 0), ("c", None, 1)]}, {"1": {"S": 1}}, ("S",)),
            build_log({"1": [("a", "s", 0), ("b", None, 1)]}, {"1": {"S": 1}}, ("S",)),
            build_log({"1": [("a", "r", 0), ("b", "r", 1)]}, {"1": {"S": 1}}, ("S",)),
            build_log({"1": [("a", "r", 0), ("b", None, 2)]}, {"1": {"S": 1}}, ("S",)),
            build_log({"1": [("a", "r", 0), ("b", None, 1)]}, {"1": {"S": 2}}, ("S",)),
            build_log({"2": [("a", "r", 0), ("b", None, 1)]}, {"2": {"S": 1}}, ("S",)),
            build_log({"1": [("a", "r", 0)], "2": [("b", None, 1)]},
                      {"1": {"S": 1}, "2": {"S": 1}}, ("S",)),
        ):
            assert other != log and log != other


class TestVariants:
    def test_hospital_activity_variants(self, hospital_log):
        multiset, unique = variants(hospital_log, Perspective.A)
        assert sum(multiset.values()) == 6
        assert len(unique) == 5  # cases 1 and 6 share RE,VI,RL

    def test_single_instance(self):
        log = build_log({"1": [("a", None, 0)]})
        multiset, unique = variants(log, Perspective.A)
        assert sum(multiset.values()) == 1 and len(unique) == 1

    def test_treatment_all_unique(self, treatment_log):
        _, unique = variants(treatment_log, Perspective.ART, HOURS)
        assert len(unique) == 8

    def test_frequencies_sum_to_one(self):
        # a variant's frequency is its count over len(log)
        rng = random.Random(7)
        for _ in range(20):
            log = random_log(rng)
            multiset, unique = variants(log, Perspective.A)
            assert sum(multiset.values()) == len(log) and set(multiset) == unique


class TestDirectlyFollows:
    def test_hospital_re_vi_count(self, hospital_log):
        oracle = brute_directly_follows(hospital_log, Perspective.A)
        got = directly_follows(hospital_log, Perspective.A)
        assert got == oracle
        assert got[("RE", "VI")] == 4  # cases 1, 4, 5, 6 open with RE then VI

    def test_single_event_traces(self):
        log = build_log({"1": [("a", None, 0)], "2": [("b", None, 0)]})
        assert directly_follows(log, Perspective.A) == {}

    def test_repeating_pattern_counts(self):
        traces = {
            "1": [("a", "r", 0), ("b", "r", 1), ("a", "r", 2), ("b", "r", 3)],
            "2": [("a", "r", 0), ("b", "r", 1), ("a", "r", 2), ("b", "r", 3)],
        }
        got = directly_follows(build_log(traces), Perspective.A)
        assert got[("a", "b")] == 4 and got[("b", "a")] == 2

    def test_resource_perspective(self, hospital_log):
        got = directly_follows(hospital_log, Perspective.R)
        assert got == brute_directly_follows(hospital_log, Perspective.R)

    def test_rejects_other_perspectives(self, hospital_log):
        with pytest.raises(LogError):
            directly_follows(hospital_log, Perspective.AR)

    def test_matches_position_scan_on_random_logs(self):
        rng = random.Random(13)
        for _ in range(25):
            log = random_log(rng)
            for ps in (Perspective.A, Perspective.R):
                assert directly_follows(log, ps) == brute_directly_follows(log, ps)

    @settings(max_examples=100, deadline=None)
    @given(log=hypothesis_logs(), ps=st.sampled_from([Perspective.A, Perspective.R]),
           drop=st.sets(st.sampled_from(["a", "b", "c"]), max_size=2))
    def test_flat_pairs_match_position_scan(self, log, ps, drop):
        # also on a log cut by suppression, whose projection is renumbered
        out, _ = suppress_global(log, [ProjectedEvent(a) for a in drop], Perspective.A)
        for view in (log, out):
            got = directly_follows(view, ps)
            assert got == brute_directly_follows(view, ps)
            assert all(type(n) is int for n in got.values())


class TestDiscretize:
    @staticmethod
    def _log(values):
        traces = {str(i): [("a", None, 0)] for i in range(len(values))}
        sens = {str(i): {"Age": v} for i, v in enumerate(values)}
        return build_log(traces, sens, attrs=("Age",))

    def test_uniform_range(self):
        log = discretize_sensitive(self._log(list(range(1, 101))), "Age")
        by_value = {int(i.case_id): i.sensitive["Age"] for i in log}
        assert by_value[98] == "high"  # value 99
        assert by_value[0] == "low"  # value 1
        assert by_value[49] == "middle"  # value 50, the median

    def test_four_values(self):
        log = discretize_sensitive(self._log([10, 20, 30, 40]), "Age")
        assert [i.sensitive["Age"] for i in log] == ["low", "middle", "middle", "high"]

    def test_log_without_cases_is_returned_unchanged(self):
        log = self._log([])
        assert discretize_sensitive(log, "Age") is log

    def test_undeclared_attribute_is_named(self):
        log = build_log({"1": [("a", None, 0)]}, {"1": {"Disease": "flu"}}, attrs=("Disease",))
        with pytest.raises(LogError, match="^cannot discretize 'Age': it is not a declared"):
            discretize_sensitive(log, "Age")

    def test_non_finite_value_names_case(self):
        # a NaN would make every quartile NaN, and every value "middle"
        values = [1, 2, float("nan"), 4, 50, 60, 70, 3]
        sens = {f"c{i}": {"Age": v} for i, v in enumerate(values)}
        log = build_log({cid: [("a", None, 0)] for cid in sens}, sens, attrs=("Age",))
        with pytest.raises(LogError) as got:
            discretize_sensitive(log, "Age")
        assert str(got.value) == "case 'c2': sensitive attribute 'Age' has non-finite value nan"
        for value in (float("inf"), -float("inf")):
            sens["c2"] = {"Age": value}
            log = build_log({cid: [("a", None, 0)] for cid in sens}, sens, attrs=("Age",))
            with pytest.raises(LogError, match=f"^case 'c2': .* non-finite value {value!r}$"):
                discretize_sensitive(log, "Age")

    def test_non_numeric_names_case(self):
        log = build_log(
            {"7": [("a", None, 0)]}, {"7": {"Age": "old"}}, attrs=("Age",)
        )
        with pytest.raises(LogError, match="7"):
            discretize_sensitive(log, "Age")

    def test_hospital_ages(self, hospital_log):
        got = discretize_sensitive(hospital_log, "Age")
        labels = {i.case_id: i.sensitive["Age"] for i in got}
        # ages 22,30,32,29,35,35 -> Q1=29.25, Q3=34.25
        assert labels == {
            "1": "low",
            "2": "middle",
            "3": "middle",
            "4": "low",
            "5": "high",
            "6": "high",
        }
        # other attributes untouched
        assert {i.case_id: i.sensitive["Disease"] for i in got} == {
            i.case_id: i.sensitive["Disease"] for i in hospital_log
        }


class TestRelativizeLog:
    def test_every_case_starts_at_origin(self, hospital_log):
        got = relativize_log(hospital_log, 0)
        assert all(inst.trace[0].timestamp == 0 for inst in got)
        for before, after in zip(hospital_log, got):
            gaps_before = [
                e.timestamp - before.trace[0].timestamp for e in before.trace
            ]
            gaps_after = [e.timestamp for e in after.trace]
            assert gaps_before == gaps_after

    def test_hospital_case6_offsets(self, hospital_log):
        got = case(relativize_log(hospital_log, 0), "6").trace
        # gaps of 1h15m and 5h15m from the first event
        assert [e.timestamp for e in got] == [0, 75 * 60, 315 * 60]

    @given(log=hypothesis_logs(), t0=st.integers(-1000, 1000))
    def test_pairwise_differences_preserved(self, log, t0):
        got = relativize_log(log, t0)
        assert relativize_log(got, t0) == got
        for before, after in zip(log, got):
            assert after.trace[0].timestamp == t0
            stamps = [e.timestamp for e in before.trace]
            shifted = [e.timestamp for e in after.trace]
            for i in range(len(stamps)):
                for j in range(len(stamps)):
                    assert shifted[i] - shifted[j] == stamps[i] - stamps[j]
