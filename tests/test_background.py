import random

import pytest

from tlkcpriv import (
    BkAttr,
    BkSpec,
    BkType,
    Candidate,
    CandidateSyntaxError,
    LogError,
    Perspective,
    ProjectedEvent,
    TimestampAccuracy,
    confidence,
    enumerate_candidates,
    format_candidate,
    match,
    parse_candidate,
    relativize_log,
    truncate_to_accuracy,
)
from tlkcpriv.background import ProjectedLog, _enumerate

from .conftest import build_log
from .oracles import all_candidates, brute_match, proper_sub_candidates, random_log

HOURS = TimestampAccuracy.HOURS
SECONDS = TimestampAccuracy.SECONDS


def ids(instances):
    return {inst.case_id for inst in instances}


@pytest.fixture(scope="module")
def relative_hospital(hospital_log):
    return truncate_to_accuracy(relativize_log(hospital_log, 0), HOURS)


# the twelve linkage attacks on the six-case hospital log
UNTIMED_ATTACKS = [
    ("set/ac", "{VI,IN}", {"4"}),
    ("mult/ac", "[HO,BT^2]", {"2"}),
    ("seq/ac", "<RE,VI,HO>", {"5"}),
    ("set/re", "{E1,D2}", {"5"}),
    ("mult/re", "[N1^2,E3]", {"2"}),
    ("seq/re", "<E4,D2>", {"4"}),
    ("set/ar", "{HO/E6}", {"5"}),
    ("mult/ar", "[BT/N1^2]", {"2"}),
    ("seq/ar", "<RE/E4,VI/D2>", {"4"}),
]

TIMED_ATTACKS = [
    ("rel/ac", "<HO@0,VI@24>", {"2"}),  # the visit happened the next morning
    ("rel/re", "<E1@0,E3@1>", {"3"}),  # E3 acted more than an hour after E1
    ("rel/ar", "<VI/D3@1,RL/E6@5>", {"6"}),  # about four hours from visit to release
]


class TestMatch:
    @pytest.mark.parametrize("bk,literal,expected", UNTIMED_ATTACKS)
    def test_untimed_attacks(self, hospital_log, bk, literal, expected):
        spec = BkSpec.parse(bk)
        cand = parse_candidate(literal, spec)
        assert ids(match(hospital_log, spec, cand)) == expected

    @pytest.mark.parametrize("bk,literal,expected", TIMED_ATTACKS)
    def test_timed_attacks(self, relative_hospital, bk, literal, expected):
        spec = BkSpec.parse(bk)
        cand = parse_candidate(literal, spec)
        assert ids(match(relative_hospital, spec, cand, HOURS)) == expected

    def test_timed_pair_narrows_activity_resource_twins(self, relative_hospital):
        # cases 1 and 6 share the activity/resource sequence; time splits them
        spec = BkSpec.parse("seq/ar")
        cand = parse_candidate("<VI/D3,RL/E6>", spec)
        assert ids(match(relative_hospital, spec, cand)) == {"1", "6"}

    def test_empty_match_is_fine(self, hospital_log):
        spec = BkSpec.parse("set/ac")
        cand = parse_candidate("{IN,HO}", spec)
        assert match(hospital_log, spec, cand) == ()

    def test_kind_mismatch_rejected(self, hospital_log):
        spec = BkSpec.parse("set/ac")
        cand = parse_candidate("<RE,VI>", BkSpec.parse("seq/ac"))
        with pytest.raises(LogError):
            match(hospital_log, spec, cand)

    def test_matches_brute_force_on_random_logs(self):
        # every realized candidate up to size 3, so multiset repeat counts of
        # 3 go through the enumerator's repeat branch too
        rng = random.Random(99)
        triple_repeats = 0
        for _ in range(15):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    spec = BkSpec(bk_type, bk_attr)
                    plog = ProjectedLog(log, spec, HOURS)
                    found = list(enumerate_candidates(log, spec, 3, HOURS))
                    payloads = [cand.elements for cand, _ in found]
                    assert len(set(payloads)) == len(payloads)
                    assert set(payloads) == all_candidates(
                        log, bk_type, spec.perspective, HOURS.unit_seconds, 3
                    )
                    for cand, indices in found:
                        oracle = brute_match(
                            log, bk_type, bk_attr, cand.elements,
                            spec.perspective, HOURS.unit_seconds,
                        )
                        assert indices == oracle
                        assert plog.match_candidate(cand) == oracle
                        triple_repeats += (
                            bk_type is BkType.MULT and cand.size == 3 and len(set(cand.elements)) == 1
                        )
        assert triple_repeats > 0

    @staticmethod
    def _probes(plog, rng):
        """Candidates that need not be realized: an absent descriptor, repeats
        of one descriptor (timed twins under rel) and random draws."""
        ps = plog.spec.perspective
        absent = ProjectedEvent(
            "zz" if ps.has_activity else None,
            "zz" if ps.has_resource else None,
            999 if ps.has_time else None,
        )
        present = plog.alphabet
        e = present[0]
        probes = [(absent,), (e, absent), (absent, e), (e, e), (e, e, e)]
        probes += [tuple(rng.choices(present, k=rng.randint(1, 3))) for _ in range(30)]
        if plog.spec.bk_type is BkType.SET:
            probes = [p for p in probes if len(set(p)) == len(p)]
        return [Candidate(plog.spec.bk_type, p) for p in probes]

    def test_unrealized_and_repeated_candidates_match_brute_force(self):
        rng = random.Random(314)
        empty = 0
        for _ in range(15):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    spec = BkSpec(bk_type, bk_attr)
                    plog = ProjectedLog(log, spec, HOURS)
                    for cand in self._probes(plog, rng):
                        oracle = brute_match(
                            log, bk_type, bk_attr, cand.elements,
                            spec.perspective, HOURS.unit_seconds,
                        )
                        assert plog.match_candidate(cand) == oracle, cand
                        empty += not oracle
        assert empty > 0

    def test_containment_is_tested_only_on_the_posting_intersection(self, monkeypatch):
        # a full-log scan calls the containment test on every trace; the
        # index may call it only on traces holding every element, and not
        # at all where the postings decide the match by themselves
        import tlkcpriv.background as background

        calls = []
        inner = background.is_subsequence

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(background, "is_subsequence", counted)
        rng = random.Random(2718)
        checked = 0
        for _ in range(10):
            log = random_log(rng, max_cases=8, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    spec = BkSpec(bk_type, bk_attr)
                    plog = ProjectedLog(log, spec, HOURS)
                    realized = [c for c, _ in enumerate_candidates(log, spec, 3, HOURS)]
                    for cand in realized + self._probes(plog, rng):
                        holders = [
                            brute_match(log, bk_type, bk_attr, (e,),
                                        spec.perspective, HOURS.unit_seconds)
                            for e in set(cand.elements)
                        ]
                        calls.clear()
                        plog.match_candidate(cand)
                        assert len(calls) <= len(frozenset.intersection(*holders)), cand
                        decided = (
                            bk_type is BkType.SET
                            or cand.size == 1
                            or bk_type is BkType.MULT and len(holders) == cand.size
                        )
                        if decided:
                            assert not calls, cand
                        checked += len(calls) > 0
        assert checked > 0

    def test_postings_follow_the_traces_and_wait_for_a_match(self):
        # mining never reads the postings, so only a single-candidate match
        # builds them
        rng = random.Random(1618)
        for _ in range(10):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    plog = ProjectedLog(log, BkSpec(bk_type, bk_attr), HOURS)
                    list(_enumerate(plog.traces, len(plog.alphabet), bk_type, 3))
                    assert "postings" not in vars(plog)
                    plog.match_indices((0,))
                    assert plog.postings == tuple(
                        frozenset(i for i, trace in enumerate(plog.traces) if c in trace)
                        for c in range(len(plog.alphabet))
                    )

    def test_anti_monotone(self, hospital_log):
        spec = BkSpec.parse("seq/ac")
        small = parse_candidate("<RE,VI>", spec)
        big = parse_candidate("<RE,VI,RL>", spec)
        assert ids(match(hospital_log, spec, big)) <= ids(match(hospital_log, spec, small))

    def test_anti_monotone_on_random_logs(self):
        rng = random.Random(271)
        for _ in range(8):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                spec = BkSpec(bk_type, BkAttr.AC)
                matches = dict(enumerate_candidates(log, spec, 3, HOURS))
                for cand, indices in matches.items():
                    for sub in proper_sub_candidates(cand):
                        if sub in matches:
                            assert indices <= matches[sub]

    def test_seq_match_within_set_match(self, hospital_log):
        seq_spec, set_spec = BkSpec.parse("seq/ac"), BkSpec.parse("set/ac")
        seq = parse_candidate("<VI,HO>", seq_spec)
        as_set = parse_candidate("{VI,HO}", set_spec)
        assert ids(match(hospital_log, seq_spec, seq)) <= ids(
            match(hospital_log, set_spec, as_set)
        )


class TestConfidence:
    def test_two_value_split(self, treatment_log):
        matched = [inst for inst in treatment_log if inst.case_id in ("2", "3")]
        dist, top = confidence(matched, "Disease")
        assert dist == {"Infection": 0.5, "Corona": 0.5}
        assert top == 0.5

    def test_single_match(self, treatment_log):
        dist, top = confidence(treatment_log.instances[:1], "Disease")
        assert top == 1.0

    def test_uniform_value(self):
        log = build_log(
            {"1": [("a", None, 0)], "2": [("b", None, 0)]},
            {"1": {"D": "flu"}, "2": {"D": "flu"}},
            attrs=("D",),
        )
        dist, top = confidence(log.instances, "D")
        assert dist == {"flu": 1.0} and top == 1.0

    def test_empty_match_rejected(self):
        with pytest.raises(LogError):
            confidence((), "D")

    def test_null_values_form_a_class(self):
        log = build_log(
            {"1": [("a", None, 0)], "2": [("b", None, 0)]},
            {"1": {"D": None}, "2": {"D": "flu"}},
            attrs=("D",),
        )
        dist, top = confidence(log.instances, "D")
        assert dist[None] == 0.5 and top == 0.5


class TestEnumerate:
    def test_distinct_timed_events_of_treatment_log(self, treatment_log):
        spec = BkSpec.parse("rel/ar")
        singles = [
            cand for cand, _ in enumerate_candidates(treatment_log, spec, 1, HOURS)
        ]
        # seven distinct (activity, resource, hour) descriptors occur
        assert len(singles) == 7
        assert len(set(singles)) == 7

    def test_size_one_sets_multisets_sequences_coincide(self, hospital_log):
        payloads = {}
        for bk in ("set/ac", "mult/ac", "seq/ac"):
            spec = BkSpec.parse(bk)
            payloads[bk] = {
                cand.elements for cand, _ in enumerate_candidates(hospital_log, spec, 1)
            }
        assert payloads["set/ac"] == payloads["mult/ac"] == payloads["seq/ac"]

    def test_exhaustive_tiny_sequence_case(self):
        log = build_log({"1": [("a", None, 0), ("b", None, 60)]})
        spec = BkSpec.parse("seq/ac")
        got = {
            format_candidate(c) for c, _ in enumerate_candidates(log, spec, 2)
        }
        assert got == {"<a>", "<b>", "<a,b>"}

    def test_no_duplicates_and_nonempty_matches(self):
        rng = random.Random(5)
        for _ in range(10):
            log = random_log(rng, max_cases=5, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    spec = BkSpec(bk_type, bk_attr)
                    seen = set()
                    for cand, indices in enumerate_candidates(log, spec, 3, HOURS):
                        assert cand not in seen
                        seen.add(cand)
                        assert indices


class TestExtensionFilter:
    def test_pruned_branches_are_not_generated(self, hospital_log):
        for bk in ("seq/ac", "mult/ac"):
            spec = BkSpec.parse(bk)
            plog = ProjectedLog(hospital_log, spec, HOURS)
            sizes = []
            for level in _enumerate(plog.traces, len(plog.alphabet), spec.bk_type, 3):
                sizes.append(level.codes.shape[1])
                level.carry[:] = False
            assert sizes == [1]

    def test_only_carried_patterns_grow(self, hospital_log):
        # carrying one pattern per level walks exactly its children
        for bk in ("seq/ac", "mult/ac", "set/ac"):
            spec = BkSpec.parse(bk)
            plog = ProjectedLog(hospital_log, spec, HOURS)
            carried = None
            for level in _enumerate(plog.traces, len(plog.alphabet), spec.bk_type, 3):
                rows = [tuple(r) for r in level.codes.tolist()]
                if carried is not None:
                    assert rows and all(r[:-1] == carried for r in rows)
                    assert (level.subs[:, -1] == 0).all()
                keep = int(level.support.argmax())
                carried = rows[keep]
                level.carry[:] = False
                level.carry[keep] = True


class TestSpecMapping:
    def test_perspective_mapping(self):
        assert BkSpec.parse("rel/ar").perspective is Perspective.ART
        assert BkSpec.parse("rel/ac").perspective is Perspective.AT
        assert BkSpec.parse("rel/re").perspective is Perspective.RT
        assert BkSpec.parse("set/ac").perspective is Perspective.A
        assert BkSpec.parse("mult/re").perspective is Perspective.R
        assert BkSpec.parse("seq/ar").perspective is Perspective.AR

    def test_bad_spec_rejected(self):
        with pytest.raises(LogError):
            BkSpec.parse("sets/ac")


class TestLiterals:
    @pytest.mark.parametrize(
        "bk,literal",
        [
            ("set/ac", "{VI,IN}"),
            ("mult/ac", "[HO,BT^2]"),
            ("seq/ar", "<RE/E4,VI/D2>"),
            ("rel/ar", "<VI/D3@1,RL/E6@5>"),
            ("rel/re", "<E1@0,E3@1>"),
            ("set/re", "{E1,D2}"),
        ],
    )
    def test_round_trip(self, bk, literal):
        spec = BkSpec.parse(bk)
        cand = parse_candidate(literal, spec)
        assert parse_candidate(format_candidate(cand), spec) == cand

    def test_resource_elements_accept_slash_form(self, hospital_log):
        spec = BkSpec.parse("set/re")
        bare = parse_candidate("{E1,D2}", spec)
        slashed = parse_candidate("{/E1,/D2}", spec)
        assert bare == slashed

    def test_wrong_brackets_reported(self):
        with pytest.raises(CandidateSyntaxError):
            parse_candidate("<a,b>", BkSpec.parse("set/ac"))

    def test_missing_time_reported(self):
        with pytest.raises(CandidateSyntaxError):
            parse_candidate("<a,b>", BkSpec.parse("rel/ac"))

    def test_set_duplicates_rejected(self):
        with pytest.raises(LogError):
            parse_candidate("{a,a}", BkSpec.parse("set/ac"))

    def test_position_information(self):
        with pytest.raises(CandidateSyntaxError) as err:
            parse_candidate("{a,b/r/x}", BkSpec.parse("set/ac"))
        assert "position" in str(err.value)
