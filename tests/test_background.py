import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    format_candidate,
    match,
    parse_candidate,
    relativize_log,
    truncate_to_accuracy,
)
from tlkcpriv.background import ProjectedLog, _enumerate, _literal

from .conftest import build_log, walked
from .oracles import all_candidates, brute_match, probes, proper_sub_candidates, random_log

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
                    found = walked(log, spec, 3, HOURS)
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
                        assert plog.match_indices(cand) == oracle
                        triple_repeats += (
                            bk_type is BkType.MULT and len(cand.elements) == 3 and len(set(cand.elements)) == 1
                        )
        assert triple_repeats > 0

    def test_unrealized_and_repeated_candidates_match_brute_force(self):
        rng = random.Random(314)
        empty = 0
        for _ in range(15):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    spec = BkSpec(bk_type, bk_attr)
                    plog = ProjectedLog(log, spec, HOURS)
                    for cand in probes(plog, rng, 30):
                        oracle = brute_match(
                            log, bk_type, bk_attr, cand.elements,
                            spec.perspective, HOURS.unit_seconds,
                        )
                        assert plog.match_indices(cand) == oracle, cand
                        empty += not oracle
        assert empty > 0

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
                matches = dict(walked(log, spec, 3, HOURS))
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
            cand for cand, _ in walked(treatment_log, spec, 1, HOURS)
        ]
        # seven distinct (activity, resource, hour) descriptors occur
        assert len(singles) == 7
        assert len(set(singles)) == 7

    def test_size_one_sets_multisets_sequences_coincide(self, hospital_log):
        payloads = {}
        for bk in ("set/ac", "mult/ac", "seq/ac"):
            spec = BkSpec.parse(bk)
            payloads[bk] = {
                cand.elements for cand, _ in walked(hospital_log, spec, 1)
            }
        assert payloads["set/ac"] == payloads["mult/ac"] == payloads["seq/ac"]

    def test_exhaustive_tiny_sequence_case(self):
        log = build_log({"1": [("a", None, 0), ("b", None, 60)]})
        spec = BkSpec.parse("seq/ac")
        got = {
            format_candidate(c) for c, _ in walked(log, spec, 2)
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
                    for cand, indices in walked(log, spec, 3, HOURS):
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


# any non-empty label, spaces and the literal syntax's own punctuation included
LABELS = st.text(st.characters() | st.sampled_from(" \t,/@^\\{}[]<>"), min_size=1, max_size=6)


@st.composite
def spec_and_candidate(draw):
    spec = draw(st.sampled_from([BkSpec(t, a) for t in BkType for a in BkAttr]))
    element = st.builds(
        ProjectedEvent,
        activity=st.none() if spec.bk_attr is BkAttr.RE else LABELS,
        resource=st.none() if spec.bk_attr is BkAttr.AC else LABELS,
        time=st.integers(-50, 50) if spec.bk_type is BkType.REL else st.none(),
    )
    pool = draw(st.lists(element, min_size=1, max_size=3, unique=True))
    if spec.bk_type is BkType.SET:
        elements = draw(st.permutations(pool))
    else:  # repeats give multiset counts
        elements = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    return spec, Candidate(spec.bk_type, tuple(elements))


class TestLiterals:
    @given(spec_and_candidate())
    @settings(max_examples=400, deadline=None)
    def test_any_labels_round_trip(self, drawn):
        spec, cand = drawn
        assert parse_candidate(format_candidate(cand), spec) == cand

    def test_special_characters_are_escaped(self):
        spec = BkSpec.parse("seq/ar")
        cand = Candidate(BkType.SEQ, (ProjectedEvent("a,b", " r/"), ProjectedEvent("x@1^2", "\\")))
        assert format_candidate(cand) == r"<a\,b/\ r\/,x\@1\^2/\\>"
        assert parse_candidate(format_candidate(cand), spec) == cand
        # unescaped, the comma still separates elements
        assert len(parse_candidate("<a,b>", BkSpec.parse("seq/ac")).elements) == 2

    def test_an_element_formats_the_same_on_a_cache_hit(self):
        special = ProjectedEvent(" a\\,/@^ ", " r ")  # every escaped character, edge spaces
        cand = Candidate(BkType.SEQ, (special, ProjectedEvent("b", "s"), special))
        _literal.cache_clear()
        literal = format_candidate(cand)  # a miss, then a hit for the repeat
        assert (_literal.cache_info().misses, _literal.cache_info().hits) == (2, 1)
        assert literal == r"<\ a\\\,\/\@\^\ /\ r\ ,b/s,\ a\\\,\/\@\^\ /\ r\ >"
        assert format_candidate(cand) == literal  # all hits
        assert _literal.cache_info().hits == 4
        assert parse_candidate(literal, BkSpec.parse("seq/ar")) == cand

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

    # a zero count would drop its element and attack on knowledge never given
    @pytest.mark.parametrize("literal, pos", [("[VI^0,IN]", 1), ("[VI^0]", 1), ("[IN,VI^00]", 4)])
    def test_zero_count_reported_at_its_element(self, literal, pos):
        message = rf"position {pos}: \^count must be at least 1$"
        with pytest.raises(CandidateSyntaxError, match=message):
            parse_candidate(literal, BkSpec.parse("mult/ac"))

    def test_empty_candidate_rejected(self):
        with pytest.raises(LogError, match="^candidates must contain at least one element$"):
            Candidate(BkType.SEQ, ())

    # each rule of the literal syntax, raised at the element that breaks it
    @pytest.mark.parametrize(
        "literal, spec, pos, message",
        [
            ("< >", "seq/ac", 1, "candidate has no elements"),
            ("{}", "set/ar", 1, "candidate has no elements"),
            ("<a^2>", "seq/ac", 1, "^count is only valid in multisets"),
            ("{a,b^2}", "set/ac", 3, "^count is only valid in multisets"),
            ("<a/r>", "seq/ac", 1, "activity-based elements are plain labels"),
            ("[a,/r]", "mult/ac", 3, "activity-based elements are plain labels"),
            ("<r1,a/r2>", "seq/re", 4, "resource-based elements carry no activity"),
            ("<r1,>", "seq/re", 4, "missing resource label"),
            ("<@3>", "rel/re", 1, "missing resource label"),
            ("<a/r,b>", "seq/ar", 5, "expected act/res element"),
            ("{/r}", "set/ar", 1, "expected act/res element"),
            ("<a/r@3>", "seq/ar", 1, "@<units> is only valid for rel candidates"),
            ("{a,b@0}", "set/ac", 3, "@<units> is only valid for rel candidates"),
        ],
    )
    def test_each_rule_names_its_position(self, literal, spec, pos, message):
        with pytest.raises(CandidateSyntaxError) as err:
            parse_candidate(literal, BkSpec.parse(spec))
        assert type(err.value) is CandidateSyntaxError and err.value.pos == pos
        assert str(err.value) == f"cannot parse candidate {literal!r} at position {pos}: {message}"
