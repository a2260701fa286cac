import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlkcpriv import (
    BkAttr,
    BkSpec,
    BkType,
    Candidate,
    Event,
    EventLog,
    LogError,
    Perspective,
    PrivacyParams,
    ProcessInstance,
    ProjectedEvent,
    TimestampAccuracy,
    audit_tlkc,
    coverage,
    enumerate_mft,
    enumerate_mvt,
    focal_values,
    is_violating,
)
from tlkcpriv.background import _enumerate

from .conftest import build_log
from .oracles import (
    GreedyIndex,
    brute_coverage,
    brute_focal,
    brute_mft,
    brute_mvt,
    hypothesis_logs,
    proper_sub_candidates,
    random_log,
)
from .test_acceptance import _synthetic_big_log

HOURS = TimestampAccuracy.HOURS


def pe(a=None, r=None, t=None):
    return ProjectedEvent(a, r, t)


REFERENCE_PARAMS = dict(
    accuracy="hours", L=2, K=2, C=0.5, bk="rel/ar", sensitive=("Disease",), theta=0.25
)

# descriptors of the six events appearing in the treatment log's minimal violations
E_RE = pe("RE", "E4", 1)
E_HO = pe("HO", "E3", 4)
E_VI5 = pe("VI", "D1", 5)
E_BT = pe("BT", "N1", 7)
E_VI8 = pe("VI", "D1", 8)
E_RL = pe("RL", "E2", 9)


@pytest.fixture(scope="module")
def reference_params():
    return PrivacyParams(**REFERENCE_PARAMS)


@pytest.fixture(scope="module")
def treatment_mvt(treatment_log, reference_params):
    return enumerate_mvt(treatment_log, reference_params)


@pytest.fixture(scope="module")
def treatment_mft(treatment_log):
    return enumerate_mft(treatment_log, Perspective.ART, 0.25, HOURS)


class TestParams:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(K=0),
            dict(L=0),
            dict(C=0.0),
            dict(C=1.5),
            dict(theta=-0.1),
            dict(alpha=0.7, beta=0.7),
            dict(alpha=0.5, beta=None),
            dict(alpha=float("nan"), beta=float("nan")),
            dict(alpha=0.5, beta=float("nan")),
        ],
    )
    def test_invalid_rejected(self, bad):
        params = {**REFERENCE_PARAMS, **bad}
        with pytest.raises(LogError):
            PrivacyParams(**params)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(K=float("nan")), "K must be a positive integer"),
            (dict(K=2.0), "K must be a positive integer"),
            (dict(K="2"), "K must be a positive integer"),
            (dict(K=True), "K must be a positive integer"),
            (dict(L=2.5), "L must be a positive integer"),
            (dict(L=float("inf")), "L must be a positive integer"),
            (dict(C="0.5"), r"C must lie in \(0, 1\]"),
            (dict(C=True), r"C must lie in \(0, 1\]"),
            (dict(theta="0.2"), r"theta must lie in \[0, 1\]"),
            (dict(alpha="0.5", beta=0.5), "alpha and beta must be non-negative"),
            (dict(alpha=0.5, beta="0.5"), "alpha and beta must be non-negative"),
        ],
    )
    def test_values_of_the_wrong_kind_fail_with_their_message(self, bad, message):
        # a NaN K passed every bound and made each audit vacuous; a string
        # failed a comparison with a bare TypeError
        with pytest.raises(LogError, match=message):
            PrivacyParams(**{**REFERENCE_PARAMS, **bad})

    def test_numpy_numbers_are_accepted(self):
        import numpy as np

        params = PrivacyParams(**{**REFERENCE_PARAMS, "L": np.int64(2), "K": np.int32(2),
                                  "C": np.float64(0.5), "theta": np.float32(0.25)})
        assert params.K == 2 and params.C == 0.5

    def test_repeated_sensitive_attribute_counts_once(self, treatment_log, reference_params):
        params = PrivacyParams(**{**REFERENCE_PARAMS, "sensitive": ("Disease", "Age", "Disease")})
        assert params.sensitive == ("Disease", "Age")
        twice = PrivacyParams(**{**REFERENCE_PARAMS, "sensitive": ["Disease", "Disease"]})
        assert twice == reference_params
        # each c-violation names its attribute once
        records = audit_tlkc(treatment_log, twice).records()
        assert records == audit_tlkc(treatment_log, reference_params).records()
        assert any("c-violation(Disease)" in r["verdict"] for r in records)
        assert not any("Disease)+c-violation(Disease" in r["verdict"] for r in records)


class TestFocalValues:
    def test_modal_value_earliest_tie(self, treatment_log):
        # all four diseases occur twice; the first case decides
        assert focal_values(treatment_log, ("Disease",)) == {"Disease": "Cancer"}

    def test_matches_independent_derivation(self, hospital_log):
        got = focal_values(hospital_log, ("Disease", "Age"))
        assert got == brute_focal(hospital_log, ("Disease", "Age"))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 1.0, True, "x", "y", None, float("nan")]),
                    min_size=1, max_size=8))
    def test_ties_and_equal_values_match_the_derivation(self, values):
        # 1, 1.0 and True count as one value, seen first as whichever comes first
        log = EventLog(tuple(ProcessInstance(str(i), (Event("a", None, 0),), {"D": v})
                             for i, v in enumerate(values)), ("D",))
        assert focal_values(log, ("D",))["D"] is brute_focal(log, ("D",))["D"]


class TestIsViolating:
    def test_balanced_pair_is_fine(self, treatment_log, reference_params):
        cand = Candidate(BkType.REL, (E_VI5,))
        verdict = is_violating(cand, treatment_log, reference_params)
        assert verdict.ok and verdict.match_size == 2

    def test_single_match_is_k_violation(self, treatment_log, reference_params):
        cand = Candidate(BkType.REL, (E_RE, E_VI5))
        verdict = is_violating(cand, treatment_log, reference_params)
        assert verdict.k_violation and verdict.match_size == 1

    def test_uniform_sensitive_value_is_c_violation(self):
        log = build_log(
            {c: [("a", "r", 0)] for c in "123"},
            {c: {"D": "flu"} for c in "123"},
            attrs=("D",),
        )
        params = PrivacyParams(
            accuracy="hours", L=1, K=2, C=0.5, bk="set/ac", sensitive=("D",)
        )
        verdict = is_violating(Candidate(BkType.SET, (pe("a"),)), log, params)
        assert verdict.c_violations == ("D",)
        assert verdict.max_confidence == 1.0

    def test_unrealized_candidate_rejected(self, treatment_log, reference_params):
        ghost = Candidate(BkType.REL, (pe("ZZ", "E1", 1),))
        with pytest.raises(LogError):
            is_violating(ghost, treatment_log, reference_params)

    def test_bound_holds_per_attribute_and_names_it(self):
        log = build_log(
            {c: [("x", "r", 0)] for c in "123"},
            {
                "1": {"D1": "a", "D2": "p"},
                "2": {"D1": "a", "D2": "q"},
                "3": {"D1": "b", "D2": "r"},
            },
            attrs=("D1", "D2"),
        )
        params = PrivacyParams(
            accuracy="hours", L=1, K=1, C=0.5, bk="set/ac", sensitive=("D1", "D2")
        )
        verdict = is_violating(Candidate(BkType.SET, (pe("x"),)), log, params)
        assert verdict.c_violations == ("D1",)  # 2/3 of matches share the focal a
        assert not verdict.k_violation


class TestMvt:
    def test_reference_violation_set(self, treatment_mvt):
        got = {c for c in treatment_mvt.candidates}
        expected = {
            Candidate(BkType.REL, (E_RE, E_HO)),
            Candidate(BkType.REL, (E_RE, E_VI5)),
            Candidate(BkType.REL, (E_RE, E_BT)),
            Candidate(BkType.REL, (E_VI5, E_VI8)),
            Candidate(BkType.REL, (E_VI5, E_RL)),
        }
        assert got == expected

    def test_privacy_gain_row(self, treatment_mvt):
        index = GreedyIndex(c.elements for c in treatment_mvt.candidates)
        gains = [index.privacy_gain(e) for e in (E_RE, E_HO, E_VI5, E_BT, E_VI8, E_RL)]
        assert gains == [3, 1, 3, 1, 1, 1]

    def test_vacuous_requirements_have_no_violations(self, treatment_log):
        params = PrivacyParams(
            accuracy="hours", L=2, K=1, C=1.0, bk="rel/ar", sensitive=("Disease",)
        )
        assert len(enumerate_mvt(treatment_log, params)) == 0

    def test_minimality_explicitly(self, treatment_log, reference_params, treatment_mvt):
        from tlkcpriv.analysis import _Checker

        checker = _Checker(treatment_log, reference_params)
        for cand, verdict in treatment_mvt:
            assert not verdict.ok
            for sub in proper_sub_candidates(cand):
                indices = checker.plog.match_indices(sub)
                assert indices, "sub-candidates of realized candidates are realized"
                assert checker.verdict_for_indices(indices).ok

    @pytest.mark.parametrize("bk", ["set/ac", "mult/ac", "seq/ac"])
    def test_goodness_needs_every_sub_size_ok(self, bk):
        # confidence is not monotone: {a,x}, {b,x} and {a,b} are ok although
        # {x} violates, so the violating {a,b,x} is not minimal; only the
        # transitive closure over one-smaller subs sees {x} from there
        log = build_log(
            {"1": [("a", "r", 0), ("b", "r", 1), ("x", "r", 2)],
             "2": [("a", "r", 0), ("x", "r", 2)],
             "3": [("b", "r", 1), ("x", "r", 2)],
             "4": [("x", "r", 2)],
             "5": [("a", "r", 0), ("b", "r", 1)],
             "6": [("a", "r", 0)],
             "7": [("b", "r", 1)]},
            {c: {"D": "N" if c in "167" else "F"} for c in "1234567"},
            attrs=("D",),
        )
        params = PrivacyParams(accuracy="hours", L=3, K=2, C=0.5, bk=bk, sensitive=("D",))
        spec = params.bk
        assert all(
            is_violating(Candidate(spec.bk_type, tuple(map(pe, sub))), log, params).ok
            for sub in ("ax", "bx", "ab", "a", "b")
        )
        whole = Candidate(spec.bk_type, (pe("a"), pe("b"), pe("x")))
        assert not is_violating(whole, log, params).ok
        assert enumerate_mvt(log, params).candidates == (Candidate(spec.bk_type, (pe("x"),)),)

    def test_equals_bruteforce_on_small_logs(self):
        rng = random.Random(4242)
        for _ in range(12):
            log = random_log(rng, max_cases=6, max_events=5)
            K = rng.choice([1, 2, 3])
            C = rng.choice([0.25, 0.5, 1.0])
            L = rng.choice([2, 3, 4])  # at 4 the sub closure nests twice
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    spec = BkSpec(bk_type, bk_attr)
                    params = PrivacyParams(
                        accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=("Disease",)
                    )
                    got = set(enumerate_mvt(log, params).candidates)
                    oracle = brute_mvt(
                        log,
                        bk_type,
                        bk_attr,
                        spec.perspective,
                        3600,
                        L,
                        K,
                        C,
                        ("Disease",),
                        brute_focal(log, ("Disease",)),
                    )
                    assert got == oracle

    def test_minimality_reads_only_the_walks_record(self, treatment_log, monkeypatch):
        # mining makes no full-log match scan and builds no verdict or
        # candidate; reading the items builds them for the minimal
        # violations alone, once
        import tlkcpriv.analysis as analysis
        from tlkcpriv.background import ProjectedLog

        scans = []
        match_indices = ProjectedLog.match_indices

        def counted_match(plog, cand):
            scans.append(cand)
            return match_indices(plog, cand)

        built = Counter()
        for owner, name, key in (
            (analysis, "Verdict", "verdicts"), (ProjectedLog, "decode", "candidates")
        ):
            inner = getattr(owner, name)

            def counted(*args, inner=inner, key=key):
                built[key] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, counted)
        monkeypatch.setattr(ProjectedLog, "match_indices", counted_match)
        rng = random.Random(5150)
        logs = [treatment_log] + [random_log(rng, max_cases=6, max_events=6) for _ in range(6)]
        found = 0
        for log in logs:
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    params = PrivacyParams(
                        accuracy="hours", L=rng.choice([2, 3, 4]), K=rng.choice([2, 3]), C=0.5,
                        bk=BkSpec(bk_type, bk_attr), sensitive=("Disease",),
                    )
                    built.clear()
                    mvt = enumerate_mvt(log, params)
                    assert built["verdicts"] == built["candidates"] == 0
                    assert len(mvt.items) == len(mvt.candidates) == len(mvt)
                    assert built["verdicts"] == built["candidates"] == len(mvt)
                    found += len(mvt)
        assert found > 0
        assert scans == []

    @pytest.mark.parametrize("bk", ["seq/ar", "set/ar", "mult/ac", "rel/ar"])
    def test_descriptor_hashes_do_not_grow_with_the_events(self, bk, monkeypatch):
        # the enumeration works on descriptor codes: descriptors are hashed
        # or compared only to code the alphabet and to hand out the result
        log = _synthetic_big_log(200, 4025)
        params = PrivacyParams(
            accuracy="hours", L=2, K=5, C=0.8, bk=bk, sensitive=("Disease",)
        )
        calls = Counter()
        for name in ("__hash__", "__eq__"):
            inner = getattr(ProjectedEvent, name)

            def counted(*args, inner=inner, name=name):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(ProjectedEvent, name, counted)
        mvt = enumerate_mvt(log, params)
        monkeypatch.undo()
        _, alphabet = log.coded(params.perspective, HOURS)
        bound = len(alphabet) + sum(len(c.elements) for c in mvt.candidates)
        assert len(mvt) > 0
        assert calls["__hash__"] + calls["__eq__"] <= bound, calls


class TestLazyMvtSet:
    """A mined :class:`MvtSet` decodes its items only when they are read, and
    they equal an eager decode of its code rows, each checked on its own."""

    @pytest.mark.parametrize("spec", [BkSpec(t, a) for t in BkType for a in BkAttr], ids=str)
    @settings(max_examples=25, deadline=None)
    @given(log=hypothesis_logs(), L=st.integers(1, 3), K=st.integers(2, 3),
           C=st.sampled_from([0.5, 1.0]))
    def test_items_equal_an_eager_decode(self, spec, log, L, K, C):
        params = PrivacyParams(accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=("Disease",))
        mvt = enumerate_mvt(log, params)
        assert "items" not in vars(mvt)
        _, alphabet = log.coded(spec.perspective, HOURS)
        eager = []
        for codes, *_ in mvt.levels:
            for row in codes.tolist():
                cand = Candidate(spec.bk_type, tuple(alphabet[c] for c in row))
                eager.append((cand, is_violating(cand, log, params)))
        assert len(mvt) == len(eager)
        assert mvt.items == tuple(eager)
        assert mvt.candidates == tuple(c for c, _ in eager)
        assert mvt.items is mvt.items


class TestLazyMftSet:
    """A mined :class:`MftSet` decodes its patterns only when they are read,
    and they equal an eager decode of its code rows and supports."""

    @pytest.mark.parametrize("ps", list(Perspective), ids=lambda ps: ps.value)
    @settings(max_examples=25, deadline=None)
    @given(log=hypothesis_logs(), theta=st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    def test_items_equal_an_eager_decode(self, ps, log, theta):
        mft = enumerate_mft(log, ps, theta, HOURS)
        assert "items" not in vars(mft)
        _, alphabet = log.coded(ps, HOURS)
        eager = [
            (tuple(alphabet[c] for c in row), n)
            for codes, support in mft.levels
            for row, n in zip(codes.tolist(), support.tolist())
        ]
        assert len(mft) == len(eager)
        assert "items" not in vars(mft)  # counting decodes nothing
        assert mft.items == tuple(eager) and list(mft) == eager
        assert mft.items is mft.items
        assert all(n >= mft.threshold for _, n in mft)


class TestMft:
    def test_reference_utility_row(self, treatment_mft):
        index = GreedyIndex((), (p for p, _ in treatment_mft))
        losses = [index.utility_loss(e) + 1 for e in (E_RE, E_HO, E_VI5, E_BT, E_VI8, E_RL)]
        assert losses == [4, 4, 2, 5, 6, 5]

    def test_every_item_is_frequent_and_maximal(self, treatment_log, treatment_mft):
        patterns = [p for p, _ in treatment_mft]
        assert all(s >= treatment_mft.threshold for _, s in treatment_mft)

        def contained(small, big):
            it = iter(big)
            return all(x in it for x in small)

        for p in patterns:
            assert not any(p != q and contained(p, q) for q in patterns)

    def test_subtraces_of_maximal_patterns_stay_frequent(self, treatment_log, treatment_mft):
        import itertools

        from tlkcpriv import variants

        multiset, _ = variants(treatment_log, Perspective.ART, HOURS)

        def support(pattern):
            def contained(small, big):
                it = iter(big)
                return all(x in it for x in small)

            return sum(n for v, n in multiset.items() if contained(pattern, v))

        for pattern, _ in treatment_mft:
            for size in range(1, len(pattern)):
                for positions in itertools.combinations(range(len(pattern)), size):
                    sub = tuple(pattern[i] for i in positions)
                    assert support(sub) >= treatment_mft.threshold

    def test_theta_zero_yields_maximal_variants(self, treatment_log):
        got = enumerate_mft(treatment_log, Perspective.ART, 0.0, HOURS)
        from tlkcpriv import variants

        _, unique = variants(treatment_log, Perspective.ART, HOURS)

        def contained(small, big):
            it = iter(big)
            return all(x in it for x in small)

        maximal_variants = {
            v for v in unique if not any(v != w and contained(v, w) for w in unique)
        }
        assert {p for p, _ in got} == maximal_variants

    def test_theta_above_one_is_empty(self, treatment_log):
        for theta in (1.1, float("inf")):
            mft = enumerate_mft(treatment_log, Perspective.ART, theta, HOURS)
            assert len(mft) == 0 and mft.items == () and mft.levels == () and list(mft) == []
            assert mft.threshold == len(treatment_log) + 1

    def test_nan_theta_is_a_log_error(self, treatment_log):
        with pytest.raises(LogError, match="theta must be a number, not NaN"):
            enumerate_mft(treatment_log, Perspective.ART, float("nan"), HOURS)

    @pytest.mark.parametrize("theta", [-0.5, float("-inf")])
    def test_theta_below_zero_acts_as_zero(self, treatment_log, theta):
        got = enumerate_mft(treatment_log, Perspective.ART, theta, HOURS)
        want = enumerate_mft(treatment_log, Perspective.ART, 0.0, HOURS)
        assert got.threshold == want.threshold == 1 and got.items == want.items


class TestCodedPathsAgainstOracles:
    def test_mft_and_coverage_on_random_logs(self):
        rng = random.Random(1717)
        above_every_code = 0
        for _ in range(12):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    ps = BkSpec(bk_type, bk_attr).perspective
                    theta = rng.choice([0.0, 0.1, 0.2, 0.3, 0.5, 1.0])
                    got = enumerate_mft(log, ps, theta, HOURS)
                    assert dict(got) == brute_mft(log, ps, 3600, theta)
                    patterns = [p for p, _ in got]
                    assert patterns == sorted(
                        patterns, key=lambda p: (len(p), [e.sort_key() for e in p])
                    )
                    assert coverage(log, ps, HOURS) == brute_coverage(log, ps, 3600)
                    traces, alphabet = log.coded(ps, HOURS)
                    busiest = int(np.bincount(traces.codes).max(initial=0))
                    if 0 < busiest < len(log):
                        # a threshold above every code's event count: nothing is
                        # frequent, and the levels are the walk's one empty level
                        above_every_code += 1
                        theta = (busiest + 1) / len(log)
                        got = enumerate_mft(log, ps, theta, HOURS)
                        assert got.threshold > busiest
                        assert len(got) == 0 and brute_mft(log, ps, 3600, theta) == {}
                        level = next(_enumerate(traces, len(alphabet), BkType.SEQ, 1))
                        want = level.support >= got.threshold
                        (codes, support), = got.levels
                        assert codes.dtype == level.codes.dtype and support.dtype == level.support.dtype
                        assert np.array_equal(codes, level.codes[want])
                        assert np.array_equal(support, level.support[want])
        assert above_every_code


class TestScores:
    """The paper's two greedy scores on the reference log's mined sets, as
    :class:`oracles.GreedyIndex` counts them."""

    @staticmethod
    def _index(mvt, mft=()):
        return GreedyIndex((c.elements for c in mvt.candidates), (p for p, _ in mft))

    def test_reference_scores(self, treatment_mvt, treatment_mft):
        expected = {
            E_RE: 0.75,
            E_HO: 0.25,
            E_VI5: 1.50,
            E_BT: 0.20,
            E_VI8: 1 / 6,
            E_RL: 0.20,
        }
        index = self._index(treatment_mvt, treatment_mft)
        for e, want in expected.items():
            assert index.score(e) == pytest.approx(want, abs=1e-9)

    def test_lone_mvt_no_mft(self, treatment_log):
        mvt = enumerate_mvt(
            treatment_log,
            PrivacyParams(
                accuracy="hours", L=2, K=2, C=0.5, bk="rel/ar", sensitive=("Disease",)
            ),
        )
        empty_mft = enumerate_mft(treatment_log, Perspective.ART, 1.1, HOURS)
        e = E_HO  # occurs in exactly one minimal violation
        assert self._index(mvt, empty_mft).score(e) == 1.0

    def test_n_score_of_visit_event(self, treatment_log, treatment_mvt):
        cov = coverage(treatment_log, Perspective.ART, HOURS)
        got = self._index(treatment_mvt).n_score(E_VI5, cov, 0.5, 0.5)
        # relative gain 3/5, unaffected-variant mass 6/8
        assert got == pytest.approx(0.5 * (3 / 5) + 0.5 * 0.75)

    def test_n_score_bounds(self, treatment_log, treatment_mvt):
        cov = coverage(treatment_log, Perspective.ART, HOURS)
        index = self._index(treatment_mvt)
        for e in (E_RE, E_HO, E_VI5, E_BT, E_VI8, E_RL):
            value = index.n_score(e, cov, 0.5, 0.5)
            assert 0.0 <= value <= 1.0

    def test_n_score_alpha_zero_full_coverage(self):
        log = build_log(
            {c: [("a", "r", 0)] for c in "12"},
            {c: {"D": v} for c, v in zip("12", "xy")},
            attrs=("D",),
        )
        params = PrivacyParams(
            accuracy="hours", L=1, K=3, C=1.0, bk="set/ac", sensitive=("D",)
        )
        mvt = enumerate_mvt(log, params)
        assert len(mvt) == 1  # the single activity matches both cases, 2 < K
        cov = coverage(log, Perspective.A)
        assert self._index(mvt).n_score(pe("a"), cov, 0.0, 1.0) == 0.0


class TestAudit:
    def test_treatment_log_fails(self, treatment_log, reference_params):
        report = audit_tlkc(treatment_log, reference_params)
        assert not report.satisfied
        assert len(report.violations) == 5

    def test_vacuous_params_pass_any_log(self, treatment_log, hospital_log):
        for log in (treatment_log, hospital_log):
            params = PrivacyParams(
                accuracy="hours",
                L=2,
                K=1,
                C=1.0,
                bk="rel/ar",
                sensitive=log.sensitive_attrs,
            )
            assert audit_tlkc(log, params).satisfied

    def test_empty_mvt_iff_satisfied(self):
        rng = random.Random(31)
        for _ in range(15):
            log = random_log(rng)
            params = PrivacyParams(
                accuracy="hours",
                L=2,
                K=rng.choice([1, 2]),
                C=rng.choice([0.5, 1.0]),
                bk=BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr))),
                sensitive=("Disease",),
            )
            report = audit_tlkc(log, params)
            assert report.satisfied == (len(enumerate_mvt(log, params)) == 0)

    def test_k_monotone_when_confidence_vacuous(self):
        rng = random.Random(77)
        for _ in range(15):
            log = random_log(rng)
            spec = BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr)))
            K = rng.choice([2, 3])
            full = PrivacyParams(
                accuracy="hours", L=3, K=K, C=1.0, bk=spec, sensitive=("Disease",)
            )
            if audit_tlkc(log, full).satisfied:
                for smaller in (1, 2):
                    partial = PrivacyParams(
                        accuracy="hours", L=smaller, K=K, C=1.0, bk=spec,
                        sensitive=("Disease",),
                    )
                    assert audit_tlkc(log, partial).satisfied

    def test_report_lines_and_records(self, treatment_log, reference_params):
        report = audit_tlkc(treatment_log, reference_params)
        text = "\n".join(report.lines())
        assert "NOT satisfied" in text
        records = report.records()
        assert all(
            set(r) == {"candidate", "verdict", "match_size", "max_confidence"}
            for r in records
        )
