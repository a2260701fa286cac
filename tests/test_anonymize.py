import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlkcpriv import (
    Baseline1,
    Baseline2,
    BkAttr,
    BkSpec,
    BkType,
    EventLog,
    LogError,
    ParameterError,
    Perspective,
    PrivacyParams,
    ProjectedEvent,
    SuppressionSet,
    TimestampAccuracy,
    TlkcAnonymizer,
    TlkcExtAnonymizer,
    audit_tlkc,
    coverage,
    enumerate_mft,
    enumerate_mvt,
    suppress_global,
    truncate_to_accuracy,
    variants,
)
from tlkcpriv.anonymize import _earliest_embedding

from .conftest import (
    TREATMENT_2ANON,
    TREATMENT_4ANON,
    TREATMENT_GREEDY,
    build_log,
    hours_view,
)
from .oracles import (
    GreedyIndex,
    baseline2,
    brute_suppress,
    contains,
    descriptor_greedy,
    hypothesis_logs,
    project_raw,
    random_log,
    reordered_logs,
)
from .test_acceptance import _synthetic_big_log

HOURS = TimestampAccuracy.HOURS
SPECS = [BkSpec(t, a) for t in BkType for a in BkAttr]


def pe(a=None, r=None, t=None):
    return ProjectedEvent(a, r, t)


REFERENCE = dict(
    accuracy="hours", L=2, K=2, C=0.5, theta=0.25, bk="rel/ar", sensitive=("Disease",)
)


def reference_privacy_params():
    return PrivacyParams(
        accuracy="hours", L=2, K=2, C=0.5, bk="rel/ar", sensitive=("Disease",)
    )


class TestSuppressGlobal:
    def test_reference_suppression(self, treatment_log):
        got, dropped = suppress_global(
            treatment_log,
            [pe("VI", "D1", 5), pe("RE", "E4", 1)],
            Perspective.ART,
            HOURS,
        )
        assert hours_view(got) == TREATMENT_GREEDY
        assert dropped == ()
        assert treatment_log.total_events - got.total_events == 6

    def test_empty_set_is_identity(self, treatment_log):
        got, dropped = suppress_global(treatment_log, [], Perspective.ART, HOURS)
        assert got == treatment_log and dropped == ()

    def test_full_suppression_drops_the_case(self):
        log = build_log({"1": [("a", "r", 0), ("b", "r", 1)]})
        got, dropped = suppress_global(
            log, [pe("a", "r", 0), pe("b", "r", 1)], Perspective.ART, HOURS
        )
        assert len(got) == 0 and dropped == ("1",)

    def test_duplicate_descriptor_rejected(self):
        with pytest.raises(LogError):
            SuppressionSet((pe("a"), pe("a")))


    def test_matches_oracle_on_random_logs(self):
        rng = random.Random(5150)
        for _ in range(12):
            log = random_log(rng, max_cases=6, max_events=5)
            for bk_type in BkType:
                for bk_attr in BkAttr:
                    ps = BkSpec(bk_type, bk_attr).perspective
                    present = list(log.coded(ps, HOURS)[1])
                    chosen = rng.sample(present, rng.randint(0, len(present)))
                    chosen.append(ProjectedEvent("zz", "zz", 999))  # in no trace
                    out, dropped = suppress_global(log, chosen, ps, HOURS)
                    kept, want_dropped = brute_suppress(log, set(chosen), ps, 3600)
                    assert (out.instances, dropped) == (kept, want_dropped)


class TestGreedy:
    def test_reference_full_trajectory(self, treatment_log):
        anonymizer = TlkcAnonymizer(**REFERENCE)
        result = anonymizer.anonymize(treatment_log)
        assert [str(r.winner) for r in result.iterations] == ["VI/D1@5", "RE/E4@1"]
        assert result.iterations[0].score == pytest.approx(1.5)
        assert result.iterations[1].score == pytest.approx(0.5)
        assert result.events_removed == 6
        assert result.dropped_cases == ()
        assert hours_view(result.log) == TREATMENT_GREEDY
        assert audit_tlkc(result.log, reference_privacy_params()).satisfied

    def test_satisfied_log_is_untouched(self, treatment_log):
        anonymizer = TlkcAnonymizer(**REFERENCE)
        clean = anonymizer.anonymize(treatment_log).log
        again = TlkcAnonymizer(**REFERENCE).anonymize(clean)
        assert again.log == clean
        assert len(again.suppression) == 0

    def test_output_projection_is_subsequence_of_input(self, treatment_log):
        result = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log)
        unit = HOURS.unit_seconds
        originals = {i.case_id: project_raw(i, Perspective.ART, unit) for i in treatment_log}
        for inst in result.log:
            kept = project_raw(inst, Perspective.ART, unit)
            it = iter(originals[inst.case_id])
            assert all(e in it for e in kept)

    def test_deterministic(self, treatment_log):
        a = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log)
        b = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log)
        assert a.log == b.log and a.suppression == b.suppression

    def test_impossible_requirements_raise(self):
        log = build_log(
            {"1": [("a", "r", 0)], "2": [("b", "r", 0)]},
            {"1": {"D": "x"}, "2": {"D": "y"}},
            attrs=("D",),
        )
        anonymizer = TlkcAnonymizer(
            accuracy="hours", L=1, K=2, C=1.0, theta=0.5, bk="seq/ac", sensitive=("D",)
        )
        with pytest.raises(ParameterError):
            anonymizer.anonymize(log)

    def test_outputs_pass_audit_on_random_logs(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(25):
            log = random_log(rng)
            spec = BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr)))
            params = dict(
                accuracy="hours",
                L=rng.choice([1, 2, 3]),
                K=rng.choice([2, 3]),
                C=rng.choice([0.5, 1.0]),
                theta=rng.choice([0.25, 0.5]),
                bk=spec,
                sensitive=("Disease",),
            )
            try:
                result = TlkcAnonymizer(**params).anonymize(log)
            except ParameterError:
                continue
            audit_params = PrivacyParams(
                accuracy="hours", L=params["L"], K=params["K"], C=params["C"],
                bk=spec, sensitive=("Disease",),
            )
            assert audit_tlkc(result.log, audit_params).satisfied
            checked += 1
        assert checked > 5


class TestGreedyNormalized:
    def test_satisfied_log_is_untouched(self, treatment_log):
        clean = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log).log
        params = {k: v for k, v in REFERENCE.items() if k != "theta"}
        result = TlkcExtAnonymizer(alpha=0.5, beta=0.5, **params).anonymize(clean)
        assert result.log == clean

    def test_pure_privacy_weight_picks_max_gain(self, treatment_log):
        params = {k: v for k, v in REFERENCE.items() if k != "theta"}
        result = TlkcExtAnonymizer(alpha=1.0, beta=0.0, **params).anonymize(treatment_log)
        # gains tie at 3 for RE/E4@1 and VI/D1@5; canonical order decides
        assert str(result.iterations[0].winner) == "RE/E4@1"

    def test_outputs_pass_audit_on_random_logs(self):
        rng = random.Random(515)
        checked = 0
        for _ in range(25):
            log = random_log(rng)
            spec = BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr)))
            alpha = rng.choice([0.0, 0.3, 0.5, 1.0])
            params = dict(
                accuracy="hours",
                L=rng.choice([1, 2, 3]),
                K=rng.choice([2, 3]),
                C=rng.choice([0.5, 1.0]),
                alpha=alpha,
                beta=1 - alpha,
                bk=spec,
                sensitive=("Disease",),
            )
            try:
                result = TlkcExtAnonymizer(**params).anonymize(log)
            except ParameterError:
                continue
            audit_params = PrivacyParams(
                accuracy="hours", L=params["L"], K=params["K"], C=params["C"],
                bk=spec, sensitive=("Disease",),
            )
            assert audit_tlkc(result.log, audit_params).satisfied
            checked += 1
        assert checked > 5

    def test_deterministic(self, treatment_log):
        params = {k: v for k, v in REFERENCE.items() if k != "theta"}
        a = TlkcExtAnonymizer(alpha=0.5, beta=0.5, **params).anonymize(treatment_log)
        b = TlkcExtAnonymizer(alpha=0.5, beta=0.5, **params).anonymize(treatment_log)
        assert a.log == b.log and a.suppression == b.suppression


class TestBaseline1:
    def test_unique_variants_all_removed(self, treatment_log):
        result = Baseline1(k=2, ps="ART", accuracy="hours").anonymize(treatment_log)
        assert len(result.log) == 0
        assert len(result.dropped_cases) == 8

    def test_k1_is_identity(self, treatment_log):
        result = Baseline1(k=1, ps="ART", accuracy="hours").anonymize(treatment_log)
        assert result.log == treatment_log

    def test_hospital_activity_perspective(self, hospital_log):
        result = Baseline1(k=2, ps="A").anonymize(hospital_log)
        assert {i.case_id for i in result.log} == {"1", "6"}

    def test_variant_counts_respected_on_random_logs(self):
        rng = random.Random(88)
        for _ in range(20):
            log = random_log(rng)
            k = rng.choice([1, 2, 3])
            result = Baseline1(k=k, ps="A").anonymize(log)
            multiset, _ = variants(result.log, Perspective.A) if result.log.instances else ({}, set())
            assert all(n >= k for n in multiset.values())


class TestBaseline2:
    def test_treatment_log_k2(self, treatment_log):
        result = Baseline2(k=2, ps="ART", accuracy="hours").anonymize(treatment_log)
        assert hours_view(result.log) == TREATMENT_2ANON
        assert result.events_removed == 12
        assert result.dropped_cases == ()

    def test_treatment_log_k4(self, treatment_log):
        result = Baseline2(k=4, ps="ART", accuracy="hours").anonymize(treatment_log)
        assert hours_view(result.log) == TREATMENT_4ANON
        assert result.events_removed == 18

    def test_k1_is_identity(self, treatment_log):
        result = Baseline2(k=1, ps="ART", accuracy="hours").anonymize(treatment_log)
        assert result.log == treatment_log
        assert result.events_removed == 0

    def test_variant_counts_and_subsequences_on_random_logs(self):
        rng = random.Random(3131)
        for _ in range(25):
            log = random_log(rng)
            k = rng.choice([2, 3, 4])
            result = Baseline2(k=k, ps="A").anonymize(log)
            if result.log.instances:
                multiset, _ = variants(result.log, Perspective.A)
                assert all(n >= k for n in multiset.values())
            originals = {i.case_id: project_raw(i, Perspective.A, 1) for i in log}
            for inst in result.log:
                kept = project_raw(inst, Perspective.A, 1)
                it = iter(originals[inst.case_id])
                assert all(e in it for e in kept)

    @given(
        small=st.lists(st.sampled_from("abc"), max_size=4).map(tuple),
        big=st.lists(st.sampled_from("abc"), max_size=7).map(tuple),
    )
    def test_earliest_embedding_is_the_first_match(self, small, big):
        # position tuples come in lexicographic order, so the first that spells
        # ``small`` is the earliest match
        first = next(
            (at for at in itertools.combinations(range(len(big)), len(small))
             if all(big[i] == x for i, x in zip(at, small))),
            None,
        )
        assert _earliest_embedding(small, big) == first
        assert (first is None) == (not contains(BkType.SEQ, small, big))

    @pytest.mark.parametrize("ps", list(Perspective), ids=lambda p: p.value)
    @settings(max_examples=150, deadline=None)
    @given(log=hypothesis_logs() | reordered_logs(), k=st.integers(1, 5),
           accuracy=st.sampled_from(["seconds", "hours"]))
    def test_equals_the_pair_list_reference(self, ps, log, k, accuracy):
        # the drawn logs give every event a resource, so every perspective applies
        got = Baseline2(k=k, ps=ps.value, accuracy=accuracy).anonymize(log)
        assert (got.log, got.dropped_cases, got.events_removed) == baseline2(log, k, ps, accuracy)

    def test_deterministic(self, treatment_log):
        a = Baseline2(k=4, ps="ART", accuracy="hours").anonymize(treatment_log)
        b = Baseline2(k=4, ps="ART", accuracy="hours").anonymize(treatment_log)
        assert a.log == b.log


class TestTieBreakSeed:
    def test_seeded_runs_stay_sound_and_deterministic(self, treatment_log):
        reference_privacy = reference_privacy_params()
        for seed in (0, 1, 7):
            a = TlkcAnonymizer(tie_break=seed, **REFERENCE).anonymize(treatment_log)
            b = TlkcAnonymizer(tie_break=seed, **REFERENCE).anonymize(treatment_log)
            assert a.log == b.log and a.suppression == b.suppression
            assert audit_tlkc(a.log, reference_privacy).satisfied

    def test_default_is_the_canonical_rule(self, treatment_log):
        plain = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log)
        explicit = TlkcAnonymizer(tie_break=None, **REFERENCE).anonymize(treatment_log)
        assert plain.log == explicit.log


class TestEstimatorProtocol:
    def test_get_set_params_round_trip(self):
        anonymizer = TlkcAnonymizer(**REFERENCE)
        params = anonymizer.get_params()
        assert params["K"] == 2 and params["bk"] == "rel/ar"
        anonymizer.set_params(K=5)
        assert anonymizer.K == 5
        with pytest.raises(LogError):
            anonymizer.set_params(nonsense=1)

    def test_transform_stores_fitted_attributes(self, treatment_log):
        anonymizer = TlkcAnonymizer(**REFERENCE)
        out = anonymizer.fit_transform(treatment_log)
        assert isinstance(out, EventLog)
        assert [str(d) for d in anonymizer.suppression_] == ["VI/D1@5", "RE/E4@1"]
        assert anonymizer.events_removed_ == 6

    def test_repr_mentions_params(self):
        text = repr(Baseline2(k=3, ps="A"))
        assert "Baseline2" in text and "k=3" in text

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TlkcAnonymizer(bk="nonsense"),
            lambda: TlkcAnonymizer(K=0),
            lambda: TlkcAnonymizer(theta=None),
            lambda: TlkcExtAnonymizer(alpha=0.7),
            lambda: Baseline1(k=0),
            lambda: Baseline2(ps="XYZ"),
            lambda: TlkcAnonymizer(K=float("nan"), theta=0.2),
            lambda: TlkcAnonymizer(L=2.5),
            lambda: TlkcAnonymizer(theta="0.2"),
            lambda: TlkcExtAnonymizer(alpha="0.5", beta=0.5),
            lambda: Baseline1(k=2.5),
            lambda: Baseline2(k=float("nan")),
            lambda: Baseline2(k="2"),
        ],
        ids=["tlkc-bk", "tlkc-K", "tlkc-theta", "ext-alpha", "baseline1-k", "baseline2-ps",
             "tlkc-K-nan", "tlkc-L-float", "tlkc-theta-str", "ext-alpha-str",
             "baseline1-k-float", "baseline2-k-nan", "baseline2-k-str"],
    )
    def test_bad_parameters_fail_when_made(self, make):
        with pytest.raises(LogError):
            make()

    def test_failing_set_params_changes_nothing(self):
        anonymizer = TlkcAnonymizer(**REFERENCE)
        before = anonymizer.get_params()
        with pytest.raises(LogError, match="L must be a positive integer"):
            anonymizer.set_params(K=5, L=-3)
        assert anonymizer.get_params() == before

    def test_positional_construction_and_repr(self):
        anonymizer = TlkcAnonymizer("hours", 2, 5, 0.8, 0.2)
        assert anonymizer.K == 5 and anonymizer.theta == 0.2
        assert repr(Baseline1(3, "A")) == "Baseline1(k=3, ps='A', accuracy='hours')"


class TestGreedyCoreAgainstScores:
    """Each first-round iteration score equals the paper's formula,
    :class:`oracles.GreedyIndex`'s ``score`` / ``n_score``, recounted from
    scratch on the minimal violations and frequent subtraces that survive
    the earlier winners, which checks the greedy core's incremental counts
    against plain per-descriptor counts."""

    @pytest.mark.parametrize("algorithm", ["tlkc", "tlkc-ext"])
    def test_first_round_scores_recomputed(self, algorithm):
        rng = random.Random(6007)
        checked = 0
        for _ in range(20):
            log = random_log(rng, max_cases=16)
            spec = BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr)))
            common = dict(
                accuracy="hours", L=rng.choice([1, 2]), K=rng.choice([2, 3]),
                C=rng.choice([0.5, 1.0]), bk=spec, sensitive=("Disease",),
            )
            mvt_left = list(enumerate_mvt(log, PrivacyParams(**common)))
            if algorithm == "tlkc":
                theta = rng.choice([0.25, 0.5])
                anonymizer = TlkcAnonymizer(theta=theta, **common)
                mft_left = list(enumerate_mft(log, spec.perspective, theta, HOURS))
            else:
                alpha = rng.choice([0.0, 0.3, 0.5, 1.0])
                anonymizer = TlkcExtAnonymizer(alpha=alpha, beta=1 - alpha, **common)
                cov = coverage(log, spec.perspective, HOURS)
                mft_left = []
            try:
                result = anonymizer.anonymize(log)
            except ParameterError:
                continue
            if not mvt_left:
                continue

            def rank(e, index):
                if algorithm == "tlkc":
                    return index.score(e)
                return index.n_score(e, cov, alpha, 1 - alpha)

            for rec in result.iterations:
                index = GreedyIndex((c.elements for c, _ in mvt_left), (p for p, _ in mft_left))
                assert rec.score == rank(rec.winner, index)
                assert rec.score == max(rank(e, index) for e in index.events())
                mvt_left = [(c, v) for c, v in mvt_left if rec.winner not in c.elements]
                mft_left = [(p, n) for p, n in mft_left if rec.winner not in p]
                assert rec.remaining_mvts == len(mvt_left)
                if not mvt_left:
                    break  # the first round ends here
            checked += 1
        assert checked >= 10


class TestOneProjectionPerRound:
    """Each greedy round projects its input once: MVT mining, MFT mining or
    coverage and global suppression share it; an audit projects once."""

    COMMON = dict(accuracy="hours", L=2, K=5, C=0.8, bk="seq/ar", sensitive=("Disease",))

    @staticmethod
    def _log():
        # built afresh, so no earlier projection is cached on it
        return truncate_to_accuracy(_synthetic_big_log(200, 4025), HOURS)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The perspectives of the projections ``EventLog`` builds."""
        import tlkcpriv.log

        calls = []
        original = tlkcpriv.log._encode

        def counting(log, ps, accuracy):
            calls.append(ps)
            return original(log, ps, accuracy)

        monkeypatch.setattr(tlkcpriv.log, "_encode", counting)
        return calls

    @pytest.mark.parametrize(
        "anonymizer",
        [TlkcAnonymizer(theta=0.2, **COMMON), TlkcExtAnonymizer(**COMMON)],
        ids=["tlkc", "tlkc-ext"],
    )
    def test_greedy_rounds(self, anonymizer, builds, monkeypatch):
        import tlkcpriv.anonymize

        round_sizes = []
        mine = tlkcpriv.anonymize.enumerate_mvt

        def recording(log, params):
            round_sizes.append(len(log))
            return mine(log, params)

        monkeypatch.setattr(tlkcpriv.anonymize, "enumerate_mvt", recording)
        result = anonymizer.anonymize(self._log())
        assert len(round_sizes) >= 2 and result.dropped_cases
        assert builds == [Perspective.AR] * len(round_sizes)

    def test_audit(self, builds):
        audit_tlkc(self._log(), PrivacyParams(**self.COMMON))
        assert builds == [Perspective.AR]


class TestGreedyAgainstDescriptorOracle:
    """Both TLKC anonymizers pick, score and suppress as the descriptor-level
    greedy rounds of ``oracles.descriptor_greedy`` do."""

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(
        log=hypothesis_logs(),
        L=st.integers(1, 3),
        K=st.integers(2, 3),
        C=st.sampled_from([0.5, 1.0]),
        tie_break=st.none() | st.integers(0, 99),
        theta=st.none() | st.sampled_from([0.0, 0.1, 0.25]),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    def test_greedy_equals_the_oracle(self, spec, log, L, K, C, tie_break, theta, alpha):
        common = dict(accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=("Disease",),
                      tie_break=tie_break)
        if theta is None:
            anonymizer = TlkcExtAnonymizer(alpha=alpha, beta=1 - alpha, **common)
        else:
            anonymizer = TlkcAnonymizer(theta=theta, **common)
        want = descriptor_greedy(log, anonymizer)
        try:
            got = anonymizer.anonymize(log)
        except ParameterError as exc:
            assert isinstance(want, str) and str(exc).startswith(want)
            return
        iterations, dropped, out = want
        assert [(r.winner, r.score, r.remaining_mvts) for r in got.iterations] == iterations
        assert all(type(r.score) is float for r in got.iterations)
        assert got.dropped_cases == dropped
        assert got.log == out

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    @settings(max_examples=30, deadline=None)
    @given(log=hypothesis_logs(), data=st.data())
    def test_suppression_equals_the_oracle(self, spec, log, data):
        ps = spec.perspective
        _, alphabet = log.coded(ps, HOURS)
        chosen = data.draw(st.sets(st.sampled_from(alphabet)))
        out, dropped = suppress_global(log, chosen, ps, HOURS)
        kept, want_dropped = brute_suppress(log, chosen, ps, HOURS.unit_seconds)
        assert (out.instances, dropped) == (kept, want_dropped)
