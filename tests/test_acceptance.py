"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line (visible with ``pytest -s tests/test_acceptance.py``).

Expected values were derived independently: golden tables are transcribed
fixtures, counts come from brute-force oracles in ``tests/oracles.py``.
"""

import functools
import random
import time

import pytest

from tlkcpriv import (
    Baseline1,
    Baseline2,
    BkAttr,
    BkSpec,
    BkType,
    Event,
    EventLog,
    Perspective,
    PrivacyParams,
    ProcessInstance,
    ProjectedEvent,
    TimestampAccuracy,
    TlkcAnonymizer,
    TlkcExtAnonymizer,
    audit_tlkc,
    dfg_compare,
    emd_data_utility,
    enumerate_mft,
    enumerate_mvt,
    handover_compare,
    match,
    parse_candidate,
    relativize_log,
    suppress_global,
    truncate_to_accuracy,
    variants,
)

from .conftest import (
    TREATMENT_2ANON,
    TREATMENT_4ANON,
    TREATMENT_GREEDY,
    hours_view,
)
from .oracles import (
    brute_focal,
    brute_mvt,
    brute_transport_cost,
    random_log,
    scalar_levenshtein,
)

HOURS = TimestampAccuracy.HOURS

REFERENCE = dict(
    accuracy="hours", L=2, K=2, C=0.5, theta=0.25, bk="rel/ar", sensitive=("Disease",)
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        return wrapper

    return decorate


def pe(a=None, r=None, t=None):
    return ProjectedEvent(a, r, t)


@criterion(1, "greedy reference run: scores, winners, final log, <1s")
def test_criterion_1_reference_run(treatment_log):
    started = time.perf_counter()
    mvt = enumerate_mvt(
        treatment_log,
        PrivacyParams(
            accuracy="hours", L=2, K=2, C=0.5, bk="rel/ar", sensitive=("Disease",)
        ),
    )
    mft = enumerate_mft(treatment_log, Perspective.ART, 0.25, HOURS)
    events = [
        pe("RE", "E4", 1),
        pe("HO", "E3", 4),
        pe("VI", "D1", 5),
        pe("BT", "N1", 7),
        pe("VI", "D1", 8),
        pe("RL", "E2", 9),
    ]

    def scores(mvt_items, mft_items):
        out = {}
        for e in events:
            pg = sum(1 for c in mvt_items if e in c.elements)
            if pg == 0:
                continue
            ul = sum(1 for p in mft_items if e in p)
            out[e] = pg / (ul + 1)
        return out

    initial = scores(list(mvt.candidates), [p for p, _ in mft])
    stated = [0.75, 0.25, 1.50, 0.20, 0.17, 0.20]
    for e, want in zip(events, stated):
        assert abs(initial[e] - want) <= 0.01, (e, initial[e], want)

    result = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log)
    winners = [r.winner for r in result.iterations]
    assert winners[0] == pe("VI", "D1", 5)

    surviving_mvt = [c for c in mvt.candidates if winners[0] not in c.elements]
    surviving_mft = [p for p, _ in mft if winners[0] not in p]
    updated = scores(surviving_mvt, surviving_mft)
    for e, want in zip(
        (pe("RE", "E4", 1), pe("HO", "E3", 4), pe("BT", "N1", 7)), [0.5, 0.33, 0.25]
    ):
        assert abs(updated[e] - want) <= 0.01, (e, updated[e], want)

    assert winners[1] == pe("RE", "E4", 1)
    assert len(winners) == 2
    assert hours_view(result.log) == TREATMENT_GREEDY
    assert result.events_removed == 6
    assert time.perf_counter() - started < 1.0


@criterion(2, "baselines: 12 events at k=2, 18 at k=4, k=2 naive removal empties, <1s")
def test_criterion_2_baselines(treatment_log):
    started = time.perf_counter()
    two = Baseline2(k=2, ps="ART", accuracy="hours").anonymize(treatment_log)
    assert two.events_removed == 12
    assert hours_view(two.log) == TREATMENT_2ANON
    four = Baseline2(k=4, ps="ART", accuracy="hours").anonymize(treatment_log)
    assert four.events_removed == 18
    assert hours_view(four.log) == TREATMENT_4ANON
    naive = Baseline1(k=2, ps="ART", accuracy="hours").anonymize(treatment_log)
    assert len(naive.log) == 0
    assert time.perf_counter() - started < 1.0


@criterion(3, "all twelve linkage attacks resolve to the documented cases")
def test_criterion_3_attacks(hospital_log):
    untimed = [
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
    for bk, literal, expected in untimed:
        spec = BkSpec.parse(bk)
        got = {i.case_id for i in match(hospital_log, spec, parse_candidate(literal, spec))}
        assert got == expected, (bk, literal, got, expected)

    relative = truncate_to_accuracy(relativize_log(hospital_log, 0), HOURS)
    timed = [
        ("rel/ac", "<HO@0,VI@24>", {"2"}),
        ("rel/re", "<E1@0,E3@1>", {"3"}),
        ("rel/ar", "<VI/D3@1,RL/E6@5>", {"6"}),
    ]
    for bk, literal, expected in timed:
        spec = BkSpec.parse(bk)
        got = {
            i.case_id
            for i in match(relative, spec, parse_candidate(literal, spec), HOURS)
        }
        assert got == expected, (bk, literal, got, expected)


def _corpus(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        log = random_log(rng, max_cases=8, max_events=6)
        K = rng.randint(1, 4)
        C = rng.choice([0.25, 0.5, 1.0])
        L = rng.randint(1, 4)
        out.append((log, K, C, L))
    return out


@criterion(4, "minimal-violation enumeration equals brute force, 200 logs x 12 specs, <60s")
def test_criterion_4_mvt_oracle():
    started = time.perf_counter()
    for log, K, C, L in _corpus(20260809, 200):
        focal = brute_focal(log, ("Disease",))
        for bk_type in BkType:
            for bk_attr in BkAttr:
                spec = BkSpec(bk_type, bk_attr)
                params = PrivacyParams(
                    accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=("Disease",)
                )
                got = set(enumerate_mvt(log, params).candidates)
                oracle = brute_mvt(
                    log, bk_type, bk_attr, spec.perspective, 3600,
                    L, K, C, ("Disease",), focal,
                )
                assert got == oracle, (K, C, L, spec, got ^ oracle)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(5, "anonymizer outputs satisfy the audit; baseline outputs are k-anonymous")
def test_criterion_5_soundness():
    from tlkcpriv import ParameterError

    checked = 0
    for log, K, C, L in _corpus(5150, 200):
        rng = random.Random(hash((K, C, L)) & 0xFFFF)
        spec = BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr)))
        params = PrivacyParams(
            accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=("Disease",)
        )
        common = dict(
            accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=("Disease",)
        )
        for anonymizer in (
            TlkcAnonymizer(theta=rng.choice([0.25, 0.5]), **common),
            TlkcExtAnonymizer(alpha=0.5, beta=0.5, **common),
        ):
            try:
                result = anonymizer.anonymize(log)
            except ParameterError:
                continue
            assert audit_tlkc(result.log, params).satisfied
            checked += 1
        ps = spec.perspective
        for baseline in (Baseline1(k=K, ps=ps), Baseline2(k=K, ps=ps)):
            out = baseline.anonymize(log).log
            if out.instances:
                multiset, _ = variants(out, ps, HOURS)
                assert all(n >= K for n in multiset.values())
            checked += 1
    assert checked >= 400


@criterion(6, "with the confidence bound vacuous, passing at L implies passing below L")
def test_criterion_6_k_monotonicity():
    passed_at_top = 0
    for log, K, _, L in _corpus(606, 200):
        rng = random.Random(L * 31 + K)
        spec = BkSpec(rng.choice(list(BkType)), rng.choice(list(BkAttr)))
        top = PrivacyParams(
            accuracy="hours", L=L, K=K, C=1.0, bk=spec, sensitive=("Disease",)
        )
        if not audit_tlkc(log, top).satisfied:
            continue
        passed_at_top += 1
        for smaller in range(1, L):
            below = PrivacyParams(
                accuracy="hours", L=smaller, K=K, C=1.0, bk=spec, sensitive=("Disease",)
            )
            assert audit_tlkc(log, below).satisfied
    assert passed_at_top >= 20  # the property was exercised, not vacuous


@criterion(7, "metric checks: exact self-utility, transport vs grid search, graph scores")
def test_criterion_7_metrics(hospital_log, treatment_log):
    # du(EL, EL) = 1 exactly
    assert emd_data_utility(hospital_log, hospital_log, Perspective.A).du == 1.0
    assert emd_data_utility(treatment_log, treatment_log, Perspective.ART, HOURS).du == 1.0

    # two-variant hand instances against an exhaustive transport grid
    hand_instances = [
        # (weights a, weights b, traces a, traces b)
        ([0.75, 0.25], [0.5, 0.5], ["ab", "a"], ["ab", "b"]),
        ([0.5, 0.5], [1.0], ["abc", "c"], ["ab"]),
        ([0.25, 0.75], [0.75, 0.25], ["ab", "ba"], ["ab", "ba"]),
    ]
    for wa, wb, ta, tb in hand_instances:
        cost = [[scalar_levenshtein(x, y) for y in tb] for x in ta]
        oracle = brute_transport_cost(wa, wb, cost, steps=4)
        got = _transport_cost(wa, wb, ta, tb)
        assert abs(got - oracle) <= 1e-6

    # identical logs: perfect graph scores
    for compare in (dfg_compare, handover_compare):
        cmp = compare(hospital_log, hospital_log)
        assert (cmp.fitness, cmp.precision, cmp.f1) == (1.0, 1.0, 1.0)

    # suppression that introduces no new adjacency keeps precision at 1
    pruned, _ = suppress_global(
        hospital_log, [ProjectedEvent(activity="RL")], Perspective.A
    )
    assert dfg_compare(hospital_log, pruned).precision == 1.0

    # the greedy reference pair, with its one synthetic adjacency
    anonymized = TlkcAnonymizer(**REFERENCE).anonymize(treatment_log).log
    cmp = dfg_compare(treatment_log, anonymized)
    assert cmp.precision == pytest.approx(15 / 16)


def _transport_cost(wa, wb, ta, tb):
    """Drive the production transport solver on hand-built distributions."""
    import numpy as np

    from tlkcpriv import metrics

    cost = metrics._edit_distance_matrix(ta, tb)
    flow = metrics._optimal_flow(np.array(wa), np.array(wb), cost)
    return float(np.sum(flow * cost))


def _synthetic_big_log(cases=1050, seed=4025):
    """A skewed multi-variant log in the spirit of real hospital data:
    a few frequent variants, a long unique tail, minute-level gaps."""
    rng = random.Random(seed)
    activities = [f"A{i:02d}" for i in range(16)]
    resources = [f"R{i:02d}" for i in range(12)]
    diseases = [f"D{i}" for i in range(8)]
    backbone = []
    for _ in range(12):
        length = rng.randint(3, 9)
        backbone.append([rng.choice(activities) for _ in range(length)])
    instances = []
    for cid in range(cases):
        if rng.random() < 0.75:
            acts = list(rng.choice(backbone))
            if rng.random() < 0.3:
                acts.insert(rng.randrange(len(acts) + 1), rng.choice(activities))
        else:
            acts = [rng.choice(activities) for _ in range(rng.randint(2, 12))]
        t = rng.randint(0, 600)
        events = []
        for a in acts:
            events.append(Event(a, rng.choice(resources), t * 60))
            t += rng.randint(1, 240)
        instances.append(
            ProcessInstance(
                f"case{cid}", tuple(events), {"Disease": rng.choice(diseases)}
            )
        )
    return EventLog(tuple(instances), ("Disease",))


@criterion(8, "smoke scale: 1050-case log, normalized greedy, audit-clean in <10min")
def test_criterion_8_scale_smoke():
    log = _synthetic_big_log()
    assert len(log) >= 1000
    log = truncate_to_accuracy(log, TimestampAccuracy.MINUTES)
    started = time.perf_counter()
    anonymizer = TlkcExtAnonymizer(
        accuracy="minutes", L=2, K=20, C=0.5, alpha=0.5, beta=0.5,
        bk="set/ac", sensitive=("Disease",),
    )
    result = anonymizer.anonymize(log)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"anonymization took {elapsed:.1f}s"
    params = PrivacyParams(
        accuracy="minutes", L=2, K=20, C=0.5, bk="set/ac", sensitive=("Disease",)
    )
    assert audit_tlkc(result.log, params).satisfied
    assert len(result.log) > 0


@criterion(9, "scale gate: 5000-case log, both greedy variants suppress over 2+ rounds, audit-clean")
def test_criterion_9_scale_gate():
    log = truncate_to_accuracy(_synthetic_big_log(5000, 4025), HOURS)
    common = dict(accuracy="hours", L=2, K=5, C=0.8, bk="seq/ar", sensitive=("Disease",))
    params = PrivacyParams(**common)
    for anonymizer in (TlkcAnonymizer(theta=0.2, **common), TlkcExtAnonymizer(**common)):
        result = anonymizer.anonymize(log)
        assert len(result.iterations) >= 1
        # a dropped case sends the survivors through a second round
        assert len(result.dropped_cases) >= 1
        assert audit_tlkc(result.log, params).satisfied
