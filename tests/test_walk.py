"""The level-wise lattice walk against the brute-force oracles.

Every test runs twice: at the default chunk bound, where the small logs fit
one chunk, and with the bound cut to a few positions, so each level is
counted over many chunks and merged by key.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlkcpriv import (
    BkAttr,
    BkSpec,
    BkType,
    Candidate,
    PrivacyParams,
    TimestampAccuracy,
    enumerate_mft,
    enumerate_mvt,
    is_violating,
)
from tlkcpriv import background
from tlkcpriv.background import ProjectedLog

from .conftest import walked
from .oracles import (
    all_candidates,
    brute_focal,
    brute_match,
    brute_mft,
    brute_mvt,
    brute_verdict,
    hypothesis_logs,
    probes,
    random_log,
)

HOURS = TimestampAccuracy.HOURS
SPECS = [BkSpec(t, a) for t in BkType for a in BkAttr]
SENSITIVE = ("Disease", "Ward")


@pytest.fixture(params=["default", "tiny"], autouse=True)
def chunk_bound(request, monkeypatch):
    if request.param == "tiny":
        monkeypatch.setattr(background, "CHUNK_POSITIONS", 3)
    return request.param


def _logs(seed, count):
    rng = random.Random(seed)
    return rng, [
        random_log(rng, max_cases=7, max_events=5, sensitive=SENSITIVE) for _ in range(count)
    ]


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_mvt_items_equal_brute_force(L):
    # whole items: the candidate, its match size and both verdict parts,
    # with a second sensitive attribute whose focal hits are counted apart
    rng, logs = _logs(7000 + L, 5)
    verdicts = set()
    for log in logs:
        focal = brute_focal(log, SENSITIVE)
        for spec in SPECS:
            K, C = rng.choice([1, 2, 3]), rng.choice([0.34, 0.5, 0.67, 1.0])
            params = PrivacyParams(
                accuracy="hours", L=L, K=K, C=C, bk=spec, sensitive=SENSITIVE
            )
            got = enumerate_mvt(log, params)
            args = (spec.bk_type, spec.bk_attr)
            oracle = brute_mvt(
                log, *args, spec.perspective, 3600, L, K, C, SENSITIVE, focal
            )
            assert set(got.candidates) == oracle
            assert len(got) == len(oracle)
            for cand, verdict in got:
                expected = brute_verdict(
                    log, *args, cand.elements, spec.perspective, 3600, K, C, SENSITIVE, focal
                )
                assert (
                    verdict.match_size, verdict.k_violation,
                    verdict.c_violations, verdict.max_confidence,
                ) == expected
                verdicts.add(verdict.c_violations)
            codes = [[log.coded(spec.perspective, HOURS)[1].index(e) for e in c.elements]
                     for c in got.candidates]
            assert codes == sorted(codes, key=lambda c: (len(c), c))
    # not vacuous: each attribute violated alone somewhere
    assert {("Disease",), ("Ward",)} <= verdicts


def test_mft_equals_brute_force():
    rng, logs = _logs(7100, 10)
    found = 0
    for log in logs:
        for spec in SPECS:
            ps = spec.perspective
            theta = rng.choice([0.0, 0.15, 0.3, 0.5])
            got = enumerate_mft(log, ps, theta, HOURS)
            assert dict(got) == brute_mft(log, ps, 3600, theta)
            patterns = [p for p, _ in got]
            assert patterns == sorted(
                patterns, key=lambda p: (len(p), [e.sort_key() for e in p])
            )
            found += sum(len(p) > 1 for p in patterns)
    assert found > 0


def test_candidates_and_matches_equal_brute_force():
    _, logs = _logs(7200, 6)
    for log in logs:
        for spec in SPECS:
            found = walked(log, spec, 4, HOURS)
            payloads = [cand.elements for cand, _ in found]
            assert len(set(payloads)) == len(payloads)
            assert set(payloads) == all_candidates(
                log, spec.bk_type, spec.perspective, 3600, 4
            )
            for cand, indices in found:
                assert indices == brute_match(
                    log, spec.bk_type, spec.bk_attr, cand.elements, spec.perspective, 3600
                )


def test_decoded_candidates_equal_the_public_constructor():
    # decoding skips the constructor's re-sort, so the walk must already
    # hand out canonical elements
    rng, logs = _logs(7300, 6)
    bags = 0
    for log in logs:
        for spec in SPECS:
            decoded = [cand for cand, _ in walked(log, spec, 3, HOURS)]
            params = PrivacyParams(
                accuracy="hours", L=3, K=rng.choice([2, 3]), C=0.5, bk=spec, sensitive=SENSITIVE
            )
            decoded += enumerate_mvt(log, params).candidates
            for cand in decoded:
                built = Candidate(spec.bk_type, cand.elements)
                assert cand == built and cand.elements == built.elements
                assert hash(cand) == hash(built)
                bags += spec.bk_type in (BkType.SET, BkType.MULT) and len(set(cand.elements)) > 1
    assert bags > 0


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    log=hypothesis_logs(max_cases=6, max_events=4),
    seed=st.integers(0, 2**32 - 1),
    K=st.integers(1, 4),
    C=st.sampled_from([0.34, 0.5, 1.0]),
)
def test_single_candidates_match_and_judge_as_brute_force(log, seed, K, C):
    # the audit and the attack read one walk, so a single candidate's match
    # and verdict are held to the case-by-case oracles, not to the audit
    rng = random.Random(seed)
    focal = brute_focal(log, ("Disease",))
    for spec in SPECS:
        ps = spec.perspective
        plog = ProjectedLog(log, spec, HOURS)
        realized = [
            Candidate(spec.bk_type, elements)
            for elements in all_candidates(log, spec.bk_type, ps, 3600, 3)
        ]
        for cand in realized + probes(plog, rng, 10):
            want = brute_match(log, spec.bk_type, spec.bk_attr, cand.elements, ps, 3600)
            assert plog.match_indices(cand) == want, cand
        params = PrivacyParams(accuracy="hours", L=3, K=K, C=C, bk=spec, sensitive=("Disease",))
        for cand in realized:
            got = is_violating(cand, log, params)
            assert (got.match_size, got.k_violation, got.c_violations, got.max_confidence) == (
                brute_verdict(log, spec.bk_type, spec.bk_attr, cand.elements, ps, 3600, K, C,
                              ("Disease",), focal)
            ), cand
