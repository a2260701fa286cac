"""Privacy analysis: the (T,L,K,C) audit, minimal violating traces, maximal
frequent traces and the two greedy scores.

A candidate with a non-empty match violates the requirements when fewer than
K cases match it, or when the adversary's confidence in a protected sensitive
value among the matching cases exceeds C.  The confidence bound is enforced
for each attribute's focal value: the most frequent value in the log, ties
resolved by first appearance in case order.  Bounding the best-supported
guess keeps the check consistent across candidate sizes (see README for the
full rationale and for the audit semantics this pins down).

Both borders of the candidate lattice are read off one level-wise walk
(:func:`background._enumerate`), by one rule over a pattern's one-smaller
subs (the Apriori closure), in array operations over each level.  Minimal
violating candidates: a candidate is good when it is ok and its one-smaller
subs are good, and a violating candidate is minimal exactly when those subs
are all good; the walk grows good candidates alone, since no superset of
a candidate that is not good is good or minimal.  The anonymity condition K is
anti-monotone but the confidence condition is not, which is why the subs are
checked at all.  Maximal frequent subtraces: frequency is closed under
subsequences, so a frequent pattern is maximal exactly when it is no
one-smaller sub of another frequent pattern.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import ceil
from typing import Dict, Iterable, Optional

import numpy as np

from . import background
from .background import BkSpec, BkType, Candidate, ProjectedLog
from .log import (
    EventLog,
    LogError,
    Perspective,
    ProjectedEvent,
    TimestampAccuracy,
)

__all__ = [
    "PrivacyParams",
    "Verdict",
    "MvtSet",
    "MftSet",
    "AuditReport",
    "focal_values",
    "is_violating",
    "audit_tlkc",
    "enumerate_mvt",
    "enumerate_mft",
    "coverage",
    "score",
    "n_score",
]


def check_requirements(req) -> None:
    """Validate the L, K, C, theta and alpha/beta fields of ``req``."""
    if req.L < 1:
        raise LogError("L must be a positive integer")
    if req.K < 1:
        raise LogError("K must be a positive integer")
    if not 0 < req.C <= 1:
        raise LogError("C must lie in (0, 1]")
    if req.theta is not None and not 0 <= req.theta <= 1:
        raise LogError("theta must lie in [0, 1]")
    if (req.alpha is None) != (req.beta is None):
        raise LogError("alpha and beta must be given together")
    if req.alpha is not None:
        if req.alpha < 0 or req.beta < 0 or abs(req.alpha + req.beta - 1) > 1e-9:
            raise LogError("alpha and beta must be non-negative and sum to 1")


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy requirements: timestamp accuracy T, knowledge bound L, anonymity
    threshold K, confidence bound C, plus the background-knowledge spec and
    the sensitive attributes under protection.

    ``theta`` (frequency threshold) is used by the classic greedy algorithm;
    ``alpha``/``beta`` weight privacy gain against utility loss in the
    normalized-score variant and must sum to 1.
    """

    accuracy: TimestampAccuracy
    L: int
    K: int
    C: float
    bk: BkSpec
    sensitive: tuple = ()
    theta: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "accuracy", TimestampAccuracy.parse(self.accuracy))
        object.__setattr__(self, "bk", BkSpec.parse(self.bk))
        object.__setattr__(self, "sensitive", tuple(self.sensitive))
        check_requirements(self)

    @property
    def perspective(self) -> Perspective:
        return self.bk.perspective


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one candidate: anonymity and confidence conditions."""

    match_size: int
    k_violation: bool
    c_violations: tuple = ()  # attribute names whose bound is exceeded
    max_confidence: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.k_violation and not self.c_violations

    def describe(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if self.k_violation:
            parts.append("k-violation")
        parts.extend(f"c-violation({a})" for a in self.c_violations)
        return "+".join(parts)


def focal_values(log: EventLog, attrs: Iterable[str]) -> Dict[str, object]:
    """The protected value per sensitive attribute: the log's most frequent
    value, ties resolved by first appearance in case order."""
    out = {}
    for attr in attrs:
        counts = Counter(inst.sensitive.get(attr) for inst in log)
        if not counts:
            continue
        best = max(counts.values())
        for inst in log:
            if counts[inst.sensitive.get(attr)] == best:
                out[attr] = inst.sensitive.get(attr)
                break
    return out


class _Checker:
    """Shared verdict machinery over one projected log; candidates are code
    tuples (see :class:`ProjectedLog`)."""

    def __init__(self, log: EventLog, params: PrivacyParams):
        self.params = params
        self.plog = ProjectedLog(log, params.bk, params.accuracy)
        focal = focal_values(log, params.sensitive)
        # per attribute, the cases holding its focal value, by the same ``==``
        # test a per-case comparison would make (a NaN focal value holds none)
        self.attrs = tuple(dict.fromkeys(params.sensitive))
        self.flags = tuple(
            np.fromiter(
                (inst.sensitive.get(attr) == focal.get(attr) for inst in log), bool, len(log)
            )
            for attr in self.attrs
        )

    def verdicts(self, support: np.ndarray, hits: np.ndarray) -> tuple:
        """``(ok, verdicts)`` over candidates matched by ``support`` cases,
        ``hits[a]`` of them holding the ``a``-th attribute's focal value:
        ``ok`` marks the candidates that violate nothing and ``verdicts(rows)``
        builds the :class:`Verdict` of each candidate in ``rows``."""
        conf = hits / support
        k_violation, c_violation = support < self.params.K, conf > self.params.C
        max_confidence = conf.max(axis=0, initial=0.0)

        def verdicts(rows) -> list:
            attrs = self.attrs
            return [
                Verdict(n, k, tuple(attr for attr, hit in zip(attrs, c) if hit), top)
                for n, k, c, top in zip(
                    support[rows].tolist(),
                    k_violation[rows].tolist(),
                    c_violation[:, rows].T.tolist(),
                    max_confidence[rows].tolist(),
                )
            ]

        return ~(k_violation | c_violation.any(axis=0)), verdicts

    def verdict_for_indices(self, indices: frozenset) -> Verdict:
        if not indices:
            raise LogError("verdicts apply only to candidates with a non-empty match")
        matched = list(indices)
        hits = np.array([flag[matched].sum() for flag in self.flags], np.int64)
        _, verdicts = self.verdicts(np.array([len(matched)]), hits.reshape(-1, 1))
        return verdicts([0])[0]


def is_violating(cand: Candidate, log: EventLog, params: PrivacyParams) -> Verdict:
    """Check one candidate against the privacy requirements.

    Raises if the candidate matches nothing: the requirements only constrain
    realized background knowledge.
    """
    checker = _Checker(log, params)
    indices = checker.plog.match_candidate(cand)
    if not indices:
        raise LogError(f"candidate {cand} matches no case; nothing to check")
    return checker.verdict_for_indices(indices)


@dataclass(frozen=True)
class _Items:
    items: tuple

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


@dataclass(frozen=True)
class MvtSet(_Items):
    """Minimal violating candidates, each with its verdict.

    Every proper sub-candidate of every item is non-violating; an empty set
    is equivalent to the log satisfying the privacy requirements.
    """

    items: tuple  # of (Candidate, Verdict), canonically ordered

    @property
    def candidates(self) -> tuple:
        return tuple(c for c, _ in self.items)

    def privacy_gain(self, e: ProjectedEvent) -> int:
        return sum(1 for c, _ in self.items if e in c.elements)


@dataclass(frozen=True)
class MftSet(_Items):
    """Maximal frequent subtraces with their supports."""

    items: tuple  # of (pattern tuple, support), canonically ordered
    threshold: int = 1

    def utility_loss(self, e: ProjectedEvent) -> int:
        return sum(1 for pattern, _ in self.items if e in pattern)


def enumerate_mvt(log: EventLog, params: PrivacyParams) -> MvtSet:
    """All minimal violating candidates of size up to L.

    The walk goes one size at a time and carries only good candidates, those
    that are ok and whose one-smaller subs are all carried; a violating
    candidate whose one-smaller subs are all carried is minimal.  A sub that
    was not carried is not good, and a candidate above it is neither good
    nor minimal, so nothing above it is walked.
    """
    checker = _Checker(log, params)
    plog = checker.plog
    items = []
    walk = background._enumerate(
        plog.traces, len(plog.alphabet), params.bk.bk_type, params.L, checker.flags
    )
    for level in walk:
        ok, verdicts = checker.verdicts(level.support, level.hits)
        subs_good = (level.subs >= 0).all(axis=1)
        level.carry &= ok & subs_good
        minimal = np.flatnonzero(subs_good & ~ok)
        items.extend(zip(map(plog.decode, level.codes[minimal].tolist()), verdicts(minimal)))
    return MvtSet(tuple(items))


def enumerate_mft(
    log: EventLog,
    ps: Perspective,
    theta: float,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> MftSet:
    """Maximal frequent subtraces (subsequence semantics) of the projected log.

    A pattern is frequent when at least ceil(theta * #cases) cases contain
    it; maximal when no frequent pattern properly contains it, which, as
    every sub of a frequent pattern is frequent, holds exactly when it is no
    one-smaller sub of a frequent pattern.
    """
    if theta > 1:
        return MftSet((), threshold=len(log) + 1)
    traces, alphabet = log.coded(ps, accuracy)
    threshold = max(1, ceil(theta * len(traces)))
    longest = max((len(t) for t in traces), default=0)
    levels = []  # per size: the frequent patterns, their supports, which are covered
    for level in background._enumerate(traces, len(alphabet), BkType.SEQ, longest):
        frequent = level.support >= threshold
        level.carry &= frequent
        if levels:
            # the subs of a frequent pattern are frequent, hence all carried
            levels[-1][2][level.subs[frequent]] = True
        covered = np.zeros(frequent.sum(), bool)
        levels.append((level.codes[frequent], level.support[frequent], covered))
    decode = alphabet.__getitem__
    return MftSet(
        tuple(
            (tuple(map(decode, pattern)), n)
            for codes, support, covered in levels
            for pattern, n in zip(codes[~covered].tolist(), support[~covered].tolist())
        ),
        threshold=threshold,
    )


@dataclass(frozen=True)
class AuditReport:
    satisfied: bool
    violations: tuple  # of (Candidate, Verdict)
    params: PrivacyParams

    def lines(self) -> list:
        head = "satisfied" if self.satisfied else "NOT satisfied"
        out = [
            f"privacy audit: {head} "
            f"(T={self.params.accuracy.value}, L={self.params.L}, K={self.params.K}, "
            f"C={self.params.C}, bk={self.params.bk})",
            f"minimal violating candidates: {len(self.violations)}",
        ]
        for cand, verdict in self.violations:
            out.append(
                f"  {cand}  [{verdict.describe()}; matches={verdict.match_size}, "
                f"max_confidence={verdict.max_confidence:.3f}]"
            )
        return out

    def records(self) -> list:
        return [
            {
                "candidate": str(cand),
                "verdict": verdict.describe(),
                "match_size": verdict.match_size,
                "max_confidence": verdict.max_confidence,
            }
            for cand, verdict in self.violations
        ]


def audit_tlkc(log: EventLog, params: PrivacyParams) -> AuditReport:
    """Audit a log at timestamp accuracy T against the privacy requirements.

    The log is satisfied exactly when it contains no minimal violating
    candidate of any size up to L; the report lists the minimal violations,
    which witness every violation there is.
    """
    mvt = enumerate_mvt(log, params)
    return AuditReport(
        satisfied=len(mvt) == 0,
        violations=mvt.items,
        params=params,
    )


def score(e: ProjectedEvent, mvt: MvtSet, mft: MftSet) -> float:
    """Greedy suppression score: privacy gain over utility loss plus one."""
    pg = mvt.privacy_gain(e)
    if pg == 0:
        raise LogError(f"event {e} occurs in no minimal violating candidate")
    return pg / (mft.utility_loss(e) + 1)


def coverage(
    log: EventLog,
    ps: Perspective,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> Dict[ProjectedEvent, float]:
    """Per descriptor, the fraction of cases whose projected trace contains it."""
    traces, alphabet = log.coded(ps, accuracy)
    counts = Counter(c for trace in traces for c in set(trace))
    n = len(log)
    return {alphabet[c]: k / n for c, k in counts.items()}


def n_score(
    e: ProjectedEvent,
    mvt: MvtSet,
    coverage: Dict[ProjectedEvent, float],
    alpha: float,
    beta: float,
) -> float:
    """Normalized score: alpha * relative privacy gain + beta * frequency-aware
    utility, both in [0, 1].  ``coverage`` is the map :func:`coverage` returns."""
    if len(mvt) == 0:
        raise LogError("normalized score needs a non-empty set of minimal violations")
    rpg = mvt.privacy_gain(e) / len(mvt)
    nul = 1.0 - coverage.get(e, 0.0)
    return alpha * rpg + beta * nul
