"""Privacy analysis: the (T,L,K,C) audit, minimal violating traces, maximal
frequent traces and descriptor coverage.

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
from dataclasses import dataclass, fields
from functools import cached_property
from math import ceil, isnan
from numbers import Integral, Real
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
]


def _number(kind, value) -> bool:
    """Whether ``value`` is a number of ``kind``, which a bool, a string or,
    for ``Integral``, a float (NaN too) is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy requirements: timestamp accuracy T, knowledge bound L, anonymity
    threshold K, confidence bound C, plus the background-knowledge spec and
    the sensitive attributes under protection.

    ``theta`` (frequency threshold) is used by the classic greedy algorithm;
    ``alpha``/``beta`` weight privacy gain against utility loss in the
    normalized-score variant and must sum to 1.  Construction parses and
    checks every field; it is the one place run parameters are validated.
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
        object.__setattr__(self, "sensitive", tuple(dict.fromkeys(self.sensitive)))
        if not (_number(Integral, self.L) and self.L >= 1):
            raise LogError("L must be a positive integer")
        if not (_number(Integral, self.K) and self.K >= 1):
            raise LogError("K must be a positive integer")
        if not (_number(Real, self.C) and 0 < self.C <= 1):
            raise LogError("C must lie in (0, 1]")
        if self.theta is not None and not (_number(Real, self.theta) and 0 <= self.theta <= 1):
            raise LogError("theta must lie in [0, 1]")
        if (self.alpha is None) != (self.beta is None):
            raise LogError("alpha and beta must be given together")
        if self.alpha is not None:
            alpha, beta = self.alpha, self.beta  # written so that a NaN weight fails it
            if not (_number(Real, alpha) and _number(Real, beta)
                    and alpha >= 0 and beta >= 0 and abs(alpha + beta - 1) <= 1e-9):
                raise LogError("alpha and beta must be non-negative and sum to 1")

    @classmethod
    def of(cls, source) -> "PrivacyParams":
        """The parameters of ``source``, read field by field by name; a field
        that ``source`` lacks keeps its default."""
        names = [f.name for f in fields(cls) if hasattr(source, f.name)]
        return cls(**{name: getattr(source, name) for name in names})

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
        counts = Counter(values.get(attr) for values in log.case_sensitive)
        if counts:  # the first value seen leads among equal counts
            out[attr] = counts.most_common(1)[0][0]
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
        self.flags = tuple(
            np.fromiter(
                (values.get(attr) == focal.get(attr) for values in log.case_sensitive),
                bool, len(log),
            )
            for attr in params.sensitive
        )

    def ok(self, support: np.ndarray, hits: np.ndarray) -> np.ndarray:
        """Which candidates violate nothing, each matched by ``support`` cases,
        ``hits[a]`` of them holding the ``a``-th attribute's focal value."""
        return ~((support < self.params.K) | (hits / support > self.params.C).any(axis=0))

    def verdicts(self, support: np.ndarray, hits: np.ndarray) -> list:
        """The :class:`Verdict` of each candidate, from the arrays of :meth:`ok`."""
        conf = hits / support
        attrs, K = self.params.sensitive, self.params.K
        return [
            Verdict(n, n < K, tuple(attr for attr, hit in zip(attrs, c) if hit), top)
            for n, c, top in zip(support.tolist(), (conf > self.params.C).T.tolist(),
                                 conf.max(axis=0, initial=0.0).tolist())
        ]

    def verdict_for_indices(self, indices: frozenset) -> Verdict:
        matched = list(indices)
        hits = np.array([flag[matched].sum() for flag in self.flags], np.int64)
        return self.verdicts(np.array([len(matched)]), hits.reshape(-1, 1))[0]


def is_violating(cand: Candidate, log: EventLog, params: PrivacyParams) -> Verdict:
    """Check one candidate against the privacy requirements.

    Raises if the candidate matches nothing: the requirements only constrain
    realized background knowledge.
    """
    checker = _Checker(log, params)
    indices = checker.plog.match_indices(cand)
    if not indices:
        raise LogError(f"candidate {cand} matches no case; nothing to check")
    return checker.verdict_for_indices(indices)


class _Mined:
    """Items of one level-wise walk, kept as the walk's arrays: ``levels``
    holds a tuple per size, code rows first, and ``decode(*level)`` yields a
    level's items.  ``items`` are decoded when first read and ``len()``
    counts rows without decoding, so the greedy rounds work in codes."""

    def __init__(self, levels: tuple = (), decode=None):
        self.levels = levels
        self._decode = decode

    @cached_property
    def items(self) -> tuple:
        return tuple(item for level in self.levels for item in self._decode(*level))

    def __len__(self):
        return sum(len(codes) for codes, *_ in self.levels)

    def __iter__(self):
        return iter(self.items)


class MvtSet(_Mined):
    """Minimal violating candidates, each with its verdict, canonically
    ordered: ``items`` holds ``(Candidate, Verdict)`` pairs.

    Every proper sub-candidate of every item is non-violating; an empty set
    is equivalent to the log satisfying the privacy requirements.  The
    ``levels`` are ``(codes, support, hits)``: per size, the code rows, match
    sizes and focal-value hits of the minimal violations.
    """

    @property
    def candidates(self) -> tuple:
        return tuple(c for c, _ in self.items)


class MftSet(_Mined):
    """Maximal frequent subtraces, canonically ordered: ``items`` holds
    ``(pattern tuple, support)`` pairs, each support at least ``threshold``.
    The ``levels`` are ``(codes, support)`` per size."""

    def __init__(self, levels: tuple = (), decode=None, threshold: int = 1):
        super().__init__(levels, decode)
        self.threshold = threshold


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
    levels = []
    walk = background._enumerate(
        plog.traces, len(plog.alphabet), params.bk.bk_type, params.L, checker.flags
    )
    for level in walk:
        ok = checker.ok(level.support, level.hits)
        subs_good = (level.subs >= 0).all(axis=1)
        level.carry &= ok & subs_good
        minimal = np.flatnonzero(subs_good & ~ok)
        levels.append((level.codes[minimal], level.support[minimal], level.hits[:, minimal]))
    return MvtSet(levels=tuple(levels), decode=lambda codes, support, hits: zip(
        map(plog.decode, codes.tolist()), checker.verdicts(support, hits)))


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
    one-smaller sub of a frequent pattern.  A theta above 1 leaves no
    pattern frequent, and one below 0 acts as 0.
    """
    if isnan(theta):
        raise LogError("theta must be a number, not NaN")
    if theta > 1:
        return MftSet(threshold=len(log) + 1)
    traces, alphabet = log.coded(ps, accuracy)
    threshold = max(1, ceil(max(theta, 0) * len(traces)))
    longest = int(traces.lengths.max(initial=0))
    levels = []  # per size: the frequent patterns, their supports, which are covered
    walk = background._enumerate(traces, len(alphabet), BkType.SEQ, longest)
    if longest and np.bincount(traces.codes).max() < threshold:
        # a pattern's support is at most its rarest code's count: the walk's one empty level
        walk, levels = (), [(np.zeros((0, 1), np.int32), np.zeros(0, np.int64), np.zeros(0, bool))]
    for level in walk:
        frequent = level.support >= threshold
        level.carry &= frequent
        if levels:
            # the subs of a frequent pattern are frequent, hence all carried
            levels[-1][2][level.subs[frequent]] = True
        covered = np.zeros(frequent.sum(), bool)
        levels.append((level.codes[frequent], level.support[frequent], covered))
    levels = tuple((codes[~covered], support[~covered]) for codes, support, covered in levels)
    return MftSet(threshold=threshold, levels=levels, decode=lambda codes, support: zip(
        (tuple(map(alphabet.__getitem__, p)) for p in codes.tolist()), support.tolist()))


@dataclass(frozen=True)
class AuditReport:
    satisfied: bool
    violations: tuple  # of (Candidate, Verdict)
    params: PrivacyParams

    def lines(self) -> list:
        """The text report: a head line, the count and one line per record."""
        p, head = self.params, "satisfied" if self.satisfied else "NOT satisfied"
        return [
            f"privacy audit: {head} (T={p.accuracy.value}, L={p.L}, K={p.K}, C={p.C}, bk={p.bk})",
            f"minimal violating candidates: {len(self.violations)}",
        ] + [
            f"  {r['candidate']}  [{r['verdict']}; matches={r['match_size']}, "
            f"max_confidence={r['max_confidence']:.3f}]"
            for r in self.records()
        ]

    def records(self) -> list:
        """One record per violation, built on the first call: the one place
        a violation is formatted, for :meth:`lines` and the JSON report."""
        return self._records

    @cached_property
    def _records(self) -> list:
        return [
            {"candidate": str(cand), "verdict": verdict.describe(),
             "match_size": verdict.match_size, "max_confidence": verdict.max_confidence}
            for cand, verdict in self.violations
        ]


def audit_tlkc(log: EventLog, params: PrivacyParams) -> AuditReport:
    """Audit a log at timestamp accuracy T against the privacy requirements.

    The log is satisfied exactly when it contains no minimal violating
    candidate of any size up to L; the report lists the minimal violations,
    which witness every violation there is.
    """
    mvt = enumerate_mvt(log, params)
    return AuditReport(satisfied=len(mvt) == 0, violations=mvt.items, params=params)


def coverage(
    log: EventLog,
    ps: Perspective,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> Dict[ProjectedEvent, float]:
    """Per descriptor, the fraction of cases whose projected trace contains it."""
    traces, alphabet = log.coded(ps, accuracy)
    counts = np.bincount(background._view(traces, BkType.SET, len(alphabet)).codes,
                         minlength=len(alphabet))
    return {e: k / len(log) for e, k in zip(alphabet, counts.tolist())}
