"""Anonymization algorithms.

Four estimator-style transformers, all suppression-only (events are removed,
never invented or reordered):

* :class:`TlkcAnonymizer` -- greedy global suppression driven by the ratio of
  privacy gain (minimal violating candidates hit) to utility loss (maximal
  frequent subtraces hit).
* :class:`TlkcExtAnonymizer` -- same loop with the normalized score; utility
  is measured by descriptor coverage instead of maximal frequent subtraces.
* :class:`Baseline1` -- drop every case whose variant occurs fewer than k
  times.
* :class:`Baseline2` -- k-anonymize variants by removing events: globally
  suppress the rarest descriptor while frequencies still discriminate, then
  merge violating variant classes onto shared subtraces.

Every class follows the scikit-learn parameter protocol (``get_params`` /
``set_params``, both checked) and exposes ``transform(log)``; the richer
result object is returned by ``anonymize(log)``.

The TLKC anonymizers keep their greedy rounds in descriptor codes: the
minimal violations and frequent subtraces become (item, code) incidence
arrays, each anonymizer's ``start_round`` ranks every code at once by its
score formula, written there once, and only the winners are decoded.
Suppression is a keep mask over the round's projection, and each round
projects its own input once.  ``IterationRecord.score`` is the winner's rank.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from numbers import Integral
from typing import Iterable, Optional

import numpy as np

from .analysis import (
    PrivacyParams,
    _number,
    coverage,
    enumerate_mft,
    enumerate_mvt,
)
from .log import (
    CodedTraces,
    EventLog,
    LogError,
    Perspective,
    ProjectedEvent,
    TimestampAccuracy,
)

__all__ = [
    "SuppressionSet",
    "IterationRecord",
    "AnonymizationResult",
    "ParameterError",
    "suppress_global",
    "TlkcAnonymizer",
    "TlkcExtAnonymizer",
    "Baseline1",
    "Baseline2",
]


class ParameterError(LogError):
    """The requested parameters cannot be met (e.g. they would empty the log)."""


@dataclass(frozen=True)
class SuppressionSet:
    """Winner descriptors in selection order; no duplicates."""

    descriptors: tuple = ()

    def __post_init__(self):
        descs = tuple(self.descriptors)
        if len(set(descs)) != len(descs):
            raise LogError("suppression set must not contain duplicates")
        object.__setattr__(self, "descriptors", descs)

    def __iter__(self):
        return iter(self.descriptors)

    def __len__(self):
        return len(self.descriptors)


@dataclass(frozen=True)
class IterationRecord:
    winner: ProjectedEvent
    score: float
    remaining_mvts: int


@dataclass(frozen=True)
class AnonymizationResult:
    log: EventLog
    suppression: SuppressionSet
    dropped_cases: tuple
    iterations: tuple
    events_removed: int
    runtime_seconds: float


def _result(log, out, dropped, started, iterations=()):
    """The result of turning ``log`` into ``out`` in a run begun at ``started``."""
    return AnonymizationResult(
        log=out,
        suppression=SuppressionSet(tuple(r.winner for r in iterations)),
        dropped_cases=tuple(dropped),
        iterations=tuple(iterations),
        events_removed=log.total_events - out.total_events,
        runtime_seconds=time.perf_counter() - started,
    )


def suppress_global(
    log: EventLog,
    descriptors: Iterable[ProjectedEvent],
    ps: Perspective,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
):
    """Remove every event whose projection equals one of the descriptors.

    Cases whose trace empties are dropped. Returns (new log, dropped ids).
    """
    traces, alphabet = log.coded(ps, accuracy)
    descriptors = set(descriptors)
    kept = np.fromiter((e not in descriptors for e in alphabet), bool, len(alphabet))
    return log._keep(kept[traces.codes])


class BaseAnonymizer:
    """Parameter handling shared by the anonymizers (scikit-learn protocol);
    the parameters are a subclass's dataclass fields, checked by
    :meth:`_params` when the anonymizer is made and on :meth:`set_params`."""

    def __post_init__(self):
        self._params()

    def _params(self):
        """The parsed and checked parameters of a run."""
        return PrivacyParams.of(self)

    def get_params(self, deep=True):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = self.get_params()
        for name in params:
            if name not in valid:
                raise LogError(f"unknown parameter {name!r} for {type(self).__name__}")
        replace(self, **params)  # checks the new values before any is assigned
        for name, value in params.items():
            setattr(self, name, value)
        return self

    def fit(self, log: EventLog, y=None):
        return self

    def transform(self, log: EventLog) -> EventLog:
        result = self.anonymize(log)
        self.suppression_ = result.suppression
        self.iterations_ = result.iterations
        self.dropped_cases_ = result.dropped_cases
        self.events_removed_ = result.events_removed
        return result.log

    def fit_transform(self, log: EventLog, y=None) -> EventLog:
        return self.fit(log).transform(log)


def _incidence(levels: Iterable[tuple], n_codes: int) -> tuple:
    """``(items, codes, alive)`` of a mined set's ``levels``, one item per code
    row, numbered on from level to level: one ``(item, code)`` pair per
    distinct code of an item, and every item alive."""
    keys, first = [np.zeros(0, np.int64)], 0
    for matrix, *_ in levels:
        rows = np.arange(first, first + len(matrix))[:, None]
        keys.append((rows * n_codes + matrix).ravel())
        first += len(matrix)
    items, codes = np.divmod(np.unique(np.concatenate(keys)), n_codes)
    return items, codes, np.ones(first, bool)


def _tie_key(seed: Optional[int]):
    """Tie-break order among equally scored descriptors.

    Default is the canonical descriptor order; a seed swaps in a
    deterministic pseudo-random order instead.
    """
    if seed is None:
        return ProjectedEvent.sort_key
    from zlib import crc32

    return lambda e: (crc32(f"{seed}:{e}".encode()), e.sort_key())


def _anonymize_greedily(
    log: EventLog, params: PrivacyParams, tie_break, start_round
) -> AnonymizationResult:
    """The greedy suppression rounds shared by both TLKC anonymizers.

    Each round mines the minimal violating candidates of the current log and
    asks ``start_round(log, alphabet)`` for the levels of the round's
    maximal frequent subtraces (or ``()``) and its ``rank(gain, loss,
    violations)`` of every code at once.  It then repeatedly picks the
    highest-ranked code (ties: higher privacy gain, then the tie-break
    order of the descriptors), prunes every violation and frequent subtrace
    holding it, and finally suppresses the winners globally.  The rounds
    work in descriptor codes; only the winners are decoded.  If suppression
    drops emptied cases, the survivors go through another round, so the
    output always passes the audit.
    """
    started = time.perf_counter()
    ps, accuracy = params.perspective, params.accuracy
    tie_key = _tie_key(tie_break)
    current = log
    iterations: list = []
    all_dropped: list = []

    while True:
        mvt = enumerate_mvt(current, params)
        if len(mvt) == 0:
            break
        _, alphabet = current.coded(ps, accuracy)
        n = len(alphabet)
        frequent, rank = start_round(current, alphabet)
        v_items, v_codes, v_alive = _incidence(mvt.levels, n)
        f_items, f_codes, f_alive = _incidence(frequent, n)
        winners = []
        while v_alive.any():
            # per code, the alive violations and frequent subtraces holding it
            gain = np.bincount(v_codes[v_alive[v_items]], minlength=n)
            loss = np.bincount(f_codes[f_alive[f_items]], minlength=n)
            live = np.flatnonzero(gain)
            ranks = rank(gain, loss, v_alive.sum())[live]
            best = ranks.max()
            tied = live[ranks == best]
            tied = tied[gain[tied] == gain[tied].max()]
            winner = min(tied.tolist(), key=lambda c: tie_key(alphabet[c]))
            v_alive[v_items[v_codes == winner]] = False
            f_alive[f_items[f_codes == winner]] = False
            winners.append(alphabet[winner])
            iterations.append(IterationRecord(alphabet[winner], float(best), int(v_alive.sum())))
        current, dropped = suppress_global(current, winners, ps, accuracy)
        all_dropped.extend(dropped)
        if not len(current):
            raise ParameterError(
                f"suppression emptied the whole log; requirements are too strict "
                f"(T={accuracy.value}, L={params.L}, K={params.K}, C={params.C})"
            )
        if not dropped:
            # no case vanished, so every remaining candidate kept its
            # match set and the log is guaranteed violation-free
            break
    return _result(log, current, all_dropped, started, iterations)


@dataclass(eq=False)
class TlkcAnonymizer(BaseAnonymizer):
    """Greedy suppression until no minimal violating candidate remains.

    Repeatedly picks the descriptor with the highest score, privacy gain
    (minimal violating candidates holding it) over utility loss (maximal
    frequent subtraces holding it) plus one, prunes every minimal violating
    candidate and maximal frequent subtrace containing it, and finally
    suppresses the winners globally.  Ties break on higher privacy gain,
    then canonical descriptor order.  If global suppression drops emptied
    cases, the survivors are re-anonymized so the output always passes the
    audit.
    """

    accuracy: str = "hours"
    L: int = 2
    K: int = 2
    C: float = 0.5
    theta: Optional[float] = 0.5
    bk: str = "rel/ar"
    sensitive: tuple = ()
    tie_break: Optional[int] = None

    def _params(self) -> PrivacyParams:
        if self.theta is None:
            raise LogError("theta is required for the classic greedy algorithm")
        return super()._params()

    def anonymize(self, log: EventLog) -> AnonymizationResult:
        params = self._params()

        def start_round(current, alphabet):
            mft = enumerate_mft(current, params.perspective, params.theta, params.accuracy)
            return mft.levels, lambda gain, loss, violations: gain / (loss + 1)

        return _anonymize_greedily(log, params, self.tie_break, start_round)


@dataclass(eq=False)
class TlkcExtAnonymizer(BaseAnonymizer):
    """Greedy suppression with the normalized score.

    The winner maximizes ``alpha * relative privacy gain + beta * (1 -
    coverage)``, the coverage of :func:`coverage`; maximal frequent
    subtraces play no role.  The relative privacy gain is recomputed per
    iteration against the surviving minimal violating candidates, while the
    coverage stays fixed to the round's input log.
    """

    accuracy: str = "hours"
    L: int = 2
    K: int = 2
    C: float = 0.5
    alpha: float = 0.5
    beta: float = 0.5
    bk: str = "rel/ar"
    sensitive: tuple = ()
    tie_break: Optional[int] = None

    def anonymize(self, log: EventLog) -> AnonymizationResult:
        params = self._params()

        def start_round(current, alphabet):
            cov = coverage(current, params.perspective, params.accuracy)
            cov = np.array([cov[e] for e in alphabet])
            return (), lambda gain, loss, violations: (
                params.alpha * (gain / violations) + params.beta * (1.0 - cov)
            )

        return _anonymize_greedily(log, params, self.tie_break, start_round)


@dataclass(eq=False)
class _KBaseline(BaseAnonymizer):
    """Parameters shared by the two k-anonymity baselines."""

    k: int = 2
    ps: str = "ART"
    accuracy: str = "hours"

    def _params(self):
        """Check k; return the perspective and timestamp accuracy to project on."""
        if not (_number(Integral, self.k) and self.k >= 1):
            raise LogError("k must be a positive integer")
        return Perspective.parse(self.ps), TimestampAccuracy.parse(self.accuracy)


class Baseline1(_KBaseline):
    """Keep a case only if its variant occurs at least k times."""

    def anonymize(self, log: EventLog) -> AnonymizationResult:
        started = time.perf_counter()
        ps, accuracy = self._params()
        traces, _ = log.coded(ps, accuracy)
        cases = list(traces)
        counts = Counter(cases)
        common = np.fromiter((counts[t] >= self.k for t in cases), bool, len(cases))
        out, dropped = log._keep(np.repeat(common, traces.lengths))
        return _result(log, out, dropped, started)


def _longest_common_subsequence(a: tuple, b: tuple) -> tuple:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dp[i + 1][j + 1] = dp[i][j] + 1 if x == y else max(dp[i][j + 1], dp[i + 1][j])
    out = []
    i, j = len(a), len(b)
    while i and j:
        if a[i - 1] == b[j - 1] and dp[i][j] == dp[i - 1][j - 1] + 1:
            out.append(a[i - 1])
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    return tuple(reversed(out))


def _earliest_embedding(small: tuple, big: tuple) -> Optional[tuple]:
    """The positions of ``small``'s earliest match in ``big``, in order, gaps
    allowed; None when ``small`` is not a subsequence of ``big``."""
    rest = iter(range(len(big)))
    pos = tuple(next((i for i in rest if big[i] == x), -1) for x in small)
    return None if -1 in pos else pos


class Baseline2(_KBaseline):
    """k-anonymize trace variants by removing events.

    Two regimes drive each violating variant to the most similar subtrace
    whose class reaches k occurrences:

    1. While descriptor frequencies still discriminate (not all equal among
       events of violating traces), the globally rarest such descriptor is
       suppressed from every trace; ties break canonically.  Global
       suppression never splits a variant class, so satisfied classes stay
       satisfied.
    2. Once frequencies are uniform they carry no more signal, and the
       algorithm switches to structural merging for good: a violating class
       is absorbed into a class whose variant is a proper subtrace of its
       own (longest target first, earliest embedding on ties), or failing
       that, two violating classes coalesce onto their longest common
       subtrace.  A violating class with no partner at all is dropped.

    Both regimes only ever shorten traces, so the result's projections are
    subsequences of the input's and the loop terminates with every surviving
    variant occurring at least k times.  Events are removed through one keep
    mask over the input's events, as the other anonymizers remove them.
    """

    def anonymize(self, log: EventLog) -> AnonymizationResult:
        started = time.perf_counter()
        ps, accuracy = self._params()

        # one keep bit per event of the input; codes sort in canonical
        # descriptor order, so they break every tie
        traces, _ = log.coded(ps, accuracy)
        codes, lengths = traces.codes, traces.lengths
        keep = np.ones(len(codes), bool)
        structural = False

        while True:
            # a case's later edits depend only on its current variant, so the
            # cases of a class share their fate and a class is a count
            kept_bounds = np.concatenate(([0], np.cumsum(keep)))[traces.bounds]
            variants = list(CodedTraces(codes[keep], kept_bounds))
            classes = Counter(variants)
            del classes[()]
            violating = {rep: n for rep, n in classes.items() if n < self.k}
            if not violating:
                break

            if not structural:
                gfreq = np.bincount(codes[keep]).tolist()
                eligible = sorted(set().union(*violating))
                if len({gfreq[d] for d in eligible}) > 1:
                    target = min(eligible, key=lambda d: (gfreq[d], d))
                    keep &= codes != target
                    continue
                structural = True

            # no structural move left: dropping a class makes none either, so
            # every violating class is dropped (the empty target keeps none
            # of its events), mirroring full removal of hopeless variants
            moves = self._merge_step(classes, violating)
            for rep, target in moves or [(rep, ()) for rep in violating]:
                in_class = np.repeat([v == rep for v in variants], lengths)
                events = np.flatnonzero(keep & in_class).reshape(-1, len(rep))
                keep[events] = False
                keep[events[:, list(_earliest_embedding(target, rep))]] = True

        out, dropped = log._keep(keep)
        return _result(log, out, dropped, started)

    def _merge_step(self, classes, violating) -> list:
        """The ``(class, target)`` moves of one structural step, each class's
        cases to keep only the earliest embedding of ``target`` in its variant;
        empty when no move is left."""
        # absorb: violating class onto an existing proper-subtrace class
        for rep in sorted(violating):
            options = [
                u
                for u in classes
                if len(u) < len(rep)
                and _earliest_embedding(u, rep) is not None
                and classes[u] + classes[rep] >= self.k
            ]
            if options:
                best_len = max(len(u) for u in options)
                options = [u for u in options if len(u) == best_len]
                target = min(options, key=lambda u: (_earliest_embedding(u, rep), u))
                return [(rep, target)]
        # coalesce: two violating classes onto their longest common subtrace
        best = None
        for u, v in itertools.combinations(sorted(violating), 2):
            common = _longest_common_subsequence(u, v)
            if common and classes[u] + classes[v] >= self.k:
                key = (-len(common), common, u, v)
                if best is None or key < best[0]:
                    best = (key, u, v, common)
        if best is not None:
            _, u, v, common = best
            return [(u, common), (v, common)]
        return []
