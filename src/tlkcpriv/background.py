"""Adversary background knowledge: candidates, matching, enumeration.

Background knowledge comes in four types (set, multiset, sequence, timed
sequence) over three event attributes (activities, resources, both).  Each
(type, attribute) pair induces the perspective used to project traces before
containment is tested:

    set/mult/seq x ac -> A      rel x ac -> AT
    set/mult/seq x re -> R      rel x re -> RT
    set/mult/seq x ar -> AR     rel x ar -> ART

Timed candidates carry relative timestamps truncated to the chosen accuracy;
two timed events match when their kept fields and truncated times are equal,
so matching time differences reduces to plain equality once all traces share
one origin.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .log import (
    EventLog,
    LogError,
    Perspective,
    ProjectedEvent,
    TimestampAccuracy,
    is_subsequence,
)

__all__ = [
    "BkType",
    "BkAttr",
    "BkSpec",
    "Candidate",
    "CandidateSyntaxError",
    "ProjectedLog",
    "match",
    "confidence",
    "enumerate_candidates",
    "parse_candidate",
    "format_candidate",
]


class BkType(Enum):
    SET = "set"
    MULT = "mult"
    SEQ = "seq"
    REL = "rel"


class BkAttr(Enum):
    AC = "ac"
    RE = "re"
    AR = "ar"


@dataclass(frozen=True)
class BkSpec:
    """Type and attribute of the assumed background knowledge."""

    bk_type: BkType
    bk_attr: BkAttr

    @property
    def perspective(self) -> Perspective:
        kept = {BkAttr.AC: "A", BkAttr.RE: "R", BkAttr.AR: "AR"}[self.bk_attr]
        return Perspective(kept + "T" if self.bk_type is BkType.REL else kept)

    @property
    def ordered(self) -> bool:
        return self.bk_type in (BkType.SEQ, BkType.REL)

    @classmethod
    def parse(cls, text) -> "BkSpec":
        if isinstance(text, BkSpec):
            return text
        try:
            t, a = str(text).strip().lower().split("/")
            return cls(BkType(t), BkAttr(a))
        except ValueError:
            raise LogError(
                f"unknown background knowledge {text!r}; expected <type>/<attr> "
                "with type in {set,mult,seq,rel} and attr in {ac,re,ar}"
            ) from None

    def __str__(self) -> str:
        return f"{self.bk_type.value}/{self.bk_attr.value}"


@dataclass(frozen=True)
class Candidate:
    """One piece of background knowledge: elements plus the containment kind.

    ``elements`` is the canonical payload: for sets a sorted tuple of distinct
    descriptors, for multisets a sorted tuple with repetition, for (timed)
    sequences the tuple in temporal order.
    """

    bk_type: BkType
    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise LogError("candidates must contain at least one element")
        if self.bk_type in (BkType.SET, BkType.MULT):
            elements = tuple(sorted(elements, key=lambda e: e.sort_key()))
            if self.bk_type is BkType.SET and len(set(elements)) != len(elements):
                raise LogError("set candidates must not repeat elements")
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return format_candidate(self)


def _covers(counter: Counter, need: Counter) -> bool:
    """Multiset containment: ``counter`` holds every element ``need`` asks for."""
    return all(counter[e] >= n for e, n in need.items())


class ProjectedLog:
    """A log projected on the perspective induced by a background-knowledge
    spec, in descriptor codes.

    ``traces`` holds each case's projection as a tuple of codes and
    ``alphabet[c]`` is the descriptor of code ``c`` (see
    :meth:`EventLog.coded`); codes follow the canonical descriptor order, so
    enumeration and tie-breaks sort plain ints.  Beside the traces it keeps
    one inverted index: ``postings[c]`` is the frozenset of trace indices
    whose projection holds code ``c``.  Multiset specs also keep each trace's
    code counter in ``elem_counters`` (empty for every other spec).  A
    candidate can only match traces in the intersection of its elements'
    postings, so containment is tested on those traces alone, and not at all
    where the intersection already decides it (sets, multisets without
    repeats, single elements).  Candidates in descriptors enter through
    :meth:`match_candidate` and leave through :meth:`decode`.
    ``accuracy`` bounds the timestamp precision available to the adversary
    (only relevant for timed perspectives).
    """

    def __init__(self, log: EventLog, spec: BkSpec, accuracy: TimestampAccuracy):
        self.log = log
        self.spec = spec
        self.accuracy = accuracy
        self.traces, self.alphabet = log.coded(spec.perspective, accuracy)
        is_mult = spec.bk_type is BkType.MULT
        self.elem_counters = tuple(map(Counter, self.traces)) if is_mult else ()
        postings = [[] for _ in self.alphabet]
        for i, trace in enumerate(self.traces):
            for c in set(trace):
                postings[c].append(i)
        self.postings = tuple(map(frozenset, postings))

    def match_indices(self, codes: tuple) -> frozenset:
        """Indices of the traces that contain the candidate with these codes."""
        distinct = set(codes)
        first, *rest = sorted((self.postings[c] for c in distinct), key=len)
        found = first.intersection(*rest)
        bk_type = self.spec.bk_type
        if bk_type is BkType.SET or len(codes) == 1:
            return found
        if bk_type is BkType.MULT:
            if len(distinct) == len(codes):
                return found
            need = Counter(codes)
            counters = self.elem_counters
            return frozenset(i for i in found if _covers(counters[i], need))
        traces = self.traces
        return frozenset(i for i in found if is_subsequence(codes, traces[i]))

    def match_candidate(self, cand: Candidate) -> frozenset:
        """:meth:`match_indices` of a candidate given in descriptors; one that
        no trace holds matches nothing."""
        code = {e: c for c, e in enumerate(self.alphabet)}
        if not all(e in code for e in cand.elements):
            return frozenset()
        return self.match_indices(tuple(code[e] for e in cand.elements))

    def decode(self, codes: tuple) -> Candidate:
        """The candidate, in descriptors, that these codes stand for."""
        return Candidate(self.spec.bk_type, tuple(map(self.alphabet.__getitem__, codes)))

    def instances(self, indices: Iterable[int]) -> tuple:
        return tuple(self.log.instances[i] for i in sorted(indices))


def match(
    log: EventLog,
    spec: BkSpec,
    cand: Candidate,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> tuple:
    """Instances whose projected trace contains the candidate (type-specific containment)."""
    if cand.bk_type is not spec.bk_type:
        raise LogError(
            f"candidate kind {cand.bk_type.value} does not match spec {spec}"
        )
    plog = ProjectedLog(log, spec, accuracy)
    return plog.instances(plog.match_candidate(cand))


def confidence(matched: Iterable, attr: str):
    """Per-value fractions of a sensitive attribute over a match set, plus the max.

    The fractions sum to 1; ``None`` values form their own class.
    """
    matched = tuple(matched)
    if not matched:
        raise LogError("confidence is undefined for an empty match set")
    counts = Counter(inst.sensitive.get(attr) for inst in matched)
    total = len(matched)
    dist = {value: n / total for value, n in counts.items()}
    return dist, max(dist.values())


def enumerate_candidates(
    log: EventLog,
    spec: BkSpec,
    max_size: int,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> Iterator[tuple]:
    """Yield (candidate, match indices) for sizes 1..max_size: every candidate
    realized in at least one trace, each once, depth-first."""
    plog = ProjectedLog(log, spec, accuracy)
    for codes, indices in _enumerate(plog, max_size, lambda codes, indices: True):
        yield plog.decode(codes), indices


def _enumerate(plog: ProjectedLog, max_size, extend):
    """Yield (codes, match indices) depth-first as :func:`enumerate_candidates`
    yields candidates, siblings in code order; each is yielded before
    ``extend(codes, match)`` decides whether its supersets are explored
    (pruned branches are never generated)."""
    if plog.spec.ordered:
        for pattern, positions in prefix_span(plog.traces, max_size, extend):
            yield pattern, frozenset(positions)
    else:
        yield from _enumerate_bags(plog, max_size, extend)


def prefix_span(traces, max_size, extend):
    """Depth-first PrefixSpan (Pei et al. 2001) over code sequences.

    Yields each pattern of 1..max_size codes that is a subsequence of some
    trace, with a map from every supporting trace index to the position right
    after the pattern's earliest embedding there.  Siblings come in code
    order; a pattern is yielded before ``extend(pattern, positions)``
    decides whether it grows.
    """

    def grow(prefix, positions):
        extensions = {}
        for idx, start in positions.items():
            trace = traces[idx]
            seen = set()
            for j in range(start, len(trace)):
                e = trace[j]
                if e in seen:
                    continue
                seen.add(e)
                extensions.setdefault(e, {})[idx] = j + 1
        for e in sorted(extensions):
            pattern, nxt = prefix + (e,), extensions[e]
            yield pattern, nxt
            if len(pattern) < max_size and extend(pattern, nxt):
                yield from grow(pattern, nxt)

    yield from grow((), dict.fromkeys(range(len(traces)), 0))


def _enumerate_bags(plog, max_size, extend):
    # a child adds a code no smaller than its parent's last one (sets:
    # strictly larger), so it walks the codes from there; its match is the
    # parent's support narrowed by the new code's postings, or, for one more
    # copy of the last code, by that code's count
    is_set = plog.spec.bk_type is BkType.SET
    counters = plog.elem_counters
    postings = plog.postings

    def grow(elems, support, start, repeats):
        for e in range(start, len(postings)):
            if elems and e == elems[-1]:
                count = repeats + 1
                matched = frozenset(i for i in support if counters[i][e] >= count)
            else:
                count = 1
                matched = support & postings[e]
            if not matched:
                continue
            new = elems + (e,)
            yield new, matched
            if len(new) < max_size and extend(new, matched):
                yield from grow(new, matched, e + 1 if is_set else e, count)

    yield from grow((), frozenset(range(len(plog.traces))), 0, 0)


# --- candidate literal syntax ---------------------------------------------
#
# set        {a,b}            multiset   [a^2,b]
# sequence   <a,b>            timed      <a@3,b/r@7>
# elements:  act | act/res | /res, optionally @<units> for timed specs

_ELEMENT_RE = re.compile(
    r"^(?P<act>[^/@^]*?)(?:/(?P<res>[^/@^]+))?(?:@(?P<time>-?\d+))?(?:\^(?P<rep>\d+))?$"
)


_BRACKETS = {BkType.SET: "{}", BkType.MULT: "[]", BkType.SEQ: "<>", BkType.REL: "<>"}


class CandidateSyntaxError(LogError):
    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"cannot parse candidate {text!r} at position {pos}: {message}")
        self.pos = pos


def parse_candidate(text: str, spec: BkSpec) -> Candidate:
    """Parse a candidate literal for the given background-knowledge spec."""
    text = text.strip()
    opener, closer = _BRACKETS[spec.bk_type]
    if not text.startswith(opener) or not text.endswith(closer):
        raise CandidateSyntaxError(
            text, 0, f"{spec.bk_type.value} candidates are written {opener}...{closer}"
        )
    body = text[1:-1].strip()
    if not body:
        raise CandidateSyntaxError(text, 1, "candidate has no elements")
    elements = []
    pos = 1
    for chunk in body.split(","):
        m = _ELEMENT_RE.match(chunk.strip())
        if not m:
            raise CandidateSyntaxError(text, pos, f"bad element {chunk.strip()!r}")
        act, res, time, rep = m.group("act"), m.group("res"), m.group("time"), m.group("rep")
        act = act or None
        if rep is not None and spec.bk_type is not BkType.MULT:
            raise CandidateSyntaxError(text, pos, "^count is only valid in multisets")
        if spec.bk_attr is BkAttr.AC and (res or not act):
            raise CandidateSyntaxError(text, pos, "activity-based elements are plain labels")
        if spec.bk_attr is BkAttr.RE:
            # bare labels denote resources; an explicit /res form also works
            if act and res:
                raise CandidateSyntaxError(text, pos, "resource-based elements carry no activity")
            if act and not res:
                act, res = None, act
            if not res:
                raise CandidateSyntaxError(text, pos, "missing resource label")
        if spec.bk_attr is BkAttr.AR and (not act or not res):
            raise CandidateSyntaxError(text, pos, "expected act/res element")
        if spec.bk_type is BkType.REL:
            if time is None:
                raise CandidateSyntaxError(text, pos, "timed candidates need @<units>")
        elif time is not None:
            raise CandidateSyntaxError(text, pos, "@<units> is only valid for rel candidates")
        elem = ProjectedEvent(
            activity=act if spec.bk_attr in (BkAttr.AC, BkAttr.AR) else None,
            resource=res if spec.bk_attr in (BkAttr.RE, BkAttr.AR) else None,
            time=int(time) if time is not None else None,
        )
        elements.extend([elem] * (int(rep) if rep else 1))
        pos += len(chunk) + 1
    return Candidate(spec.bk_type, tuple(elements))


def format_candidate(cand: Candidate) -> str:
    opener, closer = _BRACKETS[cand.bk_type]
    if cand.bk_type is BkType.MULT:
        counts = Counter(cand.elements)
        parts = [
            f"{e}^{n}" if n > 1 else str(e)
            for e, n in sorted(counts.items(), key=lambda kv: kv[0].sort_key())
        ]
    else:
        parts = [str(e) for e in cand.elements]
    return opener + ",".join(parts) + closer
