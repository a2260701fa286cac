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

Every kind matches by one rule, subsequence containment in a per-kind trace
view: the trace in time order for (timed) sequences, its sorted codes for
multisets and its sorted distinct codes for sets, since a bag lies in a trace
exactly when its sorted codes are a subsequence of the sorted trace.  So one
walk enumerates all four kinds: :func:`_enumerate` grows the candidate
lattice one level at a time, counting every child's support and focal hits
for a whole level in array kernels over bounded chunks of positions.  A
single candidate is matched by the same walk, grown along its prefixes.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .log import (
    CodedTraces,
    EventLog,
    LogError,
    Perspective,
    ProjectedEvent,
    TimestampAccuracy,
)

__all__ = [
    "BkType",
    "BkAttr",
    "BkSpec",
    "Candidate",
    "CandidateSyntaxError",
    "match",
    "confidence",
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

    @classmethod
    def _canonical(cls, bk_type: BkType, elements: tuple) -> "Candidate":
        """The candidate of a non-empty tuple already in canonical order (a
        bag's sorted by :meth:`ProjectedEvent.sort_key`, a set's distinct),
        built without the check and re-sort of the constructor."""
        cand = object.__new__(cls)
        object.__setattr__(cand, "bk_type", bk_type)
        object.__setattr__(cand, "elements", elements)
        return cand

    def __str__(self) -> str:
        return format_candidate(self)


class ProjectedLog:
    """A log projected on the perspective induced by a background-knowledge
    spec, in descriptor codes.

    ``traces`` holds each case's projection in codes (:class:`CodedTraces`) and
    ``alphabet[c]`` is the descriptor of code ``c`` (see
    :meth:`EventLog.coded`); codes follow the canonical descriptor order, so
    enumeration and tie-breaks sort plain ints.  Containment is one rule for
    every kind: a candidate's codes form a subsequence of the trace's view,
    which is the trace itself for (timed) sequences, its sorted codes for
    multisets and its sorted distinct codes for sets, since a bag lies in a
    trace exactly when its sorted codes are a subsequence of the sorted
    trace.  Mining walks these views level by level (:func:`_enumerate`),
    and :meth:`match_indices` answers a single candidate, in descriptors, by
    the same walk grown along the candidate's prefixes alone.  Mined codes
    leave through :meth:`decode`.
    """

    def __init__(self, log: EventLog, spec: BkSpec, accuracy: TimestampAccuracy):
        self.spec = spec
        self.traces, self.alphabet = log.coded(spec.perspective, accuracy)

    def match_indices(self, cand: Candidate) -> frozenset:
        """Indices of the traces whose view holds the candidate's codes as a
        subsequence, read off the walk of :func:`_enumerate` grown along the
        candidate's prefixes; a descriptor no trace holds matches nothing."""
        code = {e: c for c, e in enumerate(self.alphabet)}
        codes = [code.get(e, -1) for e in cand.elements]
        # one size more, never reached, so that the candidate's level keeps its matches
        walk = _enumerate(self.traces, len(code), self.spec.bk_type, len(codes) + 1)
        level = None
        for want, level in zip(codes, walk):
            # every row extends the one carried pattern, the candidate's prefix
            level.carry[:] = level.codes[:, -1] == want
        if level is None or level.codes.shape[1] < len(codes) or not level.carry.any():
            return frozenset()
        row = int(level.carry.argmax())
        first = int(level.support[:row].sum())
        at = level.positions[first : first + level.support[row]]
        return frozenset(level.trace_of[at].tolist())

    def decode(self, codes) -> Candidate:
        """The candidate, in descriptors, that these codes stand for.  A bag's
        codes must come in code order, as mining yields them: the candidate
        is built as given, without :class:`Candidate`'s re-sort."""
        alphabet = self.alphabet
        return Candidate._canonical(self.spec.bk_type, tuple(alphabet[c] for c in codes))


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
    indices = ProjectedLog(log, spec, accuracy).match_indices(cand)
    return tuple(log.instances[i] for i in sorted(indices))


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


# the most trace positions one chunk of a level's expansion visits (a run of
# one code counts once); it bounds the expansion's temporary arrays, not the
# embeddings a level keeps
CHUNK_POSITIONS = 1 << 12


@dataclass(eq=False)
class Level:
    """Every pattern of one size that the walk reached, in code order.

    Row ``i`` of ``codes`` is a pattern, ``support[i]`` the number of traces
    holding it and ``hits[f, i]`` how many of those the ``f``-th flag array
    marks.  ``subs[i, j]`` is the index, among the previous level's carried
    patterns, of the pattern with position ``j`` dropped, or -1 when that
    sub was not carried; the last column is the pattern's parent.  Every
    embedding, a trace holding a pattern, is kept as the view position of
    its match's last code, which ``trace_of`` maps to the trace;
    ``positions`` holds the first pattern's ``support[0]`` embeddings first,
    and so on, until the walk resumes and drops them; the last level keeps
    none, since nothing grows from it.  Only patterns whose ``carry`` entry
    stays set grow.
    """

    codes: np.ndarray
    support: np.ndarray
    hits: np.ndarray
    subs: np.ndarray
    carry: np.ndarray
    positions: np.ndarray
    trace_of: np.ndarray


class _View(NamedTuple):
    """The per-kind views of every trace, one position per entry, traces in
    order: the code there, its trace and the previous position of the same
    code in the same trace, or -1.  A run is a stretch of one code within a
    trace: ``runs`` holds where each starts and ``run_of`` the run of every
    position.  Per trace, ``trace_end`` and ``run_end`` bound its positions
    and its runs."""

    codes: np.ndarray
    trace_of: np.ndarray
    prev: np.ndarray
    runs: np.ndarray
    run_of: np.ndarray
    trace_end: np.ndarray
    run_end: np.ndarray


def _view(traces: CodedTraces, bk_type: BkType, n_codes: int) -> _View:
    """The :class:`_View` of ``traces`` under ``bk_type`` (see :class:`ProjectedLog`)."""
    codes = traces.codes
    trace_of = np.repeat(np.arange(len(traces), dtype=np.int32), traces.lengths)
    if bk_type in (BkType.SET, BkType.MULT):
        codes = codes[np.lexsort((codes, trace_of))]
    new_run = np.ones(len(codes), bool)
    new_run[1:] = (codes[1:] != codes[:-1]) | (trace_of[1:] != trace_of[:-1])
    if bk_type is BkType.SET:
        codes, trace_of, new_run = codes[new_run], trace_of[new_run], new_run[new_run]
    order = np.argsort(trace_of.astype(np.int64) * n_codes + codes, kind="stable")
    same = (codes[order[1:]] == codes[order[:-1]]) & (trace_of[order[1:]] == trace_of[order[:-1]])
    prev = np.full(len(codes), -1, np.int32)
    prev[order[1:][same]] = order[:-1][same]
    runs = np.flatnonzero(new_run).astype(np.int32)
    return _View(
        codes,
        trace_of,
        prev,
        runs,
        np.cumsum(new_run, dtype=np.int32) - 1,
        np.cumsum(np.bincount(trace_of, minlength=len(traces)), dtype=np.int32),
        np.cumsum(np.bincount(trace_of[runs], minlength=len(traces)), dtype=np.int32),
    )


def _children(view: _View, start, ends, n_codes: int, flags, grown: bool) -> tuple:
    """Count the children of the frontier's embeddings: ``(keys, support,
    hits, positions)``, the last ``None`` unless ``grown`` asks for them.

    The embeddings of carried pattern ``p`` are ``start[ends[p - 1]:ends[p]]``.
    One grows by every code from its start to its trace's end, at the
    code's first position there; the sorted ``keys``, ``p * n_codes +
    code``, name the children.  ``positions`` holds the grown embeddings,
    ``support[0]`` of the first child's first, and so on.  The embeddings go
    in chunks of about :data:`CHUNK_POSITIONS` positions, each counted on its
    own and merged by key.
    """
    done = np.concatenate(([0], np.cumsum(_run_counts(view, start))))
    chunks, a = [], 0
    while a < len(start):
        b = max(int(np.searchsorted(done, done[a] + CHUNK_POSITIONS, "right")) - 1, a + 1)
        parent = np.searchsorted(ends, np.arange(a, b), "right").astype(np.int32)
        children, counts, at = _count_chunk(view, parent, start[a:b], n_codes, flags)
        chunks.append((children, counts, at if grown else None))
        a = b
    keys, merged = np.unique(np.concatenate([c[0] for c in chunks]), return_inverse=True)
    merged = merged.reshape(-1)
    counts = np.zeros((1 + len(flags), len(keys)), np.int64)
    np.add.at(counts, (slice(None), merged), np.concatenate([c[1] for c in chunks], axis=1))
    support = counts[0]
    if not grown:
        return keys, support, counts[1:], None
    # each chunk fills its children's next free slots, so every child's
    # embeddings end up together, in chunk order
    positions = np.empty(int(support.sum()), np.int32)
    free = np.cumsum(support) - support
    offset = 0
    while chunks:
        children, (sizes, *_), at = chunks.pop(0)
        ids = merged[offset : offset + len(children)]
        firsts = np.cumsum(sizes) - sizes
        positions[np.arange(len(at)) + np.repeat(free[ids] - firsts, sizes)] = at
        free[ids] += sizes
        offset += len(children)
    return keys, support, counts[1:], positions


def _run_counts(view: _View, start) -> np.ndarray:
    """How many runs each embedding's rest, from ``start`` on, meets."""
    return view.run_end[view.trace_of[start]] - view.run_of[start]


def _count_chunk(view: _View, parent, start, n_codes: int, flags) -> tuple:
    """One chunk of :func:`_children` before the merge: its children's
    keys, a matrix of their support and hits, and the grown embeddings.

    Only ``start`` and the later run starts can hold a code's first
    position in the rest; of those, ``prev`` drops the codes seen before."""
    lengths = _run_counts(view, start)
    first = np.repeat(start, lengths)
    run = np.arange(len(first), dtype=np.int32) + np.repeat(
        (view.run_of[start] - (np.cumsum(lengths) - lengths)).astype(np.int32), lengths
    )
    at = np.maximum(view.runs[run], first)
    new = view.prev[at] < first
    at = at[new]
    keys = np.repeat(parent, lengths)[new].astype(np.int64) * n_codes + view.codes[at]
    order = np.argsort(keys)
    keys, at = keys[order], at[order]
    starts = np.ones(len(keys), bool)
    starts[1:] = keys[1:] != keys[:-1]
    owner = np.cumsum(starts, dtype=np.int32) - 1
    children = keys[starts]
    trace = view.trace_of[at]
    support = np.diff(np.append(np.flatnonzero(starts), len(keys)))
    hits = [np.bincount(owner[flag[trace]], minlength=len(children)) for flag in flags]
    return children, np.array([support, *hits], np.int64), at


def _enumerate(traces: CodedTraces, n_codes: int, bk_type: BkType, max_size: int, flags=()):
    """Walk the lattice of patterns realized in ``traces`` (over ``n_codes``
    codes) level by level: PrefixSpan (Pei et al. 2001), one
    whole level counted at a time over per-trace positions as in SPADE
    (Zaki 2001).

    Yields one :class:`Level` per size 1..max_size over the per-kind views
    (see :class:`ProjectedLog`), so a bag comes with its codes sorted.  An
    embedding is a trace and the position of a pattern's earliest match
    there; a child extends it by a code at that code's first position after
    the match.  The consumer clears ``carry`` entries to prune: only carried
    patterns grow, and ``subs`` points into them.  ``flags`` are boolean
    arrays over the traces whose hits every level counts.
    """
    view = _view(traces, bk_type, n_codes)
    # the frontier: where each embedding's rest starts, grouped by the
    # carried pattern it extends, here the empty one in every trace
    start = np.flatnonzero(np.diff(view.trace_of, prepend=-1)).astype(np.int32)
    ends = np.array([len(start)])
    carried_codes = np.zeros((1, 0), np.int32)
    carried_subs = np.zeros((1, 0), np.int32)
    carried_keys = np.zeros(0, np.int64)
    for size in range(1, max_size + 1):
        if not len(start):
            return
        keys, support, hits, at = _children(
            view, start, ends, n_codes, flags, grown=size < max_size
        )
        parents, last = np.divmod(keys, n_codes)
        subs = np.empty((len(keys), size), np.int32)
        subs[:, -1] = parents
        # dropping position j < size - 1 leaves the parent's sub without j,
        # extended by the same last code: a child of a carried pattern
        for j in range(size - 1):
            base = carried_subs[parents, j].astype(np.int64)
            want = base * n_codes + last
            found = np.searchsorted(carried_keys, want)
            hit = np.minimum(found, len(carried_keys) - 1)
            subs[:, j] = np.where((base >= 0) & (carried_keys[hit] == want), found, -1)
        level = Level(
            codes=np.column_stack((carried_codes[parents], last.astype(np.int32))),
            support=support,
            hits=hits,
            subs=subs,
            carry=np.ones(len(keys), bool),
            positions=at,
            trace_of=view.trace_of,
        )
        yield level
        if size == max_size:
            return
        carry = level.carry
        grows = np.repeat(carry, support) & (at + 1 < view.trace_end[view.trace_of[at]])
        start = at[grows] + 1
        ends = np.cumsum(np.add.reduceat(grows, np.cumsum(support) - support)[carry])
        carried_keys, carried_subs = keys[carry], subs[carry]
        carried_codes = level.codes[carry]
        # the grown embeddings live on in the frontier alone
        level.positions = at = grows = None


# --- candidate literal syntax ---------------------------------------------
#
# set        {a,b}            multiset   [a^2,b]
# sequence   <a,b>            timed      <a@3,b/r@7>
# elements:  act | act/res | /res, optionally @<units> for timed specs
# a backslash takes the next character literally, so a label may hold
# \ , / @ ^ (always escaped) and whitespace at its ends (escaped there)

_LABEL = r"(?:[^\\/@^]|\\.)"  # one label character, an escaped one included
_ELEMENT_RE = re.compile(
    rf"\s*(?P<act>{_LABEL}*?)(?:/(?P<res>{_LABEL}+?))?(?:@(?P<time>-?\d+))?(?:\^(?P<rep>\d+))?\s*",
    re.S,
)
_PIECE_RE = re.compile(r"(?:[^\\,]|\\.)*\\?", re.S)  # an element: up to a plain comma
_ESCAPE_RE = re.compile(r"[\\,/@^]|\A\s|\s\Z")


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
    if not text[1:-1].strip():
        raise CandidateSyntaxError(text, 1, "candidate has no elements")
    elements = []
    pos, end = 1, len(text) - 1
    while pos <= end:
        chunk = _PIECE_RE.match(text, pos, end).group()
        m = _ELEMENT_RE.fullmatch(chunk)
        if not m:
            raise CandidateSyntaxError(text, pos, f"bad element {chunk.strip()!r}")
        act, res, time, rep = m.group("act", "res", "time", "rep")
        act, res = (s and re.sub(r"\\(.)", r"\1", s, flags=re.S) for s in (act, res))
        act = act or None
        if rep is not None and spec.bk_type is not BkType.MULT:
            raise CandidateSyntaxError(text, pos, "^count is only valid in multisets")
        if rep is not None and int(rep) == 0:
            raise CandidateSyntaxError(text, pos, "^count must be at least 1")
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
        elements.extend([elem] * int(rep or 1))
        pos += len(chunk) + 1
    return Candidate(spec.bk_type, tuple(elements))


def format_candidate(cand: Candidate) -> str:
    """The literal that :func:`parse_candidate` reads back as ``cand``; a
    label without special characters is written as it is."""
    opener, closer = _BRACKETS[cand.bk_type]
    if cand.bk_type is BkType.MULT:
        counts = sorted(Counter(cand.elements).items(), key=lambda kv: kv[0].sort_key())
    else:
        counts = [(e, 1) for e in cand.elements]
    parts = (_literal(e) + (f"^{n}" if n > 1 else "") for e, n in counts)
    return opener + ",".join(parts) + closer


@lru_cache(maxsize=1 << 16)  # a report repeats few elements many times
def _literal(e: ProjectedEvent) -> str:
    """One element as a literal writes it, its labels escaped."""
    act, res = (s and _ESCAPE_RE.sub(r"\\\g<0>", s) for s in (e.activity, e.resource))
    return str(ProjectedEvent(act, res, e.time))
