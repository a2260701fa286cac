"""In-memory event-log model.

An event log is a set of process instances (cases).  Each case carries an
ordered trace of events (activity, optional resource, timestamp) plus a
mapping of case-level sensitive attributes.  Timestamps are integer seconds
since the Unix epoch (UTC); after relativization they encode offsets from a
shared origin, which keeps timed matching a plain equality check.

Logs are immutable after construction and all operations here are pure
functions, safe for concurrent readers.  Events and cases are values: equal
events may be one shared object (:func:`case_maker`, which builds every read
or truncated case, makes one per distinct floored event), a log derived from
another may share its unchanged cases, and identity is not part of the
model.  :meth:`EventLog.coded` caches a pure function in one assignment, so
concurrent readers at worst project twice.

A projection is kept in integer codes, and :meth:`EventLog.coded` is the one
place events become descriptors: it numbers the log's distinct descriptors in
their canonical order, so the analysis, the anonymizers and the variant and
directly-follows helpers hash, compare and sort small ints and decode only
what they return.  Untimed perspectives do not depend on the timestamp
accuracy, so one projection serves them at every accuracy; a log cut by
global suppression is handed its codes (:meth:`EventLog._without`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, compress
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "TimestampAccuracy",
    "Perspective",
    "Event",
    "ProcessInstance",
    "EventLog",
    "ProjectedEvent",
    "LogError",
    "MissingResourceError",
    "relative_timestamps",
    "relativize_log",
    "truncate_to_accuracy",
    "variants",
    "variant_frequency",
    "directly_follows",
    "discretize_sensitive",
]


# the event field behind each letter of a perspective's value, in that order
_FIELDS = {"A": "activity", "R": "resource", "T": "timestamp"}


class LogError(ValueError):
    """Raised when a log or an operation on it violates the model invariants."""


class MissingResourceError(LogError):
    """A resource-based perspective was applied to an event without a resource."""


class TimestampAccuracy(Enum):
    SECONDS = "seconds"
    MINUTES = "minutes"
    HOURS = "hours"
    DAYS = "days"

    @property
    def unit_seconds(self) -> int:
        return {"seconds": 1, "minutes": 60, "hours": 3600, "days": 86400}[self.value]

    @classmethod
    def parse(cls, text) -> "TimestampAccuracy":
        if isinstance(text, TimestampAccuracy):
            return text
        try:
            return cls(str(text).strip().lower())
        except ValueError:
            raise LogError(
                f"unknown timestamp accuracy {text!r}; expected one of "
                "seconds, minutes, hours, days"
            ) from None


class Perspective(Enum):
    """Which event fields a projection keeps."""

    A = "A"
    R = "R"
    AR = "AR"
    AT = "AT"
    RT = "RT"
    ART = "ART"

    @property
    def has_resource(self) -> bool:
        return "R" in self.value

    @property
    def has_time(self) -> bool:
        return "T" in self.value

    @classmethod
    def parse(cls, text) -> "Perspective":
        if isinstance(text, Perspective):
            return text
        try:
            return cls(str(text).strip().upper())
        except ValueError:
            raise LogError(f"unknown perspective {text!r}") from None


@dataclass(frozen=True, slots=True)
class Event:
    """A single event: activity label, optional resource, epoch-seconds timestamp."""

    activity: str
    resource: Optional[str]
    timestamp: int

    def __post_init__(self):
        if not self.activity:
            raise LogError("event activity label must be non-empty")
        if not isinstance(self.timestamp, int):
            object.__setattr__(self, "timestamp", int(self.timestamp))


@dataclass(frozen=True)
class ProcessInstance:
    """A case: unique id, non-empty time-ordered trace, sensitive attribute mapping."""

    case_id: str
    trace: tuple
    sensitive: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        trace = tuple(self.trace)
        object.__setattr__(self, "trace", trace)
        if not trace:
            raise LogError(f"case {self.case_id!r}: empty traces are not allowed")
        for a, b in zip(trace, trace[1:]):
            if b.timestamp < a.timestamp:
                raise LogError(
                    f"case {self.case_id!r}: events are not ordered by timestamp"
                )
        object.__setattr__(self, "sensitive", dict(self.sensitive))

    @classmethod
    def _ordered(cls, case_id: str, trace: tuple, sensitive: dict) -> "ProcessInstance":
        """The case of a non-empty trace tuple already in time order and a
        sensitive dict of its own, built without the constructor's copies and
        order check."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "case_id", case_id)
        object.__setattr__(inst, "trace", trace)
        object.__setattr__(inst, "sensitive", sensitive)
        return inst

    def __len__(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class EventLog:
    """An immutable collection of process instances with declared sensitive attributes."""

    instances: tuple
    sensitive_attrs: tuple = ()

    # ((ps, accuracy or None if untimed), (traces, alphabet)) of the last
    # projection; not a field, so it stays out of the constructor, ``==``
    # and ``repr``
    _projection = (None, ((), ()))

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        object.__setattr__(self, "sensitive_attrs", tuple(self.sensitive_attrs))
        self._check(self.sensitive_attrs)

    @classmethod
    def _built(cls, instances: tuple, sensitive_attrs: tuple, check_ids=True) -> "EventLog":
        """The log of a tuple of cases that hold every attribute of the
        ``sensitive_attrs`` tuple, built without checking that; duplicate ids
        are still rejected unless ``check_ids`` is False."""
        log = object.__new__(cls)
        object.__setattr__(log, "instances", instances)
        object.__setattr__(log, "sensitive_attrs", sensitive_attrs)
        if check_ids:
            log._check(())
        return log

    def _check(self, attrs: tuple) -> None:
        """Reject a repeated case id and a case that lacks one of ``attrs``."""
        seen = set()
        for inst in self.instances:
            if inst.case_id in seen:
                raise LogError(f"duplicate case id {inst.case_id!r}")
            seen.add(inst.case_id)
            for attr in attrs:
                if attr not in inst.sensitive:
                    raise LogError(
                        f"case {inst.case_id!r} lacks declared sensitive attribute {attr!r}"
                    )

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[ProcessInstance]:
        return iter(self.instances)

    @property
    def total_events(self) -> int:
        return sum(len(inst) for inst in self.instances)

    def activities(self) -> set:
        return {ev.activity for inst in self.instances for ev in inst.trace}

    def resources(self) -> set:
        return {
            ev.resource
            for inst in self.instances
            for ev in inst.trace
            if ev.resource is not None
        }

    def has_resources(self) -> bool:
        return all(
            ev.resource is not None for inst in self.instances for ev in inst.trace
        )

    def coded(
        self, ps: Perspective, accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS
    ) -> tuple:
        """``(traces, alphabet)``: every case's trace projected on ``ps`` as a
        tuple of descriptor codes, in case order, and ``alphabet[c]``, the
        :class:`ProjectedEvent` of code ``c``.

        A descriptor keeps exactly the perspective's fields; a timed one holds
        the timestamp in whole ``accuracy`` units (floor), and an untimed one
        is the same at every accuracy.  Codes number the distinct descriptors
        in canonical order (:meth:`ProjectedEvent.sort_key`), so codes
        compare as their descriptors do.  The last projection asked for is
        kept, so each greedy round projects once.  Raises
        :class:`MissingResourceError` when ``ps`` needs a resource that an
        event lacks."""
        key = (ps, accuracy if ps.has_time else None)
        held, coded = self._projection
        if held != key:
            coded = _encode(self.instances, ps, accuracy)
            object.__setattr__(self, "_projection", (key, coded))
        return coded

    def _cut(self, traces: Iterable[tuple]) -> tuple:
        """``(log, dropped ids)``: each case with its trace replaced by the next
        of ``traces``, a tuple of its events in order, emptied cases dropped.
        A monotone shift or floor of every timestamp keeps the order."""
        kept, dropped = [], []
        for inst, trace in zip(self.instances, traces):
            if trace is inst.trace:
                kept.append(inst)
            elif trace:  # a subsequence of an ordered trace is ordered
                kept.append(ProcessInstance._ordered(inst.case_id, trace, dict(inst.sensitive)))
            else:
                dropped.append(inst.case_id)
        return EventLog._built(tuple(kept), self.sensitive_attrs, check_ids=False), tuple(dropped)

    def _without(self, ps: Perspective, accuracy: TimestampAccuracy, descriptors: set) -> tuple:
        """:meth:`_cut` to the events whose projection is none of
        ``descriptors``.  The pass that keeps a case's events keeps their
        codes, numbered on past the vanished ones, as the new log's slot."""
        traces, alphabet = self.coded(ps, accuracy)
        keep = [e not in descriptors for e in alphabet]
        renumber = None if all(keep) else list(accumulate(keep, initial=-1))[1:]
        cut, coded = [], []
        for inst, codes in zip(self.instances, traces):
            kept = list(map(keep.__getitem__, codes))
            cut.append(tuple(compress(inst.trace, kept)))
            if renumber is not None:
                codes = tuple(map(renumber.__getitem__, compress(codes, kept)))
            if codes:
                coded.append(codes)
        log, dropped = self._cut(cut)
        coded = (tuple(coded), tuple(compress(alphabet, keep)))
        object.__setattr__(log, "_projection", ((ps, accuracy if ps.has_time else None), coded))
        return log, dropped


@dataclass(frozen=True, slots=True)
class ProjectedEvent:
    """Event descriptor under a perspective: only the kept fields are non-None.

    ``time`` is the relative timestamp in whole units of the projection's
    accuracy (floor).  Descriptors compare and sort by (activity, resource,
    time), which is the canonical order used for every deterministic
    tie-break in this package.
    """

    activity: Optional[str] = None
    resource: Optional[str] = None
    time: Optional[int] = None

    def sort_key(self):
        return (
            self.activity or "",
            self.resource or "",
            self.time if self.time is not None else -1,
        )

    def __lt__(self, other):  # total order despite optional fields
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        parts = ""
        if self.activity is not None:
            parts += self.activity
        if self.resource is not None:
            parts += f"/{self.resource}"
        if self.time is not None:
            parts += f"@{self.time}"
        return parts or "?"


def _encode(instances, ps: Perspective, accuracy: TimestampAccuracy) -> tuple:
    """The ``(traces, alphabet)`` of :meth:`EventLog.coded`: one pass collects
    the distinct tuples of kept fields, a second maps each event to the code
    of the descriptor its tuple floors to."""
    kept = [_FIELDS[letter] for letter in ps.value]
    fields = attrgetter(*kept)
    seen = set()
    for inst in instances:
        seen.update(map(fields, inst.trace))
    unit = accuracy.unit_seconds
    descs = {}
    for values in seen:
        got = dict(zip(kept, values if len(kept) > 1 else (values,)))
        stamp = got.get("timestamp")
        descs[values] = (
            got.get("activity"), got.get("resource"), None if stamp is None else stamp // unit
        )
    if ps.has_resource and any(d[1] is None for d in descs.values()):
        inst, ev = next(
            (inst, ev) for inst in instances for ev in inst.trace if ev.resource is None
        )
        raise MissingResourceError(
            f"perspective {ps.value} requires a resource but event "
            f"{ev.activity!r} in case {inst.case_id!r} has none"
        )
    events = {d: ProjectedEvent(*d) for d in descs.values()}
    order = sorted(events, key=lambda d: events[d].sort_key())
    rank = {d: c for c, d in enumerate(order)}
    code = {values: rank[d] for values, d in descs.items()}.__getitem__
    traces = tuple(tuple(map(code, map(fields, inst.trace))) for inst in instances)
    return traces, tuple(events[d] for d in order)


def is_subsequence(small: Sequence, big: Sequence) -> bool:
    """Whether ``small`` occurs in ``big`` in order, gaps allowed."""
    it = iter(big)
    return all(x in it for x in small)


def relative_timestamps(trace: Sequence[Event], t0: int = 0) -> tuple:
    """Rebase a trace so its first event is at ``t0``, preserving all gaps."""
    trace = tuple(trace)
    if not trace:
        return trace
    shift = t0 - trace[0].timestamp
    if shift == 0:
        return trace
    return tuple(
        Event(ev.activity, ev.resource, ev.timestamp + shift) for ev in trace
    )


def relativize_log(log: EventLog, t0: int = 0) -> EventLog:
    """Rebase every case to the shared origin ``t0`` (Unix epoch by default)."""
    return log._cut(relative_timestamps(inst.trace, t0) for inst in log)[0]


def truncate_to_accuracy(log: EventLog, accuracy: TimestampAccuracy) -> EventLog:
    """Floor every timestamp to its accuracy-unit boundary (stable, idempotent).

    Each case is rebuilt by :func:`case_maker`, so a log floored to hours
    holds one :class:`Event` per distinct event rather than one per occurrence.
    """
    if accuracy.unit_seconds == 1:
        return log
    make, fields = case_maker(accuracy), attrgetter("activity", "resource", "timestamp")
    cases = []
    for inst in log:
        activities, resources, seconds = map(list, zip(*map(fields, inst.trace)))
        cases.append(make(inst.case_id, activities, resources, seconds, dict(inst.sensitive)))
    return EventLog._built(tuple(cases), log.sensitive_attrs, check_ids=False)


class _Memo(dict):
    """``convert(key)`` of each key, computed on its first lookup; made for
    one read, write or maker, since logs repeat few distinct values."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def case_maker(accuracy: TimestampAccuracy):
    """``(case_id, activities, resources, seconds, sensitive)`` -> its
    :class:`ProcessInstance` at ``accuracy``: the one builder of the readers'
    and :func:`truncate_to_accuracy`'s cases, from their events' fields in
    source order (``seconds`` a list of exact timestamps).  Events are ordered
    by exact seconds (stable: file order breaks ties), then floored, and equal
    floored events share one object per maker.  No events raise the
    constructor's error."""
    unit = accuracy.unit_seconds
    floors = None if unit == 1 else _Memo(lambda seconds: seconds - seconds % unit)
    events = _Memo(lambda key: Event(*key))

    def make(case_id, activities, resources, seconds, sensitive):
        if sorted(seconds) != seconds:
            pick = itemgetter(*sorted(range(len(seconds)), key=seconds.__getitem__))
            activities, resources, seconds = pick(activities), pick(resources), pick(seconds)
        if floors is None:
            trace = tuple(map(Event, activities, resources, seconds))
        else:
            floored = map(floors.__getitem__, seconds)
            trace = tuple(map(events.__getitem__, zip(activities, resources, floored)))
        build = ProcessInstance._ordered if trace else ProcessInstance  # which rejects no events
        return build(case_id, trace, sensitive)

    return make


def variants(
    log: EventLog,
    ps: Perspective,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
):
    """Multiset of projected traces and the set of distinct ones (the variants)."""
    traces, alphabet = log.coded(ps, accuracy)
    decode = alphabet.__getitem__
    multiset = Counter({tuple(map(decode, t)): n for t, n in Counter(traces).items()})
    return multiset, set(multiset)


def variant_frequency(
    log: EventLog,
    ps: Perspective,
    variant: tuple,
    accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS,
) -> float:
    """Relative frequency of one variant; frequencies over all variants sum to 1."""
    multiset, _ = variants(log, ps, accuracy)
    if variant not in multiset:
        raise LogError(f"variant {variant!r} does not occur in the log")
    return multiset[variant] / len(log)


def directly_follows(log: EventLog, ps: Perspective) -> dict:
    """Directly-follows counts over activities (ps=A) or resources (ps=R).

    The count of (x, y) is the total number of adjacent positions, over all
    instances, where x is immediately followed by y.
    """
    if ps not in (Perspective.A, Perspective.R):
        raise LogError(f"directly-follows is defined for perspectives A and R, not {ps.value}")
    label = attrgetter("activity" if ps is Perspective.A else "resource")
    traces, alphabet = log.coded(ps)
    counts: Counter = Counter()
    for trace in traces:
        counts.update(zip(trace, trace[1:]))
    return {(label(alphabet[x]), label(alphabet[y])): n for (x, y), n in counts.items()}


def discretize_sensitive(log: EventLog, attr: str) -> EventLog:
    """Discretize a numeric sensitive attribute into low / middle / high.

    Quartiles (linear interpolation) are computed over the per-case values;
    values strictly above Q3 become "high", strictly below Q1 "low",
    everything else "middle".
    """
    if attr not in log.sensitive_attrs:
        raise LogError(f"cannot discretize {attr!r}: it is not a declared sensitive attribute")
    values = []
    for inst in log:
        v = inst.sensitive.get(attr)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise LogError(
                f"case {inst.case_id!r}: sensitive attribute {attr!r} has "
                f"non-numeric value {v!r}"
            )
        values.append(float(v))
    q1, q3 = np.percentile(values, [25, 75])
    relabeled = []
    for inst in log:
        v = float(inst.sensitive[attr])
        label = "high" if v > q3 else "low" if v < q1 else "middle"
        sens = dict(inst.sensitive)
        sens[attr] = label
        relabeled.append(ProcessInstance(inst.case_id, inst.trace, sens))
    return EventLog(tuple(relabeled), log.sensitive_attrs)
