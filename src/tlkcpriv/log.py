"""In-memory event-log model.

An event log is a set of process instances (cases).  Each case carries an
ordered trace of events (activity, optional resource, timestamp) plus a
mapping of case-level sensitive attributes.  Timestamps are integer seconds
since the Unix epoch (UTC); after relativization they encode offsets from a
shared origin, which keeps timed matching a plain equality check.

A log is columns (:class:`EventLog`): per event an activity code, a
resource code and int64 seconds, per case its id and sensitive values.
Readers fill them through one builder, and flooring, rebasing and
suppression are array operations; :attr:`EventLog.instances`, the cases as
:class:`ProcessInstance` objects, is built on first read.

Logs are immutable after construction (their arrays are read-only) and all
operations here are pure functions, safe for concurrent readers.  Events and
cases are values, a derived log may share its arrays, and identity is not
part of the model.
:attr:`EventLog.instances` and :meth:`EventLog.coded` cache a pure function
in one assignment, so concurrent readers at worst build twice.

A projection is kept in integer codes, and :meth:`EventLog.coded` is the one
place events become descriptors: it numbers the log's distinct descriptors in
their canonical order, so the analysis, the anonymizers and the variant and
directly-follows helpers hash, compare and sort small ints and decode only
what they return.  Untimed perspectives do not depend on the timestamp
accuracy, so one projection serves them at every accuracy.  A log cut by
suppression is a new log, which projects itself when first asked.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from enum import Enum
from itertools import compress
from operator import attrgetter
from typing import Iterator, Mapping, Optional

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
    "relativize_log",
    "truncate_to_accuracy",
    "variants",
    "directly_follows",
    "discretize_sensitive",
]


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

    def __len__(self) -> int:
        return len(self.trace)


class _Memo(dict):
    """``convert(key)`` of each key, computed on its first lookup; made for
    one read, write or build, since logs repeat few distinct values."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


# the most seconds a timestamp or a rebasing origin lies from the epoch, so that
# no difference of two stamps, plus an origin, leaves the int64 columns
_SECONDS_BOUND = 1 << 61

# the columns of a log, in the order _fill takes them
_COLUMNS = ("sensitive_attrs", "case_ids", "case_sensitive", "bounds", "activity_codes",
            "resource_codes", "seconds", "activity_labels", "resource_labels")


class EventLog:
    """An immutable collection of process instances with declared sensitive
    attributes, held as columns.

    ``case_ids[i]`` and ``case_sensitive[i]`` (a dict) belong to case ``i``,
    whose events are the positions ``bounds[i]`` to ``bounds[i + 1]`` of the
    event columns, in time order: ``activity_codes`` index
    ``activity_labels``, ``resource_codes`` index ``resource_labels`` (-1 for
    no resource) and ``seconds`` holds the int64 timestamps; the arrays are
    read-only.  A table may hold labels no event uses.
    ``EventLog(instances, sensitive_attrs)`` rejects a repeated case id and
    a case that lacks a declared attribute, and keeps ``instances``; any
    other log builds them on first read.
    """

    __slots__ = _COLUMNS + ("_instances", "_projection")

    def __init__(self, instances, sensitive_attrs=()):
        instances, columns = tuple(instances), _Columns()
        for inst in instances:
            columns.add(inst.case_id, [ev.activity for ev in inst.trace],
                        [ev.resource for ev in inst.trace], [ev.timestamp for ev in inst.trace],
                        inst.sensitive)
        columns.log(sensitive_attrs, self)
        object.__setattr__(self, "_instances", instances)

    def _fill(self, *columns) -> "EventLog":
        """This log, its columns set in the order of ``_COLUMNS`` and nothing cached."""
        for name, value in zip(_COLUMNS, columns, strict=True):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False  # derived logs share their arrays
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_instances", None)
        # ((ps, accuracy or None if untimed), (traces, alphabet)) of the last projection
        object.__setattr__(self, "_projection", (None, None))
        return self

    def _with(self, **changes) -> "EventLog":
        """A log of this one's columns with those named replaced."""
        return object.__new__(EventLog)._fill(*(
            changes[name] if name in changes else getattr(self, name) for name in _COLUMNS
        ))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return EventLog, (self.instances, self.sensitive_attrs)

    @property
    def instances(self) -> tuple:
        """The cases as :class:`ProcessInstance` objects, in order, built on
        first read with one :class:`Event` per distinct event."""
        if self._instances is None:
            activities, resources = self.activity_labels, self.resource_labels + (None,)
            event = _Memo(lambda key: Event(activities[key[0]], resources[key[1]], key[2]))
            events = list(map(event.__getitem__, zip(
                self.activity_codes.tolist(), self.resource_codes.tolist(), self.seconds.tolist()
            )))
            bounds = self.bounds.tolist()
            object.__setattr__(self, "_instances", tuple(
                ProcessInstance(case_id, events[a:b], sensitive)
                for case_id, sensitive, a, b
                in zip(self.case_ids, self.case_sensitive, bounds, bounds[1:])
            ))
        return self._instances

    def __eq__(self, other):
        if not isinstance(other, EventLog):
            return NotImplemented
        return (self.instances, self.sensitive_attrs) == (other.instances, other.sensitive_attrs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"EventLog(instances={self.instances!r}, sensitive_attrs={self.sensitive_attrs!r})"

    def __len__(self) -> int:
        return len(self.case_ids)

    def __iter__(self) -> Iterator[ProcessInstance]:
        return iter(self.instances)

    @property
    def total_events(self) -> int:
        return int(self.bounds[-1])

    def activities(self) -> set:
        used = np.unique(self.activity_codes).tolist()
        return set(map(self.activity_labels.__getitem__, used))

    def resources(self) -> set:
        used = np.unique(self.resource_codes[self.resource_codes >= 0]).tolist()
        return set(map(self.resource_labels.__getitem__, used))

    def has_resources(self) -> bool:
        return not (self.resource_codes < 0).any()

    def coded(
        self, ps: Perspective, accuracy: TimestampAccuracy = TimestampAccuracy.SECONDS
    ) -> tuple:
        """``(traces, alphabet)``: every case's trace projected on ``ps`` in
        descriptor codes, as :class:`CodedTraces` in case order, and
        ``alphabet[c]``, the :class:`ProjectedEvent` of code ``c``.

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
            coded = _encode(self, ps, accuracy)
            object.__setattr__(self, "_projection", (key, coded))
        return coded

    def _keep(self, keep: np.ndarray) -> tuple:
        """``(log, dropped ids)``: each case with the events that the boolean
        array ``keep`` marks, cases left with none dropped.  A subsequence
        of an ordered trace is ordered."""
        if not len(self):
            return self, ()
        lengths = np.add.reduceat(keep, self.bounds[:-1], dtype=np.int64)
        alive = (lengths > 0).tolist()
        log = self._with(
            case_ids=tuple(compress(self.case_ids, alive)),
            case_sensitive=tuple(compress(self.case_sensitive, alive)),
            bounds=np.concatenate(([0], np.cumsum(lengths[lengths > 0]))),
            activity_codes=self.activity_codes[keep],
            resource_codes=self.resource_codes[keep],
            seconds=self.seconds[keep],
        )
        return log, tuple(compress(self.case_ids, (lengths == 0).tolist()))


def _check(case_ids: tuple, sensitive: tuple, attrs: tuple) -> None:
    """Reject a repeated case id and a case that lacks one of ``attrs``."""
    seen = set()
    for case_id, values in zip(case_ids, sensitive):
        if case_id in seen:
            raise LogError(f"duplicate case id {case_id!r}")
        seen.add(case_id)
        for attr in attrs:
            if attr not in values:
                raise LogError(f"case {case_id!r} lacks declared sensitive attribute {attr!r}")


class _Columns:
    """The columns of a log in the making, one case at a time: the one
    builder of the readers' logs and of :class:`EventLog`'s.

    :meth:`add` takes a case with a non-empty trace as sequences of
    activities, resources (None for none) and exact seconds in source order,
    and codes its labels at once, in order of first use, so that a reader
    holds no label per event; :meth:`extend` takes many cases at once.
    :meth:`log` orders each case by its exact seconds (stable: source order
    breaks ties); :func:`truncate_to_accuracy` floors them later."""

    def __init__(self):
        self.activity = _Memo(lambda label: len(self.activity))
        self.resource = _Memo(lambda label: len(self.resource) - 1)
        self.resource[None] = -1
        self.activities, self.resources, self.seconds, self.lengths = [], [], [], []
        self.case_ids, self.sensitive = [], []

    def add(self, case_id, activities, resources, seconds, sensitive) -> None:
        self.extend((case_id,), activities, resources, seconds, (len(seconds),), (sensitive,))

    def extend(self, case_ids, activities, resources, seconds, lengths, sensitive) -> None:
        """Add cases whose events lie back to back in ``activities``,
        ``resources`` and ``seconds``, ``lengths[i]`` of them for case ``i``."""
        self.activities += map(self.activity.__getitem__, activities)
        self.resources += map(self.resource.__getitem__, resources)
        self.seconds += seconds
        self.lengths += lengths
        self.case_ids += case_ids
        self.sensitive += sensitive

    def log(self, attrs, log=None) -> EventLog:
        """``log``, or a new log, holding the cases added and declaring each
        name of ``attrs`` once, in first-seen order."""
        log = object.__new__(EventLog) if log is None else log
        attrs = tuple(dict.fromkeys(attrs))
        case_ids, sensitive = tuple(self.case_ids), tuple(self.sensitive)
        _check(case_ids, sensitive, attrs)
        try:
            seconds = np.array(self.seconds, np.int64)
        except OverflowError:
            seconds = None
        if seconds is None or not (-_SECONDS_BOUND <= seconds.min(initial=0)
                                   and seconds.max(initial=0) <= _SECONDS_BOUND):
            raise LogError("a timestamp lies more than 2**61 seconds from the epoch")
        activities = np.array(self.activities, np.int32)
        resources = np.array(self.resources, np.int32)
        lengths = np.array(self.lengths, np.int64)
        bounds = np.concatenate(([0], np.cumsum(lengths)))
        falls = seconds[1:] < seconds[:-1]
        falls[bounds[1:-1] - 1] = False  # from one case to the next
        if falls.any():
            order = np.lexsort((seconds, np.repeat(np.arange(len(lengths)), lengths)))
            activities, resources, seconds = activities[order], resources[order], seconds[order]
        return log._fill(attrs, case_ids, sensitive, bounds, activities, resources, seconds,
                         tuple(self.activity), tuple(self.resource)[1:])


class CodedTraces:
    """Every case's projection in descriptor codes: case ``i``'s codes are
    ``codes[bounds[i]:bounds[i + 1]]`` (read-only arrays).  Iteration yields
    each case's codes as a tuple."""

    __slots__ = ("codes", "bounds")

    def __init__(self, codes: np.ndarray, bounds: np.ndarray):
        codes.flags.writeable = bounds.flags.writeable = False
        self.codes, self.bounds = codes, bounds

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.bounds)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __iter__(self):
        flat, bounds = self.codes.tolist(), self.bounds.tolist()
        return (tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other):
        if not isinstance(other, CodedTraces):
            return NotImplemented
        return np.array_equal(self.codes, other.codes) and np.array_equal(self.bounds, other.bounds)

    __hash__ = None


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


def _ranks(labels: tuple) -> np.ndarray:
    """Per label code, the rank of its label in sorted order."""
    ranks = np.empty(len(labels), np.int64)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


def _group(columns) -> tuple:
    """``(codes, one)`` of events keyed by ``columns``, ``(values, count)``
    pairs of int arrays with values in ``[0, count)``: each event's rank
    among the distinct keys in lexicographic order, and an event of each."""
    key, size = np.zeros(len(columns[0][0]), np.int64), 1
    for values, count in columns:
        if size * count >= 1 << 62:  # too wide to mix: rank the keys so far
            key = np.unique(key, return_inverse=True)[1]
            size = int(key.max(initial=0)) + 1
        key, size = key * count + values, size * count
    codes = np.unique(key, return_inverse=True)[1]
    one = np.empty(int(codes.max(initial=-1)) + 1, np.int64)
    one[codes] = np.arange(len(key))
    return codes, one


def _encode(log: EventLog, ps: Perspective, accuracy: TimestampAccuracy) -> tuple:
    """The ``(traces, alphabet)`` of :meth:`EventLog.coded`: an event's key
    mixes the canonical ranks of its kept fields, so the distinct keys in
    order are the codes, and one event of each key makes its descriptor."""
    columns, times = [], None
    if "A" in ps.value:
        columns.append((_ranks(log.activity_labels)[log.activity_codes], len(log.activity_labels)))
    if ps.has_resource:
        bare = np.flatnonzero(log.resource_codes < 0)
        if len(bare):
            case = int(np.searchsorted(log.bounds, bare[0], "right")) - 1
            activity = log.activity_labels[log.activity_codes[bare[0]]]
            raise MissingResourceError(
                f"perspective {ps.value} requires a resource but event "
                f"{activity!r} in case {log.case_ids[case]!r} has none"
            )
        columns.append((_ranks(log.resource_labels)[log.resource_codes], len(log.resource_labels)))
    if ps.has_time:
        times = log.seconds // accuracy.unit_seconds
        values, at = np.unique(times, return_inverse=True)
        columns.append((at, len(values)))
    codes, one = _group(columns)
    n = len(one)
    activities = (map(log.activity_labels.__getitem__, log.activity_codes[one].tolist())
                  if "A" in ps.value else [None] * n)
    resources = (map(log.resource_labels.__getitem__, log.resource_codes[one].tolist())
                 if ps.has_resource else [None] * n)
    stamps = times[one].tolist() if times is not None else [None] * n
    alphabet = tuple(map(ProjectedEvent, activities, resources, stamps))
    return CodedTraces(codes.astype(np.int32), log.bounds), alphabet


def relativize_log(log: EventLog, t0: int = 0) -> EventLog:
    """Rebase every case to the shared origin ``t0`` (Unix epoch by default)."""
    if not -_SECONDS_BOUND <= t0 <= _SECONDS_BOUND:
        raise LogError(f"origin {t0} lies more than 2**61 seconds from the epoch")
    shifts = int(t0) - log.seconds[log.bounds[:-1]]
    return log._with(seconds=log.seconds + np.repeat(shifts, np.diff(log.bounds)))


def truncate_to_accuracy(log: EventLog, accuracy: TimestampAccuracy) -> EventLog:
    """Floor every timestamp to its accuracy-unit boundary (stable, idempotent)."""
    unit = accuracy.unit_seconds
    if unit == 1:
        return log
    return log._with(seconds=log.seconds - log.seconds % unit)


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


def directly_follows(log: EventLog, ps: Perspective) -> dict:
    """Directly-follows counts over activities (ps=A) or resources (ps=R).

    The count of (x, y) is the total number of adjacent positions, over all
    instances, where x is immediately followed by y.
    """
    if ps not in (Perspective.A, Perspective.R):
        raise LogError(f"directly-follows is defined for perspectives A and R, not {ps.value}")
    label = attrgetter("activity" if ps is Perspective.A else "resource")
    traces, alphabet = log.coded(ps)
    codes, size = traces.codes.astype(np.int64), len(alphabet)
    within = np.ones(max(len(codes) - 1, 0), bool)
    within[traces.bounds[1:-1] - 1] = False  # the pair from a case's last event to the next's first
    pairs, counts = np.unique((codes[:-1] * size + codes[1:])[within], return_counts=True)
    return {(label(alphabet[p // size]), label(alphabet[p % size])): n
            for p, n in zip(pairs.tolist(), counts.tolist())}


def discretize_sensitive(log: EventLog, attr: str) -> EventLog:
    """Discretize a numeric sensitive attribute into low / middle / high.

    Quartiles (linear interpolation) are computed over the per-case values;
    values strictly above Q3 become "high", strictly below Q1 "low",
    everything else "middle".  A value that is not a finite number is an
    error.
    """
    if attr not in log.sensitive_attrs:
        raise LogError(f"cannot discretize {attr!r}: it is not a declared sensitive attribute")
    values = []
    for case_id, sensitive in zip(log.case_ids, log.case_sensitive):
        v = sensitive.get(attr)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise LogError(
                f"case {case_id!r}: sensitive attribute {attr!r} has "
                f"non-numeric value {v!r}"
            )
        v = float(v)
        if not math.isfinite(v):
            raise LogError(
                f"case {case_id!r}: sensitive attribute {attr!r} has non-finite value {v!r}"
            )
        values.append(v)
    if not values:  # no case, nothing to bin
        return log
    q1, q3 = np.percentile(values, [25, 75])
    return log._with(case_sensitive=tuple(
        {**sensitive, attr: "high" if v > q3 else "low" if v < q1 else "middle"}
        for sensitive, v in zip(log.case_sensitive, values)
    ))
