"""Reading and writing event logs (XES, CSV) and run configuration.

Timestamps are floored to whole epoch seconds (UTC; naive stamps are taken
as UTC).  Both readers hand each case's fields to the one builder of a log's
columns (:class:`~tlkcpriv.log._Columns`), which orders it on the exact
seconds; coarsening them is :func:`~tlkcpriv.log.truncate_to_accuracy`'s
job.  Both writers read the columns and format each distinct event once.
Both formats round-trip every modeled field: case id, activity, resource,
timestamp and the declared case-level sensitive attributes.  XES values
keep the type their tag names; CSV cells are text, so CSV sensitive values
are read as numbers where they parse.
"""

from __future__ import annotations

import csv as csvlib
import io
import logging
import math
import os
import re
from dataclasses import dataclass, fields, replace
from datetime import datetime, timedelta, timezone
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Optional, get_args, get_type_hints
from xml.parsers import expat

import numpy as np

from .analysis import PrivacyParams
from .log import EventLog, LogError, _Columns, _group, _Memo

__all__ = [
    "LogFileError",
    "CsvColumnMap",
    "RunConfig",
    "read_xes",
    "write_xes",
    "read_csv",
    "write_csv",
    "read_config",
    "write_config",
    "load_log",
    "save_log",
]

logger = logging.getLogger(__name__)

ISO_FORMAT = "iso"


class LogFileError(LogError):
    """A log file could not be opened, parsed as XML or written."""


@dataclass(frozen=True)
class CsvColumnMap:
    """Column names for flat CSV logs; sensitive columns hold case attributes
    duplicated across the case's rows."""

    case_col: str = "CaseId"
    activity_col: str = "Activity"
    timestamp_col: str = "Timestamp"
    resource_col: Optional[str] = "Resource"
    sensitive_cols: tuple = ()
    timestamp_format: str = ISO_FORMAT

    def __post_init__(self):
        object.__setattr__(self, "sensitive_cols", tuple(self.sensitive_cols))
        required = [self.case_col, self.activity_col, self.timestamp_col]
        if len(set(required)) != len(required):
            raise LogError("case, activity and timestamp columns must be distinct")


_EPOCH, _SECOND = datetime(1970, 1, 1, tzinfo=timezone.utc), timedelta(seconds=1)
_FRACTION = re.compile(r"(?<=:\d\d)[.,](\d+)")  # of the seconds, any number of digits
# what fromisoformat reads alike on every supported Python once the fraction has six
# digits: YYYY-MM-DD, then a separator, HH[:MM[:SS[.f]]] and an offset +HH:MM[:SS[.f]]
_ISO = re.compile(r"\d{4}-\d\d-\d\d(?:\D\d\d(?::\d\d(?::\d\d(?:\.\d{6})?)?)?"
                  r"(?:[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?", re.ASCII)


def _parse_timestamp(text: str, fmt: str) -> int:
    """The whole epoch seconds at or before a timestamp (floor, with no float
    in between); an ISO fraction (after a dot or a comma) is cut or padded to
    microseconds first, and ISO text outside the forms of ``_ISO`` fails."""
    text = text.strip()
    try:
        if fmt == ISO_FORMAT:
            iso = text.replace("Z", "+00:00")
            if "." in iso or "," in iso:
                iso = _FRACTION.sub(lambda m: f".{m[1]:0<6.6}", iso, 1)
            if not _ISO.fullmatch(iso):
                raise ValueError(f"Invalid isoformat string: {text!r}")
            dt = datetime.fromisoformat(iso)
        else:
            dt = datetime.strptime(text, fmt)
    except ValueError as exc:
        raise LogError(f"cannot parse timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return (dt - _EPOCH) // _SECOND


def _format_timestamp(seconds: int, fmt: str) -> str:
    dt = datetime.fromtimestamp(seconds, tz=timezone.utc)
    if fmt == ISO_FORMAT:
        return dt.isoformat().replace("+00:00", "Z")
    return dt.strftime(fmt)


def _coerce_value(text):
    """Sensitive attribute values: ``true``/``false`` (any case) as booleans,
    numbers where they parse, else strings; a blank cell is None.

    Non-finite float spellings (``nan``, ``inf``, ``-inf``) stay text: a NaN
    is not equal to itself, so it could never match or group as a value.
    """
    text = text.strip()
    if text == "":
        return None
    lowered = text.lower()
    if lowered in ("true", "false"):  # as XES spells a boolean
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


# --- CSV --------------------------------------------------------------------


def read_csv(path, colmap: CsvColumnMap = CsvColumnMap()) -> EventLog:
    """Load a flat CSV log: rows grouped by case, ordered by timestamp (stable).

    Case ids, activities and resources are taken verbatim, so that whatever
    :func:`write_csv` writes reads back the same; an empty resource cell
    means no resource.  Errors name the file and the line the first failing
    record starts on, as a row by row read would; a cell longer than
    ``csv.field_size_limit()`` is one.  Rows are read in chunks
    (:func:`_csv_chunks`) and checked and coded by columns (:class:`_CsvCases`).
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:  # skips a byte-order mark
            reader = csvlib.reader(handle)
            try:
                header = next(reader, [])
            except csvlib.Error as exc:
                raise LogError(f"{path}: row 1: {exc}") from None
            needed = [colmap.case_col, colmap.activity_col, colmap.timestamp_col, *colmap.sensitive_cols]
            if colmap.resource_col:
                needed.append(colmap.resource_col)
            missing = [c for c in needed if c not in header]
            if missing:
                raise LogError(f"{path}: missing columns {missing}; header is {header}")
            column = {name: i for i, name in enumerate(header)}  # the last of a repeated name
            cases = _CsvCases(path, colmap, len(header), [column[c] for c in needed])
            for chunk in _csv_chunks(handle, reader.line_num + 1):
                cases.add(*chunk)
    except OSError as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:  # its position is in a buffer, not in the file
        raise LogFileError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None
    return cases.log()


_CSV_CHARS = 1 << 16  # read at a time, then on to the end of the line
_CSV_ROWS = 1 << 12  # records csv.reader reads at a time


def _csv_chunks(handle, line):
    """Per chunk of the rows of an open CSV file, the first starting on line
    ``line``: their cells in one list, each row's cell count (0 for a blank
    line), a function that gives the line each starts on and the line after
    them, and the csv.Error that ends the file after them, or None.

    A chunk is whole lines, about ``_CSV_CHARS``.  One with no ``"``, NUL or
    lone CR and no line longer than the field limit (which could hold a
    longer cell) is split at its line ends and commas, as csv.reader would
    split it.  The first other chunk and the rest of the file go through
    csv.reader, which starts at a record boundary: no record before holds a
    quote.  Its record spans a line and one more per line break (CRLF, CR or
    LF) in its cells."""
    limit = csvlib.field_size_limit()
    while chunk := handle.read(_CSV_CHARS):
        if chunk[-1] != "\n":
            chunk += handle.readline()
        text = chunk.replace("\r\n", "\n")
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        sizes = np.fromiter(map(len, lines), np.int64, len(lines))
        if '"' in text or "\0" in text or "\r" in text or sizes.max() > limit:
            break
        commas = np.fromiter(map(str.count, lines, repeat(",")), np.int64, len(lines))
        yield (",".join(filter(None, lines)).split(","), np.where(sizes > 0, commas + 1, 0),
               partial(np.arange, line, line + len(lines) + 1), None)
        line += len(lines)
    else:
        return
    reader = csvlib.reader(chain(io.StringIO(chunk, newline=""), handle))
    while True:
        rows, error, start = [], None, line + reader.line_num
        try:
            rows += islice(reader, _CSV_ROWS)
        except csvlib.Error as exc:  # the rows before the failing record are kept
            error = exc
        if not rows and error is None:
            return
        yield (list(chain.from_iterable(rows)), np.fromiter(map(len, rows), np.int64, len(rows)),
               partial(_record_starts, rows, start), error)


def _record_starts(rows, line) -> np.ndarray:
    """The line each of csv.reader's ``rows`` starts on, the first on
    ``line``, and the line after them."""
    return np.cumsum([line] + [
        1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row) for row in rows
    ])


class _CsvCases:
    """The cases of one CSV read, a chunk of rows at a time: each column is
    coded through a memo in one map, every row is checked on the codes, and
    the first failing row in file order raises what a row by row read would.
    Case ids are coded in order of first row, and sensitive values by value
    and type (as True == 1 == 1.0 would hide a conflict), to be compared
    with the case's first row."""

    def __init__(self, path, colmap: CsvColumnMap, width, at):
        self.path, self.width, self.at, self.attrs = path, width, at, colmap.sensitive_cols
        self.resources = bool(colmap.resource_col)
        self.case = _Memo(lambda _: len(self.case))
        self.label = _Memo(lambda _: len(self.label))  # an activity or resource -> its code
        self.stamp = _Memo(lambda text: _parse_timestamp(text, colmap.timestamp_format))
        self.value = _Memo(_coerce_value)
        kinds = _Memo(lambda _: len(kinds))
        self.kind = _Memo(lambda text: kinds[type(self.value[text]), self.value[text]])
        self.first = [np.zeros(0, np.int64) for _ in self.attrs]  # per case, its first row's kinds
        self.sensitive = []
        self.events = [[np.zeros(0, np.int64)] for _ in range(4)]  # case, activity, resource, seconds

    def add(self, flat, cells, starts, error) -> None:
        """Check and code a chunk of :func:`_csv_chunks`; raise its first error."""
        rows, width, known = np.flatnonzero(cells), self.width, len(self.case)  # no blank lines
        wrong = np.flatnonzero(cells[rows] != width)[:1].tolist()
        n = wrong[0] if wrong else len(rows)
        case_ids, activities, stamps, *values = (flat[k : n * width : width] for k in self.at)
        code = lambda memo, column: np.fromiter(map(memo.__getitem__, column), np.int64, n)  # noqa: E731
        case, activity = code(self.case, case_ids), code(self.label, activities)
        resource = code(self.label, values.pop()) if self.resources else np.full(n, -1)
        kinds = [code(self.kind, column) for column in values]
        seconds, failed = [], None
        try:
            seconds += map(self.stamp.__getitem__, stamps)
        except LogError as exc:  # the timestamp of row len(seconds)
            failed = exc
        found, first = np.unique(case, return_index=True)
        first = first[found >= known].tolist()  # the first row of each new case
        self.first = [np.concatenate((old, new[first])) for old, new in zip(self.first, kinds)]
        self.sensitive += [{attr: self.value[column[row]] for attr, column in zip(self.attrs, values)}
                           for row in first]
        bad = (case == self.case.get("", -1)) | (activity == self.label.get("", -1))
        for new, old in zip(kinds, self.first):
            bad |= new != old[case]
        bad[len(seconds):] = True  # from the row whose timestamp failed, if one did
        for row in np.flatnonzero(bad)[:1].tolist():
            what = self._failure(row, case_ids, activities, values, kinds, case, len(seconds), failed)
            raise LogError(f"{self.path}: row {starts()[rows[row]]}{what}")
        for part, codes in zip(self.events, (case, activity, resource, seconds)):
            part.append(np.asarray(codes, np.int64))
        if wrong:
            raise LogError(f"{self.path}: row {starts()[rows[n]]} has {cells[rows[n]]} cells; "
                           f"the header has {width}")
        if error is not None:
            raise LogError(f"{self.path}: row {starts()[-1]}: {error}")

    def _failure(self, row, case_ids, activities, values, kinds, case, parsed, failed) -> str:
        """What the first failing check of a row says, in the row loop's
        order; the timestamp of row ``parsed`` failed with ``failed``."""
        if not case_ids[row]:
            return " has an empty case id"
        if not activities[row]:
            return " has an empty activity"
        if row == parsed:
            return f": {failed}"
        at = case[row]
        attr, column = next((attr, column) for attr, column, new, old
                            in zip(self.attrs, values, kinds, self.first) if new[row] != old[at])
        pair = sorted([str(self.sensitive[at][attr]), str(self.value[column[row]])])
        return (f": case {case_ids[row]!r} has conflicting values {pair} "
                f"for sensitive attribute {attr!r}")

    def log(self) -> EventLog:
        """The log of the rows added: cases in order of first row, each one's
        events in file order, grouped by a stable sort of the case codes."""
        case, activity, resource, seconds = map(np.concatenate, self.events)
        order, labels = np.argsort(case, kind="stable"), list(self.label)
        columns = _Columns()
        columns.extend(list(self.case), np.array(labels, object)[activity[order]],
                       np.array([*(label or None for label in labels), None], object)[resource[order]],
                       seconds[order].tolist(), np.bincount(case, minlength=len(self.case)).tolist(),
                       self.sensitive)
        return columns.log(self.attrs)


def write_csv(log: EventLog, path, colmap: CsvColumnMap = CsvColumnMap()) -> None:
    path = Path(path)
    header = [colmap.case_col, colmap.activity_col, colmap.timestamp_col]
    if colmap.resource_col:
        header.append(colmap.resource_col)
    header += list(colmap.sensitive_cols)
    stamp = _Memo(lambda seconds: _format_timestamp(seconds, colmap.timestamp_format)).__getitem__

    def event(activity, resource, seconds):
        if not colmap.resource_col:
            return activity, stamp(seconds)
        return activity, stamp(seconds), "" if resource is None else resource

    try:
        handle = path.open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise LogFileError(f"cannot write {path}: {exc}") from None
    with handle:
        writer = csvlib.writer(handle)
        writer.writerow(header)
        events, bounds = _rendered(log, event), log.bounds.tolist()
        for case_id, sensitive, a, b in zip(log.case_ids, log.case_sensitive, bounds, bounds[1:]):
            tail = []
            for attr in colmap.sensitive_cols:
                value = sensitive.get(attr)
                if isinstance(value, bool):
                    value = str(value).lower()  # the XES spelling
                tail.append("" if value is None else value)
            writer.writerows([case_id, *fields, *tail] for fields in events[a:b])


def _rendered(log: EventLog, render) -> list:
    """Per event of ``log``, ``render(activity, resource, seconds)`` of its
    fields, made once per distinct event."""
    stamps, stamp_at = np.unique(log.seconds, return_inverse=True)
    codes, one = _group([(log.activity_codes, len(log.activity_labels)),
                         (log.resource_codes + 1, len(log.resource_labels) + 1),
                         (stamp_at, len(stamps))])
    resources = log.resource_labels + (None,)  # code -1 picks None
    made = list(map(render, map(log.activity_labels.__getitem__, log.activity_codes[one].tolist()),
                    map(resources.__getitem__, log.resource_codes[one].tolist()),
                    log.seconds[one].tolist()))
    return list(map(made.__getitem__, codes.tolist()))


# --- XES ---------------------------------------------------------------------

_XES_NS = "http://www.xes-standard.org/"
_XES_HEADER = "<?xml version='1.0' encoding='utf-8'?>\n"
_XES_LOG_TAG = f'<log xes.version="2.0" xmlns="{_XES_NS}"'


def _xes_float(text):
    """A float, or Python's spelling of it when not finite (``NaN`` and
    `` nan `` read as ``nan``, ``1e999`` as ``inf``), which stays text."""
    value = float(text)
    return value if math.isfinite(value) else str(value)


def _xes_boolean(text):
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


# XES attribute tags whose value is kept as the text it is, and the typed ones
_XES_TEXT_TAGS = frozenset({"string", "date", "id"})
_XES_CASTS = {"int": int, "float": _xes_float, "boolean": _xes_boolean}

# the escaping ElementTree applies to attribute values, in one pass
_ATTR_ESCAPES = str.maketrans(
    {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "\r": "&#13;",
        "\n": "&#10;",
        "\t": "&#09;",
    }
)


def _bad_value(case_id, tag, key, value) -> LogError:
    """The error for a kept typed XES attribute whose value does not cast;
    ``case_id`` is None when the trace has no readable case id."""
    where = "" if case_id is None else f"case {case_id!r}: "
    what = "no value" if value is None else f"bad value {value!r}"
    return LogError(f"{where}<{tag}> attribute {key!r} has {what}")


# a trace's layout is its text with the values emptied, read in stretches: the
# trace's attributes before its first event, then for each event its
# attributes, its end and the trace's attributes up to the next event
_CLOSE = ("", "", "", "/")  # the token of an event's end
# an event's fields, by their index in a part's ``fields``
_FIELDS = {"concept:name": 0, "time:timestamp": 1, "org:resource": 2}
_HELD_BYTES = 1 << 20  # plans and parts kept at a time, by what they and their keys hold
_PART_BYTES = 160  # about what a plan or a part holds beside its text key
_PATTERN_BYTES = 20  # about what a plan's pattern, compiled and as text, holds per layout character
_PATTERN_USES = 1536  # a layout's traces to come that pay its pattern's compile (:func:`_pays`)


def _picker(at):
    """``values`` -> the tuple of its items at the indices ``at``."""
    if len(at) == 1:
        first = at[0]
        return lambda values: (values[first],)
    return itemgetter(*at) if at else lambda values: ()


def _kept(tag, key, keys) -> bool:
    """Whether an attribute is kept: its key one of ``keys`` and its tag
    known; any other is dropped and counted."""
    return key in keys and (tag in _XES_TEXT_TAGS or tag in _XES_CASTS)


class _Part:
    """What one stretch of a layout makes of its values, found by one walk
    of its tokens; ``slot`` indexes its values from the stretch's first.

    ``trace`` lists the kept trace attributes as ``(key, tag, slot)``;
    ``closes`` counts event ends (one in an event's stretch, none in the
    first); ``fields`` holds the slot of the event's last activity,
    timestamp and resource (-1 for none), and ``typed`` whether the event
    has a typed kept attribute.
    """

    __slots__ = ("size", "dropped", "trace", "closes", "fields", "typed")

    def __init__(self, tokens, kept):
        self.trace, self.fields, self.typed, self.dropped = [], [-1, -1, -1], False, 0
        self.closes = tokens.count(_CLOSE)
        self.size = len(tokens) - self.closes
        in_event, slot = self.closes > 0, 0
        for tag, key, _, end in tokens:
            if end:
                in_event = False
                continue
            if not _kept(tag, key, kept):
                self.dropped += 1
            elif not in_event:
                self.trace.append((key, tag, slot))
            elif tag in _XES_CASTS:
                self.typed = True
            elif key in _FIELDS:
                self.fields[_FIELDS[key]] = slot
            slot += 1


class _Plan:
    """How the traces of one layout make their cases: a trace's values are
    its attributes' in document order, and each field of its case is picked
    from them by index (-1 picks the None after them).  ``fields`` holds
    each event's activity, timestamp and resource index, ``sensitive`` each
    sensitive attribute's, ``casts`` the cast of each typed one."""

    __slots__ = ("dropped", "case_at", "pick_acts", "pick_stamps", "pick_resources",
                 "pick_sensitive", "casts", "uses")

    def __init__(self, dropped, case_at, fields, sensitive, casts):
        self.dropped, self.case_at, self.casts, self.uses = dropped, case_at, casts, 0
        acts, stamps, resources = zip(*fields)
        self.pick_acts, self.pick_stamps = _picker(acts), _picker(stamps)
        self.pick_resources, self.pick_sensitive = _picker(resources), _picker(sensitive)


class _XesCases:
    """The cases of one XES read.  Traces in the canonical form come as
    their text, a block at a time (:meth:`traces`), and the plan of each
    one's layout, compiled once, builds its case if every value holds; any
    other trace comes from the callbacks' walk (:meth:`add`), which settles
    its attributes and raises the reader's content errors in document
    order.  The first content error is kept, to be raised once the whole
    file has parsed: a parse error anywhere wins."""

    def __init__(self, path, sensitive_attrs):
        self.path, self.sensitive_attrs = path, tuple(sensitive_attrs)
        self.kept = {"concept:name", "org:resource", "time:timestamp", *self.sensitive_attrs}
        self.seconds = _Memo(lambda text: _parse_timestamp(text, ISO_FORMAT))
        self.columns = _Columns()
        # emptied text -> its plan (None: none builds it); a stretch -> its part (False:
        # out of the form); a quote count -> its split reads, and (pattern's fullmatch, plan)
        self.plans, self.parts, self.splits, self.patterns, self.held = {}, {}, {}, {}, 0
        self.dropped, self.error = 0, None

    def traces(self, pieces, ahead) -> int:
        """Add the cases of whole traces, each piece the text after one
        ``</trace>`` up to the next, up to the first that :meth:`_shape` refuses
        or whose values fail, and return how many it added.  A piece that the
        pattern of its quote count matches has that layout, and plain values:
        its groups.  ``ahead``: the file's bytes after the pieces per byte up to them."""
        built, stamp, patterns = [], self.seconds.__getitem__, self.patterns
        for piece in pieces:
            found = patterns and patterns.get(piece.count('"'))  # (fullmatch, plan)
            if found and (match := found[0](piece)):
                plan, values = found[1], (*match.groups(), None)  # None: an absent value
            else:
                plan, values = self._shape(piece, ahead)
                if plan is None:
                    break
            acts = plan.pick_acts(values)
            if "" in acts:
                break
            case = dict(zip(self.sensitive_attrs, plan.pick_sensitive(values)))
            try:
                for attr, cast in plan.casts.items():
                    case[attr] = cast(case[attr])
                stamps = list(map(stamp, plan.pick_stamps(values)))
            except ValueError:  # LogError included
                break
            built.append((values[plan.case_at], acts, plan.pick_resources(values), stamps, case))
            self.dropped += plan.dropped
        if built:
            case_ids, acts, resources, stamps, sensitive = zip(*built)
            flat = map(chain.from_iterable, (acts, resources, stamps))
            self.columns.extend(case_ids, *flat, map(len, stamps), sensitive)
        return len(built)

    def _shape(self, piece, ahead):
        """The plan of a piece's layout and its values, None after them, or
        ``(None, None)`` for one not led by XML whitespace alone to its
        ``<trace>``, out of the form, of a layout no plan builds or with a
        value expat would refuse.  Split at ``"``, every fourth piece is a
        value when the quotes number four per attribute; the text with those
        emptied finds the plan, whose layout expat has checked once.  A trace
        of that text holds the same tokens, and is well formed too, once no
        value holds ``&``, ``<``, a control character, U+FFFE or U+FFFF.  A
        kept plan's pattern is compiled once it pays, if it fits in half the bound."""
        space, opening, text = piece.partition("<trace>")
        if not opening or space.strip(" \t\r\n"):
            return None, None
        pieces = text.split('"')
        values = pieces[3::4]
        pieces[3::4] = [""] * len(values)
        shape = '"'.join(pieces)
        plan = self.plans.get(shape, False)
        if plan is False:  # a layout not met, or not kept
            plan = self._plan(shape)
            if self._keep(len(shape) + _PART_BYTES):
                self.plans[shape] = plan
        if plan is None or _UNPLAIN.search("".join(values)):
            return None, None  # a reference, or a character the parser normalizes or refuses
        plan.uses, count = plan.uses + 1, len(pieces) - 1
        self.splits[count] = splits = self.splits.get(count, 0) + 1
        if count not in self.patterns and _pays(plan.uses, splits, ahead) and shape in self.plans \
                and self._keep(len(shape) * _PATTERN_BYTES, spare=_HELD_BYTES // 2):
            self.patterns[count] = re.compile(_pattern(pieces)).fullmatch, plan
        values.append(None)
        return plan, values

    def add(self, trace, events) -> None:
        """Add the case of a trace read by the callbacks, from its attributes
        and each event's as ``(tag, key, value)`` in document order (value
        None where an attribute has none)."""
        if self.error is not None:
            return
        try:
            self._walk(trace, events)
        except LogError as exc:
            self.error = LogError(f"{self.path}: {exc}")

    def _plan(self, shape):
        """The plan of a layout, or None unless the regex grammar reads each
        stretch whole and each ``"`` is an attribute's, the first stretch
        closes no event and every other closes its own, each event has a text
        activity and timestamp and no typed kept attribute, the case id is
        text, each typed trace attribute is the last value of a sensitive one
        and the layout, its values empty, is well formed XML."""
        parts = list(map(self._part, shape.split("<event>")))
        if False in parts or shape.count('"') != 4 * sum(part.size for part in parts):
            return None
        first, *events = parts
        if first.closes or not events or any(
            part.closes != 1 or part.typed or -1 in part.fields[:2] for part in events
        ):
            return None
        trace, fields, start = [], [], 0  # slots from the trace's first value
        for part in parts:
            trace += [(key, tag, start + slot) for key, tag, slot in part.trace]
            fields.append([start + slot if slot >= 0 else -1 for slot in part.fields])
            start += part.size
        final = {key: (tag, slot) for key, tag, slot in trace}  # the last of each key
        case_tag, case_at = final.get("concept:name", (None, -1))
        if case_tag not in _XES_TEXT_TAGS or not all(
            key in self.sensitive_attrs and final[key] == (tag, slot)
            for key, tag, slot in trace if tag in _XES_CASTS
        ):
            return None
        sensitive = [final.get(attr, (None, -1)) for attr in self.sensitive_attrs]
        casts = {attr: _XES_CASTS[tag] for attr, (tag, _) in zip(self.sensitive_attrs, sensitive)
                 if tag in _XES_CASTS}
        try:  # a trace of the layout, as expat reads it, is well formed if this is
            expat.ParserCreate(namespace_separator="}").Parse(f"<trace>{shape}</trace>", True)
        except expat.ExpatError:  # the callbacks report it
            return None
        return _Plan(sum(part.dropped for part in parts), case_at, fields[1:],
                     [slot for _, slot in sensitive], casts)

    def _part(self, text):
        """The part of a stretch of emptied trace text, or False when the
        regex grammar does not read it whole."""
        part = self.parts.get(text)
        if part is None:
            tokens = _tokens(text)
            part = False if tokens is None else _Part(tokens, self.kept)
            if self._keep(len(text) + _PART_BYTES):
                self.parts[text] = part
        return part

    def _keep(self, cost, spare=0) -> bool:
        kept = self.held + cost + spare <= _HELD_BYTES  # else made again on each use
        self.held += cost * kept
        return kept

    def _settle(self, owner):
        """An owner's read attributes from its ``(tag, key, value)``, the last
        of a repeated key winning, and its first failed cast as ``(tag, key,
        value)`` (or None); the attributes it drops are counted."""
        attrs, bad, kept = {}, None, self.kept
        for tag, key, value in owner:
            if not _kept(tag, key, kept):
                self.dropped += 1
            elif tag in _XES_TEXT_TAGS:
                attrs[key] = value
            else:
                try:
                    attrs[key] = _XES_CASTS[tag](value)
                except (TypeError, ValueError):
                    bad = bad or (tag, key, value)
        return attrs, bad

    def _walk(self, trace, events):
        """Add the case of a trace's attributes and its events', checked in
        the order of a tree walk: the trace's attributes, then each event's."""
        attrs, bad = self._settle(trace)
        case_id = attrs.get("concept:name")
        if bad is not None:
            raise _bad_value(case_id, *bad)
        if case_id is None:
            raise LogError("trace without concept:name case id")
        if not events:
            raise LogError(f"case {str(case_id)!r}: empty traces are not allowed")
        activities, resources, seconds = [], [], []
        for event in events:
            fields, bad = self._settle(event)
            if bad is not None:
                raise _bad_value(case_id, *bad)
            activity = fields.get("concept:name")
            if activity is None:
                raise LogError(f"case {case_id!r} has an event without concept:name")
            stamp = fields.get("time:timestamp")
            if stamp is None:
                raise LogError(f"case {case_id!r} has an event without time:timestamp")
            try:
                seconds.append(self.seconds[str(stamp)])
            except LogError as exc:
                raise LogError(f"case {case_id!r}: {exc}") from None
            label = str(activity)
            if not label:
                raise LogError("event activity label must be non-empty")
            activities.append(label)
            resource = fields.get("org:resource")
            resources.append(None if resource is None else str(resource))
        sensitive = {attr: attrs.get(attr) for attr in self.sensitive_attrs}
        self.columns.add(str(case_id), activities, resources, seconds, sensitive)


_BLOCK_BYTES = 1 << 16  # read at a time
_TRACE_BYTES = 1 << 20  # a longer trace is read through the callbacks
_END = b"</trace>"
# a trace's tokens in the canonical form: an attribute, of any tag but event, whose
# value the parser does not normalize (no reference, tab or line break), and an
# event's start or end
_VALUE = r'"([^"&<\t\n\r]*)"'
_TOKEN = re.compile(rf"<(?:(?!event )(\w+) key={_VALUE} value={_VALUE} ?/>|(/?)event>)")
# what no value read as text holds: a reference, a character the parser
# normalizes (tab, line break) and one XML 1.0 does not allow
_UNPLAIN_CHARS = "&<\x00-\x1f\ufffe\uffff"
_UNPLAIN = re.compile(f"[{_UNPLAIN_CHARS}]")
_BLANK = bytes(byte if byte > 0x7F else 0x20 for byte in range(256))  # ASCII to spaces


def _tokens(text):
    """The tokens of text in the canonical form, or None: an attribute
    ``(tag, key, value, "")``, an event's start ``("", "", "", "")`` and its
    end ``("", "", "", "/")``."""
    found = _TOKEN.findall(text)
    return found if text.count("<") == len(found) else None  # each markup character starts one


def _pattern(pieces) -> str:
    """The pattern of a layout split at ``"``, its values emptied: ``<trace>``
    led by XML whitespace, then the layout with a group of plain text per value."""
    return "[ \t\r\n]*<trace>" + '"'.join(
        f'([^"{_UNPLAIN_CHARS}]*)' if at % 4 == 3 else re.escape(piece)
        for at, piece in enumerate(pieces))


def _pays(uses, splits, ahead) -> bool:
    """Whether a layout's pattern pays for its compile: its ``uses`` split reads
    less two standard deviations, times ``ahead``, reach ``_PATTERN_USES``, and
    are three in four of the ``splits`` of its quote count, all of which try it."""
    low = uses - 2 * uses ** 0.5
    return low * ahead >= _PATTERN_USES and 4 * low >= 3 * splits


def _stand_in(taken):
    """What expat reads in place of traces taken as text: a line feed per
    line break of theirs (CRLF, CR or LF), then their last line with its
    ASCII bytes blanked and the rest kept, so that expat counts lines and
    columns on past them as it would have through them."""
    breaks, last = taken.count(b"\n"), taken.rfind(b"\n")
    if b"\r" in taken:
        breaks += taken.count(b"\r") - taken.count(b"\r\n")
        last = max(last, taken.rfind(b"\r"))
    return b"\n" * breaks + taken[last + 1 :].translate(_BLANK)


def _read_traces(handle, cases) -> None:
    """Hand each trace of an XES file to ``cases``, reading the file once, in
    blocks, through one expat parser.  After its callbacks close a trace at a
    plain ``</trace>`` in a UTF-8 file with no document type declaration,
    the whole traces of each block go to ``cases`` as text, decoded at once
    and split at ``</trace>``, and expat reads only their :func:`_stand_in`:
    ``cases`` builds a trace only once its layout and values are shown to be
    well formed.  The first trace it does not build from its text (one out
    of the canonical form, quoted text between its elements included, one
    no plan builds or one not UTF-8) sends itself and the rest of its block
    to the callbacks, which hand over each trace's attributes and its
    events'; a trace longer than ``_TRACE_BYTES`` goes to them as well."""
    local_names = {}  # raw expat element name -> local name
    depth, in_event = 0, False  # the root at depth 1
    trace, events = None, None  # the open trace's attributes, and each of its events'
    plain, closed = True, -1  # whether to take traces as text; the file offset after the last
    skipped = 0  # the bytes of the traces taken as text beyond their stand-ins
    parser = expat.ParserCreate(namespace_separator="}")

    def declared(*decl):  # an XML declaration (version, encoding, standalone) or a document type
        nonlocal plain
        plain = plain and len(decl) == 3 and (decl[1] or "utf-8").lower() == "utf-8"

    def start(name, attrs):
        nonlocal depth, trace, events, in_event
        depth += 1
        tag = local_names.get(name) or local_names.setdefault(name, name.rsplit("}", 1)[-1])
        if depth == 2 and tag == "trace":
            trace, events = [], []
        elif depth == 3 and trace is not None and tag == "event":
            events.append([])
            in_event = True
        elif (depth == 3 and trace is not None) or (depth == 4 and in_event):
            key = attrs.get("key")
            if key is not None:
                (events[-1] if in_event else trace).append((tag, key, attrs.get("value")))

    def end(name):
        nonlocal depth, trace, in_event, closed
        if depth == 3:
            in_event = False
        elif depth == 2 and trace is not None:
            cases.add(trace, events)
            trace, closed = None, parser.CurrentByteIndex + skipped + len(_END)
        depth -= 1

    parser.XmlDeclHandler = parser.StartDoctypeDeclHandler = declared
    parser.StartElementHandler, parser.EndElementHandler = start, end
    # the bytes read but not parsed, their file offset, and the file's size
    pending, offset, size = bytearray(), 0, os.fstat(handle.fileno()).st_size
    while True:
        block = handle.read(_BLOCK_BYTES)
        pending += block
        parsed = taken = 0  # pending[parsed:taken] is read as text but not parsed
        canonical = True  # False once a trace not built from its text stops the text reads
        while plain and (stop := pending.find(_END, taken)) >= 0:
            stop += len(_END)
            if parser.StartElementHandler is None:  # every whole trace left, as text
                stop = pending.rfind(_END) + len(_END)
                try:
                    text = pending[taken:stop].decode()
                except UnicodeDecodeError as exc:  # expat reports it, in the trace that holds it
                    text, canonical = pending[taken : taken + exc.start].decode(), False
                traces = text.split("</trace>")[:-1]
                ahead = (size - offset - stop) / (offset + stop)
                if (built := cases.traces(traces, ahead)) < len(traces) or not canonical:
                    taken += len("".join(traces[:built]).encode()) + built * len(_END)
                    canonical = False  # the callbacks read on to the end of the block
                    break
                taken = stop
            else:
                parser.Parse(pending[taken:stop])
                parsed = taken = stop
                if plain and closed == offset + stop:  # a trace end to read text from
                    parser.StartElementHandler = parser.EndElementHandler = None
        stand_in = _stand_in(pending[parsed:taken])
        skipped += taken - parsed - len(stand_in)
        parser.Parse(stand_in)
        if not canonical or not block or len(pending) - taken > _TRACE_BYTES:
            parser.StartElementHandler, parser.EndElementHandler = start, end
        if parser.StartElementHandler is not None:  # all but what may start a closing tag
            cut = max(taken, len(pending) - len(_END) + 1) if block else len(pending)
            parser.Parse(pending[taken:cut], not block)
            taken = cut
        if not block:
            return
        del pending[:taken]
        offset += taken


def read_xes(path, sensitive_attrs=()) -> EventLog:
    """Load an XES log; each case is ordered by timestamp (stable).

    Standard keys: concept:name (case id on traces, activity on events),
    org:resource, time:timestamp.  Declared sensitive attributes are read
    from trace-level attributes (missing ones become explicit nulls); other
    trace/event attributes are dropped with a counted warning.  Only direct
    children of ``<trace>`` and ``<event>`` are attributes.  A value is read
    by its tag: ``<string>``, ``<id>`` and ``<date>`` verbatim, ``<int>`` and
    ``<float>`` as numbers (a non-finite float as Python spells it), ``<boolean>``
    ``true``/``false`` as ``True``/``False``; any other value of a typed tag
    is an error naming the file, case and key, as is an unparsable timestamp.

    The file is read once, in blocks, through one expat parser
    (:func:`_read_traces`).  A UTF-8 trace of ``<tag key=".." value=".." />``
    attributes and plain events is matched whole by the pattern of its
    layout, once that pays (:func:`_pays`), or else split at its quotes; the
    plan of its layout, checked by expat once, picks its case's values by
    position.  Every other trace (comments, references, a typed case id, a
    value that fails) is read through expat callbacks.  A parse error
    anywhere in the file is reported before any error in its content, and
    content errors come in document order of the traces.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            _read_traces(handle, cases := _XesCases(path, sensitive_attrs))
    except (OSError, expat.ExpatError) as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    if cases.error is not None:
        raise cases.error
    if cases.dropped:
        logger.warning("dropped %d unrecognized XES attributes from %s", cases.dropped, path)
    try:
        return cases.columns.log(cases.sensitive_attrs)
    except LogError as exc:  # a repeated case id
        raise LogError(f"{path}: {exc}") from None


def write_xes(log: EventLog, path) -> None:
    """Write an XES log, one element per line, indented by two spaces."""
    esc = _ATTR_ESCAPES
    label = _Memo(lambda text: text.translate(esc)).__getitem__
    keys = {attr: attr.translate(esc) for attr in log.sensitive_attrs}
    stamp = _Memo(lambda seconds: _format_timestamp(seconds, ISO_FORMAT)).__getitem__

    def event(activity, resource, seconds):
        if resource is not None:
            resource = f'\n      <string key="org:resource" value="{label(resource)}" />'
        return (f'\n    <event>\n      <string key="concept:name" value="{label(activity)}" />'
                f'{resource or ""}\n      <date key="time:timestamp" value="{stamp(seconds)}" />'
                "\n    </event>")

    try:
        with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as out:
            if not len(log):
                out.write(f"{_XES_HEADER}{_XES_LOG_TAG} />")
                return
            out.write(f"{_XES_HEADER}{_XES_LOG_TAG}>")
            events, bounds = _rendered(log, event), log.bounds.tolist()
            for case_id, sensitive, a, b in zip(log.case_ids, log.case_sensitive,
                                                 bounds, bounds[1:]):
                case_id = case_id.translate(esc)
                lines = [f'\n  <trace>\n    <string key="concept:name" value="{case_id}" />']
                for attr, key in keys.items():
                    value = sensitive.get(attr)
                    if value is None:
                        continue
                    if isinstance(value, bool):
                        tag, text = "boolean", str(value).lower()
                    elif isinstance(value, int):
                        tag, text = "int", str(value)
                    elif isinstance(value, float):
                        tag, text = "float", repr(value)
                    else:
                        tag, text = "string", str(value).translate(esc)
                    lines.append(f'\n    <{tag} key="{key}" value="{text}" />')
                lines += events[a:b]
                lines.append("\n  </trace>")
                out.write("".join(lines))
            out.write("\n</log>")
    except OSError as exc:
        raise LogFileError(f"cannot write {path}: {exc}") from None


# --- format dispatch ----------------------------------------------------------


def load_log(path, fmt=None, colmap: Optional[CsvColumnMap] = None,
             sensitive_attrs=()) -> EventLog:
    """Read an XES or CSV log (by ``fmt`` or the file suffix), its timestamps exact."""
    colmap = _sensitive_columns(colmap, sensitive_attrs)
    if log_format(fmt, path) == "xes":
        return read_xes(path, colmap.sensitive_cols)
    return read_csv(path, colmap)


def save_log(log: EventLog, path, fmt=None, colmap: Optional[CsvColumnMap] = None) -> None:
    colmap = _sensitive_columns(colmap, log.sensitive_attrs)
    if log_format(fmt, path) == "xes":
        write_xes(log, path)
    else:
        write_csv(log, path, colmap)


def _sensitive_columns(colmap: Optional[CsvColumnMap], attrs) -> CsvColumnMap:
    """``colmap`` (default columns if none) with the sensitive columns ``attrs``, the
    one source of a log's sensitive attributes; other sensitive columns are an error."""
    colmap, attrs = colmap or CsvColumnMap(), tuple(attrs)
    if colmap.sensitive_cols not in ((), attrs):
        raise LogError(f"CSV sensitive columns {list(colmap.sensitive_cols)} differ from "
                       f"the sensitive attributes {list(attrs)}")
    return replace(colmap, sensitive_cols=attrs)


def log_format(fmt, path=None) -> str:
    """``fmt``, or else the format the suffix of ``path`` names; an error
    unless it is xes or csv."""
    fmt = fmt or Path(path).suffix.lower().lstrip(".")
    if fmt not in ("xes", "csv"):
        raise LogError(f"unknown log format {fmt!r} (expected xes or csv)")
    return fmt


# --- run configuration ---------------------------------------------------------


@dataclass
class RunConfig:
    """Everything one run needs; mirrored 1:1 by CLI flags (flags win)."""

    input: Optional[str] = None
    output: Optional[str] = None
    format: Optional[str] = None
    algorithm: str = "tlkc"
    accuracy: str = "hours"
    L: int = 2
    K: int = 2
    C: float = 0.5
    theta: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    bk: str = "rel/ar"
    sensitive: tuple = ()
    discretize: tuple = ()
    relativize: bool = False
    tie_break: Optional[int] = None
    csv_case: str = "CaseId"
    csv_activity: str = "Activity"
    csv_timestamp: str = "Timestamp"
    csv_resource: Optional[str] = "Resource"
    csv_timestamp_format: str = ISO_FORMAT

    def __post_init__(self):
        # a comma string (a flag's, a config line's) is split; a blank resource column or
        # format is none, and another format than xes or csv fails
        self.sensitive, self.discretize = (
            tuple(s.strip() for s in v.split(",") if s.strip()) if isinstance(v, str) else tuple(v)
            for v in (self.sensitive, self.discretize)
        )
        self.csv_resource = self.csv_resource or None
        self.format = log_format(self.format) if self.format else None
        for attr in self.discretize:  # as discretize_sensitive would, after the read
            if attr not in self.sensitive:
                raise LogError(f"cannot discretize {attr!r}: it is not a declared sensitive attribute")
        self.params  # parsed and checked now, so a bad value fails before any read

    @property
    def params(self) -> PrivacyParams:
        """The privacy parameters of the run, parsed and checked on each access."""
        return PrivacyParams.of(self)

    def colmap(self) -> CsvColumnMap:
        return CsvColumnMap(
            case_col=self.csv_case,
            activity_col=self.csv_activity,
            timestamp_col=self.csv_timestamp,
            resource_col=self.csv_resource,
            sensitive_cols=self.sensitive,
            timestamp_format=self.csv_timestamp_format,
        )

    def items(self):
        """Every field in declaration order, the comma lists last and joined."""
        lists = ("sensitive", "discretize")
        for f in fields(self):
            if f.name not in lists:
                yield f.name, getattr(self, f.name)
        for name in lists:
            yield name, ",".join(getattr(self, name))


_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_CASTS = {int: int, float: float, bool: lambda v: _FLAGS[v.lower()]}

# per field, from its annotation (Optional[X] reads as X): the cast of a config
# value, str unless int, float or bool, and whether the field may hold None,
# which write_config writes as a blank value
_CONFIG_FIELDS = {
    name: (_CASTS.get(next(t for t in get_args(hint) or (hint,) if t is not type(None)), str),
           type(None) in get_args(hint))
    for name, hint in get_type_hints(RunConfig).items()
}


def read_config(path) -> dict:
    """Parse a flat ``key = value`` file of :class:`RunConfig` fields; a line
    whose first non-blank character is '#' is a comment, and a '#' anywhere
    else is part of the value."""
    path = Path(path)
    out = {}
    try:
        text = path.read_text(encoding="utf-8-sig")  # skips a byte-order mark
    except OSError as exc:
        raise LogError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LogError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise LogError(f"{path}:{lineno}: unknown config key {key!r}")
        cast, nullable = _CONFIG_FIELDS[key]
        if value == "":
            if nullable:  # blank value = None where None is allowed, else unset
                out[key] = None
            continue
        try:
            out[key] = cast(value)
        except (KeyError, ValueError):  # KeyError: not a flag value
            raise LogError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return out


def config_lines(config: RunConfig) -> list:
    """The ``key = value`` lines that :func:`write_config` writes."""
    return [f"{key} = {'' if value is None else value}" for key, value in config.items()]


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text("\n".join(config_lines(config)) + "\n", encoding="utf-8")
