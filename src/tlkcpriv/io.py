"""Reading and writing event logs (XES, CSV) and run configuration.

Timestamps are parsed to whole epoch seconds (UTC; naive stamps are taken as
UTC).  Each reader floors them to its ``accuracy`` as it reads, sharing equal
events as :func:`~tlkcpriv.log.truncate_to_accuracy` does, but orders each
case on the exact seconds: a read at ``T`` equals a read at seconds truncated
to ``T``.  Both formats round-trip every modeled field: case id, activity,
resource, timestamp and the declared case-level sensitive attributes.  XES
values keep the type their tag names; CSV cells are text, so CSV sensitive
values are read as numbers where they parse.
"""

from __future__ import annotations

import csv as csvlib
import logging
import math
import re
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Optional, get_args, get_type_hints
from xml.parsers import expat

from .analysis import check_requirements
from .log import EventLog, LogError, ProcessInstance, TimestampAccuracy, event_maker

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


def _parse_timestamp(text: str, fmt: str) -> int:
    text = text.strip()
    try:
        if fmt == ISO_FORMAT:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        else:
            dt = datetime.strptime(text, fmt)
    except ValueError as exc:
        raise LogError(f"cannot parse timestamp {text!r}: {exc}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _format_timestamp(seconds: int, fmt: str) -> str:
    dt = datetime.fromtimestamp(seconds, tz=timezone.utc)
    if fmt == ISO_FORMAT:
        return dt.isoformat().replace("+00:00", "Z")
    return dt.strftime(fmt)


def _memoized(convert, *args):
    """``convert(value, *args)``, computed once per distinct value; made for
    one read or write, since logs repeat few distinct timestamps and labels."""
    cache = {}

    def cached(value):
        out = cache.get(value, cache)  # the cache itself marks a miss, as None is a result
        if out is cache:
            out = cache[value] = convert(value, *args)
        return out

    return cached


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


def read_csv(
    path, colmap: CsvColumnMap = CsvColumnMap(), accuracy=TimestampAccuracy.SECONDS
) -> EventLog:
    """Load a flat CSV log: rows grouped by case, ordered by timestamp (stable),
    each timestamp then floored to ``accuracy``.

    Case ids, activities and resources are taken verbatim, so that whatever
    :func:`write_csv` writes reads back the same; an empty resource cell
    means no resource.  Errors name the file and the row.
    """
    path = Path(path)
    make_event = event_maker(TimestampAccuracy.parse(accuracy))
    parse_stamp = _memoized(_parse_timestamp, colmap.timestamp_format)
    coerce = _memoized(_coerce_value)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csvlib.reader(handle)
        header = next(reader, [])
        attrs = colmap.sensitive_cols
        needed = [colmap.case_col, colmap.activity_col, colmap.timestamp_col, *attrs]
        if colmap.resource_col:
            needed.append(colmap.resource_col)
        missing = [c for c in needed if c not in header]
        if missing:
            raise LogError(f"{path}: missing columns {missing}; header is {header}")
        column = {name: i for i, name in enumerate(header)}  # the last of a repeated name
        case_at, activity_at, stamp_at = (column[c] for c in needed[:3])
        attrs_at = [column[a] for a in attrs]
        resource_at = column[colmap.resource_col] if colmap.resource_col else None
        cases: dict = {}  # case id -> its (exact timestamp, event) pairs and sensitive values
        next_line = reader.line_num + 1
        for row in reader:
            lineno, next_line = next_line, reader.line_num + 1  # the line the record starts on
            if not row:  # a blank line
                continue
            if len(row) != len(header):
                raise LogError(
                    f"{path}: row {lineno} has {len(row)} cells; the header has {len(header)}"
                )
            cid, activity = row[case_at], row[activity_at]
            if not cid:
                raise LogError(f"{path}: row {lineno} has an empty case id")
            if not activity:
                raise LogError(f"{path}: row {lineno} has an empty activity")
            try:
                ts = parse_stamp(row[stamp_at])
            except LogError as exc:
                raise LogError(f"{path}: row {lineno}: {exc}") from None
            resource = (row[resource_at] or None) if resource_at is not None else None
            # typed, as True == 1 == 1.0 would hide a conflict
            values = tuple((type(v), v) for v in (coerce(row[i]) for i in attrs_at))
            events, first = cases.setdefault(cid, ([], values))
            if values != first:
                attr, old, new = next(d for d in zip(attrs, first, values) if d[1] != d[2])
                raise LogError(
                    f"{path}: row {lineno}: case {cid!r} has conflicting values "
                    f"{sorted([str(old[1]), str(new[1])])} for sensitive attribute {attr!r}"
                )
            events.append((ts, make_event(activity, resource, ts)))

    instances = []
    for cid, (events, values) in cases.items():
        events.sort(key=itemgetter(0))  # stable: file order breaks ties
        sensitive = {attr: v for attr, (_, v) in zip(attrs, values)}
        instances.append(ProcessInstance(cid, tuple(ev for _, ev in events), sensitive))
    return EventLog(tuple(instances), attrs)


def write_csv(log: EventLog, path, colmap: CsvColumnMap = CsvColumnMap()) -> None:
    path = Path(path)
    header = [colmap.case_col, colmap.activity_col, colmap.timestamp_col]
    if colmap.resource_col:
        header.append(colmap.resource_col)
    header += list(colmap.sensitive_cols)
    stamp = _memoized(_format_timestamp, colmap.timestamp_format)
    try:
        handle = path.open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise LogFileError(f"cannot write {path}: {exc}") from None
    with handle:
        writer = csvlib.writer(handle)
        writer.writerow(header)
        for inst in log:
            for ev in inst.trace:
                row = [
                    inst.case_id,
                    ev.activity,
                    stamp(ev.timestamp),
                ]
                if colmap.resource_col:
                    row.append(ev.resource if ev.resource is not None else "")
                for attr in colmap.sensitive_cols:
                    value = inst.sensitive.get(attr)
                    if isinstance(value, bool):
                        value = str(value).lower()  # the XES spelling
                    row.append("" if value is None else value)
                writer.writerow(row)


# --- XES ---------------------------------------------------------------------

_XES_NS = "http://www.xes-standard.org/"
_XES_HEADER = "<?xml version='1.0' encoding='utf-8'?>\n"
_XES_LOG_TAG = f'<log xes.version="2.0" xmlns="{_XES_NS}"'


def _xes_float(text):
    """A float, or its text when not finite (as :func:`_coerce_value`)."""
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


class _XesCases:
    """The cases of one XES read, each built from its trace's tokens: an
    attribute ``(tag, key, value, "")``, an event's start ``("", "", "", "")``
    and its end ``("", "", "", "/")``.  The first content error is kept, to be
    raised once the whole file has parsed: a parse error anywhere wins."""

    def __init__(self, path, sensitive_attrs, accuracy):
        self.path, self.sensitive_attrs = path, tuple(sensitive_attrs)
        self.kept = {"concept:name", "org:resource", "time:timestamp", *self.sensitive_attrs}
        self.make_event = event_maker(TimestampAccuracy.parse(accuracy))
        self.parse_stamp = _memoized(_parse_timestamp, ISO_FORMAT)
        self.instances, self.dropped, self.error = [], 0, None

    def add(self, tokens):
        if self.error is None:
            try:
                self.instances.append(self._instance(tokens))
            except LogError as exc:
                self.error = LogError(f"{self.path}: {exc}")

    def _instance(self, tokens):
        trace, events, kept = {}, [], self.kept
        owner = trace  # the attributes of the trace or of the open event
        for tag, key, value, end in tokens:
            if not tag:
                owner = trace if end else {}
                if not end:
                    events.append(owner)
            elif key not in kept:
                self.dropped += 1  # outside the modeled fields
            elif tag in _XES_TEXT_TAGS:
                owner[key] = value
            elif tag not in _XES_CASTS:
                self.dropped += 1
            else:
                try:
                    owner[key] = _XES_CASTS[tag](value)
                except (TypeError, ValueError):  # the first failed cast, under key None
                    owner.setdefault(None, (tag, key, value))
        # checks in the order of a tree walk: trace attributes, then events
        case_id = trace.get("concept:name")
        if None in trace:
            raise _bad_value(case_id, *trace[None])
        if case_id is None:
            raise LogError("trace without concept:name case id")
        stamped = []
        for attrs in events:
            if None in attrs:
                raise _bad_value(case_id, *attrs[None])
            activity = attrs.get("concept:name")
            if activity is None:
                raise LogError(f"case {case_id!r} has an event without concept:name")
            stamp = attrs.get("time:timestamp")
            if stamp is None:
                raise LogError(f"case {case_id!r} has an event without time:timestamp")
            try:
                ts = self.parse_stamp(str(stamp))
            except LogError as exc:
                raise LogError(f"case {case_id!r}: {exc}") from None
            resource = attrs.get("org:resource")
            resource = None if resource is None else str(resource)
            stamped.append((ts, self.make_event(str(activity), resource, ts)))
        stamped.sort(key=itemgetter(0))  # stable: file order breaks ties
        sensitive = {attr: trace.get(attr) for attr in self.sensitive_attrs}
        return ProcessInstance(str(case_id), tuple(ev for _, ev in stamped), sensitive)


_BLOCK_BYTES = 1 << 16  # read at a time
_TRACE_BYTES = 1 << 20  # a longer trace is read through the callbacks
_END = b"</trace>"
# a trace's tokens in the canonical form: an attribute, of any tag but event, whose
# value the parser does not normalize (no reference, tab or line break), and an
# event's start or end
_VALUE = r'"([^"&<\t\n\r]*)"'
_TOKEN = re.compile(rf"<(?:(?!event )(\w+) key={_VALUE} value={_VALUE} ?/>|(/?)event>)")


def _tokens(segment):
    """The tokens of a whitespace-led ``<trace>`` up to its closing tag, or None."""
    try:
        space, opening, text = segment.decode().partition("<trace>")
    except UnicodeDecodeError:  # a parse error, which expat reports
        return None
    if space.strip() or not opening:
        return None
    found = _TOKEN.findall(text)
    if text.count("<") != len(found):  # a markup character that starts no token
        return None
    ends = [end for tag, _, _, end in found if not tag]
    return found if ends == ["", "/"] * (len(ends) // 2) else None  # events open and close in turn


def _read_traces(handle, cases) -> None:
    """Hand each trace of an XES file to ``cases`` as its tokens, reading the file
    once, in blocks, through one expat parser.  After its callbacks close a trace
    at a plain ``</trace>`` in a UTF-8 file with no document type declaration, the
    regex tokenizes each whole trace and expat then checks it with no handler.  A
    trace out of the canonical form sends the rest of its block to the callbacks;
    a trace longer than ``_TRACE_BYTES`` goes to them as well."""
    local_names, keys = {}, {}  # raw expat element name -> local name; key -> its one string
    depth, tokens, in_event = 0, None, False  # the root at depth 1; the open trace and event
    plain, closed = True, -1  # whether to tokenize; the file offset after the last trace closed
    parser = expat.ParserCreate(namespace_separator="}")

    def declared(*decl):  # an XML declaration (version, encoding, standalone) or a document type
        nonlocal plain
        plain = plain and len(decl) == 3 and (decl[1] or "utf-8").lower() == "utf-8"

    def start(name, attrs):
        nonlocal depth, tokens, in_event
        depth += 1
        tag = local_names.get(name) or local_names.setdefault(name, name.rsplit("}", 1)[-1])
        if depth == 2 and tag == "trace":
            tokens = []
        elif depth == 3 and tokens is not None and tag == "event":
            tokens.append(("", "", "", ""))
            in_event = True
        elif (depth == 3 and tokens is not None) or (depth == 4 and in_event):
            key = attrs.get("key")
            if key is not None:
                tokens.append((tag, keys.setdefault(key, key), attrs.get("value"), ""))

    def end(name):
        nonlocal depth, tokens, in_event, closed
        if depth == 3 and in_event:
            tokens.append(("", "", "", "/"))
            in_event = False
        elif depth == 2 and tokens is not None:
            cases.add(tokens)
            tokens, closed = None, parser.CurrentByteIndex + len(_END)
        depth -= 1

    parser.XmlDeclHandler = parser.StartDoctypeDeclHandler = declared
    parser.StartElementHandler, parser.EndElementHandler = start, end
    pending, offset = bytearray(), 0  # the bytes read but not parsed, and their file offset
    while True:
        block = handle.read(_BLOCK_BYTES)
        pending += block
        parsed = taken = 0  # pending[parsed:taken] is tokenized but not parsed
        found = []  # None once a trace out of the form stops the tokenizer in this block
        while plain and (stop := pending.find(_END, taken)) >= 0:
            stop += len(_END)
            if parser.StartElementHandler is None:
                found = _tokens(pending[taken : stop - len(_END)])
                if found is None:  # the callbacks read on to the end of the block
                    break
                cases.add(found)
                taken = stop
            else:
                parser.Parse(pending[taken:stop])
                parsed = taken = stop
                if plain and closed == offset + stop:  # a trace end to tokenize from
                    parser.StartElementHandler = parser.EndElementHandler = None
        parser.Parse(pending[parsed:taken])
        if found is None or not block or len(pending) - taken > _TRACE_BYTES:
            parser.StartElementHandler, parser.EndElementHandler = start, end
        if parser.StartElementHandler is not None:  # all but what may start a closing tag
            cut = max(taken, len(pending) - len(_END) + 1) if block else len(pending)
            parser.Parse(pending[taken:cut], not block)
            taken = cut
        if not block:
            return
        del pending[:taken]
        offset += taken


def read_xes(path, sensitive_attrs=(), accuracy=TimestampAccuracy.SECONDS) -> EventLog:
    """Load an XES log; each case is ordered by timestamp (stable), and each
    timestamp then floored to ``accuracy``.

    Standard keys: concept:name (case id on traces, activity on events),
    org:resource, time:timestamp.  Declared sensitive attributes are read
    from trace-level attributes (missing ones become explicit nulls); other
    trace/event attributes are dropped with a counted warning.  Only direct
    children of ``<trace>`` and ``<event>`` are attributes.  A value is read
    by its tag: ``<string>``, ``<id>`` and ``<date>`` verbatim, ``<int>`` and
    ``<float>`` as numbers (a non-finite float as its text), ``<boolean>``
    ``true``/``false`` as ``True``/``False``; any other value of a typed tag
    is an error naming the file, case and key, as is an unparsable timestamp.

    The file is read once, in blocks that expat checks.  UTF-8 traces of
    ``<tag key=".." value=".." />`` attributes and plain events are tokenized by
    regex, others read through expat callbacks.  A parse error anywhere in the
    file is reported before any error in its content, and content errors come
    in document order of the traces.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            _read_traces(handle, cases := _XesCases(path, sensitive_attrs, accuracy))
    except (OSError, expat.ExpatError) as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    if cases.error is not None:
        raise cases.error
    if cases.dropped:
        logger.warning("dropped %d unrecognized XES attributes from %s", cases.dropped, path)
    try:
        return EventLog(tuple(cases.instances), cases.sensitive_attrs)
    except LogError as exc:  # a repeated case id
        raise LogError(f"{path}: {exc}") from None


def write_xes(log: EventLog, path) -> None:
    """Write an XES log, one element per line, indented by two spaces."""
    esc = _ATTR_ESCAPES
    label = _memoized(str.translate, esc)
    keys = {attr: attr.translate(esc) for attr in log.sensitive_attrs}
    stamp = _memoized(_format_timestamp, ISO_FORMAT)
    try:
        with open(path, "w", encoding="utf-8", errors="xmlcharrefreplace") as out:
            if not log.instances:
                out.write(f"{_XES_HEADER}{_XES_LOG_TAG} />")
                return
            out.write(f"{_XES_HEADER}{_XES_LOG_TAG}>")
            for inst in log:
                case_id = inst.case_id.translate(esc)
                lines = [f'\n  <trace>\n    <string key="concept:name" value="{case_id}" />']
                for attr, key in keys.items():
                    value = inst.sensitive.get(attr)
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
                for ev in inst.trace:
                    activity = label(ev.activity)
                    lines.append(
                        f'\n    <event>\n      <string key="concept:name" value="{activity}" />'
                    )
                    if ev.resource is not None:
                        resource = label(ev.resource)
                        lines.append(
                            f'\n      <string key="org:resource" value="{resource}" />'
                        )
                    lines.append(
                        f'\n      <date key="time:timestamp" value="{stamp(ev.timestamp)}" />'
                        "\n    </event>"
                    )
                lines.append("\n  </trace>")
                out.write("".join(lines))
            out.write("\n</log>")
    except OSError as exc:
        raise LogFileError(f"cannot write {path}: {exc}") from None


# --- format dispatch ----------------------------------------------------------


def load_log(path, fmt=None, colmap: Optional[CsvColumnMap] = None, sensitive_attrs=(),
             accuracy=TimestampAccuracy.SECONDS) -> EventLog:
    """Read an XES or CSV log (by ``fmt`` or the file suffix), its timestamps
    floored to ``accuracy`` as read."""
    fmt = fmt or _infer_format(path)
    if fmt == "xes":
        return read_xes(path, sensitive_attrs, accuracy)
    if fmt == "csv":
        colmap = colmap or CsvColumnMap(sensitive_cols=tuple(sensitive_attrs))
        return read_csv(path, colmap, accuracy)
    raise LogError(f"unknown log format {fmt!r} (expected xes or csv)")


def save_log(log: EventLog, path, fmt=None, colmap: Optional[CsvColumnMap] = None) -> None:
    fmt = fmt or _infer_format(path)
    if fmt == "xes":
        write_xes(log, path)
    elif fmt == "csv":
        colmap = colmap or CsvColumnMap(sensitive_cols=log.sensitive_attrs)
        write_csv(log, path, colmap)
    else:
        raise LogError(f"unknown log format {fmt!r} (expected xes or csv)")


def _infer_format(path) -> str:
    suffix = Path(path).suffix.lower().lstrip(".")
    return suffix


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
        self.sensitive = tuple(self.sensitive)
        self.discretize = tuple(self.discretize)
        check_requirements(self)

    def colmap(self) -> CsvColumnMap:
        return CsvColumnMap(
            case_col=self.csv_case,
            activity_col=self.csv_activity,
            timestamp_col=self.csv_timestamp,
            resource_col=self.csv_resource or None,
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


def split_list(text: str) -> tuple:
    """The non-empty items of a comma-separated list, stripped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


# the fields that may hold None, which write_config writes as a blank value
_NULLABLE = frozenset(
    name for name, hint in get_type_hints(RunConfig).items() if type(None) in get_args(hint)
)

_CONFIG_CASTS = {
    "L": int,
    "K": int,
    "tie_break": int,
    "C": float,
    "theta": float,
    "alpha": float,
    "beta": float,
    "relativize": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "sensitive": split_list,
    "discretize": split_list,
}


def read_config(path) -> dict:
    """Parse a flat ``key = value`` file of :class:`RunConfig` fields; a line
    whose first non-blank character is '#' is a comment, and a '#' anywhere
    else is part of the value."""
    path = Path(path)
    known = {f.name for f in fields(RunConfig)}
    out = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LogError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise LogError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise LogError(f"{path}:{lineno}: unknown config key {key!r}")
        if value == "":
            if key in _NULLABLE:  # blank value = None where None is allowed, else unset
                out[key] = None
            continue
        cast = _CONFIG_CASTS.get(key, str)
        try:
            out[key] = cast(value)
        except ValueError:
            raise LogError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return out


def config_lines(config: RunConfig) -> list:
    """The ``key = value`` lines that :func:`write_config` writes."""
    return [f"{key} = {'' if value is None else value}" for key, value in config.items()]


def write_config(config: RunConfig, path) -> None:
    Path(path).write_text("\n".join(config_lines(config)) + "\n", encoding="utf-8")
