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


def _memoized(convert, arg):
    """``convert(value, arg)``, computed once per distinct value; made for one
    read or write, since logs repeat few distinct timestamps and labels."""
    cache = {}

    def cached(value):
        out = cache.get(value)
        if out is None:
            out = cache[value] = convert(value, arg)
        return out

    return cached


def _coerce_value(text):
    """Sensitive attribute values: ``true``/``false`` (any case) as booleans,
    numbers where they parse, else strings.

    Non-finite float spellings (``nan``, ``inf``, ``-inf``) stay text: a NaN
    is not equal to itself, so it could never match or group as a value.
    """
    if text is None:
        return None
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
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csvlib.DictReader(handle)
        header = reader.fieldnames or []
        attrs = colmap.sensitive_cols
        needed = [colmap.case_col, colmap.activity_col, colmap.timestamp_col, *attrs]
        if colmap.resource_col:
            needed.append(colmap.resource_col)
        missing = [c for c in needed if c not in header]
        if missing:
            raise LogError(f"{path}: missing columns {missing}; header is {header}")
        cases: dict = {}  # case id -> its (exact timestamp, event) pairs and sensitive values
        for lineno, row in enumerate(reader, start=2):
            cid, activity = row[colmap.case_col], row[colmap.activity_col]
            if not cid:
                raise LogError(f"{path}: row {lineno} has an empty case id")
            if not activity:
                raise LogError(f"{path}: row {lineno} has an empty activity")
            try:
                ts = parse_stamp(row[colmap.timestamp_col])
            except LogError as exc:
                raise LogError(f"{path}: row {lineno}: {exc}") from None
            resource = (row[colmap.resource_col] or None) if colmap.resource_col else None
            # typed, as True == 1 == 1.0 would hide a conflict
            values = tuple((type(v), v) for v in (_coerce_value(row[a]) for a in attrs))
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


def _bad_value(path, case_id, tag, key, value) -> LogError:
    """The error for a kept typed XES attribute whose value does not cast;
    ``case_id`` is None when the trace has no readable case id."""
    where = f"{path}: " if case_id is None else f"{path}: case {case_id!r}: "
    what = "no value" if value is None else f"bad value {value!r}"
    return LogError(f"{where}<{tag}> attribute {key!r} has {what}")


class _LocalNames(dict):
    """Raw expat element name ("uri}tag" or "tag") -> local tag name."""

    def __missing__(self, name):
        tag = self[name] = name.rsplit("}", 1)[-1]
        return tag


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

    The file is parsed as a stream: only the open trace is held, and each
    case is built when its ``</trace>`` closes.  A parse error anywhere in
    the file is reported before any error in its content, and content errors
    come in document order of the traces.
    """
    path = Path(path)
    sensitive_attrs = tuple(sensitive_attrs)
    kept_keys = {"concept:name", "org:resource", "time:timestamp", *sensitive_attrs}
    make_event = event_maker(TimestampAccuracy.parse(accuracy))
    parse_stamp = _memoized(_parse_timestamp, ISO_FORMAT)
    local_names = _LocalNames()
    instances = []
    dropped_attrs = 0
    error = None  # the first content error, raised once the whole file has parsed
    depth = 0  # of the element being opened or closed; the root is at 1
    trace_attrs = trace_error = events = None  # the open trace, if any
    event_attrs = event_error = None  # the open event, if any

    def start(name, attrs):
        nonlocal depth, dropped_attrs
        nonlocal trace_attrs, trace_error, events, event_attrs, event_error
        depth += 1
        if depth == 4:
            if event_attrs is None:
                return
            out, tag = event_attrs, local_names[name]
        elif depth == 3:
            if events is None:
                return
            tag = local_names[name]
            if tag == "event":
                event_attrs, event_error = {}, None
                return
            out = trace_attrs
        else:
            if depth == 2 and local_names[name] == "trace":
                trace_attrs, trace_error, events = {}, None, []
            return
        # an attribute child of the open trace or event
        key = attrs.get("key")
        if key is None:
            return
        if key not in kept_keys:
            dropped_attrs += 1  # outside the modeled fields
            return
        value = attrs.get("value")
        if tag in _XES_TEXT_TAGS:
            out[key] = value
            return
        cast = _XES_CASTS.get(tag)
        if cast is None:
            dropped_attrs += 1
            return
        try:
            out[key] = cast(value)
        except (TypeError, ValueError):  # reported when the trace is checked
            if out is event_attrs:
                event_error = event_error or (tag, key, value)
            else:
                trace_error = trace_error or (tag, key, value)

    def end(name):
        nonlocal depth, events, event_attrs, error
        if depth == 3:
            if event_attrs is not None:
                events.append(event_error or event_attrs)
                event_attrs = None
        elif depth == 2 and events is not None:
            if error is None:
                try:
                    instances.append(instance(trace_attrs, trace_error, events))
                except LogError as exc:
                    error = exc
            events = None
        depth -= 1

    def instance(trace_attrs, trace_error, events):
        # checks in the order of a tree walk: trace attributes, then events
        case_id = trace_attrs.get("concept:name")
        if trace_error is not None:
            raise _bad_value(path, case_id, *trace_error)
        if case_id is None:
            raise LogError(f"{path}: trace without concept:name case id")
        stamped = []
        for ev_attrs in events:
            if isinstance(ev_attrs, tuple):  # a failed cast in this event
                raise _bad_value(path, case_id, *ev_attrs)
            activity = ev_attrs.get("concept:name")
            if activity is None:
                raise LogError(f"{path}: case {case_id!r} has an event without concept:name")
            stamp = ev_attrs.get("time:timestamp")
            if stamp is None:
                raise LogError(f"{path}: case {case_id!r} has an event without time:timestamp")
            try:
                ts = parse_stamp(str(stamp))
            except LogError as exc:
                raise LogError(f"{path}: case {case_id!r}: {exc}") from None
            resource = ev_attrs.get("org:resource")
            resource = None if resource is None else str(resource)
            stamped.append((ts, make_event(str(activity), resource, ts)))
        stamped.sort(key=itemgetter(0))  # stable: file order breaks ties
        sensitive = {attr: trace_attrs.get(attr) for attr in sensitive_attrs}
        return ProcessInstance(str(case_id), tuple(ev for _, ev in stamped), sensitive)

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    try:
        with path.open("rb") as handle:
            parser.ParseFile(handle)
    except (OSError, expat.ExpatError) as exc:
        raise LogFileError(f"cannot read {path}: {exc}") from None
    if error is not None:
        raise error
    if dropped_attrs:
        logger.warning("dropped %d unrecognized XES attributes from %s", dropped_attrs, path)
    return EventLog(tuple(instances), sensitive_attrs)


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
