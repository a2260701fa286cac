"""Reading and writing event logs (XES, CSV) and run configuration.

Timestamps are parsed to whole epoch seconds (UTC; naive stamps are taken as
UTC).  Both formats round-trip every modeled field: case id, activity,
resource, timestamp and the declared case-level sensitive attributes.
"""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
import csv as csvlib
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, get_args, get_type_hints

from .analysis import check_requirements
from .log import Event, EventLog, LogError, ProcessInstance

__all__ = [
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


def _coerce_value(text):
    """Sensitive attribute values: numbers where they parse, else strings."""
    if text is None:
        return None
    text = text.strip()
    if text == "":
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


# --- CSV --------------------------------------------------------------------


def read_csv(path, colmap: CsvColumnMap = CsvColumnMap()) -> EventLog:
    """Load a flat CSV log: rows grouped by case, ordered by timestamp (stable)."""
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise LogError(f"cannot read {path}: {exc}") from None
    with handle:
        reader = csvlib.DictReader(handle)
        header = reader.fieldnames or []
        needed = [colmap.case_col, colmap.activity_col, colmap.timestamp_col]
        needed += list(colmap.sensitive_cols)
        if colmap.resource_col:
            needed.append(colmap.resource_col)
        missing = [c for c in needed if c not in header]
        if missing:
            raise LogError(f"{path}: missing columns {missing}; header is {header}")
        rows_by_case: dict = {}
        order: list = []
        for lineno, row in enumerate(reader):
            cid = row[colmap.case_col].strip()
            if not cid:
                raise LogError(f"{path}: row {lineno + 2} has an empty case id")
            if cid not in rows_by_case:
                rows_by_case[cid] = []
                order.append(cid)
            rows_by_case[cid].append((lineno, row))

    instances = []
    for cid in order:
        rows = rows_by_case[cid]
        events = []
        for lineno, row in rows:
            ts = _parse_timestamp(row[colmap.timestamp_col], colmap.timestamp_format)
            resource = None
            if colmap.resource_col:
                resource = row[colmap.resource_col].strip() or None
            events.append((ts, lineno, Event(row[colmap.activity_col].strip(), resource, ts)))
        events.sort(key=lambda t: (t[0], t[1]))  # stable: file order breaks ties
        sensitive = {}
        for attr in colmap.sensitive_cols:
            values = {_coerce_value(row[attr]) for _, row in rows}
            if len(values) > 1:
                raise LogError(
                    f"{path}: case {cid!r} has conflicting values {sorted(map(str, values))} "
                    f"for sensitive attribute {attr!r}"
                )
            sensitive[attr] = next(iter(values))
        instances.append(ProcessInstance(cid, tuple(ev for _, _, ev in events), sensitive))
    return EventLog(tuple(instances), tuple(colmap.sensitive_cols))


def write_csv(log: EventLog, path, colmap: CsvColumnMap = CsvColumnMap()) -> None:
    path = Path(path)
    header = [colmap.case_col, colmap.activity_col, colmap.timestamp_col]
    if colmap.resource_col:
        header.append(colmap.resource_col)
    header += list(colmap.sensitive_cols)
    try:
        handle = path.open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise LogError(f"cannot write {path}: {exc}") from None
    with handle:
        writer = csvlib.writer(handle)
        writer.writerow(header)
        for inst in log:
            for ev in inst.trace:
                row = [
                    inst.case_id,
                    ev.activity,
                    _format_timestamp(ev.timestamp, colmap.timestamp_format),
                ]
                if colmap.resource_col:
                    row.append(ev.resource if ev.resource is not None else "")
                for attr in colmap.sensitive_cols:
                    value = inst.sensitive.get(attr)
                    row.append("" if value is None else value)
                writer.writerow(row)


# --- XES ---------------------------------------------------------------------

_XES_NS = "http://www.xes-standard.org/"


def read_xes(path, sensitive_attrs=()) -> EventLog:
    """Load an XES log.

    Standard keys: concept:name (case id on traces, activity on events),
    org:resource, time:timestamp.  Declared sensitive attributes are read
    from trace-level attributes (missing ones become explicit nulls); other
    trace/event attributes are dropped with a counted warning.
    """
    path = Path(path)
    try:
        tree = ET.parse(path)
    except (OSError, ET.ParseError) as exc:
        raise LogError(f"cannot read {path}: {exc}") from None
    root = tree.getroot()
    sensitive_attrs = tuple(sensitive_attrs)
    instances = []
    dropped_attrs = 0
    kept_keys = {"concept:name", "org:resource", "time:timestamp", *sensitive_attrs}

    def local(tag):
        return tag.rsplit("}", 1)[-1]

    def attr_map(element, skip_children=()):
        nonlocal dropped_attrs
        out = {}
        for child in element:
            tag = local(child.tag)
            if tag in skip_children:
                continue
            key = child.get("key")
            if key is None:
                continue
            if key not in kept_keys:
                dropped_attrs += 1  # outside the modeled fields
                continue
            value = child.get("value")
            if tag == "int":
                out[key] = int(value)
            elif tag == "float":
                out[key] = float(value)
            elif tag in ("string", "date", "boolean", "id"):
                out[key] = value
            else:
                dropped_attrs += 1
        return out

    for trace_el in root:
        if local(trace_el.tag) != "trace":
            continue
        trace_attrs = attr_map(trace_el, skip_children=("event",))
        case_id = trace_attrs.get("concept:name")
        if case_id is None:
            raise LogError(f"{path}: trace without concept:name case id")
        events = []
        for pos, event_el in enumerate(e for e in trace_el if local(e.tag) == "event"):
            ev_attrs = attr_map(event_el)
            activity = ev_attrs.get("concept:name")
            if activity is None:
                raise LogError(f"{path}: case {case_id!r} has an event without concept:name")
            stamp = ev_attrs.get("time:timestamp")
            if stamp is None:
                raise LogError(f"{path}: case {case_id!r} has an event without time:timestamp")
            ts = _parse_timestamp(str(stamp), ISO_FORMAT)
            events.append((ts, pos, Event(str(activity), ev_attrs.get("org:resource"), ts)))
        events.sort(key=lambda t: (t[0], t[1]))
        sensitive = {
            attr: _coerce_value(str(trace_attrs[attr])) if attr in trace_attrs else None
            for attr in sensitive_attrs
        }
        instances.append(
            ProcessInstance(str(case_id), tuple(ev for _, _, ev in events), sensitive)
        )
    if dropped_attrs:
        logger.warning("dropped %d unrecognized XES attributes from %s", dropped_attrs, path)
    return EventLog(tuple(instances), sensitive_attrs)


def write_xes(log: EventLog, path) -> None:
    root = ET.Element("log", {"xes.version": "2.0", "xmlns": _XES_NS})
    for inst in log:
        trace_el = ET.SubElement(root, "trace")
        ET.SubElement(trace_el, "string", {"key": "concept:name", "value": inst.case_id})
        for attr in log.sensitive_attrs:
            value = inst.sensitive.get(attr)
            if value is None:
                continue
            if isinstance(value, bool):
                ET.SubElement(trace_el, "boolean", {"key": attr, "value": str(value).lower()})
            elif isinstance(value, int):
                ET.SubElement(trace_el, "int", {"key": attr, "value": str(value)})
            elif isinstance(value, float):
                ET.SubElement(trace_el, "float", {"key": attr, "value": repr(value)})
            else:
                ET.SubElement(trace_el, "string", {"key": attr, "value": str(value)})
        for ev in inst.trace:
            ev_el = ET.SubElement(trace_el, "event")
            ET.SubElement(ev_el, "string", {"key": "concept:name", "value": ev.activity})
            if ev.resource is not None:
                ET.SubElement(ev_el, "string", {"key": "org:resource", "value": ev.resource})
            ET.SubElement(
                ev_el,
                "date",
                {"key": "time:timestamp", "value": _format_timestamp(ev.timestamp, ISO_FORMAT)},
            )
    tree = ET.ElementTree(root)
    ET.indent(tree)
    try:
        tree.write(path, encoding="utf-8", xml_declaration=True)
    except OSError as exc:
        raise LogError(f"cannot write {path}: {exc}") from None


# --- format dispatch ----------------------------------------------------------


def load_log(path, fmt=None, colmap: Optional[CsvColumnMap] = None, sensitive_attrs=()) -> EventLog:
    fmt = fmt or _infer_format(path)
    if fmt == "xes":
        return read_xes(path, sensitive_attrs)
    if fmt == "csv":
        colmap = colmap or CsvColumnMap(sensitive_cols=tuple(sensitive_attrs))
        return read_csv(path, colmap)
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
    """Parse a flat ``key = value`` file of :class:`RunConfig` fields; '#'
    starts a comment."""
    path = Path(path)
    known = {f.name for f in fields(RunConfig)}
    out = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LogError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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
