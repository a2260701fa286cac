import contextlib
import csv
import logging
import math
import re
import types
from collections import Counter
from typing import get_args, get_type_hints
from unittest import mock
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlkcpriv import (
    BkType,
    Candidate,
    CsvColumnMap,
    Event,
    EventLog,
    LogError,
    PrivacyParams,
    ProcessInstance,
    ProjectedEvent,
    RunConfig,
    TimestampAccuracy,
    TlkcAnonymizer,
    is_violating,
    load_log,
    read_config,
    read_csv,
    read_xes,
    relativize_log,
    save_log,
    truncate_to_accuracy,
    write_config,
    write_csv,
    write_xes,
)

import tlkcpriv.io as xes_io
from tlkcpriv import cli

from .conftest import DATA, HOSPITAL_COLMAP
from .oracles import plain_layout, row_read_csv, tree_read_xes, tree_write_xes
from .test_acceptance import _synthetic_big_log


class TestCsv:
    def test_hospital_fixture_shape(self, hospital_log):
        assert len(hospital_log) == 6
        assert hospital_log.total_events == 26
        assert hospital_log.sensitive_attrs == ("Age", "Disease")
        by_id = {i.case_id: i for i in hospital_log}
        assert by_id["2"].sensitive == {"Age": 30, "Disease": "HIV"}
        assert [e.activity for e in by_id["4"].trace] == ["RE", "VI", "IN", "RL"]

    def test_round_trip(self, hospital_log, tmp_path):
        target = tmp_path / "out.csv"
        write_csv(hospital_log, target, HOSPITAL_COLMAP)
        again = read_csv(target, HOSPITAL_COLMAP)
        assert again == hospital_log

    def test_unsorted_rows_are_grouped_and_ordered(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource\n"
            "1,b,1970-01-01T02:00:00,r\n"
            "2,x,1970-01-01T00:30:00,r\n"
            "1,a,1970-01-01T01:00:00,r\n"
        )
        log = read_csv(target, CsvColumnMap())
        by_id = {i.case_id: [e.activity for e in i.trace] for i in log}
        assert by_id == {"1": ["a", "b"], "2": ["x"]}

    def test_missing_column_reported(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Activity\n1,a\n")
        with pytest.raises(LogError, match="Timestamp"):
            read_csv(target, CsvColumnMap())

    # True == 1 == 1.0 in Python, yet the cells name different values
    @pytest.mark.parametrize(
        "first, second", [("x", "y"), ("1", "true"), ("1", "1.0"), ("1_000", "1000")]
    )
    def test_conflicting_sensitive_values_rejected(self, first, second, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource,D\n"
            f"1,a,1970-01-01T00:00:00,r,{first}\n"
            f"1,b,1970-01-01T01:00:00,r,{second}\n"
        )
        with pytest.raises(LogError, match="conflicting"):
            read_csv(target, CsvColumnMap(sensitive_cols=("D",)))

    def test_numerals_only_python_reads_stay_text(self, tmp_path):
        # int() and float() read these, but a cell is a number only if it is
        # ASCII without "_"
        cells = ["1_000", "1000", "\u0661\u0662", "12", "1_0.5", " 2.5 "]
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,D\n"
            + "".join(f"{i},a,1970-01-01T00:00:00,{cell}\n" for i, cell in enumerate(cells)),
            encoding="utf-8",
        )
        log = read_csv(target, CsvColumnMap(resource_col=None, sensitive_cols=("D",)))
        got = [inst.sensitive["D"] for inst in log]
        assert got == ["1_000", 1000, "\u0661\u0662", 12, "1_0.5", 2.5]

    def test_conflict_reported_in_row_order(self, tmp_path):
        # the conflict at row 3 comes before the bad timestamp at row 4
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,D\n"
            "1,a,1970-01-01T00:00:00,x\n1,b,1970-01-01T01:00:00,y\n1,c,not-a-date,x\n"
        )
        expected = (
            f"{target}: row 3: case '1' has conflicting values ['x', 'y'] "
            "for sensitive attribute 'D'"
        )
        with pytest.raises(LogError, match=re.escape(expected)):
            read_csv(target, CsvColumnMap(resource_col=None, sensitive_cols=("D",)))

    def test_blank_resource_becomes_none(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource\n1,a,1970-01-01T00:00:00,\n"
        )
        log = read_csv(target, CsvColumnMap())
        assert log.instances[0].trace[0].resource is None

    def test_bad_timestamp_reported(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Activity,Timestamp\n1,a,1970-01-01T00:00:00\n1,b,not-a-date\n")
        expected = f"{target}: row 3: cannot parse timestamp 'not-a-date'"
        with pytest.raises(LogError, match=re.escape(expected)):
            read_csv(target, CsvColumnMap(resource_col=None))

    def test_empty_activity_names_path_and_row(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp\n1,a,1970-01-01T00:00:00\n2,,1970-01-01T00:00:00\n"
        )
        with pytest.raises(LogError, match=re.escape(f"{target}: row 3 has an empty activity")):
            read_csv(target, CsvColumnMap(resource_col=None))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a short row leaves cells missing rather than blank
            ("1,1970-01-01T00:00:00,a\n2,1970-01-01T00:00:00\n", "row 3 has 2 cells"),
            ("1,1970-01-01T00:00:00\n", "row 2 has 2 cells"),
            ("1,1970-01-01T00:00:00,a,extra\n", "row 2 has 4 cells"),
            (" \n", "row 2 has 1 cells"),
        ],
        ids=["short", "short-first", "long", "space-only"],
    )
    def test_wrong_cell_count_names_path_and_row(self, rows, message, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Timestamp,Activity\n" + rows)
        expected = f"{target}: {message}; the header has 3"
        with pytest.raises(LogError, match=re.escape(expected)):
            read_csv(target, CsvColumnMap(resource_col=None))

    @pytest.mark.parametrize(
        "rows, line",
        [
            # blank lines are skipped, and still counted
            ("1,a,1970-01-01T00:00:00\n\n2,,1970-01-01T00:00:00\n", 4),
            ("\n\n1,,1970-01-01T00:00:00\n", 4),
            # a quoted cell over two lines: the error names the line the record starts on
            ('1,"a\nb",1970-01-01T00:00:00\n2,,1970-01-01T00:00:00\n', 4),
            ('1,a,1970-01-01T00:00:00\n2,,"1970-01-01\nT00:00:00"\n', 3),
        ],
        ids=["blank-line", "leading-blank-lines", "multi-line-cell", "multi-line-record"],
    )
    def test_rows_numbered_by_the_line_they_start_on(self, rows, line, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Activity,Timestamp\n" + rows)
        expected = f"{target}: row {line} has an empty activity"
        with pytest.raises(LogError, match=re.escape(expected)):
            read_csv(target, CsvColumnMap(resource_col=None))

    def test_blank_lines_are_skipped(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp\n\n1,a,1970-01-01T00:00:00\n\n\n1,b,1970-01-01T01:00:00\n\n"
        )
        log = read_csv(target, CsvColumnMap(resource_col=None))
        assert [e.activity for e in log.instances[0].trace] == ["a", "b"]

    def test_utf8_byte_order_mark_is_skipped(self, hospital_log, tmp_path):
        # spreadsheet programs write one before the header
        target = tmp_path / "log.csv"
        target.write_bytes(b"\xef\xbb\xbf" + (DATA / "hospital_log.csv").read_bytes())
        assert read_csv(target, HOSPITAL_COLMAP) == hospital_log

    def test_non_finite_values_stay_text_across_rows(self, tmp_path):
        # a float NaN would differ from itself on the case's second row
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,D\n"
            "1,a,1970-01-01T00:00:00,nan\n1,b,1970-01-01T01:00:00, nan\n"
            "2,a,1970-01-01T00:00:00,inf\n2,b,1970-01-01T01:00:00,inf\n"
            "3,a,1970-01-01T00:00:00,-inf\n4,a,1970-01-01T00:00:00,2.5\n"
        )
        log = read_csv(target, CsvColumnMap(resource_col=None, sensitive_cols=("D",)))
        assert [i.sensitive["D"] for i in log] == ["nan", "inf", "-inf", 2.5]

    def test_booleans_read_in_any_case(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,B\n"
            "1,a,1970-01-01T00:00:00, TRUE\n2,a,1970-01-01T00:00:00,False \n"
            "3,a,1970-01-01T00:00:00,truth\n4,a,1970-01-01T00:00:00,1\n"
        )
        log = read_csv(target, CsvColumnMap(resource_col=None, sensitive_cols=("B",)))
        got = [i.sensitive["B"] for i in log]
        assert got == [True, False, "truth", 1]
        assert [type(v) for v in got] == [bool, bool, str, int]

    def test_cells_are_taken_verbatim(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            'CaseId,Activity,Timestamp,Resource\n" 1","a ",1970-01-01T00:00:00," r"\n'
        )
        (inst,) = read_csv(target, CsvColumnMap())
        assert (inst.case_id, inst.trace[0].activity, inst.trace[0].resource) == (" 1", "a ", " r")


# --- CSV chunks against the row loop ----------------------------------------------

# the characters that decide how a CSV chunk is read, and a few plain ones
CSV_PIECES = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "\0", "a", "b", "é"]),
                      max_size=4).map("".join)
CSV_STAMPS = ["1970-01-01T00:00:00", "1970-01-01T01:00:00Z", " 1970-01-02 ",
              "1970-01-01T00:30:00+01:00"]
# what may go wrong with a row, one at a time, most rows holding none
CSV_FAULTS = st.sampled_from([None] * 30 + ["short", "long", "case", "activity", "stamp",
                                            "conflict", "noise", "blank"])


def _csv_cell(draw, text):
    piece = draw(st.integers(0, 19)) == 0
    if piece:
        text = draw(CSV_PIECES)
    if draw(st.integers(0, 2 if piece else 7)) == 0:  # quoted, its quotes doubled
        text = '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_files(draw):
    """CSV bytes of rows with a case id, activity, timestamp, resource and
    one sensitive value: mostly well formed, with blank lines, short and
    long rows, empty cells, bad stamps, conflicting values, quotes, NULs,
    CR, LF and CRLF line ends and a byte-order mark."""
    values = {case: draw(st.sampled_from(["x", "1", "1.0", "true", ""])) for case in "12é"}
    lines = ["CaseId,Activity,Timestamp,Resource,D"]
    for _ in range(draw(st.integers(0, 12))):
        fault, case = draw(CSV_FAULTS), draw(st.sampled_from("12é"))
        if fault in ("noise", "blank"):
            lines.append(draw(CSV_PIECES) if fault == "noise" else "")
            continue
        cells = [
            "" if fault == "case" else case,
            "" if fault == "activity" else draw(st.sampled_from("abé")),
            draw(st.sampled_from(["not-a-date", ""])) if fault == "stamp"
            else draw(st.sampled_from(CSV_STAMPS)),
            draw(st.sampled_from(["r", "s", ""])),
            draw(st.sampled_from(["y", "1", "true"])) if fault == "conflict" else values[case],
        ]
        cells = [_csv_cell(draw, cell) for cell in cells]
        if fault == "short":
            cells = cells[:draw(st.integers(1, 4))]
        elif fault == "long":
            cells.append("z")
        lines.append(",".join(cells))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return b"\xef\xbb\xbf" * draw(st.booleans()) + text.encode()


def _log_columns(log):
    """Every column of a log, sensitive values with their types."""
    return (log.sensitive_attrs, log.case_ids,
            [sorted((k, type(v).__name__, v) for k, v in d.items()) for d in log.case_sensitive],
            *[(a.dtype, a.tolist()) for a in (log.bounds, log.activity_codes, log.resource_codes,
                                             log.seconds)],
            log.activity_labels, log.resource_labels)


def _read_or_error(read, path, colmap, accuracy):
    try:
        return _log_columns(truncate_to_accuracy(read(path, colmap), accuracy))
    except LogError as exc:
        return str(exc)


class TestCsvChunks:
    @settings(max_examples=400, deadline=None)
    @given(data=csv_files(), chars=st.integers(1, 40), rows=st.integers(1, 4),
           limit=st.sampled_from([None, 20]), resource=st.sampled_from(["Resource", None, ""]),
           accuracy=st.sampled_from([TimestampAccuracy.SECONDS, TimestampAccuracy.HOURS]))
    def test_same_columns_or_error_as_the_row_loop(self, data, chars, rows, limit, resource,
                                                   accuracy, tmp_path_factory):
        # chunks of a few characters: rows and CRLF straddle chunk ends, and a
        # file turns from split chunks to csv.reader midway; a field limit of 20
        # passes the header and some timestamps, and fails others
        target = tmp_path_factory.mktemp("csv") / "log.csv"
        target.write_bytes(data)
        colmap = CsvColumnMap(resource_col=resource, sensitive_cols=("D",))
        default = csv.field_size_limit()
        try:
            csv.field_size_limit(limit or default)
            expected = _read_or_error(row_read_csv, target, colmap, accuracy)
            with mock.patch.object(xes_io, "_CSV_CHARS", chars), \
                    mock.patch.object(xes_io, "_CSV_ROWS", rows):
                got = _read_or_error(read_csv, target, colmap, accuracy)
        finally:
            csv.field_size_limit(default)
        assert got == expected

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends_read_as_line_feeds(self, end, tmp_path):
        rows = "CaseId,Activity,Timestamp\n1,a,1970-01-01T00:00:00\n\n2,b,1970-01-01T00:00:00\n"
        (tmp_path / "lf.csv").write_text(rows)
        (tmp_path / "other.csv").write_bytes(rows.replace("\n", end).encode())
        colmap = CsvColumnMap(resource_col=None)
        assert read_csv(tmp_path / "other.csv", colmap) == read_csv(tmp_path / "lf.csv", colmap)

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
    def test_line_breaks_in_cells_count_once_each(self, end, tmp_path):
        # csv.reader reads the quoted cell over three lines, whatever their ends
        target = tmp_path / "log.csv"
        target.write_bytes(
            f'CaseId,Activity,Timestamp{end}1,"a{end}b{end}c",1970-01-01T00:00:00{end}'
            f"2,,1970-01-01T00:00:00{end}".encode()
        )
        with pytest.raises(LogError, match=re.escape(f"{target}: row 5 has an empty activity")):
            read_csv(target, CsvColumnMap(resource_col=None))

    @pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
    def test_cell_over_the_field_limit_names_its_row(self, quote, tmp_path):
        # a line longer than the limit goes to csv.reader, quoted or not
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp\n"
            f"1,{quote}a{quote},1970-01-01T00:00:00\n2,{'b' * 200_000},1970-01-01T00:00:00\n"
        )
        expected = f"{target}: row 3: field larger than field limit (131072)"
        with pytest.raises(LogError, match=re.escape(expected)):
            read_csv(target, CsvColumnMap(resource_col=None))

    def test_chunk_with_a_nul_goes_to_csv_reader(self, tmp_path, monkeypatch):
        # csv.reader refuses a NUL on Python 3.10 and reads it on 3.11; either
        # way the reader must read such a chunk as the row loop does
        real = csv.reader

        def refusing(lines):
            def checked():
                for line in lines:
                    if "\0" in line:
                        raise csv.Error("line contains NUL")
                    yield line
            return real(checked())

        monkeypatch.setattr(csv, "reader", refusing)
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Activity,Timestamp\n1,a,1970-01-01T00:00:00\n"
                          "\n2,b\0,1970-01-01T00:00:00\n")
        expected = f"{target}: row 4: line contains NUL"
        colmap = CsvColumnMap(resource_col=None)
        for read in (read_csv, row_read_csv):
            with pytest.raises(LogError, match=re.escape(expected)):
                read(target, colmap)

    @pytest.mark.parametrize("chars", [8, xes_io._CSV_CHARS])
    def test_bytes_not_utf8_are_a_file_error(self, chars, tmp_path, monkeypatch):
        monkeypatch.setattr(xes_io, "_CSV_CHARS", chars)
        target = tmp_path / "log.csv"
        target.write_bytes(b"CaseId,Activity,Timestamp\n1,\xe9,1970-01-01T00:00:00\n")
        expected = f"cannot read {target}: not UTF-8 (invalid continuation byte)"
        for read in (read_csv, row_read_csv):
            with pytest.raises(xes_io.LogFileError, match=re.escape(expected)):
                read(target, CsvColumnMap(resource_col=None))

    def test_header_over_the_field_limit_is_row_1(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Activity,Timestamp" + "x" * 200_000 + "\n")
        with pytest.raises(LogError, match=re.escape(f"{target}: row 1: field larger")):
            read_csv(target, CsvColumnMap(resource_col=None))

    def test_long_line_of_short_cells_reads(self, tmp_path):
        # a line longer than the field limit goes to csv.reader, which reads it
        target = tmp_path / "log.csv"
        pad = ",".join(["p" * 1000] * 200)
        target.write_text(f"CaseId,Activity,Timestamp,{pad}\n1,a,1970-01-01T00:00:00,{pad}\n")
        (inst,) = read_csv(target, CsvColumnMap(resource_col=None))
        assert inst.trace[0].activity == "a"


# --- CSV round trip ---------------------------------------------------------------

# the characters CSV has to quote, whitespace and non-ASCII, plus any character
CSV_CHARS = st.one_of(
    st.sampled_from(',"\'\n\r\t é€中'),
    st.characters(blacklist_categories=("Cs",)),
)
CSV_TEXT = st.text(CSV_CHARS, min_size=1, max_size=6)
CSV_STANDARD = ("CaseId", "Activity", "Timestamp", "Resource")


def _reads_as_text(value):
    """Sensitive strings that read back as themselves: trimmed, non-empty, not
    a boolean and not a finite number (``true`` and numerals read back as
    booleans and numbers, but not those with ``_`` or non-ASCII digits)."""
    if value != value.strip() or not value or value.lower() in ("true", "false"):
        return False
    if "_" in value or not value.isascii():
        return True
    for cast in (int, float):
        try:
            return not math.isfinite(cast(value))
        except (ValueError, OverflowError):
            pass
    return True


# text that parses as a non-finite float, and so stays text
NAN_LIKE = ["nan", "NaN", "inf", "-inf", "Infinity", "-nan", "1e999"]

CSV_SENSITIVE_VALUES = {
    "int": st.integers(-(10**20), 10**20),
    "float": st.floats(),
    "bool": st.booleans(),
    "str": st.one_of(st.sampled_from(NAN_LIKE), CSV_TEXT).map(str.strip).filter(_reads_as_text),
}


# seconds anywhere in a wide range, for round trips
WIDE_STAMPS = st.integers(-(10**9), 4 * 10**9)
# seconds within a few days of the epoch, often equal or in one hour or day
NEAR_STAMPS = st.one_of(
    st.sampled_from([-3600, -1, 0, 600, 3599, 3600, 86400]), st.integers(-2 * 86400, 2 * 86400)
)


@st.composite
def csv_logs(draw, stamps=WIDE_STAMPS):
    names = draw(
        st.lists(CSV_TEXT.filter(lambda k: k not in CSV_STANDARD), max_size=3, unique=True)
    )
    kinds = [draw(st.sampled_from(sorted(CSV_SENSITIVE_VALUES))) for _ in names]
    case_ids = draw(st.lists(CSV_TEXT, max_size=5, unique=True))
    instances = []
    for case_id in case_ids:
        trace = tuple(
            Event(draw(CSV_TEXT), draw(st.none() | CSV_TEXT), ts)
            for ts in sorted(draw(st.lists(stamps, min_size=1, max_size=4)))
        )
        sensitive = {
            name: draw(st.none() | CSV_SENSITIVE_VALUES[kind]) for name, kind in zip(names, kinds)
        }
        instances.append(ProcessInstance(case_id, trace, sensitive))
    return EventLog(tuple(instances), tuple(names))


def _read_back_value(value):
    """A sensitive value as reading it back gives it: a non-finite float is
    written as ``nan``/``inf``/``-inf`` and read back as that text."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _as_read_back(log):
    return EventLog(
        tuple(
            ProcessInstance(
                inst.case_id,
                inst.trace,
                {attr: _read_back_value(value) for attr, value in inst.sensitive.items()},
            )
            for inst in log
        ),
        log.sensitive_attrs,
    )


class TestCsvRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(log=csv_logs())
    def test_write_then_read_gives_the_same_log(self, log, tmp_path_factory):
        target = tmp_path_factory.mktemp("csv") / "log.csv"
        colmap = CsvColumnMap(sensitive_cols=log.sensitive_attrs)
        write_csv(log, target, colmap)
        assert read_csv(target, colmap) == _as_read_back(log)

    @pytest.mark.parametrize("flag", [True, False])
    def test_booleans_agree_with_xes(self, flag, tmp_path):
        log = EventLog((ProcessInstance("1", (Event("a", "r", 0),), {"B": flag}),), ("B",))
        colmap = CsvColumnMap(sensitive_cols=("B",))
        write_csv(log, tmp_path / "log.csv", colmap)
        write_xes(log, tmp_path / "log.xes")
        via_csv = read_csv(tmp_path / "log.csv", colmap)
        via_xes = read_xes(tmp_path / "log.xes", ("B",))
        assert via_csv == via_xes == log
        assert via_csv.instances[0].sensitive["B"] is flag
        assert via_xes.instances[0].sensitive["B"] is flag


class TestCsvColumns:
    def test_resourceless_write_round_trips(self, tmp_path):
        colmap = CsvColumnMap(resource_col=None, sensitive_cols=("D",))
        log = EventLog((
            ProcessInstance("1", (Event("a", None, 0), Event("b", None, 60)), {"D": "x"}),
            ProcessInstance("2", (Event("a", None, 30),), {"D": "y"}),
        ), ("D",))
        write_csv(log, tmp_path / "log.csv", colmap)
        assert (tmp_path / "log.csv").read_text().splitlines()[0] == "CaseId,Activity,Timestamp,D"
        assert read_csv(tmp_path / "log.csv", colmap) == log

    @pytest.mark.parametrize("columns", [
        dict(activity_col="CaseId"), dict(timestamp_col="Activity"), dict(case_col="Timestamp"),
    ])
    def test_a_repeated_column_is_rejected(self, columns):
        message = "^case, activity and timestamp columns must be distinct$"
        with pytest.raises(LogError, match=message):
            CsvColumnMap(**columns)

    def test_repeated_sensitive_column_counts_once(self, tmp_path):
        once = read_csv(DATA / "treatment_relative.csv", CsvColumnMap(sensitive_cols=("Disease",)))
        twice = read_csv(DATA / "treatment_relative.csv",
                         CsvColumnMap(sensitive_cols=("Disease", "Disease")))
        assert twice.sensitive_attrs == ("Disease",) and twice == once


class TestXes:
    def test_fixture_matches_csv_twin(self, hospital_log):
        log = read_xes(DATA / "hospital_log.xes", ("Age", "Disease"))
        assert log == hospital_log

    def test_round_trip(self, hospital_log, tmp_path):
        target = tmp_path / "out.xes"
        write_xes(hospital_log, target)
        assert read_xes(target, hospital_log.sensitive_attrs) == hospital_log

    def test_trace_sizes(self, tmp_path, treatment_log):
        target = tmp_path / "t.xes"
        write_xes(treatment_log, target)
        log = read_xes(target, ("Disease",))
        assert {i.case_id: len(i.trace) for i in log} == {
            i.case_id: len(i.trace) for i in treatment_log
        }

    def test_missing_activity_rejected(self, tmp_path):
        target = tmp_path / "bad.xes"
        target.write_text(
            '<?xml version="1.0"?><log><trace>'
            '<string key="concept:name" value="1"/>'
            '<event><date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event>'
            "</trace></log>"
        )
        with pytest.raises(LogError, match="concept:name"):
            read_xes(target)

    def test_bad_timestamp_names_path_and_case(self, tmp_path):
        target = tmp_path / "bad.xes"
        target.write_text(
            '<log><trace><string key="concept:name" value="7"/><event>'
            '<string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="yesterday"/></event></trace></log>'
        )
        expected = f"{target}: case '7': cannot parse timestamp 'yesterday'"
        with pytest.raises(LogError, match=re.escape(expected)):
            read_xes(target)

    def test_duplicate_case_ids_rejected(self, tmp_path):
        trace = (
            '<trace><string key="concept:name" value="1"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>'
        )
        target = tmp_path / "dup.xes"
        target.write_text(f'<?xml version="1.0"?><log>{trace}{trace}</log>')
        with pytest.raises(LogError, match="duplicate"):
            read_xes(target)

    def test_unmodeled_attributes_warn_with_count(self, tmp_path, caplog):
        target = tmp_path / "extra.xes"
        target.write_text(
            '<?xml version="1.0"?><log><trace>'
            '<string key="concept:name" value="1"/>'
            '<string key="org:role" value="clerk"/>'
            '<event><string key="concept:name" value="a"/>'
            '<string key="lifecycle:transition" value="complete"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event>'
            "</trace></log>"
        )
        import logging

        with caplog.at_level(logging.WARNING, logger="tlkcpriv.io"):
            read_xes(target)
        assert "dropped 2" in caplog.text

    def test_non_finite_values_stay_text_and_match_as_focal(self, tmp_path):
        traces = "".join(
            f'<trace><string key="concept:name" value="{cid}"/>'
            f'<{tag} key="Disease" value="{value}"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>'
            for cid, tag, value in [
                ("1", "string", "nan"), ("2", "float", "NaN"), ("3", "float", " nan "),
                ("4", "float", "-inf"), ("5", "string", "x"),
            ]
        )
        target = tmp_path / "nan.xes"
        target.write_text(f"<log>{traces}</log>")
        log = read_xes(target, ("Disease",))
        assert [i.sensitive["Disease"] for i in log] == ["nan", "nan", "nan", "-inf", "x"]
        params = PrivacyParams(
            accuracy="hours", L=1, K=1, C=0.5, bk="set/ac", sensitive=("Disease",)
        )
        verdict = is_violating(Candidate(BkType.SET, (ProjectedEvent("a"),)), log, params)
        assert verdict.max_confidence == 3 / 5  # the three nan cases share the focal value

    @pytest.mark.parametrize(
        "trace_attrs, event_attr, message",
        [
            ('<int key="Disease" value="old"/>', "",
             "case '1': <int> attribute 'Disease' has bad value 'old'"),
            ('<float key="Disease"/>', "", "case '1': <float> attribute 'Disease' has no value"),
            ("", '<float key="org:resource" value="1,5"/>',
             "case '1': <float> attribute 'org:resource' has bad value '1,5'"),
            ('<int key="concept:name" value="x"/>', "",
             "<int> attribute 'concept:name' has bad value 'x'"),
            ('<boolean key="Disease" value="True"/>', "",
             "case '1': <boolean> attribute 'Disease' has bad value 'True'"),
            ('<boolean key="Disease"/>', "",
             "case '1': <boolean> attribute 'Disease' has no value"),
            # numerals that only Python's int() and float() read
            ('<int key="Disease" value="1_000"/>', "",
             "case '1': <int> attribute 'Disease' has bad value '1_000'"),
            ('<float key="Disease" value="1_0.5"/>', "",
             "case '1': <float> attribute 'Disease' has bad value '1_0.5'"),
            ('<int key="Disease" value="&#1633;&#1634;"/>', "",
             "case '1': <int> attribute 'Disease' has bad value '\u0661\u0662'"),
        ],
        ids=["bad-int", "no-value", "on-an-event", "no-case-id", "bad-boolean", "no-boolean",
             "underscore-int", "underscore-float", "non-ascii-int"],
    )
    def test_malformed_number_names_path_case_and_key(
        self, trace_attrs, event_attr, message, tmp_path
    ):
        if "concept:name" not in trace_attrs:
            trace_attrs = '<string key="concept:name" value="1"/>' + trace_attrs
        target = tmp_path / "bad.xes"
        target.write_text(
            f"<log><trace>{trace_attrs}<event>{event_attr}"
            '<string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace></log>'
        )
        with pytest.raises(LogError) as got:
            read_xes(target, ("Disease",))
        assert str(got.value) == f"{target}: {message}"

    def test_values_keep_the_type_of_their_tag(self, tmp_path):
        values = [
            ("string", "12", "12"), ("string", " x ", " x "), ("string", "", ""),
            ("id", "007", "007"), ("date", "2020-01-01", "2020-01-01"),
            ("boolean", "true", True), ("boolean", "false", False),
            ("int", "12", 12), ("float", "1.5", 1.5), ("float", "inf", "inf"),
        ]
        traces = "".join(
            f'<trace><string key="concept:name" value="{i}"/>'
            f'<{tag} key="D" value="{text}"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>'
            for i, (tag, text, _) in enumerate(values)
        )
        target = tmp_path / "typed.xes"
        target.write_text(f"<log>{traces}</log>")
        got = [inst.sensitive["D"] for inst in read_xes(target, ("D",))]
        assert got == [want for _, _, want in values]
        assert [type(v) for v in got] == [type(want) for _, _, want in values]

    def test_typed_labels_read_as_text(self, tmp_path):
        # a typed case id, activity or resource is a label: its text, so the
        # log writes back out
        target = tmp_path / "labels.xes"
        target.write_text(
            '<log><trace><int key="concept:name" value="7"/>'
            '<event><float key="concept:name" value="1.5"/><int key="org:resource" value="5"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event>'
            '<event><string key="concept:name" value="b"/>'
            '<boolean key="org:resource" value="true"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace></log>'
        )
        log = read_xes(target)
        assert log.instances[0].case_id == "7"
        assert log.instances[0].trace == (Event("1.5", "5", 0), Event("b", "True", 0))
        write_xes(log, tmp_path / "again.xes")
        assert read_xes(tmp_path / "again.xes") == log

    def test_declared_but_absent_attribute_is_null(self, tmp_path):
        target = tmp_path / "n.xes"
        target.write_text(
            '<?xml version="1.0"?><log><trace>'
            '<string key="concept:name" value="1"/>'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event>'
            "</trace></log>"
        )
        log = read_xes(target, ("Disease",))
        assert log.instances[0].sensitive == {"Disease": None}


# --- streaming XES against the element-tree reference --------------------------

STANDARD_KEYS = ("concept:name", "org:resource", "time:timestamp")


def _xml_legal(ch):
    cp = ord(ch)
    return (
        ch in "\t\n\r"
        or 0x20 <= cp <= 0xD7FF
        or 0xE000 <= cp <= 0xFFFD
        or 0x10000 <= cp <= 0x10FFFF
    )


# markup and whitespace characters that need escaping, plus any legal character
XML_CHARS = st.one_of(
    st.sampled_from("&<>\"'\t\n\r é€中"),
    st.characters(blacklist_categories=("Cs",)).filter(_xml_legal),
)


# typed sensitive values; strings are drawn from the log's alphabet
SENSITIVE_VALUES = {
    "int": st.integers(-(10**20), 10**20),
    "float": st.floats(),
    "bool": st.booleans(),
}


# legal characters that need no escaping, so write_xes writes no reference
PLAIN_XML_CHARS = st.characters(blacklist_categories=("Cs",)).filter(
    lambda ch: _xml_legal(ch) and ch not in '&<>"\t\n\r'
)


@st.composite
def xes_logs(draw, stamps=WIDE_STAMPS, chars=XML_CHARS):
    labels = st.text(chars, min_size=1, max_size=6)
    texts = st.one_of(st.sampled_from(NAN_LIKE), st.text(chars, max_size=6))
    values = {**SENSITIVE_VALUES, "str": texts}
    names = draw(
        st.lists(
            labels.filter(lambda k: k not in STANDARD_KEYS), max_size=3, unique=True
        )
    )
    kinds = [draw(st.sampled_from(sorted(values))) for _ in names]
    case_ids = draw(st.lists(st.text(chars, max_size=6), max_size=5, unique=True))
    instances = []
    for case_id in case_ids:
        trace = tuple(
            Event(draw(labels), draw(st.none() | st.text(chars, max_size=4)), ts)
            for ts in sorted(draw(st.lists(stamps, min_size=1, max_size=4)))
        )
        sensitive = {
            name: draw(st.none() | values[kind]) for name, kind in zip(names, kinds)
        }
        instances.append(ProcessInstance(case_id, trace, sensitive))
    return EventLog(tuple(instances), tuple(names))


def _read_counting_drops(path, sensitive_attrs, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tlkcpriv.io"):
        log = read_xes(path, sensitive_attrs)
    found = re.search(r"dropped (\d+) unrecognized", caplog.text)
    return log, int(found.group(1)) if found else 0


def _assert_same_failure(path, sensitive_attrs=()):
    with pytest.raises(Exception) as expected:
        tree_read_xes(path, sensitive_attrs)
    with pytest.raises(type(expected.value)) as got:
        read_xes(path, sensitive_attrs)
    assert str(got.value) == str(expected.value)
    return got.value


class TestXesAgainstTreeReference:
    @settings(max_examples=150, deadline=None)
    @given(log=xes_logs())
    def test_writer_bytes_and_round_trip(self, log, tmp_path_factory):
        out = tmp_path_factory.mktemp("xes")
        write_xes(log, out / "stream.xes")
        tree_write_xes(log, out / "tree.xes")
        assert (out / "stream.xes").read_bytes() == (out / "tree.xes").read_bytes()
        again = read_xes(out / "stream.xes", log.sensitive_attrs)
        assert again == tree_read_xes(out / "tree.xes", log.sensitive_attrs)[0]
        assert again == _as_read_back(log)

    @pytest.mark.parametrize(
        "log",
        [
            EventLog(()),
            EventLog((), ("Disease",)),
            EventLog((ProcessInstance("1", (Event("a", None, 0),)),)),
            EventLog(
                (ProcessInstance("x", (Event("a", "r", 7),), {"D": 1, "E": 2.5, "F": True}),),
                ("D", "E", "F"),
            ),
        ],
        ids=["empty", "empty-with-attrs", "no-sensitive", "int-float-bool"],
    )
    def test_writer_bytes_on_fixed_logs(self, log, tmp_path):
        write_xes(log, tmp_path / "stream.xes")
        tree_write_xes(log, tmp_path / "tree.xes")
        assert (tmp_path / "stream.xes").read_bytes() == (tmp_path / "tree.xes").read_bytes()
        assert read_xes(tmp_path / "stream.xes", log.sensitive_attrs) == _as_read_back(log)

    def test_fixture_files_write_identically(self, hospital_log, treatment_log, tmp_path):
        for log in (hospital_log, treatment_log):
            write_xes(log, tmp_path / "stream.xes")
            tree_write_xes(log, tmp_path / "tree.xes")
            assert (tmp_path / "stream.xes").read_bytes() == (tmp_path / "tree.xes").read_bytes()

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(
                '<trace><string key="concept:name" value="1">'
                '<string key="concept:name" value="nested"/></string>'
                '<string key="Disease" value="x"><int key="Age" value="9"/></string>'
                '<event><string key="concept:name" value="a">'
                '<string key="org:resource" value="deep"/></string>'
                '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>',
                id="nested-attributes",
            ),
            pytest.param(
                '<trace><string key="concept:name" value="1"/>'
                '<list key="Disease"><values><string key="Disease" value="x"/></values></list>'
                '<container key="Age"/><list key="org:role"/>'
                '<event><string key="concept:name" value="a"/>'
                '<container key="org:resource"><string key="r" value="r"/></container>'
                '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>',
                id="unknown-types",
            ),
            pytest.param(
                '<trace><event><string key="concept:name" value="b"/>'
                '<date key="time:timestamp" value="1970-01-01T01:00:00Z"/></event>'
                '<event><string key="concept:name" value="a"/>'
                '<id key="org:resource" value="r"/>'
                '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event>'
                '<event><string key="concept:name" value="c"/>'
                '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event>'
                '<float key="Age" value="3.5"/><boolean key="Disease" value="true"/>'
                '<string key="concept:name" value="late"/></trace>',
                id="trace-attributes-after-events",
            ),
            pytest.param(
                '<extension name="Concept" prefix="concept" uri="http://x/concept.xesext"/>'
                '<global scope="trace"><string key="concept:name" value="g"/></global>'
                '<classifier name="Activity" keys="concept:name"/>'
                '<string key="concept:name" value="the log"/>'
                '<trace><string key="concept:name" value="1"/><int key="Age" value="4"/>'
                '<event><string key="concept:name" value="a"/><string key="x" value="y"/>'
                '<string value="no key"/>'
                '<date key="time:timestamp" value="1970-01-01T00:00:00+02:00"/></event></trace>',
                id="log-level-elements",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "root",
        [
            ('<log xmlns="http://www.xes-standard.org/">', "</log>"),
            ("<log>", "</log>"),
            ('<xes:log xmlns:xes="http://www.xes-standard.org/">', "</xes:log>"),
        ],
        ids=["default-namespace", "no-namespace", "prefixed-namespace"],
    )
    def test_reader_matches_tree_reader(self, body, root, tmp_path, caplog):
        start, end = root
        if start.startswith("<xes:"):
            body = re.sub(r"<(/?)(?!xes:)([a-z])", r"<\1xes:\2", body)
        target = tmp_path / "log.xes"
        target.write_text(f'<?xml version="1.0" encoding="UTF-8"?>{start}{body}{end}')
        expected, expected_dropped = tree_read_xes(target, ("Age", "Disease"))
        log, dropped = _read_counting_drops(target, ("Age", "Disease"), caplog)
        assert log == expected
        assert dropped == expected_dropped
        assert len(log) == 1

    @pytest.mark.parametrize(
        "trace",
        [
            '<trace><event><string key="concept:name" value="a"/></event></trace>',
            '<trace><string key="concept:name" value="1"/>'
            '<event><string key="concept:name" value="a"/></event></trace>',
            '<trace><string key="concept:name" value="1"/><event>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>',
            '<trace><string key="concept:name" value="1"/><event>'
            '<string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="yesterday"/></event></trace>',
            '<trace><string key="concept:name" value="1"/><event>'
            '<string key="concept:name" value="a"/>'
            '<int key="time:timestamp" value="5"/></event></trace>',
            # a bad date after a good one, in a case whose id needs quoting
            '<trace><string key="concept:name" value="it&apos;s"/><event>'
            '<string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event><event>'
            '<string key="concept:name" value="b"/>'
            '<date key="time:timestamp" value="1970-13-01T00:00:00Z"/></event></trace>',
            # the bad event comes first in the file, the bad trace attribute wins
            '<trace><string key="concept:name" value="1"/>'
            '<event><int key="concept:name" value="a"/></event>'
            '<int key="Age" value="old"/></trace>',
            '<trace><string key="concept:name" value="1"/><int key="Age"/>'
            '<event><string key="concept:name" value="a"/></event></trace>',
            # the case id comes after the bad attribute, and is still named
            '<trace><float key="Age" value="x"/><string key="concept:name" value="1"/>'
            '<event><string key="concept:name" value="a"/></event></trace>',
            # a bad boolean on an event, then one on the trace: the trace's wins
            '<trace><string key="concept:name" value="1"/>'
            '<event><boolean key="concept:name" value="yes"/></event>'
            '<boolean key="Age" value="1"/></trace>',
            '<trace><string key="concept:name" value="1"/></trace>',
            # an empty activity, then a bad timestamp in a later event: the first wins
            '<trace><string key="concept:name" value="1"/><event><string key="concept:name" value=""/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event><event>'
            '<string key="concept:name" value="a"/><date key="time:timestamp" value="x"/></event>'
            '</trace>',
            # attributes with no value, read by the callbacks
            '<trace><string key="concept:name"/><event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>',
            '<trace><string key="concept:name" value="1"/><event><string key="concept:name"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>',
            '<trace><string key="concept:name" value="1"/><event>'
            '<string key="concept:name" value="a"/><date key="time:timestamp"/></event></trace>',
            # a content error in a trace, then a parse error later in the file
            "<trace><event/></trace><trace>",
        ],
    )
    def test_content_errors_match_tree_reader(self, trace, tmp_path):
        target = tmp_path / "bad.xes"
        good = (
            '<trace><string key="concept:name" value="0"/><event>'
            '<string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>'
        )
        target.write_text(f"<log>{good}{trace}{good.replace('0', '2', 1)}</log>")
        _assert_same_failure(target, ("Age",))


# --- traces read as text against the element-tree reference ---------------------


@contextlib.contextmanager
def _spied_reads():
    """Record how :func:`read_xes` reads a file: the bytes it reads, the traces
    tried as text (those handed over whole up to the first not built, that
    one too if led by XML whitespace and ``<trace>``) and the longest of them
    from ``<trace>`` on, the traces built from their text and from the
    callbacks, the bytes read when each was built, and the attributes it
    dropped.  A layout's pattern is compiled with its plan, at its first
    trace read as text, so that every later trace of it meets the pattern."""
    seen = {"bytes": 0, "tried": 0, "longest": 0, "tokenized": 0, "callbacks": 0, "read_at": []}
    read_traces, traces, add = xes_io._read_traces, xes_io._XesCases.traces, xes_io._XesCases.add

    class CountingHandle:
        def __init__(self, handle):
            self.handle, self.fileno = handle, handle.fileno

        def read(self, size):
            block = self.handle.read(size)
            seen["bytes"] += len(block)
            return block

    def spy_read(handle, cases):
        read_traces(CountingHandle(handle), cases)
        seen["dropped"] = cases.dropped

    def spy_traces(cases, pieces, ahead):
        built = traces(cases, pieces, ahead)
        texts = [piece.partition("<trace>") for piece in pieces[: built + 1]]
        tried = [text for space, opening, text in texts if opening and not space.strip(" \t\r\n")]
        seen["tried"] += len(tried)
        seen["longest"] = max([seen["longest"], *map(len, tried)])
        seen["tokenized"] += built
        seen["read_at"] += [seen["bytes"]] * built
        return built

    def spy_add(cases, trace, events):
        seen["callbacks"] += 1
        seen["read_at"].append(seen["bytes"])
        add(cases, trace, events)

    with mock.patch.object(xes_io, "_read_traces", spy_read), \
            mock.patch.object(xes_io, "_pays", lambda *counts: True), \
            mock.patch.object(xes_io._XesCases, "traces", spy_traces), \
            mock.patch.object(xes_io._XesCases, "add", spy_add):
        yield seen


def _outcome(read):
    """``read()``'s log and dropped count, or the text of its error."""
    try:
        return read()
    except LogError as exc:
        return str(exc)


def _spied_read(path, sensitive_attrs=(), accuracy=TimestampAccuracy.SECONDS):
    """The outcome of :func:`read_xes` in the form of :func:`tree_read_xes`,
    and how it read the file (see :func:`_spied_reads`)."""
    with _spied_reads() as seen:
        got = _outcome(lambda: (truncate_to_accuracy(read_xes(path, sensitive_attrs), accuracy),
                                seen["dropped"]))
    return got, seen


def _tree_read(path, sensitive_attrs=(), accuracy=TimestampAccuracy.SECONDS):
    def read():
        log, dropped = tree_read_xes(path, sensitive_attrs)
        return truncate_to_accuracy(log, accuracy), dropped

    return _outcome(read)


# canonical edits of write_xes output that drop attributes or fail the read
XES_EDITS = {
    "none": lambda text: text,
    "dropped": lambda text: text.replace(
        "<event>", '<event>\n      <string key="lifecycle:transition" value="complete" />'
    ),
    "bad-cast": lambda text: text.replace(
        "<event>", '<event>\n      <int key="concept:name" value="x" />', 1
    ),
    "duplicate-case": lambda text: re.sub(r"(\n  <trace>.*?</trace>)", r"\1\1", text, 1, re.S),
    "empty-trace": lambda text: re.sub(r"\n    <event>.*?</event>", "", text, flags=re.S),
    "cut": lambda text: text[: len(text) * 2 // 3],
}


# (callbacks, tokenized, tried) of a read of _traces() that takes every trace
# after the first from its text
TOKENIZED = (1, 3, 3)

# edits of a trace of write_xes output that the callbacks read: a comment leaves
# the canonical form, and no plan builds a case id typed as <int>
TRACE_EDITS = {
    "comment": lambda trace: trace.replace("<event>", "<event><!-- c -->", 1),
    "typed-case-id": lambda trace: trace.replace(
        '<string key="concept:name"', '<int key="concept:name"', 1
    ),
}


class TestXesTokenizer:
    """Each canonical trace after the first is read from its text (counted as
    tokenized).  The first trace, and a trace that leaves the form or that
    no plan builds, together with the rest of its block, are read through
    expat callbacks, and both agree with the element tree.  The file is read
    once."""

    @settings(max_examples=200, deadline=None)
    @given(
        log=st.sampled_from([PLAIN_XML_CHARS, XML_CHARS]).flatmap(
            lambda chars: xes_logs(NEAR_STAMPS, chars)
        ),
        accuracy=st.sampled_from(list(TimestampAccuracy)),
        edit=st.sampled_from(sorted(XES_EDITS)),
    )
    def test_matches_tree_reader_on_written_logs(self, log, accuracy, edit, tmp_path_factory):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        write_xes(log, target)
        text = XES_EDITS[edit](target.read_text(encoding="utf-8"))
        target.write_text(text, encoding="utf-8")
        got, seen = _spied_read(target, log.sensitive_attrs, accuracy)
        assert got == _tree_read(target, log.sensitive_attrs, accuracy)
        assert seen["bytes"] == target.stat().st_size
        if edit != "cut":  # the first trace goes to the callbacks, as does a reference's block
            traces = re.findall(r"<trace>.*?</trace>", text, re.S)
            assert seen["tokenized"] + seen["callbacks"] == len(traces)
            if edit == "empty-trace":  # no plan builds a trace without events
                assert seen["tokenized"] == 0
                return
            if not any("&" in trace for trace in traces[1:]):
                assert (seen["callbacks"], seen["tried"]) == (min(len(traces), 1), len(traces[1:]))
            assert seen["tried"] - seen["tokenized"] <= sum("&" in trace for trace in traces[1:])

    @pytest.mark.parametrize(
        "edit, tokenized",
        [
            pytest.param(
                lambda t: t.replace("<event>", "<event><!-- a comment -->"), 0, id="comment"
            ),
            pytest.param(lambda t: t.replace("<event>", "<event><![CDATA[x]]>"), 0, id="cdata"),
            pytest.param(lambda t: t.replace("<event>", "<event><?pi x?>"), 0, id="instruction"),
            pytest.param(
                lambda t: t.replace('key="concept:name" value="b"', "key='concept:name' value='b'"),
                1,
                id="single-quotes",
            ),
            pytest.param(
                lambda t: t.replace('key="concept:name" value="b"', 'value="b" key="concept:name"'),
                1,
                id="value-before-key",
            ),
            pytest.param(
                lambda t: t.replace('value="b" />', 'value="b" extra="1" />'),
                1,
                id="extra-attribute",
            ),
            pytest.param(
                lambda t: t.replace('<string key="concept:name" value="b" />',
                                    '<string  key="concept:name" value="b"/>'),
                1,
                id="spaced-attributes",
            ),
            pytest.param(
                lambda t: t.replace("<log ", '<log xmlns:x="http://www.xes-standard.org/" ')
                .replace('<string key="concept:name" value="b" />',
                         '<x:string key="concept:name" value="b" />'),
                1,
                id="prefixed-attribute",
            ),
            pytest.param(
                lambda t: re.sub(r"<(/?)(?!\?)", r"<\1xes:", t).replace(
                    "xmlns=", "xmlns:xes="
                ),
                0,
                id="prefixed-namespace",
            ),
            pytest.param(
                lambda t: t.replace(
                    '<string key="concept:name" value="b" />',
                    '<string key="concept:name" value="b"><string key="Age" value="9" /></string>',
                ),
                1,
                id="nested-value",
            ),
            pytest.param(
                lambda t: t.replace("</trace>", "<event/></trace>"), 0, id="empty-event"
            ),
            pytest.param(
                lambda t: t.replace(
                    '<string key="concept:name" value="2" />',
                    '<string key="concept:name" value="2" /><event key="concept:name" value="x" />',
                ),
                1,
                id="attributed-event",
            ),
            pytest.param(
                lambda t: t.replace("<event>", "<event><event>").replace(
                    "</event>", "</event></event>"
                ),
                0,
                id="nested-event",
            ),
            pytest.param(
                lambda t: t.replace("<trace>", '<trace id="t">'), 0, id="attributed-trace"
            ),
            pytest.param(lambda t: t.replace("<trace>", "<trace >"), 0, id="spaced-trace"),
            pytest.param(lambda t: t.replace('value="b"', 'value="b&amp;c"'), 1, id="reference"),
            pytest.param(
                lambda t: t.replace('value="b"', 'value="b&#65;"'), 1, id="char-reference"
            ),
            pytest.param(lambda t: t.replace('value="b"', 'value="b\tc"'), 1, id="raw-tab"),
            pytest.param(lambda t: t.replace('value="b"', 'value="b\nc"'), 1, id="raw-newline"),
            pytest.param(lambda t: t.replace('value="b"', 'value="b\rc"'), 1, id="raw-return"),
            pytest.param(
                lambda t: t.replace("</trace>\n  <trace>", "</trace><!-- c -->\n  <trace>"),
                0,
                id="between-traces",
            ),
            pytest.param(
                lambda t: t.replace("</log>", "<trace/></log>"), 3, id="closing-trace"
            ),
            pytest.param(
                lambda t: t.replace("</log>", "<!-- c --></log>"), 3, id="closing-comment"
            ),
            pytest.param(
                lambda t: t.replace(
                    "<log ", "<!DOCTYPE log [<!ATTLIST string value NMTOKENS #IMPLIED>]>\n<log "
                ).replace('value="b"', 'value=" b  c "'),
                0,
                id="document-type",
            ),
            # in the form, but no plan builds the trace: its case id is typed
            pytest.param(
                lambda t: t.replace('<string key="concept:name" value="2" />',
                                    '<int key="concept:name" value="2" />'),
                1,
                id="typed-case-id",
            ),
            # in the form and of a layout with a plan, but its date does not parse:
            # the callbacks' walk reports the tree reader's error
            pytest.param(
                lambda t: t.replace('value="b" />\n      <date key="time:timestamp" value="1970-',
                                    'value="b" />\n      <date key="time:timestamp" value="1970-13-'),
                1,
                id="bad-date",
            ),
        ],
    )
    def test_fallback_triggers(self, edit, tokenized, tmp_path, monkeypatch):
        # the callbacks read a trace not built from its text and the rest of
        # its block; with short blocks the tokenizer takes the fourth trace again
        # when the trigger is in the second only
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", 64)
        target = tmp_path / "log.xes"
        target.write_text(edit(_traces()), encoding="utf-8")
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert seen["tokenized"] == tokenized
        assert seen["bytes"] == target.stat().st_size
        assert seen["read_at"][1] < seen["bytes"]  # built while the file is read

    @pytest.mark.parametrize(
        "where, edit",
        [
            pytest.param(0, "comment", id="first"),
            pytest.param(1, "comment", id="second"),
            pytest.param(0.5, "comment", id="middle"),
            pytest.param(1.0, "comment", id="last"),
            # a valid trace in the form that no plan builds
            pytest.param(0.5, "typed-case-id", id="typed-case-id-middle"),
            pytest.param(1.0, "typed-case-id", id="typed-case-id-last"),
        ],
    )
    def test_tokenizer_resumes_after_a_trace_out_of_form(
        self, where, edit, hospital_log, tmp_path, monkeypatch
    ):
        # with blocks shorter than a trace, the callbacks read the trace not
        # built from its text and the next one, up to the first trace end
        # after its block
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", 64)
        target = tmp_path / "log.xes"
        write_xes(hospital_log, target)
        cases = len(hospital_log)
        at = where if isinstance(where, int) else int(where * (cases - 1))
        traces = target.read_text(encoding="utf-8").split("</trace>")
        traces[at] = TRACE_EDITS[edit](traces[at])
        target.write_text("</trace>".join(traces), encoding="utf-8")
        got, seen = _spied_read(target, ("Age", "Disease"))
        assert got == _tree_read(target, ("Age", "Disease"))
        # the first trace goes to the callbacks anyway
        callbacks = {0: 1, cases - 1: 2}.get(at, 3)
        assert (seen["callbacks"], seen["tokenized"]) == (callbacks, cases - callbacks)
        assert seen["tried"] == cases - callbacks + (at != 0)
        assert seen["bytes"] == target.stat().st_size

    def test_fallback_reads_one_block_by_callbacks(self, tmp_path):
        # a trace out of form in a large file sends the rest of its block to the
        # callbacks, and the next block is tokenized again
        trace = _traces().split("<trace>", 2)[1].split("</trace>")[0]
        count = 4 * xes_io._BLOCK_BYTES // len(trace)
        traces = [trace.replace('value="a"', f'value="{k}"').replace('"1"', f'"c{k}"')
                  for k in range(count)]
        traces[count // 2] = traces[count // 2].replace("<event>", "<event><!-- c -->")
        head, tail = _traces().split("<trace>", 1)[0], "\n</log>"
        target = tmp_path / "log.xes"
        target.write_text(head + "".join(f"<trace>{t}</trace>" for t in traces) + tail)
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert 1 < seen["callbacks"] <= 2 * xes_io._BLOCK_BYTES // len(trace)
        assert seen["tried"] == seen["tokenized"] + 1
        assert seen["bytes"] == target.stat().st_size

    @pytest.mark.parametrize(
        "first, tokenized",
        [
            ('<trace id="t">', 3),
            ("<trace >", 3),
            ("<trace><!-- </trace> -->", 3),
            ("<xes:trace>", 2),
        ],
        ids=["attributed", "spaced", "closing-tag-in-comment", "prefixed"],
    )
    def test_first_trace_out_of_form_is_read_by_callbacks(self, first, tokenized, tmp_path):
        # the tokenizer starts after the first trace closed by a plain </trace>
        target = tmp_path / "log.xes"
        text = _traces().replace("<log ", '<log xmlns:xes="http://www.xes-standard.org/" ')
        text = text.replace("<trace>", first, 1)
        if first == "<xes:trace>":
            text = text.replace("</trace>", "</xes:trace>", 1)
        target.write_text(text)
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert (seen["callbacks"], seen["tokenized"]) == (4 - tokenized, tokenized)
        assert seen["bytes"] == target.stat().st_size

    @pytest.mark.parametrize(
        "head, encoding",
        [
            ("<?xml version='1.0' encoding='ISO-8859-1'?>\n", "latin-1"),
            ("<?xml version='1.0' encoding = 'windows-1252'?>\n", "cp1252"),
            ("<?xml version='1.0' encoding='UTF-16'?>\n", "utf-16"),
            ("", "utf-16-le"),
        ],
        ids=["latin-1", "cp1252", "utf-16", "utf-16-no-declaration"],
    )
    def test_other_encodings_fall_back(self, head, encoding, tmp_path):
        target = tmp_path / "log.xes"
        body = _traces().split("\n", 1)[1].replace('value="b"', 'value="\xe9"')
        target.write_bytes((head + body).encode(encoding))
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert not isinstance(got, str) and got[0].instances[1].trace[0].activity == "\xe9"
        assert seen["tokenized"] == 0

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda t: t.replace("<log ", "<!DOCTYPE log>\n<log "), id="document-type"),
            pytest.param(lambda t: t.replace("utf-8", "ISO-8859-1"), id="latin-1"),
        ],
    )
    def test_files_not_to_tokenize_are_read_as_they_stream(self, edit, tmp_path, monkeypatch):
        # the first block ends with the first trace: the callbacks read the rest
        # block by block, not all at the end
        text = edit(_traces())
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", text.index("</trace>") + len("</trace>"))
        target = tmp_path / "log.xes"
        target.write_text(text, encoding="utf-8")
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert seen["tokenized"] == 0
        assert seen["read_at"][1] < seen["bytes"] == target.stat().st_size

    @pytest.mark.parametrize(
        "edit,counts",
        [
            pytest.param(lambda t: t, TOKENIZED, id="as-written"),
            pytest.param(lambda t: t.split("\n", 1)[1], TOKENIZED, id="no-declaration"),
            pytest.param(lambda t: "\ufeff" + t, TOKENIZED, id="utf-8-byte-order-mark"),
            pytest.param(
                lambda t: t.replace("encoding='utf-8'", 'encoding="UTF-8"'), TOKENIZED, id="utf-8"
            ),
            pytest.param(lambda t: t.replace("\n", "\r\n"), TOKENIZED, id="crlf"),
            pytest.param(lambda t: t.replace(" />", "/>"), TOKENIZED, id="no-space"),
            # a '"' outside the attributes leaves the form: the second trace is
            # tried as text, and the callbacks read it and the rest of its block
            pytest.param(
                lambda t: t.replace("<event>", "<event>text 'quoted' \"too\""), (4, 0, 1), id="text"
            ),
            pytest.param(
                lambda t: t.replace("<event>", "<event>&#65;&lt;&amp;"), TOKENIZED,
                id="text-references",
            ),
            # a typed sensitive key repeated after the events: no plan builds
            # the trace, so the callbacks read it and the rest of its block
            pytest.param(
                lambda t: t.replace(
                    "</event>\n  </trace>",
                    '</event><string key="Age" value="late" /><int key="Age" value="5" /></trace>',
                ),
                (4, 0, 1),
                id="trace-attributes-after-events",
            ),
            pytest.param(
                lambda t: t.replace(
                    "<trace>",
                    '<extension name="Concept" prefix="concept" uri="x" /><!-- <trace> -->'
                    '<global scope="trace"><trace><string key="concept:name" value="g" /></trace>'
                    '<string key="concept:name" value="g" /></global><trace>',
                    1,
                ),
                TOKENIZED,
                id="log-level-elements",
            ),
            pytest.param(
                lambda t: t.replace('value="b"', "value=\"it's > \xe9€\""),
                TOKENIZED,
                id="value-characters",
            ),
            # an event without fields: no plan builds the trace either
            pytest.param(
                lambda t: t.replace("</trace>", "<event></event></trace>"), (4, 0, 1),
                id="empty-event",
            ),
        ],
    )
    def test_canonical_files_take_the_tokenizer(self, edit, counts, tmp_path):
        target = tmp_path / "log.xes"
        target.write_text(edit(_traces()), encoding="utf-8")
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert (seen["callbacks"], seen["tokenized"], seen["tried"]) == counts

    @pytest.mark.parametrize("block", [1, 7, 13, 64, 200])
    def test_traces_straddling_blocks(self, block, hospital_log, tmp_path, monkeypatch):
        target = tmp_path / "log.xes"
        write_xes(hospital_log, target)
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", block)
        got, seen = _spied_read(target, ("Age", "Disease"), TimestampAccuracy.HOURS)
        assert got == _tree_read(target, ("Age", "Disease"), TimestampAccuracy.HOURS)
        assert (seen["callbacks"], seen["tokenized"]) == (1, len(hospital_log) - 1)
        assert seen["bytes"] == target.stat().st_size

    @pytest.mark.parametrize("block", [16, 64])
    def test_long_traces_go_to_the_callbacks(self, block, hospital_log, tmp_path, monkeypatch):
        # a trace longer than the limit is not held whole, and the next short one
        # is tokenized again
        target = tmp_path / "log.xes"
        write_xes(hospital_log, target)
        lengths = [len(t) for t in target.read_bytes().split(b"</trace>")[1:-1]]
        limit = sorted(lengths)[len(lengths) // 2]
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", block)
        monkeypatch.setattr(xes_io, "_TRACE_BYTES", limit)
        got, seen = _spied_read(target, ("Age", "Disease"))
        assert got == _tree_read(target, ("Age", "Disease"))
        assert 1 < seen["callbacks"] < len(hospital_log)
        assert seen["callbacks"] + seen["tokenized"] == len(hospital_log)
        # a trace is given up once a block ends with more than the limit of it unclosed
        assert seen["longest"] <= limit + block

    def test_empty_log_is_read(self, tmp_path):
        target = tmp_path / "log.xes"
        write_xes(EventLog((), ("Age",)), target)
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",)) == (EventLog((), ("Age",)), 0)
        assert seen["bytes"] == target.stat().st_size

    def test_parse_error_after_tokenized_content_error_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", 64)  # the traces end blocks before the error
        target = tmp_path / "log.xes"
        head, _, tail = _traces().rpartition('value="1970-01-01T00:00:00Z"')
        text = f'{head}value="never"{tail}'
        target.write_text(text.replace("</log>", "<trace></log>"), encoding="utf-8")
        got, seen = _spied_read(target, ("Age",))
        assert got == _tree_read(target, ("Age",))
        assert got.startswith(f"cannot read {target}: mismatched tag")
        # the trace with the bad date was tried as text, and read by the
        # callbacks, before expat met the error
        assert (seen["tokenized"], seen["tried"]) == (2, 3)


# --- what expat reads of the traces taken as text ------------------------------

# one insertion each: characters XML 1.0 refuses (controls, U+FFFE, U+FFFF),
# a CDATA end, markup characters, characters str.strip() takes for
# whitespace and XML does not (FS, NEL, U+3000), a raw byte that is not
# UTF-8 and a tag whose name starts with a digit
MALFORMING = [b"\x01", b"\x0b", b"\x1f", "\ufffe".encode(), "\uffff".encode(), b"]]>", b"&",
              b"<", b"\x1c", "\x85".encode(), "\u3000".encode(), b"\x85",
              b'<1tag key="a" value="b" />']


@contextlib.contextmanager
def _fed_to_expat():
    """Record the bytes each expat parser of a read is given, in the order
    the parsers are made (the reader's first, then one per plan)."""
    fed = []

    class Recorded:
        def __init__(self, **kwargs):
            object.__setattr__(self, "parser", expat.ParserCreate(**kwargs))
            object.__setattr__(self, "data", bytearray())
            fed.append(self.data)

        def Parse(self, data, final=False):
            self.data.extend(data.encode() if isinstance(data, str) else data)
            return self.parser.Parse(data, final)

        def __getattr__(self, name):
            return getattr(self.parser, name)

        def __setattr__(self, name, value):
            setattr(self.parser, name, value)

    spy = types.SimpleNamespace(ParserCreate=Recorded, ExpatError=expat.ExpatError)
    with mock.patch.object(xes_io, "expat", spy):
        yield fed


class TestXesWellFormedness:
    """Expat checks each layout once, when its plan is compiled, and a regex
    each value; of a trace taken as text expat reads only a stand-in.  A file
    reads as the element tree reads it, the line and column of a parse error
    included, and no file that expat refuses is read."""

    @settings(max_examples=300, deadline=None)
    @given(
        log=st.sampled_from([PLAIN_XML_CHARS, XML_CHARS])
        .flatmap(lambda chars: xes_logs(NEAR_STAMPS, chars))
        .filter(lambda log: len(log) > 1),
        item=st.sampled_from(MALFORMING),
        newline=st.sampled_from(["\n", "\r\n", "\r", ""]),
        where=st.sampled_from([None, rb"(?=<)", rb'value="']),
        data=st.data(),
    )
    def test_one_insertion_reads_as_the_tree_reads_it(
        self, log, item, newline, where, data, tmp_path_factory
    ):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        write_xes(log, target)
        raw = target.read_bytes().replace(b"\n", newline.encode())
        first = raw.index(b"</trace>") + len(b"</trace>")
        # anywhere after the first trace, or there just before a markup
        # character or at the start of a value
        spots = where and [first + m.end() for m in re.finditer(where, raw[first:])]
        at = data.draw(st.sampled_from(spots) if spots else st.integers(first, len(raw)))
        target.write_bytes(raw[:at] + item + raw[at:])
        expected = _tree_read(target, log.sensitive_attrs)
        for block in (64, xes_io._BLOCK_BYTES):
            with mock.patch.object(xes_io, "_BLOCK_BYTES", block):
                got, _ = _spied_read(target, log.sensitive_attrs)
            assert got == expected

    @pytest.mark.parametrize("block", [64, None])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_expat_reads_stand_ins_for_the_traces_taken_as_text(
        self, block, newline, hospital_log, tmp_path, monkeypatch
    ):
        if block:
            monkeypatch.setattr(xes_io, "_BLOCK_BYTES", block)
        target = tmp_path / "log.xes"
        write_xes(hospital_log, target)
        raw = target.read_bytes().replace(b"\n", newline.encode())
        target.write_bytes(raw)
        with _fed_to_expat() as fed:
            got, seen = _spied_read(target, ("Age", "Disease"))
        assert got == _tree_read(target, ("Age", "Disease"))
        assert seen["bytes"] == len(raw) and seen["tokenized"] == len(hospital_log) - 1
        read, *plans = fed
        assert len(plans) == len(_layouts(raw.decode().split("</trace>", 1)[1]))
        assert len(read) < len(raw)  # the file is read once, and parsed in part

        def breaks(text):  # the line breaks expat counts
            return text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n")

        assert breaks(read) == breaks(raw)
        # the callbacks' trace byte for byte, and what follows the last trace
        first, last = raw.index(b"</trace>") + 8, raw.rindex(b"</trace>") + 8
        assert read.startswith(raw[:first]) and read.endswith(raw[last:])
        if not block:  # the file is one block: the traces after the first are one stretch
            stand_in = b"\n" * breaks(raw[first:last]) + b" " * len(b"  </trace>")
            assert read == raw[:first] + stand_in + raw[last:]


# --- trace layouts against the element-tree reference -------------------------

# good and bad attribute values by (tag, key); None writes the attribute without one
LAYOUT_VALUES = {
    ("string", "concept:name"): (["a", "b", "it's", " é€ ", "a&amp;b"], [None]),
    ("id", "concept:name"): (["a", "7"], []),
    ("int", "concept:name"): (["5", "05"], ["x", "1_2"]),
    ("float", "concept:name"): (["1.50", "nan"], ["x"]),
    ("boolean", "concept:name"): (["true"], ["yes"]),
    ("date", "time:timestamp"): (
        ["1970-01-01T00:00:00Z", "1970-01-01T05:30:00Z", "2020-02-29T23:59:59+02:00"],
        ["yesterday", None],
    ),
    ("string", "time:timestamp"): (["1970-01-01T01:00:00Z"], []),
    ("string", "org:resource"): (["r", "s", "r&#9;t"], []),
    ("int", "Age"): (["4", "-2"], ["old", None, "1_000", "&#1633;&#1634;"]),
    ("float", "Age"): (["3.5", "inf"], ["x", "1_0.5"]),
    ("boolean", "Age"): (["true", "false"], ["1"]),
    ("string", "Age"): (["9", "young"], []),
    ("string", "Disease"): (["flu", "cold"], []),
    ("string", "lifecycle:transition"): (["complete"], []),
    ("list", "Disease"): (["x"], []),
}
TRACE_KEYS = [("string", "Disease"), ("string", "Age"), ("int", "Age"), ("float", "Age"),
              ("boolean", "Age"), ("int", "concept:name"), ("string", "lifecycle:transition"),
              ("list", "Disease")]
EVENT_KEYS = [("string", "org:resource"), ("string", "lifecycle:transition"), ("int", "Age"),
              ("int", "concept:name"), ("float", "concept:name"), ("boolean", "concept:name"),
              ("id", "concept:name"), ("string", "time:timestamp")]
# text between elements: quotes shift which pieces of a split at '"' are values
LAYOUT_TEXTS = ["text", 'say "hi"', 'one " quote', "&#65;&amp;&lt;", "&quot;"]


@st.composite
def layout_templates(draw):
    """A trace layout: ``("text", content)``, ``("attr", tag, key)``,
    ``("open",)`` and ``("close",)`` items, the case id first or late."""
    def text():
        if draw(st.integers(0, 5)) != 3:
            return []
        return [("text", draw(st.sampled_from(LAYOUT_TEXTS)))]

    def attrs(choices):
        return [
            item
            for key in draw(st.lists(st.sampled_from(choices), max_size=2))
            for item in (("attr", *key), *text())
        ]

    items = [*text(), *attrs(TRACE_KEYS)]
    case_id = ("attr", "string", "concept:name")
    items.insert(draw(st.integers(0, len(items))), case_id)
    for _ in range(draw(st.integers(1, 3))):  # one-event traces among them
        fields = [("attr", "string", "concept:name"), ("attr", "date", "time:timestamp")]
        fields = [f for f in fields if draw(st.integers(0, 40)) != 17]  # rarely without one
        fields += attrs(EVENT_KEYS)
        order = draw(st.permutations(fields))
        items += [("open",), *text(), *order, ("close",), *text()]
    items += attrs(TRACE_KEYS)  # trace attributes after the events
    return items


@st.composite
def layout_files(draw):
    """An XES file of a few traces, each a drawn layout filled with drawn
    values, and its line break."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    templates = draw(st.lists(layout_templates(), min_size=1, max_size=3))
    traces = []
    for number in range(draw(st.integers(2, 7))):
        parts = []
        for item in draw(st.sampled_from(templates)):
            if item[0] == "text":
                parts.append(item[1])
            elif item[0] in ("open", "close"):
                parts.append("<event>" if item[0] == "open" else "</event>")
            else:
                _, tag, key = item
                good, bad = LAYOUT_VALUES[tag, key]
                if (tag, key) == ("string", "concept:name") and parts.count("<event>") == \
                        parts.count("</event>") and draw(st.integers(0, 19)) != 7:
                    value = f"c{number}"  # a case id, mostly distinct
                elif bad and draw(st.integers(0, 60)) == 17:  # drawn values are rarely bad
                    value = draw(st.sampled_from(bad))
                else:
                    value = draw(st.sampled_from(good))
                written = "" if value is None else f' value="{value}"'
                parts.append(f'<{tag} key="{key}"{written} />')
        traces.append(f"{newline}    ".join(["<trace>", *parts]) + f"{newline}  </trace>")
    body = f"{newline}  ".join(["", *traces])
    return (
        f"<?xml version='1.0' encoding='utf-8'?>{newline}"
        f'<log xes.version="2.0" xmlns="http://www.xes-standard.org/">{body}{newline}</log>'
    )


@contextlib.contextmanager
def _counted_plans():
    """Count the plans and the parts :func:`read_xes` compiles, and its regex reads."""
    seen = {"plans": 0, "parts": 0, "regex": 0}
    tokens = xes_io._tokens

    class CountingPlan(xes_io._Plan):
        __slots__ = ()

        def __init__(self, *args):
            seen["plans"] += 1
            super().__init__(*args)

    class CountingPart(xes_io._Part):
        __slots__ = ()

        def __init__(self, *args):
            seen["parts"] += 1
            super().__init__(*args)

    def counting_tokens(text):
        seen["regex"] += 1
        return tokens(text)

    with mock.patch.object(xes_io, "_Plan", CountingPlan), \
            mock.patch.object(xes_io, "_Part", CountingPart), \
            mock.patch.object(xes_io, "_tokens", counting_tokens):
        yield seen


def _layouts(xes_text):
    """The distinct trace layouts of a file: each trace with its values taken out."""
    return {
        re.sub(r'value="[^"]*"', "", trace)
        for trace in re.findall(r"<trace>.*?</trace>", xes_text, re.S)
    }


def _parts(xes_text):
    """The distinct parts of the trace layouts of a file: each layout's
    stretches between ``<event>``."""
    return {part for layout in _layouts(xes_text) for part in layout.split("<event>")}


class TestXesPlans:
    """One plan per trace layout, joined from one part per distinct stretch,
    builds each case read from its text, the callbacks build the others, and
    the read equals the element tree's."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=layout_files(),
        accuracy=st.sampled_from([TimestampAccuracy.SECONDS, TimestampAccuracy.HOURS]),
    )
    def test_layouts_match_tree_reader(self, text, accuracy, tmp_path_factory):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        target.write_bytes(text.encode("utf-8"))
        got, seen = _spied_read(target, ("Age", "Disease"), accuracy)
        assert got == _tree_read(target, ("Age", "Disease"), accuracy)
        assert seen["tokenized"] + seen["callbacks"] == text.count("<trace>")

    @pytest.mark.parametrize(
        "edit,tokenized",
        [
            pytest.param(lambda t: t, 4, id="as-written"),
            pytest.param(lambda t: t.replace("\n", "\r\n"), 4, id="crlf"),
            # the events are equal, so a split at quotes would misplace the values
            # the same way in every trace: the callbacks read them all
            pytest.param(lambda t: t.replace("<event>", '<event>say "hi"'), 0, id="quoted-text"),
        ],
    )
    def test_plans_typed_values_on_one_layout(self, edit, tokenized, tmp_path):
        # one layout of typed sensitive values, good in some traces and bad in one
        log = EventLog(
            tuple(
                ProcessInstance(f"c{k}", (Event("a", "r", 60),), {"Age": k, "Disease": True})
                for k in range(5)
            ),
            ("Age", "Disease"),
        )
        target = tmp_path / "log.xes"
        write_xes(log, target)
        text = edit(target.read_text(encoding="utf-8"))
        target.write_text(text, encoding="utf-8")
        with _counted_plans() as plans:
            got, seen = _spied_read(target, ("Age", "Disease"))
        assert got == _tree_read(target, ("Age", "Disease")) == (_as_read_back(log), 0)
        # the callbacks compile no plan
        assert plans["plans"] == min(tokenized, 1) and seen["tokenized"] == tokenized
        bad = text.replace('<int key="Age" value="3" />', '<int key="Age" value="x" />')
        target.write_text(bad, encoding="utf-8")
        got, _ = _spied_read(target, ("Age", "Disease"))
        assert got == _tree_read(target, ("Age", "Disease"))
        assert got == f"{target}: case 'c3': <int> attribute 'Age' has bad value 'x'"

    @settings(max_examples=100, deadline=None)
    @given(log=xes_logs(NEAR_STAMPS, PLAIN_XML_CHARS))
    def test_one_plan_per_layout_and_one_regex_read_per_part(self, log, tmp_path_factory):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        write_xes(log, target)
        with _counted_plans() as seen:
            assert read_xes(target, log.sensitive_attrs) == _as_read_back(log)
        text = target.read_text(encoding="utf-8")
        assert seen["plans"] <= len(_layouts(text))
        # later traces of a layout are split, not matched, and parts are shared
        assert seen["parts"] <= len(_parts(text)) and seen["regex"] <= len(_parts(text))

    def test_one_plan_per_layout_of_a_large_log(self, treatment_log, tmp_path):
        target = tmp_path / "log.xes"
        write_xes(treatment_log, target)
        with _counted_plans() as seen:
            read_xes(target, treatment_log.sensitive_attrs)
        text = target.read_text(encoding="utf-8")
        # the layouts of the traces after the first, which the callbacks read
        assert seen["plans"] == len(_layouts(text.split("</trace>", 1)[1])) < len(treatment_log)
        assert seen["parts"] <= len(_parts(text)) and seen["regex"] <= len(_parts(text))

    def test_plans_past_the_bound_serve_one_trace(self, treatment_log, tmp_path, monkeypatch):
        monkeypatch.setattr(xes_io, "_HELD_BYTES", 0)  # no plan or part is kept
        target = tmp_path / "log.xes"
        write_xes(treatment_log, target)
        with _counted_plans() as seen:
            assert read_xes(target, treatment_log.sensitive_attrs) == _as_read_back(treatment_log)
        # each trace after the first, which the callbacks read, compiles its
        # plan, and each of its parts is matched
        assert seen["plans"] == len(treatment_log) - 1
        assert seen["regex"] == sum(len(inst) + 1 for inst in treatment_log.instances[1:])

    def test_kept_plans_and_parts_are_bounded_by_their_keys(self, treatment_log, tmp_path,
                                                             monkeypatch):
        # long text between elements, distinct in each trace, makes every layout
        # and part distinct and larger than a layout's tokens; one layout and its
        # parts fit the bound, and all of them fill it ten times over
        bound = 1 << 15
        monkeypatch.setattr(xes_io, "_HELD_BYTES", bound)
        made = []

        class Recorded(xes_io._XesCases):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(xes_io, "_XesCases", Recorded)
        copies = [ProcessInstance(f"{inst.case_id}.{copy}", inst.trace, inst.sensitive)
                  for copy in range(8) for inst in treatment_log]
        log = EventLog(tuple(copies[:60]), treatment_log.sensitive_attrs)
        target = tmp_path / "log.xes"
        write_xes(log, target)
        traces = iter(range(len(log)))
        text = re.sub(
            r"<trace>.*?</trace>",
            lambda m: m.group().replace("\n", "\n" + " " * (800 + next(traces))),
            target.read_text(encoding="utf-8"),
            flags=re.S,
        )
        target.write_text(text, encoding="utf-8")
        assert len("".join(_layouts(text))) > 10 * bound
        assert read_xes(target, log.sensitive_attrs) == _as_read_back(log)
        (cases,) = made
        kept = [*cases.plans, *cases.parts]
        assert cases.held <= bound
        assert sum(len(key) for key in kept) <= bound
        assert len(cases.plans) > 0 and len(cases.parts) > 0

    @pytest.mark.parametrize("held, pattern_bytes", [(0, None), (None, 1 << 30), (None, None)],
                             ids=["nothing-kept", "plans-kept", "default"])
    def test_no_pattern_is_compiled_past_the_bound(self, held, pattern_bytes, treatment_log,
                                                   tmp_path, monkeypatch):
        # a layout whose plan or pattern does not fit is served by its split,
        # and compiles no regex; within the bound each layout compiles one
        monkeypatch.setattr(xes_io, "_pays", lambda *counts: True)
        if held is not None:
            monkeypatch.setattr(xes_io, "_HELD_BYTES", held)
        if pattern_bytes is not None:
            monkeypatch.setattr(xes_io, "_PATTERN_BYTES", pattern_bytes)
        target = tmp_path / "log.xes"
        write_xes(treatment_log, target)
        with _counted_plans() as seen, mock.patch.object(xes_io.re, "compile",
                                                         wraps=re.compile) as compiled:
            assert read_xes(target, treatment_log.sensitive_attrs) == _as_read_back(treatment_log)
        layouts = len(_layouts(target.read_text(encoding="utf-8").split("</trace>", 1)[1]))
        assert compiled.call_count == (layouts if (held, pattern_bytes) == (None, None) else 0)
        assert seen["plans"] == (len(treatment_log) - 1 if held == 0 else layouts)

    def test_patterns_leave_half_the_bound_to_plans_and_parts(self, treatment_log, tmp_path,
                                                              monkeypatch):
        # under a bound that holds every plan, part and pattern of the file,
        # patterns take at most half of it, and every layout keeps its plan
        monkeypatch.setattr(xes_io, "_pays", lambda *counts: True)
        made = []

        class Recorded(xes_io._XesCases):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(xes_io, "_XesCases", Recorded)
        target = tmp_path / "log.xes"
        write_xes(treatment_log, target)
        read_xes(target, treatment_log.sensitive_attrs)
        monkeypatch.setattr(xes_io, "_HELD_BYTES", made[0].held)
        with mock.patch.object(xes_io.re, "compile", wraps=re.compile) as compiled:
            assert read_xes(target, treatment_log.sensitive_attrs) == _as_read_back(treatment_log)
        cases, layouts = made[1], len(made[0].plans)
        keys = [*cases.plans, *cases.parts]
        assert len(made[0].patterns) == len(cases.plans) == layouts > 1
        assert 0 < cases.held - sum(len(key) + xes_io._PART_BYTES for key in keys) \
            <= made[0].held // 2
        assert 0 < compiled.call_count < layouts

    @pytest.mark.parametrize("uses, splits, ahead, pays", [
        (64, 64, 32, True), (64, 64, 31.9, False), (63, 63, 1e9, False),
        (400, 480, 5, True), (400, 481, 1e9, False), (1, 1, 1e9, False)])
    def test_a_pattern_pays_for_enough_traces_of_its_quote_count_to_come(
            self, uses, splits, ahead, pays):
        # a layout's split reads less two standard deviations, times the bytes
        # ahead per byte read, reach _PATTERN_USES (1536), and are three in
        # four of its quote count's split reads
        assert xes_io._pays(uses, splits, ahead) is pays

    @pytest.mark.parametrize("kinds, uses, compiles", [
        ("A" * 300, 0, 1), ("A" * 300, 40, 1), ("A" * 300, 10**9, 0), ("AB" * 150, 0, 0),
        (("A" * 9 + "B") * 30, 0, 1), ("A" * 220 + "C" * 80, 0, 2), ("A" * 220 + "C" * 80, 40, 1)])
    def test_a_pattern_is_compiled_once_the_traces_to_come_pay_for_it(
            self, kinds, uses, compiles, treatment_log, tmp_path, monkeypatch):
        # a layout's pattern is compiled at its first split read that pays,
        # and matches the rest of its traces.  A trace of kind A has another
        # attribute on its first event, B on its second (the same quote
        # count), and C has one event less.  Layouts of one in two of their
        # count's traces, or met only near the end of the file, compile none
        inst = treatment_log.instances[0]
        traces = {"A": inst.trace, "B": inst.trace, "C": inst.trace[1:]}
        log = EventLog(tuple(ProcessInstance(f"c{k}", traces[kind], inst.sensitive)
                             for k, kind in enumerate(kinds)), treatment_log.sensitive_attrs)
        target = tmp_path / "log.xes"
        write_xes(log, target)
        kind, extra = iter(kinds), '<event><string key="x" value="y" />'

        def mark(trace):
            head, event, rest = trace.group().partition("<event>")
            if next(kind) == "B":
                return head + event + rest.replace("<event>", extra, 1)
            return head + extra + rest

        text = target.read_text(encoding="utf-8")
        target.write_text(re.sub(r"<trace>.*?</trace>", mark, text, flags=re.S))
        monkeypatch.setattr(xes_io, "_PATTERN_USES", uses)
        monkeypatch.setattr(xes_io, "_BLOCK_BYTES", 4096)
        split, reads = xes_io._XesCases._shape, {}  # plan -> (uses, splits, ahead) of each read

        def spy(cases, piece, ahead):
            plan, values = split(cases, piece, ahead)
            reads.setdefault(plan, []).append((plan.uses, cases.splits[piece.count('"')], ahead))
            return plan, values

        with mock.patch.object(xes_io.re, "compile", wraps=re.compile) as compiled, \
                mock.patch.object(xes_io._XesCases, "_shape", spy):
            assert read_xes(target, log.sensitive_attrs) == _as_read_back(log)
        first = [next((k for k, read in enumerate(seen, 1) if xes_io._pays(*read)), None)
                 for seen in reads.values()]
        assert compiled.call_count == len(first) - first.count(None) == compiles
        assert [len(seen) for seen in reads.values()] == [
            k or len(seen) for k, seen in zip(first, reads.values())]

# value items of a trace tried against a pattern: the reader takes the first
# ones as plain and the others not, and keys a regex would read as syntax
PLAIN_ITEMS = ["", "a", ">", "'", "\x7f", "\x85", "\u3000", "\xe9", "\U0001f600"]
UNPLAIN_ITEMS = ['"', "&", "<", "\t", "\n", "\r", "\x00", "\x1f", "\ufffe", "\uffff"]
PATTERN_KEYS = ["Disease", "a.b", "x*", "(y)", "p+q", "[z]", "c|d", "e\\f", "g?", "$h^"]


@st.composite
def one_case_logs(draw):
    """A log of one case of one to three events, a resource or none on each,
    and a few sensitive attributes with keys a regex would misread."""
    attrs = tuple(draw(st.lists(st.sampled_from(PATTERN_KEYS), max_size=3, unique=True)))
    events = tuple(Event("a", draw(st.sampled_from([None, "r"])), 60 * k)
                   for k in range(draw(st.integers(1, 3))))
    sensitive = {attr: draw(st.sampled_from([None, 1, 1.5, True, "v"])) for attr in attrs}
    return EventLog((ProcessInstance("c", events, sensitive),), attrs)


class TestXesPatterns:
    """The pattern of a layout matches a trace exactly when the trace is
    that layout with plain values, as the split rule of
    :func:`oracles.plain_layout` says."""

    @settings(max_examples=400, deadline=None)
    @given(logs=st.lists(one_case_logs(), min_size=2, max_size=2),
           newline=st.sampled_from(["\n", "\r\n"]), data=st.data())
    def test_pattern_matches_as_the_split_rule(self, logs, newline, data, tmp_path_factory):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        traces = []
        for log in logs:
            write_xes(log, target)
            text = target.read_text(encoding="utf-8").replace("\n", newline)
            traces.append(text[text.index("<trace>") + len("<trace>") : text.index("</trace>")])
        layouts = [trace.split('"') for trace in traces]
        for pieces in layouts:
            pieces[3::4] = [""] * len(pieces[3::4])
        pattern = re.compile(xes_io._pattern(layouts[0]))
        assert pattern.fullmatch(newline + "  <trace>" + traces[0])  # the writer's own trace
        # plain values in this layout or another, then each item in turn put in one of them
        value = st.lists(st.sampled_from(PLAIN_ITEMS), max_size=2).map("".join)
        filled = list(data.draw(st.sampled_from(layouts)))
        filled[3::4] = [data.draw(value) for _ in filled[3::4]]
        slot = 3 + 4 * data.draw(st.integers(0, len(filled[3::4]) - 1))
        at = data.draw(st.integers(0, len(filled[slot])))
        lead = data.draw(st.sampled_from(["", "\n  ", " \t\r\n", "x", "\x0b", "<!---->"]))
        plain = filled[slot]
        for item in PLAIN_ITEMS + UNPLAIN_ITEMS:
            filled[slot] = plain[:at] + item + plain[at:]
            piece = lead + "<trace>" + '"'.join(filled)
            assert bool(pattern.fullmatch(piece)) == plain_layout(piece, '"'.join(layouts[0])), item


def _traces():
    """A canonical file of four cases, as :func:`write_xes` writes it; the
    second one's id is ``2`` and its activity ``b``."""
    event = (
        '\n    <event>\n      <string key="concept:name" value="{}" />'
        '\n      <date key="time:timestamp" value="1970-01-01T00:00:00Z" />\n    </event>'
    )
    traces = "".join(
        f'\n  <trace>\n    <string key="concept:name" value="{cid}" />'
        f'\n    <int key="Age" value="4" />{event.format(label)}\n  </trace>'
        for cid, label in (("1", "a"), ("2", "b"), ("3", "c"), ("4", "d"))
    )
    return (
        "<?xml version='1.0' encoding='utf-8'?>\n"
        f'<log xes.version="2.0" xmlns="http://www.xes-standard.org/">{traces}\n</log>'
    )


def _shuffle_events(xes_text, rng):
    """``xes_text`` as :func:`write_xes` writes it, with each trace's events
    in a random order (labels are escaped, so no value holds ``</event>``)."""

    def shuffle(trace):
        head, *events = re.split(r"(?=\n    <event>)", trace.group(0))
        events[-1] = events[-1].removesuffix("\n  </trace>")
        rng.shuffle(events)
        return "".join([head, *events, "\n  </trace>"])

    return re.sub(r"<trace>.*?</trace>", shuffle, xes_text, flags=re.S)


def _write_stamps(target, cases):
    """Write ``{case id: {activity: timestamp text}}`` as a CSV or XES log
    (by the suffix), the events in the order given."""
    if target.suffix == ".csv":
        rows = "".join(f'{cid},{act},"{ts}"\n' for cid, evs in cases.items()
                       for act, ts in evs.items())
        target.write_text(f"CaseId,Activity,Timestamp\n{rows}")
        return target
    traces = "".join(
        f'<trace><string key="concept:name" value="{cid}"/>'
        + "".join(
            f'<event><string key="concept:name" value="{act}"/>'
            f'<date key="time:timestamp" value="{ts}"/></event>'
            for act, ts in evs.items()
        )
        + "</trace>"
        for cid, evs in cases.items()
    )
    target.write_text(f"<log>{traces}</log>")
    return target


def _assert_prepared_from_exact_read(target, log):
    """``target`` holds ``log`` with its events shuffled.  Its exact read keeps
    each case in the order of its exact seconds, and the CLI's log of it, at
    every accuracy and with or without rebasing, is that read, rebased if
    asked, then floored."""
    exact = load_log(target, sensitive_attrs=log.sensitive_attrs)
    written = {inst.case_id: inst.trace for inst in log}
    for inst in exact:
        stamps = [ev.timestamp for ev in inst.trace]
        assert stamps == sorted(stamps) and Counter(inst.trace) == Counter(written[inst.case_id])
    for relativize in (False, True):
        rebased = relativize_log(exact) if relativize else exact
        for accuracy in TimestampAccuracy:
            config = RunConfig(input=str(target), accuracy=accuracy.value, relativize=relativize,
                               sensitive=log.sensitive_attrs)
            assert cli._load_prepared(config) == truncate_to_accuracy(rebased, accuracy)


class TestFlooredRead:
    """Readers read exact seconds; the CLI floors each log once, after any rebasing."""

    @settings(max_examples=100, deadline=None)
    @given(log=xes_logs(NEAR_STAMPS), rng=st.randoms(use_true_random=False))
    def test_xes_equals_truncated_exact_read(self, log, rng, tmp_path_factory):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        write_xes(log, target)
        target.write_text(_shuffle_events(target.read_text(encoding="utf-8"), rng), "utf-8")
        _assert_prepared_from_exact_read(target, log)

    @settings(max_examples=100, deadline=None)
    @given(log=csv_logs(NEAR_STAMPS), rng=st.randoms(use_true_random=False))
    def test_csv_equals_truncated_exact_read(self, log, rng, tmp_path_factory):
        target = tmp_path_factory.mktemp("csv") / "log.csv"
        colmap = CsvColumnMap(sensitive_cols=log.sensitive_attrs)
        write_csv(log, target, colmap)
        with target.open(newline="", encoding="utf-8") as handle:
            header, *rows = csv.reader(handle)
        rng.shuffle(rows)
        with target.open("w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows([header, *rows])
        _assert_prepared_from_exact_read(target, log)

    @pytest.mark.parametrize("fmt", ["xes", "csv"])
    def test_sorts_on_exact_seconds_before_flooring(self, fmt, tmp_path):
        # 10:30 comes first in the file; flooring first would tie it with 10:10;
        # half a second before the epoch is second -1, so "c" precedes "d"
        cases = {
            "1": {"b": "2019-01-01T10:30:00Z", "a": "2019-01-01T10:10:00Z"},
            "2": {"d": "1970-01-01T00:00:00Z", "c": "1969-12-31T23:59:59.5Z"},
        }
        target = _write_stamps(tmp_path / f"log.{fmt}", cases)
        floored = cli._load_prepared(RunConfig(input=str(target), accuracy="hours",
                                               csv_resource=None))
        assert [[e.activity for e in i.trace] for i in floored] == [["a", "b"], ["c", "d"]]
        assert floored.instances[1].trace[0].timestamp == -3600
        exact = load_log(target, colmap=CsvColumnMap(resource_col=None))
        assert floored == truncate_to_accuracy(exact, TimestampAccuracy.HOURS)

    # xs:dateTime allows any number of fraction digits; a read floors to the second
    @pytest.mark.parametrize("fmt", ["xes", "csv"])
    @pytest.mark.parametrize(
        "stamp, seconds",
        [*((f"2020-01-01T00:38:44.{'9' * n}+02:00", 1577831924) for n in range(1, 10)),
         *((f"1969-12-31T23:59:59.{'5' * n}Z", -1) for n in range(1, 10)),
         ("1960-06-01T12:00:00.25+01:00", -302446800),
         ("1960-06-01T12:00:00+01:00", -302446800),
         ("1969-12-31T23:59:59", -1)],
    )
    def test_timestamps_floor_to_whole_seconds(self, fmt, stamp, seconds, tmp_path):
        target = _write_stamps(tmp_path / f"log.{fmt}", {"1": {"a": stamp}})
        log = load_log(target, colmap=CsvColumnMap(resource_col=None))
        assert log.instances[0].trace[0].timestamp == seconds

    # forms that datetime.fromisoformat reads on Python 3.11 and not on 3.10:
    # a comma fraction reads as a dot fraction, the others fail on every Python
    @pytest.mark.parametrize("fmt", ["xes", "csv"])
    def test_comma_fraction_reads_as_dot_fraction(self, fmt, tmp_path):
        cases = {"1": {"a": "2020-01-01T00:38:44,5+00:00", "b": "2020-01-01T00:38:45,75"}}
        target = _write_stamps(tmp_path / f"log.{fmt}", cases)
        log = load_log(target, colmap=CsvColumnMap(resource_col=None))
        assert [e.timestamp for e in log.instances[0].trace] == [1577839124, 1577839125]

    @pytest.mark.parametrize("fmt", ["xes", "csv"])
    @pytest.mark.parametrize(
        "stamp",
        ["20200101T003844+00:00", "2020-01-01T00:38:44+0000", "2020-01-01T003844", "2020-W01-1"],
    )
    def test_other_iso_forms_fail_on_every_python(self, fmt, stamp, tmp_path):
        target = _write_stamps(tmp_path / f"log.{fmt}", {"1": {"a": stamp}})
        with pytest.raises(LogError, match=re.escape(f"cannot parse timestamp {stamp!r}: ")):
            load_log(target, colmap=CsvColumnMap(resource_col=None))

    def test_one_event_object_per_distinct_event(self):
        log = truncate_to_accuracy(read_xes(DATA / "hospital_log.xes", ("Age", "Disease")),
                                   TimestampAccuracy.HOURS)
        events = [ev for inst in log for ev in inst.trace]
        distinct = {(ev.activity, ev.resource, ev.timestamp) for ev in events}
        assert len({id(ev) for ev in events}) == len(distinct) < len(events)


class TestXesErrors:
    @pytest.mark.parametrize("cut", ["end", "mid-trace"])
    def test_truncated_file(self, cut, tmp_path):
        text = (DATA / "hospital_log.xes").read_text()
        if cut == "end":
            text = text[: text.rindex("</log>")]
        else:
            text = text[: text.index("<event>", text.index("<trace>", 200)) + 20]
        target = tmp_path / "cut.xes"
        target.write_text(text)
        error = _assert_same_failure(target)
        assert str(error).startswith(f"cannot read {target}: ")

    @pytest.mark.parametrize(
        "traces, message",
        [
            ('<trace><string key="concept:name" value="c1"/></trace>',
             "case 'c1': empty traces are not allowed"),
            ('<trace><string key="concept:name" value="c1"/><event>'
             '<string key="concept:name" value="a"/>'
             '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>' * 2,
             "duplicate case id 'c1'"),
            ('<trace><string key="concept:name" value="c1"/><event>'
             '<string key="concept:name" value=""/>'
             '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace>',
             "event activity label must be non-empty"),
        ],
        ids=["empty-trace", "duplicate-case", "empty-activity"],
    )
    def test_model_errors_name_the_file(self, traces, message, tmp_path):
        target = tmp_path / "log.xes"
        target.write_text(f"<log>{traces}</log>")
        error = _assert_same_failure(target)
        assert str(error) == f"{target}: {message}"

    def test_missing_file(self, tmp_path):
        error = _assert_same_failure(tmp_path / "missing.xes")
        assert str(error).startswith(f"cannot read {tmp_path / 'missing.xes'}: ")

    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_output(self, where, hospital_log, tmp_path):
        target = tmp_path / "no" / "out.xes" if where == "missing-dir" else tmp_path
        with pytest.raises(LogError) as expected:
            tree_write_xes(hospital_log, target)
        with pytest.raises(LogError) as got:
            write_xes(hospital_log, target)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"cannot write {target}: ")


class TestModelInvariantsAtIo:
    def test_empty_trace_cannot_be_written(self):
        # the model refuses empty traces outright, so writers never see them
        with pytest.raises(LogError, match="empty"):
            ProcessInstance("1", ())

    def test_loader_output_satisfies_invariants(self, hospital_log):
        ids = [i.case_id for i in hospital_log]
        assert len(set(ids)) == len(ids)
        for inst in hospital_log:
            stamps = [e.timestamp for e in inst.trace]
            assert stamps == sorted(stamps)


class TestFormatDispatch:
    def test_inferred_from_extension(self, hospital_log, tmp_path):
        for name in ("log.xes", "log.csv"):
            target = tmp_path / name
            save_log(hospital_log, target, colmap=HOSPITAL_COLMAP)
            again = load_log(
                target, colmap=HOSPITAL_COLMAP, sensitive_attrs=("Age", "Disease")
            )
            assert again == hospital_log

    def test_unknown_format_rejected(self, hospital_log, tmp_path):
        with pytest.raises(LogError):
            save_log(hospital_log, tmp_path / "log.txt")

    def test_csv_read_takes_the_sensitive_attributes(self):
        # a column map without sensitive columns used to drop the attributes
        log = load_log(DATA / "treatment_relative.csv", colmap=CsvColumnMap(),
                       sensitive_attrs=("Disease",))
        assert log.sensitive_attrs == ("Disease",)
        assert log.instances[0].sensitive == {"Disease": "Cancer"}

    def test_csv_write_keeps_the_sensitive_attributes(self, hospital_log, tmp_path):
        target = tmp_path / "log.csv"
        save_log(hospital_log, target, colmap=CsvColumnMap())
        with target.open(newline="") as handle:
            header = next(csv.reader(handle))
        assert header == ["CaseId", "Activity", "Timestamp", "Resource", "Age", "Disease"]
        assert load_log(target, sensitive_attrs=("Age", "Disease")) == hospital_log

    def test_csv_columns_that_differ_from_the_attributes_fail(self, hospital_log, tmp_path):
        colmap = CsvColumnMap(sensitive_cols=("Disease",))
        with pytest.raises(LogError, match="differ from the sensitive attributes"):
            load_log(DATA / "treatment_relative.csv", colmap=colmap, sensitive_attrs=("Age",))
        with pytest.raises(LogError, match="differ from the sensitive attributes"):
            save_log(hospital_log, tmp_path / "log.csv", colmap=colmap)
        assert not (tmp_path / "log.csv").exists()

    def test_xes_columns_that_differ_from_the_attributes_fail(self, hospital_log, tmp_path):
        # the column map's sensitive columns used to be ignored for XES
        colmap = CsvColumnMap(sensitive_cols=("Disease",))
        with pytest.raises(LogError, match="differ from the sensitive attributes"):
            load_log(DATA / "hospital_log.xes", colmap=colmap)
        with pytest.raises(LogError, match="differ from the sensitive attributes"):
            load_log(DATA / "hospital_log.xes", colmap=colmap, sensitive_attrs=("Age",))
        with pytest.raises(LogError, match="differ from the sensitive attributes"):
            save_log(hospital_log, tmp_path / "log.xes", colmap=colmap)
        assert not (tmp_path / "log.xes").exists()

    def test_repeated_sensitive_attribute_is_read_and_written_once(self, tmp_path):
        twice = ("Disease", "Disease")
        log = load_log(DATA / "hospital_log.xes", sensitive_attrs=twice)
        assert log.sensitive_attrs == ("Disease",)
        assert log == load_log(DATA / "hospital_log.xes", sensitive_attrs=("Disease",))
        save_log(log, tmp_path / "log.csv")
        with (tmp_path / "log.csv").open(newline="") as handle:
            assert next(csv.reader(handle)) == ["CaseId", "Activity", "Timestamp", "Resource",
                                                "Disease"]
        assert load_log(tmp_path / "log.csv", sensitive_attrs=twice) == log
        for colmap in (CsvColumnMap(sensitive_cols=twice), CsvColumnMap(sensitive_cols=twice[:1])):
            assert load_log(DATA / "hospital_log.xes", colmap=colmap, sensitive_attrs=twice) == log
            assert load_log(tmp_path / "log.csv", colmap=colmap, sensitive_attrs=twice[:1]) == log

    def test_xes_read_takes_the_column_maps_attributes(self):
        colmap = CsvColumnMap(sensitive_cols=("Disease",))
        log = load_log(DATA / "hospital_log.xes", colmap=colmap, sensitive_attrs=("Disease",))
        assert log.sensitive_attrs == ("Disease",)
        assert log.instances[0].sensitive == {"Disease": "Flu"}


class TestColumnarJob:
    @pytest.mark.parametrize("fmt", ["xes", "csv"])
    def test_anonymize_job_builds_no_instances(self, fmt, tmp_path):
        save_log(_synthetic_big_log(200, 4025), tmp_path / f"in.{fmt}")
        log = truncate_to_accuracy(load_log(tmp_path / f"in.{fmt}", sensitive_attrs=("Disease",)),
                                   TimestampAccuracy.HOURS)
        result = TlkcAnonymizer(theta=0.2, accuracy="hours", L=2, K=5, C=0.8, bk="seq/ar",
                                sensitive=("Disease",)).anonymize(log)
        save_log(result.log, tmp_path / f"out.{fmt}")
        assert result.dropped_cases and result.events_removed  # the job cuts events and cases
        assert log._instances is None and result.log._instances is None
        assert load_log(tmp_path / f"out.{fmt}", sensitive_attrs=("Disease",)) == result.log


class TestRunConfig:
    def test_missing_config_file_fails(self, tmp_path):
        with pytest.raises(LogError, match=r"^cannot read config .*none\.conf: "):
            read_config(tmp_path / "none.conf")

    def test_fixture_file(self):
        values = read_config(DATA / "treatment_run.conf")
        config = RunConfig(**values)
        assert config.algorithm == "tlkc"
        assert config.L == 2 and config.K == 2 and config.C == 0.5
        assert config.theta == 0.25
        assert config.sensitive == ("Disease",)

    def test_round_trip(self, tmp_path):
        target = tmp_path / "run.conf"
        for config in (
            RunConfig(algorithm="baseline2", K=3, sensitive=("Disease", "Age")),
            RunConfig(),
            RunConfig(csv_resource=None),  # blank on disk, a CSV without resources
            RunConfig(input="log.csv", theta=0.3, tie_break=7, sensitive=("Age",),
                      discretize=("Age",)),
            RunConfig(algorithm="tlkc-ext", alpha=0.25, beta=0.75, relativize=True),
            # a '#' inside a value is no comment
            RunConfig(input="logs/run#2.csv", csv_timestamp_format="%Y-%m-%d#%H"),
            RunConfig(output="out/#1.xes", csv_case="case #", sensitive=("Disease#",)),
        ):
            write_config(config, target)
            assert RunConfig(**read_config(target)) == config

    @pytest.mark.parametrize(
        "bad",
        [
            dict(C=1.5),
            dict(C=0.0),
            dict(K=0),
            dict(L=0),
            dict(theta=2.0),
            dict(alpha=0.2, beta=0.9),
            dict(alpha=float("nan"), beta=float("nan")),
            dict(alpha=0.5, beta=float("nan")),
            dict(bk="nonsense"),
            dict(bk="seq"),
            dict(accuracy="weeks"),
            dict(format="txt"),
            dict(format="XES"),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(LogError):
            RunConfig(**bad)

    def test_values_are_normalized_as_the_flags_are(self):
        from tlkcpriv.cli import _build_config, build_parser

        args = build_parser().parse_args(
            ["stats", "-i", "log.csv", "--sensitive", "Disease,Age", "--discretize", "Age",
             "--csv-resource", ""]
        )
        config = RunConfig(input="log.csv", sensitive="Disease,Age", discretize="Age",
                           csv_resource="")
        assert config == _build_config(args)
        assert (config.sensitive, config.discretize) == (("Disease", "Age"), ("Age",))
        assert config.colmap().resource_col is None

    def test_params_are_parsed_from_the_current_fields(self):
        config = RunConfig(accuracy="MINUTES", bk="Set/AC", sensitive="Disease", theta=0.3)
        assert config.params == PrivacyParams(
            TimestampAccuracy.MINUTES, 2, 2, 0.5, "set/ac", ("Disease",), theta=0.3
        )
        config.K = 5  # a later assignment is never stale
        assert config.params.K == 5

    def test_every_field_reads_back_as_its_annotated_type(self, tmp_path):
        samples = {int: ("7", 7), float: ("0.25", 0.25), bool: ("yes", True)}
        target = tmp_path / "run.conf"
        for name, hint in get_type_hints(RunConfig).items():
            optional = type(None) in get_args(hint)
            kind = next(t for t in get_args(hint) or (hint,) if t is not type(None))
            text, value = samples.get(kind, ("x", "x"))  # any other field reads as str
            target.write_text(f"{name} = {text}\n")
            got = read_config(target)[name]
            assert type(got) is type(value) and got == value, name
            target.write_text(f"{name} =\n")  # blank: None where allowed, else unset
            assert read_config(target) == ({name: None} if optional else {}), name

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("TRUE", True), ("Yes", True), ("on", True),
         ("0", False), ("False", False), ("NO", False), ("off", False)],
    )
    def test_relativize_reads_flag_words_in_any_case(self, tmp_path, value, expected):
        target = tmp_path / "run.conf"
        target.write_text(f"relativize = {value}\n")
        assert read_config(target) == {"relativize": expected}

    @pytest.mark.parametrize("value", ["ture", "2", "y", "enabled"])
    def test_relativize_typo_is_rejected_with_its_line(self, tmp_path, value):
        target = tmp_path / "run.conf"
        target.write_text(f"K = 2\nrelativize = {value}\n")
        with pytest.raises(LogError, match=rf"run\.conf:2: bad value '{value}' for relativize"):
            read_config(target)

    @pytest.mark.parametrize("line", ["k = 8", "threads = 1", "report ="])
    def test_unknown_key_rejected_with_its_line(self, tmp_path, line):
        target = tmp_path / "run.conf"
        target.write_text(f"# only RunConfig fields are keys\nK = 2\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(LogError, match=rf"run\.conf:3: unknown config key '{key}'"):
            read_config(target)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as Windows Notepad saves UTF-8
        target = tmp_path / "bom.conf"
        target.write_bytes(b"\xef\xbb\xbfalgorithm = tlkc-ext\nK = 3\n")
        assert read_config(target) == {"algorithm": "tlkc-ext", "K": 3}

    def test_malformed_file_reported(self, tmp_path):
        target = tmp_path / "bad.conf"
        target.write_text("K: 2\n")
        with pytest.raises(LogError, match="key = value"):
            read_config(target)
