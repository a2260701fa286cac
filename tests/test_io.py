import csv
import logging
import math
import re

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
    is_violating,
    load_log,
    read_config,
    read_csv,
    read_xes,
    save_log,
    truncate_to_accuracy,
    write_config,
    write_csv,
    write_xes,
)

from .conftest import DATA, HOSPITAL_COLMAP
from .oracles import tree_read_xes, tree_write_xes


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
    @pytest.mark.parametrize("first, second", [("x", "y"), ("1", "true"), ("1", "1.0")])
    def test_conflicting_sensitive_values_rejected(self, first, second, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource,D\n"
            f"1,a,1970-01-01T00:00:00,r,{first}\n"
            f"1,b,1970-01-01T01:00:00,r,{second}\n"
        )
        with pytest.raises(LogError, match="conflicting"):
            read_csv(target, CsvColumnMap(sensitive_cols=("D",)))

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

    @pytest.mark.parametrize(
        "body",
        [
            "CaseId,Activity,Timestamp\n1,a,1970-01-01T00:00:00\n2,,1970-01-01T00:00:00\n",
            # a short row leaves the activity cell missing rather than blank
            "CaseId,Timestamp,Activity\n1,1970-01-01T00:00:00,a\n2,1970-01-01T00:00:00\n",
        ],
        ids=["blank", "missing"],
    )
    def test_empty_activity_names_path_and_row(self, body, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(body)
        with pytest.raises(LogError, match=re.escape(f"{target}: row 3 has an empty activity")):
            read_csv(target, CsvColumnMap(resource_col=None))

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
    booleans and numbers)."""
    if value != value.strip() or not value or value.lower() in ("true", "false"):
        return False
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
        ],
        ids=["bad-int", "no-value", "on-an-event", "no-case-id", "bad-boolean", "no-boolean"],
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
LABELS = st.text(XML_CHARS, min_size=1, max_size=6)


SENSITIVE_VALUES = {
    "int": st.integers(-(10**20), 10**20),
    "float": st.floats(),
    "bool": st.booleans(),
    "str": st.one_of(st.sampled_from(NAN_LIKE), st.text(XML_CHARS, max_size=6)),
}


@st.composite
def xes_logs(draw, stamps=WIDE_STAMPS):
    names = draw(
        st.lists(
            LABELS.filter(lambda k: k not in STANDARD_KEYS), max_size=3, unique=True
        )
    )
    kinds = [draw(st.sampled_from(sorted(SENSITIVE_VALUES))) for _ in names]
    case_ids = draw(st.lists(st.text(XML_CHARS, max_size=6), max_size=5, unique=True))
    instances = []
    for case_id in case_ids:
        trace = tuple(
            Event(draw(LABELS), draw(st.none() | st.text(XML_CHARS, max_size=4)), ts)
            for ts in sorted(draw(st.lists(stamps, min_size=1, max_size=4)))
        )
        sensitive = {
            name: draw(st.none() | SENSITIVE_VALUES[kind]) for name, kind in zip(names, kinds)
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


def _shuffle_events(xes_text, rng):
    """``xes_text`` as :func:`write_xes` writes it, with each trace's events
    in a random order (labels are escaped, so no value holds ``</event>``)."""

    def shuffle(trace):
        head, *events = re.split(r"(?=\n    <event>)", trace.group(0))
        events[-1] = events[-1].removesuffix("\n  </trace>")
        rng.shuffle(events)
        return "".join([head, *events, "\n  </trace>"])

    return re.sub(r"<trace>.*?</trace>", shuffle, xes_text, flags=re.S)


class TestFlooredRead:
    """A read at an accuracy equals a read at seconds, then truncated."""

    @settings(max_examples=100, deadline=None)
    @given(log=xes_logs(NEAR_STAMPS), rng=st.randoms(use_true_random=False))
    def test_xes_equals_truncated_exact_read(self, log, rng, tmp_path_factory):
        target = tmp_path_factory.mktemp("xes") / "log.xes"
        write_xes(log, target)
        target.write_text(_shuffle_events(target.read_text(encoding="utf-8"), rng), "utf-8")
        exact = read_xes(target, log.sensitive_attrs)
        for accuracy in TimestampAccuracy:
            floored = read_xes(target, log.sensitive_attrs, accuracy)
            assert floored == truncate_to_accuracy(exact, accuracy)

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
        exact = read_csv(target, colmap)
        for accuracy in TimestampAccuracy:
            assert read_csv(target, colmap, accuracy) == truncate_to_accuracy(exact, accuracy)

    @pytest.mark.parametrize("fmt", ["xes", "csv"])
    def test_sorts_on_exact_seconds_before_flooring(self, fmt, tmp_path):
        # 10:30 comes first in the file; flooring first would tie it with 10:10
        stamps = {"b": "2019-01-01T10:30:00Z", "a": "2019-01-01T10:10:00Z"}
        target = tmp_path / f"log.{fmt}"
        if fmt == "csv":
            rows = "".join(f"1,{act},{ts}\n" for act, ts in stamps.items())
            target.write_text(f"CaseId,Activity,Timestamp\n{rows}")
        else:
            events = "".join(
                f'<event><string key="concept:name" value="{act}"/>'
                f'<date key="time:timestamp" value="{ts}"/></event>'
                for act, ts in stamps.items()
            )
            target.write_text(f'<log><trace><string key="concept:name" value="1"/>{events}</trace></log>')
        colmap = CsvColumnMap(resource_col=None)
        floored = load_log(target, colmap=colmap, accuracy="hours")
        assert [e.activity for e in floored.instances[0].trace] == ["a", "b"]
        assert floored == truncate_to_accuracy(load_log(target, colmap=colmap), TimestampAccuracy.HOURS)

    def test_one_event_object_per_distinct_event(self):
        log = read_xes(DATA / "hospital_log.xes", ("Age", "Disease"), "hours")
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


class TestRunConfig:
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
            RunConfig(input="log.csv", theta=0.3, tie_break=7, discretize=("Age",)),
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
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(LogError):
            RunConfig(**bad)

    @pytest.mark.parametrize("line", ["k = 8", "threads = 1", "report ="])
    def test_unknown_key_rejected_with_its_line(self, tmp_path, line):
        target = tmp_path / "run.conf"
        target.write_text(f"# only RunConfig fields are keys\nK = 2\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(LogError, match=rf"run\.conf:3: unknown config key '{key}'"):
            read_config(target)

    def test_malformed_file_reported(self, tmp_path):
        target = tmp_path / "bad.conf"
        target.write_text("K: 2\n")
        with pytest.raises(LogError, match="key = value"):
            read_config(target)
