import pytest

from tlkcpriv import (
    CsvColumnMap,
    LogError,
    ProcessInstance,
    RunConfig,
    load_log,
    read_config,
    read_csv,
    read_xes,
    save_log,
    write_config,
    write_csv,
    write_xes,
)

from .conftest import DATA, HOSPITAL_COLMAP


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

    def test_conflicting_sensitive_values_rejected(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource,D\n"
            "1,a,1970-01-01T00:00:00,r,x\n"
            "1,b,1970-01-01T01:00:00,r,y\n"
        )
        with pytest.raises(LogError, match="conflicting"):
            read_csv(target, CsvColumnMap(sensitive_cols=("D",)))

    def test_blank_resource_becomes_none(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource\n1,a,1970-01-01T00:00:00,\n"
        )
        log = read_csv(target, CsvColumnMap())
        assert log.instances[0].trace[0].resource is None

    def test_bad_timestamp_reported(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("CaseId,Activity,Timestamp\n1,a,not-a-date\n")
        with pytest.raises(LogError, match="timestamp"):
            read_csv(target, CsvColumnMap(resource_col=None))


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
