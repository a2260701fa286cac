import json
import re

import pytest

from tlkcpriv import (
    CsvColumnMap,
    RunConfig,
    TimestampAccuracy,
    load_log,
    read_csv,
    relativize_log,
    truncate_to_accuracy,
)
from tlkcpriv import cli
from tlkcpriv.cli import main

from .conftest import DATA, TREATMENT_GREEDY, hours_view

TREATMENT = str(DATA / "treatment_relative.csv")
HOSPITAL = str(DATA / "hospital_log.csv")
HOSPITAL_XES = str(DATA / "hospital_log.xes")

HOSPITAL_FLAGS = [
    "--csv-timestamp-format",
    "%d.%m.%Y-%H:%M:%S",
    "--sensitive",
    "Age,Disease",
]

TREATMENT_FLAGS = [
    "-T", "hours", "-L", "2", "-K", "2", "-C", "0.5",
    "--bk", "rel/ar", "--sensitive", "Disease",
]


def run(argv):
    return main(argv)


class TestAnonymize:
    def test_greedy_reference_run(self, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        code = run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25",
             "-i", TREATMENT, "-o", str(out), *TREATMENT_FLAGS]
        )
        assert code == 0
        assert "6 events removed" in capsys.readouterr().out
        written = read_csv(out, CsvColumnMap(sensitive_cols=("Disease",)))
        assert hours_view(written) == TREATMENT_GREEDY
        report = (tmp_path / "anon.csv.report.txt").read_text()
        assert "winner=VI/D1@5" in report and "winner=RE/E4@1" in report
        assert "events removed: 6" in report

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("algorithm = tlkc\ntheta = 0.25\nk = 8\n")
        out = tmp_path / "anon.csv"
        code = run(["anonymize", "--config", str(conf), "-i", TREATMENT, "-o", str(out),
                    "--sensitive", "Disease"])
        assert code == 2
        err = capsys.readouterr().err
        assert "run.conf:3: unknown config key 'k'" in err
        assert not out.exists()

    def test_inline_hash_is_part_of_the_value(self, tmp_path, capsys):
        # only a line that starts with '#' is a comment, so a trailing note
        # makes the value unreadable instead of being stripped
        conf = tmp_path / "run.conf"
        conf.write_text("# a comment line\nalgorithm = tlkc\nK = 2 # note\n")
        out = tmp_path / "anon.csv"
        code = run(["anonymize", "--config", str(conf), "-i", TREATMENT, "-o", str(out),
                    "--sensitive", "Disease"])
        assert code == 2
        assert "run.conf:3: bad value '2 # note' for K" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline1_warns_on_empty_output(self, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        code = run(
            ["anonymize", "--algorithm", "baseline1", "-i", TREATMENT,
             "-o", str(out), *TREATMENT_FLAGS]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "0 cases written" in captured.out
        assert "empty" in captured.err

    def test_tlkc_without_theta_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        code = run(["anonymize", "--algorithm", "tlkc", "-i", TREATMENT, "-o", str(out),
                    *TREATMENT_FLAGS])
        assert code == 2
        assert "error: the tlkc algorithm needs --theta" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_confidence_is_usage_error(self, tmp_path, capsys):
        code = run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-i", TREATMENT,
             "-o", str(tmp_path / "x.csv"), "-T", "hours", "-L", "2", "-K", "2",
             "-C", "1.5", "--bk", "rel/ar", "--sensitive", "Disease"]
        )
        assert code == 2
        assert "C must lie" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,beta", [("nan", "nan"), ("0.5", "nan")])
    def test_nan_weights_are_usage_errors(self, tmp_path, capsys, alpha, beta):
        out = tmp_path / "x.csv"
        code = run(
            ["anonymize", "--algorithm", "tlkc-ext", "--alpha", alpha, "--beta", beta,
             "-i", TREATMENT, "-o", str(out), *TREATMENT_FLAGS]
        )
        assert code == 2
        assert "alpha and beta must be non-negative and sum to 1" in capsys.readouterr().err
        assert not out.exists()

    def test_relativize_typo_in_config_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("algorithm = tlkc\nrelativize = ture\n")
        out = tmp_path / "anon.csv"
        code = run(["anonymize", "--config", str(conf), "-i", TREATMENT, "-o", str(out),
                    "--sensitive", "Disease"])
        assert code == 2
        assert "run.conf:2: bad value 'ture' for relativize" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_input(self, tmp_path, capsys):
        code = run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25",
             "-i", str(tmp_path / "missing.csv"), "-o", str(tmp_path / "x.csv"),
             *TREATMENT_FLAGS]
        )
        assert code == 3
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing", "truncated-end", "truncated-mid-trace"])
    def test_unreadable_xes_input_is_runtime_failure(self, fault, tmp_path, capsys):
        source = tmp_path / "log.xes"
        text = (DATA / "hospital_log.xes").read_text()
        if fault == "truncated-end":
            source.write_text(text[: text.rindex("</log>")])
        elif fault == "truncated-mid-trace":
            source.write_text(text[: text.index("<event>", text.index("<trace>", 200)) + 20])
        code = run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-i", str(source),
             "-o", str(tmp_path / "x.xes"), *TREATMENT_FLAGS]
        )
        assert code == 3
        assert f"error: cannot read {source}: " in capsys.readouterr().err
        assert not (tmp_path / "x.xes").exists()

    def test_unwritable_xes_output_is_runtime_failure(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.xes"
        code = run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-i", TREATMENT,
             "-o", str(target), *TREATMENT_FLAGS]
        )
        assert code == 3
        assert f"error: cannot write {target}: " in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        out = tmp_path / "anon.csv"
        code = run(
            ["anonymize", "--config", str(DATA / "treatment_run.conf"),
             "-i", TREATMENT, "-o", str(out), "-K", "2"]
        )
        assert code == 0
        report = (tmp_path / "anon.csv.report.txt").read_text()
        assert "K = 2" in report and "theta = 0.25" in report

    def test_baseline2_summary(self, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        code = run(
            ["anonymize", "--algorithm", "baseline2", "-i", TREATMENT,
             "-o", str(out), *TREATMENT_FLAGS]
        )
        assert code == 0
        assert "12 events removed" in capsys.readouterr().out


class TestAudit:
    def test_anonymized_output_is_satisfied(self, tmp_path):
        out = tmp_path / "anon.csv"
        assert run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25",
             "-i", TREATMENT, "-o", str(out), *TREATMENT_FLAGS]
        ) == 0
        assert run(["audit", "-i", str(out), *TREATMENT_FLAGS]) == 0

    def test_raw_treatment_log_fails(self, capsys, tmp_path):
        report = tmp_path / "audit.json"
        code = run(
            ["audit", "-i", TREATMENT, "--report-json", str(report), *TREATMENT_FLAGS]
        )
        assert code == 1
        assert "NOT satisfied" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["satisfied"] is False
        assert len(payload["violations"]) >= 1
        assert {"candidate", "verdict", "match_size", "max_confidence"} == set(
            payload["violations"][0]
        )

    def test_cell_over_the_field_limit_is_a_log_error(self, tmp_path, capsys):
        # exit 1 would read as "violations found"; an unreadable log is exit 2
        target = tmp_path / "long.csv"
        target.write_text(
            "CaseId,Activity,Timestamp,Resource,Disease\n"
            f"1,{'a' * 200_000},1970-01-01T00:00:00,r,x\n"
        )
        assert run(["audit", "-i", str(target), *TREATMENT_FLAGS]) == 2
        err = capsys.readouterr().err
        assert f"{target}: row 2: field larger than field limit" in err

    def test_report_text_is_built_once(self, tmp_path, capsys, monkeypatch):
        from tlkcpriv.analysis import AuditReport

        calls = []
        lines = AuditReport.lines

        def counted(report):
            calls.append(1)
            return lines(report)

        monkeypatch.setattr(AuditReport, "lines", counted)
        report = tmp_path / "audit.txt"
        code = run(["audit", "-i", TREATMENT, "--report", str(report), *TREATMENT_FLAGS])
        assert code == 1
        assert len(calls) == 1
        out = capsys.readouterr().out
        written = report.read_text()
        assert written.startswith("# effective configuration\n")
        assert written.endswith(out) and out.startswith("privacy audit: NOT satisfied")

    def test_hospital_reports_keep_their_bytes(self, tmp_path, capsys, monkeypatch):
        # the JSON reports of an L=3 audit of the hospital log on all twelve
        # specs, as the eagerly decoded minimal violations wrote them
        import hashlib

        monkeypatch.chdir(DATA)  # the report echoes the input path
        digest = hashlib.sha256()
        for bk in ("set", "mult", "seq", "rel"):
            for attr in ("ac", "re", "ar"):
                report = tmp_path / f"{bk}-{attr}.json"
                assert run(["audit", "-i", "hospital_log.xes", "-T", "hours", "-L", "3",
                            "-K", "2", "-C", "0.5", "--sensitive", "Disease",
                            "--bk", f"{bk}/{attr}", "--report-json", str(report)]) == 1
                digest.update(report.read_bytes())
        assert digest.hexdigest() == (
            "0f454566293fac164b5a48566a210a34ca77d675155cafb15be84309ef4b08da"
        )

    def test_hospital_text_reports_keep_their_bytes(self, tmp_path, capsys, monkeypatch):
        # the text reports and printed output of the same twelve L=3 audits, as
        # each violation's own formatting wrote them
        import hashlib

        monkeypatch.chdir(DATA)  # the report echoes the input path
        text, out = hashlib.sha256(), hashlib.sha256()
        for bk in ("set", "mult", "seq", "rel"):
            for attr in ("ac", "re", "ar"):
                report = tmp_path / f"{bk}-{attr}.txt"
                assert run(["audit", "-i", "hospital_log.xes", "-T", "hours", "-L", "3",
                            "-K", "2", "-C", "0.5", "--sensitive", "Disease",
                            "--bk", f"{bk}/{attr}", "--report", str(report)]) == 1
                text.update(report.read_bytes())
                out.update(capsys.readouterr().out.encode())
        assert text.hexdigest() == (
            "680402e423ebb518744c2d01b177b37b055959aa097994d196b393935e709f65"
        )
        assert out.hexdigest() == (
            "9783a60b2cefce8e5ff1c9cfb5490e34a919303c8b8674117ff0c0e820bd3588"
        )

    def test_each_violation_is_formatted_once(self, tmp_path, capsys, monkeypatch):
        from tlkcpriv import background

        calls = []
        format_candidate = background.format_candidate

        def counted(cand):
            calls.append(cand)
            return format_candidate(cand)

        monkeypatch.setattr(background, "format_candidate", counted)
        report, report_json = tmp_path / "audit.txt", tmp_path / "audit.json"
        code = run(["audit", "-i", HOSPITAL_XES, "-T", "hours", "-L", "3", "-K", "2",
                    "-C", "0.5", "--sensitive", "Disease", "--bk", "seq/ar",
                    "--report", str(report), "--report-json", str(report_json)])
        assert code == 1
        violations = json.loads(report_json.read_text())["violations"]
        assert len(violations) > 1 and len(calls) == len(violations)
        assert [v["candidate"] for v in violations] == [
            line.split("  ")[1] for line in report.read_text().splitlines() if line.startswith("  ")
        ]

    def test_vacuous_requirements_pass(self):
        code = run(
            ["audit", "-i", TREATMENT, "-T", "hours", "-L", "2", "-K", "1",
             "-C", "1.0", "--bk", "rel/ar", "--sensitive", "Disease"]
        )
        assert code == 0


class TestAttack:
    def test_set_attack(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, *HOSPITAL_FLAGS, "--bk", "set/ac", "{VI,IN}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 match(es)" in out and "cases: 4" in out
        assert "Poisoning=1.000" in out

    def test_multiset_attack(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, *HOSPITAL_FLAGS, "--bk", "mult/ar", "[BT/N1^2]"]
        )
        assert code == 0
        assert "cases: 2" in capsys.readouterr().out

    def test_timed_attack_with_relativize(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, *HOSPITAL_FLAGS, "--relativize",
             "-T", "hours", "--bk", "rel/ar", "<VI/D3@1,RL/E6@5>"]
        )
        assert code == 0
        assert "cases: 6" in capsys.readouterr().out

    def test_no_match_is_success(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, *HOSPITAL_FLAGS, "--bk", "set/ac", "{IN,HO}"]
        )
        assert code == 0
        assert "0 match(es)" in capsys.readouterr().out

    def test_parse_error_is_usage_error(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, *HOSPITAL_FLAGS, "--bk", "set/ac", "<VI,IN>"]
        )
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_zero_count_is_usage_error(self, capsys):
        code = run(["attack", "-i", HOSPITAL, *HOSPITAL_FLAGS, "--bk", "mult/ac", "[VI^0,IN]"])
        assert code == 2
        assert "position 1: ^count must be at least 1" in capsys.readouterr().err


class TestEvaluate:
    def test_identical_logs_emd(self, capsys, tmp_path):
        report = tmp_path / "metrics.json"
        code = run(
            ["evaluate", "-i", TREATMENT, "--anonymized", TREATMENT,
             "--metrics", "emd", "--report", str(report), *TREATMENT_FLAGS]
        )
        assert code == 0
        assert "data utility 1.000000" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["metrics"]["emd"]["du"] == 1.0

    def test_cost_matrix_over_the_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        from tlkcpriv import metrics

        out = tmp_path / "anon.csv"
        assert run(["anonymize", "--algorithm", "tlkc", "--theta", "0.25",
                    "-i", TREATMENT, "-o", str(out), *TREATMENT_FLAGS]) == 0
        capsys.readouterr()
        monkeypatch.setattr(metrics, "TRANSPORT_SIZE_CAP", 1)
        code = run(["evaluate", "-i", TREATMENT, "--anonymized", str(out), "--metrics", "emd",
                    *TREATMENT_FLAGS])
        assert code == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert re.fullmatch(r"error: variant cost matrix \d+x\d+ exceeds the exact-transport "
                            r"cap \(1\); sample the logs before comparing\n", stderr)

    def test_dfg_and_handover_on_reference_pair(self, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        run(
            ["anonymize", "--algorithm", "tlkc", "--theta", "0.25",
             "-i", TREATMENT, "-o", str(out), *TREATMENT_FLAGS]
        )
        report = tmp_path / "metrics.json"
        code = run(
            ["evaluate", "-i", TREATMENT, "--anonymized", str(out),
             "--metrics", "emd,dfg,handover", "--edge-diff",
             "--report", str(report), *TREATMENT_FLAGS]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["metrics"]["dfg"]["precision"] == pytest.approx(15 / 16)
        assert 0 <= payload["metrics"]["emd"]["du"] <= 1
        assert "missing_edges" in payload["metrics"]["dfg"]

    def test_each_log_projected_once_per_perspective(self, tmp_path, encode_builds):
        # EMD at hours and the DFG share the untimed activity projection
        flags = ["-T", "hours", "-L", "2", "-K", "2", "-C", "0.5",
                 "--sensitive", "Disease", "--bk", "seq/ac"]
        out = tmp_path / "hospital.xes"
        assert run(["anonymize", "--algorithm", "tlkc", "--theta", "0.25",
                    "-i", HOSPITAL_XES, "-o", str(out), *flags]) == 0
        encode_builds.clear()
        code = run(["evaluate", "--metrics", "emd,dfg,handover", "-i", HOSPITAL_XES,
                    "--anonymized", str(out), *flags])
        assert code == 0
        assert [ps.value for ps, _ in encode_builds] == ["A", "A", "R", "R"]

    def test_unknown_metric_rejected(self, capsys):
        code = run(
            ["evaluate", "-i", TREATMENT, "--anonymized", TREATMENT,
             "--metrics", "nonsense", *TREATMENT_FLAGS]
        )
        assert code == 2

    def test_unknown_metric_rejected_before_any_log_is_read(self, capsys, monkeypatch):
        def no_read(config):
            raise AssertionError(f"{config.input} was read")

        monkeypatch.setattr(cli, "_load_prepared", no_read)
        code = run(
            ["evaluate", "-i", TREATMENT, "--anonymized", TREATMENT,
             "--metrics", "emd,foo", *TREATMENT_FLAGS]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: unknown metric 'foo'; expected emd, dfg or handover\n"

    def test_repeated_metric_runs_once(self, capsys, monkeypatch, tmp_path):
        calls, emd = [], cli.emd_data_utility

        def counting(*args):
            calls.append(args)
            return emd(*args)

        monkeypatch.setattr(cli, "emd_data_utility", counting)
        report = tmp_path / "metrics.json"
        code = run(
            ["evaluate", "-i", TREATMENT, "--anonymized", TREATMENT,
             "--metrics", "emd, dfg,emd", "--report", str(report), *TREATMENT_FLAGS]
        )
        assert code == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[0] for line in lines] == ["emd", "dfg:"]
        assert list(json.loads(report.read_text())["metrics"]) == ["emd", "dfg"]


def _flag_errors():
    """(argv, message) of every usage error that the flags alone decide."""
    commands = {
        "anonymize": ["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-o", "anon.csv"],
        "audit": ["audit"],
        "attack": ["attack", "<RE/E4@1>"],
        "evaluate": ["evaluate", "--anonymized", TREATMENT],
        "stats": ["stats"],
    }
    shared = [
        (["--bk", "bogus/ar"], "unknown background knowledge 'bogus/ar'; expected "
         "<type>/<attr> with type in {set,mult,seq,rel} and attr in {ac,re,ar}"),
        (["-T", "weeks"],
         "unknown timestamp accuracy 'weeks'; expected one of seconds, minutes, hours, days"),
        (["-C", "1.5"], "C must lie in (0, 1]"),
        (["--discretize", "Age"],
         "cannot discretize 'Age': it is not a declared sensitive attribute"),
    ]
    for name, argv in commands.items():
        for flags, message in shared:
            yield pytest.param([*argv, "-i", TREATMENT, *TREATMENT_FLAGS, *flags], message,
                               id=f"{name}{flags[0]}")
    evaluate = ["evaluate", "--anonymized", TREATMENT, "-i", TREATMENT, *TREATMENT_FLAGS]
    for metrics in ("", ","):
        yield pytest.param([*evaluate, "--metrics", metrics],
                           "no metric given; expected emd, dfg or handover",
                           id=f"evaluate-metrics-{metrics!r}")
    anonymize = ["anonymize", "-o", "anon.csv", "-i", TREATMENT, *TREATMENT_FLAGS]
    yield pytest.param([*anonymize, "--algorithm", "nope"], "unknown algorithm 'nope'; "
                       "expected tlkc, tlkc-ext, baseline1 or baseline2", id="anonymize--algorithm")
    yield pytest.param([*anonymize, "--algorithm", "tlkc"], "the tlkc algorithm needs --theta",
                       id="anonymize-no-theta")
    yield pytest.param(["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-o", "anon.txt",
                        "-i", TREATMENT, *TREATMENT_FLAGS],
                       "unknown log format 'txt' (expected xes or csv)", id="anonymize-output-format")
    yield pytest.param(["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-i", TREATMENT,
                        *TREATMENT_FLAGS], "no output path given (use --output)",
                       id="anonymize-no-output")
    yield pytest.param(["audit", *TREATMENT_FLAGS], "no input log given (use --input)",
                       id="audit-no-input")
    yield pytest.param(["attack", "-i", TREATMENT, *TREATMENT_FLAGS, "--bk", "seq/ac", "<a"],
                       "cannot parse candidate '<a' at position 0: seq candidates are written "
                       "<...>", id="attack-literal")


class TestUsageErrorsBeforeAnyRead:
    @pytest.mark.parametrize("argv, message", _flag_errors())
    def test_exits_2_without_reading(self, argv, message, capsys, monkeypatch):
        def no_read(config):
            raise AssertionError(f"{config.input} was read")

        monkeypatch.setattr(cli, "_load_prepared", no_read)
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_config_format_is_checked_before_any_read(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(f"input = {tmp_path / 'missing.xes'}\nformat = txt\n")
        assert run(["stats", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "error: unknown log format 'txt' (expected xes or csv)\n")

    def test_config_discretize_is_checked_before_any_read(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(f"input = {tmp_path / 'missing.csv'}\nsensitive = Disease\n"
                          "discretize = Age\n")
        assert run(["stats", "--config", str(config)]) == 2
        assert capsys.readouterr() == (
            "", "error: cannot discretize 'Age': it is not a declared sensitive attribute\n")


class TestDiscretizeFlag:
    def test_audit_with_discretized_age(self, capsys):
        code = run(
            ["audit", "-i", HOSPITAL, "--csv-timestamp-format", "%d.%m.%Y-%H:%M:%S",
             "--sensitive", "Age,Disease", "--discretize", "Age",
             "-T", "hours", "-L", "1", "-K", "1", "-C", "1.0", "--bk", "set/ac"]
        )
        assert code == 0

    def test_attack_reports_binned_confidence(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, "--csv-timestamp-format", "%d.%m.%Y-%H:%M:%S",
             "--sensitive", "Age", "--discretize", "Age", "--bk", "set/ac", "{RE}"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "high=" in out and "low=" in out

    def test_log_without_cases_is_left_as_it_is(self, capsys, tmp_path):
        # no value to bin; a traceback would exit 1, which reads as "violations found"
        source = tmp_path / "header_only.csv"
        source.write_text("CaseId,Activity,Timestamp,Resource,Age\n")
        code = run(["stats", "-i", str(source), "--sensitive", "Age", "--discretize", "Age"])
        assert code == 0
        assert "cases: 0" in capsys.readouterr().out

    def test_undeclared_attribute_is_usage_error(self, capsys):
        code = run(
            ["attack", "-i", HOSPITAL, "--csv-timestamp-format", "%d.%m.%Y-%H:%M:%S",
             "--sensitive", "Disease", "--discretize", "Age", "--bk", "set/ac", "{RE}"]
        )
        assert code == 2
        assert "cannot discretize 'Age': it is not a declared sensitive attribute" in (
            capsys.readouterr().err
        )

    def test_repeated_attribute_is_binned_once(self, capsys):
        # a second pass would meet the first one's labels as non-numeric values
        code = run(["stats", "-i", HOSPITAL_XES, "-T", "hours",
                    "--sensitive", "Age,Disease,Age", "--discretize", "Age, Age"])
        assert code == 0
        config = RunConfig(sensitive="Age,Disease,Age", discretize=["Age", "Age"])
        assert (config.sensitive, config.discretize) == (("Age", "Disease"), ("Age",))


class TestRepeatedSensitiveAttribute:
    def test_written_and_echoed_once(self, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        code = run(["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-i", TREATMENT,
                    "-o", str(out), *TREATMENT_FLAGS[:-1], "Disease,Disease"])
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header.count("Disease") == 1
        assert hours_view(read_csv(out, CsvColumnMap(sensitive_cols=("Disease",)))) == (
            TREATMENT_GREEDY
        )
        assert "sensitive = Disease\n" in (tmp_path / "anon.csv.report.txt").read_text()


class TestStats:
    def test_hospital_counts(self, capsys):
        code = run(["stats", "-i", HOSPITAL, *HOSPITAL_FLAGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "cases: 6" in out
        assert "events: 26" in out
        assert "variants[A]: 5" in out

    def test_resourceless_log_marks_perspectives(self, capsys, tmp_path):
        target = tmp_path / "bare.csv"
        target.write_text(
            "CaseId,Activity,Timestamp\n"
            "1,a,1970-01-01T00:00:00\n1,b,1970-01-01T01:00:00\n"
        )
        code = run(["stats", "-i", str(target), "--csv-resource", ""])
        assert code == 0
        out = capsys.readouterr().out
        assert "variants[R]: n/a" in out

    def test_empty_activity_is_usage_error(self, capsys, tmp_path):
        source = tmp_path / "e.csv"
        source.write_text("CaseId,Activity,Timestamp\n1,,1970-01-01T00:00:00\n")
        code = run(["stats", "-i", str(source), "--csv-resource", ""])
        assert code == 2
        assert f"error: {source}: row 2 has an empty activity" in capsys.readouterr().err

    @pytest.mark.parametrize("at", ["cell", "header", "late"])
    def test_csv_not_utf8_is_file_error(self, at, capsys, tmp_path):
        # exit 1 would read as "violations found": bytes that are not UTF-8 are
        # a file that cannot be read, as for XES, anywhere in the file
        source = tmp_path / "bad.csv"
        rows = b"1,a,1970-01-01T00:00:00\n" * (5000 if at == "late" else 1)
        header = b"CaseId,Activity,Timestamp" + (b"\xff" if at == "header" else b"") + b"\n"
        bad = b"" if at == "header" else b"1,\xff,1970-01-01T00:00:00\n"
        source.write_bytes(header + rows + bad)
        code = run(["stats", "-i", str(source), "-T", "hours", "--csv-resource", ""])
        assert code == 3
        assert f"error: cannot read {source}: not UTF-8 (invalid start byte)" in capsys.readouterr().err

    def test_short_csv_row_is_usage_error(self, capsys, tmp_path):
        source = tmp_path / "short.csv"
        source.write_text("CaseId,Activity,Timestamp,Resource\nc1,a\n")
        code = run(["stats", "-i", str(source)])
        assert code == 2
        assert f"error: {source}: row 2 has 2 cells; the header has 4" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "attribute", ['<int key="Disease" value="old"/>', '<int key="Disease"/>']
    )
    def test_malformed_numeric_attribute_is_usage_error(self, attribute, tmp_path, capsys):
        source = tmp_path / "bad.xes"
        source.write_text(
            f'<log><trace><string key="concept:name" value="7"/>{attribute}'
            '<event><string key="concept:name" value="a"/>'
            '<date key="time:timestamp" value="1970-01-01T00:00:00Z"/></event></trace></log>'
        )
        code = run(["stats", "-i", str(source), "--sensitive", "Disease"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {source}: case '7': <int> attribute 'Disease' has " in err

    def test_treatment_counts(self, capsys):
        code = run(["stats", "-i", TREATMENT, "-T", "hours", "--sensitive", "Disease"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cases: 8" in out
        assert "variants[ART]: 8" in out


class TestSinglePass:
    """The CLI reads each log exact and floors it once, after any rebasing."""

    @pytest.fixture
    def steps(self, monkeypatch):
        """(name, argument, result) of each call of the rebasing and flooring steps."""
        steps = []
        for name in ("relativize_log", "truncate_to_accuracy"):
            def spy(log, *args, name=name, real=getattr(cli, name), **kwargs):
                steps.append((name, log, result := real(log, *args, **kwargs)))
                return result

            monkeypatch.setattr(cli, name, spy)
        return steps

    @pytest.mark.parametrize("relativize", [False, True])
    def test_each_log_is_floored_once_after_rebasing(self, steps, relativize, tmp_path):
        flags = ["-T", "hours", "--sensitive", "Disease", "--bk", "seq/ac"]
        flags += ["--relativize"] * relativize
        out = str(tmp_path / "anon.xes")
        jobs = [  # (argv, logs read)
            (["stats", "-i", HOSPITAL_XES, *flags], 1),
            (["anonymize", "--algorithm", "tlkc", "--theta", "0.25", "-i", HOSPITAL_XES,
              "-o", out, *flags], 1),
            (["audit", "-i", out, *flags], 1),
            (["evaluate", "--metrics", "dfg", "-i", HOSPITAL_XES, "--anonymized", out, *flags], 2),
        ]
        per_log = ["relativize_log"] * relativize + ["truncate_to_accuracy"]
        for argv, logs in jobs:
            steps.clear()
            assert run(argv) == 0
            assert [name for name, _, _ in steps] == per_log * logs
            if relativize:  # each floor takes the log its rebasing returned
                for (_, _, rebased), (_, floored, _) in zip(steps[::2], steps[1::2]):
                    assert floored is rebased

    def test_relativize_floors_after_rebasing(self):
        config = RunConfig(input=HOSPITAL_XES, accuracy="hours", relativize=True,
                           sensitive=("Age", "Disease"))
        exact = load_log(HOSPITAL_XES, sensitive_attrs=config.sensitive)
        expected = truncate_to_accuracy(relativize_log(exact, 0), TimestampAccuracy.HOURS)
        assert cli._load_prepared(config) == expected
