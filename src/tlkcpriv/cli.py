"""Command-line front end.

Subcommands: ``anonymize``, ``audit``, ``attack``, ``evaluate``, ``stats``.
Every flag has a config-file equivalent (``--config``, flat ``key = value``
lines); flags override the file.  Both become one checked ``RunConfig``;
every command takes accuracy, spec and perspective from its ``params`` and
makes its flag-only checks (algorithm, metrics, literal, output format,
discretized attributes) before any read.
The effective configuration is echoed into every report for reproducibility.

Exit codes: 0 success (audit: satisfied), 1 audit violation, 2 usage or
validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .analysis import audit_tlkc
from .anonymize import (
    Baseline1,
    Baseline2,
    ParameterError,
    TlkcAnonymizer,
    TlkcExtAnonymizer,
)
from .background import confidence, match, parse_candidate
from .io import LogFileError, RunConfig, config_lines, load_log, log_format, read_config, save_log
from .log import (
    EventLog,
    LogError,
    Perspective,
    discretize_sensitive,
    relativize_log,
    truncate_to_accuracy,
    variants,
)
from .metrics import dfg_compare, emd_data_utility, handover_compare

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _add_common(parser: argparse.ArgumentParser, *, needs_output=False):
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--input", "-i", help="input event log (.xes or .csv)")
    if needs_output:
        parser.add_argument("--output", "-o", help="output event log path")
    parser.add_argument("--format", choices=["xes", "csv"], help="force the log format")
    parser.add_argument("-T", "--accuracy", help="timestamp accuracy: seconds|minutes|hours|days")
    parser.add_argument("-L", type=int, dest="L", help="maximal background-knowledge size")
    parser.add_argument("-K", type=int, dest="K", help="anonymity threshold")
    parser.add_argument("-C", type=float, dest="C", help="confidence bound in (0,1]")
    parser.add_argument("--theta", type=float, help="frequency threshold for the classic greedy")
    parser.add_argument("--alpha", type=float, help="privacy-gain weight (normalized score)")
    parser.add_argument("--beta", type=float, help="utility weight (normalized score)")
    parser.add_argument("--bk", help="background knowledge <type>/<attr>, e.g. rel/ar")
    parser.add_argument(
        "--sensitive",
        help="comma-separated sensitive case attributes, e.g. Disease or Disease,Age",
    )
    parser.add_argument(
        "--discretize",
        help="comma-separated numeric sensitive attributes to bin into "
        "low/middle/high by quartiles before any other processing",
    )
    parser.add_argument(
        "--relativize",
        action="store_true",
        default=None,
        help="rebase every case to the shared epoch origin before processing "
        "(use for calendar-time logs; already-relative logs are used as-is)",
    )
    parser.add_argument("--tie-break", type=int, dest="tie_break", help="seed for an "
                        "alternative tie-break order (default: canonical rule)")
    parser.add_argument("--csv-case", help="CSV case id column")
    parser.add_argument("--csv-activity", help="CSV activity column")
    parser.add_argument("--csv-timestamp", help="CSV timestamp column")
    parser.add_argument("--csv-resource", help="CSV resource column ('' for none)")
    parser.add_argument("--csv-timestamp-format", help="strptime pattern or 'iso'")


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The checked configuration of the file and flags (flags win)."""
    values = read_config(args.config) if args.config else {}
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    config = RunConfig(**values)
    if not config.input:
        raise LogError("no input log given (use --input)")
    return config


def _load_prepared(config: RunConfig) -> EventLog:
    """The run's log: read exact, discretized, rebased if asked, then floored
    to the run's accuracy, once and last (rebasing shifts each case by its own
    offset, so a floor before it would not be one after it)."""
    log = load_log(config.input, fmt=config.format, colmap=config.colmap(),
                   sensitive_attrs=config.sensitive)
    for attr in config.discretize:
        log = discretize_sensitive(log, attr)
    if config.relativize:
        log = relativize_log(log, t0=0)
    return truncate_to_accuracy(log, config.params.accuracy)


def _write_report(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _make_anonymizer(config: RunConfig):
    algorithm = config.algorithm.lower()
    if algorithm in ("baseline1", "baseline2"):
        baseline = Baseline1 if algorithm == "baseline1" else Baseline2
        return baseline(k=config.K, ps=config.params.perspective, accuracy=config.params.accuracy)
    greedy = {"tlkc": TlkcAnonymizer, "tlkc-ext": TlkcExtAnonymizer}.get(algorithm)
    if greedy is None:
        raise LogError(
            f"unknown algorithm {config.algorithm!r}; expected tlkc, tlkc-ext, "
            "baseline1 or baseline2"
        )
    if algorithm == "tlkc" and config.theta is None:
        raise LogError("the tlkc algorithm needs --theta")
    # the run's value of each anonymizer field; an unset one keeps the class default
    values = {f.name: getattr(config, f.name) for f in fields(greedy)}
    return greedy(**{name: value for name, value in values.items() if value is not None})


def cmd_anonymize(args) -> int:
    config = _build_config(args)
    if not config.output:
        raise LogError("no output path given (use --output)")
    log_format(config.format, config.output)  # an unknown output format fails before the read
    anonymizer = _make_anonymizer(config)  # as do a bad algorithm and no theta
    result = anonymizer.anonymize(_load_prepared(config))
    save_log(result.log, config.output, fmt=config.format, colmap=config.colmap())

    lines = ["# effective configuration"]
    lines += config_lines(config)
    lines.append("# iterations")
    for i, rec in enumerate(result.iterations, start=1):
        lines.append(
            f"{i}. winner={rec.winner} score={rec.score:.6f} "
            f"remaining_mvts={rec.remaining_mvts}"
        )
    if result.suppression.descriptors:
        lines.append("# suppression set")
        lines.append(", ".join(str(d) for d in result.suppression))
    lines.append("# summary")
    lines.append(f"events removed: {result.events_removed}")
    lines.append(f"cases dropped: {len(result.dropped_cases)}")
    lines.append(f"runtime seconds: {result.runtime_seconds:.3f}")
    report_path = args.report or f"{config.output}.report.txt"
    _write_report(report_path, lines)

    print(
        f"{config.algorithm}: {result.events_removed} events removed, "
        f"{len(result.dropped_cases)} cases dropped, "
        f"{len(result.log)} cases written to {config.output}"
    )
    if not len(result.log):
        print("warning: the anonymized log is empty", file=sys.stderr)
    return EXIT_OK


def cmd_audit(args) -> int:
    config = _build_config(args)
    report = audit_tlkc(_load_prepared(config), config.params)
    text = report.lines()
    print("\n".join(text))
    if args.report:
        _write_report(args.report, ["# effective configuration"] + config_lines(config) + text)
    if args.report_json:
        payload = {
            "satisfied": report.satisfied,
            "violations": report.records(),
            "config": dict(config.items()),
        }
        Path(args.report_json).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return EXIT_OK if report.satisfied else EXIT_VIOLATION


def cmd_attack(args) -> int:
    config = _build_config(args)
    params = config.params
    cand = parse_candidate(args.candidate, params.bk)
    matched = match(_load_prepared(config), params.bk, cand, params.accuracy)
    print(f"candidate {cand} -> {len(matched)} match(es)")
    if matched:
        print("cases: " + ", ".join(inst.case_id for inst in matched))
        for attr in config.sensitive:
            dist, top = confidence(matched, attr)
            parts = ", ".join(
                f"{value}={fraction:.3f}"
                for value, fraction in sorted(dist.items(), key=lambda kv: str(kv[0]))
            )
            print(f"confidence[{attr}]: {parts} (max {top:.3f})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _build_config(args)
    # checked and de-duplicated (in order) before either log is read
    metrics = list(dict.fromkeys(m.strip() for m in args.metrics.split(",") if m.strip()))
    if not metrics:
        raise LogError("no metric given; expected emd, dfg or handover")
    for metric in metrics:
        if metric not in ("emd", "dfg", "handover"):
            raise LogError(f"unknown metric {metric!r}; expected emd, dfg or handover")
    ps = config.params.perspective
    original = _load_prepared(config)
    anonymized = _load_prepared(replace(config, input=args.anonymized))
    payload = {"config": dict(config.items()), "anonymized": args.anonymized, "metrics": {}}
    for metric in metrics:
        if metric == "emd":
            report = emd_data_utility(original, anonymized, ps, config.params.accuracy)
            payload["metrics"]["emd"] = {
                "du": report.du,
                "transport_cost": report.transport_cost,
                "perspective": ps.value,
            }
            print(f"emd ({ps.value}): {report.summary()}")
        else:
            compare = dfg_compare if metric == "dfg" else handover_compare
            cmp = compare(original, anonymized)
            payload["metrics"][metric] = _graph_payload(cmp, args.edge_diff)
            print(f"{metric}: {cmp.summary()}")
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return EXIT_OK


def _graph_payload(cmp, include_edges):
    payload = {"fitness": cmp.fitness, "precision": cmp.precision, "f1": cmp.f1}
    if include_edges:
        payload["missing_edges"] = [list(e) for e in cmp.missing_edges]
        payload["extra_edges"] = [list(e) for e in cmp.extra_edges]
    return payload


def cmd_stats(args) -> int:
    config = _build_config(args)
    log = _load_prepared(config)
    print(f"cases: {len(log)}")
    print(f"events: {log.total_events}")
    print(f"activities: {len(log.activities())}")
    resources = log.resources()
    print(f"resources: {len(resources)}")
    accuracy = config.params.accuracy
    for ps in Perspective:
        if ps.has_resource and not log.has_resources():
            print(f"variants[{ps.value}]: n/a (missing resources)")
            continue
        _, unique = variants(log, ps, accuracy)
        print(f"variants[{ps.value}]: {len(unique)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlkcpriv",
        description="Anonymize process-mining event logs against linkage attacks, "
        "audit privacy guarantees and quantify utility loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="anonymize a log and write the result")
    _add_common(p, needs_output=True)
    p.add_argument(
        "--algorithm",
        help="tlkc | tlkc-ext | baseline1 | baseline2",
    )
    p.add_argument("--report", help="report path (default: <output>.report.txt)")
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("audit", help="check a log against the privacy requirements")
    _add_common(p)
    p.add_argument("--report", help="write the text report here")
    p.add_argument("--report-json", help="write a machine-readable report here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("attack", help="simulate a linkage attack with one candidate")
    _add_common(p)
    p.add_argument(
        "candidate",
        help="candidate literal: {a,b} (set), [a^2,b] (multiset), <a,b> (sequence), "
        "<a@3,b@7> (timed); elements are act, act/res or /res; \\ escapes , / @ ^ \\",
    )
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("evaluate", help="compare an anonymized log against the original")
    _add_common(p)
    p.add_argument("--anonymized", required=True, help="anonymized log path")
    p.add_argument("--metrics", default="emd,dfg", help="comma list: emd,dfg,handover")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--edge-diff", action="store_true", help="include edge diffs in the report")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="print case/event/variant counts")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, LogFileError, OSError) as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except LogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
