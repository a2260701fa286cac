"""Benchmark of the tlkcpriv command line on seeded synthetic logs.

    python3 perfbench/run.py --workload anonymize-seq-20k --seed 4025 --seconds 30 --trace 0

One run is one workload in this fresh process: the seeded inputs are written
by a child process, then one client runs CLI jobs through
``tlkcpriv.cli.main(argv)`` in a closed loop, one at a time, while the next
job is likely to end within ``--seconds`` (at least one job).  Every output
is checked after the loop, outside the timed jobs.  With ``--trace 0`` the
run reports the end-to-end metrics, its job times counted in reference
slices that a speed probe times during each job (``perfbench/speed.py``);
with ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones.  The last line of standard output is
the JSON result; the lines above it repeat every metric with its sample
count, the input statistics and a machine-drift record.  Spans and the run
record are written to ``.perfbench/`` in the checkout.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def calibration():
    """A fixed pure-Python loop and the load average, to tell a slow machine
    from a slow commit.  Recorded, never gated."""
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return {"calibration_s": time.perf_counter() - started, "loadavg": os.getloadavg()}


def setup_seconds():
    """Wall time to import ``tlkcpriv.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import tlkcpriv.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout)


def generate_inputs(name, seed, workdir):
    """Write the workload's inputs in a child process; return their statistics."""
    done = subprocess.run([sys.executable, "-m", "perfbench.gen", name, str(seed), str(workdir)],
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout)


def run_job(main, argv, tracer, job, probe):
    """One CLI job; returns (exit code or None, error text, wall s, cpu s,
    reference slice s, stolen s).  Under ``probe`` the wall and CPU times
    exclude the time spent sampling the machine's speed, and the wall time
    excludes the time the host stole."""
    sink = io.StringIO()
    code, error = None, None
    sampling = probe.sampling() if probe else contextlib.nullcontext()
    with sampling:
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = tracer.job(job, main, argv) if tracer else main(argv)
        except Exception as exc:  # a crashing job counts as failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if not probe:
        return code, error, wall, cpu, None, None
    return (code, error, wall - probe.spent_wall - probe.stolen, cpu - probe.spent_cpu,
            probe.slice_s(), probe.stolen)


def tail(values):
    """The highest percentile of ``values`` with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tlkcpriv" / "cli.py").is_file():
        print(f"error: no tlkcpriv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import PIN_SEED, WORKLOADS, pin_mismatch

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    drift = {"start": calibration()}
    setup = [setup_seconds() for _ in range(SETUP_REPEATS)] if not args.trace else []

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stats = generate_inputs(args.workload, args.seed, workdir)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    input_events = sum(stats[name]["events"] for name in workload.inputs)

    import tlkcpriv
    import tlkcpriv.cli

    if Path(tlkcpriv.__file__).resolve().parent != SRC / "tlkcpriv":
        print(f"error: tlkcpriv was imported from {tlkcpriv.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer, probe = None, None
    if args.trace:
        from perfbench.tracing import Tracer, layer_metrics

        tracer = Tracer()
    else:
        from perfbench.speed import SpeedProbe

        probe = SpeedProbe()
    jobs = []
    started = time.perf_counter()
    while True:
        job = len(jobs)
        traced = bool(args.trace) and job % 2 == 1
        if traced:
            with tracer.installed():
                result = run_job(tlkcpriv.cli.main, workload.argv(job), tracer, job, None)
        else:
            result = run_job(tlkcpriv.cli.main, workload.argv(job), None, job, probe)
        code, error, wall, cpu, slice_s, stolen = result
        jobs.append({"job": job, "traced": traced, "exit_code": code, "error": error,
                     "wall_s": wall, "cpu_s": cpu, "slice_s": slice_s, "stolen_s": stolen})
        if job == 0:
            # a CLI call runs in a process of its own, so its peak is that of
            # the first job; later jobs add the heap growth of a long process
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the next job would likely end after the window: stop, so that the
        # run measures about --seconds and no longer
        enough = len(jobs) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - started + wall > args.seconds:
            break

    for record in jobs:
        if record["error"] is not None:
            continue
        try:
            fingerprint = workload.check(record["job"], record["exit_code"])
            record["fingerprint"] = fingerprint
            if args.seed == PIN_SEED:
                record["error"] = pin_mismatch(args.workload, fingerprint)
        except Exception as exc:  # any check that cannot complete fails the job
            record["error"] = f"{type(exc).__name__}: {exc}"
    drift["end"] = calibration()

    failed = sum(1 for record in jobs if record["error"] is not None)
    plain = [r for r in jobs if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, stat in stats.items():
        print(f"input {name}: {stat}")
    for record in jobs:
        verdict = "ok" if record["error"] is None else f"FAILED ({record['error']})"
        speed = "" if record["slice_s"] is None else (
            f", slice {record['slice_s'] * 1e3:.4f} ms, {record['stolen_s']:.2f} s stolen, "
            f"{record['wall_s'] / record['slice_s']:.0f} ref")
        print(f"job {record['job']}{' traced' if record['traced'] else ''}: "
              f"{record['wall_s']:.3f} s wall, {record['cpu_s']:.3f} s cpu{speed}, "
              f"exit {record['exit_code']}, {verdict}")
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True) for r in jobs if "fingerprint" in r}
    for fingerprint in sorted(fingerprints):
        print(f"fingerprint: {fingerprint}")
    print(f"drift: {json.dumps(drift)}")
    print(f"jobs_failed_ratio = {failed}/{len(jobs)} = {failed / len(jobs):g}")

    if args.trace:
        traced_walls = [r["wall_s"] for r in jobs if r["traced"]]
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")
        samples = {name: len(traced_walls) for name in metrics}
        (workdir / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    else:
        # the gated metrics count time in reference slices timed during each
        # job (perfbench/speed.py), so that the host's speed cancels out
        refs = [r["wall_s"] / r["slice_s"] for r in plain]
        metrics = {
            "job_ref.p50": (statistics.median(refs), "ref"),
            "cpu_ref.p50": (statistics.median(r["cpu_s"] / r["slice_s"] for r in plain), "ref"),
            "events_per_ref": (input_events * len(refs) / sum(refs), "1/ref"),
            "peak_rss_mb": (peak_rss_mib, "MiB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        samples = {name: len(refs) for name in metrics}
        samples.update(peak_rss_mb=1, setup_s=len(setup))
        # the same in seconds, at this machine's speed during the run; not gated
        print(f"job_s.p50 = {statistics.median(walls):.6f} s (n={len(walls)})")
        print(f"cpu_s.p50 = {statistics.median(r['cpu_s'] for r in plain):.6f} s (n={len(walls)})")
        print(f"events_per_s = {input_events * len(walls) / sum(walls):.6f} 1/s (n={len(walls)})")
        print(f"slice_s.p50 = {statistics.median(r['slice_s'] for r in plain):.9f} s (n={len(walls)})")
        pct_value = tail(walls)
        if pct_value is None:
            print(f"job_s.tail = n/a s (n={len(walls)}; needs at least 11 jobs)")
        else:
            print(f"job_s.tail = {pct_value[1]:.6f} s (p{pct_value[0]:.1f}, n={len(walls)})")
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6f}" if isinstance(value, float) else value
        print(f"{name} = {shown} {unit} (n={samples[name]})")

    record = {"args": vars(args), "inputs": stats, "jobs": jobs, "drift": drift, "setup_s": setup,
              "metrics": metrics}
    (workdir / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for path in workdir.iterdir():
        if path.name not in ("run.json", "spans.json"):
            path.unlink()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
