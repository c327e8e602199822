#!/usr/bin/env python3
"""The infgon benchmark.  From the repository root:

    python3 bench/run.py --workload verify-canonical --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics; `--trace 1` is a separate run
that reports per-layer metrics from spans around calls into each layer.
One process runs one job at a time in a closed loop with one client, for
whole passes over the seed's job list until `--seconds` of job time are
measured.  Every job's output is checked.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are the human-readable report, and the full record (provenance,
notes, spans) goes to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from context import OUT, EnvironmentRefused, child_env, import_infgon, run_metadata

SETUP_REPEATS = 5
START_PROBE_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        infgon = import_infgon()
        import workloads
    except EnvironmentRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        jobs = workloads.build(args.workload, args.seed)
    except workloads.CeilingExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    cpu = speed.pin()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process, one job at a time",
        "pinned_cpu": cpu,
        "jobs_per_pass": len(jobs),
        **run_metadata(infgon),
    }
    _warm_up(jobs)
    if args.trace:
        result = traced_run(workloads, args, jobs, record)
    else:
        result = untraced_run(workloads, args, jobs, record)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    _report(record, result)
    print(json.dumps(result))
    return 0


def _warm_up(jobs) -> None:
    # one untimed call of a small job, so first-call costs do not land in a sample
    min(jobs, key=lambda j: len(repr(j.spec))).run()


def _call(run) -> tuple[object, str | None]:
    try:
        return run(), None
    except Exception as exc:  # a raising job is a failed job, not a dead benchmark
        return None, f"raised {exc!r}"


def _checked(job, result, failure: str | None) -> str | None:
    if failure:
        return failure
    try:
        return job.check(result)
    except Exception as exc:
        return f"check raised {exc!r}"


def _measure(job, run=None) -> tuple[float, object, str | None]:
    """Wall time of one job, its result, and None or what failed; the check is not timed."""
    t0 = time.perf_counter()
    result, failure = _call(run or job.run)
    dt = time.perf_counter() - t0
    return dt, result, _checked(job, result, failure)


def _setup_times(workload: str, seed: int) -> tuple[list[float], list[float], list[str]]:
    """Process start until inputs are built, measured on fresh processes.

    Returns the wall times, the reference-loop times taken between probes
    (one more than the probes), and the failures.
    """
    times, failures = [], []
    refs = [speed.reference_median(5)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        _, err = proc.communicate()
        refs.append(speed.reference_median(5))
        if line.strip() != b"ready" or proc.returncode != 0:
            failures.append(f"set-up probe failed: {err.decode(errors='replace')[-300:]}")
    return times, refs, failures


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (n - TAIL_BEYOND) // n
    return pct, ordered[max(math.ceil(pct * n / 100), 1) - 1]


def untraced_run(workloads, args, jobs, record) -> dict:
    setup_wall, setup_refs, failures = _setup_times(args.workload, args.seed)
    setup = speed.scaled(setup_wall, setup_refs)
    samples: list[tuple] = []  # (job, wall seconds, failure)
    refs = [speed.reference()]  # reference-loop times between samples
    rss_kb = []
    labels: dict[str, set] = {}
    busy = 0.0
    passes = 0
    while busy < args.seconds or passes == 0:
        for job in jobs:
            dt, result, failure = _measure(job)
            refs.append(speed.reference())
            samples.append((job, dt, failure))
            busy += dt + refs[-1]
            if job.cli is not None and result is not None:
                rss_kb.append(result.max_rss_kb)
                label = workloads.present_label(job, result)
                if label is not None:
                    labels.setdefault(job.name, set()).add(label)
        passes += 1
    walls = [dt for _, dt, _ in samples]
    times = speed.scaled(walls, refs)
    failed = [(job.name, f) for job, _, f in samples if f] + [("set-up", f) for f in failures]
    attempted = len(samples) + len(setup)
    pct, tail_s = tail(times)
    if not rss_kb:
        rss_kb = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    # each job of the pass runs once per pass: its median over the passes
    # stands for it, so one slow pass moves no metric but job_tail_ms
    medians = [statistics.median(times[i :: len(jobs)]) for i in range(len(jobs))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(medians) / sum(medians), "1/s"),
        "job_p50_ms": (statistics.median(medians) * 1000, "ms"),
        "job_tail_ms": (tail_s * 1000, "ms"),
        "largest_job_s": (statistics.median(t for job, t in zip(jobs, medians) if job.largest), "s"),
        "peak_rss_mb": (max(rss_kb) / 1024, "MB"),
        "ok_frac": (1 - len(failed) / attempted, "ratio"),
    }
    record.update(
        passes=passes,
        samples=len(times),
        tail_percentile=pct,
        setup_samples_s=setup,
        setup_wall_s=setup_wall,
        reference_nominal_ms=speed.NOMINAL_S * 1000,
        reference_ms={
            "min": min(refs) * 1000,
            "median": statistics.median(refs) * 1000,
            "max": max(refs) * 1000,
        },
        wall_metrics={
            "setup_s": statistics.median(setup_wall),
            "jobs_per_s": len(walls) / sum(walls),
            "job_p50_ms": statistics.median(walls) * 1000,
            "job_tail_ms": tail(walls)[1] * 1000,
            "largest_job_s": statistics.median(dt for job, dt, _ in samples if job.largest),
        },
        largest_jobs=[job.name for job in jobs if job.largest],
        failed_frac=len(failed) / attempted,
        failures=failed[:20],
        peak_rss_of="the CLI child processes" if jobs[0].cli else "the benchmark process",
        per_job_median_ms=[[job.name, t * 1000] for job, t in zip(jobs, medians)],
        samples_wall_ms=[dt * 1000 for _, dt, _ in samples],
        reference_between_samples_ms=[r * 1000 for r in refs],
    )
    if labels:
        # recorded, not gated: the label currently depends on the input channel
        record["k0_present_label_by_channel"] = {k: sorted(v) for k, v in labels.items()}
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: list, metrics: dict) -> dict:
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _start_probe(code: str) -> float:
    times = []
    for _ in range(START_PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def in_process(workloads, job):
    """The job as run in this process: CLI jobs call `infgon.cli.main`, so its layers can be traced."""
    if job.cli is None:
        return job.run
    return lambda: workloads.run_in_process(job.cli)


def traced_pass(tracing, workloads, jobs, flip: bool = False):
    """One pass in which each job runs untraced and traced back to back.

    The order alternates from job to job (and with `flip`), so drift in
    machine speed cancels out of the tracing overhead.  Returns the tracer,
    the untraced job time in ms, and the failures.
    """
    tracer = tracing.Tracer()
    untraced_ms = 0.0
    failed = []
    for i, job in enumerate(jobs):
        run = in_process(workloads, job)
        for traced in (False, True) if (i % 2 == 1) == flip else (True, False):
            if traced:
                with tracing.instrument(tracer), tracer.span(tracing.ROOT_SPAN):
                    result, failure = _call(run)
                failure = _checked(job, result, failure)
            else:
                dt, _, failure = _measure(job, run)
                untraced_ms += dt * 1000
            if failure:
                failed.append((job.name, failure))
    return tracer, untraced_ms, failed


def traced_run(workloads, args, jobs, record) -> dict:
    import tracing

    is_cli = jobs[0].cli is not None
    rounds = []
    failed: list[tuple[str, str]] = []
    attempted = 0
    busy = 0.0
    all_spans = []
    while busy < args.seconds or not rounds:
        tracer, untraced_ms, failures = traced_pass(tracing, workloads, jobs, flip=len(rounds) % 2 == 1)
        failed.extend(failures)
        attempted += 2 * len(jobs)
        times = tracing.layer_times(tracer.spans)
        counts = tracing.layer_counts(tracer.kept)
        times["trace.untraced_job_ms"] = untraced_ms
        times["trace.overhead_ms"] = times["trace.job_ms"] - untraced_ms
        process_ms, stdout_bytes = 0.0, 0
        if is_cli:
            for job in jobs:
                dt, result, failure = _measure(job)
                process_ms += dt * 1000
                stdout_bytes += len(result.stdout) if result is not None else 0
                if failure:
                    failed.append((job.name, failure))
            attempted += len(jobs)
        times["cli.process_ms"] = process_ms
        counts["cli.stdout_bytes"] = stdout_bytes
        times["cli.interp_start_ms"] = _start_probe("pass")
        times["cli.import_ms"] = _start_probe("import infgon.cli") - times["cli.interp_start_ms"]
        busy += (times["trace.job_ms"] + untraced_ms + process_ms) / 1000
        rounds.append((times, counts))
        all_spans.append(tracer.spans)

    counts = rounds[0][1]
    if any(c != counts for _, c in rounds[1:]):
        failed.append(("trace", "per-layer counts differ between identical passes"))
    metrics = {}
    for key in rounds[0][0]:
        unit = "ratio" if key.endswith(("share", "coverage")) else "ms"
        metrics[key] = (statistics.median(t[key] for t, _ in rounds), unit)
    for key, value in counts.items():
        metrics[key] = (value, "ratio" if key.endswith(("ratio", "yield")) else "count")
    record.update(
        rounds=len(rounds),
        failures=failed[:20],
        notes=[
            "per-layer times are sums over one pass of the job list, median over rounds; counts are per pass",
            "SnfResult.verify is timed as its span nested in smith_normal_form; it is not repeated",
            "intlinalg.snf_eliminate.ms is smith_normal_form time minus that nested verify time",
            "trace.overhead_ms is traced minus untraced job time; each job runs both ways back to back",
            "cli-readme traces cli.main in process; cli.process_ms times the same commands as subprocesses",
            "quiver helpers called inside ar_relations are not wrapped; their time is k0 self time",
        ],
    )
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"], "rounds": all_spans}) + "\n",
        encoding="utf-8",
    )
    return _result(attempted, failed, metrics)


def _report(record: dict, result: dict) -> None:
    print(f"infgon benchmark: workload={record['workload']} seed={record['seed']} trace={record['trace']}")
    print(
        f"infgon {record['infgon_file']} commit {record['git_commit']} python {record['python']} "
        f"nproc {record['nproc']} cpu {record['cpu_model']}"
    )
    print(f"load: {record['load']}; {record['jobs_per_pass']} jobs per pass; pinned to cpu {record['pinned_cpu']}")
    if record["trace"] == 0:
        print(
            f"{record['passes']} passes, {record['samples']} samples; job_tail_ms is "
            f"p{record['tail_percentile']} of {record['samples']} samples"
        )
        print(f"largest_job_s pools the largest block: {'; '.join(record['largest_jobs'])}")
        ref = record["reference_ms"]
        print(
            f"times are scaled to a reference loop of {record['reference_nominal_ms']:g} ms; it took "
            f"{ref['min']:.2f}/{ref['median']:.2f}/{ref['max']:.2f} ms (min/median/max) in this run"
        )
        walls = ", ".join(f"{k} {v:.6g}" for k, v in record["wall_metrics"].items())
        print(f"unscaled wall: {walls}")
        print(f"failed_frac {record['failed_frac']:.4f} ({result['failed']} of {result['attempted']})")
        for channel, labels in record.get("k0_present_label_by_channel", {}).items():
            print(f"label (not gated) {channel}: {', '.join(labels)}")
    else:
        print(f"{record['rounds']} rounds of untraced + traced passes")
        for note in record["notes"]:
            print(f"note: {note}")
    for f in record["failures"]:
        print(f"FAILED {f[0]}: {f[1]}")
    for name, m in result["metrics"].items():
        print(f"{name:38s} {m['value']:>16.6f} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
