"""Benchmark for preproj: closed-loop streams of CLI jobs, answers checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trace --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client on one thread calls ``preproj.cli.main([command, "--json", ...])``
in-process with the job document on stdin, waits for it, checks the answer
outside the timed region (``checks.py``) and sends the next job: a closed
loop over the workload's job list (``jobs.py``), pass after pass, until
``--seconds`` of job time have been measured.  Every job's time is scaled
to a fixed host speed by the calibration loop of ``calibrate.py``, timed
around it.  The jobs known to fail at the seed run once after the loop,
untimed, and count in ``ok_ratio`` only.

The last output line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of ``tracer.py`` with ``--trace 1``.  Lines before it
give the same numbers for a reader, and the run's context (Python, CPU
count, seed, commit, job digest, unscaled wall times).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import checks
import jobs as joblist
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = [
    ("jobs_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# latency_tail_s is the mean time of the slowest TAIL_SHARE of the jobs of a
# run's complete passes; a 30-second run at the seed has 24 to 50 such
# jobs, so 8 to 17 in its tail.
TAIL_SHARE = 1 / 3
SETUP_REPEATS = 5
# stop a run whose answer checks take far longer than its jobs
WALL_LIMIT_S = 140.0


def import_cli():
    """Import preproj afresh from the checkout's src/ and return its CLI."""
    for name in [n for n in sys.modules if n == "preproj" or n.startswith("preproj.")]:
        del sys.modules[name]
    cli = importlib.import_module("preproj.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError("preproj was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def run_job(cli, job, checked: dict, tracer=None):
    """Run one job; return (seconds, status, reason).  Only main() is timed.

    `checked` maps (job, output) to its check result: a job that prints
    exactly what it printed before has been checked already.
    """
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(job["doc"])
    code = error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                code = cli.main([job["command"], "--json", *job["flags"]])
            except Exception as exc:
                error = "%s: %s" % (type(exc).__name__, exc)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
    finally:
        sys.stdin = stdin
    key = (job["doc"], job["command"], out.getvalue())
    if error is not None or code != 0 or key not in checked:
        checked[key] = checks.check(job, code, out.getvalue(), error)
    return (elapsed, *checked[key])


def setup(workload: str, seed: int):
    """Import, job generation and warm-up, SETUP_REPEATS times.

    Returns the CLI module, the job list and the median set-up time.
    """
    times = []
    for _ in range(3):  # the loop's first runs are slower
        before = calibrate.loop_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_cli()
        job_list = joblist.make_jobs(workload, seed)
        for job in joblist.warmup_jobs(workload):
            _, status, reason = run_job(cli, job, {})
            if status != "ok":
                raise RuntimeError("warm-up job %s: %s" % (job["id"], reason))
        elapsed = time.perf_counter() - start
        after = calibrate.loop_seconds()
        times.append(calibrate.scaled(elapsed, before, after))
        before = after
    return cli, job_list, statistics.median(times)


def measure(cli, workload: str, seed: int, job_list, seconds: float):
    """Closed loop, pass after pass, until `seconds` of job time are measured.

    `job_list` is the first pass; later passes cycle through the image sets.
    Returns the records (job id, scaled time, status, reason) and the jobs'
    wall times.  The calibration loop runs between jobs, untimed.
    """
    records, walls = [], []
    checked = {}
    before = calibrate.loop_seconds()
    wall_start = time.perf_counter()
    while sum(walls) < seconds and time.perf_counter() - wall_start < WALL_LIMIT_S:
        index, position = divmod(len(records), len(job_list))
        if position == 0 and index > 0:
            job_list = joblist.make_jobs(workload, seed, index)
        job = job_list[position]
        elapsed, status, reason = run_job(cli, job, checked)
        after = calibrate.loop_seconds()
        records.append((job["id"], calibrate.scaled(elapsed, before, after), status, reason))
        walls.append(elapsed)
        before = after
    return records, walls


def job_times(records) -> dict:
    """Each job's median time over the run's passes, by job id."""
    times = {}
    for job_id, elapsed, _, _ in records:
        times.setdefault(job_id, []).append(elapsed)
    return {job_id: statistics.median(ts) for job_id, ts in times.items()}


def ok_ratio(records, defects) -> float:
    """Jobs whose every answer passed ÷ jobs, the known-defect jobs included."""
    ok = {}
    for job_id, _, status, _ in records + defects:
        ok[job_id] = ok.get(job_id, True) and status == "ok"
    return sum(ok.values()) / len(ok)


def complete_passes(records, jobs_per_pass: int):
    """The records of the run's complete passes (all, if none): a partial
    last pass would weigh the jobs early in the list more."""
    return records[:len(records) // jobs_per_pass * jobs_per_pass] or records


def tail_mean(values) -> float:
    """Mean of the slowest TAIL_SHARE of the values (at least one)."""
    ordered = sorted(values, reverse=True)
    return statistics.mean(ordered[:max(1, round(len(ordered) * TAIL_SHARE))])


def end_to_end(records, defects, jobs_per_pass: int, setup_s: float) -> dict:
    times = list(job_times(records).values())
    values = {
        "jobs_per_s": len(times) / sum(times),
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail_mean([r[1] for r in complete_passes(records, jobs_per_pass)]),
        "ok_ratio": ok_ratio(records, defects),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def traced(cli, job_list, defect_jobs, seconds: float):
    """One untraced pass, then traced passes until `seconds` of job time.

    Every pass repeats the first pass's jobs, so that counts per pass do
    not depend on how many passes fit.  A pass here also runs the
    known-defect jobs, so that the per-layer metrics see them.  Returns the
    records of the timed jobs and of the known-defect jobs, and the
    per-layer metrics per pass.
    """
    checked = {}
    records, defects = [], []

    def one_pass(tracer=None) -> float:
        busy = 0.0
        for jobs, out in ((job_list, records), (defect_jobs, defects)):
            for job in jobs:
                out.append((job["id"], *run_job(cli, job, checked, tracer)))
                busy += out[-1][1]
        return busy

    untraced_s = one_pass()
    tracer = Tracer()
    tracer.install()
    traced_s = 0.0
    passes = 0
    try:
        while passes == 0 or untraced_s + traced_s < seconds:
            traced_s += one_pass(tracer)
            passes += 1
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(passes)
    metrics["tracing.overhead_ratio"] = {
        "value": traced_s / passes / untraced_s, "unit": "ratio"}
    return records, defects, metrics, passes


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli, job_list, setup_s = setup(workload, seed)
    defect_jobs = joblist.known_defect_jobs(workload)
    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "jobs": len(job_list),
        "job_digest": joblist.digest(job_list + defect_jobs),
    }
    if trace:
        records, defects, metrics, passes = traced(cli, job_list, defect_jobs, seconds)
        context["traced_passes"] = passes
        context["job_times"] = " ".join("%s=%.3f" % (r[0], r[1]) for r in records)
    else:
        records, walls = measure(cli, workload, seed, job_list, seconds)
        defects = [(job["id"], *run_job(cli, job, {})) for job in defect_jobs]
        metrics = end_to_end(records, defects, len(job_list), setup_s)
        wall = job_times([(r[0], w, r[2], r[3]) for r, w in zip(records, walls)])
        context["passes"] = len(records) // len(job_list)
        sample = len(complete_passes(records, len(job_list)))
        context["latency_tail"] = "mean of the slowest %d of %d jobs" % (
            max(1, round(sample * TAIL_SHARE)), sample)
        context["wall_jobs_per_s"] = len(wall) / sum(wall.values())
        context["wall_latency_p50_s"] = statistics.median(wall.values())
        context["job_times"] = " ".join(
            "%s=%.3f/%.3f" % (r[0], w, r[1]) for r, w in zip(records, walls))
    context["completed"] = len(records)
    failures = Counter("%s: %s" % (job_id, reason[:120])
                       for job_id, _, status, reason in records if status != "ok")
    known = Counter("%s: %s" % (job_id, reason[:120])
                    for job_id, _, status, reason in defects if status != "ok")
    return {
        "context": context,
        "failures": failures,
        "known": known,
        "correct": all(r[2] != "wrong" for r in records + defects),
        "attempted": len(records),
        "failed": sum(r[2] != "ok" for r in records),
        "metrics": metrics,
    }


def report(result: dict):
    print("context: %s" % json.dumps(result["context"]))
    for what, count in result["failures"].items():
        print("failed x%d  %s" % (count, what))
    for what, count in result["known"].items():
        print("known defect x%d (untimed)  %s" % (count, what))
    print("jobs attempted %d, failed %d, answers correct: %s"
          % (result["attempted"], result["failed"], result["correct"]))
    for name, metric in result["metrics"].items():
        print("  %-44s %14.6g %s" % (name, metric["value"], metric["unit"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*joblist.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    workloads = joblist.WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            report(results[workload])
    except ImportError as exc:
        print("error: cannot import preproj from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {"%s.%s" % (w, name): m
                   for w, r in results.items() for name, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
