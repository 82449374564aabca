"""Self-test of the benchmark.

    python3 perfbench/selftest.py          # about five minutes

Checks that

1. BENCHMARK.json names exactly the workloads and metrics the code reports;
2. the same seed yields the same job list, by its SHA-256 digest, and the
   digest a run prints is that of its job list;
3. two traced runs of each workload give identical ``*.calls``,
   ``*.count``, ``max_*`` and ``*_ratio`` values;
4. those runs, on a seed not used while the benchmark was built, fail no
   timed job, and among the untimed known-defect jobs only those known to
   fail at the seed (a job that starts passing is fine).

Exits with code 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import jobs
from run import END_TO_END
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FRESH_SEED = 90210
KNOWN_FAILING = {"zeta3-4cycle", "zeta3-4cycle/fixed-ring", "zeta3-4cycle/diagnose"}
DETERMINISTIC = (".calls", ".count", "_ratio")


def fail(message: str):
    print("FAIL: %s" % message)
    sys.exit(1)


def check_manifest():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(jobs.WORKLOADS):
        fail("BENCHMARK.json workloads differ from jobs.WORKLOADS")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != [tuple(row) for row in table]:
            fail("BENCHMARK.json %s differs from the code" % key)
    print("ok: BENCHMARK.json matches the code")


def check_digests():
    for workload in jobs.WORKLOADS:
        first = jobs.digest(jobs.make_jobs(workload, FRESH_SEED))
        if first != jobs.digest(jobs.make_jobs(workload, FRESH_SEED)):
            fail("%s: one seed gave two job lists" % workload)
        if first == jobs.digest(jobs.make_jobs(workload, FRESH_SEED + 1)):
            fail("%s: two seeds gave the same job list" % workload)
    print("ok: job digests repeat for a seed and differ across seeds")


def traced_run(workload: str) -> tuple[dict, dict, set]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(FRESH_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    context = json.loads(out[0].split(": ", 1)[1])
    failed = {line.split()[2].rstrip(":") for line in out if line.startswith("failed x")}
    known = {line.split()[4].rstrip(":") for line in out if line.startswith("known defect x")}
    return context, json.loads(out[-1]), failed, known


def check_traced_runs():
    for workload in jobs.WORKLOADS:
        (ctx1, run1, failed1, known1), (_, run2, failed2, known2) = (
            traced_run(workload), traced_run(workload))
        expected = jobs.digest(jobs.make_jobs(workload, FRESH_SEED)
                               + jobs.known_defect_jobs(workload))
        if ctx1["job_digest"] != expected:
            fail("%s: the run printed digest %s, expected %s"
                 % (workload, ctx1["job_digest"], expected))
        for name, metric in run1["metrics"].items():
            deterministic = name.endswith(DETERMINISTIC) or ".max_" in name
            if deterministic and name != "tracing.overhead_ratio" \
                    and metric["value"] != run2["metrics"][name]["value"]:
                fail("%s: %s is %s, then %s" % (workload, name, metric["value"],
                                                 run2["metrics"][name]["value"]))
        for failed, known, result in ((failed1, known1, run1), (failed2, known2, run2)):
            if failed or result["failed"]:
                fail("%s: timed jobs failed: %s" % (workload, sorted(failed)))
            if not known <= KNOWN_FAILING:
                fail("%s: unexpected failures %s" % (workload, sorted(known - KNOWN_FAILING)))
        if not (run1["correct"] and run2["correct"]):
            fail("%s: a wrong answer" % workload)
        print("ok: %s traced counts repeat; no timed job failed; known defects: %s"
              % (workload, sorted(known1) or "none"))


if __name__ == "__main__":
    check_manifest()
    check_digests()
    check_traced_runs()
    print("self-test passed")
