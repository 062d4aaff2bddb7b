#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it runs perfbench/run.py twice untraced and once
traced, with short --seconds, and asserts that
  * every run exits 0 with a JSON last line whose keys are exactly
    correct/attempted/failed/metrics, correct is true, failed is 0;
  * the untraced metrics are exactly BENCHMARK.json's end_to_end list,
    the traced ones exactly its per_layer list, each with its unit,
    every value finite;
  * every end-to-end metric the workload is defined for, including the
    ones only the run report prints, appears as "metric <name> = <v>
    <unit>";
  * two runs with the same seed print the same output digest.
Exits 1 on the first failed check.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "2"
SEED = "3"

# Every end-to-end metric by name and unit, per workload: what
# BENCHMARK.json gates plus the step-qualified serving metrics the
# run report prints.
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "samples_per_s": "samples/s",
          "failed_share": "ratio", "energy_pj_per_sample": "pJ"}
REPORTED = {
    "replay-mlp": COMMON,
    "replay-cnn": COMMON,
    "serve-http": {**COMMON, "lat_p50_ms.low": "ms", "lat_p99_ms.low": "ms",
                   "lat_p50_ms.knee": "ms", "lat_p99_ms.knee": "ms",
                   "goodput_rps": "req/s"},
    "serve-overload": {**COMMON, "lat_p99_ms.over": "ms",
                       "full_tier_share": "ratio"},
}
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$", re.MULTILINE)


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", SEED,
               "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}\n"
             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"failed={result['failed']}")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    return proc.stdout, result


def check_metrics(workload, result, declared, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail(f"{workload} {what}: missing {missing} extra {extra} "
             f"wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            fail(f"{workload}: {name} is not finite")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in bench["workloads"]]:
        digests = []
        for _ in range(2):
            stdout, result = run(workload, 0)
            check_metrics(workload, result, bench["end_to_end"], "end_to_end")
            printed = {m[0]: m[2] for m in METRIC_LINE.findall(stdout)}
            for name, unit in REPORTED[workload].items():
                if printed.get(name) != unit:
                    fail(f"{workload}: report lacks metric {name} [{unit}]")
            digest = re.search(r"^digest ([0-9a-f]{16})$", stdout, re.MULTILINE)
            if digest is None:
                fail(f"{workload}: no digest printed")
            digests.append(digest.group(1))
        if digests[0] != digests[1]:
            fail(f"{workload}: digests differ for one seed: {digests}")
        _, traced = run(workload, 1)
        check_metrics(workload, traced, bench["per_layer"], "per_layer")
        print(f"selftest: {workload} ok (digest {digests[0]})", flush=True)
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
