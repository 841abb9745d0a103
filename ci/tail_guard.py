#!/usr/bin/env python3
"""Tail-latency guard for the `verify` batch driver.

Usage: tail_guard.py VERIFY_BIN MANIFEST

Runs ``verify --manifest MANIFEST --workers 2`` five times and collects
every pair's ``total_time``: the plain pairs and each verified chain
step, keyed by name. It fails when any pair's slowest run took more than
3x its median run plus 50 ms, the shape of a pathological tail such as a
garbage-collection stall on one run.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile

FACTOR = 3.0
SLACK_SECONDS = 0.05
RUNS = 5
WORKERS = "2"


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def pair_times(report):
    """Yields (name, total_time) for every pair and verified chain step."""
    for pair in report["pairs"]:
        yield pair["name"], pair["total_time"]
    for chain in report["chains"]:
        for step in chain["steps"]:
            yield step["report"]["name"], step["report"]["total_time"]


def main():
    if len(sys.argv) != 3:
        fail(__doc__)
    verify_bin, manifest = sys.argv[1:3]
    times = {}
    with tempfile.TemporaryDirectory(prefix="tail-guard-") as tmp:
        out = os.path.join(tmp, "report.json")
        for run in range(RUNS):
            result = subprocess.run(
                [verify_bin, "--manifest", manifest, "--workers", WORKERS,
                 "--compact", "--out", out],
                stderr=subprocess.DEVNULL,
                check=False,
            )
            if result.returncode not in (0, 1):
                fail(f"run {run + 1}: verify exited {result.returncode}")
            with open(out) as f:
                report = json.load(f)
            for name, seconds in pair_times(report):
                times.setdefault(name, []).append(seconds)
    if not times:
        fail(f"{manifest} produced no pairs")
    offenders = []
    for name, samples in sorted(times.items()):
        if len(samples) != RUNS:
            fail(f"{name}: verified in {len(samples)} of {RUNS} runs")
        median = statistics.median(samples)
        worst = max(samples)
        if worst > FACTOR * median + SLACK_SECONDS:
            offenders.append(f"{name}: max {worst:.3f}s vs median {median:.3f}s")
    if offenders:
        fail("tail above 3x median + 50ms:\n  " + "\n  ".join(offenders))
    print(f"tail guard ok: {len(times)} pairs x {RUNS} runs at --workers {WORKERS}, "
          f"every max <= {FACTOR:g}x median + {SLACK_SECONDS * 1000:.0f} ms")


if __name__ == "__main__":
    main()
