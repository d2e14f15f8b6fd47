#!/usr/bin/env python3
"""Unit tests for tools/baseline_exact.py.

Every committed simulated baseline must equal itself on the keys CI
checks, and one mutated value -- a row fingerprint, a nested
fleet_trace entry, a fleet.trace* counter, a phase share -- or a
dropped row must fail with exit 1.

Usage: test_baseline_exact.py <path-to-baseline_exact.py> <baselines-dir>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOL, BASELINES = sys.argv[1], sys.argv[2]

# The committed baselines and the keys CI checks on each of them.
CHECKS = {
    "bench_fleet_resilience_quick.json":
        ["fingerprint", "fleet_trace", "fleet.trace*"],
    "bench_chaos_quick.json": ["fingerprint", "fleet_trace", "fleet.trace*"],
    "bench_million_conn_quick.json": ["fingerprint"],
    "bench_phase_breakdown_quick.json":
        ["phases", "folded_stacks", "latency_stages", "fingerprint"],
    "bench_fleet_trace_quick.json": ["fleet_trace", "fleet.trace*"],
}

FAILURES = []


def run(doc, baseline, keys):
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as f:
        json.dump(doc, f)
    try:
        return subprocess.run([sys.executable, TOOL, f.name, baseline,
                               *keys], capture_output=True, text=True)
    finally:
        os.unlink(f.name)


def expect(name, doc, baseline, keys, code, needle=""):
    proc = run(doc, baseline, keys)
    if proc.returncode != code or needle not in proc.stdout:
        FAILURES.append(f"{name}: exit {proc.returncode} (want {code}), "
                        f"stdout {proc.stdout!r}")


def flip(fp):
    """A fingerprint with its lowest hex digit changed."""
    return fp[:-1] + ("0" if fp[-1] != "0" else "1")


def main():
    for fname, keys in CHECKS.items():
        baseline = os.path.join(BASELINES, fname)
        with open(baseline) as f:
            doc = json.load(f)
        expect(f"{fname} vs itself", doc, baseline, keys, 0)

        mutated = copy.deepcopy(doc)
        row = mutated["rows"][-1]
        row["fingerprint"] = flip(row["fingerprint"])
        expect(f"{fname} mutated fingerprint", mutated, baseline,
               ["fingerprint"], 1, f"{row['label']}: fingerprint differs")

        dropped = copy.deepcopy(doc)
        dropped["rows"].pop()
        expect(f"{fname} dropped row", dropped, baseline, keys, 1,
               "row labels differ")

    trace = os.path.join(BASELINES, "bench_fleet_trace_quick.json")
    with open(trace) as f:
        doc = json.load(f)
    keys = CHECKS["bench_fleet_trace_quick.json"]
    counter = copy.deepcopy(doc)
    counter["rows"][0]["fleet"]["traces_stitched"] += 1
    expect("fleet.trace* counter", counter, trace, keys, 1,
           "fleet.traces_stitched differs")
    extra = copy.deepcopy(doc)
    extra["rows"][0]["fleet"]["trace_new_counter"] = 0
    expect("fleet.trace* key only in candidate", extra, trace, keys, 1,
           "fleet.trace_new_counter differs: got 0, baseline absent")
    nested = copy.deepcopy(doc)
    block = nested["rows"][0]["fleet_trace"]
    first = sorted(block)[0]
    block[first] = None
    expect("fleet_trace nested value", nested, trace, keys, 1,
           "fleet_trace differs")

    phase = os.path.join(BASELINES, "bench_phase_breakdown_quick.json")
    with open(phase) as f:
        doc = json.load(f)
    shifted = copy.deepcopy(doc)
    shifted["rows"][0]["folded_stacks"].append(
        {"stack": "synthetic", "cycles": 1})
    expect("folded_stacks entry", shifted, phase,
           CHECKS["bench_phase_breakdown_quick.json"], 1,
           "folded_stacks differs")
    expect("key the baseline lacks", doc, phase, ["no_such_block"], 1,
           "baseline lacks no_such_block")

    for msg in FAILURES:
        print("FAIL:", msg)
    if FAILURES:
        return 1
    print("ok: baselines equal themselves; every mutation fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
