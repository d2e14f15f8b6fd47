#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py.

Focus: the NaN-poisoning rule. float('nan') passes an
isinstance(v, (int, float)) check and every comparison against it is
False, so before the as_float() guard a candidate whose metric went
NaN (or +/-inf) sailed through the regression gate as a silent pass.
These tests pin the fixed behavior: a non-finite candidate value
inside a present block is an explicit MISSING regression (exit 1),
and a non-finite *baseline* value downgrades to a note, exactly like
an absent metric. Also pinned: only schema v12 is accepted (exit 2
otherwise), and an optional block that vanishes from the candidate
turns its metrics into MISSING regressions.

Usage: test_bench_compare.py <path-to-bench_compare.py>
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

TOOL = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(__file__), os.pardir, "tools", "bench_compare.py")

FAILURES = []


def base_doc():
    return {
        "schema_version": 12,
        "bench": "unit",
        "rows": [{
            "label": "row/a",
            "metrics": {"cps": 100.0, "rps": 200.0, "served": 1000},
            "overload": {"latency_samples": 0},
            "conn": {"tcb_live_peak": 0},
            "sim_core": {},
            "fleet": {
                "request_success_ratio": 0.99,
                "flows_active_peak": 50,
                "incidents_detected": 3,
                "incidents_recovered": 3,
                "mttd_ms_mean": 4.0,
                "mttr_ms_mean": 120.0,
            },
        }],
    }


def run_compare(base, cand, *flags):
    with tempfile.TemporaryDirectory() as d:
        bp = os.path.join(d, "base.json")
        cp = os.path.join(d, "cand.json")
        with open(bp, "w") as f:
            json.dump(base, f)   # allow_nan=True is the default:
        with open(cp, "w") as f:  # NaN round-trips through json
            json.dump(cand, f)
        proc = subprocess.run(
            [sys.executable, TOOL, bp, cp, *flags],
            capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(name, cond, detail=""):
    if cond:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name} {detail}")
        FAILURES.append(name)


def main():
    base = base_doc()

    rc, out = run_compare(base, copy.deepcopy(base))
    check("identical docs pass", rc == 0, out)

    cand = copy.deepcopy(base)
    cand["rows"][0]["metrics"]["cps"] = float("nan")
    rc, out = run_compare(base, cand)
    check("NaN candidate cps is a regression", rc == 1, out)
    check("NaN candidate cps reported as MISSING", "MISSING" in out, out)

    cand = copy.deepcopy(base)
    cand["rows"][0]["metrics"]["cps"] = float("inf")
    rc, out = run_compare(base, cand)
    check("inf candidate cps is a regression", rc == 1, out)

    cand = copy.deepcopy(base)
    cand["rows"][0]["fleet"]["mttr_ms_mean"] = float("nan")
    rc, out = run_compare(base, cand)
    check("NaN candidate mttr_ms_mean is a regression", rc == 1, out)
    check("NaN mttr reported as MISSING",
          "mttr_ms_mean" in out and "MISSING" in out, out)

    cand = copy.deepcopy(base)
    del cand["rows"][0]["metrics"]["cps"]
    rc, out = run_compare(base, cand)
    check("absent candidate cps is a regression", rc == 1, out)

    # A poisoned BASELINE downgrades to a note (candidate gained a
    # metric the baseline never measured) — it must not fail the gate.
    poisoned = copy.deepcopy(base)
    poisoned["rows"][0]["metrics"]["cps"] = float("nan")
    rc, out = run_compare(poisoned, copy.deepcopy(base))
    check("NaN baseline cps is a note, not a regression", rc == 0, out)

    # Real regressions still fire through the numeric path.
    cand = copy.deepcopy(base)
    cand["rows"][0]["metrics"]["cps"] = 50.0
    rc, out = run_compare(base, cand)
    check("true cps drop is a regression", rc == 1, out)

    cand = copy.deepcopy(base)
    cand["rows"][0]["fleet"]["mttr_ms_mean"] = 500.0
    rc, out = run_compare(base, cand)
    check("mttr rise is a regression (lower is better)", rc == 1, out)
    check("mttr regression names its gate direction",
          "lower is better" in out, out)
    check("mttr regression reports gate-relative percentage as worse",
          "worse" in out, out)

    cand = copy.deepcopy(base)
    cand["rows"][0]["metrics"]["cps"] = 50.0
    rc, out = run_compare(base, cand)
    check("cps regression names its gate direction",
          "higher is better" in out, out)

    # Time series: the final sampled value compares by name, with
    # the direction chosen by the ts:/ts-: prefix, and a series the
    # candidate stopped sampling is an explicit MISSING regression.
    ts_base = copy.deepcopy(base)
    ts_base["rows"][0]["timeseries"] = {
        "sample_period": 1000,
        "series": [{"name": "m0.time_wait", "kind": "gauge",
                    "points": [[1000, 50], [2000, 60]]}]}
    ts_cand = copy.deepcopy(ts_base)
    ts_cand["rows"][0]["timeseries"]["series"][0]["points"] = \
        [[1000, 50], [2000, 90]]
    rc, out = run_compare(ts_base, ts_cand, "--metrics=ts-:m0.time_wait")
    check("lower-better time-series rise is a regression",
          rc == 1 and "lower is better" in out, out)
    rc, out = run_compare(ts_base, ts_cand, "--metrics=ts:m0.time_wait")
    check("same rise improves under the higher-better prefix",
          rc == 0 and "IMPROVED" in out, out)
    ts_cand = copy.deepcopy(ts_base)
    ts_cand["rows"][0]["timeseries"]["series"] = []
    rc, out = run_compare(ts_base, ts_cand, "--metrics=ts-:m0.time_wait")
    check("missing time-series metric is an explicit regression",
          rc == 1 and "MISSING" in out, out)

    # Schema v12 only: any other version is a usage error, not a pass.
    for version in (11, 13, None):
        old = copy.deepcopy(base)
        old["schema_version"] = version
        rc, out = run_compare(old, copy.deepcopy(base))
        check(f"schema_version {version!r} baseline exits 2", rc == 2, out)
        rc, out = run_compare(copy.deepcopy(base), old)
        check(f"schema_version {version!r} candidate exits 2", rc == 2, out)

    # Block presence is the enabled flag: a fleet block that vanishes
    # from the candidate takes its metrics with it, which is a loss.
    cand = copy.deepcopy(base)
    del cand["rows"][0]["fleet"]
    rc, out = run_compare(base, cand)
    check("vanished fleet block is a regression", rc == 1, out)
    check("vanished fleet block reports request_success_ratio MISSING",
          "request_success_ratio" in out and "MISSING" in out, out)
    rc, out = run_compare(cand, copy.deepcopy(cand))
    check("fleet metrics absent on both sides are skipped", rc == 0, out)

    # Gating: mean over zero incidents is not a datum on either side.
    both = copy.deepcopy(base)
    both["rows"][0]["fleet"]["incidents_recovered"] = 0
    both["rows"][0]["fleet"]["mttr_ms_mean"] = 0.0
    rc, out = run_compare(both, copy.deepcopy(both))
    check("zero-incident mttr is skipped", rc == 0, out)

    if FAILURES:
        print(f"{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("all bench_compare unit tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
