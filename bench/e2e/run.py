#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: host cost and simulated outcome.

Builds bench_e2e from the repository's sources (into .bench_build/e2e),
runs each workload in fresh processes, checks correctness, and prints
every metric by name with its unit. Workloads, metrics and bounds are
those of BENCHMARK.json at the repository root; README.md explains them.

  python3 bench/e2e/run.py                  all workloads, 3 processes each
  python3 bench/e2e/run.py --layers         plus one per-layer process per
                                            workload; writes spans.json
  python3 bench/e2e/run.py --sets=2         run everything twice and compare
                                            the two sets' values with the
                                            bounds
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                            one workload for S seconds; the
                                            last stdout line is the JSON
                                            result (trace 1: per-layer)
  python3 bench/e2e/run.py --smoke --binary=PATH
                                            tiny windows, every gate (ctest)

Exit status: 0 when every correctness gate passes, 1 when one fails (a
reproducer line is printed), 2 on a build or usage error.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
OUT = BUILD / "out"

MIN_REPS = 3
# A single-workload run must end within 180 s (after the build): no
# process starts after RUN_DEADLINE_S, and every process is killed at
# RUN_LIMIT_S.
RUN_DEADLINE_S = 120
RUN_LIMIT_S = 170

# Smoke: tiny windows and probe, so all four workloads take ~2 s.
SMOKE_ARGS = ["--warmup=0.01", "--window=0.005", "--probe-steps=20000"]

# Printed beside the end-to-end metrics but not in BENCHMARK.json.
# collect_s: its cost is mostly nth_element over the window's latency
# samples, which varies from seed to seed by itself: 15-27% spread over
# ten seeds, too much for the largest bound (README.md, "Host noise").
# fail_ratio: zero on every workload (BENCHMARK.json metrics must be
# nonzero), so failures are reported through "failed"/"attempted".
EXTRA_METRICS = ["collect_s", "fail_ratio"]

# Host-time metrics. Work from other tenants of a shared host only adds
# time, so a run reports the lower quartile of its processes' normalised
# values, which is steadier than their median (README.md, "Host noise").
# Every other metric reports the median.
HOST_TIME = ("wall_per_sim_s", "setup_s", "collect_s")

# Simulated outcomes: deterministic for a seed, so identical across reps.
SIM_KEYS = ("cps", "p50_us", "p99_us", "p9999_us", "latency_samples",
            "attempted", "failed")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configure (once) and build bench_e2e; return the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a "
             "full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", jobs])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})")
    return BUILD / "bench_e2e"


def run_process(binary, args, deadline):
    """Run one bench_e2e process, killed at monotonic time @deadline;
    return its parsed JSON result."""
    cmd = [str(binary)] + args
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        sys.stderr.write(p.stderr[-4000:])
        fail(f"exit {p.returncode}: {' '.join(cmd)}", 1)
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def aggregate(name, values):
    q1, med, _ = quartiles(values)
    return q1 if name in HOST_TIME else med


def run_workload(binary, workload, seed, reps, seconds, layers,
                 extra_args=()):
    """Run @reps e2e processes (more while under @seconds), and with
    @layers one or more per-layer processes (more while another one is
    expected to end within @seconds). Returns a result dict with per-rep
    records and the list of gate failures."""
    base = [f"--workload={workload}", f"--seed={seed}"] + list(extra_args)
    res = {"workload": workload, "seed": seed, "e2e": [], "layers": []}
    t0 = time.monotonic()

    def keep_going(done, minimum, expected=0.0):
        elapsed = time.monotonic() - t0
        if done < minimum:
            return True
        return elapsed + expected < seconds and elapsed < RUN_DEADLINE_S

    if reps:
        while keep_going(len(res["e2e"]), reps):
            res["e2e"].append(run_process(binary, base, t0 + RUN_LIMIT_S))
    if layers:
        OUT.mkdir(parents=True, exist_ok=True)
        last = 0.0
        while keep_going(len(res["layers"]), 1, last):
            spans = OUT / f"spans-{workload}-{len(res['layers'])}.json"
            start = time.monotonic()
            res["layers"].append(
                run_process(binary, base + ["--layers", f"--spans={spans}"],
                           t0 + RUN_LIMIT_S))
            res["layers"][-1]["spans_path"] = str(spans.relative_to(ROOT))
            last = time.monotonic() - start
    res["failures"] = gate(res)
    return res


def gate(res):
    """Correctness gates across every process of one workload."""
    failures = []
    runs = res["e2e"] + res["layers"]
    for i, r in enumerate(runs):
        failures += [f"process {i} ({r['mode']}): {f}" for f in r["failures"]]
    prints = {r["fingerprint"] for r in runs}
    if len(prints) > 1:
        failures.append(f"fingerprint differs across processes: "
                        f"{sorted(prints)}")
    # Layers processes of an untraced workload report the untraced pass
    # in "sim" too, so every process must agree on the simulated outcome.
    sims = {json.dumps([r["sim"][k] for k in SIM_KEYS]) for r in runs}
    if len(sims) > 1:
        failures.append(f"simulated metrics differ across processes: "
                        f"{sorted(sims)}")
    for r in runs:
        if r["sim"]["failed"]:
            failures.append(f"{r['sim']['failed']} simulated connections "
                            "failed")
            break
    return failures


def e2e_summary(res, spec):
    """metric -> (unit, [per-rep values]) for the end-to-end metrics."""
    out = {}
    reps = res["e2e"]
    for name in [m["name"] for m in spec["end_to_end"]] + EXTRA_METRICS:
        out[name] = (reps[0]["metrics"][name]["unit"],
                     [r["metrics"][name]["value"] for r in reps])
    return out


def layer_summary(res):
    """metric -> (unit, [per-process values]) for the per-layer metrics."""
    out = {}
    for r in res["layers"]:
        for name, m in r["layers"].items():
            out.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def fmt(v):
    return f"{v:.6g}"


def print_e2e(res, spec):
    reps = res["e2e"]
    first = reps[0]
    print(f"== {res['workload']} seed={res['seed']}: {len(reps)} processes, "
          f"fingerprint {first['fingerprint']}, invariants "
          f"{first['invariants']}")
    sim_s = first["sim"]["window_sim_s"]
    raw = {"wall_per_sim_s": [r["raw"]["window_s"] / sim_s for r in reps],
           "setup_s": [r["raw"]["setup_s"] for r in reps],
           "collect_s": [r["raw"]["collect_s"] for r in reps]}
    probe = statistics.median(p for r in reps for p in r["probe_s"])
    print(f"   {'metric':<16} {'unit':<11} {'value':>12} {'q1':>12} "
          f"{'median':>12} {'q3':>12}   raw q1 (probe median "
          f"{fmt(probe)} s, ref {fmt(first['probe_ref_s'])} s)")
    for name, (unit, values) in e2e_summary(res, spec).items():
        q1, med, q3 = quartiles(values)
        note = f"   {fmt(quartiles(raw[name])[0])}" if name in raw else ""
        print(f"   {name:<16} {unit:<11} {fmt(aggregate(name, values)):>12} "
              f"{fmt(q1):>12} {fmt(med):>12} {fmt(q3):>12}{note}")
    print(f"   sim_latency_samples {first['sim']['latency_samples']}, "
          f"attempted {first['sim']['attempted']}, failed "
          f"{first['sim']['failed']}, window {sim_s} sim-s")


def print_layers(res):
    procs = res["layers"]
    print(f"== {res['workload']} per-layer ({len(procs)} processes, "
          f"fingerprint {procs[0]['fingerprint']}, untraced "
          f"{procs[0]['untraced_fingerprint']})")
    for name, (unit, values) in layer_summary(res).items():
        print(f"   {name:<40} {unit:<13} {fmt(statistics.median(values))}")
    print("   self time per span (s, first process):")
    for pass_, spans in procs[0]["self_s"].items():
        for name, s in sorted(spans.items(), key=lambda kv: -kv[1]):
            print(f"     {pass_:<9} {name:<24} {s:.4f}")


def reproducer(res):
    return (f"reproduce: python3 bench/e2e/run.py --workload "
            f"{res['workload']} --seed {res['seed']} --seconds 0 "
            f"--trace {1 if res['layers'] else 0}   (one process: "
            f"{BUILD / 'bench_e2e'} --workload={res['workload']} "
            f"--seed={res['seed']}{' --layers' if res['layers'] else ''})")


def report_failures(res):
    for f in res["failures"]:
        print(f"FAIL {res['workload']}: {f}")
    if res["failures"]:
        print(reproducer(res))


def single(args, spec):
    """One workload for --seconds; last stdout line is the JSON result."""
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    binary = build()
    layers = args.trace == 1
    res = run_workload(binary, args.workload, args.seed,
                       0 if layers else MIN_REPS, args.seconds, layers)
    if layers:
        print_layers(res)
        summary = layer_summary(res)
        wanted = [m["name"] for m in spec["per_layer"]]
        recs = res["layers"]
    else:
        print_e2e(res, spec)
        summary = e2e_summary(res, spec)
        wanted = [m["name"] for m in spec["end_to_end"]]
        recs = res["e2e"]
    report_failures(res)
    result = {
        "correct": not res["failures"],
        "attempted": sum(r["sim"]["attempted"] for r in recs),
        "failed": sum(r["sim"]["failed"] for r in recs),
        "metrics": {n: {"value": aggregate(n, summary[n][1]),
                        "unit": summary[n][0]} for n in wanted},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"sets": [[res]]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def suite(binary, spec, seed, seconds, layers):
    results = []
    for w in spec["workloads"]:
        res = run_workload(binary, w["name"], seed, MIN_REPS, seconds,
                           layers)
        print_e2e(res, spec)
        if layers:
            print_layers(res)
        report_failures(res)
        results.append(res)
    return results


def compare_sets(sets, spec):
    """Per metric and workload: each set's value and the spread of the
    last against the first, against the bound. Returns the number of
    pairs outside their bound."""
    bad = 0
    print("== set comparison: spread = (last - first) / first, signed so "
          "positive is worse; sim_* must be identical")
    for i, res in enumerate(sets[0]):
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = [aggregate(name, e2e_summary(s[i], spec)[name][1])
                    for s in sets]
            spread = (vals[-1] - vals[0]) / vals[0]
            if m["better"] == "higher":
                spread = -spread
            sim = name.startswith("sim_")
            ok = vals[-1] == vals[0] if sim else spread <= m["bound"]
            bad += not ok
            print(f"   {res['workload']:<15} {name:<16} "
                  + " ".join(f"{fmt(v):>11}" for v in vals)
                  + f"  spread {spread:+.4f} bound {m['bound']}"
                  + ("" if ok else "  OUTSIDE"))
    return bad


def smoke(binary, spec):
    """Every workload with tiny windows: gates pass, every metric prints
    with its BENCHMARK.json unit."""
    bad = 0
    for w in spec["workloads"]:
        res = run_workload(binary, w["name"], 1, 1, 0, True, SMOKE_ARGS)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            print_e2e(res, spec)
            print_layers(res)
        sys.stdout.write(text.getvalue())
        report_failures(res)
        printed = text.getvalue().split()
        missing = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
                   if m["name"] not in printed]
        if missing:
            print(f"FAIL {w['name']}: metrics not printed: {missing}")
        units = {n: u for n, (u, _) in e2e_summary(res, spec).items()}
        units.update((n, u) for n, (u, _) in layer_summary(res).items())
        wrong = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
                 if units.get(m["name"], m["unit"]) != m["unit"]]
        if wrong:
            print(f"FAIL {w['name']}: units differ from BENCHMARK.json: "
                  f"{wrong}")
        bad += bool(res["failures"] or missing or wrong)
    print(f"smoke: {'PASS' if not bad else 'FAIL'}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run only this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep starting processes until this much time "
                    "has passed (at least 3, or 1 with --trace 1)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 reports per-layer metrics")
    ap.add_argument("--layers", action="store_true",
                    help="also run the per-layer process of each workload")
    ap.add_argument("--sets", type=int, default=1,
                    help="run the whole benchmark this many times")
    ap.add_argument("--out", type=Path, default=OUT / "result.json",
                    help="where the suite writes its JSON result")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", type=Path,
                    help="use this bench_e2e instead of building one")
    args = ap.parse_args()
    if args.seed < 1:
        fail("--seed must be at least 1")
    spec = load_spec()

    if args.workload:
        return single(args, spec)
    binary = args.binary or build()
    if args.smoke:
        return smoke(binary, spec)

    sets = []
    for n in range(max(1, args.sets)):
        if args.sets > 1:
            print(f"### set {n + 1} of {args.sets}")
        sets.append(suite(binary, spec, args.seed, args.seconds,
                          args.layers))
    failed = any(r["failures"] for s in sets for r in s)
    outside = compare_sets(sets, spec) if len(sets) > 1 else 0

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    print(f"wrote {args.out}")
    if args.layers:
        spans = OUT / "spans.json"
        merged = [json.loads((ROOT / r["spans_path"]).read_text())
                  for s in sets for res in s for r in res["layers"]]
        spans.write_text(json.dumps(merged) + "\n")
        print(f"wrote {spans}")
    if failed:
        return 1
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
