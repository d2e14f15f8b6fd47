#!/usr/bin/env python3
"""Diff two bench --json exports and flag regressions.

Usage: bench_compare.py <baseline.json> <candidate.json>
           [--threshold=0.05] [--metrics=cps,rps]

Rows are matched by label (rows present in only one document are
reported but are not regressions). For each matched row the metrics in
the METRICS table are compared against the baseline: throughput
(cps, rps, served, events_per_sec, request_success_ratio) is higher is
better; latency, memory and reaction-time metrics are lower is better.
A metric is comparable only when its block is on the row -- fleet
metrics on fleet rows, wall-clock metrics on wall-stamped sim_core
blocks -- and its gate key is non-zero (latency samples, live TCBs,
detected/recovered incidents, fired fast alerts).

Sampled time series compare by name: --metrics=ts:<series> (higher is
better) or ts-:<series> (lower is better) reads the final sampled value
of that series, e.g. --metrics=ts-:m0.time_wait.

Sign convention: the percentage in every REGRESSION / IMPROVED line is
the magnitude of the move measured against the metric's gate, and the
message names the gate direction ("lower is better" / "higher is
better") — so "12.0% worse; lower is better" always means the value
rose, and a reader never has to remember which way a metric gates.

A metric that is present (or comparable) in the baseline but absent or
gated out of the candidate is reported as an explicit MISSING
regression — never silently skipped: a latency percentile that
disappears because the candidate stopped sampling is a data loss, not
a pass. A non-finite value (NaN/inf) inside a present block is treated
the same way: NaN compares false against every threshold, so without
this rule a corrupted candidate metric would silently pass. The
reverse direction (new in candidate) is reported as a note. Metrics
absent from both sides are skipped.

Improvements beyond the threshold are reported as such, never fatal.
Both documents must be schema v12. Exit status: 0 = no regressions,
1 = at least one regression, 2 = usage/IO error or another schema
version.
"""

import json
import math
import sys

DEFAULT_THRESHOLD = 0.05
SCHEMA_VERSION = 12

# metric -> (block, gate key, lower is better). The value is
# row[block][metric]; it is comparable only when the block is present
# and, if a gate key is named, row[block][gate] is non-zero (a latency
# percentile over zero samples or a mean over zero incidents is not a
# datum). Order is the default --metrics order.
METRICS = {
    "cps": ("metrics", None, False),
    "rps": ("metrics", None, False),
    "served": ("metrics", None, False),
    "events_per_sec": ("sim_core", None, False),
    "request_success_ratio": ("fleet", None, False),
    "latency_p50_ticks": ("overload", "latency_samples", True),
    "latency_p99_ticks": ("overload", "latency_samples", True),
    "bytes_per_conn": ("conn", "tcb_live_peak", True),
    "wall_per_sim_sec": ("sim_core", None, True),
    "flows_active_peak": ("fleet", None, True),
    "mttd_ms_mean": ("fleet", "incidents_detected", True),
    "mttr_ms_mean": ("fleet", "incidents_recovered", True),
    "slo_first_fast_alert_ms": ("fleet", "slo_fast_alerts", True),
}


def is_lower_better(name):
    if name.startswith("ts-:"):
        return True
    return name in METRICS and METRICS[name][2]


def as_float(v):
    """Numeric AND finite, else None. NaN/inf inside a present block
    must not reach the threshold comparison (every comparison against
    NaN is False, which would silently pass); mapping it to None turns
    it into an explicit MISSING regression instead."""
    if isinstance(v, (int, float)) and math.isfinite(v):
        return float(v)
    return None


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return None
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        print(f"error: {path}: unsupported schema_version {version!r} "
              f"(expected {SCHEMA_VERSION})", file=sys.stderr)
        return None
    if not isinstance(doc.get("rows"), list):
        print(f"error: {path}: missing rows", file=sys.stderr)
        return None
    return doc


def metric_value(row, name):
    """Fetch a metric by name; None when absent or not comparable."""
    if name.startswith("ts:") or name.startswith("ts-:"):
        # Final sampled value of the named time series.
        want = name.split(":", 1)[1]
        for se in row.get("timeseries", {}).get("series", []):
            if se.get("name") == want and se.get("points"):
                return as_float(se["points"][-1][1])
        return None
    if name not in METRICS:
        return None
    block, gate, _ = METRICS[name]
    blk = row.get(block)
    if blk is None or (gate and not blk.get(gate)):
        return None
    return as_float(blk.get(name))


def compare_rows(label, base, cand, metrics, threshold):
    """Return (regressions, improvements) message lists for one row."""
    regressions = []
    improvements = []
    for m in metrics:
        bv = metric_value(base, m)
        cv = metric_value(cand, m)
        if bv is None and cv is None:
            continue
        # A one-sided metric is an explicit diff, never a silent skip:
        # losing a comparable metric (stopped sampling, block gated
        # out, older schema) is itself a regression; gaining one is
        # worth a note but cannot fail the comparison.
        if cv is None:
            regressions.append(
                f"{label}: {m} {bv:.6g} in baseline but MISSING "
                f"(absent or gated) in candidate")
            continue
        if bv is None:
            print(f"note: {label}: {m} {cv:.6g} in candidate has no "
                  f"baseline value (absent or gated)")
            continue
        if bv == 0:
            continue    # cannot express a relative delta
        delta = (cv - bv) / bv
        lower_better = is_lower_better(m)
        # Measure against the gate so the reported percentage always
        # means the same thing: positive = worse, for every metric.
        worse = delta if lower_better else -delta
        gate = "lower is better" if lower_better else "higher is better"
        if worse > threshold:
            regressions.append(
                f"{label}: {m} {bv:.6g} -> {cv:.6g} "
                f"({abs(worse) * 100.0:.1f}% worse; {gate})")
        elif worse < -threshold:
            improvements.append(
                f"{label}: {m} {bv:.6g} -> {cv:.6g} "
                f"({abs(worse) * 100.0:.1f}% better; {gate})")
    return regressions, improvements


def main(argv):
    paths = []
    threshold = DEFAULT_THRESHOLD
    metrics = list(METRICS)
    for a in argv[1:]:
        if a.startswith("--threshold="):
            try:
                threshold = float(a.split("=", 1)[1])
            except ValueError:
                print(f"error: bad threshold {a!r}", file=sys.stderr)
                return 2
        elif a.startswith("--metrics="):
            metrics = [m for m in a.split("=", 1)[1].split(",") if m]
        elif a.startswith("--"):
            print(f"error: unknown flag {a!r}", file=sys.stderr)
            return 2
        else:
            paths.append(a)
    if len(paths) != 2:
        print(__doc__.strip())
        return 2

    base_doc = load(paths[0])
    cand_doc = load(paths[1])
    if base_doc is None or cand_doc is None:
        return 2

    base_rows = {r.get("label"): r for r in base_doc["rows"]}
    cand_rows = {r.get("label"): r for r in cand_doc["rows"]}

    regressions = []
    improvements = []
    compared = 0
    for label, base in base_rows.items():
        cand = cand_rows.get(label)
        if cand is None:
            print(f"note: row '{label}' only in baseline")
            continue
        compared += 1
        reg, imp = compare_rows(label, base, cand, metrics, threshold)
        regressions.extend(reg)
        improvements.extend(imp)
    for label in cand_rows:
        if label not in base_rows:
            print(f"note: row '{label}' only in candidate")

    for msg in improvements:
        print(f"IMPROVED   {msg}")
    for msg in regressions:
        print(f"REGRESSION {msg}")
    print(f"compared {compared} rows "
          f"({base_doc.get('bench')}) at threshold "
          f"{threshold * 100.0:.1f}%: "
          f"{len(regressions)} regressions, "
          f"{len(improvements)} improvements")
    if compared == 0:
        print("error: no rows matched by label", file=sys.stderr)
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
