#!/usr/bin/env python3
"""Validate a bench --json export against the schema (v12 only).

Usage: validate_bench_json.py [--quiet] <file.json> [<file.json> ...]

Every violation in every file is reported (one line each) before the
exit status is decided -- a document with three problems prints three
lines, not just the first. With --quiet, per-file OK lines are
suppressed and only violations print.

The SCHEMA table below is the whole contract: for each per-row block it
names the JSON type, the required keys, whether the block is on every
row, and the consistency check run on it; queue_timelines is also
checked against trace.window_span. Optional blocks (faults,
fleet, timeseries, fleet_trace, latency_stages) appear only on rows
that populated them, so a block's presence is its enabled flag and an
absent block is never an error. Stdlib only; used by CI and by hand
after editing the exporter. Exit status 0 iff every document passes.
"""

import json
import re
import sys
from collections import namedtuple

SCHEMA_VERSION = 12

# Buckets per queue-depth series (DepthSeries::kMaxBuckets).
MAX_QUEUE_SAMPLES = 512

STAGE_ROW_KEYS = ("stage", "count", "p50", "p90", "p99", "p999", "max",
                  "total_ticks")
EXEMPLAR_KEYS = ("percentile", "conn_id", "latency", "unattributed",
                 "stages", "cores")
RAMP_KEYS = ("live", "bytes_per_conn", "cycles_per_lookup",
             "avg_probe_len")
WINDOW_KEYS = ("start", "end", "locks", "completed", "goodput",
               "syn_retransmits", "syn_cookies_sent",
               "syn_cookies_validated", "accept_queue_rsts")
SERIES_KEYS = ("name", "kind", "points")
METRIC_KINDS = ("counter", "gauge", "histogram")
HOP_ROW_KEYS = ("hop", "p50", "p99", "p999", "max", "share")
FINGERPRINT_RE = re.compile(r"^0x[0-9a-f]{16}$")


class Checker:
    """Accumulates violations for one document; never stops at the
    first problem, so a broken exporter shows its full damage in one
    validator run."""

    def __init__(self):
        self.errors = []

    def fail(self, msg):
        self.errors.append(msg)
        return False

    def require(self, obj, keys, where):
        ok = True
        for k in keys:
            if k not in obj:
                ok = self.fail(f"{where} missing key '{k}'")
        return ok


# Each check takes (checker, block value, where) and reports through
# the checker; SCHEMA has already verified the block's type and keys.

def check_phases(c, ph, where):
    names = ph["names"]
    for cr, fracs in enumerate(ph["per_core"]):
        if len(fracs) != len(names):
            c.fail(f"{where} core {cr}: {len(fracs)} fractions vs "
                   f"{len(names)} names")
            continue
        total = sum(fracs)
        if abs(total - 1.0) > 1e-6:
            c.fail(f"{where} core {cr}: phase fractions sum to "
                   f"{total!r}, not 1.0")


def check_folded_stacks(c, stacks, where):
    for fs in stacks:
        if not isinstance(fs, dict) or "stack" not in fs or \
                "cycles" not in fs:
            c.fail(f"{where}: malformed folded stack {fs!r}")


def check_lock_windows(c, windows, where):
    for w, win in enumerate(windows):
        ww = f"{where}[{w}]"
        if not c.require(win, WINDOW_KEYS, ww):
            continue
        if win["end"] < win["start"]:
            c.fail(f"{ww} end < start")
        if win["goodput"] < 0 or win["completed"] < 0:
            c.fail(f"{ww} negative completed/goodput")


def check_queue_timelines(c, timelines, window_span, where):
    """Each series is one bounded, ordered pass over the window."""
    for qname, samples in timelines.items():
        qw = f"{where}[{qname}]"
        if len(samples) > MAX_QUEUE_SAMPLES:
            c.fail(f"{qw}: {len(samples)} samples, more than "
                   f"{MAX_QUEUE_SAMPLES}")
        ticks = [s[0] for s in samples]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            c.fail(f"{qw} ticks not strictly increasing")
        if ticks and ticks[-1] - ticks[0] > window_span:
            c.fail(f"{qw} spans {ticks[-1] - ticks[0]} ticks, more than "
                   f"window_span {window_span}")


def check_faults(c, faults, where):
    if not isinstance(faults["plan"], str) or not faults["plan"]:
        c.fail(f"{where}.plan must be a non-empty string (the block is "
               f"present only when a plan is armed)")


def check_overload(c, ov, where):
    if not isinstance(ov["spec"], str):
        c.fail(f"{where}.spec is not a string")
        return
    if bool(ov["enabled"]) != bool(ov["spec"]):
        c.fail(f"{where}: enabled={ov['enabled']!r} inconsistent with "
               f"spec {ov['spec']!r}")
    if ov["offered"] != ov["admitted"] + ov["degraded"] + ov["shed"]:
        c.fail(f"{where}: offered {ov['offered']} != admitted + "
               f"degraded + shed")
    if ov["shed"] != (ov["shed_deadline"] + ov["shed_worker_cap"] +
                      ov["shed_pressure"]):
        c.fail(f"{where}: shed reasons do not decompose "
               f"shed={ov['shed']}")
    if ov["admitted"] + ov["degraded"] != ov["released"] + ov["inflight"]:
        c.fail(f"{where}: admitted + degraded != released + inflight")
    if ov["health_admitted"] > ov["health_offered"]:
        c.fail(f"{where}: health_admitted > health_offered")
    # A disabled gate admits, sheds and drops nothing; with conservation
    # above, offered == 0 zeroes every admission verdict.
    if not ov["enabled"]:
        dirty = [k for k in ("offered", "served_degraded",
                             "backlog_dropped", "syn_gate_dropped") if ov[k]]
        if dirty:
            c.fail(f"{where}: disabled but non-zero {dirty}")


def check_conn(c, cn, where):
    if cn["tcb_live"] > cn["tcb_live_peak"]:
        c.fail(f"{where}: tcb_live > peak")
    if cn["established_curr"] > cn["established_peak"]:
        c.fail(f"{where}: established_curr > peak")
    if cn["time_wait_curr"] > cn["time_wait_peak"]:
        c.fail(f"{where}: time_wait_curr > peak")
    if cn["tcb_live_peak"] > cn["tcb_created"]:
        c.fail(f"{where}: tcb_live_peak > tcb_created")
    if cn["tcb_live_peak"] > 0 and cn["bytes_per_conn"] <= 0:
        c.fail(f"{where}: TCBs existed but bytes_per_conn is "
               f"{cn['bytes_per_conn']!r}")
    # Every lingering entry left the table exactly one way (or is
    # still in it at collection time).
    accounted = (cn["time_wait_reaped"] + cn["time_wait_recycled"] +
                 cn["time_wait_reused"] + cn["time_wait_curr"])
    if cn["time_wait_entered"] < accounted:
        c.fail(f"{where}: TIME_WAIT exits ({accounted}) exceed entries "
               f"({cn['time_wait_entered']})")
    if cn["ehash_lookups"] == 0 and (cn["avg_probe_len"] != 0 or
                                     cn["cycles_per_lookup"] != 0):
        c.fail(f"{where}: probe averages with zero lookups")
    if cn["ehash_lookups"] > 0:
        avg = cn["ehash_probes_walked"] / cn["ehash_lookups"]
        if abs(avg - cn["avg_probe_len"]) > 1e-6 * max(1.0, avg):
            c.fail(f"{where}: avg_probe_len {cn['avg_probe_len']!r} != "
                   f"probes/lookups {avg!r}")
    if not isinstance(cn["ramp"], list):
        c.fail(f"{where}.ramp is not a list")
        return
    for p, pt in enumerate(cn["ramp"]):
        pw = f"{where}.ramp[{p}]"
        if not c.require(pt, RAMP_KEYS, pw):
            continue
        if pt["live"] < 0 or pt["bytes_per_conn"] < 0:
            c.fail(f"{pw}: negative gauge")


def check_sim_core(c, sc, where):
    for k in ("events_run", "events_scheduled", "sim_ticks"):
        if not isinstance(sc[k], int) or sc[k] < 0:
            c.fail(f"{where}.{k} malformed")
            return
    # Wall-clock trio: wall_seconds and events_per_sec appear together
    # (wall-stamped rows only); wall_per_sim_sec rides along whenever
    # simulated time actually advanced.
    has_wall = "wall_seconds" in sc
    if has_wall != ("events_per_sec" in sc):
        c.fail(f"{where}: wall_seconds and events_per_sec must appear "
               f"together")
        return
    if "wall_per_sim_sec" in sc and not has_wall:
        c.fail(f"{where}: wall_per_sim_sec without wall_seconds")
    if not has_wall:
        return
    if sc["wall_seconds"] <= 0:
        c.fail(f"{where}: wall_seconds not positive")
        return
    want = sc["events_run"] / sc["wall_seconds"]
    if abs(want - sc["events_per_sec"]) > 1e-6 * max(1.0, want):
        c.fail(f"{where}: events_per_sec {sc['events_per_sec']!r} != "
               f"events_run/wall_seconds {want!r}")
    if sc["sim_ticks"] > 0 and "wall_per_sim_sec" not in sc:
        c.fail(f"{where}: sim time advanced but wall_per_sim_sec "
               f"missing")
    if sc.get("wall_per_sim_sec", 1) <= 0:
        c.fail(f"{where}: wall_per_sim_sec not positive")


def check_fleet(c, fl, where):
    for k in ("policy", "health_mode"):
        if not isinstance(fl[k], str):
            c.fail(f"{where}.{k} is not a string")
            return
    if fl["server_machines"] < 1 or fl["balancers"] < 1:
        c.fail(f"{where}: empty topology")
    # Every flow the balancer tier ever created either retired or is
    # still in a flow table at collection.
    if fl["flows_created"] != fl["flows_retired"] + fl["flows_active"]:
        c.fail(f"{where}: flows_created {fl['flows_created']} != "
               f"retired + active")
    if fl["flows_active"] > fl["flows_active_peak"]:
        c.fail(f"{where}: flows_active > flows_active_peak")
    if fl["drains_completed"] > fl["drains_started"]:
        c.fail(f"{where}: drains_completed > drains_started")
    if fl["probe_failures"] > fl["probes_sent"]:
        c.fail(f"{where}: probe_failures > probes_sent")
    if not 0.0 <= fl["request_success_ratio"] <= 1.0:
        c.fail(f"{where}: request_success_ratio outside [0, 1]")
    # Gray-failure detection and the incident ledger.
    if fl["health_mode"] not in ("binary", "score"):
        c.fail(f"{where}.health_mode {fl['health_mode']!r} not "
               f"binary/score")
    if fl["score_ejections"] > fl["ejections"]:
        c.fail(f"{where}: score_ejections > ejections")
    if not (fl["incidents_recovered"] <= fl["incidents_detected"] <=
            fl["incidents_total"]):
        c.fail(f"{where}: incident funnel not monotone (recovered <= "
               f"detected <= total)")
    for mk, ck in (("mttd_ms_mean", "incidents_detected"),
                   ("mttr_ms_mean", "incidents_recovered")):
        if fl[mk] < 0:
            c.fail(f"{where}.{mk} negative")
        if fl[ck] == 0 and fl[mk] != 0:
            c.fail(f"{where}.{mk} non-zero with {ck} == 0")
    # Trace accounting is a funnel: a trace completes at most once and
    # stitches/orphans never outnumber what was seen.
    if fl["traces_completed"] > fl["traces_started"]:
        c.fail(f"{where}: traces_completed > traces_started")
    if fl["traces_stitched"] > fl["traces_started"]:
        c.fail(f"{where}: traces_stitched > traces_started")
    if fl["trace_orphans"] > fl["traces_completed"]:
        c.fail(f"{where}: trace_orphans > traces_completed")
    if fl["slo_first_fast_alert_ms"] < 0:
        c.fail(f"{where}.slo_first_fast_alert_ms negative")
    if fl["slo_fast_alerts"] == 0 and fl["slo_first_fast_alert_ms"] != 0:
        c.fail(f"{where}: slo_first_fast_alert_ms non-zero with "
               f"slo_fast_alerts == 0")
    if fl["slo_fast_alerts"] > 0 and fl["slo_first_fast_alert_ms"] <= 0:
        c.fail(f"{where}: slo_fast_alerts fired but "
               f"slo_first_fast_alert_ms is not positive")


def check_timeseries(c, ts, where):
    if not isinstance(ts["series"], list):
        c.fail(f"{where}.series is not a list")
        return
    if ts["series"] and ts["sample_period"] <= 0:
        c.fail(f"{where}: sampled series with non-positive "
               f"sample_period")
    for s, se in enumerate(ts["series"]):
        sw = f"{where}.series[{s}]"
        if not c.require(se, SERIES_KEYS, sw):
            continue
        if not isinstance(se["name"], str) or not se["name"]:
            c.fail(f"{sw}: missing/empty name")
            continue
        if se["kind"] not in METRIC_KINDS:
            c.fail(f"{sw} ({se['name']}): unknown kind {se['kind']!r}")
        pts = se["points"]
        if not isinstance(pts, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in pts):
            c.fail(f"{sw} ({se['name']}): points are not [tick, value] "
                   f"pairs")
            continue
        ticks = [p[0] for p in pts]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            c.fail(f"{sw} ({se['name']}): sample ticks not strictly "
                   f"monotone")


def check_fleet_trace(c, ft, where):
    if not isinstance(ft["hops"], list):
        c.fail(f"{where}.hops is not a list")
        return
    if not (ft["e2e_p50"] <= ft["e2e_p99"] <= ft["e2e_p999"]):
        c.fail(f"{where}: e2e percentiles not monotone")
    hop_names = set()
    for h, hop in enumerate(ft["hops"]):
        hw = f"{where}.hops[{h}]"
        if not c.require(hop, HOP_ROW_KEYS, hw):
            continue
        hop_names.add(hop["hop"])
        if not (hop["p50"] <= hop["p99"] <= hop["p999"] <= hop["max"]):
            c.fail(f"{hw} ({hop['hop']}): percentiles not monotone")
        if not 0.0 <= hop["share"] <= 1.0:
            c.fail(f"{hw} ({hop['hop']}): share outside [0, 1]")
    for q in ("dominant_p50", "dominant_p99", "dominant_p999"):
        name = ft[q]
        if not isinstance(name, str):
            c.fail(f"{where}.{q} is not a string")
        elif ft["hops"] and name not in hop_names and name != "-":
            c.fail(f"{where}.{q} {name!r} names no hop row")


def check_latency_stages(c, ls, where):
    for s, st in enumerate(ls["stages"]):
        sw = f"{where}.stages[{s}]"
        if not c.require(st, STAGE_ROW_KEYS, sw):
            continue
        if not (st["p50"] <= st["p90"] <= st["p99"] <= st["p999"] <=
                st["max"]):
            c.fail(f"{sw} ({st['stage']}): percentiles not monotone")
        if st["count"] <= 0:
            c.fail(f"{sw} ({st['stage']}): count must be positive")
    for e, ex in enumerate(ls["exemplars"]):
        ew = f"{where}.exemplars[{e}]"
        if not c.require(ex, EXEMPLAR_KEYS, ew):
            continue
        if ex["percentile"] not in ("p50", "p99", "p999"):
            c.fail(f"{ew}: bad percentile {ex['percentile']!r}")
        if ex["unattributed"] > ex["latency"]:
            c.fail(f"{ew}: unattributed > latency")
        if not isinstance(ex["cores"], list):
            c.fail(f"{ew}: cores is not a list")
    if ls["completed"] > 0 and not ls["stages"]:
        c.fail(f"{where}: completed connections but no stage rows")


def check_fingerprint(c, fp, where):
    if not FINGERPRINT_RE.match(fp):
        c.fail(f"{where} {fp!r} is not a 0x + 16-hex-digit string")


def check_invariants(c, inv, where):
    for k in ("checks_run", "violations"):
        if not isinstance(inv[k], int) or inv[k] < 0:
            c.fail(f"{where}.{k} malformed")
    if not isinstance(inv["failed"], list) or any(
            not isinstance(n, str) for n in inv["failed"]):
        c.fail(f"{where}.failed malformed")
        return
    if (inv["violations"] == 0) != (len(inv["failed"]) == 0):
        c.fail(f"{where}: violations={inv['violations']} but failed "
               f"list has {len(inv['failed'])} entries")


Block = namedtuple("Block", "type keys always check")

# Per-row blocks of schema v12, in emitter order. `always` blocks are on
# every row; the others are written only when the run populated them.
SCHEMA = {
    "label": Block(str, (), True, None),
    "config": Block(dict, ("app", "cores", "flavor", "syn_cookies"), True,
                    None),
    "metrics": Block(dict, ("cps", "rps", "served", "core_util"), True,
                     None),
    "phases": Block(dict, ("names", "per_core", "machine"), True,
                    check_phases),
    "folded_stacks": Block(list, (), True, check_folded_stacks),
    "locks": Block(dict, (), True, None),
    "lock_cycle_share": Block(dict, (), True, None),
    "faults": Block(dict, ("plan",), False, check_faults),
    "overload": Block(dict, (
        "enabled", "spec", "offered", "admitted", "degraded", "shed",
        "shed_deadline", "shed_worker_cap", "shed_pressure", "released",
        "inflight", "health_offered", "health_admitted",
        "served_degraded", "backlog_dropped", "syn_gate_dropped",
        "pressure_transitions", "pressure_level", "pressure_peak",
        "softirq_depth_peak", "accept_depth_peak", "epoll_ready_peak",
        "latency_p50_ticks", "latency_p99_ticks", "latency_samples",
        "health_probes_started", "health_probes_completed",
        "health_probes_failed"), True, check_overload),
    "conn": Block(dict, (
        "tcb_live", "tcb_live_peak", "tcb_created", "slab_bytes",
        "bytes_per_conn", "established_curr", "established_peak",
        "time_wait_curr", "time_wait_peak", "time_wait_entered",
        "time_wait_reaped", "time_wait_recycled", "time_wait_reused",
        "time_wait_syn_dropped", "time_wait_acks", "port_alloc_failures",
        "ehash_lookups", "ehash_probes_walked", "ehash_lookup_cycles",
        "ehash_resizes", "avg_probe_len", "cycles_per_lookup", "ramp"),
        True, check_conn),
    "sim_core": Block(dict, ("events_run", "events_scheduled",
                             "sim_ticks"), True, check_sim_core),
    "fleet": Block(dict, (
        "server_machines", "balancers", "policy", "flows_created",
        "flows_retired", "flows_active", "flows_active_peak",
        "tuple_reuse", "idle_retired", "forwarded_c2s", "forwarded_s2c",
        "shed_no_backend", "shed_capacity", "nat_rsts",
        "bounded_load_fallbacks", "pressure_avoids", "probes_sent",
        "probe_failures", "ejections", "readmissions", "drains_started",
        "drains_completed", "undrained_flows", "restarts", "crashes",
        "lb_crashes", "vip_takeovers", "tx_suppressed", "corpse_rsts",
        "blackholed", "link_packets", "link_queued_ticks",
        "request_success_ratio", "health_mode", "score_ejections",
        "ramp_skips", "ejections_capped", "degrades_applied",
        "flap_transitions", "partitions_armed", "degrade_dropped",
        "degrade_delayed", "partition_dropped", "incidents_total",
        "incidents_detected", "incidents_recovered", "mttd_ms_mean",
        "mttr_ms_mean", "traces_started", "traces_completed",
        "traces_stitched", "trace_orphans", "trace_duplicates",
        "span_reconcile_violations", "slo_fast_alerts",
        "slo_slow_alerts", "slo_first_fast_alert_ms"),
        False, check_fleet),
    "timeseries": Block(dict, ("sample_period", "series"), False,
                        check_timeseries),
    "fleet_trace": Block(dict, (
        "traces_completed", "orphans", "duplicates", "stitched",
        "e2e_p50", "e2e_p99", "e2e_p999", "dominant_p50", "dominant_p99",
        "dominant_p999", "hops"), False, check_fleet_trace),
    "lock_windows": Block(list, (), True, check_lock_windows),
    "queue_timelines": Block(dict, (), True, None),
    "latency_stages": Block(dict, (
        "completed", "live", "shed", "spans_recorded", "spans_dropped",
        "traces_dropped", "dominant_tail_stage", "stages", "exemplars"),
        False, check_latency_stages),
    "trace": Block(dict, ("window_span",), True, None),
    "fingerprint": Block(str, (), True, check_fingerprint),
    "invariants": Block(dict, ("checks_run", "violations", "failed"),
                        True, check_invariants),
}


def check_row(c, row, where):
    if not isinstance(row, dict):
        c.fail(f"{where} is not an object")
        return
    for name, b in SCHEMA.items():
        bw = f"{where}.{name}"
        if name not in row:
            if b.always:
                c.fail(f"{where} missing key '{name}'")
            continue
        if not isinstance(row[name], b.type):
            c.fail(f"{bw} is not a {b.type.__name__}")
        elif c.require(row[name], b.keys, bw) and b.check:
            b.check(c, row[name], bw)
    for name in row:
        if name not in SCHEMA:
            c.fail(f"{where} has unknown block '{name}'")
    tl, tr = row.get("queue_timelines"), row.get("trace")
    if isinstance(tl, dict) and isinstance(tr, dict) and \
            "window_span" in tr:
        check_queue_timelines(c, tl, tr["window_span"],
                              f"{where}.queue_timelines")


def validate(path, quiet=False):
    c = Checker()
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        c.fail(f"unreadable: {e}")
        doc = None

    if doc is not None:
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            c.fail(f"schema_version {version!r}, expected "
                   f"{SCHEMA_VERSION}")
        else:
            if not isinstance(doc.get("bench"), str) or not doc["bench"]:
                c.fail("missing/empty 'bench' name")
            rows = doc.get("rows")
            if not isinstance(rows, list) or not rows:
                c.fail("'rows' missing or empty")
                rows = []
            for i, row in enumerate(rows):
                check_row(c, row, f"rows[{i}]")

    for msg in c.errors:
        print(f"{path}: FAIL: {msg}")
    if not c.errors and not quiet:
        print(f"{path}: OK ({doc['bench']}, {len(doc['rows'])} rows, "
              f"schema v{doc['schema_version']})")
    return not c.errors


def main(argv):
    quiet = False
    paths = []
    for a in argv[1:]:
        if a == "--quiet":
            quiet = True
        elif a.startswith("-"):
            print(f"unknown option {a!r}")
            return 2
        else:
            paths.append(a)
    if not paths:
        print(__doc__.strip())
        return 2
    results = [validate(p, quiet) for p in paths]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
