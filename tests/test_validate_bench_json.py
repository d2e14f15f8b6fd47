#!/usr/bin/env python3
"""Unit tests for tools/validate_bench_json.py.

Starts from a small schema-v12 document that carries every block (the
optional ones included) and passes, then breaks one consistency rule
at a time and checks that the validator prints a FAIL line naming it.
Each case fails if its check is deleted from the validator. Also
pinned: only v12 is accepted, an absent optional block
passes, a present-but-malformed one fails, and every violation in a
document is reported, not just the first.

Usage: test_validate_bench_json.py <path-to-validate_bench_json.py>
"""

import json
import os
import subprocess
import sys
import tempfile

TOOL = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(__file__), os.pardir, "tools",
    "validate_bench_json.py")

FAILURES = []
OPTIONAL = ("faults", "fleet", "timeseries", "fleet_trace",
            "latency_stages")


def good_row():
    fleet = {k: 0 for k in (
        "flows_created", "flows_retired", "flows_active",
        "flows_active_peak", "tuple_reuse", "idle_retired",
        "forwarded_c2s", "forwarded_s2c", "shed_no_backend",
        "shed_capacity", "nat_rsts", "bounded_load_fallbacks",
        "pressure_avoids", "probes_sent", "probe_failures", "ejections",
        "readmissions", "drains_started", "drains_completed",
        "undrained_flows", "restarts", "crashes", "lb_crashes",
        "vip_takeovers", "tx_suppressed", "corpse_rsts", "blackholed",
        "link_packets", "link_queued_ticks", "score_ejections",
        "ramp_skips", "ejections_capped", "degrades_applied",
        "flap_transitions", "partitions_armed", "degrade_dropped",
        "degrade_delayed", "partition_dropped", "incidents_total",
        "incidents_detected", "incidents_recovered", "mttd_ms_mean",
        "mttr_ms_mean", "traces_started", "traces_completed",
        "traces_stitched", "trace_orphans", "trace_duplicates",
        "span_reconcile_violations", "slo_fast_alerts",
        "slo_slow_alerts", "slo_first_fast_alert_ms")}
    fleet.update(server_machines=2, balancers=1, policy="chash",
                 health_mode="score", request_success_ratio=0.99,
                 flows_created=10, flows_retired=8, flows_active=2,
                 flows_active_peak=4, incidents_total=2,
                 incidents_detected=1, mttd_ms_mean=2.5,
                 traces_started=10, traces_completed=9,
                 traces_stitched=9, slo_fast_alerts=1,
                 slo_first_fast_alert_ms=40.0)
    overload = {k: 0 for k in (
        "offered", "admitted", "degraded", "shed", "shed_deadline",
        "shed_worker_cap", "shed_pressure", "released", "inflight",
        "health_offered", "health_admitted", "served_degraded",
        "backlog_dropped", "syn_gate_dropped", "pressure_transitions",
        "pressure_level", "pressure_peak", "softirq_depth_peak",
        "accept_depth_peak", "epoll_ready_peak", "latency_p50_ticks",
        "latency_p99_ticks", "latency_samples", "health_probes_started",
        "health_probes_completed", "health_probes_failed")}
    overload.update(enabled=True, spec="cap=8", offered=10, admitted=7,
                    degraded=1, shed=2, shed_deadline=2, released=8)
    conn = {k: 0 for k in (
        "tcb_live", "tcb_live_peak", "tcb_created", "slab_bytes",
        "bytes_per_conn", "established_curr", "established_peak",
        "time_wait_curr", "time_wait_peak", "time_wait_entered",
        "time_wait_reaped", "time_wait_recycled", "time_wait_reused",
        "time_wait_syn_dropped", "time_wait_acks", "port_alloc_failures",
        "ehash_lookups", "ehash_probes_walked", "ehash_lookup_cycles",
        "ehash_resizes", "avg_probe_len", "cycles_per_lookup")}
    conn.update(tcb_live=3, tcb_live_peak=5, tcb_created=9,
                bytes_per_conn=400.0, time_wait_curr=1,
                time_wait_peak=2, time_wait_entered=4,
                time_wait_reaped=3, ehash_lookups=4,
                ehash_probes_walked=6, avg_probe_len=1.5,
                cycles_per_lookup=20.0, ramp=[])
    return {
        "label": "row/a",
        "config": {"app": "nginx", "cores": 2, "flavor": "fastsocket",
                   "syn_cookies": False},
        "metrics": {"cps": 100.0, "rps": 100.0, "served": 10,
                    "core_util": [0.5, 0.5]},
        "phases": {"names": ["app", "idle"],
                   "per_core": [[0.25, 0.75], [0.5, 0.5]],
                   "machine": {"app": 0.375, "idle": 0.625}},
        "folded_stacks": [{"stack": "app", "cycles": 10}],
        "locks": {},
        "lock_cycle_share": {},
        "faults": {"plan": "loss_burst@0.010-0.020:rate=0.25"},
        "overload": overload,
        "conn": conn,
        "sim_core": {"events_run": 100, "events_scheduled": 110,
                     "sim_ticks": 1000, "wall_seconds": 0.5,
                     "events_per_sec": 200.0, "wall_per_sim_sec": 2.0},
        "fleet": fleet,
        "timeseries": {"sample_period": 100, "series": [
            {"name": "m0.time_wait", "kind": "gauge",
             "points": [[100, 1.0], [200, 2.0]]}]},
        "fleet_trace": {
            "traces_completed": 9, "orphans": 0, "duplicates": 0,
            "stitched": 9, "e2e_p50": 10, "e2e_p99": 20, "e2e_p999": 30,
            "dominant_p50": "wire", "dominant_p99": "wire",
            "dominant_p999": "-",
            "hops": [{"hop": "wire", "p50": 5, "p99": 8, "p999": 9,
                      "max": 9, "share": 0.6}]},
        "lock_windows": [{"start": 0, "end": 10, "locks": {},
                          "completed": 5, "goodput": 500.0,
                          "syn_retransmits": 0, "syn_cookies_sent": 0,
                          "syn_cookies_validated": 0,
                          "accept_queue_rsts": 0}],
        "queue_timelines": {"accept-shared": [[0, 1], [5, 2]]},
        "latency_stages": {
            "completed": 5, "live": 0, "shed": 0, "spans_recorded": 10,
            "spans_dropped": 0, "traces_dropped": 0,
            "dominant_tail_stage": "app",
            "stages": [{"stage": "app", "count": 5, "p50": 1, "p90": 2,
                        "p99": 3, "p999": 4, "max": 5,
                        "total_ticks": 9}],
            "exemplars": [{"percentile": "p99", "conn_id": 1,
                           "latency": 9, "unattributed": 1,
                           "stages": {"app": 8}, "cores": [0]}]},
        "trace": {"window_span": 1000, "untracked_cycles": 0},
        "fingerprint": "0x0123456789abcdef",
        "invariants": {"checks_run": 4, "violations": 0, "failed": []},
    }


def good_doc():
    return {"schema_version": 12, "bench": "unit", "rows": [good_row()]}


def run_validator(doc):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        proc = subprocess.run([sys.executable, TOOL, path],
                              capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def check(name, cond, detail=""):
    if cond:
        print(f"ok   {name}")
    else:
        print(f"FAIL {name}\n{detail}")
        FAILURES.append(name)


def mutate(fn):
    doc = good_doc()
    fn(doc["rows"][0])
    return doc


def setk(block, **kv):
    return lambda row: row[block].update(kv)


# (consistency rule, mutation that breaks it, text its FAIL line carries)
BROKEN = [
    ("phase fractions sum to 1",
     lambda r: r["phases"]["per_core"][0].__setitem__(0, 0.3),
     "phase fractions sum to"),
    ("folded stack shape",
     lambda r: r["folded_stacks"].append({"stack": "app"}),
     "malformed folded stack"),
    ("queue timeline ticks",
     lambda r: r["queue_timelines"]["accept-shared"].reverse(),
     "ticks not strictly increasing"),
    ("lock-window end after start",
     lambda r: r["lock_windows"][0].update(end=-1), "end < start"),
    ("lock-window shape",
     lambda r: r["lock_windows"][0].pop("goodput"),
     "missing key 'goodput'"),
    ("overload conservation", setk("overload", offered=11),
     "!= admitted + degraded + shed"),
    ("overload shed decomposition", setk("overload", shed_deadline=1),
     "shed reasons do not decompose"),
    ("disabled overload gate drops nothing",
     setk("overload", enabled=False, spec="", offered=0, admitted=0,
          degraded=0, shed=0, shed_deadline=0, released=0,
          syn_gate_dropped=4), "disabled but non-zero ['syn_gate_dropped']"),
    ("conn TIME_WAIT arithmetic", setk("conn", time_wait_entered=3),
     "TIME_WAIT exits"),
    ("conn probe average", setk("conn", avg_probe_len=2.0),
     "!= probes/lookups"),
    ("conn probe averages need lookups",
     setk("conn", ehash_lookups=0, ehash_probes_walked=0),
     "probe averages with zero lookups"),
    ("sim_core wall pair",
     lambda r: r["sim_core"].pop("events_per_sec"),
     "must appear together"),
    ("sim_core events_per_sec consistency",
     setk("sim_core", events_per_sec=999.0), "events_run/wall_seconds"),
    ("sim_core wall_per_sim_sec present",
     lambda r: r["sim_core"].pop("wall_per_sim_sec"),
     "wall_per_sim_sec missing"),
    ("fleet flow conservation", setk("fleet", flows_active=3),
     "!= retired + active"),
    ("incident funnel", setk("fleet", incidents_detected=3),
     "incident funnel not monotone"),
    ("MTTR zero rule", setk("fleet", mttr_ms_mean=5.0),
     "mttr_ms_mean non-zero with incidents_recovered == 0"),
    ("trace funnel", setk("fleet", traces_completed=11),
     "traces_completed > traces_started"),
    ("SLO alert timestamp", setk("fleet", slo_first_fast_alert_ms=0.0),
     "slo_first_fast_alert_ms is not positive"),
    ("timeseries kinds",
     lambda r: r["timeseries"]["series"][0].update(kind="meter"),
     "unknown kind"),
    ("timeseries monotone ticks",
     lambda r: r["timeseries"]["series"][0].update(
         points=[[200, 1.0], [100, 2.0]]),
     "not strictly monotone"),
    ("fleet_trace monotone hop percentiles",
     lambda r: r["fleet_trace"]["hops"][0].update(p99=10),
     "percentiles not monotone"),
    ("fleet_trace monotone e2e percentiles",
     setk("fleet_trace", e2e_p99=5), "e2e percentiles not monotone"),
    ("fleet_trace shares",
     lambda r: r["fleet_trace"]["hops"][0].update(share=1.5),
     "share outside [0, 1]"),
    ("fleet_trace dominant-hop names",
     setk("fleet_trace", dominant_p99="lb-nat"), "names no hop row"),
    ("latency_stages monotone percentiles",
     lambda r: r["latency_stages"]["stages"][0].update(p90=9),
     "percentiles not monotone"),
    ("queue_timelines at most 512 samples",
     lambda r: r["queue_timelines"].update(
         {"softirq-backlog": [[t, 0] for t in range(513)]}),
     "513 samples, more than 512"),
    ("queue_timelines ticks never repeat",
     lambda r: r["queue_timelines"].update(
         {"accept-shared": [[0, 1], [5, 2], [5, 3]]}),
     "ticks not strictly increasing"),
    ("queue_timelines within window_span",
     lambda r: r["queue_timelines"].update(
         {"accept-local": [[10, 1], [1011, 2]]}),
     "spans 1001 ticks, more than window_span 1000"),
    ("fingerprint format",
     lambda r: r.update(fingerprint="0x123"), "16-hex-digit"),
    ("invariants consistency", setk("invariants", violations=1),
     "but failed list has 0 entries"),
    ("faults block carries its plan", setk("faults", plan=""),
     "non-empty string"),
]


def main():
    rc, out = run_validator(good_doc())
    check("complete v12 document passes", rc == 0 and "OK" in out, out)

    for name, fn, text in BROKEN:
        rc, out = run_validator(mutate(fn))
        check(f"broken {name} is reported", rc == 1 and text in out and
              "FAIL" in out, out)

    doc = good_doc()
    doc["schema_version"] = 11
    rc, out = run_validator(doc)
    check("v11 document is rejected",
          rc == 1 and "schema_version 11" in out, out)

    def strip_optional(row):
        for b in OPTIONAL:
            del row[b]
    rc, out = run_validator(mutate(strip_optional))
    check("row without any optional block passes", rc == 0, out)
    rc, out = run_validator(mutate(lambda r: r.pop("fleet")))
    check("absent fleet block passes", rc == 0, out)

    rc, out = run_validator(mutate(lambda r: r["fleet"].pop("policy")))
    check("fleet block missing a key fails",
          rc == 1 and "fleet missing key 'policy'" in out, out)
    rc, out = run_validator(mutate(lambda r: r.update(fleet=[])))
    check("fleet block of the wrong type fails",
          rc == 1 and "fleet is not a dict" in out, out)
    rc, out = run_validator(mutate(lambda r: r.pop("conn")))
    check("absent always-present block fails",
          rc == 1 and "missing key 'conn'" in out, out)
    rc, out = run_validator(mutate(lambda r: r.update(extra={})))
    check("unknown block fails",
          rc == 1 and "unknown block 'extra'" in out, out)

    # Three independent violations print three FAIL lines; one is a
    # queue timeline longer than the window on a row without
    # latency_stages, which is checked on every row.
    def three(row):
        del row["latency_stages"]
        row["trace"]["window_span"] = 4
        row["overload"]["offered"] = 99
        row["fingerprint"] = "bad"
    rc, out = run_validator(mutate(three))
    fails = [ln for ln in out.splitlines() if ": FAIL: " in ln]
    check("three seeded violations print three FAIL lines",
          rc == 1 and len(fails) == 3 and
          any("more than window_span 4" in ln for ln in fails), out)

    if FAILURES:
        print(f"{len(FAILURES)} failure(s): {FAILURES}")
        return 1
    print("all validate_bench_json unit tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
