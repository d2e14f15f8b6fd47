#!/usr/bin/env python3
"""The CI bench smoke checks, declared once and run the same way anywhere.

GROUPS below is the whole gating contract of the bench smoke: each
group is one CI step, and each Run in it is one bench command with the
checks on what that command writes. A Run expands to these commands,
in this order, each of which must exit 0:

  the bench    $R/build/bench/<bench> <flags>
  twice        the same command into <stem>.again.json, then diff
  sha256       sha256sum -c on a committed list of output-file hashes
  validate     validate_bench_json.py on the --json output
  perfetto     validate_perfetto.py on the named trace files
  exact        baseline_exact.py against the committed baseline
               tools/baselines/<bench>_quick.json (or another output)
  compare      bench_compare.py against that baseline at a threshold

A plain string in a group is one more command, run as written.

R is the repository root. smoke.py first builds the named groups'
binaries in build/ (configure it once with cmake -B build), then runs
each group in an emptied build/smoke/<group>/. A failed command does
not stop the ones after it.

Usage: smoke.py GROUP...           run the groups, one verdict line per
                                   command; exit 1 if any failed
       smoke.py --list [GROUP...]  print the same commands as a shell
                                   script to run from the repo root
"""

import shlex
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BIN = "$R/build/bench/"


def tool(name, *args):
    return ["python3", f"$R/tools/{name}.py", *args]


@dataclass
class Run:
    """One bench command and the checks on the files it writes."""
    cmd: str
    twice: bool = False
    sha256: str = None
    perfetto: tuple = ()
    exact: tuple = ()
    against: str = None
    compare: float = None
    metrics: str = None

    def commands(self):
        name, *flags = shlex.split(self.cmd)
        bench = [BIN + name, *flags]
        out = [bench]
        json = next((a[len("--json="):] for a in flags
                     if a.startswith("--json=")), None)
        base = self.against or f"$R/tools/baselines/{name}_quick.json"
        if self.twice:
            again = json.replace(".json", ".again.json")
            out.append([f"--json={again}" if a == f"--json={json}" else a
                        for a in bench])
            out.append(["diff", json, again])
        if self.sha256:
            out.append(["sha256sum", "-c",
                        f"$R/tools/baselines/{self.sha256}"])
        if json:
            out.append(tool("validate_bench_json", json))
        for files in self.perfetto:
            out.append(tool("validate_perfetto", *files))
        if self.exact:
            out.append(tool("baseline_exact", json, base, *self.exact))
        if self.compare is not None:
            flags = [f"--threshold={self.compare:.2f}"]
            if self.metrics:
                flags.append(f"--metrics={self.metrics}")
            out.append(tool("bench_compare", base, json, *flags))
        return out


FP = ("fingerprint",)
FLEET = ("fingerprint", "fleet_trace", "fleet.trace*")

GROUPS = {
    # --- build-test job: every figure and experiment bench writes
    # valid JSON; the row driver's rows are pinned bit for bit.
    "figures": [
        # bench_phase_breakdown runs in "forensics", pinned and compared.
        Run("bench_fig5_locality --quick --json=fig5.json"),
        Run("bench_fig4a_nginx --quick --json=fig4a.json"),
    ],
    "experiments": [
        Run("bench_fig4b_haproxy --quick --json=fig4b_haproxy.json"),
        Run("bench_table1_locks --quick --json=table1_locks.json", exact=FP),
        Run("bench_longlived --quick --json=longlived.json"),
        Run("bench_ablation_acceptmutex --quick"
            " --json=ablation_acceptmutex.json"),
        Run("bench_ablation_atr --quick --json=ablation_atr.json"),
        Run("bench_ablation_backlog --quick --json=ablation_backlog.json",
            exact=FP),
        Run("bench_ablation_ehash --quick --json=ablation_ehash.json"),
        Run("bench_ablation_numa --quick --json=ablation_numa.json"),
        Run("bench_ablation_slowpath --quick --json=ablation_slowpath.json",
            exact=FP),
    ],
    # --- smoke job. Fingerprints and trace blocks are simulated and
    # host-independent, so they match exactly; compare thresholds
    # absorb host noise in wall-clock and rate metrics.
    "sim-core": [
        # The hard 3x ladder-vs-heap floor is gated inside the bench;
        # shared-runner wall clocks are noisy, so the compare only
        # catches large structural regressions.
        Run("bench_sim_core --quick --json=simcore.json", compare=0.40,
            metrics="events_per_sec,wall_per_sim_sec"),
    ],
    "correctness": [
        Run("fuzz_scenarios --runs=25 --seed=1"),
        Run("bench_fig3_production --quick --json=fig3.json --fingerprint",
            twice=True, exact=FP),
    ],
    "resilience": [
        Run("bench_resilience --quick --json=resilience.json", exact=FP),
        # An armed fault plan replays the same drops on the same seed.
        Run("bench_resilience --quick"
            " --faults='loss_burst@0.04-0.08:rate=0.3;seed=9'"
            " --json=armed.json", twice=True),
    ],
    "overload": [
        Run("bench_overload --quick --json=overload.json", exact=FP),
        Run("bench_overload --quick --json=fp.json --fingerprint",
            twice=True),
    ],
    "million-conn": [
        # bytes_per_conn gates lower-is-better: per-TCB bloat fails
        # even when throughput holds.
        Run("bench_million_conn --quick --json=mc.json", exact=FP,
            compare=0.30),
        Run("bench_million_conn --quick --json=fp.json --fingerprint",
            twice=True),
    ],
    "fleet": [
        # request_success_ratio gates higher-is-better and
        # flows_active_peak lower-is-better.
        Run("bench_fleet_resilience --quick --json=fl.json", exact=FLEET,
            compare=0.30),
        Run("bench_fleet_resilience --quick --json=fp.json --fingerprint",
            twice=True),
    ],
    "chaos": [
        # The incident funnel gates higher-is-better, mttd/mttr
        # lower-is-better: a slower detector fails even when the run
        # passes its own gates.
        Run("bench_chaos --quick --json=chaos.json", exact=FLEET,
            compare=0.30),
        Run("bench_chaos --quick --json=fp.json --fingerprint", twice=True),
    ],
    "fleet-trace": [
        # ts-: reads the final sample of a series, lower-is-better.
        Run("bench_fleet_trace --quick --json=ft.json --metrics=met.prom"
            " --perfetto=ft.pftrace",
            sha256="fleet_trace_quick.sha256",
            perfetto=[("ft.steady-fastsocket.pftrace",
                       "ft.failover-churn-base-2-6-32.pftrace")],
            exact=("fleet_trace", "fleet.trace*"), compare=0.30,
            metrics="request_success_ratio,slo_first_fast_alert_ms,"
                    "ts-:m0.time_wait"),
        # --forensics also prints the fleet trace report (stdout only).
        Run("bench_fleet_trace --quick --json=fp.json --fingerprint"
            " --forensics", twice=True),
        # Recording off must not move a single fingerprint bit.
        Run("bench_fleet_trace --quick --notrace --fingerprint"
            " --json=notrace.json", exact=FP, against="fp.json"),
    ],
    "forensics": [
        # RSS mis-steers backend responses, so its trace must show
        # cross-core flows; RFD rows must have none (the validator
        # checks that on every file).
        Run("bench_fig5_locality --quick --forensics --json=fig5.json"
            " --perfetto=fig5_trace.json",
            sha256="fig5_trace_quick.sha256",
            perfetto=[("fig5_trace.rss.json", "--require-flows"),
                      ("fig5_trace.rfd-rss.json", "fig5_trace.fdir-atr.json",
                       "fig5_trace.rfd-fdir-atr.json",
                       "fig5_trace.rfd-fdir-perfect.json")]),
        Run("bench_phase_breakdown --quick --json=phase.json",
            exact=("phases", "folded_stacks", "latency_stages",
                   "fingerprint"), compare=0.30),
    ],
    # bench/e2e is a project of its own (run.py builds it the same way);
    # its smoke test runs every workload on tiny windows.
    "e2e": [
        "cmake -S $R/bench/e2e -B $R/build-e2e -G Ninja"
        " -DCMAKE_BUILD_TYPE=Release",
        "cmake --build $R/build-e2e --target bench_e2e",
        "ctest --test-dir $R/build-e2e -R bench_e2e_smoke --output-on-failure",
    ],
}


def commands(group):
    out = []
    for item in GROUPS[group]:
        is_run = isinstance(item, Run)
        out += item.commands() if is_run else [shlex.split(item)]
    return out


def build_command(groups):
    """Build the bench binaries the groups run, or None if they run none."""
    targets = sorted({a[len(BIN):] for g in groups for cmd in commands(g)
                      for a in cmd if a.startswith(BIN)})
    if not targets:
        return None
    return ["cmake", "--build", "$R/build", "--target", *targets]


def show(cmd):
    return " ".join("$R" + shlex.quote(a[2:]) if a.startswith("$R/")
                    else shlex.quote(a) for a in cmd)


def workdir(group):
    return f"$R/build/smoke/{group}"


def print_script(groups):
    print("# The CI bench smoke; run from the repository root. Each group")
    print("# runs in an emptied build/smoke/<group>.")
    print("R=$PWD")
    build = build_command(groups)
    if build:
        print(show(build))
    for g in groups:
        d = show([workdir(g)])
        print(f"\n# {g}\nrm -rf {d} && mkdir -p {d} && cd {d}")
        for cmd in commands(g):
            print(show(cmd))


def execute(cmd, cwd):
    """Run @p cmd in @p cwd; print its verdict, and its output if it
    failed. Returns the verdict line on failure, else None."""
    argv = [a.replace("$R", str(ROOT)) for a in cmd]
    try:
        proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        rc, output = proc.returncode, proc.stdout
    except OSError as e:
        rc, output = 127, f"{e}\n"
    if rc == 0:
        print(f"PASS  {show(cmd)}", flush=True)
        return None
    line = f"FAIL  {show(cmd)}  (exit {rc})"
    print(line)
    sys.stdout.writelines(f"    | {l}\n" for l in output.splitlines())
    sys.stdout.flush()
    return line


def run(groups):
    build = build_command(groups)
    if build and execute(build, ROOT):
        return 1    # a check run on a stale binary would prove nothing
    failed, total = [], 0
    for g in groups:
        cwd = Path(workdir(g).replace("$R", str(ROOT)))
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        for cmd in commands(g):
            total += 1
            verdict = execute(cmd, cwd)
            if verdict:
                failed.append(f"{g}: {verdict}")
    print(f"\nsmoke {' '.join(groups)}: {total} commands, "
          f"{len(failed)} failed")
    for line in failed:
        print(f"  {line}")
    return 1 if failed else 0


def main(argv):
    listing = argv[:1] == ["--list"]
    groups = argv[1:] if listing else argv
    unknown = [g for g in groups if g not in GROUPS]
    if unknown or not (groups or listing):
        print(__doc__.split("\n\n")[-1], file=sys.stderr)
        print("groups: " + " ".join(GROUPS), file=sys.stderr)
        if unknown:
            print("unknown group: " + " ".join(unknown), file=sys.stderr)
        return 2
    if listing:
        print_script(groups or list(GROUPS))
        return 0
    return run(groups)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
