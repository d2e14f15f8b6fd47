#!/usr/bin/env python3
"""Host-time owner split of one simulator run, from SIGPROF samples.

Compiles tools/host_profile_sampler.c into a preload library, runs
BINARY ARGS... under it, symbolises every sampled leaf PC with
`addr2line -f -C -i` and prints the share of samples per owner: the
subsystem that spends the host time (DES core, check, wire, kernel,
tables, client, app, trace, balancer, harness, other). The harness
owner holds the bench's own work, such as bench_e2e's host-speed probe,
which is not simulator time. The bench's own stdout
goes to stderr, so stdout is the owner table alone.

An owner is found by walking a PC's inline chain from the innermost
frame outward and taking the first function that OWNERS names; generic
containers and std:: code have no owner, so their time goes to the
caller they were inlined into. Build with -g (for example
`cmake -B build-g -S . -DCMAKE_CXX_FLAGS=-g`) so addr2line sees the
inline chain; without it every PC is charged to its out-of-line
function.

Usage: host_profile.py [--usec=N] [--json=PATH] BINARY ARGS...
  --usec=N     sampling period in microseconds of CPU time (1000;
               the kernel rounds it up to its timer tick)
  --json=PATH  also write {"samples": N, "shares": {owner: share}}
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

SAMPLER = Path(__file__).resolve().parent / "host_profile_sampler.c"

# Owner -> the fsim classes it owns: one prefix table, matched against
# the "fsim::Class" that begins a function's qualified name.
OWNERS = [
    ("DES core", ["EventQueue", "InlineFn", "NodeSlab"]),
    ("check", ["Fingerprint", "InvariantRegistry", "Scenario",
               "DifferentialOutcome"]),
    ("wire", ["Wire"]),
    ("tables", ["EstablishedTable", "ListenTable", "PortAllocator",
                "LocalEstablishedTable", "LocalListenTable",
                "ReceiveFlowDeliver", "TimeWaitTable", "TcbArena",
                "FdTable"]),
    ("kernel", ["KernelStack", "TimerBase", "TimerWheel", "VfsLayer",
                "EventPoll", "CpuModel", "Core", "CacheModel", "Nic",
                "SimSpinLock", "LockRegistry", "Socket",
                "AdmissionController"]),
    ("client", ["HttpLoad", "SynFlood"]),
    ("app", ["AppBase", "WebServer", "Proxy", "BackendPool", "Machine"]),
    ("trace", ["Tracer", "StageScope", "ConnSpan", "ConnSpanLog",
               "FleetTraceLog", "FleetTrace", "PhaseAccounting",
               "MetricsRegistry", "MetricSeries", "DepthSeries",
               "SloTracker", "IncidentLog"]),
    ("balancer", ["L4Balancer", "FleetTestbed", "HealthScorer"]),
    ("harness", ["Testbed", "HostProbe", "SpanLog", "BenchJsonReport",
                 "JsonWriter"]),
]
ORDER = [name for name, _ in OWNERS] + ["other"]

_CLASS = re.compile(r"fsim::(?:\(anonymous namespace\)::)?(\w+)")
_OWNER_OF = {cls: name for name, classes in OWNERS for cls in classes}


def owner_of_frame(function):
    """Owner of one demangled function name, or None (no owner).

    The qualified name is the first token with a "::" once template
    arguments are dropped: a template's return type comes before it.
    """
    bare, depth = [], 0
    for ch in function:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(depth - 1, 0)
        elif depth == 0:
            bare.append(ch)
    for token in "".join(bare).split():
        if "::" in token:
            m = _CLASS.match(token)
            return _OWNER_OF.get(m.group(1)) if m else None
    return None


def owner_of_chain(chain):
    """Owner of an inline chain, innermost frame first."""
    for function in chain:
        owner = owner_of_frame(function)
        if owner:
            return owner
    # Out-of-line template code (std::sort, FlatMap::find, ...): the
    # first owned class among its template arguments.
    for function in chain:
        for cls in _CLASS.findall(function):
            if cls in _OWNER_OF:
                return _OWNER_OF[cls]
    return "other"


def elf_is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and header[16] == 3   # e_type ET_DYN


def symbolise(path, addrs):
    """addr -> inline chain (innermost first) for one object file."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
        input="\n".join(hex(a) for a in addrs), check=True,
        capture_output=True, text=True).stdout.splitlines()
    chains, cur, i = {}, None, 0
    while i < len(out):
        if out[i].startswith("0x"):
            cur = int(out[i], 16)
            chains[cur] = []
            i += 1
        else:
            chains[cur].append(out[i])
            i += 2   # the function line, then its file:line
    return chains


def asan_runtime(binary):
    """Path of the ASan runtime BINARY links dynamically, or None.

    GCC links libasan as a shared library, and ASan aborts at startup
    unless its runtime is the first library loaded; a preloaded sampler
    would come before it, so the runtime is preloaded ahead of it.
    """
    try:
        out = subprocess.run(["ldd", binary], capture_output=True,
                             text=True).stdout
    except FileNotFoundError:
        return None
    m = re.search(r"^\s*libasan\S*\s+=>\s+(\S+)", out, re.M)
    return m.group(1) if m else None


def owner_split(samples, binary):
    """(pc, load base, object path) samples -> Counter of owners."""
    by_object = {}
    for pc, base, obj in samples:
        obj = binary if obj == "-" else obj
        if os.path.isfile(obj) and elf_is_pie(obj):
            pc -= base
        by_object.setdefault(obj, []).append(pc)
    counts = Counter()
    for obj, addrs in by_object.items():
        chains = symbolise(obj, set(addrs)) if os.path.isfile(obj) else {}
        for a in addrs:
            counts[owner_of_chain(chains.get(a, []))] += 1
    return counts


def main(argv):
    usec, json_path = 1000, None
    while argv and argv[0].startswith("--"):
        flag = argv.pop(0)
        if flag.startswith("--usec="):
            usec = int(flag[len("--usec="):])
        elif flag.startswith("--json="):
            json_path = flag[len("--json="):]
        else:
            print(f"unknown flag {flag}", file=sys.stderr)
            return 2
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    binary = os.path.realpath(argv[0])
    with tempfile.TemporaryDirectory(prefix="host_profile.") as tmp:
        lib = os.path.join(tmp, "sampler.so")
        raw = os.path.join(tmp, "samples.txt")
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", lib,
                        str(SAMPLER), "-ldl"], check=True)
        preload = [p for p in (asan_runtime(binary), lib) if p]
        env = dict(os.environ, LD_PRELOAD=":".join(preload),
                   HOST_PROFILE_OUT=raw,
                   HOST_PROFILE_USEC=str(usec))
        rc = subprocess.run([binary] + argv[1:], env=env,
                            stdout=sys.stderr).returncode
        if rc != 0:
            print(f"{argv[0]} exited {rc}", file=sys.stderr)
            return 1
        samples = []
        with open(raw) as f:
            for line in f:
                pc, base, obj = line.rstrip("\n").split(" ", 2)
                samples.append((int(pc, 16), int(base, 16), obj))
    counts = owner_split(samples, binary)
    total = sum(counts.values())
    if total == 0:
        print("no samples (run too short?)", file=sys.stderr)
        return 1
    shares = {o: counts[o] / total for o in ORDER}
    print(f"{'owner':<10} {'share':>7} {'samples':>8}")
    for o in ORDER:
        print(f"{o:<10} {100 * shares[o]:6.1f}% {counts[o]:8d}")
    print(f"{'total':<10} {100.0:6.1f}% {total:8d}")
    if json_path:
        with open(json_path, "w") as f:
            json.dump({"samples": total, "shares": shares}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
