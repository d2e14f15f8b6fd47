#!/usr/bin/env python3
"""The host sampler attributes every sample of a real run to one owner.

Runs tools/host_profile.py on <binary> [args...] (about a second of
CPU) and requires samples, one share per owner in the tool's owner
table, and shares that sum to 100%.

Usage: test_host_profile.py <host_profile.py> <binary> [args...]
"""

import json
import os
import subprocess
import sys
import tempfile


def main():
    tool, cmd = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.dirname(os.path.abspath(tool)))
    import host_profile  # noqa: E402
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "split.json")
        proc = subprocess.run([sys.executable, tool, "--usec=500",
                               f"--json={out}"] + cmd,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"FAIL: exit status {proc.returncode}, want 0")
            return 1
        with open(out) as f:
            split = json.load(f)
    failures = []
    if split["samples"] <= 0:
        failures.append("no samples")
    if list(split["shares"]) != host_profile.ORDER:
        failures.append(f"owners {list(split['shares'])}, "
                        f"want {host_profile.ORDER}")
    total = sum(split["shares"].values())
    if abs(total - 1.0) > 1e-9:
        failures.append(f"shares sum to {100 * total:.6f}%")
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print(f"ok: {split['samples']} samples, shares sum to 100%")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
