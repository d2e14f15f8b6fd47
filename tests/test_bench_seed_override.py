#!/usr/bin/env python3
"""--seed reaches every row of bench_resilience.

Runs `bench_resilience --quick --fingerprint` with and without --seed=7
and requires every row's fingerprint to differ. A row whose fingerprint
does not move ran on the default seed: the bench did not apply the
shared flags to it.

The fingerprints are read whatever the bench's exit status: a red
calibrated gate (the 90% recovery bound) does not make the rows'
seeds any less testable.

Usage: test_bench_seed_override.py <path-to-bench_resilience>
"""

import re
import subprocess
import sys

ROW = re.compile(r"^  (\S+)\s+(0x[0-9a-f]{16})  \[")


def fingerprints(bench, *extra):
    proc = subprocess.run([bench, "--quick", "--fingerprint", *extra],
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if "fingerprints:" not in lines:
        sys.exit(f"FAIL: no fingerprints section from {extra or 'default'}"
                 f" run (exit {proc.returncode})\n{proc.stderr}")
    rows = {}
    for line in lines[lines.index("fingerprints:") + 1:]:
        m = ROW.match(line)
        if not m:
            break
        rows[m.group(1)] = m.group(2)
    return rows


def main():
    bench = sys.argv[1]
    default = fingerprints(bench)
    seeded = fingerprints(bench, "--seed=7")
    if not default or sorted(default) != sorted(seeded):
        print(f"FAIL: row labels differ: {sorted(default)} vs "
              f"{sorted(seeded)}")
        return 1
    same = [label for label in default if default[label] == seeded[label]]
    for label in same:
        print(f"FAIL: {label} kept fingerprint {default[label]} under "
              f"--seed=7")
    if same:
        return 1
    print(f"ok: --seed=7 moved all {len(default)} row fingerprints")
    return 0


if __name__ == "__main__":
    sys.exit(main())
