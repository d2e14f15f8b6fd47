#!/usr/bin/env python3
"""Malformed bench flag values exit 2 before any simulation runs.

Each case runs one bench with one bad value and requires exit status 2
within a few seconds. A bench that parses a number prefix ("4x" as 4),
reads garbage as 0, or ignores an unknown --app instead runs (and
passes) on a value the caller never asked for.

Usage: test_bench_bad_flags.py <diff_oracle> <fuzz_scenarios>
                               <bench_million_conn>
"""

import subprocess
import sys

TIMEOUT_S = 10


def cases(oracle, fuzz, million):
    return [
        (oracle, "--app=ngnix"),
        (oracle, "--cores=abc"),
        (oracle, "--cores=4x"),
        (oracle, "--cores=0"),
        (oracle, "--conns=1e3"),
        (oracle, "--conns=-5"),
        (oracle, "--seed=abc"),
        (fuzz, "--runs=abc"),
        (fuzz, "--runs=-1"),
        (fuzz, "--seed=12abc"),
        (million, "--target=10k"),
        (million, "--seed=abc"),
    ]


def main():
    bad = 0
    for binary, flag in cases(*sys.argv[1:4]):
        name = f"{binary.rsplit('/', 1)[-1]} {flag}"
        try:
            proc = subprocess.run([binary, flag], capture_output=True,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"FAIL: {name} still running after {TIMEOUT_S} s")
            bad += 1
            continue
        if proc.returncode != 2:
            print(f"FAIL: {name} exited {proc.returncode}, expected 2")
            bad += 1
        elif not proc.stderr.strip():
            print(f"FAIL: {name} exited 2 without saying why")
            bad += 1
    if bad:
        return 1
    print("ok: every malformed flag value exits 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
