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
        (million, "--faults=syn_flood@0-1:rate=100,size=100"),
        (million, "--overload=cap=1.7"),
        (million, "--overload=frob=1"),
    ]


# Flags whose error line (the stderr line naming the bad token) must also
# list these words: the parser's own list of what is valid, not a copy
# kept in the bench.
ERROR_LINE_MUST_NAME = {
    "--overload=frob=1": ("frob", ["budget", "deadline_us", "deadline_ms",
                                   "brownout_divisor", "health_bytes",
                                   "low"]),
}


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
        elif flag in ERROR_LINE_MUST_NAME:
            token, words = ERROR_LINE_MUST_NAME[flag]
            lines = [ln for ln in proc.stderr.splitlines() if token in ln]
            if not any(all(w in ln for w in words) for ln in lines):
                print(f"FAIL: {name}: no stderr line names '{token}' and "
                      f"all of {words}: {proc.stderr.strip()}")
                bad += 1
    if bad:
        return 1
    print("ok: every malformed flag value exits 2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
