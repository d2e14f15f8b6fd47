#!/usr/bin/env python3
"""A program's stdout matches a committed file byte for byte.

Runs <binary> [args...], requires exit status 0 and stdout identical
to <expected-file>; on a mismatch prints a unified diff. Pins text
whose every figure is part of the contract (the differential oracle's
drain ticks, lock-wait ticks and check counts).

Usage: test_stdout_pin.py <expected-file> <binary> [args...]
"""

import difflib
import subprocess
import sys


def main():
    expected_path, cmd = sys.argv[1], sys.argv[2:]
    with open(expected_path, encoding="utf-8") as f:
        expected = f.read()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    ok = True
    if proc.returncode != 0:
        print(f"FAIL: exit status {proc.returncode}, want 0\n{proc.stderr}")
        ok = False
    if proc.stdout != expected:
        print(f"FAIL: stdout differs from {expected_path}")
        sys.stdout.writelines(difflib.unified_diff(
            expected.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            expected_path, "stdout"))
        ok = False
    if ok:
        print(f"ok: {len(expected)} bytes match {expected_path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
