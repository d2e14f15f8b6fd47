#!/usr/bin/env python3
"""The smoke manifest (tools/smoke.py) names only things that exist.

Checks, without running any bench:
  - smoke.py --list exits 0, and an unknown group exits 2;
  - every committed file a command reads ($R/tools/..., the baselines,
    sha256 lists and checker scripts) exists;
  - every bench binary a command runs ($R/build/bench/...) exists in
    the build tree given on the command line;
  - ci.yml runs every group exactly once, and no group that is not in
    the manifest.

Usage: test_smoke_manifest.py <path-to-smoke.py> <build-dir>
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

FAILURES = []


def check(name, cond, detail=""):
    print(f"{'ok  ' if cond else 'FAIL'} {name} {'' if cond else detail}")
    if not cond:
        FAILURES.append(name)


def main():
    smoke_path, build = Path(sys.argv[1]), Path(sys.argv[2])
    spec = importlib.util.spec_from_file_location("smoke", smoke_path)
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)

    proc = subprocess.run([sys.executable, smoke_path, "--list"],
                          capture_output=True, text=True)
    check("--list exits 0", proc.returncode == 0, proc.stderr)
    proc = subprocess.run([sys.executable, smoke_path, "no-such-group"],
                          capture_output=True, text=True)
    check("an unknown group exits 2", proc.returncode == 2, proc.stderr)

    named, missing = 0, []
    for group in smoke.GROUPS:
        for cmd in smoke.commands(group):
            for arg in cmd:
                if arg.startswith(smoke.BIN):
                    path = build / "bench" / arg[len(smoke.BIN):]
                elif arg.startswith("$R/tools/"):
                    path = smoke.ROOT / arg[len("$R/"):]
                else:
                    continue
                named += 1
                if not path.exists():
                    missing.append(f"{group}: {path}")
    check(f"the {named} files and binaries named exist", not missing,
          "".join(f"\n  missing: {m}" for m in sorted(set(missing))))

    ci = (smoke.ROOT / ".github" / "workflows" / "ci.yml").read_text()
    ran = [g for line in re.findall(
               r"^\s*run: python3 tools/smoke\.py ([\w -]+)$", ci, re.M)
           for g in line.split()]
    check("ci.yml runs every group once",
          sorted(ran) == sorted(smoke.GROUPS),
          f"ci.yml runs {sorted(ran)}, manifest has {sorted(smoke.GROUPS)}")

    if FAILURES:
        print(f"{len(FAILURES)} failure(s)")
        return 1
    print("smoke manifest: every named file and binary exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
