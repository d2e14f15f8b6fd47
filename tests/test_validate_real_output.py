#!/usr/bin/env python3
"""Run quick benches with --json and validate what they really emit.

Usage: test_validate_real_output.py <validate_bench_json.py> <bench>...

Each bench binary runs with --quick --json=<tmp file>; the validator
must accept every document. The documents together must also show
every optional block of the validator's SCHEMA table both present (on
some row) and absent (on another), so the presence rule is exercised
on real exporter output, not only on hand-written fixtures.
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip())
        return 2
    validator, benches = argv[1], argv[2:]
    spec = importlib.util.spec_from_file_location("validator", validator)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    optional = [n for n, b in mod.SCHEMA.items() if not b.always]

    with tempfile.TemporaryDirectory() as d:
        paths = []
        for bench in benches:
            path = os.path.join(d, os.path.basename(bench) + ".json")
            subprocess.run([bench, "--quick", f"--json={path}"],
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            if not os.path.exists(path):
                print(f"FAIL {bench} wrote no JSON")
                return 1
            paths.append(path)
        if subprocess.run([sys.executable, validator, *paths]).returncode:
            return 1
        rows = [r for p in paths for r in json.load(open(p))["rows"]]

    ok = True
    for name in optional:
        present = sum(name in r for r in rows)
        if present == 0 or present == len(rows):
            print(f"FAIL optional block '{name}' on {present} of "
                  f"{len(rows)} rows: need both present and absent")
            ok = False
    if ok:
        print(f"{len(rows)} rows: every optional block {optional} seen "
              f"both present and absent")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
