#!/usr/bin/env python3
"""Line coverage of src/ under tier-1 and the bench smoke.

Builds the tree with -O0 --coverage in build-cov/, zeroes the counters,
runs ctest and every tools/smoke.py group except e2e against that
build, then prints a per-file markdown table of the src/ lines nothing
executed. The smoke groups' exit codes are ignored: a red gate is the
smoke job's verdict, and here a failing command still counts its lines.

Counting: gcov runs once per .gcda, with -o naming that .gcda's object
directory (gcov cannot find the notes file otherwise). A header line
appears in every translation unit that includes it, so a line's count
is its largest count across all of them; a line is unexecuted when no
unit ran it. A function's first line counts as run when the function
ran, which gcov does not always record on the line itself.

Usage: coverage.py                    build, run, report
       coverage.py --report           report the counters already in
                                      build-cov/ (no build, no run)
       coverage.py --check            also fail when a gated file (the
                                      model directories, fleet/ and
                                      overload/) has more unexecuted
                                      lines than tools/baselines/
                                      coverage_model.json records
       coverage.py --update-baseline  rewrite that baseline from this run
The flags combine; --report --check gates the last run's counters.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import smoke  # noqa: E402

ROOT = smoke.ROOT
BUILD = ROOT / "build-cov"
BASELINE = ROOT / "tools" / "baselines" / "coverage_model.json"

MODEL_DIRS = ("app", "conn", "cpu", "epollsim", "fastsocket", "kernel",
              "net", "sync", "tcp", "timerwheel", "vfs")
GATED_DIRS = MODEL_DIRS + ("fleet", "overload")
JOBS = 4


def gated(path):
    parts = Path(path).parts
    return len(parts) > 2 and parts[0] == "src" and parts[1] in GATED_DIRS


def sh(argv, **kw):
    print("+ " + " ".join(str(a) for a in argv), flush=True)
    return subprocess.run([str(a) for a in argv], **kw).returncode


def build():
    rc = sh(["cmake", "-S", ROOT, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS=-O0 --coverage",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"])
    return rc or sh(["cmake", "--build", BUILD, "-j", str(JOBS)])


def run_suite():
    """ctest, then the smoke groups on this build; exit codes ignored."""
    for gcda in BUILD.rglob("*.gcda"):
        gcda.unlink()
    sh(["ctest", "--test-dir", BUILD, "-j", str(JOBS)],
       stdout=subprocess.DEVNULL)
    cov_bin = f"$R/{BUILD.name}/"
    for group in smoke.GROUPS:
        if group == "e2e":
            continue
        cwd = BUILD / "smoke" / group
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        for cmd in smoke.commands(group):
            smoke.execute([a.replace("$R/build/", cov_bin) for a in cmd],
                          cwd)


def gcov_lines(gcda):
    """{source path: {line: count}} for one .gcda."""
    proc = subprocess.run(["gcov", "--json-format", "--stdout",
                           "-o", str(gcda.parent), str(gcda)],
                          cwd=gcda.parent, capture_output=True, text=True)
    out = {}
    for doc in proc.stdout.splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = os.path.normpath(os.path.join(gcda.parent, f["file"]))
            lines = out.setdefault(path, {})
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[n] = max(lines.get(n, 0), ln["count"])
            # A function that ran executed its first line, even where
            # gcov gives that line 0 (an empty lambda body).
            for fn in f["functions"]:
                n = fn["start_line"]
                if n in lines:
                    lines[n] = max(lines[n], fn["execution_count"])
    return out


def collect():
    """{repo-relative src/ path: {line: largest count}} over all units."""
    merged = {}
    src = str(ROOT / "src") + os.sep
    with ThreadPoolExecutor(JOBS) as pool:
        for per_unit in pool.map(gcov_lines, sorted(BUILD.rglob("*.gcda"))):
            for path, lines in per_unit.items():
                if not path.startswith(src):
                    continue
                into = merged.setdefault(
                    os.path.relpath(path, ROOT), {})
                for n, c in lines.items():
                    into[n] = max(into.get(n, 0), c)
    return merged


def ranges(nums):
    out, start = [], None
    for i, n in enumerate(nums):
        if start is None:
            start = n
        if i + 1 == len(nums) or nums[i + 1] != n + 1:
            out.append(f"{start}" if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


def report(merged):
    """Print the table; return {path: unexecuted count}."""
    missed = {p: sorted(n for n, c in lines.items() if c == 0)
              for p, lines in merged.items()}
    print("\n| file | lines | unexecuted | executed |")
    print("|---|---:|---:|---:|")
    total = unrun = 0
    groups = {"model": [0, 0], "fleet": [0, 0], "overload": [0, 0]}
    for p in sorted(merged):
        n, m = len(merged[p]), len(missed[p])
        total += n
        unrun += m
        d = Path(p).parts[1]
        key = "model" if d in MODEL_DIRS else d
        if key in groups:
            groups[key][0] += n
            groups[key][1] += m
        if m:
            print(f"| `{p}` | {n} | {m} | {100.0 * (n - m) / n:.1f}% |")
    for key, (n, m) in [*groups.items(), ("all of src/", (total, unrun))]:
        print(f"| **{key}** | {n} | {m} |"
              f" {100.0 * (n - m) / max(n, 1):.1f}% |")
    print("\nUnexecuted lines in gated files:")
    for p in sorted(missed):
        if gated(p) and missed[p]:
            print(f"  {p}: {ranges(missed[p])}")
    return {p: len(v) for p, v in missed.items() if gated(p)}


def check(counts):
    base = json.loads(BASELINE.read_text())
    worse = [(p, n, base.get(p, 0)) for p, n in sorted(counts.items())
             if n > base.get(p, 0)]
    for p, n, b in worse:
        print(f"FAIL  {p}: {n} unexecuted lines, baseline {b}")
    if worse:
        print("Reach each new line with a test or delete it; see the"
              " EXPERIMENTS.md coverage map.")
        return 1
    print(f"coverage: no gated file has more unexecuted lines than"
          f" {BASELINE.relative_to(ROOT)}")
    return 0


def main(argv):
    flags = set(argv)
    known = {"--report", "--check", "--update-baseline"}
    if flags - known:
        print(__doc__.split("\n\n")[-1], file=sys.stderr)
        return 2
    start = time.monotonic()
    if "--report" not in flags:
        if build():
            return 1
        run_suite()
    counts = report(collect())
    print(f"\ncoverage: {time.monotonic() - start:.0f} s wall")
    if "--update-baseline" in flags:
        BASELINE.write_text(json.dumps(
            {p: n for p, n in sorted(counts.items()) if n}, indent=2) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
    return check(counts) if "--check" in flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
