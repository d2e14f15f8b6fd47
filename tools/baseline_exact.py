#!/usr/bin/env python3
"""Require a bench --json export to equal a committed baseline exactly.

Simulated outputs (fingerprints, phase attribution, span forensics,
fleet trace stitching) are deterministic and host-independent, so the
blocks named on the command line must match the baseline bit for bit,
not just within bench_compare.py's threshold.

Usage: baseline_exact.py <candidate.json> <baseline.json> KEY [KEY ...]

Rows are matched by label, and both documents must hold the same
labels. KEY names a row key ("fingerprint", "phases") or a dotted path
into a block ("fleet.request_success_ratio"). A '*' in the last part
of a path matches every key of that block on either side
("fleet.trace*"); a KEY without '*' must be in every baseline row.

Exit status: 0 = every KEY matches on every row, 1 = at least one
difference (one line each), 2 = usage or IO error.
"""

import fnmatch
import json
import sys

MISSING = object()


def rows_by_label(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        doc = e
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        reason = doc if isinstance(doc, Exception) else "no rows list"
        print(f"baseline_exact.py: {path}: {reason}", file=sys.stderr)
        sys.exit(2)
    return {r.get("label"): r for r in doc["rows"]}


def block(row, parts):
    for p in parts:
        row = row.get(p, MISSING) if isinstance(row, dict) else MISSING
    return row if isinstance(row, dict) else {}


def compare_row(label, got, want, key):
    """Difference lines for one KEY on one row."""
    *parents, last = key.split(".")
    g, w = block(got, parents), block(want, parents)
    if "*" in last:
        names = sorted({k for k in list(g) + list(w)
                        if fnmatch.fnmatchcase(k, last)})
    else:
        if last not in w:
            return [f"{label}: baseline lacks {key}"]
        names = [last]
    path = ".".join(parents + [""])
    bad = []
    for name in names:
        gv, wv = g.get(name, MISSING), w.get(name, MISSING)
        if gv == wv:
            continue
        line = f"{label}: {path}{name} differs"
        if not any(isinstance(v, (dict, list)) for v in (gv, wv)):
            line += f": got {show(gv)}, baseline {show(wv)}"
        bad.append(line)
    return bad


def show(v):
    return "absent" if v is MISSING else json.dumps(v)


def main(argv):
    if len(argv) < 4:
        print("usage: baseline_exact.py <candidate.json> <baseline.json> "
              "KEY [KEY ...]", file=sys.stderr)
        return 2
    got, want = rows_by_label(argv[1]), rows_by_label(argv[2])
    keys = argv[3:]
    bad = []
    if sorted(got, key=str) != sorted(want, key=str):
        bad.append(f"row labels differ: {sorted(got, key=str)} vs "
                   f"baseline {sorted(want, key=str)}")
    for label in sorted(set(got) & set(want), key=str):
        for key in keys:
            bad += compare_row(label, got[label], want[label], key)
    if bad:
        print("\n".join(bad))
        return 1
    print(f"{len(got)} rows match on {', '.join(keys)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
