#!/usr/bin/env python3
"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py BEFORE.json AFTER.json [--why "reason"]

Prints every deterministic counter that changed, by name, then each metric
side by side.  Exits 1 when a counter changed and no ``--why`` explains it,
and 2 when the files come from different workloads or seeds.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--why", default=None, help="reason that accepts changed counters")
    args = ap.parse_args(argv)
    a, b = _load(args.before), _load(args.after)

    pa, pb = a["provenance"], b["provenance"]
    for key in ("workload", "seed", "trace"):
        if pa[key] != pb[key]:
            print(f"not comparable: {key} {pa[key]!r} vs {pb[key]!r}")
            return 2
    print(f"{pa['workload']} seed {pa['seed']}: {pa.get('git_revision') or pa['src_sha256'][:12]}"
          f" -> {pb.get('git_revision') or pb['src_sha256'][:12]}")

    ca, cb = a["counters"], b["counters"]
    changed = 0
    for name in sorted(set(ca) | set(cb)):
        if ca.get(name) != cb.get(name):
            changed += 1
            print(f"counter changed: {name}: {ca.get(name, 'absent')} -> {cb.get(name, 'absent')}")
    print(f"{changed} of {len(set(ca) | set(cb))} counters changed")

    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        ma, mb = a["metrics"].get(name), b["metrics"].get(name)
        if ma is None or mb is None:
            print(f"{name:<44} only in {'after' if ma is None else 'before'}")
            continue
        va, vb = ma["value"], mb["value"]
        rel = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"{name:<44} {va:>14.6g} -> {vb:<14.6g} {ma['unit']:<6} {rel}")

    for side, res in (("before", a), ("after", b)):
        if not res["correct"]:
            print(f"{side}: {res['failed']} of {res['attempted']} operations failed")
    if changed and not args.why:
        print("counters changed without --why")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
