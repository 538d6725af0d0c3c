"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are JSON-lines files written by ``run.py --out`` (or
directories of them).  For every (workload, end-to-end metric) it prints
both sides' median and quartiles over their untraced runs and a verdict
from the metric's bound in BENCHMARK.json:

    better      the change wins at least 9 of 10 pairs (runs with the same
                seed; ten pairs at least) and its median is better by more
                than the base's spread (distance between its quartiles)
    worse       the change's median is worse than the base's by more than
                the bound
    no worse    neither
    unresolved  either side's spread (q3 - q1 over the median) exceeds the
                bound; then only "every run of one side beats every run of
                the other" gives better or worse

It then prints the gates (failed operations, the largest tolerance use) and,
when traced runs are present, the per-layer medians side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, quartiles


def load(path):
    """All records of a file, or of every *.jsonl file under a directory."""
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    out = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                out.append(json.loads(line))
    return out


def verdict(a, b, bound, better_is_lower=True):
    """Verdict for one metric; a and b map seed -> value for the base's and
    the change's untraced runs (runs with the same seed form a pair)."""
    sign = 1 if better_is_lower else -1
    xa, xb = list(a.values()), list(b.values())
    qa, qb = quartiles(xa), quartiles(xb)
    ma, mb = qa[1], qb[1]
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else float("inf") for q in (qa, qb))
    if spread > bound:
        if all(sign * y < sign * x for x in xa for y in xb):
            return "better"
        if all(sign * y > sign * x for x in xa for y in xb):
            return "worse"
        return "unresolved"
    if sign * (mb - ma) > bound * abs(ma):
        return "worse"
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(sign * y < sign * x for x, y in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (ma - mb) > qa[2] - qa[0]:
        return "better"
    return "no worse"


def per_seed(records, metric):
    """seed -> median value of ``metric`` over the records of that seed."""
    vals = {}
    for r in records:
        vals.setdefault(r["detail"]["seed"], []).append(r["result"]["metrics"][metric]["value"])
    return {seed: statistics.median(v) for seed, v in vals.items()}


def by_workload(records, traced):
    out = {}
    for r in records:
        if r["detail"]["trace"] == traced:
            out.setdefault(r["detail"]["workload"], []).append(r)
    return out


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    a = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load(a.base), load(a.change)

    print("%-16s %-12s %-30s %-30s %8s  %s" % ("workload", "metric", "base median [q1, q3]",
                                                  "change median [q1, q3]", "change", "verdict"))
    ub, uc = by_workload(base, 0), by_workload(change, 0)
    for wl in sorted(set(ub) & set(uc)):
        for m in bench["end_to_end"]:
            a, b = per_seed(ub[wl], m["name"]), per_seed(uc[wl], m["name"])
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            rel = (qb[1] / qa[1] - 1) * 100 if qa[1] else float("nan")
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            print("%-16s %-12s %-30s %-30s %+7.1f%%  %s (bound %g, n=%d/%d)"
                  % (wl, m["name"], fmt(qa), fmt(qb), rel, v, m["bound"], len(a), len(b)))

    print("\ngates (all runs)")
    for wl in sorted({r["detail"]["workload"] for r in base + change}):
        cells = []
        for side in (base, change):
            rs = [r for r in side if r["detail"]["workload"] == wl]
            failed = sum(r["detail"]["failed"] for r in rs)
            attempted = sum(r["detail"]["attempted"] for r in rs)
            uses = [r["detail"]["tol_use_max"] for r in rs if r["detail"]["tol_use_max"] is not None]
            cells.append("failed %d/%d, tol_use_max %s" % (failed, attempted, "%.3g" % max(uses) if uses else "-"))
        print("%-16s base: %-40s change: %s" % (wl, cells[0], cells[1]))

    tb, tc = by_workload(base, 1), by_workload(change, 1)
    if set(tb) & set(tc):
        print("\nper-layer medians (traced runs)")
        for wl in sorted(set(tb) & set(tc)):
            for m in bench["per_layer"]:
                xa = [r["result"]["metrics"][m["name"]]["value"] for r in tb[wl]]
                xb = [r["result"]["metrics"][m["name"]]["value"] for r in tc[wl]]
                ma, mb = statistics.median(xa), statistics.median(xb)
                if ma or mb:
                    print("%-16s %-38s %12.6g %12.6g %s" % (wl, m["name"], ma, mb, m["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
