"""The coulombev benchmark: one seeded workload, measured and checked.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
ones with ``--trace 1``).  The line before it is the run's detail record:
provenance, workload properties, quartiles and gate results.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import Speed  # noqa: E402
from tracing import percentile  # noqa: E402
from worker import SIZES, short_hash, digest  # noqa: E402

perf = time.perf_counter
WORKLOADS = ("exact-sweep", "cli-queries", "numeric-oracles")
CHILD_TIMEOUT = 150.0
RUN_CAP_S = 150.0  # never start work that would end a run after this
LAYERS = ("coulomb", "lagint", "dimreg", "brackets", "cli")
CLI_KINDS = ("tags", "eval", "eval_bracket", "table", "demo_cx1")
IMPORT_PROBE = "import time; t = time.perf_counter(); import coulombev; print(time.perf_counter() - t)"


class Child:
    """A finished subprocess: exit code, stdout, stderr, wall time, peak RSS."""

    def __init__(self, argv, timeout=CHILD_TIMEOUT):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        t0 = perf()
        p = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        watchdog = threading.Timer(timeout, p.kill)
        watchdog.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
        self.wall_s = perf() - t0
        watchdog.cancel()
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        p.stderr.close()
        self.out = out.decode("utf-8", "replace")
        self.err = err[0].decode("utf-8", "replace")
        self.rss_mb = usage.ru_maxrss / 1024.0


def provenance():
    def git(*a):
        try:
            r = subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.SubprocessError):
            return None
        return r.stdout.strip() if r.returncode == 0 else None

    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "versions": versions,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def quartiles(xs):
    """(q1, median, q3) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def worker_pass(a, traced):
    """One fresh-process pass of exact-sweep or numeric-oracles."""
    child = Child([sys.executable, str(HERE / "worker.py"), "--workload", a.workload, "--seed", str(a.seed),
                   "--size", a.size, "--trace", str(int(traced)), "--expected", a.expected])
    try:
        res = json.loads(child.out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        tail = (child.err.strip().splitlines() or ["no output"])[-1]
        return {"wall_s": child.wall_s, "speed_factor": 1.0, "latencies": [], "attempted": 1, "failed": 1,
                "failures": ["worker exit %d: %s" % (child.code, tail)], "layer_failed": {},
                "tol_use": {}, "rss_mb": child.rss_mb, "trace": None}
    if child.code != 0:
        res["failed"] += 1
        res["attempted"] += 1
        res["failures"].append("worker exit %d" % child.code)
    return res


def cli_round(a, exp, rng, seen, speed):
    """One round of cli-queries: one query of each class (tags, eval of a
    finite tag, eval of a divergent tag, eval --bracket, table, demo-cx1),
    in seeded order, each a fresh ``python -m coulombev.cli`` process.  The
    host's speed is probed between queries, into ``speed``."""
    pool = exp["pools"]["cli"]
    picks = [rng.choice([q for q in pool if q["class"] == c]) for c in sorted({q["class"] for q in pool})]
    rng.shuffle(picks)
    picks = picks[:SIZES[a.size]["cli_queries"]]
    res = {"latencies": [], "attempted": 0, "failed": 0, "failures": [], "layer_failed": {}, "tol_use": {},
           "rss": [], "by_kind": {}, "outs": [], "revisits": 0, "with_state": 0}
    t0 = perf()
    spent0 = speed.spent_s
    for q in picks:
        speed.tick()
        child = Child([sys.executable, "-m", "coulombev.cli", *q["argv"]])
        res["latencies"].append(child.wall_s)
        res["by_kind"].setdefault(q["kind"], []).append(child.wall_s)
        res["rss"].append(child.rss_mb)
        res["attempted"] += 1
        res["outs"].append(child.out)
        if q.get("state"):
            st = tuple(q["state"])
            res["with_state"] += 1
            res["revisits"] += st in seen
            seen.add(st)
        problem = None
        if child.code != 0:
            problem = "exit %d: %s" % (child.code, (child.err.strip().splitlines() or [""])[-1])
        elif short_hash(child.out) != q["sha"]:
            problem = "stdout digest mismatch"
        if problem:
            res["failed"] += 1
            res["layer_failed"]["cli"] = res["layer_failed"].get("cli", 0) + 1
            if len(res["failures"]) < 10:
                res["failures"].append("%s: %s" % (" ".join(q["argv"]), problem))
    res["wall_s"] = perf() - t0 - (speed.spent_s - spent0)
    res["rss_mb"] = statistics.median(res.pop("rss"))
    res["digest"] = digest(short_hash(o) for o in res.pop("outs"))
    return res


def import_times(k):
    """Import time of ``coulombev`` in k fresh interpreters."""
    out = []
    for _ in range(k):
        child = Child([sys.executable, "-c", IMPORT_PROBE])
        if child.code != 0:
            raise SystemExit("import coulombev failed: %s" % child.err.strip()[-500:])
        out.append(float(child.out.strip()))
    return out


def import_breakdown(k):
    """Median self time (s) of scipy.*, numpy.* and coulombev.* modules in
    ``python -X importtime -c 'import coulombev'``."""
    sums = {"scipy": [], "numpy": [], "coulombev": []}
    for _ in range(k):
        child = Child([sys.executable, "-X", "importtime", "-c", "import coulombev"])
        tot = dict.fromkeys(sums, 0.0)
        for line in child.err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in tot and self_us.strip().isdigit():
                tot[top] += int(self_us) / 1e6
        for key in sums:
            sums[key].append(tot[key])
    return {key: statistics.median(v) for key, v in sums.items()}


def scale_times(res):
    """Scale a pass's times by its speed factor (speed.py), in place; keep
    the raw wall time as ``wall_raw_s``."""
    f = res["speed_factor"]
    res["wall_raw_s"] = res["wall_s"]
    res["wall_s"] *= f
    res["latencies"] = [x * f for x in res["latencies"]]
    res["by_kind"] = {kind: [x * f for x in xs] for kind, xs in res.get("by_kind", {}).items()}
    if res.get("trace"):
        res["trace"]["overhead_s"] *= f
        for span in res["trace"]["spans"].values():
            span["busy_s"] *= f
            span["p50_ms"] *= f


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(a, bench, exp):
    t_run = perf()
    prov = provenance()
    size = SIZES[a.size]
    setup = [] if a.trace else import_times(size["imports"])
    breakdown = import_breakdown(size["importtime_runs"]) if a.trace else None
    rng = random.Random("cli-queries:%d" % a.seed)
    seen = set()
    # a traced run traces every pass of the in-process workloads; the CLI
    # processes of cli-queries are timed from outside and never traced
    traced = bool(a.trace) and a.workload != "cli-queries"
    passes = []
    # cli-queries probes the host's speed in this process, between its
    # queries, and scales every round by one factor for the run; a worker
    # pass probes in the worker and brings its own factor
    speed = Speed()
    # at least two whole passes (a median needs two samples), then more
    # while the next one, as long as the longest so far, would end the run
    # inside --seconds
    while True:
        t_pass = perf()
        res = cli_round(a, exp, rng, seen, speed) if a.workload == "cli-queries" else worker_pass(a, traced)
        res["pass_s"] = perf() - t_pass
        passes.append(res)
        if len(passes) >= 2 and perf() - t_run + max(r["pass_s"] for r in passes) > min(a.seconds, RUN_CAP_S):
            break
    for res in passes:
        if a.workload == "cli-queries":
            res["speed_factor"] = speed.factor()
        scale_times(res)

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    # end-to-end metrics are reported by untraced runs only; the detail
    # record of a traced run keeps the traced passes' times, marked as such
    lat = [x for r in passes for x in r["latencies"]] or [0.0]
    walls = [r["wall_s"] for r in passes]
    tol_use = {}
    for r in passes:
        for k, v in r["tol_use"].items():
            tol_use[k] = max(tol_use.get(k, 0.0), v)
    layer_failed = {layer: sum(r["layer_failed"].get(layer, 0) for r in passes) for layer in LAYERS}
    revisit = {}
    if a.workload == "cli-queries":
        with_state = sum(r["with_state"] for r in passes)
        revisit["state_revisit_share"] = sum(r["revisits"] for r in passes) / with_state if with_state else 0.0
    else:
        for key in ("state_revisit_share", "point_revisit_share"):
            if key in passes[0]:
                revisit[key] = statistics.median(r[key] for r in passes if key in r)

    if not a.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * percentile(lat, 50),
            "op_p90_ms": 1e3 * percentile(lat, 90),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
        }
    else:
        metrics = layer_metrics(passes, breakdown)
        # estimated cost of the tracer's wrappers (tracing.Tracer.overhead_s);
        # nothing is traced on cli-queries, so there it is 0
        metrics["trace.overhead_s"] = (statistics.median(r["trace"]["overhead_s"] for r in passes if r.get("trace"))
                                       if traced else 0.0)
        for layer in LAYERS:
            metrics[layer + ".failed"] = layer_failed[layer]

    detail = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "size": a.size,
        "trace": a.trace,
        "passes_traced": traced,
        "provenance": prov,
        "passes": len(passes),
        "ops_per_pass": [r["attempted"] for r in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": [f for r in passes for f in r["failures"]][:20],
        "layer_failed": layer_failed,
        "tol_use_max": max(tol_use.values()) if tol_use else None,
        "tol_use": tol_use,
        "digests": sorted({r.get("digest") for r in passes if r.get("digest")}),
        "samples": {"setup_s": setup, "wall_s": walls, "op_latency": len(lat)},
        "raw_wall_s": [r.get("wall_raw_s", r["wall_s"]) for r in passes],
        "speed_factor": [r.get("speed_factor", 1.0) for r in passes],
        "quartiles": {
            "setup_s": quartiles(setup) if setup else None,
            "wall_s": quartiles(walls),
            "op_ms": [1e3 * percentile(lat, q) for q in (25, 50, 75, 90)],
        },
        "run_s": perf() - t_run,
    }
    detail.update(revisit)
    names = [m["name"] for m in bench["per_layer" if a.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
    missing = [n for n in names if n not in metrics]
    if missing:
        raise SystemExit("benchmark bug: metrics not produced: %s" % ", ".join(missing))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    return detail, result


def layer_metrics(passes, breakdown):
    """Per-layer metrics of one traced run; zero for layers the workload
    does not reach."""
    out = {}
    spans = [r["trace"]["spans"] for r in passes if r.get("trace")]
    counts = [r["trace"]["counts"] for r in passes if r.get("trace")]
    for name in ("coulomb.expectation_oracle", "coulomb.expectation_closed", "lagint.closed",
                 "lagint.brute_force_moment", "dimreg.divergent_expectation", "dimreg.identity_residuals",
                 "dimreg.eigenvalue_shoot", "dimreg.brace_numeric", "brackets.bracket_lnq_oracle"):
        per = [s[name] for s in spans if name in s]
        out[name + ".calls"] = per[0]["calls"] if per else 0  # identical in every traced pass
        out[name + ".busy_s"] = statistics.median(p["busy_s"] for p in per) if per else 0.0
        out[name + ".p50_ms"] = statistics.median(p["p50_ms"] for p in per) if per else 0.0
    for name in ("exactnum.EpsSeries.mul.calls", "exactnum.EpsSeries.invert.calls"):
        out[name] = counts[0].get(name, 0) if counts else 0
    by_kind = {}
    for r in passes:
        for kind, xs in r.get("by_kind", {}).items():
            by_kind.setdefault(kind, []).extend(xs)
    for kind in CLI_KINDS:
        out["cli.%s.p50_ms" % kind] = 1e3 * percentile(by_kind[kind], 50) if kind in by_kind else 0.0
    out["import.scipy_s"] = breakdown["scipy"]
    out["import.numpy_s"] = breakdown["numpy"]
    out["import.coulombev_self_s"] = breakdown["coulombev"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SIZES),
                    help="input size; 'tiny' is for the benchmark's own tests")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="recorded digests, pools and tolerances")
    ap.add_argument("--out", help="also append the detail record and result to this JSON-lines file")
    a = ap.parse_args(argv)
    if not (ROOT / "src" / "coulombev" / "__init__.py").is_file():
        print("error: no coulombev source under %s; run from a source checkout" % (ROOT / "src"), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    exp = json.loads(Path(a.expected).read_text())
    detail, result = run(a, bench, exp)
    if a.out:
        with open(a.out, "a") as fh:
            fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
