"""Write perfbench/expected.json: the benchmark's fixed yardstick.

    python3 perfbench/record.py

It records the catalog and divergent tag lists the workloads sweep, the
input pools the seeds draw from, the digest of every exact value and CLI
stdout the workloads check against, and the acceptance tolerances.  Every
pool item is checked against its independent oracle before it is recorded.

Record once, at the commit that defines the benchmark.  Later changes must
reproduce these digests symbol for symbol; re-recording is only for a change
that deliberately alters an output, and must say so.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import Tracer  # noqa: E402
from worker import SIZES, Pass, exact_core, moment_closed, run_exact, short_hash  # noqa: E402

from coulombev import brackets as br  # noqa: E402
from coulombev import cli  # noqa: E402
from coulombev import coulomb as cb  # noqa: E402
from coulombev import dimreg as dr  # noqa: E402
from coulombev import lagint as li  # noqa: E402

# Bounds of the acceptance criteria the numeric workload checks.
TOLERANCES = {
    "nbar0_abs": 1e-10,  # |nbar(0) - n|
    "energy_order_min_ratio": 3.6,  # error ratio under eps halving
    "pole_fit_rel": 0.01,  # fitted 1/eps coefficient against the exact pole
    "lnq_rel": 1e-8,  # <ln q> closed form against quadrature
}


def high_n_pool(rng):
    """One state per n in 15..30, with a random l, and the hash of every
    catalog value there; closed == oracle is checked for each."""
    pool = []
    for n in range(15, 31):
        l = rng.randrange(n)
        st = cb.QuantumState(n, l)
        hashes = {}
        for tag in cb.catalog_tags():
            if l < cb.CATALOG[tag].min_l:
                continue
            c = cb.expectation_closed(tag, st)
            if c != cb.expectation_oracle(tag, st):
                raise SystemExit("closed != oracle for %s at (%d, %d)" % (tag, n, l))
            hashes[tag] = short_hash(repr(c))
        pool.append({"n": n, "l": l, "hashes": hashes})
    return pool


def moment_pool(rng, count=300):
    """MomentSpec draws as in the lagint suite, checked against the
    brute-force oracle: [s, logpow, n, k, p, n2, k2, hash]."""
    integral = {c: getattr(li, "integral_" + c) for c in "IJKLM"}
    out, keys = [], set()
    while len(out) < count:
        n, k = rng.randint(0, 8), rng.randint(0, 6)
        p = rng.choice([0, 0, 0, 1, 1, 2])
        logpow = rng.choice([0, 0, 1, 1, 2])
        bilin = rng.random() < 0.6
        n2, k2 = rng.randint(0, 8), rng.randint(0, 6)
        s = rng.randint(-p, 6)
        if s + p <= -1 or (logpow == 2 and (p != 0 or s < 0)):
            continue
        spec = [s, logpow, n, k, p, n2 if bilin else None, k2 if bilin else None]
        if tuple(spec) in keys:
            continue
        keys.add(tuple(spec))
        closed = moment_closed(integral, *spec)
        brute = li.brute_force_moment(li.MomentSpec(Fraction(s), logpow, (n, k, p), (n2, k2) if bilin else None))
        if closed != brute:
            raise SystemExit("closed != brute force for %r" % spec)
        out.append(spec + [short_hash(repr(closed))])
    return out


def cli_run(argv):
    """(exit code, stdout) of one CLI query, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_pool(rng):
    """Exact-only CLI queries by class, with the hash of their stdout."""
    tags = cb.catalog_tags()
    pool = [{"class": "tags", "kind": "tags", "argv": ["tags"], "state": None}]

    def state(nmax, lmin=0):
        n = rng.randint(max(1, lmin + 1), nmax)
        return n, rng.randint(lmin, n - 1)

    def fmt():
        return ["--format", "json"] if rng.random() < 0.3 else []

    for _ in range(40):
        tag = rng.choice(tags)
        n, l = state(8, cb.CATALOG[tag].min_l)
        pool.append({"class": "eval-finite", "kind": "eval", "state": [n, l],
                     "argv": ["eval", "--n", str(n), "--l", str(l), "--op", tag] + fmt()})
    for _ in range(30):
        tag = rng.choice(dr.divergent_tags())
        n, l = state(5) if rng.random() < 0.5 else (rng.randint(1, 5), 0)
        pool.append({"class": "eval-divergent", "kind": "eval", "state": [n, l],
                     "argv": ["eval", "--n", str(n), "--l", str(l), "--op", tag] + fmt()})
    for _ in range(30):
        tag = rng.choice(br.bracket_tags())
        n, l = state(5)
        pool.append({"class": "eval_bracket", "kind": "eval_bracket", "state": [n, l],
                     "argv": ["eval", "--n", str(n), "--l", str(l), "--bracket", tag] + fmt()})
    for _ in range(20):
        ops = rng.sample(tags + dr.divergent_tags(), rng.randint(1, 4))
        lo = rng.randint(1, 4)
        hi = lo + rng.randint(0, 2)
        pool.append({"class": "table", "kind": "table", "state": None,
                     "argv": ["table", "--ops", ",".join(ops), "--n-range", "%d:%d" % (lo, hi),
                              "--format", rng.choice(["csv", "json"])]})
    for _ in range(20):
        n, l = state(4)
        c1, c2 = (str(Fraction(rng.randint(1, 9), rng.choice([64, 128, 256]))) for _ in range(2))
        m1, m2 = (str(rng.randint(1, 4)) for _ in range(2))
        pool.append({"class": "demo_cx1", "kind": "demo_cx1", "state": [n, l],
                     "argv": ["demo-cx1", "--n", str(n), "--l", str(l), "--c1", c1, "--c2", c2,
                              "--m1", m1, "--m2", m2]})
    kept = []
    for q in pool:
        code, out = cli_run(q["argv"])
        if code == 0:  # a query the CLI rejects is not part of the workload
            kept.append(dict(q, sha=short_hash(out)))
    return kept


def main():
    rng = random.Random("perfbench-pools-v1")
    exp = {
        "tolerances": TOLERANCES,
        "catalog": {tag: cb.CATALOG[tag].min_l for tag in cb.catalog_tags()},
        "divergent_tags": dr.divergent_tags(),
        "pools": {"high_n": high_n_pool(rng), "moments": moment_pool(rng), "cli": cli_pool(rng)},
    }
    exp["digests"] = {}
    for name, size in sorted(SIZES.items()):
        plan = [(key, op) for _, key, op in exact_core(size, exp)]
        P = Pass()
        props = run_exact(plan, {}, name, exp, Tracer(False), P)
        bad = [f for f in P.failures if not f.startswith("digest|")]
        if bad:
            raise SystemExit("exact core failed its oracles: %s" % bad)
        exp["digests"][name] = props["core_digests"]
    (HERE / "expected.json").write_text(json.dumps(exp, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % (HERE / "expected.json"))


if __name__ == "__main__":
    main()
