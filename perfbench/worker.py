"""One pass of an in-process workload (exact-sweep or numeric-oracles).

    python3 perfbench/worker.py --workload exact-sweep --seed 7 [--size tiny] [--trace 1]

Each pass runs in a fresh interpreter, so a cache inside the package is
warm only for reuse within the pass.  The worker builds the seeded inputs,
times every operation, checks every result and prints one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

perf = time.perf_counter

# How much of each input family one pass holds.
SIZES = {
    "full": {
        "catalog_n": 10, "div0_n": 10, "divpos_n": 6, "ident_n": 6,
        "high_states": 3, "high_tags": 12, "moments": 60,
        "families": True,
        "cli_queries": 6, "imports": 3, "importtime_runs": 3,
    },
    "tiny": {
        "catalog_n": 2, "div0_n": 2, "divpos_n": 2, "ident_n": 2,
        "high_states": 1, "high_tags": 3, "moments": 4,
        "families": False,
        "cli_queries": 2, "imports": 1, "importtime_runs": 1,
    },
}

POLE_EPS = (0.02, 0.01, 0.005)  # each half the one before


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def exact_core(size: dict, exp: dict):
    """The seed-independent part of exact-sweep, by digest group, in
    canonical order: (group, key, op) triples."""
    out = []
    for tag, min_l in sorted(exp["catalog"].items()):
        for n in range(1, size["catalog_n"] + 1):
            for l in range(min_l, n):
                out.append(("catalog", "cat|%s|%d|%d" % (tag, n, l), ("catalog", tag, n, l)))
    for tag in exp["divergent_tags"]:
        for n in range(1, size["div0_n"] + 1):
            out.append(("divergent", "div|%s|%d|0" % (tag, n), ("divergent", tag, n, 0)))
        for n in range(2, size["divpos_n"] + 1):
            for l in range(1, n):
                out.append(("divergent", "div|%s|%d|%d" % (tag, n, l), ("divergent", tag, n, l)))
    for n in range(1, size["ident_n"] + 1):
        for l in range(n):
            out.append(("identity", "ident|%d|%d" % (n, l), ("identity", n, l)))
    return out


def exact_plan(seed: int, size: dict, exp: dict):
    """Core plus seeded high-n states and moment specs, shuffled by seed.
    Returns (ops, expected pool hashes by key)."""
    rng = random.Random("exact-sweep:%d" % seed)
    ops = [(key, op) for _, key, op in exact_core(size, exp)]
    pool_hash = {}
    for entry in rng.sample(exp["pools"]["high_n"], size["high_states"]):
        n, l = entry["n"], entry["l"]
        for tag in rng.sample(sorted(entry["hashes"]), size["high_tags"]):
            key = "cat|%s|%d|%d" % (tag, n, l)
            ops.append((key, ("catalog", tag, n, l)))
            pool_hash[key] = entry["hashes"][tag]
    for spec in rng.sample(exp["pools"]["moments"], size["moments"]):
        key = "mom|" + "|".join(str(x) for x in spec[:-1])
        ops.append((key, ("moment",) + tuple(spec[:-1])))
        pool_hash[key] = spec[-1]
    rng.shuffle(ops)
    return ops, pool_hash


def numeric_plan(seed: int, size: dict):
    """Seeded shoots and oracle calls; no (state, eps, mu) point repeats.

    Each family has a fixed state and a fixed place in the pass, because the
    cost of a shoot depends strongly on (n, l) and the first call of a pass
    also pays the package's lazy imports; the seed draws eps and mu, which
    move the points but little of the cost:

    - n(0) = n at (1, 0);
    - the V3 and (V')2 pole fit at (1, 0) at eps = (4, 2, 1) x 0.005 x a
      seeded scale in [0.8, 1.2]; its three shoots also give two
      energy-order ratios, each at (eps, eps/2);
    - the energy order at (3, 2) with -0.05 <= eps <= -0.046, where nbar
      lies beyond n + 1/2, so the shoot at eps finds no sign change in the
      primary window and takes the second bracket centre (at eps > 0 the
      path, and the cost, switch at eps ~ 0.047);
    - the <ln q> quadrature oracle at n = 1.
    """
    rng = random.Random("numeric-oracles:%d" % seed)

    def mu():
        return round(rng.uniform(0.5, 2.0), 6)

    plan = [("nbar0", (1, 0), mu())]
    if size["families"]:
        scale = rng.uniform(0.8, 1.2)
        plan.append(("pole", (1, 0), tuple(round(e * scale, 6) for e in POLE_EPS), mu()))
        plan.append(("order", (3, 2), round(-rng.uniform(0.046, 0.05), 6), mu()))
        plan.append(("lnq", 1))
    return plan


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def moment_closed(integral, s, logpow, n, k, p, n2, k2):
    """The closed form (I, J, K, L or M from ``integral``) of one MomentSpec."""
    if n2 is not None:
        if logpow == 0:
            return integral["K"](s, n, k, n2, k2, p=p)
        if logpow == 1:
            return integral["L"](s, n, k, n2, k2, p=p)
        return integral["M"](s, n, k, n2, k2)
    if logpow == 0:
        return integral["I"](s, n, k, p=p)
    if logpow == 1:
        # ^pJ routes through L with the trivial right factor L_0^0 = 1
        return integral["J"](s, n, k) if p == 0 else integral["L"](s, n, k, 0, 0, p=p)
    return integral["M"](s, n, k, 0, 0)


class Pass:
    """Times operations, probes the host's speed between them, and records
    failures, tolerance use and values."""

    def __init__(self):
        self.speed = Speed()
        self.latencies = []
        self.failed = 0
        self.failures = []
        self.layer_failed = {}
        self.tol_use = {}
        self.reprs = []

    def fail(self, layer: str, label: str):
        self.failed += 1
        self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1
        if len(self.failures) < 10:
            self.failures.append(label)

    def run(self, label: str, layer: str, fn):
        """One operation: fn() returns (ok, repr or None)."""
        self.speed.tick()
        t0 = perf()
        try:
            ok, text = fn()
        except Exception as exc:  # a raising operation is a failed one
            ok, text = False, None
            label = "%s: %s: %s" % (label, type(exc).__name__, exc)
        self.latencies.append(perf() - t0)
        if text is not None:
            self.reprs.append("%s\t%s" % (label, text))
        if not ok:
            self.fail(layer, label)
        return text

    def check(self, name: str, use: float) -> bool:
        """Record observed/allowed for one acceptance check; pass iff < 1."""
        use = float(use)
        if not math.isfinite(use):
            use = math.inf
        self.tol_use[name] = max(self.tol_use.get(name, 0.0), use)
        return use < 1.0


def run_exact(plan, pool_hash, size_name, exp, T: Tracer, P: Pass):
    from fractions import Fraction

    from coulombev import coulomb as cb
    from coulombev import dimreg as dr
    from coulombev import lagint as li

    closed = T.wrap("coulomb.expectation_closed", cb.expectation_closed)
    oracle = T.wrap("coulomb.expectation_oracle", cb.expectation_oracle)
    divergent = T.wrap("dimreg.divergent_expectation", dr.divergent_expectation)
    identity = T.wrap("dimreg.identity_residuals", dr.identity_residuals)
    brute = T.wrap("lagint.brute_force_moment", li.brute_force_moment)
    integral = {c: T.wrap("lagint.closed", getattr(li, "integral_" + c)) for c in "IJKLM"}

    def op_fn(op):
        kind = op[0]
        if kind == "catalog":
            _, tag, n, l = op
            st = cb.QuantumState(n, l)
            c = closed(tag, st)
            o = oracle(tag, st)
            return c == o, repr(c)
        if kind == "moment":
            s, logpow, n, k, p, n2, k2 = op[1:]
            right = (n2, k2) if n2 is not None else None
            c = moment_closed(integral, s, logpow, n, k, p, n2, k2)
            b = brute(li.MomentSpec(Fraction(s), logpow, (n, k, p), right))
            return c == b, repr(c)
        if kind == "divergent":
            _, tag, n, l = op
            return True, repr(divergent(tag, n, l))
        _, n, l = op
        res = identity(n, l)
        ok = all(r.is_zero() if l == 0 else not r for _, r in res)
        return ok, repr(res)

    layer_of = {"catalog": "coulomb", "moment": "lagint", "divergent": "dimreg", "identity": "dimreg"}
    values = {}
    seen = set()
    revisits = with_state = 0
    for key, op in plan:
        if op[0] != "moment":
            state = op[-2:]
            with_state += 1
            revisits += state in seen
            seen.add(state)

        def checked():
            # a seeded value must also match its recorded hash
            ok, text = op_fn(op)
            return ok and (key not in pool_hash or short_hash(text) == pool_hash[key]), text

        values[key] = P.run(key, layer_of[op[0]], checked)

    # digest gate over the seed-independent core, one operation per group
    groups = {}
    for group, key, _ in exact_core(SIZES[size_name], exp):
        groups.setdefault(group, []).append("%s\t%s" % (key, values.get(key)))
    core = {group: digest(lines) for group, lines in groups.items()}
    expected = exp.get("digests", {}).get(size_name, {})
    for group in sorted(core):
        ok = core[group] == expected.get(group)
        P.run("digest|" + group, layer_of[group], lambda: (ok, None))
    return {"state_revisit_share": revisits / with_state if with_state else 0.0, "core_digests": core}


def run_numeric(plan, exp, T: Tracer, P: Pass):
    import numpy as np

    from coulombev import brackets as br
    from coulombev import coulomb as cb
    from coulombev import dimreg as dr
    from coulombev.exactnum import LNQN

    tol = exp["tolerances"]
    shoot = T.wrap("dimreg.eigenvalue_shoot", dr.eigenvalue_shoot)
    v3 = T.wrap("dimreg.brace_numeric", dr.v3_brace_numeric)
    vp2 = T.wrap("dimreg.brace_numeric", dr.vp2_brace_numeric)
    divergent = T.wrap("dimreg.divergent_expectation", dr.divergent_expectation)
    lnq_oracle = T.wrap("brackets.bracket_lnq_oracle", br.bracket_lnq_oracle)

    points = []
    states = []

    def do_shoot(n, l, e, mu):
        points.append((n, l, e, mu))
        states.append((n, l))
        return shoot(cb.QuantumState(n, l), e, mu=mu)

    def energy_dev(eig, n, l, e, mu):
        return abs(eig.ebar - dr.energy_series_numeric(cb.QuantumState(n, l), e, mu=mu)) * 2.0 * n * n

    def order_ok(d1, d2):
        """The error must drop by the bound's ratio when eps halves."""
        ratio = d1 / d2
        return P.check("energy_order", tol["energy_order_min_ratio"] / ratio if ratio > 0 else math.inf)

    for item in plan:
        kind = item[0]
        if kind == "nbar0":
            (n, l), mu = item[1], item[2]
            label = "nbar0|%d|%d|%r" % (n, l, mu)

            def op():
                eig = do_shoot(n, l, 0.0, mu)
                return P.check("nbar0", abs(eig.nbar - n) / tol["nbar0_abs"]), None

            P.run(label, "dimreg", op)
        elif kind == "order":
            # one operation per shoot; the second (at eps/2) checks the order
            (n, l), e, mu = item[1], item[2], item[3]
            label = "order|%d|%d|%r|%r" % (n, l, e, mu)
            devs = []
            for i, x in enumerate((e, e / 2)):

                def op():
                    devs.append(energy_dev(do_shoot(n, l, x, mu), n, l, x, mu))
                    return i == 0 or order_ok(devs[0], devs[1]), None

                P.run("%s|eps %r" % (label, x), "dimreg", op)
        elif kind == "pole":
            # one operation per eps: the shoot and both numeric braces of it;
            # each shoot after the first also checks the energy order against
            # the previous (twice as large) eps, and the last one fits
            # c_-1/eps + c_0 to each brace and checks c_-1 against the exact pole
            (n, l), eps_list, mu = item[1], item[2], item[3]
            label = "pole|%d|%r|%r" % (n, eps_list, mu)
            devs, vals = [], {"V3": [], "(V')2": []}
            for i, e in enumerate(eps_list):

                def op():
                    eig = do_shoot(n, l, e, mu)
                    devs.append(energy_dev(eig, n, l, e, mu))
                    vals["V3"].append(v3(eig))
                    vals["(V')2"].append(vp2(eig))
                    ok = i == 0 or order_ok(devs[-2], devs[-1])
                    if i == len(eps_list) - 1:
                        A = np.array([[1.0 / x, 1.0] for x in eps_list])
                        for tag, ys in vals.items():
                            coef = np.linalg.lstsq(A, np.array(ys), rcond=None)[0]
                            pole = float(divergent(tag, n, 0).pole().numeric())
                            ok &= P.check("pole_fit", abs(coef[0] / pole - 1) / tol["pole_fit_rel"])
                    return ok, None

                P.run("%s|eps %r" % (label, e), "dimreg", op)
        elif kind == "lnq":
            n = item[1]

            def op():
                closed = br.bracket_lnq(cb.QuantumState(n, 0))
                val_closed = closed.sym.numeric({LNQN: math.log(2.0 / n)}) / math.pi
                rel = abs(val_closed / lnq_oracle(n) - 1)
                return P.check("lnq", rel / tol["lnq_rel"]), None

            P.run("lnq|%d" % n, "brackets", op)
    distinct_states = len(set(states))
    distinct_points = len(set(points))
    return {
        "state_revisit_share": 1 - distinct_states / len(states) if states else 0.0,
        "point_revisit_share": 1 - distinct_points / len(points) if points else 0.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("exact-sweep", "numeric-oracles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--expected", default=str(HERE / "expected.json"))
    a = ap.parse_args(argv)
    exp = json.loads(Path(a.expected).read_text())
    size = SIZES[a.size]

    T = Tracer(bool(a.trace))
    if a.trace:
        from coulombev.exactnum import EpsSeries

        T.count_calls(EpsSeries, "mul", "exactnum.EpsSeries.mul.calls")
        T.count_calls(EpsSeries, "invert", "exactnum.EpsSeries.invert.calls")
    P = Pass()
    if a.workload == "exact-sweep":
        plan, pool_hash = exact_plan(a.seed, size, exp)
        t0 = perf()
        props = run_exact(plan, pool_hash, a.size, exp, T, P)
    else:
        plan = numeric_plan(a.seed, size)
        t0 = perf()
        props = run_numeric(plan, exp, T, P)
    P.speed.tick(force=True)
    out = {
        "wall_s": perf() - t0 - P.speed.spent_s,
        "speed_factor": P.speed.factor(),
        "latencies": P.latencies,
        "attempted": len(P.latencies),
        "failed": P.failed,
        "failures": P.failures,
        "layer_failed": P.layer_failed,
        "tol_use": P.tol_use,
        "digest": digest(P.reprs),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": T.summary() if a.trace else None,
    }
    out.update(props)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
