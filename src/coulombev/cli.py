"""Command-line front end: evaluate catalog entries and brackets, sweep
tables, run the verification suites, drive the dimensional-regularization
solver, and reproduce the CX1 energy-shift example.

Each command imports the layers it uses when it runs: a finite `eval --op`
needs only `coulomb` and the modules under it, `--bracket` adds `brackets`,
a divergent tag and `demo-cx1` add `dimreg`, and `verify` and `tags` load
`suites`, so a cold query compiles and runs no module it does not use.
The exact path loads neither `dataclasses` nor `inspect` (the value classes
are plain `__slots__` classes), and `json` only when a command prints JSON.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numeric
convergence failure.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .exactnum import DivergenceError, DomainError, EpsSeries
from .coulomb import (
    CatalogError,
    PhysScale,
    QuantumState,
    RequiresDimregError,
    Value,
    catalog_tags,
    cx1_energy_shift,
    expectation_closed,
)


def _json_dump(obj) -> str:
    import json  # only the commands that print JSON load it

    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), ensure_ascii=True)


def _units_str(mr, za, pi) -> str:
    bits = []
    if mr:
        bits.append("m_r^%d" % mr if mr != 1 else "m_r")
    if za:
        bits.append("(Zalpha)^%d" % za if za != 1 else "Zalpha")
    if pi:
        bits.append("pi^%d" % pi if pi != 1 else "pi")
    return " ".join(bits) if bits else "1"


def _value_payload(v, phys, n):
    if isinstance(v, Value):
        out = {
            "symbolic": v.sym.as_dict(),
            "dimension": v.mr_pow,
            "units": _units_str(v.mr_pow, v.za_pow, v.pi_pow),
        }
        if phys is not None:
            out["numeric"] = v.numeric(phys, n)
        return out
    if isinstance(v, EpsSeries):
        return {"symbolic": v.as_dict(), "dimension": None, "units": "eps series"}
    # the other two kinds are told apart by their fields, so that the check
    # imports neither dimreg nor brackets
    if hasattr(v, "series"):  # dimreg.DivergentValue
        return {
            "symbolic": v.series.as_dict(),
            "dimension": v.total_mr_pow,
            "units": "pi phibar^2 mubar^2eps " + _units_str(v.mr_pow, v.za_pow, 0),
        }
    if hasattr(v, "formula"):  # brackets.BracketReduction
        return {
            "symbolic": {
                "formula": v.formula,
                "finite_extra": v.finite_extra.sym.as_dict(),
                "coefficient": str(v.coefficient),
            },
            "dimension": 5,
            "units": "(m_r Zalpha)^5/pi",
        }
    raise TypeError(type(v))


def _render(payload, fmt):
    if fmt == "json":
        print(_json_dump(payload))
    else:
        sym = payload.get("symbolic")
        print("value: %s" % sym)
        if "numeric" in payload:
            print("numeric: %.12g" % payload["numeric"])
        print("units: %s" % payload.get("units"))


def _phys_from(args):
    if any(x is not None for x in (args.mr, args.zalpha, args.mu, args.kappa)):
        return PhysScale(
            mr=args.mr if args.mr is not None else 1.0,
            zalpha=args.zalpha if args.zalpha is not None else 1.0,
            mu=args.mu if args.mu is not None else 1.0,
            kappa=args.kappa if args.kappa is not None else 1.0,
        )
    return None


def cmd_eval(args) -> int:
    if bool(args.op) == bool(args.bracket):
        raise DomainError("eval needs exactly one of --op and --bracket")
    st = QuantumState(args.n, args.l)
    phys = _phys_from(args)
    if args.op:
        try:
            v = expectation_closed(args.op, st)
        except CatalogError:
            from . import dimreg

            if args.op not in dimreg.divergent_tags():
                raise DomainError("unknown operator %r; see `coulombev tags`" % args.op) from None
            v = dimreg.divergent_expectation(args.op, st.n, st.l)
    else:
        from .brackets import bracket

        v = bracket(args.bracket, st)
    if phys is not None and not isinstance(v, Value):
        raise DomainError(
            "--mr/--zalpha/--mu/--kappa apply only to a finite value; %r at (n, l) = (%d, %d) is a %s"
            % (args.op or args.bracket, st.n, st.l, type(v).__name__)
        )
    payload = {"command": "eval", "inputs": {"n": st.n, "l": st.l, "op": args.op or args.bracket}}
    payload.update(_value_payload(v, phys, st.n))
    _render(payload, args.format)
    return 0


def cmd_table(args) -> int:
    ops = args.ops.split(",")
    unknown = [op for op in ops if op not in catalog_tags()]
    if unknown:
        from . import dimreg

        unknown = [op for op in unknown if op not in dimreg.divergent_tags()]
    if unknown:
        raise DomainError("unknown operator tag(s) %s; see `coulombev tags`" % ", ".join(map(repr, unknown)))
    try:
        lo, hi = (int(x) for x in args.n_range.split(":"))
    except ValueError:
        lo = hi = 0
    if not 1 <= lo <= hi:
        raise DomainError("--n-range must be lo:hi with 1 <= lo <= hi, got %r" % args.n_range)
    rows = []
    for n in range(lo, hi + 1):
        for l in range(n):
            row = {"n": n, "l": l}
            for op in ops:
                try:
                    row[op] = str(expectation_closed(op, QuantumState(n, l)).sym)
                except (RequiresDimregError, CatalogError):
                    row[op] = ""
            rows.append(row)
    if args.format == "csv":
        cols = ["n", "l"] + ops
        print(",".join(cols))
        for row in rows:
            print(",".join('"%s"' % row[c] if ("," in str(row[c])) else str(row[c]) for c in cols))
    else:
        print(_json_dump({"command": "table", "rows": rows}))
    return 0


def cmd_verify(args) -> int:
    from .suites import SUITES, run_suites

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names)
    failed = 0
    for res in results:
        status = "pass" if res.ok else "FAIL"
        print("suite %-16s %s  (%d passed, %d failed)" % (res.name, status, res.passed, res.failed))
        for f in res.failures:
            print("    failing: %s" % f)
        failed += res.failed
    return 0 if failed == 0 else 2


def cmd_dimreg(args) -> int:
    from . import shoot

    st = QuantumState(args.n, args.l)
    mu = args.mu if args.mu is not None else 1.0
    try:
        eig = shoot.eigenvalue_shoot(st, args.eps, mu=mu)
    except shoot.ShootingError as exc:
        print("shooting failed: %s" % exc, file=sys.stderr)
        return 3
    es = shoot.energy_series_numeric(st, args.eps, mu=mu)
    payload = {
        "command": "dimreg",
        "inputs": {"n": st.n, "l": st.l, "eps": args.eps, "mu": mu},
        "nbar": eig.nbar,
        "gammabar": eig.gammabar,
        "Ebar_shoot": eig.ebar,
        "Ebar_series": es,
        "difference": eig.ebar - es,
    }
    if args.format == "json":
        print(_json_dump(payload))
    else:
        print("nbar      = %.12f" % eig.nbar)
        print("gammabar  = %.12f" % eig.gammabar)
        print("Ebar (shooting)  = %.12f" % eig.ebar)
        print("Ebar (expansion) = %.12f" % es)
        print("difference       = %.3e  (O(eps^2))" % (eig.ebar - es))
    return 0


def _fraction(flag, text) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError("%s must be a fraction such as 5/128, got %r" % (flag, text)) from None


def cmd_demo_cx1(args) -> int:
    st = QuantumState(args.n, args.l)
    c1, c2, m1, m2 = (_fraction("--" + k, getattr(args, k)) for k in ("c1", "c2", "m1", "m2"))
    coef, val = cx1_energy_shift(st, c1, c2, m1, m2)
    print("Delta E_CX1 = -4 m_r (c1/m1^4 + c2/m2^4) <(V')^2>  at (n,l) = (%d,%d)" % (st.n, st.l))
    print("dimensionless prefactor -4[c1 (mr/m1)^4 + c2 (mr/m2)^4] = %s" % coef)
    if isinstance(val, Value):
        print("l > 0 branch (exact):")
    else:
        print("l = 0 branch (Laurent series in eps, standing prefactor pi phibar^2 mubar^2eps):")
    print("  %r" % val)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coulombev",
        description="Exact Coulomb bound-state expectation values in 3 and 3-2eps dimensions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one catalog entry or bracket")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--l", type=int, default=0)
    pe.add_argument("--op", help="operator tag (see `tags`)")
    pe.add_argument("--bracket", help="momentum-space bracket tag")
    pe.add_argument("--mr", type=float)
    pe.add_argument("--zalpha", type=float)
    pe.add_argument("--mu", type=float)
    pe.add_argument("--kappa", type=float)
    pe.add_argument("--format", choices=("json", "pretty"), default="pretty")
    pe.set_defaults(func=cmd_eval)

    pt = sub.add_parser("table", help="sweep catalog entries over an (n,l) grid")
    pt.add_argument("--ops", required=True, help="comma-separated operator tags")
    pt.add_argument("--n-range", default="1:4", help="lo:hi inclusive")
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="run named verification suites")
    pv.add_argument("--suite", default="all")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("dimreg", help="shoot the D-dimensional eigenvalue")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--l", type=int, default=0)
    pd.add_argument("--eps", type=float, required=True)
    pd.add_argument("--mu", type=float)
    pd.add_argument("--format", choices=("json", "pretty"), default="pretty")
    pd.set_defaults(func=cmd_dimreg)

    pc = sub.add_parser("demo-cx1", help="the CX1 energy-shift example")
    pc.add_argument("--n", type=int, default=1)
    pc.add_argument("--l", type=int, default=0)
    pc.add_argument("--c1", default="5/128")
    pc.add_argument("--c2", default="5/128")
    pc.add_argument("--m1", default="2")
    pc.add_argument("--m2", default="2")
    pc.set_defaults(func=cmd_demo_cx1)

    pl = sub.add_parser("tags", help="list operator, divergent and bracket tags")
    pl.set_defaults(func=cmd_tags)
    return ap


def cmd_tags(args) -> int:
    from .brackets import bracket_tags
    from .dimreg import divergent_tags
    from .suites import SUITES

    print("finite catalog:")
    print("  " + ", ".join(catalog_tags()))
    print("divergent / dimensionally regularized:")
    print("  " + ", ".join(divergent_tags()))
    print("momentum-space brackets:")
    print("  " + ", ".join(bracket_tags()))
    print("verify suites:")
    print("  " + ", ".join(sorted(SUITES)) + ", all")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DomainError, DivergenceError, CatalogError) as exc:
        # a KeyError's str() quotes its message
        print("error: %s" % (exc.args[0] if isinstance(exc, KeyError) else exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
