"""Named verification suites mirroring the invariant lists of each module.

Every suite returns a SuiteResult with pass/fail counts; the CLI `verify`
command runs them and exits nonzero on any failure.  A suite is the only home
of its checks: pytest runs each suite once and its tests read the labelled
checks they name from the suite's record.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .exactnum import (
    DomainError,
    EpsSeries,
    GAMMA_E,
    LNQN,
    ONE,
    Q,
    Record,
    SymExpr,
    diharmonic,
    gamma_ratio_eps,
    h0,
    harmonic,
    binomial,
)
from .laguerre import Poly, assoc_laguerre, gegenbauer
from . import lagint
from . import coulomb as cb
from . import dimreg
from . import brackets


class SuiteResult(Record):
    """The counts of one suite; it is filled check by check, so it stays mutable."""

    __slots__ = ("name", "passed", "failed", "failures", "record")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        name: str,
        passed: int = 0,
        failed: int = 0,
        failures: Optional[List[str]] = None,
        record: Optional[List[Tuple[str, bool]]] = None,  # every check, in order
    ):
        self.name, self.passed, self.failed = name, passed, failed
        self.failures = [] if failures is None else failures
        self.record = [] if record is None else record

    def check(self, ok: bool, label: str):
        self.record.append((label, bool(ok)))
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 12:
                self.failures.append(label)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _dih_oracle(sign, n, m) -> Fraction:
    tot = Q(0)
    for i in range(1, n + 1):
        jmax = (m - 1 + i) if sign == "+" else (m + 1 - i)
        for j in range(1, jmax + 1):
            tot += Q(1, i * j)
    return tot


def suite_exactnum() -> SuiteResult:
    r = SuiteResult("exactnum")
    for n in range(1, 51):
        r.check(harmonic(n) - harmonic(n - 1) == Q(1, n), "harmonic recurrence n=%d" % n)
    # diharmonic recursions, all four directions, both signs
    for n in range(1, 41):
        for m in range(1, 41):
            r.check(
                diharmonic("+", n + 1, m) == diharmonic("+", n, m) + harmonic(n + m) / (n + 1),
                "diH+ n-step (%d,%d)" % (n, m),
            )
            if m >= 1:
                rhs = diharmonic("+", n, m) + (harmonic(n) + harmonic(m) - harmonic(n + m)) / m
                r.check(diharmonic("+", n, m + 1) == rhs, "diH+ m-step (%d,%d)" % (n, m))
            if n >= m:
                r.check(diharmonic("-", n + 1, m) == diharmonic("-", n, m), "diH- n-step a (%d,%d)" % (n, m))
            else:
                r.check(
                    diharmonic("-", n + 1, m) == diharmonic("-", n, m) + harmonic(m - n) / (n + 1),
                    "diH- n-step b (%d,%d)" % (n, m),
                )
            if m >= n - 1:
                rhs = diharmonic("-", n, m) + (harmonic(m + 1) + harmonic(n) - harmonic(m + 1 - n)) / (m + 2)
            else:
                rhs = diharmonic("-", n, m) + 2 * harmonic(m + 1) / (m + 2)
            r.check(diharmonic("-", n, m + 1) == rhs, "diH- m-step (%d,%d)" % (n, m))
    # m-step cases m = 0 and negative m for diH+
    for n in range(1, 41):
        r.check(
            diharmonic("+", n, 1) == diharmonic("+", n, 0) + harmonic(n, 2),
            "diH+ m-step at m=0, n=%d" % n,
        )
        for m in range(-n, 0):
            rhs = diharmonic("+", n, m) + (harmonic(n) - harmonic(-m) - h0(n + m)) / m
            r.check(diharmonic("+", n, m + 1) == rhs, "diH+ m-step neg (%d,%d)" % (n, m))
    # reflections
    for n in range(1, 21):
        for m in range(-10, 21):
            if n + m - 1 >= 0:
                lhs = diharmonic("+", n, m)
                rhs = harmonic(max(n + m - 1, 0)) * harmonic(n) - diharmonic("+", n + m - 1, -m + 1)
                r.check(lhs == rhs, "diH+ reflection (%d,%d)" % (n, m))
    for n in range(1, 21):
        for m in range(n - 1, 21):
            lhs = diharmonic("-", n, m)
            rhs = (
                harmonic(m + 1) ** 2
                - harmonic(m + 1, 2)
                - diharmonic("-", m - n + 1, m)
                + harmonic(m - n + 1) * harmonic(n)
            )
            r.check(lhs == rhs, "diH- reflection (%d,%d)" % (n, m))
    # closed forms vs double-sum oracle
    for n in range(1, 31):
        h, h2 = harmonic(n), harmonic(n, 2)
        r.check(diharmonic("+", n, 2) == (h * h + h2) / 2 + 1 - Q(1, n + 1), "diH+(n,2) n=%d" % n)
        r.check(diharmonic("+", n, 1) == (h * h + h2) / 2, "diH+(n,1) n=%d" % n)
        r.check(diharmonic("+", n, 0) == (h * h - h2) / 2, "diH+(n,0) n=%d" % n)
        r.check(diharmonic("+", n, -1) == (h * h - h2) / 2 - 1 + Q(1, n), "diH+(n,-1) n=%d" % n)
    for n in range(2, 31):
        h, h2 = harmonic(n), harmonic(n, 2)
        hp, hp2 = harmonic(n + 1), harmonic(n + 1, 2)
        hq, hq2 = harmonic(n + 2), harmonic(n + 2, 2)
        r.check(diharmonic("-", n - 1, n - 1) == h * h - h2, "diH-(n-1,n-1) n=%d" % n)
        r.check(diharmonic("-", n - 1, n) == hp * hp - hp2 - Q(1, n), "diH-(n-1,n) n=%d" % n)
        r.check(
            diharmonic("-", n - 1, n + 1)
            == hq * hq - hq2 - Q(1, n) - (Q(1, n) + Q(1, n + 1) + Q(3, 2)) / (n + 2),
            "diH-(n-1,n+1) n=%d" % n,
        )
    for n in range(0, 12):
        for m in range(-8, 11):
            for s in "+-":
                r.check(diharmonic(s, n, m) == _dih_oracle(s, n, m), "diH oracle (%s,%d,%d)" % (s, n, m))
    # harmonic square sums
    for n in range(1, 61):
        h, h2 = harmonic(n), harmonic(n, 2)
        r.check(sum(harmonic(k) / k for k in range(1, n + 1)) == (h * h + h2) / 2, "harmonic square sum 1 n=%d" % n)
        r.check(
            sum(harmonic(k) / (n - k) for k in range(1, n)) == h * h - h2,
            "harmonic square sum 2 n=%d" % n,
        )
    # Gamma(e)/Gamma(e - N) through O(e), the ratio behind every Gamma expansion
    e = 1e-6
    for N in range(0, 11):
        c0, c1 = gamma_ratio_eps(0, -N, 1)
        approx = float(c0) + float(c1) * e
        r.check(abs(approx / (math.gamma(e) / math.gamma(e - N)) - 1) < 1e-5, "gamma ratio N=%d" % N)
    # EpsSeries ring laws on deterministic pseudo-random series (products are
    # kept inside the pole-order cap of the artifact)
    rng = random.Random(7)
    for trial in range(60):
        def rnd(lo):
            low = rng.randint(lo, 0)
            return EpsSeries.from_coeffs(
                low, [SymExpr.scalar(Q(rng.randint(-9, 9), rng.randint(1, 7))) for _ in range(rng.randint(1, 4))]
            )

        x, y, z = rnd(0), rnd(-2), rnd(-2)
        r.check((x + y) + z == x + (y + z), "associativity trial %d" % trial)
        r.check(x.mul(y + z) == x.mul(y) + x.mul(z), "distributivity trial %d" % trial)
    return r


def suite_laguerre() -> SuiteResult:
    r = SuiteResult("laguerre")
    x = Poly([0, 1])
    for n in range(0, 16):
        for k in range(0, 9):
            r.check(assoc_laguerre(n, k).deriv() == -assoc_laguerre(n - 1, k + 1), "dL (%d,%d)" % (n, k))
            r.check(assoc_laguerre(n, k)(0) == binomial(n + k, n), "L(0) (%d,%d)" % (n, k))
    for n in range(0, 13):
        for k in range(1, 7):
            L = assoc_laguerre
            r.check(x * L(n, k + 1) == (x - Poly([n])) * L(n, k) + (n + k) * L(n - 1, k), "rec1 (%d,%d)" % (n, k))
            r.check(L(n, k - 1) == L(n, k) - L(n - 1, k), "rec2 (%d,%d)" % (n, k))
            r.check(x * L(n, k + 1) == (n + k + 1) * L(n, k) - (n + 1) * L(n + 1, k), "rec3 (%d,%d)" % (n, k))
            r.check(
                (n + k) * L(n, k - 1) == (n + 1) * L(n + 1, k) - (Poly([n + 1]) - x) * L(n, k),
                "rec4 (%d,%d)" % (n, k),
            )
    beta = Poly([0, 1])
    for lamv in (Q(1, 2), Q(1), Q(3, 2), Q(2)):
        for n in range(1, 13):
            C = gegenbauer(n, lamv)
            r.check(C.deriv() == 2 * lamv * gegenbauer(n - 1, lamv + 1), "dC (%d,%s)" % (n, lamv))
            ode = (Poly([1]) - beta * beta) * C.deriv().deriv() - (1 + 2 * lamv) * beta * C.deriv() + n * (
                n + 2 * lamv
            ) * C
            r.check(ode.is_zero(), "Gegenbauer ODE (%d,%s)" % (n, lamv))
    return r


def suite_lagint() -> SuiteResult:
    r = SuiteResult("lagint")
    for seed in (20240817, 99):
        rng = random.Random(seed)
        count = 0
        while count < 200:
            n = rng.randint(0, 8)
            k = rng.randint(0, 6)
            p = rng.choice([0, 0, 0, 1, 1, 2])
            logpow = rng.choice([0, 0, 1, 1, 2])
            bilin = rng.random() < 0.6
            n2, k2 = rng.randint(0, 8), rng.randint(0, 6)
            s = rng.randint(-p, 6)
            if Q(s) + p <= -1 or (logpow == 2 and (p != 0 or s < 0)):
                continue
            spec = lagint.MomentSpec(Q(s), logpow, (n, k, p), (n2, k2) if bilin else None)
            brute = lagint.brute_force_moment(spec)
            if bilin:
                closed = (
                    lagint.integral_K(s, n, k, n2, k2, p=p)
                    if logpow == 0
                    else lagint.integral_L(s, n, k, n2, k2, p=p)
                    if logpow == 1
                    else lagint.integral_M(s, n, k, n2, k2)
                )
            elif logpow == 0:
                closed = lagint.integral_I(s, n, k, p=p)
            elif logpow == 1:
                # ^pJ routes through L with the trivial right factor L_0^0 = 1
                closed = lagint.integral_J(s, n, k) if p == 0 else lagint.integral_L(s, n, k, 0, 0, p=p)
            else:
                closed = lagint.integral_M(s, n, k, 0, 0)  # L_0^0 = 1
            r.check(closed == brute, "oracle equivalence seed %d %r" % (seed, spec))
            count += 1
    # summation formulas, with psi(m) = H_{m-1} - gamma_E at integers m >= 1
    def psi(m):
        return SymExpr({ONE: harmonic(m - 1), GAMMA_E: Q(-1)})

    for n in range(1, 26):
        lhs = SymExpr()
        for j in range(0, n):
            lhs = lhs + binomial(n, j + 1) * Q(-1) ** j * psi(j + 1)
        r.check(lhs == SymExpr({ONE: -harmonic(n - 1), GAMMA_E: Q(-1)}), "psi sum 1 n=%d" % n)
        lhs = SymExpr()
        for j in range(0, n + 1):
            lhs = lhs + binomial(n, j) * Q(-1) ** j * psi(j + 1)
        r.check(lhs == SymExpr.scalar(Q(-1, n)), "psi sum 2 n=%d" % n)
    from .exactnum import factorial

    for n in range(0, 16):
        for k in range(0, 6):
            for s in range(0, 5):
                lhs = SymExpr()
                for j in range(0, n + 1):
                    c = Q(-1) ** j * factorial(n + k) / (factorial(n - j) * factorial(k + j) * factorial(j))
                    lhs = lhs + c * factorial(s + j) * psi(s + j + 1)
                r.check(lhs == lagint.integral_J(s, n, k), "sum_formula_2 (%d,%d,%d)" % (n, k, s))
    # orthogonality and normalization
    for n in range(0, 13):
        for k in range(0, 7):
            for mm in range(0, 13):
                expect = factorial(n + k) / factorial(n) * (1 if n == mm else 0)
                r.check(
                    lagint.integral_K(k, n, k, mm, k) == SymExpr.scalar(expect), "orthogonality (%d,%d,%d)" % (n, k, mm)
                )
            r.check(
                lagint.integral_K(k + 1, n, k, n, k) == SymExpr.scalar(factorial(n + k) / factorial(n) * (2 * n + k + 1)),
                "normalization (%d,%d)" % (n, k),
            )
    return r


def suite_coulomb() -> SuiteResult:
    r = SuiteResult("coulomb")
    states = [cb.QuantumState(n, l) for n in range(1, 11) for l in range(n)]
    for tag in cb.catalog_tags():
        entry = cb.CATALOG[tag]
        for st in states:
            if st.l < entry.min_l:
                continue
            c = cb.expectation_closed(tag, st)
            r.check(c == cb.expectation_oracle(tag, st), "catalog %s (%d,%d)" % (tag, st.n, st.l))
    for st in states:
        r.check(cb.expectation_oracle("1", st).sym.rational == 1, "normalization (%d,%d)" % (st.n, st.l))
        e = Q(-1, 2 * st.n**2)
        r.check(cb.expectation_oracle("p2", st).sym.rational == -2 * e, "virial p2 (%d,%d)" % (st.n, st.l))
        r.check(cb.expectation_oracle("V", st).sym.rational == 2 * e, "virial V (%d,%d)" % (st.n, st.l))
        rhs = 4 * (e * e + 2 * e * cb.power_moment(st, -1) + cb.power_moment(st, -2))
        r.check(cb.expectation_closed("p4", st).sym.rational == rhs, "p4 reduction (%d,%d)" % (st.n, st.l))
    for st in [s for s in states if s.n <= 8]:
        for s_pow in (1, 2, 3):
            lhs = cb.bilinear_sum(st, [(1, cb.R, cb.DR, s_pow)]).rational
            r.check(lhs == -Q(s_pow + 2, 2) * cb.power_moment(st, s_pow - 1), "r^s dr (%d,%d,%d)" % (st.n, st.l, s_pow))
    from . import shoot

    for st in states:
        r.check(abs(shoot.momentum_norm_numeric(st) - 1) < 1e-10, "momentum norm (%d,%d)" % (st.n, st.l))
    return r


def suite_dimreg_symbolic() -> SuiteResult:
    r = SuiteResult("dimreg-symbolic")
    from .exactnum import factorial

    # coefficient collapse at eps = 0
    for n in range(1, 9):
        for l in range(n):
            table = dimreg.series_coefficients(l, Q(0), n - l + 2)
            for j in range(0, n - l + 2):
                expect = (
                    Q(-1) ** j * factorial(n - l - 1) * factorial(2 * l + 1)
                    / (factorial(j) * factorial(n - l - j - 1) * factorial(2 * l + 1 + j))
                    if j <= n - l - 1
                    else Q(0)
                )
                r.check(table.collapse(n, j) == expect, "collapse (%d,%d,%d)" % (n, l, j))
    # the tabulated S-state head is the j <= 1 rows of the one a_jk recursion:
    # a_00 = 1, a_10 = 1/2, a_11 = -1/(2(1 + 2 eps)), at exact eps and as eps-series
    for e in (Q(0), Q(1, 100), Q(-1, 7), Q(1, 5)):
        a = dimreg.series_coefficients(0, e, 1).a
        r.check(a == {(0, 0): 1, (1, 0): Q(1, 2), (1, 1): -1 / (2 * (1 + 2 * e))}, "head a_jk eps=%s" % e)
    poly = dimreg._eps_poly
    lifted = {(j, k): c.mul(poly(1, 2), order_cap=2) for j, k, c in dimreg._HEAD}
    r.check(lifted == {(0, 0): poly(1, 2), (1, 0): poly(Q(1, 2), 1), (1, 1): poly(Q(-1, 2))}, "head (1+2eps) a_jk")
    # divergent tables, l = 0: pole and finite part of each brace, n <= 10
    from .exactnum import lam

    S = SymExpr.scalar
    HALF = Q(1, 2)
    B0 = (0 - HALF) * (0 + HALF) * Q(3, 2)
    for n in range(1, 11):
        H = harmonic(n)
        laurent = {
            "V3": (-1, SymExpr({lam("mu"): Q(-4), ONE: 4 * H - Q(2, n) - 4})),
            "V.V'": (-2, SymExpr({lam("mu"): Q(-4), ONE: 4 * H - Q(2, n) - 2})),
            "(V')2": (-2, SymExpr({lam("mu"): Q(-8), ONE: 8 * H + Q(4, 3 * n * n) - Q(4, n) - Q(16, 3)})),
            "V2.p2": (2, SymExpr({lam("mu"): Q(8), ONE: -8 * H + Q(4, n) - Q(2, n * n) + 8})),
            "p2.V.p2": (-4, SymExpr({lam("mu"): Q(-16), ONE: 16 * H - Q(8, n) - Q(1, n**3) + Q(8, n * n) - 16})),
        }
        # p6 and the delta_{l=0}-anomalous block: finite, anomaly included
        anomalous = {
            "p6": Q(5, n**6) - Q(16, n**5) + (8 * n * n + 1) / (B0 * n**5) + Q(32, n**3),
            "r4e/r2.dr2": (-2 * n * n - 1) / (4 * B0 * n**5) - Q(2, n**3),
            "r4e/r.dr3": (3 * n * n + Q(3, 2)) / (4 * B0 * n**5) + Q(4, n**3),
            "r4e.p2.V": Q(1, n**4),
            "r4e.p4": Q(-3, n**4),
            "p.r4e.p.V": Q(1, n**4) - Q(4, n**3),
            "r4e.p.V.p": Q(1, n**4) - Q(2, n**3),
            "p4.V": (-4 * n * n - 2) / (B0 * n**5) - Q(1, n**6) - Q(16, n**3),
            "V.p2.V": (8 * n * n + 1) / (4 * B0 * n**5) + Q(8, n**3),
        }
        for tag, table in anomalous.items():
            laurent[tag] = (0, S(table * n**3))
        for tag, (pole, finite) in laurent.items():
            v = dimreg.divergent_expectation(tag, n, 0)
            r.check(v.pole() == S(pole) and v.finite() == finite, "%s n=%d" % (tag, n))
        for tag, units in (("V3", (0, 3)), ("(V')2", (1, 3))):
            v = dimreg.divergent_expectation(tag, n, 0)
            r.check((v.mr_pow, v.za_pow) == units, "%s units n=%d" % (tag, n))
    # the same operators at l > 0, n <= 10: each term list integrated by the
    # catalog's oracle, and each tag with a 3D twin against the twin's closed form
    D = dimreg._DR
    for n in range(2, 11):
        for l in range(1, n):
            st = cb.QuantumState(n, l)
            e, L = Q(-1, 2 * n * n), Q(l * (l + 1))
            for tag in dimreg.divergent_tags():
                v = dimreg.divergent_expectation(tag, n, l).sym
                pieces = [(t.coef[0] * e**t.k * L**t.ang, D[t.a], D[t.b], t.sigma) for t in dimreg._TERMS[tag]]
                r.check(v == cb.bilinear_sum(st, pieces), "%s (%d,%d)" % (tag, n, l))
                if tag in dimreg._TWINS:
                    sign, twin = dimreg._TWINS[tag]
                    r.check(v == sign * cb.expectation_closed(twin, st).sym, "twin %s (%d,%d)" % (tag, n, l))
    # identity network
    for n in range(1, 9):
        for name, res in dimreg.identity_residuals(n, 0):
            r.check(res.is_zero(), "identity %s (n=%d, l=0)" % (name, n))
    for n in range(2, 9):
        for l in range(1, n):
            for name, res in dimreg.identity_residuals(n, l):
                r.check(not res, "identity %s (%d,%d)" % (name, n, l))
    # recursion and Feynman-Hellmann residuals at eps = 0
    for n in range(1, 9):
        for l in range(n):
            st = cb.QuantumState(n, l)
            for s in range(0, 5):
                r.check(cb.recursion_residual(s, st) == 0, "recursion s=%d (%d,%d)" % (s, n, l))
            r.check(cb.feynman_hellmann_residual(st) == 0, "FH (%d,%d)" % (n, l))
    return r


@lru_cache(maxsize=None)
def _shot(n: int, l: int, eps: float):
    """The shoot of (n, l) at eps and mu = 1, shared by the dimreg suites."""
    from . import shoot

    return shoot.eigenvalue_shoot(cb.QuantumState(n, l), eps)


def suite_dimreg_numeric() -> SuiteResult:
    from . import shoot

    r = SuiteResult("dimreg-numeric")
    # every state the shoot is validated for
    for n in range(1, shoot._N_MAX + 1):
        for l in range(n):
            r.check(abs(_shot(n, l, 0.0).nbar - n) < 1e-13, "nbar(0)=n (%d,%d)" % (n, l))
    for (n, l) in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        st = cb.QuantumState(n, l)
        en = 1.0 / (2.0 * n * n)
        d1 = abs(_shot(n, l, 1e-3).ebar - shoot.energy_series_numeric(st, 1e-3)) / en
        d2 = abs(_shot(n, l, 5e-4).ebar - shoot.energy_series_numeric(st, 5e-4)) / en
        r.check(d1 / d2 >= 3.6, "energy order (%d,%d): ratio %.2f" % (n, l, d1 / d2))
    # monotonicity/continuity of nbar in eps for n <= 3
    for (n, l) in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        vals = [_shot(n, l, e).nbar for e in (0.0, 0.005, 0.01, 0.02)]
        diffs = [vals[i + 1] - vals[i] for i in range(3)]
        r.check(all(d < 0 for d in diffs) or all(d > 0 for d in diffs), "nbar monotone (%d,%d)" % (n, l))
    # l-dependence at fixed n
    e31, e32 = _shot(3, 1, 0.01).nbar, _shot(3, 2, 0.01).nbar
    r.check(abs(e31 - 3) > 1e-3, "nbar moves off n at eps = 0.01")
    r.check(abs(e31 - e32) > 1e-4, "nbar l-dependence")
    return r


def suite_dimreg_pole() -> SuiteResult:
    import numpy as np

    from . import shoot

    r = SuiteResult("dimreg-pole")
    eps_list = (0.02, 0.01, 0.005)
    A = np.array([[1.0 / e, 1.0] for e in eps_list])
    for n in (1, 2):
        eigs = [_shot(n, 0, e) for e in eps_list]
        for tag in dimreg.divergent_tags():
            pole = dimreg.divergent_expectation(tag, n, 0).pole()
            if not pole:
                continue
            vals = [shoot._brace_numeric(tag, eig) for eig in eigs]
            coef, *_ = np.linalg.lstsq(A, np.array(vals), rcond=None)
            pole_exact = float(pole.numeric())
            r.check(
                abs(coef[0] / pole_exact - 1) < 0.01,
                "%s pole fit n=%d (%.4f vs %.4f)" % (tag, n, coef[0], pole_exact),
            )
    return r


def suite_brackets() -> SuiteResult:
    r = SuiteResult("brackets")
    # each _VIA_CATALOG row against its Fourier kernels at D = 3: a rank-0 kernel
    # 1/q^alpha gives pref <f> with f = r^-(3-alpha), or pref <p.f.p> under p2.p1;
    # the rank-2 (p2.q)(q.p1)/q^alpha gives pref [<p.f.p> - (D+2-alpha) <px.f.xp>]
    # with f = r^-(5-alpha).  The 3D kernel refuses 1/q4, which takes the eps kernel
    # at eps = 0, and (p2 x p1)^2 = (p2.p1) q^2 - (p2.q)(q.p1).  pref carries every
    # pi; the m_r and Za powers are 3 - alpha plus the momenta in the numerator.
    kernels = {  # tag -> [(sign, alpha, momenta in the numerator: 2 is p2.p1, 4 (p2.q)(q.p1))]
        "1/q": [(1, 1, 0)],
        "1/q2": [(1, 2, 0)],
        "1/q4": [(1, 4, 0)],
        "p2.p1/q": [(1, 1, 2)],
        "p2.p1/q2": [(1, 2, 2)],
        "(p2.q)(q.p1)/q3": [(1, 3, 4)],
        "(p2.q)(q.p1)/q4": [(1, 4, 4)],
        "(p22p12-(p2.p1)2)/q4": [(1, 2, 2), (-1, 4, 4)],
    }
    radial = {2: "1/r2", 1: "1/r", -1: "r"}
    r.check(set(kernels) == set(brackets._VIA_CATALOG), "kernel table covers every catalog bracket")
    for tag, parts in kernels.items():
        (mr, za, pi), terms = brackets._VIA_CATALOG[tag]
        expect: Dict[str, float] = {}
        for sign, alpha, momenta in parts:
            rank = 2 if momenta == 4 else 0
            pref = sign * brackets.fourier_kernel(alpha, rank, eps=rank == 0 and alpha >= 3).prefactor_float()
            f = radial[3 + rank - alpha]
            key = "p.%s.p" % f if momenta else f
            expect[key] = expect.get(key, 0.0) + pref
            if rank == 2:
                expect["px.%s.xp" % f] = -(5 - alpha) * pref  # one rank-2 kernel per row
        for cat in sorted(set(terms) | set(expect)):
            got, want = float(terms.get(cat, 0)) * math.pi**pi, expect.get(cat, 0.0)
            r.check(want != 0 and abs(got / want - 1) < 1e-14, "kernel %s: %s" % (tag, cat))
        r.check({3 - alpha + momenta for _, alpha, momenta in parts} == {mr, za}, "kernel %s powers" % tag)
    # Vbar ~ r^{-(1-2eps)}, so the D-dimensional virial theorem gives <Vbar> = 2 Ebar/(1 + 2 eps)
    virial = EpsSeries.from_coeffs(0, [2, -4])
    for n in range(1, 11):
        for l in range(n):
            st = cb.QuantumState(n, l)
            expect = dimreg.energy_expansion(st).mul(virial, order_cap=1)
            r.check(brackets.bracket("V(q)", st) == expect, "V(q) virial (%d,%d)" % (n, l))
    # 1/q4 exists only through the D-dimensional kernel
    try:
        brackets.fourier_kernel(4, 0, eps=False)
        r.check(False, "1/q4 3D kernel should be rejected")
    except brackets.KernelSingularityError as e:
        r.check(e.kind == "log", "1/q4 rejection kind")
    r.check(brackets.fourier_kernel(4, 0, eps=True).num_c0 == Q(-1, 2), "1/q4 D-dim kernel numerator")
    # tracing the rank-2 kernel over i = j multiplies by delta_ii - (D+2-alpha)
    # = alpha - 2 and must give the rank-0 kernel at alpha - 2, exactly in D:
    # same numerator Gamma argument, 2-powers and Gamma(alpha/2) arguments
    # related through Gamma(x) = (x-1) Gamma(x-1); numerically at eps = 0.137
    epsv = 0.137
    D = 3 - 2 * epsv
    for alpha in (Q(5, 2), Q(7, 2), Q(9, 2), Q(4), Q(6)):
        k2 = brackets.fourier_kernel(alpha, 2, eps=True)
        k0 = brackets.fourier_kernel(alpha - 2, 0, eps=True)
        r.check(
            k2.num_c0 == k0.num_c0
            and k2.den_arg == k0.den_arg + 1
            and (k2.two_pow, k0.two_pow) == (1, 0)
            and (alpha - 2) / (2 * (k2.den_arg - 1)) == 1,
            "FT_2 trace exact alpha=%s" % alpha,
        )
        lhs = k2.prefactor_float(epsv) * (D - (D + 2 - float(alpha)))
        r.check(abs(lhs / k0.prefactor_float(epsv) - 1) < 1e-12, "FT_2 trace alpha=%s" % alpha)
    # lnq closed form vs quadrature oracle
    for n in range(1, 11):
        closed = brackets.bracket_lnq(cb.QuantumState(n, 0))
        val_closed = closed.sym.numeric({LNQN: math.log(2.0 / n)}) / math.pi
        val_oracle = brackets.bracket_lnq_oracle(n)
        r.check(abs(val_closed / val_oracle - 1) < 1e-12, "lnq oracle n=%d" % n)
    return r


SUITES: Dict[str, Callable[[], SuiteResult]] = {
    "exactnum": suite_exactnum,
    "laguerre": suite_laguerre,
    "lagint": suite_lagint,
    "coulomb": suite_coulomb,
    "dimreg-symbolic": suite_dimreg_symbolic,
    "dimreg-numeric": suite_dimreg_numeric,
    "dimreg-pole": suite_dimreg_pole,
    "brackets": suite_brackets,
}


def run_suites(names) -> List[SuiteResult]:
    out = []
    for name in names:
        if name not in SUITES:
            raise DomainError("unknown suite %r; valid: %s, all" % (name, ", ".join(sorted(SUITES))))
        out.append(SUITES[name]())
    return out
