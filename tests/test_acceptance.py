"""Acceptance criteria, one test per numbered criterion.

Each test prints a single `criterion N: pass` line (visible with pytest -s /
in the captured output on failure) and enforces the stated tolerance and
runtime budget.
"""

import math
import time
from fractions import Fraction as Q

import numpy as np

from coulombev import brackets as br
from coulombev import coulomb as cb
from coulombev import dimreg as dr
from coulombev import lagint as li
from coulombev.exactnum import SymExpr, harmonic as H, lam
from coulombev.suites import suite_coulomb, suite_exactnum, suite_lagint

S = SymExpr.scalar
HALF = Q(1, 2)


def _report(num, label, elapsed, budget):
    print("criterion %d: pass (%s, %.1fs < %ds)" % (num, label, elapsed, budget))


def test_criterion_1_catalog_exactness():
    """Every finite 3D entry equals the exact-integration oracle, n <= 10."""
    t0 = time.time()
    res = suite_coulomb()
    assert res.ok, res.failures
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, "%d suite checks, symbol-for-symbol" % res.passed, elapsed, 60)


def test_criterion_2_integral_tables():
    """All listed I/J/K/L/M values for n <= 12 plus 200 randomized brute checks."""
    t0 = time.time()
    # the tabulated rows are asserted exhaustively in test_lagint; here run the
    # orthogonality row cited by the criterion plus the randomized oracle sweep
    from coulombev.exactnum import factorial

    for n in range(0, 13):
        for k in range(0, 7):
            for m in range(0, 13):
                expect = factorial(n + k) / factorial(n) * (1 if n == m else 0)
                assert li.integral_K(k, n, k, m, k) == S(expect)
    res = suite_lagint()
    assert res.ok, res.failures
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(2, "orthogonality + %d suite checks" % res.passed, elapsed, 30)


def test_criterion_3_divergent_tables():
    """Laurent data and l > 0 closed forms of the divergent block, n <= 10."""
    t0 = time.time()
    B0 = -Q(3, 8)
    for n in range(1, 11):
        v = dr.divergent_expectation("V3", n, 0)
        assert v.pole() == S(-1)
        assert v.finite() == SymExpr({lam("mu"): Q(-4), ("one",): 4 * H(n) - Q(2, n) - 4})
        v = dr.divergent_expectation("V.V'", n, 0)
        assert v.pole() == S(-2)
        assert v.finite() == SymExpr({lam("mu"): Q(-4), ("one",): 4 * H(n) - Q(2, n) - 2})
        v = dr.divergent_expectation("(V')2", n, 0)
        assert v.pole() == S(-2)
        assert v.finite() == SymExpr(
            {lam("mu"): Q(-8), ("one",): 8 * H(n) + Q(4, 3 * n * n) - Q(4, n) - Q(16, 3)}
        )
        v = dr.divergent_expectation("V2.p2", n, 0)
        assert v.pole() == S(2)
        assert v.finite() == SymExpr({lam("mu"): Q(8), ("one",): -8 * H(n) + Q(4, n) - Q(2, n * n) + 8})
        v = dr.divergent_expectation("p2.V.p2", n, 0)
        assert v.pole() == S(-4)
        assert v.finite() == SymExpr(
            {lam("mu"): Q(-16), ("one",): 16 * H(n) - Q(8, n) - Q(1, n**3) + Q(8, n * n) - 16}
        )
        # p6 and the delta_{l=0}-anomalous block (finite, anomaly included)
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
            v = dr.divergent_expectation(tag, n, 0)
            assert v.pole() == S(0), tag
            assert v.finite() == S(table * n**3), (tag, n)
    # l > 0 exact closed forms
    for n in range(2, 11):
        for l in range(1, n):
            L = Q(l * (l + 1))
            Bl = (l - HALF) * (l + HALF) * (l + Q(3, 2))
            assert dr.divergent_expectation("V3", n, l).sym == S(-1 / (L * (l + HALF) * n**3))
            assert dr.divergent_expectation("V.V'", n, l).sym == S(-1 / (L * (l + HALF) * n**3))
            assert dr.divergent_expectation("(V')2", n, l).sym == S(
                (3 * n * n - L) / (2 * L * (l + HALF) * (l - HALF) * (l + Q(3, 2)) * n**5)
            )
            assert dr.divergent_expectation("V2.p2", n, l).sym == S((2 * n * n - L) / (L * (l + HALF) * n**5))
            assert dr.divergent_expectation("p2.V.p2", n, l).sym == S(
                -Q(1, n**6) + 4 / ((l + HALF) * n**5) - 4 / (L * (l + HALF) * n**3)
            )
            assert dr.divergent_expectation("p4.V", n, l).sym == S(
                (-4 * n * n - 2 + 4 * L) / (Bl * n**5) - Q(1, n**6)
            )
            assert dr.divergent_expectation("V.p2.V", n, l).sym == S((8 * n * n + 1 - 4 * L) / (4 * Bl * n**5))
    elapsed = time.time() - t0
    _report(3, "poles + finite parts, exact symbolic equality", elapsed, 9999)


def test_criterion_4_numeric_pole_cross_check():
    """Fitted 1/eps coefficient of <V3> from finite-eps quadrature within 1%."""
    t0 = time.time()
    for n in (1, 2):
        st = cb.QuantumState(n, 0)
        eps_list = (0.02, 0.01, 0.005)
        vals = [dr.v3_brace_numeric(dr.eigenvalue_shoot(st, e)) for e in eps_list]
        A = np.array([[1.0 / e, 1.0] for e in eps_list])
        coef, *_ = np.linalg.lstsq(A, np.array(vals), rcond=None)
        pole = float(dr.divergent_expectation("V3", n, 0).pole().numeric())
        assert abs(coef[0] / pole - 1) < 0.01, (n, coef[0], pole)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(4, "fitted c_-1 within 1% for n = 1, 2", elapsed, 120)


def test_criterion_5_eigenvalue_order_of_accuracy():
    """|Ebar_shoot - Ebar_series|/|E_n| drops by >= 3.6 under eps halving."""
    t0 = time.time()
    for (n, l) in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        st = cb.QuantumState(n, l)
        en = 1.0 / (2.0 * n * n)
        d1 = abs(dr.eigenvalue_shoot(st, 1e-3).ebar - dr.energy_series_numeric(st, 1e-3)) / en
        d2 = abs(dr.eigenvalue_shoot(st, 5e-4).ebar - dr.energy_series_numeric(st, 5e-4)) / en
        assert d1 / d2 >= 3.6, (n, l, d1 / d2)
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(5, "ratio >= 3.6 for the four states", elapsed, 60)


def test_criterion_6_identity_network():
    """Recursion, Feynman-Hellmann and D-dimensional relations vanish, n <= 8."""
    t0 = time.time()
    for n in range(1, 9):
        for l in range(n):
            st = cb.QuantumState(n, l)
            for s in range(0, 5):
                assert cb.recursion_residual(s, st) == 0, (n, l, s)
            assert cb.feynman_hellmann_residual(st) == 0, (n, l)
            for name, res in dr.identity_residuals(n, l):
                if l == 0:
                    assert res.is_zero(), (name, n, l)
                else:
                    assert not res, (name, n, l)
    elapsed = time.time() - t0
    _report(6, "all residuals zero through O(eps^0)", elapsed, 9999)


def test_criterion_7_lnq():
    """The <ln q> closed form matches momentum quadrature to 1e-8, n = 1..4."""
    t0 = time.time()
    for n in range(1, 5):
        closed = br.bracket_lnq(cb.QuantumState(n, 0))
        val_closed = closed.sym.numeric({("ln_2mrza_over_n",): math.log(2.0 / n)}) / math.pi
        val_oracle = br.bracket_lnq_oracle(n)
        assert abs(val_closed / val_oracle - 1) < 1e-8, n
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(7, "closed form vs quadrature, 1e-8 relative", elapsed, 30)


def test_criterion_8_diharmonic_suite():
    """Diharmonic recursions, reflections and closed forms, exact."""
    t0 = time.time()
    res = suite_exactnum()
    assert res.ok, res.failures
    assert res.passed > 8000  # ~10^4 assertions
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(8, "%d exact assertions" % res.passed, elapsed, 10)


def test_criterion_9_cx1_demo():
    """demo-cx1 equals -4 m_r (c1/m1^4 + c2/m2^4) <(V')^2>, both branches."""
    t0 = time.time()
    c1 = c2 = Q(5, 128)
    # l > 0 branch at (2,1), equal masses m1 = m2 = 2 m_r
    coef, val = cb.cx1_energy_shift(cb.QuantumState(2, 1), c1, c2, 2, 2)
    assert coef == -4 * (c1 * Q(1, 16) + c2 * Q(1, 16))
    vp2 = dr.divergent_expectation("(V')2", 2, 1)
    assert val.sym == vp2.sym * coef
    assert (val.mr_pow, val.za_pow) == (vp2.mr_pow - 3, vp2.za_pow)
    # l = 0 branch: Laurent series proportional to the (V')^2 brace
    coef0, val0 = cb.cx1_energy_shift(cb.QuantumState(1, 0), c1, c2, 2, 2)
    brace = dr.divergent_expectation("(V')2", 1, 0)
    assert val0.series == brace.series * coef0
    assert val0.pole() == S(coef0 * -2)
    elapsed = time.time() - t0
    _report(9, "exact symbolic match, both branches", elapsed, 9999)
