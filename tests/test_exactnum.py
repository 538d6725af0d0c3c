import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from coulombev import brackets as br, coulomb as cb, exactnum as en
from coulombev import lagint as li
from coulombev.laguerre import Poly, assoc_laguerre, gegenbauer


class TestHarmonic:
    def test_reference_values(self):
        assert en.harmonic(0, 1) == 0
        assert en.harmonic(5, 1) == Q(137, 60)
        assert en.harmonic(4, 2) == Q(205, 144)

    def test_negative_raises(self):
        with pytest.raises(en.DomainError):
            en.harmonic(-1)

    def test_large_n(self):
        # from an empty cache, so that nothing short of H_5000 is summed already
        en._HARMONIC_SUMS.clear()
        assert en.harmonic(5000) == sum(Q(1, k) for k in range(1, 5001))
        assert en.harmonic(5000, 2) == sum(Q(1, k * k) for k in range(1, 5001))
        en.factorial.cache_clear()
        assert en.factorial(5000) == math.factorial(5000)

    def test_recurrence(self, suite):
        suite("exactnum").assert_passed(["harmonic recurrence n=%d" % n for n in range(1, 51)])


class TestDiharmonic:
    def test_reference_values(self):
        assert en.diharmonic("+", 4, 1) == Q(415, 144)
        assert en.diharmonic("-", 0, 7) == 0
        h6, h62 = en.harmonic(6), en.harmonic(6, 2)
        assert en.diharmonic("+", 6, 0) == (h6 * h6 - h62) / 2

    def test_double_sum_oracle(self, suite):
        labels = ["diH oracle (%s,%d,%d)" % (s, n, m) for n in range(0, 11) for m in range(-8, 11) for s in "+-"]
        suite("exactnum").assert_passed(labels)


class TestGammaRatio:
    def test_reference_values(self):
        # Gamma(x)/Gamma(x - N) = (-1)^N N! (1 - x H_N + ...)
        assert en.gamma_ratio_eps(0, 0, 1) == (1, 0)
        assert en.gamma_ratio_eps(0, -3, 1) == (-6, 11)
        assert en.gamma_ratio_eps(0, -1, 1) == (-1, 1)

    def test_unsupported_order(self):
        # the expansions built on the ratio stop where the basis does: a pole at order 1
        with pytest.raises(en.UnsupportedOrderError):
            en.gamma_series(-2, 1, 2)

    def test_numeric_agreement(self, suite):
        suite("exactnum").assert_passed(["gamma ratio N=%d" % N for N in range(0, 11)])


class TestPolygamma:
    def test_reference_values(self):
        # Gamma(m + x) = Gamma(m) (1 + psi(m) x + (psi(m)^2 + psi'(m)) x^2/2 + ...)
        g1, g4 = en.gamma_series(1, 1, 2), en.gamma_series(4, 1, 1)
        assert g1.coeff(1) == en.SymExpr.of(en.GAMMA_E, -1)
        assert 2 * g1.coeff(2) - g1.coeff(1) * g1.coeff(1) == en.SymExpr.of(en.ZETA2)
        assert g4.coeff(1) / g4.coeff(0) == en.SymExpr({en.GAMMA_E: -1, en.ONE: Q(11, 6)})

    def test_higher_orders_rejected(self):
        # psi'' would need x^3, beyond the basis
        with pytest.raises(en.UnsupportedOrderError):
            en.gamma_series(1, 1, 3)


# every fraction in [-9, 9] with denominator <= 7, drawn without rejection
rational = st.integers(min_value=1, max_value=7).flatmap(
    lambda d: st.integers(min_value=-9 * d, max_value=9 * d).map(lambda x: Q(x, d))
)


def eps_series(draw_low):
    return st.builds(
        lambda low, cs: en.EpsSeries.from_coeffs(low, [en.SymExpr.scalar(c) for c in cs]),
        st.integers(min_value=draw_low, max_value=0),
        st.lists(rational, min_size=1, max_size=4),
    )


class TestEpsSeries:
    @given(eps_series(0), eps_series(-2), eps_series(-2))
    @settings(max_examples=100, deadline=None)
    def test_ring_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x.mul(y + z) == x.mul(y) + x.mul(z)

    def test_pole_cap(self):
        with pytest.raises(en.DomainError):
            en.EpsSeries.from_coeffs(-3, [en.SymExpr.scalar(1)])

    def test_invert(self):
        y = en.EpsSeries.from_coeffs(0, [en.SymExpr.scalar(2), en.SymExpr.scalar(5)])
        assert y.mul(y.invert()).coeff(0) == en.SymExpr.scalar(1)
        assert y.mul(y.invert()).coeff(1) == en.SymExpr.scalar(0)

    @pytest.mark.parametrize("cap", [None, -3, -2, -1, 0, 1, 2, 3, 4])
    def test_invert_order_cap(self, cap):
        # 1/(2/eps + 5 + 3 gamma_E eps) = eps/2 - 5 eps^2/4 + (25/8 - 3 gamma_E/4) eps^3 + O(eps^4)
        g = en.SymExpr.of(en.GAMMA_E)
        y = en.EpsSeries.from_coeffs(-1, [en.SymExpr.scalar(2), en.SymExpr.scalar(5), 3 * g])
        full = [en.SymExpr.scalar(Q(1, 2)), en.SymExpr.scalar(Q(-5, 4)), en.SymExpr.scalar(Q(25, 8)) - g * Q(3, 4)]
        inv = y.invert(order_cap=cap)
        order = 3 if cap is None else min(cap, 3)
        assert inv.order == order
        assert [inv.coeff(k) for k in range(1, order + 1)] == full[: max(order, 0)]
        if order >= 1:
            assert y.mul(inv) == en.EpsSeries.constant(1, order - 1)
        else:
            assert inv.is_zero()  # every coefficient lies beyond the cap

    def test_invert_guards(self):
        with pytest.raises(en.DomainError, match="zero series"):
            en.EpsSeries.zero(1).invert()
        with pytest.raises(en.DomainError, match="nonzero constant leading"):
            en.EpsSeries.from_coeffs(0, [en.SymExpr.of(en.GAMMA_E), en.SymExpr.scalar(1)]).invert()

    def test_symexpr_basis_guard(self):
        ze = en.SymExpr.of(en.ZETA2)
        with pytest.raises(en.BasisError):
            ze * ze


class TestSymExpr:
    def test_product_rules(self):
        g = en.SymExpr.of(en.GAMMA_E)
        la = en.SymExpr.of(en.lam("mu"))
        assert g * g == en.SymExpr.of(en.GAMMA2)
        assert g * la == en.SymExpr.of(en.gamma_lam("mu"))
        assert la * la == en.SymExpr.of(en.lam2("mu"))

    def test_coefficients_are_fractions(self):
        e = en.SymExpr({en.ONE: 3, en.GAMMA_E: True, en.ZETA2: Q(1, 2), en.LN_PI: 0, en.GAMMA2: Q(0)})
        assert e.terms == {en.ONE: 3, en.GAMMA_E: 1, en.ZETA2: Q(1, 2)}
        assert all(type(c) is Q for c in e.terms.values())
        assert en.SymExpr({en.ONE: 3}) == en.SymExpr({en.ONE: Q(3)})
        assert hash(en.SymExpr({en.ONE: 3})) == hash(en.SymExpr({en.ONE: Q(3)}))

    def test_numeric(self):
        val = en.SymExpr({en.ONE: Q(1, 2), en.LN_PI: 2}).numeric()
        assert abs(val - (0.5 + 2 * math.log(math.pi))) < 1e-15

    def test_basis_is_one_table(self):
        # every named constant has a numeric value, except the per-state ln(2 m_r Za/n)
        assert set(en._TAG_NAMES) == set(en._NUMERIC_TAGS) | {en.LNQN}

    @pytest.mark.parametrize("x", [0, 1, -3, Q(1, 2), Q(-7, 3), Q(10**30 + 1, 3)])
    def test_a_constant_hashes_as_its_number(self, x):
        # SymExpr and Poly constants equal their number, so a set or dict must see one key
        for c in (en.SymExpr.scalar(x), Poly([x])):
            assert c == x and hash(c) == hash(x)
            assert len({c, x}) == 1


@pytest.mark.parametrize(
    "call, arg",
    [
        (lambda: br.fourier_kernel(float("nan"), 0), "alpha"),
        (lambda: br.fourier_kernel(float("inf"), 0), "alpha"),
        (lambda: br.fourier_kernel(2, 0).prefactor_float(float("nan")), "eps"),
        (lambda: br.fourier_kernel(2, 0, eps=True).prefactor_float(0.5), "eps"),
        (lambda: br.fourier_kernel(5, 0, eps=True).prefactor_float(0.0), "pole at eps"),
        (lambda: gegenbauer(2, float("inf")), "Gegenbauer order lambda"),
        (lambda: assoc_laguerre(2, float("nan")), "Laguerre order k"),
        (lambda: cb.cx1_energy_shift(cb.QuantumState(2, 1), 1, 1, float("inf"), 1), "m1"),
    ],
    ids="kernel-nan kernel-inf eps-nan eps-range eps-pole gegenbauer-inf laguerre-nan cx1-inf".split(),
)
def test_non_finite_input_stops_at_a_domain_guard(call, arg):
    with pytest.raises(en.DomainError, match=arg):
        call()


class TestExpansionsAgainstSympy:
    """The Gamma eps-expansions and the Laguerre Gamma-limits against
    sympy.series, coefficient by coefficient, as exact rational polynomials in
    gamma_E and pi."""

    @staticmethod
    def _sympy_poly(expr):
        sp = pytest.importorskip("sympy")
        g, p = sp.symbols("g p")
        poly = sp.Poly(sp.expand(expr.subs({sp.EulerGamma: g, sp.pi: p})), g, p)
        return {k: Q(int(c.p), int(c.q)) for k, c in poly.as_dict().items() if c}

    @staticmethod
    def _package_poly(sym):
        # gamma_E^i pi^j monomials: 1 -> (0, 0), gamma_E -> (1, 0),
        # gamma_E^2 -> (2, 0), zeta(2) = pi^2/6 -> (0, 2)
        keys = {en.ONE: ((0, 0), 1), en.GAMMA_E: ((1, 0), 1), en.GAMMA2: ((2, 0), 1), en.ZETA2: ((0, 2), Q(1, 6))}
        out = {}
        for tag, c in sym.terms.items():
            k, scale = keys[tag]
            out[k] = out.get(k, Q(0)) + c * scale
        return {k: c for k, c in out.items() if c}

    def _check(self, series, expr, order):
        sp = pytest.importorskip("sympy")
        e = sp.Symbol("e")
        ref = sp.expand(sp.series(expr(e), e, 0, order + 1).removeO())
        assert series.order == order
        for k in range(-1, order + 1):
            assert self._package_poly(series.coeff(k)) == self._sympy_poly(ref.coeff(e, k)), k
        assert sp.expand(ref - sum(ref.coeff(e, k) * e**k for k in range(-1, order + 1))) == 0

    CASES = [(3, Q(1)), (1, Q(-2)), (2, Q(1, 2)), (0, Q(1)), (-1, Q(2)), (-3, Q(-1, 3))]

    @pytest.mark.parametrize("m,c", CASES)
    def test_gamma_series(self, m, c):
        sp = pytest.importorskip("sympy")
        order = 2 if m >= 1 else 1  # the pole expansion stops at eps^1
        self._check(en.gamma_series(m, c, order), lambda e: sp.gamma(m + sp.Rational(c) * e), order)

    @pytest.mark.parametrize(
        "a,b,c", [(3, 2, 1), (1, 1, -1), (0, 1, -1), (-2, 1, -2), (0, 3, 0), (1, 2, 3), (-3, 1, -1)]
    )
    def test_term_limit(self, a, b, c):
        # m! [eps^m] of Gamma(a+e)Gamma(b+e)/Gamma(c+e) is the m-th Laguerre Gamma-limit
        sp = pytest.importorskip("sympy")
        series = en.EpsSeries.from_coeffs(0, [li._term_limit(a, b, c, m) / math.factorial(m) for m in range(3)])
        self._check(series, lambda e: sp.gamma(a + e) * sp.gamma(b + e) / sp.gamma(c + e), 2)

    def test_term_limit_residual_pole(self):
        # Gamma(e)/Gamma(2+e) = 1/(e(1+e)) leaves a pole the limit cannot take
        with pytest.raises(en.DivergenceError):
            li._term_limit(0, 1, 2, 0)
