from fractions import Fraction as Q

import pytest

from coulombev.exactnum import DomainError, binomial, factorial
from coulombev.laguerre import Poly, assoc_laguerre, gegenbauer, subtract_laguerre


def test_reference_values():
    assert assoc_laguerre(0, 5) == Poly([1])
    assert assoc_laguerre(1, 1) == Poly([2, -1])
    assert assoc_laguerre(2, 1) == Poly([3, -3, Q(1, 2)])
    assert assoc_laguerre(-2, 3).is_zero()


@pytest.mark.parametrize("k", [0, 1, 5, Q(1, 2), Q(7, 2)])
def test_coefficients_match_binomial_form(k):
    # the ratio-stepped coefficients against c_r = (-1)^r/r! binom(n+k, n-r)
    for n in range(-1, 40):
        expect = Poly([Q(-1) ** r / factorial(r) * binomial(n + k, n - r) for r in range(n + 1)])
        assert assoc_laguerre(n, k) == expect, n


def test_subtraction():
    assert subtract_laguerre(1, 1, 1) == Poly([0, -1])
    assert subtract_laguerre(4, 2, 0) == assoc_laguerre(4, 2)
    assert subtract_laguerre(1, 1, 2).is_zero()


@pytest.mark.parametrize("n", range(0, 16))
@pytest.mark.parametrize("k", range(0, 9))
def test_derivative_identity(suite, n, k):
    suite("laguerre").assert_passed(["dL (%d,%d)" % (n, k)])


@pytest.mark.parametrize("n", range(0, 13))
@pytest.mark.parametrize("k", range(1, 7))
def test_three_term_recursions(suite, n, k):
    suite("laguerre").assert_passed(["rec%d (%d,%d)" % (i, n, k) for i in range(1, 5)])


def test_value_at_zero(suite):
    suite("laguerre").assert_passed(["L(0) (%d,%d)" % (n, k) for n in range(0, 12) for k in range(0, 7)])


def test_half_integer_order():
    p = assoc_laguerre(2, Q(1, 2))
    assert p.coeff(0) == binomial(Q(5, 2), 2)
    with pytest.raises(DomainError):
        assoc_laguerre(2, Q(1, 3))


def test_gegenbauer_spec_examples():
    assert gegenbauer(0, Q(3, 2)) == Poly([1])
    for lam in (Q(1, 2), Q(1), Q(3, 2), Q(2)):
        assert gegenbauer(1, lam) == Poly([0, 2 * lam])
        assert gegenbauer(2, lam) == Poly([-lam, 0, 2 * lam * (lam + 1)])
    with pytest.raises(DomainError):
        gegenbauer(2, 0)


@pytest.mark.parametrize("lam", [Q(1, 2), Q(1), Q(3, 2), Q(2)])
def test_gegenbauer_derivative_and_ode(suite, lam):
    labels = ["%s (%d,%s)" % (kind, n, lam) for n in range(1, 13) for kind in ("dC", "Gegenbauer ODE")]
    suite("laguerre").assert_passed(labels)


def test_gegenbauer_parity():
    for n in range(0, 10):
        poly = gegenbauer(n, Q(3, 2))
        for j, c in enumerate(poly.coeffs):
            if (j - n) % 2:
                assert c == 0
