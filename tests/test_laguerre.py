import math
from fractions import Fraction as Q

import pytest

from coulombev import lagint
from coulombev.exactnum import DomainError, factorial
from coulombev.lagint import Poly, assoc_laguerre, gegenbauer, laguerre_table, subtract_laguerre


def test_reference_values():
    assert assoc_laguerre(0, 5) == Poly([1])
    assert assoc_laguerre(1, 1) == Poly([2, -1])
    assert assoc_laguerre(2, 1) == Poly([3, -3, Q(1, 2)])
    assert assoc_laguerre(-2, 3).is_zero()


@pytest.mark.parametrize("k", [0, 1, 5])
def test_coefficients_match_binomial_form(k):
    # the Poly read from the integer table against c_r = (-1)^r/r! binom(n+k, n-r)
    for n in range(-1, 40):
        expect = Poly([Q(-1) ** r / factorial(r) * math.comb(n + k, n - r) for r in range(n + 1)])
        assert assoc_laguerre(n, k) == expect, n


def test_table_matches_binomial_form():
    # every power r <= n in order, c_r/den = (-1)^r/r! binom(n+k, n-r), and den the least one
    for n, k in [(n, k) for n in range(-1, 41) for k in range(0, 26)] + [(1000, 1)]:
        den, pairs = laguerre_table(n, k)
        assert [j for j, _ in pairs] == list(range(n + 1)), (n, k)
        expect = [Q((-1) ** r * math.comb(n + k, n - r), math.factorial(r)) for r in range(n + 1)]
        assert [Q(c, den) for _, c in pairs] == expect, (n, k)
        assert math.gcd(den, *(c for _, c in pairs)) == 1, (n, k)


def test_subtraction():
    assert subtract_laguerre(1, 1, 1) == Poly([0, -1])
    assert subtract_laguerre(4, 2, 0) == assoc_laguerre(4, 2)
    assert subtract_laguerre(1, 1, 2).is_zero()


@pytest.mark.parametrize("p", [1.5, 1.0, Q(1, 2), float("nan"), -1, "1"])
def test_subtraction_depth_must_be_a_non_negative_integer(p):
    # a float depth once reached `[0] * p` and raised a bare TypeError
    with pytest.raises(DomainError, match="subtraction depth p must be a non-negative integer"):
        subtract_laguerre(3, 1, p)


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
    # k must be a non-negative integer: the table, its Poly and the moment oracle refuse the rest
    for k in (Q(1, 2), -1, float("nan")):
        for build in (assoc_laguerre, laguerre_table):
            with pytest.raises(DomainError):
                build(2, k)
        with pytest.raises(DomainError):
            lagint.brute_force_moment(lagint.MomentSpec(Q(1), 0, (2, 1, 0), (2, k)))
    with pytest.raises(DomainError):
        laguerre_table(Q(5, 2), 1)


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
