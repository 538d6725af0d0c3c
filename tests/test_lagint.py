import math
from fractions import Fraction as Q

import pytest

from coulombev import lagint as li
from coulombev.exactnum import (
    DivergenceError,
    DomainError,
    GAMMA2,
    GAMMA_E,
    ONE,
    SymExpr,
    ZETA2,
    diharmonic,
    factorial,
    harmonic as H,
)

S = SymExpr.scalar


def sym(one=Q(0), g=Q(0), z2=Q(0), g2=Q(0)):
    return SymExpr({ONE: one, GAMMA_E: g, ZETA2: z2, GAMMA2: g2})


class TestIntegralI:
    def test_reference_rows(self):
        for n in range(1, 13):
            assert li.integral_I(0, n - 1, 1) == S(1)
            assert li.integral_I(1, n - 1, 1) == S(1 if n == 1 else 0)
        assert li.integral_I(-1, 3, 1, p=1) == S(Q(-13, 3))  # 4(1 - H_4)
        assert li.integral_I(-2, 2, 1, p=2) == S(Q(1, 2))

    def test_general_table(self):
        def table(s, n, k):
            if 0 <= s <= k - 1:
                return factorial(s) * factorial(n + k - s - 1) / (factorial(n) * factorial(k - s - 1))
            if k <= s <= n + k - 1:
                return Q(0)
            return Q(-1) ** n * factorial(s - k) * factorial(s) / (factorial(n) * factorial(s - n - k))

        for n in range(0, 9):
            for k in range(0, 6):
                for s in range(0, n + k + 4):
                    assert li.integral_I(s, n, k) == S(table(s, n, k)), (s, n, k)

    def test_subtracted_once(self):
        for n in range(1, 13):
            assert li.integral_I(-1, n - 1, 1, p=1) == S(n * (1 - H(n)))
            assert li.integral_I(0, n - 1, 1, p=1) == S(1 - n)
            for s in range(1, n):
                assert li.integral_I(s, n - 1, 1, p=1) == S(-factorial(s) * n)
            for s in range(n, n + 4):
                assert li.integral_I(s, n - 1, 1, p=1) == S(
                    -factorial(s) * n + Q(-1) ** (n - 1) * factorial(s) * math.comb(s - 1, n - 1)
                )
        for n in range(2, 13):
            assert li.integral_I(-1, n - 2, 2, p=1) == S(Q(1, 4) * n * (n - 1) * (3 - 2 * H(n)))
            assert li.integral_I(0, n - 2, 2, p=1) == S(-Q(1, 2) * (n - 1) * (n - 2))
            assert li.integral_I(1, n - 2, 2, p=1) == S(-Q(1, 2) * (n + 1) * (n - 2))

    def test_subtracted_twice(self):
        for n in range(1, 13):
            assert li.integral_I(-2, n - 1, 1, p=2) == S(Q(n * (n + 1), 2) * (Q(3, n + 1) + H(n) - Q(5, 2)))
            assert li.integral_I(-1, n - 1, 1, p=2) == S(n * (Q(n + 1, 2) - H(n)))
            assert li.integral_I(0, n - 1, 1, p=2) == S(Q((n - 1) * (n - 2), 2))
            for s in range(1, n):
                assert li.integral_I(s, n - 1, 1, p=2) == S(factorial(s) * Q(n, 2) * ((s + 1) * n - (s + 3)))

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_deep_subtraction_against_oracle(self, p):
        # ^pI_s(n,k) is ^pK_s(n,k;0,0) at every p >= 1, checked here at depths past the reference rows
        for n in range(0, 9):
            for k in range(0, 6):
                for s in range(-p, 7):
                    brute = li.brute_force_moment(li.MomentSpec(Q(s), 0, (n, k, p)))
                    assert li.integral_I(s, n, k, p) == brute, (s, n, k)

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            li.integral_I(-1, 3, 1)
        with pytest.raises(DivergenceError):
            li.integral_I(-3, 3, 1, p=2)


class TestIntegralJ:
    def test_reference_rows(self):
        for n in range(1, 13):
            assert li.integral_J(0, n - 1, 1) == sym(one=-H(n - 1), g=-1)
            for s in range(1, n):
                expect = Q(-1) ** s * factorial(s - 1) * factorial(s) * factorial(n - 1 - s) / factorial(n - 1)
                assert li.integral_J(s, n - 1, 1) == S(expect)
        assert li.integral_J(1, 0, 1) == sym(one=1, g=-1)

    def test_Jnm35_rows(self):
        for n in range(3, 13):
            for s in range(0, 5):
                c = factorial(n + 1 - s) * factorial(s) / (factorial(n - 3) * factorial(4 - s))
                assert li.integral_J(s, n - 3, 5) == sym(one=c * (H(s) - H(n + 1 - s) + H(4 - s)), g=-c)

    def test_general_table(self):
        def table(s, n, k):
            if 0 <= s <= k - 1:
                c = factorial(s) * factorial(n + k - s - 1) / (factorial(n) * factorial(k - s - 1))
                return sym(one=c * (H(s) + H(k - s - 1) - H(n + k - s - 1)), g=-c)
            if k <= s <= n + k - 1:
                return S(Q(-1) ** (s - k + 1) * factorial(s - k) * factorial(s) * factorial(n + k - s - 1) / factorial(n))
            c = Q(-1) ** n * factorial(s - k) * factorial(s) / (factorial(n) * factorial(s - n - k))
            return sym(one=c * (H(s) + H(s - k) - H(s - n - k)), g=-c)

        for n in range(0, 8):
            for k in range(0, 5):
                for s in range(0, n + k + 3):
                    assert li.integral_J(s, n, k) == table(s, n, k), (s, n, k)


class TestIntegralK:
    def test_orthogonality_and_normalization(self, suite):
        labels = ["orthogonality (%d,%d,%d)" % (n, k, m) for n in range(0, 13) for k in range(0, 7) for m in range(0, 13)]
        labels += ["normalization (%d,%d)" % (n, k) for n in range(0, 13) for k in range(0, 7)]
        suite("lagint").assert_passed(labels)

    def test_summary_rows(self):
        for n in range(0, 13):
            for k in range(0, 7):
                f = factorial(n + k) / factorial(n)
                if k >= 2:
                    assert li.integral_K(k - 2, n, k, n, k) == S(f / (k * (k * k - 1)) * (2 * n + k + 1))
                if k >= 1:
                    assert li.integral_K(k - 1, n, k, n, k) == S(f / k)
                assert li.integral_K(k + 2, n, k, n, k) == S(f * (6 * n * (n + k + 1) + (k + 1) * (k + 2)))
                assert li.integral_K(k + 1, n, k, n, k + 1) == S(factorial(n + k + 1) / factorial(n))
                if n >= 1:
                    assert li.integral_K(k + 1, n, k, n - 1, k + 1) == S(-factorial(n + k) / factorial(n - 1))
                    assert li.integral_K(k + 2, n, k, n - 1, k + 1) == S(
                        -factorial(n + k) / factorial(n - 1) * (3 * n + 2 * k + 1)
                    )
        for n in range(1, 13):
            for a in range(0, n + 1):
                assert li.integral_K(0, n - 1, 1, n - a, a) == S(math.comb(n, a) * (0 if a == 0 else 1))
            for a in range(1, n + 1):
                assert li.integral_K(1, n - 1, 1, n - a, a) == S(n if a == 1 else 0)
            if n >= 2:
                assert li.integral_K(0, n - 2, 3, n - 2, 3) == S(Q(n * (n * n - 1) * (3 * n * n - 2), 60))
                assert li.integral_K(2, n - 1, 1, n - 1, 1) == S(2 * n * n)
                assert li.integral_K(2, n - 1, 1, n - 2, 2) == S(-n * (n - 1))
            if n >= 3:
                assert li.integral_K(0, n - 2, 3, n - 3, 4) == S(Q(n * (n * n - 1) * (n - 2) * (5 * n * n + n - 3), 360))
                assert li.integral_K(0, n - 3, 4, n - 3, 4) == S(
                    Q(n * (n * n - 1) * (n - 2) * (2 * n - 1) * (5 * n * n - 5 * n - 9), 2520)
                )
                assert li.integral_K(3, n - 1, 1, n - 3, 5) == S(n * (n - 1) * (n - 2))
                assert li.integral_K(4, n - 1, 1, n - 3, 5) == S(2 * n * (n - 1) * (n - 2) * (n + 3))
                assert li.integral_K(4, n - 2, 2, n - 3, 5) == S(-n * (n - 1) * (n - 2) * (n + 5))

    def test_subtracted_rows(self):
        for n in range(1, 13):
            assert li.integral_K(-1, n - 1, 1, n - 1, 1, p=1) == S(-Q(n * (n - 1), 2))
            assert li.integral_K(-1, n - 2, 2, n - 1, 1, p=1) == S(-Q(n * (n - 1) * (n - 2), 6))
            assert li.integral_K(-1, n - 1, 1, n - 1, 1, p=2) == S(0)
            assert li.integral_K(-2, n - 1, 1, n - 1, 1, p=2) == S(Q(n * (n - 1) * (n - 2), 12))
            assert li.integral_K(-1, n - 1, 1, n - 2, 2, p=2) == S(Q(n * (n - 1) * (n - 2), 12))
            if n >= 3:
                assert li.integral_K(1, n - 1, 1, n - 3, 5, p=2) == S(Q(1, 3) * n * (n - 1) * (n - 2) * (n - Q(3, 2)))
                assert li.integral_K(2, n - 1, 1, n - 3, 5, p=2) == S(2 * n * (n - 1) * (n - 2))
            if n >= 4:
                assert li.integral_K(2, n - 1, 1, n - 4, 6, p=2) == S(Q(7, 6) * n * (n - 1) * (n - 2) * (n - 3))


class TestIntegralLM:
    def test_L_rows(self):
        for n in range(1, 13):
            assert li.integral_L(0, n - 1, 1, n - 1, 1) == sym(one=-n * (H(n) - 1), g=-n)
            assert li.integral_L(1, n - 1, 1, n - 1, 1) == sym(one=n * H(n), g=-n)
            assert li.integral_L(2, n - 1, 1, n - 1, 1) == sym(one=2 * n * n * (H(n) + 1) - n, g=-2 * n * n)
            if n >= 2:
                assert li.integral_L(2, n - 1, 1, n - 2, 2) == sym(one=-n * (n - 1) * (H(n) + 1), g=n * (n - 1))
        for n in range(0, 11):
            for k in range(1, 6):
                f = factorial(n + k) / factorial(n)
                assert li.integral_L(k, n, k, n, k) == sym(one=f * H(n + k), g=-f)
                assert li.integral_L(k + 1, n, k, n, k) == sym(
                    one=f * ((2 * n + k + 1) * H(n + k) + 2 * n + 1), g=-f * (2 * n + k + 1)
                )
                c = f / k
                assert li.integral_L(k - 1, n, k, n, k) == sym(one=c * (2 * H(k) - H(n + k) - Q(1, k)), g=-c)
                if k >= 2:
                    c2 = f / (k * (k * k - 1))
                    assert li.integral_L(k - 2, n, k, n, k) == sym(
                        one=c2 * ((2 * n + k + 1) * (H(k + 1) + H(k - 2) - H(n + k)) - (2 * n + 1)),
                        g=-c2 * (2 * n + k + 1),
                    )
                if n >= 1:
                    f2 = factorial(n + k) / factorial(n - 1)
                    assert li.integral_L(k + 1, n, k, n - 1, k + 1) == sym(one=-f2 * (H(n + k) + 1), g=f2)

    def test_subtracted_L_row(self):
        for n in range(3, 13):
            base = -Q(1, 72) * (n - 1) * (n - 2)
            one = base * (36 + 75 * n - 73 * n * n) + base * 24 * n * (n - Q(3, 2)) * H(n)
            g = base * 24 * n * (n - Q(3, 2))
            assert li.integral_L(1, n - 1, 1, n - 3, 5, p=2) == sym(one=one, g=g)

    def test_M_rows(self):
        assert li.integral_M(1, 0, 1, 0, 1) == sym(one=0, g=-2, z2=1, g2=1)
        assert li.integral_M(1, 1, 1, 1, 1) == sym(one=4, g=-6, z2=2, g2=2)
        for n in range(1, 13):
            expect = sym(
                one=n * (H(n - 1) ** 2 + H(n - 1, 2)), z2=n, g=-2 * n * H(n), g2=n
            )
            assert li.integral_M(1, n - 1, 1, n - 1, 1) == expect
        for n in range(0, 11):
            for k in range(1, 6):
                f = factorial(n + k) / factorial(n)
                one = f * (H(n + k) ** 2 - H(n + k, 2) + 2 * H(n + k) * H(n) - 2 * diharmonic("-", n, n + k - 1))
                assert li.integral_M(k, n, k, n, k) == sym(one=one, g=-2 * f * H(n + k), z2=f, g2=f)


class TestBruteForce:
    def test_randomized_equivalence(self, suite):
        flags = suite("lagint").matching(r"oracle equivalence seed 99 .*")
        assert len(flags) == 200 and all(flags)

    def test_reference_values(self):
        spec = li.MomentSpec(Q(2), 0, (1, 1, 0), (1, 1))
        assert li.brute_force_moment(spec) == S(8)
        spec = li.MomentSpec(Q(1), 0, (1, 1, 1), None)
        assert li.brute_force_moment(spec) == S(-2)

    def test_divergence_names_monomial(self):
        with pytest.raises(DivergenceError):
            li.brute_force_moment(li.MomentSpec(Q(-2), 0, (3, 1, 1), None))


def gamma_derivative(t, m):
    """int_0^inf e^{-x} x^t ln^m x dx from harmonic numbers: t!, t! (H_t - gamma_E) and
    t! [(H_t - gamma_E)^2 + zeta(2) - H_t^(2)] for m = 0, 1, 2."""
    f, h = factorial(t), H(t)
    return (S(f), sym(one=f * h, g=-f), sym(one=f * (h * h - H(t, 2)), g=-2 * f * h, z2=f, g2=f))[m]


class TestMonoMoments:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_against_harmonic_numbers(self, m):
        for t in range(200):
            assert SymExpr(li.mono_moments([(t, 1)], m)) == gamma_derivative(t, m), t

    def test_integer_pairs_give_integer_sums(self):
        # the sums stay Python integers; the caller builds the Fractions
        for m in (0, 1, 2):
            sums = li.mono_moments([(3, 2), (0, -1), (9, 5)], m)
            assert sums and all(type(v) is int for v in sums.values()), m

    def test_weighted_sum(self):
        pairs = [(7, Q(-3, 4)), (0, 5), (2, 0), (150, Q(1, 9)), (-1, 0), (7, 2)]
        for m in (0, 1, 2):
            want = sum((c * gamma_derivative(t, m) for t, c in pairs if c), S(0))
            assert SymExpr(li.mono_moments(pairs, m)) == want

    def test_negative_power_diverges_unless_zero(self):
        assert SymExpr(li.mono_moments([(-3, 0), (1, 2)], 1)) == 2 * gamma_derivative(1, 1)
        for m in (0, 1, 2):
            with pytest.raises(DivergenceError):
                li.mono_moments([(1, 2), (-1, Q(1, 3))], m)

    @pytest.mark.parametrize("logpow", [-1, 3])
    def test_bad_log_power_before_the_pairs_are_read(self, logpow, monkeypatch):
        def pairs():
            raise AssertionError("pairs read before the log power was checked")
            yield

        def laguerre_table(*args):
            raise AssertionError("table built before the log power was checked")

        with pytest.raises(DomainError):
            li.mono_moments(pairs(), logpow)
        monkeypatch.setattr(li, "laguerre_table", laguerre_table)
        with pytest.raises(DomainError):
            li.brute_force_moment(li.MomentSpec(Q(1), logpow, (3, 1, 0), (2, 1)))


class TestIntegerOrders:
    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: li.integral_I(1, 2, Q(1, 2)), "k"),
            (lambda: li.integral_J(1, 2.0, 1), "n"),
            (lambda: li.integral_K(1, 2, 1, 1.0, 1), "n2"),
            (lambda: li.integral_L(0, 1, 1, 1, Q(3, 2)), "k2"),
            (lambda: li.integral_M(1, Q(1, 2), 1, 1, 1), "n"),
        ],
        ids=["I", "J", "K", "L", "M"],
    )
    def test_non_integer_order_is_named(self, call, name):
        with pytest.raises(DomainError, match=r"order %s must be an integer" % name):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: li.integral_I(1, 2, 1, p=-1),
            lambda: li.integral_I(1, -1, 1, p=-1),
            lambda: li.integral_K(1, 2, 1, 1, 1, p=-1),
            lambda: li.integral_L(1, 2, 1, 1, 1, p=-2),
        ],
        ids=["I", "I-negative-n", "K", "L"],
    )
    def test_negative_depth_is_named(self, call):
        with pytest.raises(DomainError, match=r"subtraction depth p must be a non-negative integer"):
            call()

    def test_negative_order_evaluates_to_zero(self):
        assert li.integral_I(0, -1, 1) == S(0)
        assert li.integral_K(1, 2, 1, -1, 1) == S(0)

    @pytest.mark.parametrize("s", [Q(1, 2), Q(1, 3), float("nan"), float("inf")], ids=["1/2", "1/3", "nan", "inf"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: li.integral_I(s, 2, 1),
            lambda s: li.integral_J(s, 1, 1),
            lambda s: li.integral_K(s, 2, 1, 2, 1),
            lambda s: li.integral_L(s, 2, 1, 1, 1, p=1),
            lambda s: li.integral_M(s, 1, 1, 1, 1),
            lambda s: li.brute_force_moment(li.MomentSpec(s, 0, (2, 1, 0), (2, 1))),
        ],
        ids=["I", "J", "K", "L", "M", "brute"],
    )
    def test_non_integer_power_is_named(self, call, s):
        with pytest.raises(DomainError) as err:
            call(s)
        assert str(err.value) == "power s must be an integer, got %r" % (s,)

    def test_integer_valued_power_evaluates(self):
        for s in (Q(2), 2.0):
            assert li.integral_K(s, 2, 1, 2, 1) == li.integral_K(2, 2, 1, 2, 1)
            assert li.brute_force_moment(li.MomentSpec(s, 1, (2, 1, 0), (2, 1))) == li.integral_L(2, 2, 1, 2, 1)
