import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

import coulombev
from coulombev import brackets as br
from coulombev import coulomb as cb
from coulombev import dimreg as dr
from coulombev import lagint, shoot, suites
from coulombev.lagint import assoc_laguerre
from coulombev.exactnum import (
    DomainError,
    GAMMA_E,
    LN_PI,
    ONE,
    SymExpr,
    ZETA2,
    _eps_value,
    lam,
)

S = SymExpr.scalar
HALF = Q(1, 2)
B0 = -Q(3, 8)  # (l-1/2)(l+1/2)(l+3/2) at l = 0


class TestSeriesCoefficients:
    def test_first_coefficients(self):
        for l in (0, 1, 2):
            for eps in (Q(0), Q(1, 100), Q(-3, 100)):
                t = dr.series_coefficients(l, eps, 3)
                assert t.a[(1, 0)] == Q(1, 2)
                assert t.a[(1, 1)] == Q(-1) / (2 * (1 + l) * (1 + 2 * eps))

    def test_collapse_reproduces_laguerre_ratio(self, suite):
        labels = ["collapse (%d,%d,%d)" % (n, l, j) for n in range(1, 9) for l in range(n) for j in range(n - l + 2)]
        suite("dimreg-symbolic").assert_passed(labels)

    def test_singular_eps(self):
        with pytest.raises(DomainError):
            dr.series_coefficients(0, Q(-1, 2), 2)

    def test_l_must_be_a_non_negative_integer(self):
        for l in (-1, Q(1, 2), 1.0):
            with pytest.raises(DomainError, match="l must be a non-negative integer"):
                dr.series_coefficients(l, 0, 3)


class TestShooting:
    def test_eps_zero_reproduces_integers(self, suite):
        labels = ["nbar(0)=n (%d,%d)" % (n, l) for n in range(1, 21) for l in range(n)]
        assert len(labels) == 210
        suite("dimreg-numeric").assert_passed(labels)

    def test_l_dependence(self, suite):
        suite("dimreg-numeric").assert_passed(["nbar moves off n at eps = 0.01", "nbar l-dependence"])

    def test_galerkin_against_shoot(self, suite):
        # every l >= 1 shoot of the suite at eps != 0 has an independent nbar
        states = [(2, 1, e) for e in (5e-4, 1e-3, 0.005, 0.01, 0.02)]
        states += [(3, 1, e) for e in (5e-4, 1e-3, 0.005, 0.01, 0.02)] + [(3, 2, e) for e in (0.005, 0.01, 0.02)]
        labels = ["Galerkin nbar (%d,%d) eps=%r" % s for s in states]
        assert len(suite("dimreg-numeric").matching(r"Galerkin nbar .*")) == len(labels) == 13
        suite("dimreg-numeric").assert_passed(labels)

    def test_eps_range_guard(self):
        with pytest.raises(DomainError):
            dr.eigenvalue_shoot(cb.QuantumState(1, 0), 0.2)

    @pytest.mark.parametrize("fn", [dr.energy_series_numeric, dr.contact_numeric], ids=["energy", "contact"])
    @pytest.mark.parametrize(
        "eps,mu,message",
        [
            (math.nan, 1.0, "numeric eps must be finite with |eps| < 1/4, got nan"),
            (0.9, 1.0, "numeric eps must be finite with |eps| < 1/4, got 0.9"),
            (0.01, math.nan, "mu = nan must be finite and positive"),
            (0.01, math.inf, "mu = inf must be finite and positive"),
            (0.01, 0.0, "mu = 0.0 must be finite and positive"),
            (0.01, -1.0, "mu = -1.0 must be finite and positive"),
        ],
        ids=["eps-nan", "eps-0.9", "mu-nan", "mu-inf", "mu-zero", "mu-negative"],
    )
    def test_expansion_guards(self, fn, eps, mu, message):
        with pytest.raises(DomainError) as err:
            fn(cb.QuantumState(1, 0), eps, mu)
        assert str(err.value) == message

    def test_range_edge_branch_selection(self):
        # at eps = 0.05 the (3,2) eigenvalue drops below n - 1/2 while the
        # (4,2) one rises above 4 - 1/2; node counting must accept the branch
        # that Newton, started at the Galerkin value, converges to
        eig = dr.eigenvalue_shoot(cb.QuantumState(3, 2), 0.05)
        est = dr.nbar_expansion(cb.QuantumState(3, 2)).numeric(0.05)
        assert abs(eig.nbar - est) < 0.05
        eig4 = dr.eigenvalue_shoot(cb.QuantumState(4, 2), 0.05)
        assert eig4.nbar > eig.nbar + 0.5

    def test_high_n(self):
        # the node count sees all 11 nodes of (12, 0), also those where
        # |L| < 1.  The reference is the series root of test_nbar_pinned, at
        # 130 digits; n = 20 is the largest validated n
        eig = dr.eigenvalue_shoot(cb.QuantumState(12, 0), 0.01)
        assert abs(eig.nbar - 11.392605468840447) < 1e-12
        with pytest.raises(DomainError, match="n <= 20"):
            dr.eigenvalue_shoot(cb.QuantumState(21, 0), 0.01)

    def test_truncation_past_n_max(self):
        # the Taylor truncation holds to n = 20: each of the 132 states
        # 13 <= n <= 20 shoots at eps = 0, where the start nbar = n is
        # exact, back to n
        off = {}
        for n in range(13, 21):
            for l in range(n):
                try:
                    off[n, l] = abs(dr.eigenvalue_shoot(cb.QuantumState(n, l), 0.0).nbar - n)
                except dr.ShootingError as exc:
                    off[n, l] = exc.reason
        assert len(off) == 132
        assert {s: e for s, e in off.items() if not (isinstance(e, float) and e <= 1e-13)} == {}

    @pytest.mark.parametrize("n,l", [(14, 6), (14, 7)])
    def test_count_nodes_high_l(self, n, l):
        # the exact eps = 0 solution L = L_{n-l-1}^{2l+1}(rho)/L(0): the lobes
        # of e^{-rho/2} L next to its outer nodes lie far below L(0) = 1,
        # those of the radial function rho^l e^{-rho/2} L do not
        coeffs = [float(c) for c in assoc_laguerre(n - l - 1, 2 * l + 1).coeffs]
        L = np.polynomial.Polynomial(coeffs) / coeffs[0]
        sol = lambda x: np.array([L(x), L.deriv()(x)])
        assert shoot._count_nodes(sol, l, 1e-3, 4.0 * n + 2.0 * l + 4.0) == n - l - 1

    @pytest.mark.parametrize("seed", range(4))
    def test_count_nodes_rule(self, seed):
        # the rule of the scalar loop it replaced: values below the floor
        # 1e-9 max|v| are skipped, values at it count, the sign is copysign's
        # (0.0 is +, -0.0 is -) and every change of sign is a node; at rho0 =
        # rho_hi = 0 the radial factor is exactly 1, so sol's values are counted
        def loop(vals):
            floor = 1e-9 * float(np.max(np.abs(vals)))
            nodes, last = 0, 0.0
            for v in vals:
                if abs(v) < floor:
                    continue
                s = math.copysign(1.0, v)
                if last and s != last:
                    nodes += 1
                last = s
            return nodes

        rng = np.random.default_rng(seed)
        pool = [1.0, -1.0, 1e-9, -1e-9, 5e-10, -5e-10, 0.0, -0.0, 0.3, -2e-3]
        cases = [rng.choice(pool, 1600), np.where(rng.random(1600) < 0.5, 0.0, -0.0)]
        cases.append(np.concatenate([[1.0, -1e-9, 1e-9, -9.99e-10, 0.0, -0.0, 5e-10, -1.0], np.zeros(1592)]))
        for vals in cases:
            count = shoot._count_nodes(lambda xs: np.array([vals, vals]), 0, 0.0, 0.0)
            assert type(count) is int and count == loop(vals)
        assert loop(cases[2]) == 3

    @pytest.mark.parametrize("n", range(1, 21))
    def test_range_edge_every_l(self, n):
        # eps = +-0.05 is where nbar lies farthest from n; the node count
        # inside the shoot checks that Newton found each branch, which at
        # n = 13, 14 and +0.05 takes a start closer than the O(eps) expansion
        for l in range(n):
            assert dr.eigenvalue_shoot(cb.QuantumState(n, l), 0.05).nbar < n
            assert dr.eigenvalue_shoot(cb.QuantumState(n, l), -0.05).nbar > n

    def test_integrate_overflow(self, capfd):
        # nbar^k overflows in the series start; the solver reports it as one
        # ShootingError line and lets no numpy warning through
        table = dr.series_coefficients(0, 0.01, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dr.ShootingError) as info:
                shoot._integrate(0, 0.01, 1e300, 1e-3, 30.0, table)
        msg = str(info.value)
        assert "\n" not in msg and "left the float range" in msg
        assert capfd.readouterr().err == ""

    def test_nbar_expansion_against_shooting(self):
        st = cb.QuantumState(2, 1)
        slope = float(dr.nbar_expansion(st).coeff(1).numeric())
        e1 = dr.eigenvalue_shoot(st, 1e-3).nbar
        e2 = dr.eigenvalue_shoot(st, 5e-4).nbar
        richardson = 2 * (e2 - 2) / 5e-4 - (e1 - 2) / 1e-3
        assert abs(richardson - slope) < 2e-3 * abs(slope)


    @pytest.mark.parametrize(
        "n,l,eps,mu,ref",
        [
            (1, 0, 0.01, 0.7, 0.9815731309597329),
            (3, 1, 1e-3, 1.0, 2.9899717390024225),
            (3, 2, 0.01, 1.0, 2.8891993327996628),
            (3, 2, -0.048, 1.2, 3.5761036800380764),  # beyond n + 1/2
            (4, 2, 0.05, 1.0, 3.255085196793786),
        ],
        ids=["1-0-0.01-0.7", "3-1-0.001-1.0", "3-2-0.01-1.0", "3-2--0.048-1.2", "4-2-0.05-1.0"],
    )
    def test_nbar_pinned(self, n, l, eps, mu, ref):
        # reference values: the root in nbar of the generalized series
        # sum a_jk nbar^k rho^(j + 2 eps k), summed to convergence with mpmath
        # at 60 digits at rho = 50 + 10 n, where the decaying solution's
        # remaining weight moves the root by far less than 1e-16; nbar does
        # not depend on mu
        eig = dr.eigenvalue_shoot(cb.QuantumState(n, l), eps, mu)
        assert abs(eig.nbar - ref) <= 1e-13

    @pytest.mark.parametrize(
        "n,l,eps,mu",
        [(1, 0, 0.01, 0.7), (3, 1, 1e-3, 1.0), (3, 2, 0.01, 1.0), (3, 2, -0.048, 1.2), (4, 2, 0.05, 1.0)],
        ids=["1-0-0.01-0.7", "3-1-0.001-1.0", "3-2-0.01-1.0", "3-2--0.048-1.2", "4-2-0.05-1.0"],
    )
    def test_dense_output_is_a_solve_at_nbar(self, n, l, eps, mu):
        # at the states of test_nbar_pinned the dense output, Newton's last
        # solve corrected by its M channel, equals a fresh solve at the
        # converged nbar on the brace nodes, under
        # the weight e^{-rho} of the braces' integrands; unweighted, the
        # growing solution that any solve within rounding of nbar carries
        # separates the two at the outer nodes
        eig = dr.eigenvalue_shoot(cb.QuantumState(n, l), eps, mu)
        x = shoot._nodes(eig)[0]
        x = x[x > eig.rho0]
        fresh = shoot._integrate(l, eps, eig.nbar, eig.rho0, eig.rhomax, eig.table)[1](0.0)(x) * np.exp(-x)
        shot = eig.sol(x) * np.exp(-x)
        assert np.all(np.abs(shot - fresh).max(axis=1) <= 1e-13 * np.abs(fresh).max(axis=1))

    @pytest.mark.parametrize("l,eps", [(0, 0.01), (2, -0.048)])
    def test_eval_series_matches_term_loop(self, l, eps):
        # the array sums take the a_jk in another order than the term-by-term
        # loop they replaced; for rho <= 1/3 the terms fall fast enough that
        # the two agree to a few ulps, at a float rho as on an array
        table, nbar = dr.series_coefficients(l, eps, 12), 2.5
        rho = np.array([1e-6, 1e-4, 1e-3, 0.3])
        for dnbar in (False, True):
            val = der = 0.0
            for (j, k), c in table.a.items():
                if dnbar and not k:
                    continue
                c = float(c) * (k * nbar ** (k - 1) if dnbar else nbar**k)
                power = j + 2 * eps * k
                val += c * rho**power
                if power:
                    der += c * power * rho ** (power - 1)
            np.testing.assert_allclose(shoot.eval_series(table, nbar, rho, dnbar), (val, der), rtol=1e-14, atol=0)
            at_rho0 = shoot.eval_series(table, nbar, 1e-3, dnbar)
            np.testing.assert_allclose(at_rho0, (val[2], der[2]), rtol=1e-15, atol=0)

    def test_dense_output_first_order_in_step(self):
        # a converged step is often below the rounding of nbar; a step of 1e-6
        # shows the correction: the error falls from O(step) to O(step^2)
        table = dr.series_coefficients(0, 0.01, 12)
        x = np.linspace(2e-3, 29.0, 500)
        dense = shoot._integrate(0, 0.01, 0.99, 1e-3, 30.0, table)[1]
        fresh = shoot._integrate(0, 0.01, 0.99 - 1e-6, 1e-3, 30.0, table)[1](0.0)(x) * np.exp(-x)

        def error(step):
            return np.max(np.abs(dense(step)(x) * np.exp(-x) - fresh).max(axis=1) / np.abs(fresh).max(axis=1))

        assert error(1e-6) < 1e-11 and error(0.0) > 1e-7 and error(-1e-6) > 1e-7

    @staticmethod
    def _count_solves(monkeypatch):
        """The nbar of every `_integrate` call made after this one."""
        calls = []
        integrate = shoot._integrate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(shoot, "_integrate", counting)
        return calls

    @pytest.mark.parametrize("n,l,eps", [(1, 0, 0.0), (3, 2, -0.048), (4, 2, 0.05)])
    def test_solve_budget(self, monkeypatch, n, l, eps):
        calls = self._count_solves(monkeypatch)
        dr.eigenvalue_shoot(cb.QuantumState(n, l), eps)
        assert calls  # the patch reached the solver
        # the dense output needs no solve of its own, so at eps = 0, where
        # the start nbar = n is exact, one Newton solve is the whole shoot;
        # elsewhere the Galerkin start is within 6e-11 of nbar, so one Newton
        # step converges and a second solve confirms it
        assert len(calls) == {0.0: 1, -0.048: 2, 0.05: 2}[eps]

    @pytest.mark.parametrize("scale,eps", [(0.8, -0.046), (1.2, -0.05)])
    def test_numeric_oracles_solves(self, monkeypatch, scale, eps):
        # the shoots of one perfbench numeric-oracles pass, at the ends of its
        # seeded ranges: nbar(0) at (1, 0), the pole fit at (1, 0) at
        # eps = (4, 2, 1) x 0.005 x scale and the energy order at (3, 2) at
        # (eps, eps/2): one solve at eps = 0 and two at each other point
        calls = self._count_solves(monkeypatch)
        points = [(1, 0, 0.0)] + [(1, 0, f * 0.005 * scale) for f in (4, 2, 1)] + [(3, 2, eps), (3, 2, eps / 2)]
        for n, l, e in points:
            dr.eigenvalue_shoot(cb.QuantumState(n, l), e, mu=0.9)
        assert len(calls) == 11

    def test_galerkin_exact_at_eps_zero(self):
        # at eps = 0 the basis is the 3D eigenbasis, W = I, and every nbar is
        # k + l + 1 to the last bit, so the shoot's start there is exact
        size = shoot._GALERKIN_SIZE
        for l in range(shoot._N_MAX):
            assert shoot.galerkin_nbar(l, 0.0, size).tolist() == [k + l + 1.0 for k in range(size)]

    def test_galerkin_basis_guard(self, monkeypatch):
        # every validated branch n_r < _N_MAX has its Galerkin start; a branch
        # beyond the basis is a one-line DomainError, not an IndexError
        assert shoot._GALERKIN_SIZE > shoot._N_MAX
        monkeypatch.setattr(shoot, "_GALERKIN_SIZE", 3)
        with pytest.raises(DomainError) as err:
            dr.eigenvalue_shoot(cb.QuantumState(4, 0), 0.01)
        assert str(err.value) == "branch n_r = 3 outside the Galerkin basis of 3 functions"

    def test_error_context(self, monkeypatch):
        monkeypatch.setattr(shoot, "_count_nodes", lambda sol, l, rho0, rho_hi: 3)
        st = cb.QuantumState(1, 0)
        with pytest.raises(dr.ShootingError) as info:
            dr.eigenvalue_shoot(st, 0.01, mu=0.7)
        exc = info.value
        assert (exc.state, exc.eps, exc.mu) == (st, 0.01, 0.7)
        assert (exc.nodes, exc.nodes_expected) == (3, 0)
        # Newton starts at the Galerkin value and converges on the 1s root
        nbar, mismatch = exc.iterates[-1]
        assert exc.iterates[0][0] == shoot.galerkin_nbar(0, 0.01, shoot._GALERKIN_SIZE)[0]
        assert abs(nbar - 0.9815731309597329) < 1e-13 and abs(mismatch) < abs(exc.iterates[0][1])
        msg = str(exc)
        assert "\n" not in msg
        assert "wrong eigenvalue branch" in msg and "nodes 3, expected 0" in msg
        assert "eps = 0.01, mu = 0.7" in msg
        assert "nbar %.17g mismatch %.3e after %d solves" % (nbar, mismatch, len(exc.iterates)) in msg


class TestEnergyExpansion:
    def test_reference_values(self):
        s = dr.energy_expansion(cb.QuantumState(1, 0))
        assert s.coeff(0) == S(Q(-1, 2))
        assert s.coeff(1) == Q(-1, 2) * SymExpr({lam("mu"): Q(4), ONE: Q(6)})
        s = dr.energy_expansion(cb.QuantumState(2, 1))
        assert s.coeff(1) == Q(-1, 8) * SymExpr({lam("mu"): Q(4), ONE: Q(22, 3) + 1})


    def test_order_of_accuracy(self, suite):
        run = suite("dimreg-numeric")
        for (n, l) in [(1, 0), (2, 0), (2, 1), (3, 1)]:
            flags = run.matching(re.escape("energy order (%d,%d): ratio " % (n, l)) + ".*")
            assert flags == [True], (n, l)

class TestContactExpansion:
    def test_reference_value_1s(self):
        s = dr.contact_expansion(cb.QuantumState(1, 0))
        assert s.coeff(0) == S(1)
        expect = SymExpr(
            {lam("mu"): Q(3), ONE: Q(4), LN_PI: HALF, GAMMA_E: -HALF, ZETA2: Q(-2)}
        )
        assert s.coeff(1) == expect

    def test_numeric_cross_check(self):
        st = cb.QuantumState(1, 0)
        devs = []
        for eps in (1e-3, 5e-4):
            eig = dr.eigenvalue_shoot(st, eps)
            num = math.sqrt(dr.phibar2_numeric(eig))
            devs.append(abs(num / dr.contact_numeric(st, eps) - 1))
        assert devs[0] / devs[1] > 3.0  # O(eps^2) residual


class TestDivergentTables:
    # each l = 0 row checks pole and finite part together, n <= 10
    @pytest.mark.parametrize("n", range(1, 11))
    def test_V3(self, suite, n):
        suite("dimreg-symbolic").assert_passed(["V3 n=%d" % n, "V3 units n=%d" % n])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_VVprime(self, suite, n):
        suite("dimreg-symbolic").assert_passed(["V.V' n=%d" % n])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_Vprime_sq(self, suite, n):
        suite("dimreg-symbolic").assert_passed(["(V')2 n=%d" % n, "(V')2 units n=%d" % n])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_V2p2(self, suite, n):
        suite("dimreg-symbolic").assert_passed(["V2.p2 n=%d" % n])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_p2Vp2(self, suite, n):
        suite("dimreg-symbolic").assert_passed(["p2.V.p2 n=%d" % n])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_finite_composites(self, suite, n):
        tags = ("p6", "p4.V", "V.p2.V", "r4e/r2.dr2", "r4e/r.dr3", "r4e.p2.V", "r4e.p4", "p.r4e.p.V", "r4e.p.V.p")
        suite("dimreg-symbolic").assert_passed(["%s n=%d" % (tag, n) for tag in tags])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_beta_composites(self, n):
        # the entries the table writes through (1/beta^2)<V3>
        v3 = dr._primitive_memo(n, -3, 3, 0, 0, 1)  # beta int r^{D-4+6eps} Rbar^2
        checks = [
            ("r4e/r2.p2", v3.scale(2).shift_dims(mr=1)
             + dr.value_as_brace(cb.Value(S(Q(-2, n**5)), 4, 4), n, 1, 1)),
            ("r4e/r.dr.V", v3),
            ("r4e.dr2.V", v3.scale(-2)
             + dr.value_as_brace(cb.Value(S(Q(-1, n**4) + Q(2, n**3)), 3, 4), n, 0, 1)),
            ("r4e.dr2.p2", v3.scale(4).shift_dims(mr=1)
             + dr.value_as_brace(cb.Value(S(Q(-2, n**5) + Q(3, n**4) - Q(4, n**3)), 4, 4), n, 1, 1)),
            ("r4e/r.dr.p2", v3.scale(-2).shift_dims(mr=1)
             + dr.value_as_brace(cb.Value(S(Q(1, n**5)), 4, 4), n, 1, 1)),
        ]
        for tag, rhs in checks:
            lhs = dr.divergent_expectation(tag, n, 0)
            assert (lhs - rhs).series.is_zero(), tag

    def test_l0_composite_pvpv(self):
        for n in range(1, 9):
            lhs = dr.divergent_expectation("p.V.p.V", n, 0)
            fin = (4 * n * n + 2) / (4 * B0 * n**5) + Q(4, n**3)
            rhs = dr.divergent_expectation("V3", n, 0).scale(-1).shift_dims(mr=1) + dr.value_as_brace(
                cb.Value(S(fin), 4, 6), n, 1, 3
            )
            assert (lhs - rhs).series.is_zero()

    def test_unknown_tag(self):
        with pytest.raises(dr.DivergentCatalogError):
            dr.divergent_expectation("bogus", 1, 0)


class TestLPositiveBranch:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_tables(self, suite, n):
        # every tag against its term list integrated by the catalog's oracle
        labels = ["%s (%d,%d)" % (tag, n, l) for l in range(1, n) for tag in dr.divergent_tags()]
        suite("dimreg-symbolic").assert_passed(labels)

    @pytest.mark.parametrize("tag,twin,sign", [(tag, twin, sign) for tag, (sign, twin) in dr._TWINS.items()])
    def test_closed_form_twins(self, suite, tag, twin, sign):
        # n <= 10 in the suite; at large n, where no oracle reaches, the same identity
        labels = ["twin %s (%d,%d)" % (tag, n, l) for n in range(2, 11) for l in range(1, n)]
        suite("dimreg-symbolic").assert_passed(labels)
        for n in (100, 1000):
            for l in (1, 3, n // 2, n - 1):
                twin_sym = cb.expectation_closed(twin, cb.QuantumState(n, l)).sym
                assert dr.divergent_expectation(tag, n, l).sym == sign * twin_sym, (n, l)

    def test_no_convolution(self, monkeypatch):
        # every l > 0 value reads catalog closed forms: no term lacks a row, or needs l >= 2
        monkeypatch.setattr(lagint, "convolve_into", None)
        for tag in dr.divergent_tags():
            assert isinstance(dr.divergent_expectation(tag, 1000, 1), cb.Value), tag
        assert all(not res for _, res in dr.identity_residuals(1000, 1))

    def test_units_must_agree(self):
        with pytest.raises(DomainError):
            dr._units([dr._Term((1,), -2, 2, beta=2), dr._Term((1,), -3, 3, beta=2)])


class TestIdentityNetwork:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_l0(self, suite, n):
        flags = suite("dimreg-symbolic").matching(r"identity .+ " + re.escape("(n=%d, l=0)" % n))
        assert flags and all(flags)

    def test_l_positive(self, suite):
        run = suite("dimreg-symbolic")
        for n in range(2, 9):
            for l in range(1, n):
                flags = run.matching(r"identity .+ " + re.escape("(%d,%d)" % (n, l)))
                assert flags and all(flags), (n, l)


class TestPrimitiveMemo:
    @staticmethod
    def count_primitives(monkeypatch, work):
        """Head/tail primitives computed by work() on a cold memo."""
        calls = []
        inner = dr._head_tail_primitive

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(dr, "_head_tail_primitive", counting)
        dr._primitive_memo.cache_clear()
        try:
            work()
        finally:
            dr._primitive_memo.cache_clear()
        return calls

    @pytest.mark.parametrize("n", range(1, 5))
    def test_identity_budget(self, monkeypatch, n):
        calls = self.count_primitives(monkeypatch, lambda: dr.identity_residuals(n, 0))
        assert 0 < len(calls) <= 7

    def test_divergent_tags_budget(self, monkeypatch):
        def work():
            for tag in dr.divergent_tags():
                dr.divergent_expectation(tag, 3, 0)

        calls = self.count_primitives(monkeypatch, work)
        assert len(dr.divergent_tags()) == 23
        assert 0 < len(calls) <= 23


# every divergent tag and every catalog oracle for n <= 4, as {label: repr}
ALL_VALUES = """
from functools import partial
from coulombev import coulomb as cb, dimreg as dr

def queries():
    out = []
    for n in range(1, 5):
        for l in range(n):
            st = cb.QuantumState(n, l)
            for tag in dr.divergent_tags():
                out.append(("div|%s|%d|%d" % (tag, n, l), partial(dr.divergent_expectation, tag, n, l)))
            for tag in cb.catalog_tags():
                if l >= cb.CATALOG[tag].min_l:
                    out.append(("cat|%s|%d|%d" % (tag, n, l), partial(cb.expectation_oracle, tag, st)))
    return out
"""


def test_cold_reversed_values_match_warm():
    # a fresh process in reversed order must see the same values as this one,
    # whose caches earlier tests have filled: no cache leaks state between calls
    script = ALL_VALUES + "import json\nprint(json.dumps({k: repr(f()) for k, f in reversed(queries())}))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(coulombev.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    cold = json.loads(proc.stdout)
    namespace = {}
    exec(ALL_VALUES, namespace)
    warm = {k: repr(f()) for k, f in namespace["queries"]()}
    assert len(warm) > 800
    assert cold == warm


def test_exact_divergent_outputs_pinned():
    # every divergent tag and every identity residual for n <= 10, all l, as
    # "tag/n/l<TAB>repr" lines: the exact layer must stay identical symbol for symbol
    h = hashlib.sha256()
    count = 0
    for n in range(1, 11):
        for l in range(n):
            for tag in dr.divergent_tags():
                h.update(("%s/%d/%d\t%r\n" % (tag, n, l, dr.divergent_expectation(tag, n, l))).encode())
                count += 1
            h.update(("identity/%d/%d\t%r\n" % (n, l, dr.identity_residuals(n, l))).encode())
            count += 1
    assert count == 1320
    assert h.hexdigest() == "922d82abf25118574e75e76a72b4a91858c2389469e545bc1267286817eb08a6"


def test_exact_divergent_outputs_pinned_high_n():
    # the l = 0 tail past n = 10: every divergent tag and the identity residuals at
    # n = 20, 40, 80, as in test_exact_divergent_outputs_pinned
    h = hashlib.sha256()
    count = 0
    for n in (20, 40, 80):
        for tag in dr.divergent_tags():
            h.update(("%s/%d/0\t%r\n" % (tag, n, dr.divergent_expectation(tag, n, 0))).encode())
            count += 1
        h.update(("identity/%d/0\t%r\n" % (n, dr.identity_residuals(n, 0))).encode())
        count += 1
    assert count == 72
    assert h.hexdigest() == "39738f84c37fa9cfd50e2b23ef23bd618c1b9077b0c01310d4ffba8bd56f47f8"


def test_bracket_outputs_pinned():
    # every momentum-space bracket for n <= 10, all l, as "tag/n/l<TAB>repr" lines
    h = hashlib.sha256()
    count = 0
    for n in range(1, 11):
        for l in range(n):
            for tag in br.bracket_tags():
                h.update(("%s/%d/%d\t%r\n" % (tag, n, l, br.bracket(tag, cb.QuantumState(n, l)))).encode())
                count += 1
    assert count == 825
    assert h.hexdigest() == "f2608ed81dddeb1bebe5a2add7f13d026a948a7ef6c80fe34861467f51a7ca84"


# every l = 0 tag whose exact pole is nonzero is pole-fitted at n = 1 and 2; a
# literal, so a broken term list fails test_pole_tags instead of collection
POLE_TAGS = [
    "(V')2", "V.V'", "V.V'.dr", "V2.p2", "V3", "drd.V.dr.V", "p.V.p.V",
    "p2.V.p2", "r4e.dr2.V", "r4e.dr2.p2", "r4e/r.dr.V", "r4e/r.dr.p2", "r4e/r2.p2",
]
POLE_IDS = {"V3": "V3-v3_brace_numeric", "(V')2": "(V')2-vp2_brace_numeric"}


class TestPoleCrossCheck:
    def test_pole_tags(self):
        for n in (1, 2):
            assert POLE_TAGS == [tag for tag in dr.divergent_tags() if dr.divergent_expectation(tag, n, 0).pole()], n

    @pytest.mark.parametrize("tag", POLE_TAGS, ids=lambda tag: POLE_IDS.get(tag, tag + "-_brace_numeric"))
    def test_pole_fit(self, suite, tag):
        flags = suite("dimreg-pole").matching(re.escape(tag) + r" pole fit n=[12] .*")
        assert flags == [True, True]

    # references for the braces and phibar^2 at mu = 1, from the definitions
    # of `_brace_numeric` (Gamma head on [0, inf), remainder on [0, rho_max])
    # but computed independently of the shoot and the tanh-sinh rule: nbar is
    # the 60-digit series root of test_nbar_pinned, L, L' and L'' come from
    # the generalized series summed to convergence at 50 digits, the remainder
    # is summed as T_a F_b + H_a T_b from the split series, and the quadrature
    # is mpmath's adaptive quad at 50 digits
    @pytest.mark.parametrize(
        "n, eps, v3, vp2",
        [(1, 0.01, -99.579435089686825, -195.05829756460476), (2, 0.005, -199.17192026526143, -395.31358533252745)],
        ids=["1-0.01", "2-0.005"],
    )
    def test_braces_pinned(self, n, eps, v3, vp2):
        eig = suites._shot(n, 0, eps)
        assert abs(dr.v3_brace_numeric(eig) / v3 - 1) < 1e-12
        assert abs(dr.vp2_brace_numeric(eig) / vp2 - 1) < 1e-12

    @pytest.mark.parametrize(
        "n, eps, r4e_dr2_v, phibar2",
        [(1, 0.01, -193.52998450554085, 0.31176021097767898), (2, 0.005, -392.20674403957079, 0.039952401489147370)],
        ids=["1-0.01", "2-0.005"],
    )
    def test_quadratures_pinned(self, n, eps, r4e_dr2_v, phibar2):
        eig = suites._shot(n, 0, eps)
        assert abs(shoot._brace_numeric("r4e.dr2.V", eig) / r4e_dr2_v - 1) < 1e-12
        assert abs(dr.phibar2_numeric(eig) / phibar2 - 1) < 1e-12

    def test_brace_takes_two_derivatives_at_most(self):
        with pytest.raises(DomainError, match="at most two radial derivatives"):
            shoot._brace_numeric("r4e/r.dr3", suites._shot(1, 0, 0.01))


class TestContractTypes:
    def test_eps_param(self):
        # one guard for a float or Fraction eps, in the exact recursion and the shoot
        for good in (0.01, -0.2, Q(1, 100), Q(-24, 100)):
            assert _eps_value(good) == good
        for bad in (0.3, -0.25, Q(1, 4), Q(-7, 20), float("nan"), float("inf")):
            with pytest.raises(DomainError, match="finite with \\|eps\\| < 1/4"):
                dr.series_coefficients(0, bad, 2)
            with pytest.raises(DomainError, match="finite with \\|eps\\| < 1/4"):
                dr.eigenvalue_shoot(cb.QuantumState(1, 0), bad)
        t = dr.series_coefficients(0, Q(1, 100), 2)
        assert t.a[(1, 0)] == Q(1, 2)

    def test_series_head(self, suite):
        # the tabulated head a_00, a_10, a_11 against the a_jk recursion at exact eps and as
        # eps-series; its eps = 0 collapse onto L_{n-1}^1 is the collapse (n,0,j) check
        labels = ["head a_jk eps=%s" % e for e in (0, Q(1, 100), Q(-1, 7), Q(1, 5))] + ["head (1+2eps) a_jk"]
        labels += ["collapse (%d,0,%d)" % (n, j) for n in range(1, 9) for j in (0, 1)]
        suite("dimreg-symbolic").assert_passed(labels)
        assert [(j, k) for j, k, _ in dr._series_head(2)] == [(0, 0), (1, 0), (1, 1)]
        assert dr._series_head(0) == ()

    def test_series_head_guard(self):
        # every term has head depth p <= 2; a deeper head is not tabulated
        with pytest.raises(DomainError, match="tabulated for p <= 2"):
            dr._series_head(3)
