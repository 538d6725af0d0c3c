"""Floating-point shooting and quadrature in D = 3 - 2*eps.

The eigenvalue nbar is shot from the generalized power series of the radial
equation (`dimreg.series_coefficients`) with a DOP853 solve to rho_max and
Brent's method on the tail value; the shot wave function then gives numeric
braces and phibar^2 by quadrature.  This layer only cross-checks the exact
eps-poles of `dimreg`, and it is the one part of the package that needs
numpy and scipy, so the exact modules do not import it: `dimreg` and the
package resolve its names on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .exactnum import DomainError, EULER_GAMMA, lam
from .coulomb import QuantumState
from .dimreg import (
    CoeffTable,
    _eps_value,
    contact_expansion,
    energy_expansion,
    eval_series,
    nbar_expansion,
    series_coefficients,
)


class ShootingError(RuntimeError):
    """A shoot that found no eigenvalue.

    Besides the reason it carries the state, eps and mu, the brackets tried
    as (lo, hi, tail(lo), tail(hi)), and the nodes counted in the last
    bracket that held a sign change (None if none did) against the nodes
    expected.  The message repeats these facts on one line.
    """

    def __init__(self, reason, state=None, eps=None, mu=None, brackets=(), nodes=None, nodes_expected=None):
        self.reason = reason
        self.state, self.eps, self.mu = state, eps, mu
        self.brackets = tuple(brackets)
        self.nodes, self.nodes_expected = nodes, nodes_expected
        bits = [reason]
        if state is not None:
            bits.append("(n, l) = (%d, %d), eps = %r, mu = %r" % (state.n, state.l, eps, mu))
        if self.brackets:
            bits.append("brackets " + ", ".join("[%.17g, %.17g] tails (%.3e, %.3e)" % b for b in self.brackets))
        if nodes_expected is not None:
            bits.append("nodes %s, expected %d" % ("none counted" if nodes is None else nodes, nodes_expected))
        super().__init__("; ".join(bits))


@dataclass(frozen=True)
class DimRegEigen:
    state: QuantumState
    eps: float
    mu: float
    nbar: float
    gammabar: float
    ebar: float
    sol: object
    rho0: float
    rhomax: float
    table: CoeffTable


def _mubar(mu: float) -> float:
    return mu * math.exp(EULER_GAMMA / 2.0) / (2.0 * math.sqrt(math.pi))


def gammabar_from_nbar(nbar: float, eps: float, mu: float) -> float:
    """Invert nbar = (1/gb) Gamma(1/2-eps) pi^(eps-1/2) (mubar/(2 gb))^(2 eps)."""
    w = math.gamma(0.5 - eps) * math.pi ** (eps - 0.5) * _mubar(mu) ** (2 * eps)
    return (w * 2.0 ** (-2.0 * eps) / nbar) ** (1.0 / (1.0 + 2.0 * eps))


def _integrate(l, eps, nbar, rho0, rhomax, table, dense=False):
    y0 = eval_series(table, nbar, rho0)

    def rhs(rho, y):
        L, dL = y
        d2 = -(2.0 * (l + 1 - eps) / rho - 1.0) * dL + ((l + 1 - eps) - nbar * rho ** (2 * eps)) / rho * L
        return (dL, d2)

    sol = solve_ivp(rhs, (rho0, rhomax), y0, method="DOP853", rtol=1e-12, atol=1e-250, dense_output=dense)
    if not sol.success:
        raise ShootingError("ODE integration failed: %s" % sol.message)
    return sol


def _count_nodes(sol, rho0: float, rho_hi: float) -> int:
    xs = np.linspace(rho0, rho_hi, 1600)
    vals = sol.sol(xs)[0]
    # ignore crossings inside the noise floor: after strong decay the
    # leftover e^{+rho} contamination of the shot solution flips sign at
    # amplitudes ~1e-15 of the maximum, which are not nodes
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


def eigenvalue_shoot(state: QuantumState, eps: float, mu: float = 1.0) -> DimRegEigen:
    """Find nbar as the root of the tail value L(rho_max; nbar) by Brent's
    method inside a sign-changing bracket, verifying the node count."""
    eps = float(_eps_value(eps))
    if abs(eps) > 0.05:
        raise DomainError("eps = %r outside the validated shooting range |eps| <= 0.05" % eps)
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError("mu = %r must be finite and positive" % (mu,))
    n, l = state.n, state.l
    rho0, rhomax = 1e-3, 20.0 + 10.0 * n
    table = series_coefficients(l, eps, 12)
    tails: Dict[float, float] = {}  # this call only: brentq re-asks for the bracket ends
    brackets: List[Tuple[float, float, float, float]] = []
    nodes = None

    def tail(nbar):
        if nbar not in tails:
            tails[nbar] = float(_integrate(l, eps, nbar, rho0, rhomax, table).y[0][-1])
        return tails[nbar]

    def failure(reason):
        return ShootingError(reason, state, eps, mu, brackets, nodes, state.nr)

    # candidate brackets: [n-1/2, n+1/2] and one centered on the expansion
    # estimate.  Near the range edge the O(eps) shift can exceed 1/2, and then
    # the primary window misses nbar or holds a neighboring eigenvalue, so the
    # estimate's bracket goes first; the node count selects the branch
    centers = [float(n)]
    est = float(nbar_expansion(state).numeric(eps))
    if abs(est - n) > 0.5:
        centers.insert(0, est)
    elif abs(est - n) > 0.1:
        centers.append(est)
    try:
        for center in centers:
            lo, hi = center - 0.5, center + 0.5
            t_lo, t_hi = tail(lo), tail(hi)
            brackets.append((lo, hi, t_lo, t_hi))
            if math.copysign(1.0, t_lo) == math.copysign(1.0, t_hi):
                continue
            nbar, res = brentq(tail, lo, hi, xtol=1e-15, maxiter=100, full_output=True, disp=False)
            if not res.converged:
                raise failure("Brent root-finding did not converge in %d iterations (%s)" % (res.iterations, res.flag))
            sol = _integrate(l, eps, nbar, rho0, rhomax, table, dense=True)
            nodes = _count_nodes(sol, rho0, min(4.0 * n + 2.0 * l + 4.0, rhomax))
            if nodes == state.nr:
                gb = gammabar_from_nbar(nbar, eps, mu)
                return DimRegEigen(state, eps, mu, nbar, gb, -0.5 * gb * gb, sol, rho0, rhomax, table)
    except ShootingError as exc:
        if exc.state is not None:
            raise
        raise failure(exc.reason) from exc
    if nodes is not None:
        raise failure("wrong eigenvalue branch")
    raise failure("no sign change of the tail in any bracket")


def wavefunction_moment(eig: DimRegEigen, power: float, quad_dps: int = 20) -> float:
    """int_0^inf rho^power e^{-rho} L(rho)^2 drho from the shot solution.

    The L(0)^2 = 1 part is integrated analytically (Gamma function); for
    power near -1 the quadrature alone cannot resolve the mass hiding at
    exponentially small rho.
    """
    import mpmath as mp

    table, nbar = eig.table, eig.nbar

    def l_sq_minus_1(rho):
        rho = float(rho)
        if rho <= eig.rho0:
            L = eval_series(table, nbar, rho)[0]
        elif rho >= eig.rhomax:
            return -1.0
        else:
            L = float(eig.sol.sol(rho)[0])
        return L * L - 1.0

    def f(rho):
        return mp.mpf(rho) ** power * mp.e ** (-rho) * l_sq_minus_1(rho)

    with mp.workdps(quad_dps):
        analytic = mp.gamma(power + 1.0)
        rest = mp.quad(f, [0, 1.0, 10.0, eig.rhomax])
        return float(analytic + rest)


def phibar2_numeric(eig: DimRegEigen) -> float:
    """phibar^2 from the normalization of the shot S-state wave function."""
    if eig.state.l != 0:
        raise DomainError("contact normalization implemented for S states")
    D = 3.0 - 2.0 * eig.eps
    omega = 2.0 * math.pi ** (D / 2.0) / math.gamma(D / 2.0)
    return (2.0 * eig.gammabar) ** D / (omega * wavefunction_moment(eig, D - 1.0))


def v3_brace_numeric(eig: DimRegEigen) -> float:
    """Numeric <Vbar^3>/(pi phibar^2 (Za)^3 mubar^{2 eps}) from the shot wave function."""
    eps = eig.eps
    D = 3.0 - 2.0 * eps
    omega = 2.0 * math.pi ** (D / 2.0) / math.gamma(D / 2.0)
    beta3 = (math.gamma(0.5 - eps) * _mubar(eig.mu) ** (2 * eps) * math.pi ** (eps - 0.5)) ** 3
    i3 = wavefunction_moment(eig, -1.0 + 4.0 * eps, quad_dps=25)
    return -omega * beta3 * (2.0 * eig.gammabar) ** (-4.0 * eps) * i3 / (math.pi * _mubar(eig.mu) ** (2 * eps))


def vp2_brace_numeric(eig: DimRegEigen) -> float:
    """Numeric <(Vbar')^2>/(pi phibar^2 m_r (Za)^3 mubar^{2 eps}).

    The rho integral carries rho^{-2+2 eps}, so the three-term head of the
    generalized series is integrated analytically and only the regular
    remainder L^2 - Lhat^2 goes to quadrature.
    """
    import mpmath as mp

    eps, nbar = eig.eps, eig.nbar
    table = eig.table

    def lhat(rho):
        return 1.0 + 0.5 * rho - nbar * rho ** (1.0 + 2.0 * eps) / (2.0 * (1.0 + 2.0 * eps))

    def l_val(rho):
        rho = float(rho)
        if rho <= eig.rho0:
            return eval_series(table, nbar, rho)[0]
        if rho >= eig.rhomax:
            return 0.0
        return float(eig.sol.sol(rho)[0])

    def f(rho):
        rho_f = float(rho)
        diff = l_val(rho_f) ** 2 - lhat(rho_f) ** 2
        return mp.mpf(rho) ** (-2.0 + 2.0 * eps) * mp.e ** (-rho) * diff

    with mp.workdps(25):
        rest = mp.quad(f, [0, 1.0, 10.0, eig.rhomax])
        # int rho^{-2+2eps} e^-rho Lhat^2: powers 0,1,1+2e,2,2+2e,2+4e
        c = 1.0 / (1.0 + 2.0 * eps)
        head_terms = (
            (0.0, 1.0),
            (1.0, 1.0),
            (1.0 + 2 * eps, -nbar * c),
            (2.0, 0.25),
            (2.0 + 2 * eps, -0.5 * nbar * c),
            (2.0 + 4 * eps, 0.25 * nbar * nbar * c * c),
        )
        analytic = mp.fsum(w * mp.gamma(-1.0 + 2.0 * eps + p) for p, w in head_terms)
        i2 = float(analytic + rest)
    D = 3.0 - 2.0 * eps
    omega = 2.0 * math.pi ** (D / 2.0) / math.gamma(D / 2.0)
    beta2 = (math.gamma(0.5 - eps) * _mubar(eig.mu) ** (2 * eps) * math.pi ** (eps - 0.5)) ** 2
    pref = omega * beta2 * (1.0 - 2.0 * eps) ** 2 * (2.0 * eig.gammabar) ** (1.0 - 2.0 * eps)
    return pref * i2 / (math.pi * _mubar(eig.mu) ** (2 * eps))


# ---------------------------------------------------------------------------
# numeric eps-expansions of energy and contact value
# ---------------------------------------------------------------------------


def energy_series_numeric(state: QuantumState, eps: float, mu: float = 1.0) -> float:
    tags = {lam("mu"): math.log(mu * state.n / 2.0)}
    return energy_expansion(state).numeric(eps, tags)


def contact_numeric(state: QuantumState, eps: float, mu: float = 1.0) -> float:
    """phibar from the O(eps) expansion, with gamma_n^D kept unexpanded."""
    tags = {lam("mu"): math.log(mu * state.n / 2.0)}
    series = contact_expansion(state)
    gamma_n = 1.0 / state.n
    d = 3.0 - 2.0 * eps
    return math.sqrt(gamma_n**d / math.pi) * (1.0 + eps * series.coeff(1).numeric(tags))
