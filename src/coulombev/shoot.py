"""Floating-point shooting and quadrature in D = 3 - 2*eps.

The eigenvalue nbar is shot from the generalized power series of the radial
equation (`dimreg.series_coefficients`, summed by `eval_series`), continued to
rho_max by Taylor steps on a fixed grid, with Newton's method, from the O(eps)
expansion, on the mismatch with the decaying solution there; the dense output
is Newton's last solve, corrected by its d/dnbar channel, with no solve of its
own.  The shot wave function then gives phibar^2 and the numeric braces by one
fixed tanh-sinh rule, evaluated on arrays of nodes; the braces read the term
lists of `dimreg._TERMS`, so each divergent operator is still described once.
This layer only cross-checks the exact eps-poles of `dimreg`, and it is the
one part of the package that needs numpy, so the exact modules do not import
it: `dimreg`, `brackets` and the package resolve its names on first use.

The same tanh-sinh rule, in theta with p = gamma_n tan(theta/2), gives the
quadratures of the momentum-space wave function (`momentum_radial`, a float
Gegenbauer series): the <ln q> oracle `bracket_lnq_oracle` and the
normalization check `momentum_norm_numeric`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Tuple

import numpy as np

from .exactnum import DomainError, EULER_GAMMA, Record, _eps_value, factorial, lam
from .coulomb import QuantumState
from .dimreg import (
    CoeffTable,
    _TERMS,
    contact_expansion,
    energy_expansion,
    nbar_expansion,
    series_coefficients,
)
from .lagint import Poly, gegenbauer


class ShootingError(RuntimeError):
    """A shoot that found no eigenvalue.

    Besides the reason it carries the state, eps and mu, the (nbar, mismatch)
    pair of every Newton solve (the dense output needs no solve of its own),
    and the nodes counted at the converged nbar (None if none were) against
    the nodes expected, all repeated on one line.
    """

    def __init__(self, reason, state=None, eps=None, mu=None, iterates=(), nodes=None, nodes_expected=None):
        self.reason = reason
        self.state, self.eps, self.mu = state, eps, mu
        self.iterates = tuple(iterates)
        self.nodes, self.nodes_expected = nodes, nodes_expected
        bits = [reason]
        if state is not None:
            bits.append("(n, l) = (%d, %d), eps = %r, mu = %r" % (state.n, state.l, eps, mu))
        if self.iterates:
            bits.append("nbar %.17g mismatch %.3e after %d solves" % (self.iterates[-1] + (len(self.iterates),)))
        if nodes_expected is not None:
            bits.append("nodes %s, expected %d" % ("none counted" if nodes is None else nodes, nodes_expected))
        super().__init__("; ".join(bits))


class DimRegEigen(Record):
    __slots__ = ("state", "eps", "mu", "nbar", "gammabar", "ebar", "sol", "rho0", "rhomax", "table")

    def __init__(
        self,
        state: QuantumState,
        eps: float,
        mu: float,
        nbar: float,
        gammabar: float,
        ebar: float,
        sol,  # rho -> (L, L') on [rho0, rhomax], rho an array
        rho0: float,
        rhomax: float,
        table: CoeffTable,
    ):
        self._fill(state, eps, mu, nbar, gammabar, ebar, sol, rho0, rhomax, table)


def _mubar(mu: float) -> float:
    return mu * math.exp(EULER_GAMMA / 2.0) / (2.0 * math.sqrt(math.pi))


def gammabar_from_nbar(nbar: float, eps: float, mu: float) -> float:
    """Invert nbar = (1/gb) Gamma(1/2-eps) pi^(eps-1/2) (mubar/(2 gb))^(2 eps)."""
    w = math.gamma(0.5 - eps) * math.pi ** (eps - 0.5) * _mubar(mu) ** (2 * eps)
    return (w * 2.0 ** (-2.0 * eps) / nbar) ** (1.0 / (1.0 + 2.0 * eps))


def _cache_last(fn):
    """fn with a one-entry cache keyed by its argument's identity: the calls that
    follow on the same table or shot reuse the result, and only it is kept alive."""
    last = [(None, None)]

    def cached(obj):
        hit = last[0]
        if hit[0] is not obj:
            hit = last[0] = (obj, fn(obj))
        return hit[1]

    return cached


@_cache_last
def _series_arrays(table: CoeffTable):
    """(k, j + 2 eps k, a_jk) over the table's terms, as float arrays."""
    j, k, c = np.array([(j, k, float(c)) for (j, k), c in table.a.items()]).T
    return k, j + 2.0 * float(table.eps) * k, c


def eval_series(table: CoeffTable, nbar: float, rho: float, dnbar: bool = False) -> Tuple[float, float]:
    """(L, dL/drho) of the generalized series at numeric eps and nbar, or with
    dnbar their nbar-derivatives (M, dM/drho); rho may be an array."""
    k, power, c = _series_arrays(table)
    c = c * (k * nbar ** (k - 1) if dnbar else nbar**k)
    rho = np.asarray(rho)[..., None]
    return rho**power @ c, rho ** (power - 1) @ (c * power)


_TAYLOR_TERMS = 36  # truncation 3^-36 where the step is a/3, 2^36/36! where it is 2


@lru_cache(maxsize=None)
def _grid(rho0: float, rhomax: float):
    """Starts a of the steps h = min(a/3, 2) from rho0 to rhomax, h^k, k h^(k-1).
    The Taylor series at a converges within a, because rho = 0 is singular;
    the grid depends on nothing else, so every shoot to rhomax shares it."""
    a = [rho0]
    while a[-1] < rhomax:
        a.append(min(a[-1] + min(a[-1] / 3.0, 2.0), rhomax))
    a = np.array(a)
    k = np.arange(_TAYLOR_TERMS)[:, None]
    powers = np.diff(a) ** k
    return a[:-1], powers, k[1:] * powers[:-1]


@lru_cache(maxsize=1)
def _recurrence(l: int, eps: float, rho0: float, rhomax: float):
    """The nbar-free factors of `_taylor_basis`'s recurrence at every step start
    a: w[m] = a^{2 eps - m} C(2 eps, m) and, per k, (k+1)(k+2c-a), k+c and 1,
    each over a (k+1)(k+2).  A shoot solves at one (l, eps, grid): one build."""
    a, K, c = _grid(rho0, rhomax)[0], _TAYLOR_TERMS, l + 1 - eps
    binom = [1.0]
    for m in range(1, K):
        binom.append(binom[-1] * (2.0 * eps - m + 1) / m)
    w = a ** (2.0 * eps - np.arange(K)[:, None]) * np.array(binom)[:, None]
    k = np.arange(K - 2)[:, None]
    den = a * ((k + 1) * (k + 2))
    return w, (k + 1) * (k + 2 * c - a) / den, (k + c) / den, 1.0 / den


def _taylor_basis(l: int, eps: float, nbar: float, rho0: float, rhomax: float):
    """Taylor coefficients in t = rho - a, at every step start a at once, of the
    basis solutions u ((L, L') = (1, 0) at a) and v ((0, 1)) and of the parts
    p and q that u and v source in M = dL/dnbar from (M, M') = (0, 0); shape
    (K, 4, steps).

    Multiplied by rho the radial equation is
    rho L'' + (2c - rho) L' - (c - nbar rho^{2 eps}) L = 0 with c = l + 1 - eps,
    and rho^{2 eps} = a^{2 eps} sum_m C(2 eps, m) (t/a)^m, so
      y_{k+2} = -[(k+1)(k+2c-a) y_{k+1} - (k+c) y_k + nbar S_k]/(a (k+1)(k+2))
    with S_k = sum_m a^{2 eps - m} C(2 eps, m) y_{k-m}.  M obeys the same
    recurrence with the source S_k of L added to nbar S_k."""
    w, A, B, C = _recurrence(l, eps, rho0, rhomax)
    y = np.zeros((_TAYLOR_TERMS, 4, w.shape[1]))
    y[0, 0] = y[1, 1] = 1.0
    nC = nbar * C
    for k in range(_TAYLOR_TERMS - 2):
        conv = np.einsum("msi,mi->si", y[k::-1], w[: k + 1])
        y[k + 2] = B[k] * y[k] - A[k] * y[k + 1] - nC[k] * conv
        y[k + 2, 2:] -= C[k] * conv[:2]
    return y


def _piecewise(a, coef):
    """The dense output: rho -> (L, L') of the Taylor polynomials coef[:, i] in
    rho - a[i] on the step that holds rho; rho is an array in [a[0], rho_max]."""

    def sol(rho):
        i = np.clip(np.searchsorted(a, rho, side="right") - 1, 0, len(a) - 1)
        t = rho - a[i]
        L = dL = 0.0
        for c in coef[::-1]:
            dL = dL * t + L
            L = L * t + c[i]
        return np.array([L, dL])

    return sol


_RTOL = 1e-12  # Newton stops once its step is below _RTOL nbar


def _integrate(l, eps, nbar, rho0, rhomax, table):
    """(L, L', M, M') at rhomax, M = dL/dnbar, from the series at rho0, and the
    dense output step -> L at nbar - step, whose Taylor coefficients are L's
    minus step times M's, to O(step^2).  Each step's end values of u, v, p and
    q form the block transfer [[U, 0], [P, U]] of (L, L', M, M')."""
    a, powers, dpowers = _grid(rho0, rhomax)
    with np.errstate(all="ignore"):  # overflow is caught below, as a non-finite end value
        nbar = np.float64(nbar)
        start = eval_series(table, nbar, rho0) + eval_series(table, nbar, rho0, dnbar=True)
        y = _taylor_basis(l, eps, nbar, rho0, rhomax)
        val = np.einsum("ksi,ki->is", y, powers).tolist()
        der = np.einsum("ksi,ki->is", y[1:], dpowers).tolist()
    L, dL, M, dM = (float(v) for v in start)
    starts = []
    for (uL, vL, pL, qL), (ud, vd, pd, qd) in zip(val, der):
        starts.append((L, dL, M, dM))
        L, dL, M, dM = (
            uL * L + vL * dL,
            ud * L + vd * dL,
            uL * M + vL * dM + pL * L + qL * dL,
            ud * M + vd * dM + pd * L + qd * dL,
        )
    end = (L, dL, M, dM)
    if not all(math.isfinite(v) for v in end):
        raise ShootingError("the solution left the float range before rho_max = %r" % rhomax)

    def dense(step):
        L, dL, M, dM = np.array(starts).T
        u, v, p, q = y.transpose(1, 0, 2)
        return _piecewise(a, L * u + dL * v - step * (M * u + dM * v + L * p + dL * q))

    return end, dense


def _count_nodes(sol, l: int, rho0: float, rho_hi: float) -> int:
    """Sign changes of the radial function rho^l e^{-rho/2} L on a grid of [rho0, rho_hi]."""
    xs = np.linspace(rho0, rho_hi, 1600)
    vals = xs**l * np.exp(-0.5 * xs) * sol(xs)[0]
    # ignore crossings inside the noise floor: after strong decay the
    # leftover e^{+rho} contamination of the shot solution flips sign at
    # amplitudes ~1e-15 of the maximum, which are not nodes
    floor = 1e-9 * float(np.max(np.abs(vals)))
    signs = np.copysign(1.0, vals[~(np.abs(vals) < floor)])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def _numeric_eps(eps, mu) -> float:
    """eps as a float, checked by `exactnum._eps_value`; mu must be finite and positive."""
    eps = float(_eps_value(eps))
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError("mu = %r must be finite and positive" % (mu,))
    return eps


_N_MAX = 12  # every l < n shoots to its branch at eps = 0, +-0.02 and +-0.05 up to here


def eigenvalue_shoot(state: QuantumState, eps: float, mu: float = 1.0) -> DimRegEigen:
    """Find nbar by Newton's method on the mismatch f = L' - g L at rho_max with
    the decaying solution, whose log-derivative is g = (nbar rho_max^{2 eps} - l
    - 1 + eps)/rho_max, started at the O(eps) expansion; the node count of the
    result then checks that Newton found the branch of (n, l).

    Each solve also carries M = dL/dnbar, so f' = M' - g M - rho_max^{2 eps - 1} L
    comes with f.  Newton stops once its step is below _RTOL nbar, and the
    dense output is the last solve's L minus that step times its M."""
    eps = _numeric_eps(eps, mu)
    if abs(eps) > 0.05:
        raise DomainError("eps = %r outside the validated shooting range |eps| <= 0.05" % eps)
    n, l = state.n, state.l
    if n > _N_MAX:
        raise DomainError("n = %d outside the validated shooting range n <= %d" % (n, _N_MAX))
    rho0, rhomax = 1e-3, 20.0 + 10.0 * n
    table = series_coefficients(l, eps, 12)
    iterates = []

    def solve(nbar):
        (L, dL, M, dM), dense = _integrate(l, eps, nbar, rho0, rhomax, table)
        g = (nbar * rhomax ** (2 * eps) - l - 1 + eps) / rhomax
        f, df = dL - g * L, dM - g * M - rhomax ** (2 * eps - 1) * L
        iterates.append((nbar, f))
        return (f / df if df else math.nan), dense

    def failure(reason, nodes=None):
        return ShootingError(reason, state, eps, mu, iterates, nodes, state.nr)

    try:
        x, step = float(nbar_expansion(state).numeric(eps)), math.inf
        while abs(step) > _RTOL * x and len(iterates) < 30:
            step, dense = solve(x)
            x -= step
        if not abs(step) <= _RTOL * x:
            raise ShootingError("Newton's method did not converge")
    except ShootingError as exc:
        raise failure(exc.reason) from exc
    sol = dense(step)
    nodes = _count_nodes(sol, l, rho0, min(4.0 * n + 2.0 * l + 4.0, rhomax))
    if nodes != state.nr:
        raise failure("wrong eigenvalue branch", nodes)
    gb = gammabar_from_nbar(x, eps, mu)
    return DimRegEigen(state, eps, mu, x, gb, -0.5 * gb * gb, sol, rho0, rhomax, table)


def _tanh_sinh(h: float, tmax: float):
    """Nodes y in (0, 1) and weights of the tanh-sinh rule on [0, 1] with step h
    and |t| <= tmax; y = 1/(1 + e^{-2u}) keeps the nodes next to 0 at full
    relative precision."""
    t = np.arange(-round(tmax / h), round(tmax / h) + 1) * h
    u = 0.5 * np.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(-2.0 * u)), h * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2


# the shot solution is a double, so one rule at a fixed degree resolves the
# braces: at h = 2^-7 they agree with a 25-digit adaptive quadrature to 4.4e-16
_TS_Y, _TS_W = _tanh_sinh(2.0**-7, 3.5)


@_cache_last
def _nodes(eig: DimRegEigen):
    """The rule's nodes x on [0, 1], [1, 10] and [10, rho_max], their weights and
    (F_0, F_1, F_2) at x (see `_rho_integral`), shared by the terms of every
    brace of the last shot."""
    cuts = (0.0, 1.0, 10.0, eig.rhomax)
    x = np.concatenate([a + (b - a) * _TS_Y for a, b in zip(cuts, cuts[1:])])
    w = np.concatenate([(b - a) * _TS_W for a, b in zip(cuts, cuts[1:])])
    # below rho0 the generalized series is the solution, as at the shoot's start
    near = x <= eig.rho0
    L, dL = np.empty_like(x), np.empty_like(x)
    L[near], dL[near] = eval_series(eig.table, eig.nbar, x[near])
    L[~near], dL[~near] = eig.sol(x[~near])
    c = eig.state.l + 1 - eig.eps
    d2L = -(2.0 * c / x - 1.0) * dL + (c - eig.nbar * x ** (2 * eig.eps)) / x * L
    return x, w, (L, dL - 0.5 * L, d2L - dL + 0.25 * L)


def _rho_integral(eig: DimRegEigen, nodes, s: float, a: int, b: int, p: int) -> float:
    """int_0^inf rho^s e^{-rho} F_a F_b drho, where e^{-rho/2} F_a = d_rho^a [e^{-rho/2} L].

    The series terms with j < p, pushed through the same derivatives, give
    H_a = sum w rho^q; H_a H_b integrates to Gamma functions and only the
    regular remainder F_a F_b - H_a H_b goes to the tanh-sinh rule, which alone
    could not resolve the mass of rho^s at exponentially small rho.  The
    remainder is formed as T_a F_b + H_a T_b from the tail T = F - H, which
    for rho <= 1/2 is summed from the terms with j >= p, so it does not cancel."""
    if max(a, b) > 2:
        raise DomainError("numeric braces take at most two radial derivatives, got (%d, %d)" % (a, b))
    eps, nbar, (x, weights, F) = eig.eps, eig.nbar, nodes
    terms = [(j >= p, j + 2.0 * eps * k, float(c) * nbar**k) for (j, k), c in eig.table.a.items()]
    head, tail = ([[(q, w) for in_tail, q, w in terms if in_tail == side]] for side in (False, True))
    for _ in range(max(a, b)):
        for h in (head, tail):
            h.append([t for q, w in h[-1] for t in ((q - 1.0, w * q), (q, -0.5 * w)) if t[1]])
    near = x <= 0.5
    H, T = {}, {}
    for i in {a, b}:
        H[i] = sum((w * x**q for q, w in head[i]), 0.0)
        T[i] = F[i] - H[i]
        T[i][near] = sum((w * x[near] ** q for q, w in tail[i]), 0.0)
    remainder = T[a] * F[b] + H[a] * T[b]
    analytic = math.fsum(w1 * w2 * math.gamma(s + q1 + q2 + 1.0) for q1, w1 in head[a] for q2, w2 in head[b])
    return analytic + float(np.dot(weights, x**s * np.exp(-x) * remainder))


def _brace_numeric(tag: str, eig: DimRegEigen) -> float:
    """`dimreg.divergent_expectation(tag, n, 0)` at the shot's eps, from the same
    terms: each mirrors `dimreg._head_tail_primitive` in rho = 2 gammabar r, with
    rho power s = 2 + sigma + 2 (c - 1) eps, head depth p = max(0, max(a, b) - 2 - sigma)
    and weight coef(eps) Ebar^k beta^beta (2 gammabar)^{a+b-s-1}."""
    if eig.state.l != 0:
        raise DomainError("numeric braces implemented for S states")
    eps, nodes = eig.eps, _nodes(eig)
    mub = _mubar(eig.mu) ** (2 * eps)
    beta = math.gamma(0.5 - eps) * mub * math.pi ** (eps - 0.5)
    total = 0.0
    for t in _TERMS[tag]:
        if t.ang:
            continue
        s = 2.0 + t.sigma + 2.0 * (t.c - 1) * eps
        w = sum(x * eps**i for i, x in enumerate(t.coef)) * eig.ebar**t.k * beta**t.beta
        p = max(0, max(t.a, t.b) - 2 - t.sigma)
        total += w * (2.0 * eig.gammabar) ** (t.a + t.b - s - 1.0) * _rho_integral(eig, nodes, s, t.a, t.b, p)
    D = 3.0 - 2.0 * eps
    return 2.0 * math.pi ** (D / 2.0) / math.gamma(D / 2.0) * total / (math.pi * mub)


def wavefunction_moment(eig: DimRegEigen, power: float) -> float:
    """int_0^inf rho^power e^{-rho} L(rho)^2 drho, with L(0)^2 = 1 integrated analytically."""
    return _rho_integral(eig, _nodes(eig), power, 0, 0, 1)


def phibar2_numeric(eig: DimRegEigen) -> float:
    """phibar^2 from the normalization of the shot S-state wave function."""
    if eig.state.l != 0:
        raise DomainError("contact normalization implemented for S states")
    D = 3.0 - 2.0 * eig.eps
    omega = 2.0 * math.pi ** (D / 2.0) / math.gamma(D / 2.0)
    return (2.0 * eig.gammabar) ** D / (omega * wavefunction_moment(eig, D - 1.0))


def v3_brace_numeric(eig: DimRegEigen) -> float:
    """Numeric <Vbar^3>/(pi phibar^2 (Za)^3 mubar^{2 eps}) from the shot wave function."""
    return _brace_numeric("V3", eig)


def vp2_brace_numeric(eig: DimRegEigen) -> float:
    """Numeric <(Vbar')^2>/(pi phibar^2 m_r (Za)^3 mubar^{2 eps}) from the shot wave function."""
    return _brace_numeric("(V')2", eig)


# ---------------------------------------------------------------------------
# the momentum-space wave function and its quadratures
# ---------------------------------------------------------------------------


class MomentumRadialWF(Record):
    """R_{nl}(p) = phi_n N_{nl} p^l gamma_n^{l+1} / D_n^{l+2} C_{n-l-1}^{l+1}(Dbar_n/D_n).

    D_n = p^2 + gamma_n^2, Dbar_n = p^2 - gamma_n^2; units m_r Zalpha = 1 so
    gamma_n = 1/n and the normalization is int p^2 R^2 dp/(2 pi)^3 = 1.
    Evaluated in t = p/gamma_n, where it is n^3 t^l/(1+t^2)^{l+2} C(1 - 2/(1+t^2)),
    so that large p underflows to 0 instead of overflowing.
    """

    __slots__ = ("state", "norm", "coeffs")

    def __init__(self, state: QuantumState, gegenbauer: Poly, norm: float):
        # gegenbauer is C_{n-l-1}^{l+1}, norm is phi_n * N_{nl}, and coeffs holds
        # its coefficients as floats, highest degree first
        self._fill(state, norm, tuple(float(c) for c in reversed(gegenbauer.coeffs)))

    def __call__(self, p: float) -> float:
        n, l = self.state.n, self.state.l
        t = p * n
        u = 1.0 + t * t
        beta = 1.0 - 2.0 / u
        acc = 0.0
        for c in self.coeffs:
            acc = acc * beta + c
        return self.norm * n**3 * (t / u) ** l / (u * u) * acc


def momentum_radial(state: QuantumState) -> MomentumRadialWF:
    """Momentum-space radial wave function, callable at numeric p."""
    n, l = state.n, state.l
    phi = math.sqrt(1.0 / (math.pi * n**3))
    norm = (
        2.0 ** (2 * l + 3)
        * math.pi
        * float(factorial(l))
        * math.sqrt(4 * math.pi * n * float(factorial(n - l - 1)) / float(factorial(n + l)))
    )
    return MomentumRadialWF(state, gegenbauer(n - l - 1, l + 1), phi * norm)


# p = gamma_n tan(theta/2) maps [0, inf) onto [0, pi] and turns the momentum
# integrands into bounded functions of theta, which a coarse rule resolves
_MOMENTUM_Y, _MOMENTUM_W = _tanh_sinh(2.0**-5, 3.5)
_LNQ_N_MAX = 10
_LNQ_BLOCK = 16  # outer nodes per block, so each temporary holds 16 x 225 doubles


def _momentum_theta(R: MomentumRadialWF, theta):
    """(p, sin(theta/2), cos(theta/2), C(-cos theta)) at p = gamma_n tan(theta/2),
    where C is R's Gegenbauer polynomial: there D_n = gamma_n^2/cos^2(theta/2)
    and Dbar_n/D_n = -cos theta."""
    s, c = np.sin(0.5 * theta), np.cos(0.5 * theta)
    beta = -np.cos(theta)
    C = np.zeros_like(theta)
    for coef in R.coeffs:
        C = C * beta + coef
    return s / (c * R.state.n), s, c, C


def momentum_norm_numeric(state: QuantumState) -> float:
    """int_0^inf p^2 R(p)^2 dp/(2 pi)^3, which is 1.  In theta the integrand is
    n^3/2 norm^2 sin^{2l+2}(theta/2) cos^{2l+4}(theta/2) C^2, so R is never
    evaluated at the huge p next to theta = pi, where D^(l+2) overflows."""
    R = momentum_radial(state)
    n, l = state.n, state.l
    _, s, c, C = _momentum_theta(R, np.pi * _MOMENTUM_Y)
    f = s ** (l + 1) * c ** (l + 2) * C
    return 0.5 * n**3 * R.norm**2 * np.pi * float(_MOMENTUM_W @ (f * f)) / (2.0 * math.pi) ** 3


def _log_average(lo, hi):
    """(1/2) int_{-1}^{1} ln|p_2 - p_1| dc over the cosine c of the angle between
    momenta of magnitudes lo <= hi, in the stable form
    ln(lo + hi) + (1 - t)^2 atanh(t)/(2 t) - 1/2 with t = lo/hi: the middle
    term tends to 1/2 as t -> 0 and to 0 as t -> 1, and both limits are set
    explicitly, so no node forms inf * 0."""
    t = lo / hi
    inside = (t > 0.0) & (t < 1.0)
    ti = np.where(inside, t, 0.5)
    middle = np.where(inside, (1.0 - ti) ** 2 * np.arctanh(ti) / (2.0 * ti), np.where(t > 0.0, 0.0, 0.5))
    return np.log(lo + hi) + middle - 0.5


def bracket_lnq_oracle(n: int) -> float:
    """Direct momentum-space double integral of <ln q> for S states, in units
    m_r Zalpha = 1; it reads only `momentum_radial`, never the closed form
    `brackets.bracket_lnq` that it checks.

    In theta, p^2 R(p) dp = 1/2 norm sin^2(theta/2) C(-cos theta) dtheta.  The
    kernel is symmetric in p_1 and p_2, so the rule covers the triangle
    theta_1 < theta_2 once, with theta_2 = pi y and theta_1 = theta_2 y', and
    doubles it; the kernel's weak singularity at p_1 = p_2 then lies on an
    edge.  Agrees with `bracket_lnq` to ~3e-14 relative for n <= 10."""
    if n > _LNQ_N_MAX:
        raise DomainError("n = %d outside the validated <ln q> oracle range n <= %d" % (n, _LNQ_N_MAX))
    R = momentum_radial(QuantumState(n, 0))
    y, w = _MOMENTUM_Y, _MOMENTUM_W

    def weighted(theta):
        p, s, _, C = _momentum_theta(R, theta)
        return p, 0.5 * R.norm * s * s * C

    theta2 = np.pi * y
    p2, f2 = weighted(theta2)
    outer = np.pi * w * theta2 * f2
    total = 0.0
    for i in range(0, len(y), _LNQ_BLOCK):
        block = slice(i, i + _LNQ_BLOCK)
        p1, f1 = weighted(theta2[block, None] * y)
        total += float(outer[block] @ ((f1 * _log_average(p1, p2[block, None])) @ w))
    # twice the triangle, over (2 pi)^6, times the angular factor (4 pi)^2 |Y00|^2 = 4 pi
    return 2.0 * 4.0 * math.pi / (2.0 * math.pi) ** 6 * total


# ---------------------------------------------------------------------------
# numeric eps-expansions of energy and contact value
# ---------------------------------------------------------------------------


def energy_series_numeric(state: QuantumState, eps: float, mu: float = 1.0) -> float:
    eps = _numeric_eps(eps, mu)
    tags = {lam("mu"): math.log(mu * state.n / 2.0)}
    return energy_expansion(state).numeric(eps, tags)


def contact_numeric(state: QuantumState, eps: float, mu: float = 1.0) -> float:
    """phibar from the O(eps) expansion, with gamma_n^D kept unexpanded."""
    eps = _numeric_eps(eps, mu)
    tags = {lam("mu"): math.log(mu * state.n / 2.0)}
    series = contact_expansion(state)
    gamma_n = 1.0 / state.n
    d = 3.0 - 2.0 * eps
    return math.sqrt(gamma_n**d / math.pi) * (1.0 + eps * series.coeff(1).numeric(tags))
