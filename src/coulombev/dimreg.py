"""D = 3 - 2*eps machinery: the generalized power-series solution of the
radial equation, eps-expansions of the energy and of the wave function at
contact, and analytic pole extraction for divergent S-state expectation
values via the head/tail split of the series.  The numeric eigenvalue shoot
and its quadratures live in `shoot`; this module resolves their names on
first use (see `__getattr__`), so importing it does not load numpy.

Each divergent operator is one list of terms (see `_Term`) in `_TERMS`, and
each relation of the identity network is a term list that sums to zero.  Two
evaluators read these lists.  For l = 0 the terms are head/tail primitives
and the result is a Laurent brace relative to the standing prefactor

    pi * phibar_n^2 * mubar^{2 eps} * m_r^mr_pow * (Zalpha)^za_pow ,

with pi phibar^2 -> (m_r Zalpha)^3/n^3 as eps -> 0.  For l > 0 every term is
finite at eps = 0 and its radial integral is the closed form of a 3D catalog
row (`_RADIAL`), so the exact finite Value costs O(1) in n.  Both take their
units from the terms.  The float layer reads the l = 0 lists a third time, at
finite eps on a shot wave function (`shoot._brace_numeric`).
"""

from __future__ import annotations

import numbers
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from .exactnum import (
    DivergenceError,
    DomainError,
    EpsSeries,
    GAMMA_E,
    LN_PI,
    LNQN,
    ONE,
    Q,
    Record,
    SYM_ONE,
    SYM_ZERO,
    SymExpr,
    ZETA2,
    diharmonic,
    factorial,
    gamma_series,
    harmonic,
    lam,
    _eps_value,
    _set,
)
from . import lagint
from .coulomb import (
    CATALOG,
    CatalogError,
    DDDR,
    DDR,
    DR,
    R,
    QuantumState,
    Value,
    _radial_chain,
    convolve_into,
    drho,
)

HALF = Q(1, 2)

# the float layer's public names, defined in `shoot`.  Its private helpers
# (`_integrate`, `_count_nodes`, `_mubar`) are not forwarded: a monkeypatch
# on this module would then miss the code that calls them, silently.
_SHOOT_NAMES = frozenset(
    "DimRegEigen ShootingError gammabar_from_nbar eigenvalue_shoot wavefunction_moment phibar2_numeric"
    " v3_brace_numeric vp2_brace_numeric energy_series_numeric contact_numeric".split()
)


def __getattr__(name):
    # PEP 562: importing `shoot` loads numpy, so wait for a caller
    if name in _SHOOT_NAMES:
        from . import shoot

        return getattr(shoot, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class DivergentCatalogError(CatalogError):
    pass


# ---------------------------------------------------------------------------
# generalized series coefficients a_{jk}
# ---------------------------------------------------------------------------


class CoeffTable(Record):
    """a_{jk} of the generalized series sum a_{jk} nbar^k rho^{j+2 eps k}."""

    __slots__ = ("l", "eps", "jmax", "a")

    def __init__(self, l: int, eps, jmax: int, a: Dict[Tuple[int, int], object]):  # eps a float or Fraction
        self._fill(l, eps, jmax, a)

    def collapse(self, n: int, j: int):
        """A_j = sum_k a_{jk} n^k; at eps = 0 this is the Laguerre coefficient."""
        return sum(self.a[(j, k)] * n**k for k in range(j + 1))


def series_coefficients(l: int, eps, j_max: int) -> CoeffTable:
    """Fill the a_{jk} recursion at numeric eps (float or Fraction).

    With |eps| < 1/4 no denominator (j + 2 eps k)(j + 2l + 1 + 2 eps (k-1))
    can vanish.
    """
    if not isinstance(l, numbers.Integral) or l < 0:
        raise DomainError("l must be a non-negative integer, got %r" % (l,))
    eps = _eps_value(eps)
    if j_max < 1:
        raise DomainError("j_max must be >= 1")
    a: Dict[Tuple[int, int], object] = {(0, 0): eps * 0 + 1}
    for j in range(1, j_max + 1):
        for k in range(0, j + 1):
            prev = a.get((j - 1, k), 0)
            prev_k1 = a.get((j - 1, k - 1), 0)
            den = (j + 2 * eps * k) * (j + 2 * l + 1 + 2 * eps * (k - 1))
            a[(j, k)] = (prev * (j + l + eps * (2 * k - 1)) - prev_k1) / den
    return CoeffTable(l, eps, j_max, a)


@lru_cache(maxsize=None)
def _eps_poly(*coeffs) -> EpsSeries:
    # exact polynomial in eps; pad the truncation so products keep full order
    cs = [SymExpr.scalar(Q(x)) for x in coeffs]
    while len(cs) < 3:
        cs.append(SYM_ZERO)
    return EpsSeries.from_coeffs(0, cs)


# ---------------------------------------------------------------------------
# eps-expansions of energy and contact value
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def nbar_expansion(state: QuantumState) -> EpsSeries:
    """nbar = n { 1 + 2 eps (gamma_E - H_{n+l} - 1/(2n)) + O(eps^2) }."""
    n, l = state.n, state.l
    corr = SymExpr({GAMMA_E: Q(2), ONE: -2 * harmonic(n + l) - Q(1, n)})
    return EpsSeries.from_coeffs(0, [SymExpr.scalar(Q(n)), n * corr])


@lru_cache(maxsize=None)
def energy_expansion(state: QuantumState) -> EpsSeries:
    """Ebar/(m_r (Zalpha)^2) = -(1/2n^2){1 + eps [4 Lambda_mu + 4 H_{n+l} + 2/n]}."""
    n, l = state.n, state.l
    en = Q(-1, 2 * n * n)
    bracket = SymExpr({lam("mu"): Q(4), ONE: 4 * harmonic(n + l) + Q(2, n)})
    return EpsSeries.from_coeffs(0, [SymExpr.scalar(en), en * bracket])


def contact_expansion(state: QuantumState) -> EpsSeries:
    """phibar_{nl}/(gamma_n^D/pi)^(1/2) = 1 + eps [ ... ] + O(eps^2)."""
    n, l = state.n, state.l
    nr = state.nr
    hnl = harmonic(n + l)
    bracket = SymExpr(
        {
            lam("mu"): Q(3),
            ONE: 2 * n * diharmonic("+", n + l, -nr)
            - n * (hnl * hnl - harmonic(n + l, 2))
            + n * (harmonic(nr) ** 2 + harmonic(nr, 2))
            + 2 * hnl
            + 2 * harmonic(2 * l + 1)
            - 2
            + Q(2, n),
            LN_PI: HALF,
            GAMMA_E: -HALF,
            ZETA2: -2 * n,
        }
    )
    return EpsSeries.from_coeffs(0, [SYM_ONE, bracket])


# ---------------------------------------------------------------------------
# divergent expectation values: head/tail split
# ---------------------------------------------------------------------------


class DivergentValue(Record):
    """brace multiplying pi phibar^2 mubar^{2 eps} m_r^mr_pow (Zalpha)^za_pow."""

    __slots__ = ("series", "mr_pow", "za_pow")

    def __init__(self, series: EpsSeries, mr_pow: int, za_pow: int):
        _set(self, "series", series)
        _set(self, "mr_pow", mr_pow)
        _set(self, "za_pow", za_pow)

    def __add__(self, other: "DivergentValue") -> "DivergentValue":
        if (self.mr_pow, self.za_pow) != (other.mr_pow, other.za_pow):
            raise DomainError(
                "adding braces with mismatched prefactors: (%d,%d) vs (%d,%d)"
                % (self.mr_pow, self.za_pow, other.mr_pow, other.za_pow)
            )
        return DivergentValue(self.series + other.series, self.mr_pow, self.za_pow)

    def __sub__(self, other: "DivergentValue") -> "DivergentValue":
        return self + other.scale(-1)

    def scale(self, c) -> "DivergentValue":
        return DivergentValue(self.series * c, self.mr_pow, self.za_pow)

    def mul_series(self, series: EpsSeries, mr=0, za=0) -> "DivergentValue":
        return DivergentValue(self.series.mul(series, order_cap=0), self.mr_pow + mr, self.za_pow + za)

    def shift_dims(self, mr=0, za=0) -> "DivergentValue":
        return DivergentValue(self.series, self.mr_pow + mr, self.za_pow + za)

    def pole(self) -> SymExpr:
        return self.series.coeff(-1)

    def finite(self) -> SymExpr:
        return self.series.coeff(0)

    @property
    def total_mr_pow(self) -> int:
        return self.mr_pow + 3  # phibar^2 carries (m_r Zalpha)^3 / pi

    def __repr__(self):
        return "pi.phibar2.mubar^2eps m_r^%d Za^%d * [%r]" % (self.mr_pow, self.za_pow, self.series)


def value_as_brace(v: Value, n: int, mr_pow: int, za_pow: int) -> DivergentValue:
    """Fold a finite 3D Value into the brace convention (valid through eps^0)."""
    if v.pi_pow != 0:
        raise DomainError("cannot fold a value with explicit pi powers")
    if (v.mr_pow, v.za_pow) != (mr_pow + 3, za_pow + 3):
        raise DomainError("dimension mismatch folding Value into brace form")
    return DivergentValue(EpsSeries.constant(v.sym * Q(n**3), 0), mr_pow, za_pow)


def _head_terms(head: tuple, derivs: int):
    """Terms (j, k, coeff-series) of D_rho^derivs [ e^{-rho/2} Lhat ] for a head of `_series_head`."""
    terms = list(head)
    for _ in range(derivs):
        new = []
        for (j, k, c) in terms:
            new.append((j - 1, k, c.mul(_eps_poly(j, 2 * k), order_cap=2)))
            new.append((j, k, c * Q(-1, 2)))
        terms = new
    return [(j, k, c) for (j, k, c) in terms if not c.is_zero()]


# a_jk(eps) of the S-state series for j <= 1 through eps^2, the j <= 1 rows of
# the a_jk recursion at l = 0: a_00 = 1, a_10 = 1/2, a_11 = -1/(2(1 + 2 eps)).
# Every term of `_TERMS` and `_IDENTITIES` has head depth
# p = max(0, max(a, b) - 2 - sigma) <= 2, so no row j >= 2 is read.
_HEAD = ((0, 0, _eps_poly(1)), (1, 0, _eps_poly(HALF)), (1, 1, _eps_poly(-HALF, 1, -2)))


def _series_head(p: int) -> tuple:
    """((j, k, a_jk(eps)), ...) for j < p, sorted; the same for every n."""
    if p > 2:
        raise DomainError("the S-state series head is tabulated for p <= 2, got p=%d" % p)
    return tuple(t for t in _HEAD if t[0] < p)


@lru_cache(maxsize=None)
def _primitive_memo(n: int, sigma: int, c: int, a: int, b: int, beta_pow: int) -> DivergentValue:
    return _head_tail_primitive(n, sigma, c, a, b, beta_pow)


@lru_cache(maxsize=None)
def _head_sums(p: int, sig_rho: int, c: int, a: int, b: int) -> Tuple[Tuple[int, EpsSeries], ...]:
    """((K, S_K), ...): the head x head integral summed per power nbar^K.

    S_K = sum over k1 + k2 = K of c1 c2 Gamma(sig_rho + 1 + j1 + j2 + 2(c-1+K) eps),
    with c1, c2 the eps-series of the (j, k) terms of d^a and d^b of the head;
    none of it depends on n.
    """
    head = _series_head(p)
    sums: Dict[int, EpsSeries] = {}
    for (j1, k1, c1) in _head_terms(head, a):
        for (j2, k2, c2) in _head_terms(head, b):
            marg = sig_rho + 1 + j1 + j2
            ceps = 2 * (c - 1 + k1 + k2)
            if ceps == 0:
                if marg <= 0:
                    raise DivergenceError("unregulated divergent head term rho^%d" % (marg - 1))
                gam = EpsSeries.constant(factorial(marg - 1), 1)
            else:
                gam = gamma_series(marg, Q(ceps), order=1)
            K = k1 + k2
            sums[K] = sums.get(K, EpsSeries.zero(0)) + c1.mul(c2, order_cap=1).mul(gam, order_cap=0)
    return tuple(sorted(sums.items()))


def _head_tail_primitive(n: int, sigma: int, c: int, a: int, b: int, beta_pow: int) -> DivergentValue:
    """Brace of beta^beta_pow int dr r^{D-1+sigma+2c eps} (d^a Rbar)(d^b Rbar).

    This is the head/tail split.  The head-squared part integrates to gamma
    functions expanded in eps; their sum S_K per power nbar^K does not depend
    on n and is cached (`_head_sums`), so each n adds one product
    S_K * nbar^K per K, with nbar^K = n^K (1 + K nu1 eps) and nu1 read from
    `nbar_expansion`.  The tail cross terms are finite at eps = 0 and reduce
    to subtracted-Laguerre moments.  Each eps-dependent factor of the
    prefactor is 1 + x eps through eps^1, so their product is 1 + eps sum(x).
    """
    m = beta_pow
    sig_rho = 2 + sigma
    p = max(0, max(a, b) - sig_rho)
    A = a + b - 3 - sigma

    # --- analytic head x head ---
    st = QuantumState(n, 0)
    nu1 = nbar_expansion(st).coeff(1) / n
    int_total = EpsSeries.zero(0)
    for K, s_k in _head_sums(p, sig_rho, c, a, b):
        nbar_pow = EpsSeries.from_coeffs(0, [SymExpr.scalar(Q(n**K)), (n**K) * (K * nu1)])
        int_total = int_total + s_k.mul(nbar_pow, order_cap=0)

    # --- tail cross terms at eps = 0: head x tail + tail x (head + tail).  The series is
    #     L_{n-1}^1/n: the oracle's table of L_{n-1}^1, with each factor's 1/n in the denominator ---
    den, pairs = _radial_chain(n, 0, 0)
    head0 = (den, tuple((j, v) for j, v in pairs if j < p))
    tail0 = (den, tuple((j, v) for j, v in pairs if j >= p))
    combined: Dict[int, int] = {}
    for left, right in ((drho(head0, a), drho(tail0, b)), (drho(tail0, a), drho((den, pairs), b))):
        convolve_into(combined, left[1], right[1], sig_rho)
    tail = Q(lagint.mono_moments(combined.items(), 0)[ONE], left[0] * right[0] * n * n)
    int_total = int_total + EpsSeries.constant(tail, 0)

    # --- prefactor: 4 (2/n)^A times factors that are each 1 + x eps through eps^1, so their x add:
    #     u^m/v -> m(gamma_E + 2 ln2) + 2 - gamma_E - 2 ln2;  pi^{(m-1)eps} (mubar/2gamma_n)^{2(m-1)eps}
    #     -> (m-1)(ln pi + 2 x0) with x0 = Lambda_mu + gamma_E/2 - ln2 - (ln pi)/2;
    #     (2 m_r Zalpha/n)^{2(m-c)eps} -> 2(m-c) ln(2 m_r Zalpha/n);  (gammabar/gamma_n)^A -> A g1.
    #     Every ln2 and ln pi cancels. ---
    ebar = energy_expansion(st)
    g1 = ebar.coeff(1) / (2 * ebar.coeff(0).rational)  # gammabar/gamma_n - 1: Ebar ~ gammabar^2
    x = SymExpr({ONE: Q(2), GAMMA_E: Q(2 * (m - 1)), lam("mu"): Q(2 * (m - 1)), LNQN: Q(2 * (m - c))}) + A * g1
    pref = EpsSeries.from_coeffs(0, [SYM_ONE, x]) * (4 * Q(2, n) ** A)
    return DivergentValue(pref.mul(int_total, order_cap=0), A, A + m)


# -- the divergent catalog: one term table, evaluated at l = 0 and at l > 0 --


class _Term(NamedTuple):
    """coef(eps) Ebar^k m_r^m beta^beta [l(l+1)]^ang
    * int dr r^{D-1+sigma+2c eps} (d^a Rbar)(d^b Rbar).

    `coef` lists the eps-polynomial coefficients from eps^0 up.  The 2 m_r of
    p^2 = 2 m_r (Ebar - Vbar) goes into coef and m.
    """

    coef: Tuple[int, ...]
    sigma: int
    c: int
    a: int = 0
    b: int = 0
    beta: int = 0
    k: int = 0
    m: int = 0
    ang: int = 0


def _scaled(terms, coef=(1,), k=0, m=0, ang=0) -> List[_Term]:
    """coef(eps) Ebar^k m_r^m [l(l+1)]^ang times every term of a list."""
    out = []
    for t in terms:
        prod = [0] * (len(t.coef) + len(coef) - 1)
        for i, x in enumerate(t.coef):
            for j, y in enumerate(coef):
                prod[i + j] += x * y
        out.append(t._replace(coef=tuple(prod), k=t.k + k, m=t.m + m, ang=t.ang + ang))
    return out


def _grad(coef, sigma, c, beta) -> List[_Term]:
    """grad psi . r^sigma grad psi = (d psi)^2 r^sigma + l(l+1) r^{sigma-2} psi^2."""
    return [_Term(coef, sigma, c, 1, 1, beta), _Term(coef, sigma - 2, c, beta=beta, ang=1)]


# shared sub-lists; Vbar = -beta r^{-1+2 eps} carries c = 1 per power
_V = [_Term((-1,), -1, 1, beta=1)]
_V2 = [_Term((1,), -2, 2, beta=2)]
_V3 = [_Term((-1,), -3, 3, beta=3)]
_VP2 = [_Term((1, -4, 4), -4, 2, beta=2)]  # (1-2e)^2
_VP_DR = [_Term((1, -2), -2, 1, b=1, beta=1)]
_VVP_DR = [_Term((-1, 2), -3, 2, b=1, beta=2)]
# <r^{4eps} dr^2 Vbar> = <r^{4eps}[Vbar'' + 2 Vbar' dr + Vbar dr^2]>
_R4E_DR2_V = [
    _Term((-2, 6, -4), -3, 3, beta=1),  # -(1-2e)(2-2e)
    _Term((2, -4), -2, 3, b=1, beta=1),
    _Term((-1,), -1, 3, b=2, beta=1),
]
# <r^{4eps} Vbar>, <r^{4eps} Vbar^2>, <r^{4eps} Vbar' dr>
_R4E_V = [_Term((-1,), -1, 3, beta=1)]
_R4E_V2 = [_Term((1,), -2, 4, beta=2)]
_R4E_VP_DR = [_Term((1, -2), -2, 3, b=1, beta=1)]
# <r^{-1+4eps} dr Vbar> = -beta <r^{-2+6eps} dr> + (1-2e) beta <r^{-3+6eps}>
_R4E_R_DR_V = [_Term((-1,), -2, 3, b=1, beta=1), _Term((1, -2), -3, 3, beta=1)]

# <p^2 Vbar p^2> = 4 m^2 [ Ebar^2 <V> - 2 Ebar <V2> + <V3> ]
_P2_V_P2 = _scaled(_V, (4,), 2, 2) + _scaled(_V2, (-8,), 1, 2) + _scaled(_V3, (4,), m=2)
# <p^4 Vbar> = <p^2 Vbar p^2> + 4 m <V Vp dr>
_P4_V = _P2_V_P2 + _scaled(_VVP_DR, (4,), m=1)
# <Vbar p^2 Vbar> = 2 m Ebar <V2> - 2 m <V3> - 2 <V Vp dr>
_V_P2_V = _scaled(_V2, (2,), 1, 1) + _scaled(_V3, (-2,), m=1) + _scaled(_VVP_DR, (-2,))
_P_V2_P = _grad((1,), -2, 2, 2)
# int grad psi . Vbar [ Vbar' psi + Vbar grad psi ]
_P_V_P_V = [_Term((-1, 2), -3, 2, a=1, beta=2)] + _P_V2_P

_TERMS: Dict[str, List[_Term]] = {
    "V3": _V3,
    "V.V'": [_Term((-1, 2), -3, 2, beta=2)],
    "(V')2": _VP2,
    # <Vbar^2 p^2> = 2 m [ Ebar <V2> - <V3> ]
    "V2.p2": _scaled(_V2, (2,), 1, 1) + _scaled(_V3, (-2,), m=1),
    "p2.V.p2": _P2_V_P2,
    # <p^6> = 8 m^3 [ Ebar^3 - 3 Ebar^2 <V> + 3 Ebar <V2> - <V3> ] - 8 m^2 <V Vp dr>
    "p6": [_Term((8,), 0, 0, k=3, m=3)]
    + _scaled(_V, (-24,), 2, 3)
    + _scaled(_V2, (24,), 1, 3)
    + _scaled(_V3, (-8,), m=3)
    + _scaled(_VVP_DR, (-8,), m=2),
    "p4.V": _P4_V,
    "V.p2.V": _V_P2_V,
    "p.V.p.V": _P_V_P_V,
    "drd.V.dr.V": [t for t in _P_V_P_V if not t.ang],  # radial derivatives only
    "V'.dr": _VP_DR,
    "V.V'.dr": _VVP_DR,
    # the "second and higher order derivatives" family (r^{4 eps} regulators)
    "r4e/r2.dr2": [_Term((1,), -2, 2, b=2)],
    # <r^{-2+4eps} p^2> = 2 m [ Ebar <r^{-2+4eps}> + beta <r^{-3+6eps}> ]
    "r4e/r2.p2": [_Term((2,), -2, 2, k=1, m=1), _Term((2,), -3, 3, beta=1, m=1)],
    "r4e/r.dr3": [_Term((1,), -1, 2, b=3)],
    "r4e.dr2.V": _R4E_DR2_V,
    # <r^{4eps} dr^2 p^2> = 2 m [ Ebar <r^{4eps} dr^2> - <r^{4eps} dr^2 Vbar> ]
    "r4e.dr2.p2": [_Term((2,), 0, 2, b=2, k=1, m=1)] + _scaled(_R4E_DR2_V, (-2,), m=1),
    # <r^{4eps} p^2 Vbar> = 2 m Ebar <r^{4eps} V> - 2 m <r^{4eps} V^2> - 2 <r^{4eps} V' dr>
    "r4e.p2.V": _scaled(_R4E_V, (2,), 1, 1) + _scaled(_R4E_V2, (-2,), m=1) + _scaled(_R4E_VP_DR, (-2,)),
    # p^4 psi = 4 m^2 (Ebar-V)^2 psi + 2m (lap V) psi + 4 m V' dr psi; the
    # delta term <r^{4eps} delta^D> is scaleless and vanishes in dimreg
    "r4e.p4": [_Term((4,), 0, 2, k=2, m=2)]
    + _scaled(_R4E_V, (-8,), 1, 2)
    + _scaled(_R4E_V2, (4,), m=2)
    + _scaled(_R4E_VP_DR, (4,), m=1),
    # <p_i r^{4eps} p_i Vbar> = (1-2e) beta G(1,0;-2,3) - beta G(1,1;-1,3)
    "p.r4e.p.V": [_Term((1, -2), -2, 3, a=1, beta=1)] + _grad((-1,), -1, 3, 1),
    # <r^{4eps} p_i Vbar p_i> = -<r^{4eps} V' dr> + 2 m [Ebar <r^{4eps} V> - <r^{4eps} V^2>]
    "r4e.p.V.p": _scaled(_R4E_VP_DR, (-1,)) + _scaled(_R4E_V, (2,), 1, 1) + _scaled(_R4E_V2, (-2,), m=1),
    "r4e/r.dr.V": _R4E_R_DR_V,
    # <r^{-1+4eps} dr p^2> = 2 m [ Ebar <r^{-1+4eps} dr> - <r^{-1+4eps} dr Vbar> ]
    "r4e/r.dr.p2": [_Term((2,), -1, 2, b=1, k=1, m=1)] + _scaled(_R4E_R_DR_V, (-2,), m=1),
}

# at l > 0 these tags are finite 3D operators: tag -> (sign, catalog tag) of the
# closed form they equal, a check on the term lists at every n
_TWINS = {
    "V3": (-1, "1/r3"), "V.V'": (-1, "1/r3"), "(V')2": (1, "1/r4"),
    "V2.p2": (1, "p2.1/r2"), "p2.V.p2": (-1, "p2.1/r.p2"), "p6": (1, "p6"),
    "p4.V": (-1, "p4.1/r"), "V.p2.V": (1, "p.1/r2.p"), "V'.dr": (1, "1/r2.dr"),
    "r4e/r2.dr2": (1, "1/r2.dr2"), "r4e/r2.p2": (1, "p2.1/r2"), "r4e/r.dr3": (1, "1/r.dr3"),
    "V.V'.dr": (-1, "1/r3.dr"), "r4e.p4": (1, "p4"), "r4e.p2.V": (1, "p2.V"), "r4e.p.V.p": (1, "p.V.p"),
    "p.r4e.p.V": (1, "p2.V"), "r4e/r.dr.V": (1, "1/r3"),
}

# the identity network: each list must evaluate to zero
_IDENTITIES = [
    ("V.p2.V == p.V2.p", _V_P2_V + _scaled(_P_V2_P, (-1,))),
    ("(V')2 == -2 V.V'.dr", _VP2 + _scaled(_VVP_DR, (2,))),
    (
        "(V')2 == 2m V3 + V.p2.V - 2mE V2",
        _VP2 + _scaled(_V3, (-2,), m=1) + _scaled(_V_P2_V, (-1,)) + _scaled(_V2, (2,), 1, 1),
    ),
    ("2m (V')2 == p2.V.p2 - p4.V", _scaled(_VP2, (2,), m=1) + _scaled(_P2_V_P2, (-1,)) + _P4_V),
    (
        "s=-2+4eps recursion",
        _scaled(_V2, (4, -16), 1, 1)
        + _scaled(_V3, (-6, 20), m=1)
        + _scaled(_VP2, (3, -6))
        + _scaled(_VP2, (-4,), ang=1),
    ),
]


def _units(terms) -> Tuple[int, int]:
    """(mr, za) powers of the brace; the l > 0 Value carries 3 more of each."""
    units = set()
    for t in terms:
        A = t.a + t.b - 3 - t.sigma
        units.add((A + t.k + t.m, A + t.beta + 2 * t.k))
    if len(units) != 1:
        raise DomainError("terms disagree on units: %s" % sorted(units))
    return units.pop()


def _ebar_pow(n: int, k: int) -> EpsSeries:
    """Ebar^k = E0^k (1 + k (E1/E0) eps) of the S state n through eps^1."""
    ebar = energy_expansion(QuantumState(n, 0))
    e0 = ebar.coeff(0).rational
    return EpsSeries.from_coeffs(0, [SymExpr.scalar(e0**k), ebar.coeff(1) * (k * e0 ** (k - 1))])


def _eval_l0(terms, n: int, units: Tuple[int, int]) -> DivergentValue:
    """Sum of head/tail primitives times Ebar^k; l(l+1) terms vanish."""
    total = DivergentValue(EpsSeries.zero(0), *units)
    for t in terms:
        if t.ang:
            continue
        # coef(eps) only multiplies the prefactor, so one memoized brace serves every coef
        v = _primitive_memo(n, t.sigma, t.c, t.a, t.b, t.beta).mul_series(_eps_poly(*t.coef))
        if t.k:
            v = v.mul_series(_ebar_pow(n, t.k), mr=t.k, za=2 * t.k)
        total = total + v.shift_dims(mr=t.m)
    return total


_DR = (R, DR, DDR, DDDR)  # d^a R as operands of the catalog pieces


def _radial_rows() -> dict:
    """(sigma, a, b) with a <= b -> the first catalog row whose oracle is the one
    piece (1, d^a R, d^b R, sigma), so 1/r2 serves before V2."""
    rows = {}
    for row in CATALOG.values():
        (coef, left, right, sigma), *more = row.pieces
        if not (row.contact or row.logpow or more) and coef == 1 and left in _DR and right in _DR:
            rows.setdefault((sigma, *sorted((_DR.index(left), _DR.index(right)))), row)
    return rows


_RADIAL = _radial_rows()


def _eval_pos(terms, st: QuantumState) -> SymExpr:
    """Exact eps = 0 value with E = -1/2n^2 and beta = 1: each term's radial
    integral int dr r^{2+sigma} (d^a R)(d^b R) is its catalog row's closed form."""
    n, l = st.n, st.l
    e, L = Q(-1, 2 * n * n), Q(l * (l + 1))
    return SymExpr.scalar(
        sum(t.coef[0] * e**t.k * L**t.ang * _RADIAL[(t.sigma, *sorted((t.a, t.b)))].closed(n, l, L) for t in terms)
    )


def _evaluate(terms, st: QuantumState):
    units = _units(terms)
    if st.l == 0:
        return _eval_l0(terms, st.n, units)
    return Value(_eval_pos(terms, st), units[0] + 3, units[1] + 3)


def divergent_tags():
    return sorted(_TERMS)


def divergent_expectation(tag: str, n: int, l: int):
    """Dimensionally regularized catalog: Laurent brace for l = 0, exact
    finite Value for l > 0."""
    st = QuantumState(n, l)
    terms = _TERMS.get(tag)
    if terms is None:
        raise DivergentCatalogError(
            "unknown divergent tag %r; valid: %s" % (tag, ", ".join(divergent_tags()))
        )
    return _evaluate(terms, st)


# ---------------------------------------------------------------------------
# identity network
# ---------------------------------------------------------------------------


def identity_residuals(n: int, l: int) -> List[Tuple[str, object]]:
    """Residuals of the exact D-dimensional relations, through O(eps^0)."""
    st = QuantumState(n, l)
    out = [(name, _evaluate(terms, st)) for name, terms in _IDENTITIES]
    if l == 0:
        contact = DivergentValue(EpsSeries.constant(Q(-2), 0), 0, 1)
        out.insert(4, ("V'.dr == -2 pi phibar2 Za mubar^2eps", _evaluate(_VP_DR, st) - contact))
        return [(name, v.series) for name, v in out]
    # l > 0: everything is finite and the identities close at eps = 0
    out.insert(4, ("V'.dr == 0 (l>0)", _evaluate(_VP_DR, st)))
    return [(name, v.sym) for name, v in out]
