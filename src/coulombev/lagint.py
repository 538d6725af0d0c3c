"""Laguerre polynomials and every exact integral of them.

Each L_n^k is built once, as an integer table (`laguerre_table`); only this
module builds, differentiates (`drho`), multiplies (`convolve_into`) and
integrates such tables, all through one product routine (`_products`) and
the monomial moments of `mono_moments`.  Three integrals read them: the 3D
catalog oracle (`bilinear_sum`, `contact`) on the operands `coulomb` builds,
the subtracted-Laguerre cross moment of the l = 0 tail (`tail_cross_moment`)
and `brute_force_moment`, the oracle of the closed forms I, J, K, L, M.

Those are  int_0^inf dx e^{-x} x^s (ln x)^m P(x) Q(x)  at integer s (any
other s is a DomainError), exact SymExprs over {1, gamma_E, zeta(2),
gamma_E^2}: each term is the exact ratio Gamma(a+eps)/Gamma(c+eps) of
`exactnum.gamma_ratio_eps` times one regular Gamma series (`_term_limit`).
`Poly` is the Fraction polynomial of `assoc_laguerre`, `subtract_laguerre`
and `gegenbauer`.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Dict, Optional, Sequence, Tuple

from .exactnum import (
    DivergenceError,
    DomainError,
    Q,
    SYM_ZERO,
    SymExpr,
    GAMMA_E,
    ONE,
    Record,
    Scalar,
    ZETA2,
    GAMMA2,
    factorial,
    gamma_lam,
    gamma_ratio_eps,
    gamma_series,
    lam,
    lam2,
    rising,
    _finite,
)


class Poly:
    """Dense univariate polynomial over Fraction, coeffs[i] multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    def coeff(self, r: int) -> Fraction:
        return self.coeffs[r] if 0 <= r < len(self.coeffs) else Q(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        m = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(m)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def deriv(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Scalar) -> Fraction:
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * Q(x) + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as its number, which it equals
        return hash(self.coeff(0)) if len(self.coeffs) <= 1 else hash(tuple(self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            elif i == 1:
                bits.append("%s*x" % c)
            else:
                bits.append("%s*x^%d" % (c, i))
        return " + ".join(bits)


@lru_cache(maxsize=None)
def laguerre_table(n: int, k: int):
    """L_n^k(x) with c_r = (-1)^r/r! binom(n+k, n-r) as an integer table; L_n^k = 0 for n < 0.

    An integer table (den, ((j, c_j), ...)) stands for sum_j (c_j / den) x^j
    with integer den and c_j (j may be < 0); `drho` and `convolve_into` read it
    as e^{-rho/2} sum_j (c_j / den) rho^j.  Here den = n!, the least that makes
    every c_r an integer, since n! c_n = (-1)^n.  k must be a non-negative integer.
    """
    try:
        n = index(n)
    except TypeError:
        raise DomainError("Laguerre degree n must be an integer, got %r" % (n,)) from None
    k = _finite(k, "Laguerre order k")
    if k.denominator != 1 or k < 0:
        raise DomainError("Laguerre order k must be a non-negative integer, got %s" % k)
    if n < 0:
        return 1, ()
    k = int(k)
    # n! c_r, with math.perm(n, n - r) = n!/r!
    cs = tuple((r, (-1) ** r * math.comb(n + k, n - r) * math.perm(n, n - r)) for r in range(n + 1))
    return math.factorial(n), cs


def drho(table, a: int = 1, step: int = 2):
    """((2/step) d/drho)^a of a table's function, including the e^{-rho/2} factor.

    step = 2 gives d/drho; step = n gives d/dr, since rho = 2r/n.
    """
    den, cs = table
    for _ in range(a):
        out: Dict[int, int] = {}
        for j, c in cs:
            if j:
                out[j - 1] = out.get(j - 1, 0) + 2 * j * c
            out[j] = out.get(j, 0) - c
        den, cs = den * step, tuple((j, c) for j, c in out.items() if c)
    return den, cs


def convolve_into(into: Dict[int, int], left, right, shift: int, m: int = 1):
    """into[shift + j1 + j2] += m c1 c2 over the integer pairs of two tables."""
    for j1, c1 in left:
        c1 *= m
        for j2, c2 in right:
            t = shift + j1 + j2
            into[t] = into.get(t, 0) + c1 * c2


def assoc_laguerre(n: int, k: int) -> Poly:
    """L_n^k(x) as a Poly, read from `laguerre_table`."""
    return subtract_laguerre(n, k, 0)


def subtract_laguerre(n: int, k: int, p: int) -> Poly:
    """^pL_n^k: the associated Laguerre polynomial with its first p powers removed."""
    _require_depth(p)
    den, cs = laguerre_table(n, k)
    return Poly([Q(c, den) if j >= p else 0 for j, c in cs])


def gegenbauer(n: int, lam: Scalar) -> Poly:
    """C_n^lambda(beta) from its terminating series, exact in Fraction."""
    lam = _finite(lam, "Gegenbauer order lambda")
    if n < 0:
        raise DomainError("Gegenbauer degree must be >= 0")
    if lam <= 0:
        raise DomainError("Gegenbauer order lambda must be positive")
    coeffs = [Q(0)] * (n + 1)
    for t in range(n // 2 + 1):
        # (-1)^t Gamma(n+lam-t)/Gamma(lam) / (t! (n-2t)!) * 2^(n-2t)
        coeffs[n - 2 * t] = (
            Q(-1) ** t * rising(lam, n - t) / (factorial(t) * factorial(n - 2 * t)) * Q(2) ** (n - 2 * t)
        )
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# products of tables, integrated monomial by monomial
# ---------------------------------------------------------------------------

# Row t is (t!, t! H_t, t! (H_t^2 - H_t^(2))), the unsigned Stirling numbers
# [t+1, 1], [t+1, 2] and 2 [t+1, 3]; the table grows on demand, and a longer
# tuple replaces a shorter one whole, so a reader never sees a partial one.
_GAMMA_ROWS: Tuple[Tuple[int, int, int], ...] = ((1, 0, 0),)


def _gamma_rows(t: int) -> Tuple[Tuple[int, int, int], ...]:
    """The row table, grown to hold row t."""
    global _GAMMA_ROWS
    rows = _GAMMA_ROWS
    if t >= len(rows):
        grown = list(rows)
        f, f1, f2 = grown[-1]
        for k in range(len(rows), t + 1):
            f, f1, f2 = k * f, k * f1 + f, k * f2 + 2 * f1
            grown.append((f, f1, f2))
        _GAMMA_ROWS = rows = tuple(grown)
    return rows


def _require_log_power(logpow):
    if logpow not in (0, 1, 2):
        raise DomainError("log power must be 0, 1 or 2, got %r" % (logpow,))


def mono_moments(pairs, logpow: int) -> Dict[object, int]:
    """sum_t c_t int_0^inf e^{-x} x^t ln^m x dx over the (t, c_t) pairs, exact.

    The m-th derivative of Gamma(t+1) is t! [(H_t - gamma_E)^2 + zeta(2) -
    H_t^(2)] at m = 2, t! (H_t - gamma_E) at m = 1 and t! at m = 0; each sum
    over t is taken on the integer rows of `_gamma_rows`, and the result maps
    each basis symbol to its sum (an integer for integer c_t; the caller
    builds the Fractions).  logpow is checked before `pairs` is read, so a
    lazy iterable does no work for a bad one.  A nonzero c_t at t < 0 is a
    DivergenceError.
    """
    _require_log_power(logpow)
    rows = _GAMMA_ROWS
    s0 = s1 = s2 = 0
    for t, c in pairs:
        if not c:
            continue
        if t < 0:
            raise DivergenceError("moment diverges: surviving x^%d monomial at the origin" % t)
        if t >= len(rows):
            rows = _gamma_rows(t)
        f, f1, f2 = rows[t]
        s0 += c * f
        if logpow:
            s1 += c * f1
            if logpow == 2:
                s2 += c * f2
    if logpow == 0:
        return {ONE: s0}
    if logpow == 1:
        return {ONE: s1, GAMMA_E: -s0}
    return {ONE: s2, GAMMA_E: -2 * s1, GAMMA2: s0, ZETA2: s0}


def _products(parts, shift: int):
    """x^shift sum_i (num_i/den_i) x^s_i (left_i)(right_i) = (1/den) sum_t c_t x^t, all integers.

    Each part is (num, den, s, left_pairs, right_pairs), its den holding both
    tables' denominators.  Returns (den, monomials), den the parts' least
    common denominator; `monomials` runs the convolution when it is read.
    """
    den = math.lcm(*[part[1] for part in parts])

    def monomials():
        combined: Dict[int, int] = {}
        for num, d, s, left, right in parts:
            convolve_into(combined, left, right, shift + s, num * (den // d))
        yield from combined.items()

    return den, monomials()


class MomentSpec(Record):
    """One moment integral: x^s (ln x)^logpow  ^pL_n^k(x) [ L_n'^k'(x) ]."""

    __slots__ = ("s", "logpow", "left", "right")

    def __init__(self, s: Fraction, logpow: int, left: Tuple[int, int, int], right: Optional[Tuple[int, int]] = None):
        # left is (n, k, p), right (n', k')
        self._fill(s, logpow, left, right)


def brute_force_moment(spec: MomentSpec) -> SymExpr:
    """Monomial-by-monomial oracle for integer s, exact: the j >= p pairs of the
    table of L_n^k (^pL_n^k) times the table of L_n'^k'."""
    s = _integer_power(spec.s)
    if s + spec.left[2] <= -1:
        raise DivergenceError("moment diverges: leading monomial x^%d below x^-1" % (s + spec.left[2]))
    n, k, p = spec.left
    _require_depth(p)
    _require_log_power(spec.logpow)  # before any table is built
    (dl, left), (dr, right) = laguerre_table(n, k), laguerre_table(*(spec.right or (0, 0)))  # L_0^0 = 1
    den, monomials = _products(((1, dl * dr, 0, [(j, c) for j, c in left if j >= p], right),), s)
    return SymExpr({tag: Fraction(v, den) for tag, v in mono_moments(monomials, spec.logpow).items()})


def tail_cross_moment(n: int, k: int, p: int, a: int, b: int, s: int) -> Fraction:
    """int_0^inf rho^s [d^a h d^b t + d^a t d^b (h + t)] drho, exact, with d = d/drho.

    h + t = e^{-rho/2} L_n^k(rho), and the head h holds its powers below p, so
    t = e^{-rho/2} ^pL_n^k is the subtracted-Laguerre tail of the l = 0 split.
    """
    den, pairs = laguerre_table(n, k)
    head = (den, tuple(jc for jc in pairs if jc[0] < p))
    tail = (den, tuple(jc for jc in pairs if jc[0] >= p))
    products = ((drho(head, a), drho(tail, b)), (drho(tail, a), drho((den, pairs), b)))
    parts = [(1, dl * dr, 0, left, right) for (dl, left), (dr, right) in products]
    common, monomials = _products(parts, s)
    return Fraction(mono_moments(monomials, 0)[ONE], common)


# ---------------------------------------------------------------------------
# the 3D catalog oracle: operands of R_nl as integer tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _norm2(n: int, l: int) -> Fraction:
    """norm2 of R_{nl}(r) = sqrt(norm2) rho^l e^{-rho/2} L_{n-l-1}^{2l+1}(rho), rho = 2r/n."""
    return Q(4) * factorial(n - l - 1) / (n**4 * factorial(n + l))


@lru_cache(maxsize=None)
def _radial_chain(n: int, l: int, a: int):
    """d^a/dr^a [rho^l e^{-rho/2} L_{n-l-1}^{2l+1}(rho)] as an integer table."""
    if a == 0:
        den, cs = laguerre_table(n - l - 1, 2 * l + 1)
        return den, tuple((l + j, c) for j, c in cs)
    return drho(_radial_chain(n, l, a - 1), step=n)


@lru_cache(maxsize=None)
def _operand_table(n: int, l: int, op):
    """An operand applied to R_{nl}, without sqrt(norm2), as an integer table.

    An operand is a tuple of terms (c, j, a, ang, k), each standing for
    c [l(l+1)]^ang E^k r^{-j} d^a R(r) with E = -1/2n^2 and d = d/dr; a sum
    of operands is their concatenation.  `coulomb` builds them from `R` by
    `d`, `over_r`, `p2` and `scaled`; only this function reads them.
    """
    L, E, over = l * (l + 1), Q(-1, 2 * n * n), Q(2, n)
    parts = []
    for c, j, a, g, k in op:
        w = c * L**g * E**k * over**j
        if w:
            den, cs = _radial_chain(n, l, a)
            parts.append((w / den, j, cs))
    den = math.lcm(*(w.denominator for w, _, _ in parts))
    table: Dict[int, int] = {}
    for w, j, cs in parts:
        m = w.numerator * (den // w.denominator)
        for i, v in cs:
            table[i - j] = table.get(i - j, 0) + m * v
    return den, tuple((t, v) for t, v in table.items() if v)


def _weighted(state, pieces, shift: int):
    """rho^shift sum_i coef_i r^sigma_i (left_i R)(right_i R) = (num/den) sum_t c_t rho^t e^{-rho}.

    shift = 2 is the rho^2 of the radial measure, shift = 0 the bare sum.
    Returns (num, den, monomials) as `_products` does, with the weights
    coef (n/2)^sigma / (d_l d_r) as integer pairs and norm2 in num/den.
    """
    n, l = state.n, state.l
    parts = []
    for coef, left, right, sigma in pieces:
        dl, tl = _operand_table(n, l, left)
        dr, tr = _operand_table(n, l, right)
        up, down = (n**sigma, 1 << sigma) if sigma >= 0 else (1 << -sigma, n**-sigma)  # (n/2)^sigma
        parts.append((coef.numerator * up, coef.denominator * dl * dr * down, sigma, tl, tr))
    den, monomials = _products(parts, shift)
    norm2 = _norm2(n, l)
    return norm2.numerator, norm2.denominator * den, monomials


def bilinear_sum(state, pieces, logpow: int = 0, kappa: str = "kappa") -> SymExpr:
    """sum_i coef_i int_0^inf dr r^{2+sigma_i} ln^logpow(kappa r) (left_i R)(right_i R), exact.

    `state` is a bound state (a `coulomb.QuantumState`), and `pieces` holds
    (coef, left, right, sigma) with operands as `_operand_table` reads them
    and integer sigma.  Divergent monomials may cancel between pieces: the
    check runs after they are combined.  ln(kappa r) = ln(rho) + Lambda_kappa
    with Lambda_kappa = ln(kappa n / (2 m_r Za)).  All is integer arithmetic
    up to the last line, which builds one Fraction per coefficient.
    """
    num, den, monomials = _weighted(state, pieces, 2)
    # int rho^t ln^m(rho) e^{-rho}; mono_moments checks logpow before the convolution runs
    sums = mono_moments(monomials, logpow)
    # d^m/ds^m [e^{Lambda s} Gamma(t+1+s)] at s = 0 holds gamma_E only as gamma_E - Lambda,
    # so the ln(kappa r) moments are the ln(rho) ones with gamma_E -> gamma_E - Lambda_kappa
    g, g2 = sums.get(GAMMA_E, 0), sums.get(GAMMA2, 0)
    sums.update({lam(kappa): -g, gamma_lam(kappa): -2 * g2, lam2(kappa): g2})
    num, den = num * state.n**3, den << 3  # dr = (n/2) drho and r^2 = (n/2)^2 rho^2
    return SymExpr({tag: Fraction(c * num, den) for tag, c in sums.items() if c})


def contact(state, pieces) -> SymExpr:
    """(1/4) lim_{r->0} sum_i coef_i r^sigma_i (left_i R)(right_i R), exact; error if it diverges.

    The delta function's 1/pi is left to the caller.  As in `bilinear_sum`,
    the last line builds the one Fraction from integers.
    """
    num, den, monomials = _weighted(state, pieces, 0)
    combined = dict(monomials)
    for t, c in combined.items():
        if c and t < 0:
            raise DivergenceError("contact value divergent (r^%d)" % t)
    return SymExpr({ONE: Fraction(combined.get(0, 0) * num, den << 2)})


# ---------------------------------------------------------------------------
# closed forms via termwise gamma-ratio limits
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _term_limit(a: int, b: int, c: int, logpow: int) -> SymExpr:
    """eps^0 of Gamma(a+e)Gamma(b+e)/Gamma(c+e) * {d/ds brace}^logpow at e -> 0.

    This is the limiting procedure for integer powers: every term of the I/J
    and K/L/M sums has this shape with b >= 1.  The brace makes this the
    logpow-th derivative in e at e = 0, i.e. logpow! [e^logpow] of the exact
    ratio Gamma(a+e)/Gamma(c+e) (`gamma_ratio_eps`) times Gamma(b+e).
    """
    if b < 1:
        raise DivergenceError("Gamma(%d + eps) signals a divergent integral" % b)
    ratio = gamma_ratio_eps(a, c, logpow)
    gb = gamma_series(b, 1, order=logpow)
    return factorial(logpow) * sum((ratio[i] * gb.coeff(logpow - i) for i in range(logpow + 1)), SYM_ZERO)


def _integer_power(s) -> int:
    """s as an int; a non-integer, NaN or infinite power is a DomainError."""
    if isinstance(s, numbers.Integral) or (isinstance(s, Fraction) and s.denominator == 1):
        return int(s)
    if isinstance(s, float) and s.is_integer():
        return int(s)
    raise DomainError("power s must be an integer, got %r" % (s,))


def _require_convergent(s: int, p: int):
    if s + p <= -1:
        raise DivergenceError("integral nonconvergent: s + p = %d <= -1" % (s + p))


def _require_integer_orders(**orders):
    for name, v in orders.items():
        if not isinstance(v, numbers.Integral):
            raise DomainError("Laguerre order %s must be an integer, got %r" % (name, v))


def _require_depth(p):
    if not isinstance(p, numbers.Integral) or p < 0:
        raise DomainError("subtraction depth p must be a non-negative integer, got %r" % (p,))


def _laguerre_prefactors(n: int, k: int, r: int) -> Fraction:
    # (-1)^r (n+k)! / ( r! (n-r)! (k+r)! )
    return Q(-1) ** r * factorial(n + k) / (factorial(r) * factorial(n - r) * factorial(k + r))


def integral_I(s: Scalar, n: int, k: int, p: int = 0) -> SymExpr:
    """^pI_s(n,k) = int e^{-x} x^s ^pL_n^k(x) dx.

    p = 0 uses the no-sum closed form with the gamma-ratio limit; p >= 1 is
    ^pK_s(n,k;0,0), since L_0^0 = 1.
    """
    s = _integer_power(s)
    _require_integer_orders(n=n, k=k)
    _require_depth(p)
    _require_convergent(s, p)
    if n < 0:
        return SYM_ZERO
    if p == 0:
        pref = Q(-1) ** n / factorial(n)
        return pref * _term_limit(s - k + 1, s + 1, s - k - n + 1, 0)
    return _bilinear_closed(s, n, k, 0, 0, p, 0)


def integral_J(s: Scalar, n: int, k: int) -> SymExpr:
    """J_s(n,k) = int e^{-x} x^s ln x L_n^k(x) dx; value in span{1, gamma_E}."""
    s = _integer_power(s)
    _require_integer_orders(n=n, k=k)
    _require_convergent(s, 0)
    if n < 0:
        return SYM_ZERO
    pref = Q(-1) ** n / factorial(n)
    return pref * _term_limit(s - k + 1, s + 1, s - k - n + 1, 1)


def _bilinear_closed(s: Scalar, n: int, k: int, n2: int, k2: int, p: int, logpow: int) -> SymExpr:
    s = _integer_power(s)
    _require_integer_orders(n=n, k=k, n2=n2, k2=k2)
    _require_depth(p)
    _require_convergent(s, p)
    if n < 0 or n2 < 0:
        return SYM_ZERO
    out = SYM_ZERO
    pref2 = Q(-1) ** n2 / factorial(n2)
    for r in range(p, n + 1):
        a_r = _laguerre_prefactors(n, k, r) * pref2
        out = out + a_r * _term_limit(s + r + 1 - k2, s + r + 1, s + r + 1 - k2 - n2, logpow)
    return out


def integral_K(s: Scalar, n: int, k: int, n2: int, k2: int, p: int = 0):
    """^pK_s(n,k;n',k') = int e^{-x} x^s ^pL_n^k L_{n'}^{k'} dx."""
    return _bilinear_closed(s, n, k, n2, k2, p, 0)


def integral_L(s: Scalar, n: int, k: int, n2: int, k2: int, p: int = 0):
    """^pL_s(n,k;n',k') with one ln x in the weight."""
    return _bilinear_closed(s, n, k, n2, k2, p, 1)


def integral_M(s: Scalar, n: int, k: int, n2: int, k2: int):
    """M_s(n,k;n',k') with ln^2 x in the weight."""
    return _bilinear_closed(s, n, k, n2, k2, 0, 2)
