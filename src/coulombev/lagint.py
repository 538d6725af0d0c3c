"""Closed-form Laguerre moment integrals I, J, K, L, M and their p-subtracted
variants, with the integer-power limiting machinery, plus an independent
brute-force oracle that convolves the integer Laguerre tables of `laguerre`
and integrates monomial by monomial (`mono_moments`, on integer rows of
Stirling numbers).

All integrals are of the shape  int_0^inf dx e^{-x} x^s (ln x)^m  P(x) Q(x)
with integer s, the powers the catalog and the eps-poles need; every entry
point refuses any other s with a DomainError.  Values are exact SymExprs over
{1, gamma_E, zeta(2), gamma_E^2}: each term is a Gamma-ratio limit, the exact
ratio Gamma(a+eps)/Gamma(c+eps) of `exactnum.gamma_ratio_eps` times one
regular Gamma series (see `_term_limit`).
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple, Union

from .exactnum import (
    DivergenceError,
    DomainError,
    Q,
    SYM_ZERO,
    SymExpr,
    GAMMA_E,
    ONE,
    Record,
    ZETA2,
    GAMMA2,
    factorial,
    gamma_ratio_eps,
    gamma_series,
)
from .laguerre import convolve_into, laguerre_table

Scalar = Union[int, Fraction]


class MomentSpec(Record):
    """One moment integral: x^s (ln x)^logpow  ^pL_n^k(x) [ L_n'^k'(x) ]."""

    __slots__ = ("s", "logpow", "left", "right")

    def __init__(self, s: Fraction, logpow: int, left: Tuple[int, int, int], right: Optional[Tuple[int, int]] = None):
        # left is (n, k, p), right (n', k')
        self._fill(s, logpow, left, right)


# ---------------------------------------------------------------------------
# brute-force oracle: expand in monomials, integrate with Gamma derivatives
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
    if logpow not in (0, 1, 2):
        raise DomainError("log power must be 0, 1 or 2, got %r" % (logpow,))
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


def brute_force_moment(spec: MomentSpec) -> SymExpr:
    """Monomial-by-monomial oracle for integer s, exact: the j >= p pairs of the
    table of L_n^k (^pL_n^k) convolved in integers with the table of L_n'^k'."""
    s = _integer_power(spec.s)
    if s + spec.left[2] <= -1:
        raise DivergenceError("moment diverges: leading monomial x^%d below x^-1" % (s + spec.left[2]))
    n, k, p = spec.left
    _require_depth(p)
    right = spec.right or (0, 0)  # L_0^0 = 1

    def monomials():  # the tables are built only once mono_moments has checked the log power
        combined: Dict[int, int] = {}
        left = [(j, c) for j, c in laguerre_table(n, k)[1] if j >= p]  # ^pL_n^k
        convolve_into(combined, left, laguerre_table(*right)[1], s)
        yield from combined.items()

    sums = mono_moments(monomials(), spec.logpow)
    den = laguerre_table(n, k)[0] * laguerre_table(*right)[0]  # cached by now
    return SymExpr({tag: Fraction(v, den) for tag, v in sums.items()})


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
