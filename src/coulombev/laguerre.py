"""Exact polynomial layer: the associated Laguerre polynomials as integer
tables, built once and read by every exact Laguerre integral (with `drho` and
`convolve_into`), and `Poly`, the Fraction polynomial that `assoc_laguerre`,
`subtract_laguerre` and `gegenbauer` return."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Dict, Sequence, Union

from .exactnum import DomainError, Q, _finite, factorial, rising

Scalar = Union[int, Fraction]


class Poly:
    """Dense univariate polynomial over Fraction, coeffs[i] multiplies x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [Q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

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

    def drop_low(self, p: int) -> "Poly":
        """Remove the monomials of degree < p."""
        return Poly([Q(0)] * p + self.coeffs[p:]) if p > 0 else self

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
    as the radial function e^{-rho/2} sum_j (c_j / den) rho^j, and the
    evaluators build one Fraction per result.  Here den = n! and the n! c_r
    are integers; n! c_n = (-1)^n, so no smaller den exists.  k must be a
    non-negative integer.
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
    den, cs = laguerre_table(n, k)
    return Poly([Q(c, den) for _, c in cs])


def subtract_laguerre(n: int, k: int, p: int) -> Poly:
    """^pL_n^k: the associated Laguerre polynomial with its first p powers removed."""
    if p < 0:
        raise DomainError("subtraction count p must be >= 0")
    return assoc_laguerre(n, k).drop_low(p)


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
