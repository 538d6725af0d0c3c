"""Exact polynomial layer: associated Laguerre polynomials, their p-subtracted
variants, and Gegenbauer polynomials, all with Fraction coefficients."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .exactnum import DomainError, Q, _finite, binomial, factorial, rising

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


def assoc_laguerre(n: int, k: Scalar) -> Poly:
    """L_n^k(x) with c_r = (-1)^r/r! binom(n+k, n-r); L_n^k = 0 for n < 0.

    The c_r are stepped from c_0 = binom(n+k, n) by their ratio
    c_{r+1}/c_r = -(n-r)/((r+1)(r+1+k)), so a degree-n polynomial costs O(n)
    products.  k may be a non-negative integer or half-integer (general
    binomial); other non-integer orders are rejected since nothing downstream
    needs them.
    """
    if n < 0:
        return Poly()
    k = _finite(k, "Laguerre order k")
    if k.denominator not in (1, 2) or k < 0:
        raise DomainError("Laguerre order k must be a non-negative integer or half-integer")
    coeffs = [binomial(n + k, n)]
    for r in range(n):
        coeffs.append(-coeffs[r] * (n - r) / ((r + 1) * (r + 1 + k)))
    return Poly(coeffs)


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
