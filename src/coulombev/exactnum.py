"""Exact-rational substrate: harmonic and diharmonic numbers, a small basis of
symbolic constants (Euler gamma, zeta(2), ln pi, log scales), and truncated
Laurent series in the dimensional-regularization parameter epsilon.

Every gamma expansion near integers is built on one exact series,
`gamma_ratio_eps` for Gamma(a+x)/Gamma(c+x), with Gamma(1+x) as the one
symbolic constant series: `gamma_series` and the Laguerre Gamma-limits of
`lagint`.

Scalars are `fractions.Fraction` throughout; nothing here ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

Q = Fraction
Scalar = Union[int, Fraction]


class DomainError(ValueError):
    pass


class DivergenceError(ValueError):
    pass


class UnsupportedOrderError(ValueError):
    pass


class BasisError(ValueError):
    """A symbolic product left the fixed constant basis."""


def _eps_value(eps):
    """A numeric eps (float or Fraction); |eps| < 1/4 keeps the l-dependent
    exponents of the generalized series in their convergent range."""
    if not math.isfinite(eps) or abs(eps) >= Q(1, 4):
        raise DomainError("numeric eps must be finite with |eps| < 1/4, got %r" % (eps,))
    return eps


def _finite(x, name: str) -> Fraction:
    """x as an exact Fraction; a NaN or infinite float raises a DomainError naming it."""
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError("%s must be finite, got %r" % (name, x))
    return Q(x)


# ---------------------------------------------------------------------------
# value records
# ---------------------------------------------------------------------------


# sets one field of a record; the records built on every catalog evaluation
# call it once per field instead of looping in `_fill`
_set = object.__setattr__


class Record:
    """Base of the package's small value classes.

    A subclass names its fields in `__slots__` and sets them once, in its own
    `__init__`, through `_fill` or `_set`.  Two records are equal when they are
    of the same class and their fields are equal; a record hashes as the tuple
    of its fields (a TypeError if one is unhashable), shows as
    `Name(field=value, ...)`, and refuses to have a field assigned or deleted.
    """

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __setstate__(self, state):
        # pickle and copy restore the (None, {slot: value}) state of object.__getstate__
        for name, value in state[1].items():
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)


# ---------------------------------------------------------------------------
# harmonic and diharmonic numbers
# ---------------------------------------------------------------------------


# alpha -> (H_0, H_1, ..., H_m), the running sums computed so far; a longer
# tuple replaces a shorter one whole, so a reader never sees a partial one
_HARMONIC_SUMS: Dict[int, Tuple[Fraction, ...]] = {}


def harmonic(n: int, alpha: int = 1) -> Fraction:
    """H_n^(alpha) = sum_{k=1..n} k^-alpha, with H_0 = 0."""
    if n < 0:
        raise DomainError("harmonic number needs n >= 0, got n=%d" % n)
    if alpha < 1:
        raise DomainError("harmonic order must be >= 1")
    sums = _HARMONIC_SUMS.get(alpha, (Q(0),))
    if n >= len(sums):
        grown = list(sums)
        for k in range(len(sums), n + 1):
            grown.append(grown[-1] + Q(1, k**alpha))
        _HARMONIC_SUMS[alpha] = sums = tuple(grown)
    return sums[n]


def h0(n: int, alpha: int = 1) -> Fraction:
    """Harmonic number extended by H_j = 0 for j <= 0."""
    return harmonic(n, alpha) if n > 0 else Q(0)


@lru_cache(maxsize=None)
def diharmonic(sign: str, n: int, m: int) -> Fraction:
    """Rising (+) and falling (-) diharmonic numbers.

    diH_+(n,m) = sum_{i=1..n} H_{m-1+i}/i,  diH_-(n,m) = sum_{i=1..n} H_{m+1-i}/i,
    with H_j = 0 for j <= 0.  Arguments outside the nonzero ranges simply give 0.
    """
    if sign not in ("+", "-"):
        raise DomainError("diharmonic sign must be '+' or '-'")
    total = Q(0)
    for i in range(1, n + 1):
        j = m - 1 + i if sign == "+" else m + 1 - i
        total += h0(j) / i
    return total


@lru_cache(maxsize=None)
def factorial(n: int) -> Fraction:
    if n < 0:
        raise DomainError("factorial of negative integer")
    return Q(math.factorial(n))


def rising(a: Scalar, n: int) -> Fraction:
    """Rising factorial a^(n-bar) = a (a+1) ... (a+n-1)."""
    a = Q(a)
    out = Q(1)
    for i in range(n):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# symbolic constants
# ---------------------------------------------------------------------------

ONE = ("one",)
GAMMA_E = ("gamma_e",)
ZETA2 = ("zeta2",)
LN_PI = ("ln_pi",)
GAMMA2 = ("gamma2",)  # gamma_e**2
LNQN = ("ln_2mrza_over_n",)  # ln(2 m_r Zalpha / n), resolved per state


def lam(label: str = "mu"):
    """Log-scale symbol Lambda_kappa = ln(kappa*n/(2 m_r Zalpha))."""
    return ("lambda", label)


def lam2(label: str = "mu"):
    return ("lambda2", label)


def gamma_lam(label: str = "mu"):
    return ("gamma_lambda", label)


_TAG_NAMES = {
    ONE: "1",
    GAMMA_E: "gamma_E",
    ZETA2: "zeta(2)",
    LN_PI: "ln(pi)",
    GAMMA2: "gamma_E^2",
    LNQN: "ln(2*mr*Za/n)",
}


def tag_name(tag) -> str:
    if tag in _TAG_NAMES:
        return _TAG_NAMES[tag]
    kind = tag[0]
    if kind == "lambda":
        return "Lambda[%s]" % tag[1]
    if kind == "lambda2":
        return "Lambda[%s]^2" % tag[1]
    if kind == "gamma_lambda":
        return "gamma_E*Lambda[%s]" % tag[1]
    return str(tag)


def _mul_tags(t1, t2):
    """Product of two non-ONE basis tags, or BasisError."""
    if t1[0] == "lambda" and t2 == GAMMA_E or t2[0] == "lambda" and t1 == GAMMA_E:
        label = t1[1] if t1[0] == "lambda" else t2[1]
        return gamma_lam(label)
    if t1 == GAMMA_E and t2 == GAMMA_E:
        return GAMMA2
    if t1[0] == "lambda" and t2[0] == "lambda" and t1[1] == t2[1]:
        return lam2(t1[1])
    raise BasisError("product %s * %s leaves the symbol basis" % (tag_name(t1), tag_name(t2)))


class SymExpr:
    """Finite rational linear combination over the fixed symbol basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        d: Dict = {}
        if terms:
            for tag, c in terms.items():
                if type(c) is not Fraction:  # the arithmetic below already passes Fractions
                    c = Q(c)
                if c:
                    d[tag] = c
        self.terms = MappingProxyType(d)

    # -- constructors ------------------------------------------------------
    @classmethod
    def scalar(cls, x: Scalar) -> "SymExpr":
        return cls({ONE: x})  # __init__ wraps anything that is not a Fraction

    @classmethod
    def of(cls, tag, coeff: Scalar = 1) -> "SymExpr":
        return cls({tag: Q(coeff)})

    # -- predicates --------------------------------------------------------
    def is_rational(self) -> bool:
        return all(t == ONE for t in self.terms)

    @property
    def rational(self) -> Fraction:
        return self.terms.get(ONE, Q(0))

    def coeff(self, tag) -> Fraction:
        return self.terms.get(tag, Q(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = _as_sym(other)
        d = dict(self.terms)
        for tag, c in other.terms.items():
            d[tag] = d.get(tag, Q(0)) + c
        return SymExpr(d)

    __radd__ = __add__

    def __neg__(self):
        return SymExpr({t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_sym(other))

    def __rsub__(self, other):
        return _as_sym(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymExpr({t: c * other for t, c in self.terms.items()})
        other = _as_sym(other)
        out: Dict = {}

        def put(tag, c):
            if c:
                out[tag] = out.get(tag, Q(0)) + c

        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                if t1 == ONE:
                    put(t2, c1 * c2)
                elif t2 == ONE:
                    put(t1, c1 * c2)
                else:
                    put(_mul_tags(t1, t2), c1 * c2)
        return SymExpr(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return SymExpr({t: c / Q(other) for t, c in self.terms.items()})
        other = _as_sym(other)
        if not other.is_rational() or not other.rational:
            raise BasisError("can only divide by a nonzero rational")
        return self * (1 / other.rational)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymExpr.scalar(other)
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a rational hashes as its number, which it equals
        return hash(self.rational) if self.is_rational() else hash(frozenset(self.terms.items()))

    # -- output ------------------------------------------------------------
    def numeric(self, tag_values: Optional[Mapping] = None) -> float:
        vals = dict(_NUMERIC_TAGS)
        if tag_values:
            vals.update(tag_values)
        total = 0.0
        for tag, c in self.terms.items():
            if tag not in vals:
                raise DomainError("no numeric value supplied for symbol %s" % tag_name(tag))
            total += float(c) * vals[tag]
        return total

    def as_dict(self) -> Dict[str, str]:
        return {tag_name(t): str(c) for t, c in sorted(self.terms.items(), key=lambda kv: tag_name(kv[0]))}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for tag, c in sorted(self.terms.items(), key=lambda kv: tag_name(kv[0])):
            if tag == ONE:
                bits.append(str(c))
            elif c == 1:
                bits.append(tag_name(tag))
            elif c == -1:
                bits.append("-" + tag_name(tag))
            else:
                bits.append("%s*%s" % (c, tag_name(tag)))
        return " + ".join(bits).replace("+ -", "- ")


def _as_sym(x) -> SymExpr:
    if isinstance(x, SymExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return SymExpr.scalar(x)
    raise TypeError("cannot coerce %r to SymExpr" % (x,))


SYM_ZERO = SymExpr()
SYM_ONE = SymExpr.scalar(1)

# 50-digit reference constants, rounded to float for numeric rendering.
EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992
_NUMERIC_TAGS = {
    ONE: 1.0,
    GAMMA_E: EULER_GAMMA,
    ZETA2: 1.6449340668482264364724151666460251892189499012068,
    LN_PI: 1.1447298858494001741434273513530587116472948129153,
    GAMMA2: EULER_GAMMA**2,
}


# ---------------------------------------------------------------------------
# truncated Laurent series in epsilon
# ---------------------------------------------------------------------------

POLE_FLOOR = -2  # the artifact never produces a worse pole


class EpsSeries:
    """Laurent series sum_{k=low..order} c_k eps^k with SymExpr coefficients.

    `order` is the inclusive truncation order; arithmetic tracks it so that a
    result never claims coefficients it cannot know.
    """

    __slots__ = ("low", "coeffs", "order")

    def __init__(self, low: int, coeffs: Sequence, order: int):
        coeffs = [_as_sym(c) for c in coeffs]
        # trim exact leading zeros
        while coeffs and not coeffs[0] and low < order + 1:
            coeffs.pop(0)
            low += 1
        if not coeffs:
            low = order + 1
        if low < POLE_FLOOR:
            raise DomainError("pole order %d exceeds the cap of 2" % -low)
        assert len(coeffs) == max(order - low + 1, 0)
        self.low = low
        self.coeffs = tuple(coeffs)
        self.order = order

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, x, order: int = 0) -> "EpsSeries":
        return cls(0, [_as_sym(x)] + [SYM_ZERO] * order, order)

    @classmethod
    def zero(cls, order: int = 0) -> "EpsSeries":
        return cls(order + 1, [], order)

    @classmethod
    def from_coeffs(cls, low: int, coeffs: Sequence) -> "EpsSeries":
        return cls(low, list(coeffs), low + len(coeffs) - 1)

    # -- access -------------------------------------------------------------
    def coeff(self, k: int) -> SymExpr:
        if k > self.order:
            raise UnsupportedOrderError("coefficient of eps^%d beyond truncation %d" % (k, self.order))
        if k < self.low:
            return SYM_ZERO
        return self.coeffs[k - self.low]

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction, SymExpr)):
            other = EpsSeries.constant(other, self.order)
        low, order = min(self.low, other.low), min(self.order, other.order)
        coeffs = [self.coeff(k) + other.coeff(k) for k in range(low, order + 1)]
        return EpsSeries(low, coeffs, order)

    __radd__ = __add__

    def __neg__(self):
        return EpsSeries(self.low, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, SymExpr)):
            other = EpsSeries.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def mul(self, other: "EpsSeries", order_cap: Optional[int] = None) -> "EpsSeries":
        order = min(self.order + other.low, other.order + self.low)
        if order_cap is not None:
            order = min(order, order_cap)
        low = self.low + other.low
        if low > order:
            return EpsSeries.zero(order)
        coeffs = []
        for k in range(low, order + 1):
            acc = SYM_ZERO
            for i in range(self.low, min(self.order, k - other.low) + 1):
                j = k - i
                if other.low <= j <= other.order:
                    ci = self.coeff(i)
                    cj = other.coeff(j)
                    if ci and cj:
                        acc = acc + ci * cj
            coeffs.append(acc)
        return EpsSeries(low, coeffs, order)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, SymExpr)):
            o = _as_sym(other)
            return EpsSeries(self.low, [c * o for c in self.coeffs], self.order)
        return self.mul(other)

    __rmul__ = __mul__

    def invert(self, order_cap: Optional[int] = None) -> "EpsSeries":
        """Reciprocal; requires the leading coefficient to be a nonzero rational."""
        if not self.coeffs:
            raise DomainError("cannot invert the zero series")
        lead = self.coeffs[0]
        if not lead.is_rational() or not lead.rational:
            raise DomainError("inversion needs a nonzero constant leading coefficient")
        # (c_0 + c_1 eps + ...)^-1 eps^-low term by term:
        # inv_k = (delta_k0 - sum_{j>=1} c_j inv_{k-j}) / c_0
        v = self.low
        order = self.order - 2 * v if order_cap is None else min(order_cap, self.order - 2 * v)
        inv_lead = 1 / lead.rational
        inv: List[SymExpr] = []
        for k in range(order + v + 1):
            acc = SYM_ONE if k == 0 else SYM_ZERO
            for j in range(1, k + 1):
                acc = acc - self.coeffs[j] * inv[k - j]
            inv.append(acc * inv_lead)
        return EpsSeries(-v, inv, order)

    # -- comparison / output -------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return all(self.coeff(k) == other.coeff(k) for k in range(POLE_FLOOR, order + 1))

    def numeric(self, eps: float, tag_values: Optional[Mapping] = None) -> float:
        return sum(c.numeric(tag_values) * eps ** (self.low + i) for i, c in enumerate(self.coeffs))

    def as_dict(self):
        return {
            "lowest_order": self.low,
            "truncation": self.order,
            "coeffs": [c.as_dict() for c in self.coeffs],
        }

    def __repr__(self):
        if self.is_zero():
            return "0 + O(eps^%d)" % (self.order + 1)
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            k = self.low + i
            if k == 0:
                bits.append("(%r)" % c)
            else:
                bits.append("(%r)*eps^%d" % (c, k))
        return " + ".join(bits) + " + O(eps^%d)" % (self.order + 1)


# ---------------------------------------------------------------------------
# gamma expansions near integers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gamma_ratio_eps(a: int, c: int, order: int) -> Tuple[Fraction, ...]:
    """x^0..x^order of Gamma(a + x)/Gamma(c + x) for integers a and c, exact.

    For a >= c this is the polynomial prod_{i=c..a-1} (i + x); otherwise it is
    the reciprocal series of prod_{i=a..c-1} (i + x), which diverges when one
    factor is x itself.
    """
    if order < 0:
        return ()
    poly = [Q(1)] + [Q(0)] * order
    for i in range(min(a, c), max(a, c)):
        for j in range(order, 0, -1):
            poly[j] = poly[j] * i + poly[j - 1]
        poly[0] *= i
    if a >= c:
        return tuple(poly)
    if not poly[0]:
        raise DivergenceError("Gamma(%d + x)/Gamma(%d + x) has a pole at x = 0" % (a, c))
    inv = []
    for k in range(order + 1):
        inv.append((Q(k == 0) - sum(poly[j] * inv[k - j] for j in range(1, k + 1))) / poly[0])
    return tuple(inv)


# Gamma(1 + x) = 1 - gamma_E x + (gamma_E^2 + zeta(2)) x^2/2 + O(x^3): the basis
# knows it through x^2, which caps every expansion built on it
_GAMMA_1PX = (SYM_ONE, SymExpr.of(GAMMA_E, -1), SymExpr({GAMMA2: Q(1, 2), ZETA2: Q(1, 2)}))


@lru_cache(maxsize=None)
def gamma_series(m: int, c: Scalar = 1, order: int = 1) -> EpsSeries:
    """Expansion of Gamma(m + c*eps) about eps = 0 for integer m.

    With x = c*eps it is Gamma(1 + x) times Gamma(m + x)/Gamma(1 + x) for
    m >= 1 (regular, through relative order 2) and Gamma(1 + x)/x times
    Gamma(m + x)/Gamma(x) for m <= 0 (a simple pole, through order 1).  The
    series is immutable, so one instance per argument tuple is shared.
    """
    c = Q(c)
    if c == 0:
        raise DomainError("gamma_series needs a nonzero eps coefficient")
    low = 0 if m >= 1 else -1
    depth = order - low
    if depth >= len(_GAMMA_1PX):
        raise UnsupportedOrderError(
            "gamma_series supports relative order <= 2" if m >= 1 else "gamma_series at poles supports order <= 1"
        )
    ratio = gamma_ratio_eps(m, low + 1, depth)
    coeffs = [
        sum((_GAMMA_1PX[i] * ratio[k - i] for i in range(k + 1)), SYM_ZERO) * c ** (k + low) for k in range(depth + 1)
    ]
    return EpsSeries(low, coeffs, order)
