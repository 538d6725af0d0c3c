"""Three-dimensional Coulomb bound states and their closed-form
expectation-value catalog, each entry with an independent oracle.

The catalog is one table, `CATALOG`: each row holds a closed form of
(n, l, L = l(l+1)) and the oracle as a list of pieces (coef, left, right,
sigma), whose operands are built from `R` by `d`, `over_r`, `p2` and
`scaled`.  `lagint.bilinear_sum` integrates all pieces of a row as one
integrand by exact term-by-term integration of the radial wave function
(`lagint.contact` takes their r -> 0 limit for the delta-function rows).

Internal units fix m_r Zalpha = 1 (Bohr radius a = 1, rho = 2r/n).  Every
value carries integer powers of m_r, Zalpha and pi so physical units can be
restored afterwards.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from operator import index
from typing import Callable, Dict, Optional

from .exactnum import (
    DomainError,
    Q,
    SymExpr,
    GAMMA_E,
    EULER_GAMMA,
    LNQN,
    ONE,
    Record,
    ZETA2,
    GAMMA2,
    diharmonic,
    harmonic,
    lam,
    lam2,
    gamma_lam,
    _NUMERIC_TAGS,
    _set,
)
from . import lagint

HALF = Q(1, 2)


class CatalogError(KeyError):
    pass


class RequiresDimregError(DomainError):
    """The requested entry is divergent in 3D; use dimreg.divergent_expectation."""


# ---------------------------------------------------------------------------
# states, scales, values
# ---------------------------------------------------------------------------


class QuantumState(Record):
    """A bound state (n, l); both quantum numbers must be integers."""

    __slots__ = ("n", "l")

    def __init__(self, n: int, l: int):
        try:
            n, l = index(n), index(l)
        except TypeError:
            raise DomainError("quantum numbers must be integers, got n=%r, l=%r" % (n, l)) from None
        if n < 1 or not (0 <= l <= n - 1):
            raise DomainError("invalid quantum state (n=%s, l=%s)" % (n, l))
        _set(self, "n", n)
        _set(self, "l", l)

    # built and compared on every catalog evaluation, as is Value, so both
    # compare and hash their fields directly, not by Record's generic loops
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.l) == (other.n, other.l)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.l))

    @property
    def nr(self) -> int:
        return self.n - self.l - 1


class PhysScale(Record):
    """Physical parameters; internal values are in units m_r Zalpha = 1."""

    __slots__ = ("mr", "zalpha", "mu", "kappa")

    def __init__(self, mr: float = 1.0, zalpha: float = 1.0, mu: float = 1.0, kappa: float = 1.0):
        for name, x in zip(self.__slots__, (mr, zalpha, mu, kappa)):
            if not (math.isfinite(x) and x > 0):
                raise DomainError("%s must be finite and positive, got %r" % (name, x))
        self._fill(mr, zalpha, mu, kappa)

    def _ln(self, num: float, den: float, what: str) -> float:
        # ln(num/den), refused once the ratio leaves the float range
        arg = num / den if den else math.inf
        if not 0.0 < arg < math.inf:
            msg = "ln(%s) is outside the float range at m_r = %g, Zalpha = %g, mu = %g, kappa = %g"
            raise DomainError(msg % (what, self.mr, self.zalpha, self.mu, self.kappa))
        return math.log(arg)

    def lambda_value(self, label: str, n: int) -> float:
        scale = {"mu": self.mu, "kappa": self.kappa}.get(label)
        if scale is None:
            raise DomainError("unknown log-scale label %r" % label)
        return self._ln(scale * n, 2.0 * self.mr * self.zalpha, "%s n/(2 m_r Zalpha)" % label)

    def tag_value(self, tag, n: int) -> float:
        """Float value of one per-state log symbol: Lambda_kappa, its square,
        gamma_E Lambda_kappa or ln(2 m_r Zalpha/n)."""
        if tag == LNQN:
            return self._ln(2.0 * self.mr * self.zalpha, n, "2 m_r Zalpha/n")
        lv = self.lambda_value(tag[1], n)
        return {"lambda": lv, "lambda2": lv * lv, "gamma_lambda": lv * EULER_GAMMA}[tag[0]]


class Value(Record):
    """An exact value in units m_r Zalpha = 1, times m_r^a (Zalpha)^b pi^c."""

    __slots__ = ("sym", "mr_pow", "za_pow", "pi_pow")

    def __init__(self, sym: SymExpr, mr_pow: int = 0, za_pow: int = 0, pi_pow: int = 0):
        _set(self, "sym", sym)
        _set(self, "mr_pow", mr_pow)
        _set(self, "za_pow", za_pow)
        _set(self, "pi_pow", pi_pow)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.sym, self.mr_pow, self.za_pow, self.pi_pow) == (other.sym, other.mr_pow, other.za_pow, other.pi_pow)
        return NotImplemented

    def __hash__(self):
        return hash((self.sym, self.mr_pow, self.za_pow, self.pi_pow))

    def __add__(self, other: "Value") -> "Value":
        if (self.mr_pow, self.za_pow, self.pi_pow) != (other.mr_pow, other.za_pow, other.pi_pow):
            raise DomainError("adding values with mismatched dimensions")
        return Value(self.sym + other.sym, self.mr_pow, self.za_pow, self.pi_pow)

    def __sub__(self, other: "Value") -> "Value":
        return self + other.scale(-1)

    def scale(self, c) -> "Value":
        return Value(self.sym * c, self.mr_pow, self.za_pow, self.pi_pow)

    def shift_dims(self, mr=0, za=0, pi=0) -> "Value":
        return Value(self.sym, self.mr_pow + mr, self.za_pow + za, self.pi_pow + pi)

    @property
    def rational(self) -> Fraction:
        if not self.sym.is_rational():
            raise DomainError("value is not purely rational")
        return self.sym.rational

    def numeric(self, phys: Optional[PhysScale] = None, n: Optional[int] = None) -> float:
        """The float value at `phys`; the state's n resolves the log symbols it holds."""
        phys = phys or PhysScale()
        tags = None
        if n is not None:
            tags = {t: phys.tag_value(t, n) for t in self.sym.terms if t not in _NUMERIC_TAGS}
        try:
            x = self.sym.numeric(tags)
            out = x * phys.mr**self.mr_pow * phys.zalpha**self.za_pow * math.pi**self.pi_pow
            # an underflow to 0 or to a subnormal float loses the value (or its digits) too
            if math.isfinite(out) and (abs(out) >= sys.float_info.min or not x):
                return out
        except OverflowError:
            pass
        raise DomainError("%r is outside the float range at m_r = %g, Zalpha = %g" % (self, phys.mr, phys.zalpha))

    def __repr__(self):
        unit = []
        if self.mr_pow:
            unit.append("m_r^%d" % self.mr_pow)
        if self.za_pow:
            unit.append("(Za)^%d" % self.za_pow)
        if self.pi_pow:
            unit.append("pi^%d" % self.pi_pow)
        return "(%r)%s" % (self.sym, (" " + " ".join(unit)) if unit else "")


# ---------------------------------------------------------------------------
# operands of the oracle pieces
# ---------------------------------------------------------------------------


# An operand is a tuple of terms (c, j, a, ang, k), read only by
# `lagint._operand_table`, whose docstring gives their meaning; R is the
# radial function itself, and concatenating two operands adds them.
R = ((1, 0, 0, 0, 0),)


def scaled(op, c=1, ang=0, k=0):
    """c [l(l+1)]^ang E^k times an operand."""
    return tuple((x * c, j, a, g + ang, e + k) for x, j, a, g, e in op)


def d(op):
    """d/dr by Leibniz: d(r^{-j} d^a R) = -j r^{-j-1} d^a R + r^{-j} d^{a+1} R."""
    out = []
    for c, j, a, g, k in op:
        if j:
            out.append((-j * c, j + 1, a, g, k))
        out.append((c, j, a + 1, g, k))
    return tuple(out)


def over_r(op):
    return tuple((c, j + 1, a, g, k) for c, j, a, g, k in op)


def p2(op):
    """p^2 f = -f'' - (2/r) f' + l(l+1) f/r^2 acting on f(r) Y_lm."""
    return scaled(d(d(op)), -1) + scaled(over_r(d(op)), -2) + scaled(over_r(over_r(op)), ang=1)


# ---------------------------------------------------------------------------
# the expectation-value catalog
# ---------------------------------------------------------------------------


class CatalogEntry(Record):
    """One finite 3D operator: a closed form and an oracle given as data.

    `closed(n, l, L)`, with L = l(l+1) and the kappa label as a fourth
    argument for the log rows, returns a scalar or a SymExpr.  The oracle is
    `lagint.bilinear_sum` of `pieces` with ln^logpow(kappa r), or their `contact`
    limit; `value` adds the 1/pi of the delta function to a contact row.
    """

    __slots__ = ("tag", "min_l", "mr_pow", "za_pow", "closed", "pieces", "logpow", "contact")

    def __init__(
        self,
        tag: str,
        min_l: int,
        mr_pow: int,
        za_pow: int,
        closed: Callable,
        pieces: tuple,
        logpow: int = 0,
        contact: bool = False,
    ):
        self._fill(tag, min_l, mr_pow, za_pow, closed, pieces, logpow, contact)

    def value(self, sym: SymExpr) -> Value:
        return Value(sym, self.mr_pow, self.za_pow, -1 if self.contact else 0)


def _B(l) -> Fraction:
    return (l - HALF) * (l + HALF) * (l + Q(3, 2))


def _d0(l) -> int:
    return 1 if l == 0 else 0


def _d1(l) -> int:
    return 1 if l == 1 else 0


DR = d(R)
DDR = d(DR)
DDDR = d(DDR)
P2R = p2(R)
R_R = over_r(R)
DR_R = DR + scaled(R_R, -1)  # (d/dr - 1/r) R


def _grad(f, sigma, coef=1):
    """grad(f Y) . r^sigma grad(f Y) = f'^2 r^sigma + l(l+1) f^2 r^{sigma-2}."""
    return ((coef, d(f), d(f), sigma), (coef, f, scaled(f, ang=1), sigma - 2))


def p6_naive_oracle(st: QuantumState) -> Value:
    """<p^6> as int |grad(p^2 psi)|^2; diverges for S states."""
    return Value(lagint.bilinear_sum(st, _grad(P2R, 0)))


def _p6(n, l, L):
    return Q(5, n**6) - 8 / ((l + HALF) * n**5) + (8 * n * n + 1 - 4 * L) / (_B(l) * n**5) + Q(32 * _d0(l), n**3)


def _drd_p2_dr(n, l, L):
    # also the closed form of pn.px.xp.pn
    return (2 * n**2 - 2 + 2 * L) / (4 * _B(l) * n**5) + L / ((l + HALF) * n**5) + 2 / ((l + HALF) * n**3) - Q(3, n**4)


def _ln(n, l, L, kappa):
    return SymExpr.of(lam(kappa)) + SymExpr({ONE: harmonic(n + l) + 1 - Q(2 * l + 1, 2 * n), GAMMA_E: Q(-1)})


def _ln_r(n, l, L, kappa):
    return (SymExpr.of(lam(kappa)) + SymExpr({ONE: harmonic(n + l), GAMMA_E: Q(-1)})) * Q(1, n * n)


def _ln_r2(n, l, L, kappa):
    h = harmonic(2 * l + 1) + harmonic(2 * l) - harmonic(n + l)
    return (SymExpr.of(lam(kappa)) + SymExpr({ONE: h, GAMMA_E: Q(-1)})) * (1 / ((l + HALF) * n**3))


def _ln_r3(n, l, L, kappa):
    h = harmonic(2 * l + 2) + harmonic(2 * l - 1) - harmonic(n + l) - Q(n - l, n) + Q(1, 2 * n)
    return (SymExpr.of(lam(kappa)) + SymExpr({ONE: h, GAMMA_E: Q(-1)})) * (1 / (L * (l + HALF) * n**3))


def _ln2_r(n, l, L, kappa):
    nr, hnl = n - l - 1, harmonic(n + l)
    inner = SymExpr(
        {
            lam2(kappa): Q(1),
            lam(kappa): 2 * hnl,
            gamma_lam(kappa): Q(-2),
            ONE: hnl * hnl - harmonic(n + l, 2) + 2 * hnl * harmonic(nr) - 2 * diharmonic("-", nr, n + l - 1),
            GAMMA_E: -2 * hnl,
            GAMMA2: Q(1),
            ZETA2: Q(1),
        }
    )
    return inner * Q(1, n * n)


def _ln_dr(n, l, L, kappa):
    return (SymExpr.of(lam(kappa)) + SymExpr({ONE: harmonic(n + l) + HALF, GAMMA_E: Q(-1)})) * Q(-1, n * n)


# tag, min_l, m_r and Zalpha powers, closed(n, l, L[, kappa]), oracle pieces (coef, left, right, sigma)
_ROWS = (
    # --- plain powers of r ---
    CatalogEntry("1", 0, 0, 0, lambda n, l, L: Q(1), ((1, R, R, 0),)),
    CatalogEntry("r", 0, -1, -1, lambda n, l, L: (3 * n * n - L) / 2, ((1, R, R, 1),)),
    CatalogEntry("r2", 0, -2, -2, lambda n, l, L: Q(n * n, 2) * (5 * n * n + 1 - 3 * L), ((1, R, R, 2),)),
    CatalogEntry(
        "r3", 0, -3, -3,
        lambda n, l, L: Q(n * n, 8) * (35 * n**4 + 25 * n * n - 30 * n * n * L - 6 * L + 3 * L * L),
        ((1, R, R, 3),),
    ),
    CatalogEntry(
        "r4", 0, -4, -4,
        lambda n, l, L: Q(n**4, 8) * (63 * n**4 + 105 * n * n + 12 - 70 * n * n * L - 50 * L + 15 * L * L),
        ((1, R, R, 4),),
    ),
    CatalogEntry("1/r", 0, 1, 1, lambda n, l, L: Q(1, n * n), ((1, R, R, -1),)),
    CatalogEntry("1/r2", 0, 2, 2, lambda n, l, L: 1 / ((l + HALF) * n**3), ((1, R, R, -2),)),
    CatalogEntry("1/r3", 1, 3, 3, lambda n, l, L: 1 / (L * (l + HALF) * n**3), ((1, R, R, -3),)),
    CatalogEntry(
        "1/r4", 1, 4, 4,
        lambda n, l, L: (3 * n * n - L) / (2 * L * (l + HALF) * (l - HALF) * (l + Q(3, 2)) * n**5),
        ((1, R, R, -4),),
    ),
    CatalogEntry(
        "1/r5", 2, 5, 5,
        lambda n, l, L: (5 * n * n + 1 - 3 * L)
        / (2 * (l - 1) * L * (l + 2) * (l - HALF) * (l + HALF) * (l + Q(3, 2)) * n**5),
        ((1, R, R, -5),),
    ),
    # --- contact terms ---
    CatalogEntry("delta3", 0, 3, 3, lambda n, l, L: Q(_d0(l), n**3), ((1, R, R, 0),), contact=True),
    CatalogEntry(
        "delta3/r2", 1, 5, 5, lambda n, l, L: Q(n**2 - 1, 9 * n**5) * _d1(l), ((1, R, R, -2),), contact=True
    ),
    CatalogEntry(
        "p.delta3.p", 0, 5, 5,
        lambda n, l, L: Q(_d0(l), n**3) + Q(n**2 - 1, 3 * n**5) * _d1(l),
        _grad(R, 0),
        contact=True,
    ),
    # --- momentum block ---
    CatalogEntry("p2", 0, 2, 2, lambda n, l, L: Q(1, n**2), ((1, P2R, R, 0),)),
    CatalogEntry("p4", 0, 4, 4, lambda n, l, L: 4 / ((l + HALF) * n**3) - Q(3, n**4), ((1, P2R, P2R, 0),)),
    # regularized composite (2m)^2 { E^2 <p^2> - 2E <p^2 V> + <p_i V^2 p_i> }, V = -1/r
    CatalogEntry(
        "p6", 0, 6, 6, _p6, ((4, P2R, scaled(R, k=2), 0), (8, P2R, scaled(R, k=1), -1)) + _grad(R, -2, 4)
    ),
    # --- p_i f p_i family ---
    CatalogEntry(
        "p.1/r.p", 0, 3, 3,
        lambda n, l, L: 2 / ((l + HALF) * n**3) - Q(1, n**4) - Q(2 * _d0(l), n**3),
        _grad(R, -1),
    ),
    CatalogEntry(
        "p.1/r2.p", 0, 4, 4,
        lambda n, l, L: (8 * n**2 + 1 - 4 * L) / (4 * _B(l) * n**5) + Q(8 * _d0(l), n**3),
        _grad(R, -2),
    ),
    CatalogEntry("px.xp", 0, 2, 2, lambda n, l, L: Q(1, n**2) - L / ((l + HALF) * n**3), ((1, DR, DR, 0),)),
    CatalogEntry(
        "px.1/r.xp", 0, 3, 3, lambda n, l, L: -Q(1, n**4) + 1 / ((l + HALF) * n**3), ((1, DR, DR, -1),)
    ),
    CatalogEntry(
        "px.1/r2.xp", 0, 4, 4,
        lambda n, l, L: (2 * n**2 + 1 - 2 * L) / (4 * _B(l) * n**5) + Q(4 * _d0(l), n**3),
        ((1, DR, DR, -2),),
    ),
    CatalogEntry(
        "p.1/r.p-3px.1/r.xp", 0, 3, 3,
        lambda n, l, L: Q(2, n**4) - 1 / ((l + HALF) * n**3) - Q(2 * _d0(l), n**3),
        _grad(R, -1) + ((-3, DR, DR, -1),),
    ),
    CatalogEntry(
        "p.1/r2.p-3px.1/r2.xp", 0, 4, 4,
        lambda n, l, L: (n**2 - 1 + L) / (2 * _B(l) * n**5) - Q(4 * _d0(l), n**3),
        _grad(R, -2) + ((-3, DR, DR, -2),),
    ),
    # individually divergent at l = 1; the pieces are summed before the check
    CatalogEntry(
        "p.1/r3.p-3px.1/r3.xp", 1, 5, 5,
        lambda n, l, L: (3 * n**2 - L) / (2 * L * _B(l) * n**5) + Q(2 * (n**2 - 1) * _d1(l), 9 * n**5),
        _grad(R, -3) + ((-3, DR, DR, -3),),
    ),
    # --- p^2-weighted ---
    CatalogEntry("p2.r", 0, 1, 1, lambda n, l, L: L / (2 * n**2) + HALF, ((1, P2R, R, 1),)),
    CatalogEntry(
        "p2.1/r", 0, 3, 3, lambda n, l, L: 2 / ((l + HALF) * n**3) - Q(1, n**4), ((1, P2R, R, -1),)
    ),
    CatalogEntry(
        "p4.1/r", 1, 5, 5,
        lambda n, l, L: (4 * n**2 + 2 - 4 * L) / (_B(l) * n**5) + Q(1, n**6),
        ((1, P2R, p2(R_R), 0),),
    ),
    CatalogEntry(
        "p2.1/r2", 1, 4, 4,
        lambda n, l, L: 2 / (L * (l + HALF) * n**3) - 1 / ((l + HALF) * n**5),
        ((1, P2R, R, -2),),
    ),
    CatalogEntry(
        "p2.1/r3", 1, 5, 5,
        lambda n, l, L: (3 * n**2 + Q(3, 4) - 2 * L) / (L * (l + HALF) * (l - HALF) * (l + Q(3, 2)) * n**5),
        ((1, P2R, R, -3),),
    ),
    CatalogEntry("p2.r.p2", 0, 3, 3, lambda n, l, L: -L / (2 * n**4) + Q(3, 2 * n**2), ((1, P2R, P2R, 1),)),
    CatalogEntry(
        "p2.1/r.p2", 1, 5, 5,
        lambda n, l, L: Q(1, n**6) + (4 * n**2 - 4 * L) / (L * (l + HALF) * n**5),
        ((1, P2R, P2R, -1),),
    ),
    # --- single radial derivative ---
    CatalogEntry("r.dr", 0, 0, 0, lambda n, l, L: Q(-3, 2), ((1, R, DR, 1),)),
    CatalogEntry("dr", 0, 1, 1, lambda n, l, L: Q(-1, n**2), ((1, R, DR, 0),)),
    CatalogEntry("1/r.dr", 0, 2, 2, lambda n, l, L: -1 / (2 * (l + HALF) * n**3), ((1, R, DR, -1),)),
    CatalogEntry("1/r2.dr", 0, 3, 3, lambda n, l, L: Q(-2 * _d0(l), n**3), ((1, R, DR, -2),)),
    CatalogEntry(
        "1/r3.dr", 1, 4, 4, lambda n, l, L: (3 * n**2 - L) / (4 * L * _B(l) * n**5), ((1, R, DR, -3),)
    ),
    CatalogEntry(
        "1/r3.(dr+1)", 0, 4, 4,
        lambda n, l, L: (4 * n**2 - 1) / (4 * _B(l) * n**5) + Q(2 * _d0(l), n**3),
        ((1, R, DR + R, -3),),
    ),
    CatalogEntry(
        "1/r4.dr", 2, 5, 5,
        lambda n, l, L: (5 * n**2 + 1 - 3 * L) / (2 * (l - 1) * L * (l + 2) * _B(l) * n**5),
        ((1, R, DR, -4),),
    ),
    CatalogEntry(
        "1/r4.(dr-1/r)", 1, 5, 5, lambda n, l, L: Q(-2 * (n**2 - 1) * _d1(l), 9 * n**5), ((1, R, DR_R, -4),)
    ),
    # --- second derivatives ---
    CatalogEntry("r.dr2", 0, 1, 1, lambda n, l, L: (4 + L) / (2 * n**2) - HALF, ((1, R, DDR, 1),)),
    CatalogEntry(
        "dr2", 0, 2, 2, lambda n, l, L: (1 + L) / ((l + HALF) * n**3) - Q(1, n**2), ((1, R, DDR, 0),)
    ),
    CatalogEntry(
        "1/r.dr2", 0, 3, 3,
        lambda n, l, L: Q(1, n**4) - 1 / ((l + HALF) * n**3) + Q(2 * _d0(l), n**3),
        ((1, R, DDR, -1),),
    ),
    CatalogEntry(
        "1/r2.dr2", 0, 4, 4, lambda n, l, L: (-2 * n**2 - 1 + 2 * L) / (4 * _B(l) * n**5), ((1, R, DDR, -2),)
    ),
    CatalogEntry(
        "1/r3.dr2", 1, 5, 5,
        lambda n, l, L: (-n**2 - HALF + L) / (2 * L * _B(l) * n**5) - Q(2 * (n**2 - 1) * _d1(l), 9 * n**5),
        ((1, R, DDR, -3),),
    ),
    CatalogEntry(
        "drd.dr2", 0, 3, 3, lambda n, l, L: Q(1, n**4) - 1 / ((l + HALF) * n**3), ((1, DR, DDR, 0),)
    ),
    CatalogEntry(
        "drd.1/r.dr2", 0, 4, 4,
        lambda n, l, L: (-n**2 - HALF + L) / (4 * _B(l) * n**5) - Q(2 * _d0(l), n**3),
        ((1, DR, DDR, -1),),
    ),
    CatalogEntry(
        "drd.1/r2.dr2", 0, 5, 5,
        lambda n, l, L: Q(-2 * _d0(l), n**3) - Q(2 * (n**2 - 1) * _d1(l), 9 * n**5),
        ((1, DR, DDR, -2),),
    ),
    CatalogEntry(
        "drd2.dr2", 0, 4, 4,
        lambda n, l, L: (-4 * n**2 - 2 - 2 * L + 6 * n**2 * L + 6 * L**2) / (4 * _B(l) * n**5) - Q(3, n**4),
        ((1, DDR, DDR, 0),),
    ),
    CatalogEntry(
        "p2.r.dr2", 0, 3, 3,
        lambda n, l, L: -(4 + L) / (2 * n**4) + (2 + 2 * L) / ((l + HALF) * n**3) - Q(3, 2 * n**2),
        ((1, P2R, DDR, 1),),
    ),
    CatalogEntry(
        "p2.dr2", 0, 4, 4,
        lambda n, l, L: -(2 * n**2 + 1 + L) / ((l + HALF) * n**5) + Q(3, n**4) + Q(4 * _d0(l), n**3),
        ((1, P2R, DDR, 0),),
    ),
    # --- third derivatives ---
    CatalogEntry(
        "dr3", 0, 3, 3,
        lambda n, l, L: Q(-3, n**4) + 3 / ((l + HALF) * n**3) - Q(4 * _d0(l), n**3),
        ((1, R, DDDR, 0),),
    ),
    CatalogEntry(
        "1/r.dr3", 0, 4, 4,
        lambda n, l, L: (3 * n**2 + Q(3, 2) - 3 * L) / (4 * _B(l) * n**5) + Q(2 * _d0(l), n**3),
        ((1, R, DDDR, -1),),
    ),
    CatalogEntry(
        "1/r2.dr3", 0, 5, 5,
        lambda n, l, L: Q(-2 * (n**2 + 2) * _d0(l), 3 * n**5) + Q(2 * (n**2 - 1) * _d1(l), 9 * n**5),
        ((1, R, DDDR, -2),),
    ),
    CatalogEntry(
        "drd.dr3", 0, 4, 4,
        lambda n, l, L: (6 * n**2 + 3 - 6 * n**2 * L - 6 * L**2) / (4 * _B(l) * n**5)
        + Q(3, n**4)
        + Q(4 * _d0(l), n**3),
        ((1, DR, DDDR, 0),),
    ),
    # --- adjoint-derivative sandwiches ---
    CatalogEntry(
        "drd.1/r3.dr", 2, 5, 5,
        lambda n, l, L: (6 * n**2 + L * (2 * n**2 - 1 - 2 * L)) / (4 * (l - 1) * L * (l + 2) * _B(l) * n**5),
        ((1, DR, DR, -3),),
    ),
    CatalogEntry(
        "drd.1/r3.(dr-1/r)", 1, 5, 5,
        lambda n, l, L: (n**2 + HALF - L) / (2 * L * _B(l) * n**5) - Q(2 * (n**2 - 1) * _d1(l), 9 * n**5),
        ((1, DR, DR_R, -3),),
    ),
    CatalogEntry(
        "(drd-1/r).1/r3.(dr-1/r)", 1, 5, 5,
        lambda n, l, L: (n**2 + HALF - L) / (2 * L * _B(l) * n**5),
        ((1, DR_R, DR_R, -3),),
    ),
    CatalogEntry("drd.p2.dr", 0, 4, 4, _drd_p2_dr, ((1, DR, p2(DR), 0),)),
    CatalogEntry(
        "pn.1/r.dr.pn", 0, 4, 4,
        lambda n, l, L: (-4 * n**2 - HALF + 2 * L) / (4 * _B(l) * n**5) - Q(4 * _d0(l), n**3),
        ((1, DR, DDR, -1), (1, scaled(R_R, ang=1), d(R_R), -1)),
    ),
    CatalogEntry("pn.px.xp.pn", 0, 4, 4, _drd_p2_dr, ((1, DDR, DDR, 0), (1, scaled(d(R_R), ang=1), d(R_R), 0))),
    # --- logarithmic entries ---
    CatalogEntry("ln", 0, 0, 0, _ln, ((1, R, R, 0),), logpow=1),
    CatalogEntry("ln/r", 0, 1, 1, _ln_r, ((1, R, R, -1),), logpow=1),
    CatalogEntry("ln/r2", 0, 2, 2, _ln_r2, ((1, R, R, -2),), logpow=1),
    CatalogEntry("ln/r3", 1, 3, 3, _ln_r3, ((1, R, R, -3),), logpow=1),
    CatalogEntry("ln2/r", 0, 1, 1, _ln2_r, ((1, R, R, -1),), logpow=2),
    CatalogEntry("ln.dr", 0, 1, 1, _ln_dr, ((1, R, DR, 0),), logpow=1),
    # --- potential block (finite three-dimensional entries) ---
    CatalogEntry("V", 0, 1, 2, lambda n, l, L: Q(-1, n**2), ((-1, R, R, -1),)),
    CatalogEntry("V2", 0, 2, 4, lambda n, l, L: 1 / ((l + HALF) * n**3), ((1, R, R, -2),)),
    CatalogEntry(
        "p.V.p", 0, 3, 4,
        lambda n, l, L: Q(1, n**4) - 2 / ((l + HALF) * n**3) + Q(2 * _d0(l), n**3),
        _grad(R, -1, -1),
    ),
    CatalogEntry(
        "p2.V", 0, 3, 4, lambda n, l, L: Q(1, n**4) - 2 / ((l + HALF) * n**3), ((-1, P2R, R, -1),)
    ),
)
CATALOG: Dict[str, CatalogEntry] = {row.tag: row for row in _ROWS}


def catalog_tags():
    return sorted(CATALOG)


def _lookup(tag: str, state: QuantumState) -> CatalogEntry:
    row = CATALOG.get(tag)
    if row is None:
        raise CatalogError("unknown operator %r; valid tags: %s" % (tag, ", ".join(catalog_tags())))
    if state.l < row.min_l:
        raise RequiresDimregError(
            "<%s> requires l >= %d (l = %d is divergent in 3D; see dimreg.divergent_expectation)"
            % (tag, row.min_l, state.l)
        )
    return row


def expectation_closed(tag: str, state: QuantumState, kappa: str = "kappa") -> Value:
    """Tabulated closed form for one catalog entry, with unit metadata; a log
    row's Lambda carries the scale label `kappa`."""
    row = _lookup(tag, state)
    n, l = state.n, state.l
    v = row.closed(n, l, Q(l * (l + 1)), *((kappa,) if row.logpow else ()))
    return row.value(v if isinstance(v, SymExpr) else SymExpr.scalar(v))


def expectation_oracle(tag: str, state: QuantumState, kappa: str = "kappa") -> Value:
    """Independent exact-integration value of the same entry."""
    row = _lookup(tag, state)
    if row.contact:
        return row.value(lagint.contact(state, row.pieces))
    return row.value(lagint.bilinear_sum(state, row.pieces, row.logpow, kappa))


# ---------------------------------------------------------------------------
# generic exact moments and validators
# ---------------------------------------------------------------------------


def power_moment(state: QuantumState, s: int) -> Fraction:
    """<r^s> in units m_r Zalpha = 1, exact, any integer s with 2 + s + 2l >= 0; an
    integral float or Fraction counts as its integer, any other s is a DomainError."""
    return lagint.bilinear_sum(state, ((1, R, R, lagint._integer_power(s)),)).rational


def recursion_residual(s: int, state: QuantumState) -> Fraction:
    """Residual of the r^s recursion at eps = 0; vanishes for bound states."""
    s, n, l = lagint._integer_power(s), state.n, state.l
    e = Q(-1, 2 * n * n)
    res = 8 * e * (s + 1) * power_moment(state, s)
    res += 4 * (2 * s + 1) * power_moment(state, s - 1)
    res += s * (s * s - 1 - 4 * l * (l + 1)) * power_moment(state, s - 2)
    return res


def feynman_hellmann_residual(state: QuantumState) -> Fraction:
    """<V>/beta - dE/dbeta with E = -m_r beta^2/(2 n^2), at eps = 0."""
    n = state.n
    return -power_moment(state, -1) + Q(1, n * n)
