"""Three-dimensional Coulomb bound states: the closed-form expectation-value
catalog, and an independent oracle that computes every catalog entry by exact
term-by-term integration of the radial wave function, held as the integer
tables of `laguerre` (`laguerre_table`).

The catalog is one table, `CATALOG`: each row holds a closed form of
(n, l, L = l(l+1)) and the oracle as a list of pieces (coef, left, right,
sigma), whose operands are built from `R` by `d`, `over_r`, `p2` and
`scaled`.  `bilinear_sum` integrates all pieces of a row as one integrand
(`contact` takes their r -> 0 limit for the delta-function rows).

Internal units fix m_r Zalpha = 1 (Bohr radius a = 1, rho = 2r/n).  Every
value carries integer powers of m_r, Zalpha and pi so physical units can be
restored afterwards.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Callable, Dict, Optional

from .exactnum import (
    DivergenceError,
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
    factorial,
    harmonic,
    lam,
    lam2,
    gamma_lam,
    _NUMERIC_TAGS,
    _finite,
    _set,
)
from .laguerre import Poly, convolve_into, drho, gegenbauer, laguerre_table
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
# operands and the radial evaluator
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _norm2(n: int, l: int) -> Fraction:
    """norm2 of R_{nl}(r) = sqrt(norm2) rho^l e^{-rho/2} L_{n-l-1}^{2l+1}(rho), rho = 2r/n."""
    return Q(4) * factorial(n - l - 1) / (n**4 * factorial(n + l))


# An operand is a tuple of terms (c, j, a, ang, k), each standing for
# c [l(l+1)]^ang E^k r^{-j} d^a R(r) with E = -1/2n^2; concatenating two
# operands adds them.
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


@lru_cache(maxsize=None)
def _radial_chain(n: int, l: int, a: int):
    """d^a/dr^a [rho^l e^{-rho/2} L_{n-l-1}^{2l+1}(rho)] as an integer table."""
    if a == 0:
        den, cs = laguerre_table(n - l - 1, 2 * l + 1)
        return den, tuple((l + j, c) for j, c in cs)
    return drho(_radial_chain(n, l, a - 1), step=n)


@lru_cache(maxsize=None)
def _operand_table(n: int, l: int, op):
    """An operand applied to R_{nl}, without sqrt(norm2), as an integer table."""
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


def _weighted(state: QuantumState, pieces, shift: int):
    """rho^shift sum_i coef_i r^sigma_i (left_i R)(right_i R) = (num/den) sum_t c_t rho^t e^{-rho}.

    shift = 2 is the rho^2 of the radial measure, shift = 0 the bare sum.
    Returns (num, den, monomials), all integers: the weights coef (n/2)^sigma /
    (d_l d_r) are integer pairs put on one denominator and summed before any
    c_t is read; `monomials` yields the (t, c_t) by running the convolution.
    No Fraction is built here; the caller's last line builds one per coefficient.
    """
    n, l = state.n, state.l
    parts = []
    for coef, left, right, sigma in pieces:
        dl, tl = _operand_table(n, l, left)
        dr, tr = _operand_table(n, l, right)
        up, down = (n**sigma, 1 << sigma) if sigma >= 0 else (1 << -sigma, n**-sigma)  # (n/2)^sigma
        parts.append((coef.numerator * up, coef.denominator * dl * dr * down, sigma, tl, tr))
    common = math.lcm(*(den for _, den, _, _, _ in parts))

    def monomials():
        combined: Dict[int, int] = {}
        for num, den, sigma, tl, tr in parts:
            convolve_into(combined, tl, tr, shift + sigma, num * (common // den))
        yield from combined.items()

    norm2 = _norm2(n, l)
    return norm2.numerator, norm2.denominator * common, monomials()


def bilinear_sum(state: QuantumState, pieces, logpow: int = 0, kappa: str = "kappa") -> SymExpr:
    """sum_i coef_i int_0^inf dr r^{2+sigma_i} ln^logpow(kappa r) (left_i R)(right_i R), exact.

    `pieces` holds (coef, left, right, sigma) with operands built from `R` by
    `d`, `over_r`, `p2` and `scaled`.  Divergent monomials may cancel between
    pieces: the check runs after they are combined.  ln(kappa r) = ln(rho) +
    Lambda_kappa with Lambda_kappa = ln(kappa n / (2 m_r Za)).  All is integer
    arithmetic up to the last line, which builds one Fraction per coefficient.
    """
    num, den, monomials = _weighted(state, pieces, 2)
    # int rho^t ln^m(rho) e^{-rho}; mono_moments checks logpow before the convolution runs
    sums = lagint.mono_moments(monomials, logpow)
    # d^m/ds^m [e^{Lambda s} Gamma(t+1+s)] at s = 0 holds gamma_E only as gamma_E - Lambda,
    # so the ln(kappa r) moments are the ln(rho) ones with gamma_E -> gamma_E - Lambda_kappa
    g, g2 = sums.get(GAMMA_E, 0), sums.get(GAMMA2, 0)
    sums.update({lam(kappa): -g, gamma_lam(kappa): -2 * g2, lam2(kappa): g2})
    num, den = num * state.n**3, den << 3  # dr = (n/2) drho and r^2 = (n/2)^2 rho^2
    return SymExpr({tag: Fraction(c * num, den) for tag, c in sums.items() if c})


def contact(state: QuantumState, pieces) -> SymExpr:
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
# the expectation-value catalog
# ---------------------------------------------------------------------------


class CatalogEntry(Record):
    """One finite 3D operator: a closed form and an oracle given as data.

    `closed(n, l, L)`, with L = l(l+1) and the kappa label as a fourth
    argument for the log rows, returns a scalar or a SymExpr.  The oracle is
    `bilinear_sum` of `pieces` with ln^logpow(kappa r), or their `contact`
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
    return Value(bilinear_sum(st, _grad(P2R, 0)))


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
        return row.value(contact(state, row.pieces))
    return row.value(bilinear_sum(state, row.pieces, row.logpow, kappa))


# ---------------------------------------------------------------------------
# generic exact moments and validators
# ---------------------------------------------------------------------------


def power_moment(state: QuantumState, s: int) -> Fraction:
    """<r^s> in units m_r Zalpha = 1, exact, any integer s with 2 + s + 2l >= 0."""
    return bilinear_sum(state, ((1, R, R, s),)).rational


def recursion_residual(s: int, state: QuantumState) -> Fraction:
    """Residual of the r^s recursion at eps = 0; vanishes for bound states."""
    n, l = state.n, state.l
    e = Q(-1, 2 * n * n)
    res = 8 * e * (s + 1) * power_moment(state, s)
    res += 4 * (2 * s + 1) * power_moment(state, s - 1)
    res += s * (s * s - 1 - 4 * l * (l + 1)) * power_moment(state, s - 2)
    return res


def feynman_hellmann_residual(state: QuantumState) -> Fraction:
    """<V>/beta - dE/dbeta with E = -m_r beta^2/(2 n^2), at eps = 0."""
    n = state.n
    return -power_moment(state, -1) + Q(1, n * n)


def cx1_energy_shift(state: QuantumState, c1, c2, m1, m2):
    """Energy shift -4 m_r (c1/m1^4 + c2/m2^4) <(V')^2> for the CX1 vertex.

    Masses are in arbitrary common units; m_r = m1 m2/(m1+m2).  Returns the
    scaled divergent object for l = 0 and an exact Value for l > 0, along with
    the rational prefactor used.
    """
    from . import dimreg  # local import; dimreg depends on this module

    c1, c2, m1, m2 = (_finite(x, name) for x, name in ((c1, "c1"), (c2, "c2"), (m1, "m1"), (m2, "m2")))
    if m1 <= 0 or m2 <= 0:
        raise DomainError("masses must be positive")
    mr = m1 * m2 / (m1 + m2)
    coef = -4 * (c1 * (mr / m1) ** 4 + c2 * (mr / m2) ** 4)
    vp2 = dimreg.divergent_expectation("(V')2", state.n, state.l)
    # -4 m_r (c1/m1^4 + c2/m2^4) = coef / m_r^3 with coef dimensionless
    return coef, vp2.scale(coef).shift_dims(mr=-3)


# ---------------------------------------------------------------------------
# momentum-space wave function
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
