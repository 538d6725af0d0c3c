"""Three-dimensional Coulomb bound states: exact radial wave functions, the
closed-form expectation-value catalog, and an independent oracle that computes
every catalog entry by exact term-by-term integration of the wave function.

Internal units fix m_r Zalpha = 1 (Bohr radius a = 1, rho = 2r/n).  Every
value carries integer powers of m_r, Zalpha and pi so physical units can be
restored afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Union

from .exactnum import (
    DivergenceError,
    DomainError,
    Q,
    SYM_ZERO,
    SymExpr,
    GAMMA_E,
    ONE,
    ZETA2,
    GAMMA2,
    diharmonic,
    factorial,
    harmonic,
    lam,
    lam2,
    gamma_lam,
)
from .laguerre import GegenbauerPoly, Poly, assoc_laguerre, gegenbauer
from . import lagint

HALF = Q(1, 2)


class CatalogError(KeyError):
    pass


class RequiresDimregError(DomainError):
    """The requested entry is divergent in 3D; use dimreg.divergent_expectation."""


# ---------------------------------------------------------------------------
# states, scales, values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantumState:
    n: int
    l: int

    def __post_init__(self):
        if self.n < 1 or not (0 <= self.l <= self.n - 1):
            raise DomainError("invalid quantum state (n=%s, l=%s)" % (self.n, self.l))

    @property
    def nr(self) -> int:
        return self.n - self.l - 1


@dataclass(frozen=True)
class PhysScale:
    """Physical parameters; internal values are in units m_r Zalpha = 1."""

    mr: float = 1.0
    zalpha: float = 1.0
    mu: float = 1.0
    kappa: float = 1.0

    def lambda_value(self, label: str, n: int) -> float:
        scale = {"mu": self.mu, "kappa": self.kappa}.get(label)
        if scale is None:
            raise DomainError("unknown log-scale label %r" % label)
        return math.log(scale * n / (2.0 * self.mr * self.zalpha))

    def tag_values(self, n: int) -> Dict:
        out = {}
        for label in ("mu", "kappa"):
            lv = self.lambda_value(label, n)
            out[lam(label)] = lv
            out[lam2(label)] = lv * lv
            out[gamma_lam(label)] = lv * 0.57721566490153286
        out[("ln_2mrza_over_n",)] = math.log(2.0 * self.mr * self.zalpha / n)
        return out


@dataclass(frozen=True)
class Value:
    """An exact value in units m_r Zalpha = 1, times m_r^a (Zalpha)^b pi^c."""

    sym: SymExpr
    mr_pow: int = 0
    za_pow: int = 0
    pi_pow: int = 0

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
        phys = phys or PhysScale()
        tags = phys.tag_values(n) if n is not None else None
        base = self.sym.numeric(tags)
        return base * phys.mr**self.mr_pow * phys.zalpha**self.za_pow * math.pi**self.pi_pow

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
# exact radial machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialWF:
    """R_{nl}(r) = sqrt(norm2) rho^l e^{-rho/2} L_{n-l-1}^{2l+1}(rho), rho = 2r/n."""

    state: QuantumState
    norm2: Fraction
    poly: Poly

    def contact_limit_sq(self) -> Fraction:
        """lim_{r->0} R_{n0}^2 (S states)."""
        if self.state.l != 0:
            raise DomainError("contact value needs an S state")
        return self.norm2 * self.poly.coeff(0) ** 2


def radial_wavefunction(state: QuantumState) -> RadialWF:
    n, l = state.n, state.l
    norm2 = Q(4) * factorial(n - l - 1) / (n**4 * factorial(n + l))
    return RadialWF(state, norm2, assoc_laguerre(n - l - 1, 2 * l + 1))


class Fn:
    """A radial function e^{-rho/2} * sum_j c_j rho^j, j integer (may be < 0)."""

    __slots__ = ("table",)

    def __init__(self, table: Dict[int, Fraction]):
        self.table = {j: Q(c) for j, c in table.items() if c}

    def scale(self, c) -> "Fn":
        return Fn({j: v * c for j, v in self.table.items()})

    def shift(self, k: int) -> "Fn":
        return Fn({j + k: v for j, v in self.table.items()})

    def __add__(self, other: "Fn") -> "Fn":
        d = dict(self.table)
        for j, v in other.table.items():
            d[j] = d.get(j, Q(0)) + v
        return Fn(d)

    def __sub__(self, other: "Fn") -> "Fn":
        return self + other.scale(-1)

    def drho(self) -> "Fn":
        """d/drho, including the e^{-rho/2} factor."""
        d: Dict[int, Fraction] = {}
        for j, v in self.table.items():
            if j:
                d[j - 1] = d.get(j - 1, Q(0)) + j * v
            d[j] = d.get(j, Q(0)) - v / 2
        return Fn(d)


def fn_of(state: QuantumState) -> Fn:
    wf = radial_wavefunction(state)
    return Fn({state.l + j: c for j, c in enumerate(wf.poly.coeffs)})


def d_r(state: QuantumState, f: Fn) -> Fn:
    return f.drho().scale(Q(2, state.n))


def div_r(state: QuantumState, f: Fn) -> Fn:
    return f.shift(-1).scale(Q(2, state.n))


def p2_fn(state: QuantumState, f: Fn) -> Fn:
    """p^2 f = -[f'' + (2/r) f' - l(l+1)/r^2 f] acting on f(r) Y_l."""
    l = state.l
    one = d_r(state, d_r(state, f))
    two = div_r(state, d_r(state, f)).scale(2)
    three = div_r(state, div_r(state, f)).scale(-l * (l + 1))
    return (one + two + three).scale(-1)


def bilinear(
    state: QuantumState,
    f: Fn,
    g: Fn,
    spower: int,
    logpow: int = 0,
    kappa: str = "kappa",
) -> Value:
    """int_0^inf dr r^{2+spower} ln^m(kappa r) f(r) g(r), exact.

    ln(kappa r) = ln(rho) + Lambda_kappa with Lambda_kappa = ln(kappa n / (2 m_r Za)).
    """
    n = state.n
    wf = radial_wavefunction(state)
    pref = wf.norm2 * Q(n, 2) ** (3 + spower)
    combined: Dict[int, Fraction] = {}
    for j1, c1 in f.table.items():
        for j2, c2 in g.table.items():
            j = j1 + j2
            combined[j] = combined.get(j, Q(0)) + c1 * c2
    out = SYM_ZERO
    lam_tag = lam(kappa)
    for j, c in combined.items():
        if not c:
            continue
        t = 2 + spower + j
        if t < 0:
            raise DivergenceError(
                "radial integral diverges: monomial rho^%d with weight r^%d" % (j, spower)
            )
        if logpow == 0:
            out = out + c * lagint._mono_int(t, 0)
        elif logpow == 1:
            out = out + c * (lagint._mono_int(t, 1) + SymExpr.of(lam_tag) * lagint._mono_int(t, 0))
        elif logpow == 2:
            out = out + c * (
                lagint._mono_int(t, 2)
                + 2 * SymExpr.of(lam_tag) * lagint._mono_int(t, 1)
                + SymExpr.of(lam2(kappa)) * lagint._mono_int(t, 0)
            )
        else:
            raise DomainError("log power > 2 unsupported")
    return Value(pref * out)


def bilinear_sum(state: QuantumState, terms) -> Value:
    """Sum of bilinear pieces integrated as one combined integrand.

    `terms` is an iterable of (coef, f, g, spower); divergent monomials that
    cancel between pieces are allowed (the check runs after combination).
    """
    n = state.n
    wf = radial_wavefunction(state)
    combined: Dict[int, Fraction] = {}
    for coef, f, g, spower in terms:
        pref = Q(coef) * wf.norm2 * Q(n, 2) ** (3 + spower)
        for j1, c1 in f.table.items():
            for j2, c2 in g.table.items():
                t = 2 + spower + j1 + j2
                combined[t] = combined.get(t, Q(0)) + pref * c1 * c2
    out = SYM_ZERO
    for t, c in combined.items():
        if not c:
            continue
        if t < 0:
            raise DivergenceError("radial integral diverges: surviving r^%d monomial" % (t - 2))
        out = out + c * lagint._mono_int(t, 0)
    return Value(out)


def contact(state: QuantumState, f: Fn, g: Fn, spower: int) -> Value:
    """(1/4pi) lim_{r->0} r^spower f(r) g(r); error if the limit diverges."""
    n = state.n
    wf = radial_wavefunction(state)
    pref = wf.norm2 * Q(n, 2) ** spower
    combined: Dict[int, Fraction] = {}
    for j1, c1 in f.table.items():
        for j2, c2 in g.table.items():
            t = j1 + j2 + spower
            combined[t] = combined.get(t, Q(0)) + c1 * c2
    val = Q(0)
    for t, c in combined.items():
        if not c:
            continue
        if t < 0:
            raise DivergenceError("contact value divergent (r^%d)" % t)
        if t == 0:
            val += c
    return Value(SymExpr.scalar(pref * val / 4), pi_pow=-1)


# ---------------------------------------------------------------------------
# the expectation-value catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    kappa: str = "kappa"


@dataclass(frozen=True)
class CatalogEntry:
    closed: Callable
    oracle: Callable
    min_l: int
    mr_pow: int
    za_pow: int
    pi_pow: int = 0
    needs_kappa: bool = False


CATALOG: Dict[str, CatalogEntry] = {}


def _entry(tag, min_l, mr, za, pi=0, needs_kappa=False):
    def reg(fns):
        closed, oracle = fns
        CATALOG[tag] = CatalogEntry(closed, oracle, min_l, mr, za, pi, needs_kappa)
        return fns

    return reg


def _S(x) -> SymExpr:
    return SymExpr.scalar(x)


def _B(l) -> Fraction:
    return (l - HALF) * (l + HALF) * (l + Q(3, 2))


def _d0(l) -> int:
    return 1 if l == 0 else 0


def _d1(l) -> int:
    return 1 if l == 1 else 0


def _LL(l) -> Fraction:
    return Q(l * (l + 1))


def p6_naive_oracle(st: QuantumState) -> Value:
    """<p^6> as int |grad(p^2 psi)|^2; diverges for S states."""
    chi = p2_fn(st, fn_of(st))
    out = bilinear(st, d_r(st, chi), d_r(st, chi), 0)
    if st.l:
        out = out + bilinear(st, chi, chi, -2).scale(_LL(st.l))
    return out


def _build_catalog():
    def R(st):
        return fn_of(st)

    def dR(st):
        return d_r(st, fn_of(st))

    def ddR(st):
        return d_r(st, d_r(st, fn_of(st)))

    def dddR(st):
        return d_r(st, d_r(st, d_r(st, fn_of(st))))

    def p2R(st):
        return p2_fn(st, fn_of(st))

    def pfp(st, s):
        # <p_i r^s p_i> = int r^{2+s} [R'^2 + l(l+1) (R/r)^2]
        out = bilinear(st, dR(st), dR(st), s)
        if st.l:
            out = out + bilinear(st, R(st), R(st), s - 2).scale(_LL(st.l))
        return out

    # --- plain powers of r ---
    power_rows = {
        "1": (0, lambda n, l, L: Q(1)),
        "r": (0, lambda n, l, L: (3 * n * n - L) / 2),
        "r2": (0, lambda n, l, L: Q(n * n, 2) * (5 * n * n + 1 - 3 * L)),
        "r3": (0, lambda n, l, L: Q(n * n, 8) * (35 * n**4 + 25 * n * n - 30 * n * n * L - 6 * L + 3 * L * L)),
        "r4": (0, lambda n, l, L: Q(n**4, 8) * (63 * n**4 + 105 * n * n + 12 - 70 * n * n * L - 50 * L + 15 * L * L)),
        "1/r": (0, lambda n, l, L: Q(1, n * n)),
        "1/r2": (0, lambda n, l, L: 1 / ((l + HALF) * n**3)),
        "1/r3": (1, lambda n, l, L: 1 / (L * (l + HALF) * n**3)),
        "1/r4": (1, lambda n, l, L: (3 * n * n - L) / (2 * L * (l + HALF) * (l - HALF) * (l + Q(3, 2)) * n**5)),
        "1/r5": (2, lambda n, l, L: (5 * n * n + 1 - 3 * L) / (2 * (l - 1) * L * (l + 2) * (l - HALF) * (l + HALF) * (l + Q(3, 2)) * n**5)),
    }
    for tag, (min_l, fn) in power_rows.items():
        s = {"1": 0, "r": 1, "r2": 2, "r3": 3, "r4": 4, "1/r": -1, "1/r2": -2, "1/r3": -3, "1/r4": -4, "1/r5": -5}[tag]
        _entry(tag, min_l, -s, -s)(
            (
                lambda st, fn=fn: Value(_S(fn(st.n, st.l, _LL(st.l)))),
                lambda st, s=s: bilinear(st, R(st), R(st), s),
            )
        )

    # --- contact terms ---
    _entry("delta3", 0, 3, 3, -1)(
        (
            lambda st: Value(_S(Q(_d0(st.l), st.n**3)), pi_pow=-1),
            lambda st: contact(st, R(st), R(st), 0),
        )
    )
    _entry("delta3/r2", 1, 5, 5, -1)(
        (
            lambda st: Value(_S(Q(st.n**2 - 1, 9 * st.n**5) * _d1(st.l)), pi_pow=-1),
            lambda st: contact(st, R(st), R(st), -2),
        )
    )
    _entry("p.delta3.p", 0, 5, 5, -1)(
        (
            lambda st: Value(_S(Q(_d0(st.l), st.n**3) + Q(st.n**2 - 1, 3 * st.n**5) * _d1(st.l)), pi_pow=-1),
            lambda st: contact(st, dR(st), dR(st), 0)
            + (contact(st, R(st), R(st), -2).scale(_LL(st.l)) if st.l else Value(SYM_ZERO, pi_pow=-1)),
        )
    )

    # --- momentum block ---
    _entry("p2", 0, 2, 2)(
        (
            lambda st: Value(_S(Q(1, st.n**2))),
            lambda st: bilinear(st, p2R(st), R(st), 0),
        )
    )
    _entry("p4", 0, 4, 4)(
        (
            lambda st: Value(_S(4 / ((st.l + HALF) * st.n**3) - Q(3, st.n**4))),
            lambda st: bilinear(st, p2R(st), p2R(st), 0),
        )
    )

    def p6_closed(st):
        n, l = st.n, st.l
        return Value(
            _S(
                Q(5, n**6)
                - 8 / ((l + HALF) * n**5)
                + (8 * n * n + 1 - 4 * _LL(l)) / (_B(l) * n**5)
                + Q(32 * _d0(l), n**3)
            )
        )

    def p6_oracle(st):
        # regularized composite (2m)^2 { E^2 <p^2> - 2E <p^2 V> + <p_i V^2 p_i> }
        E = Q(-1, 2 * st.n**2)
        t1 = bilinear(st, p2R(st), R(st), 0).scale(E * E)
        t2 = bilinear(st, p2R(st), R(st), -1).scale(2 * E)  # -2E <p^2 V>, V = -1/r
        t3 = pfp(st, -2)
        return (t1 + t2 + t3).scale(4)

    _entry("p6", 0, 6, 6)((p6_closed, p6_oracle))

    # --- p_i f p_i family ---
    _entry("p.1/r.p", 0, 3, 3)(
        (
            lambda st: Value(_S(2 / ((st.l + HALF) * st.n**3) - Q(1, st.n**4) - Q(2 * _d0(st.l), st.n**3))),
            lambda st: pfp(st, -1),
        )
    )
    _entry("p.1/r2.p", 0, 4, 4)(
        (
            lambda st: Value(_S((8 * st.n**2 + 1 - 4 * _LL(st.l)) / (4 * _B(st.l) * st.n**5) + Q(8 * _d0(st.l), st.n**3))),
            lambda st: pfp(st, -2),
        )
    )
    _entry("px.xp", 0, 2, 2)(
        (
            lambda st: Value(_S(Q(1, st.n**2) - _LL(st.l) / ((st.l + HALF) * st.n**3))),
            lambda st: bilinear(st, dR(st), dR(st), 0),
        )
    )
    _entry("px.1/r.xp", 0, 3, 3)(
        (
            lambda st: Value(_S(-Q(1, st.n**4) + 1 / ((st.l + HALF) * st.n**3))),
            lambda st: bilinear(st, dR(st), dR(st), -1),
        )
    )
    _entry("px.1/r2.xp", 0, 4, 4)(
        (
            lambda st: Value(_S((2 * st.n**2 + 1 - 2 * _LL(st.l)) / (4 * _B(st.l) * st.n**5) + Q(4 * _d0(st.l), st.n**3))),
            lambda st: bilinear(st, dR(st), dR(st), -2),
        )
    )
    _entry("p.1/r.p-3px.1/r.xp", 0, 3, 3)(
        (
            lambda st: Value(_S(Q(2, st.n**4) - 1 / ((st.l + HALF) * st.n**3) - Q(2 * _d0(st.l), st.n**3))),
            lambda st: pfp(st, -1) - bilinear(st, dR(st), dR(st), -1).scale(3),
        )
    )
    _entry("p.1/r2.p-3px.1/r2.xp", 0, 4, 4)(
        (
            lambda st: Value(_S((st.n**2 - 1 + _LL(st.l)) / (2 * _B(st.l) * st.n**5) - Q(4 * _d0(st.l), st.n**3))),
            lambda st: pfp(st, -2) - bilinear(st, dR(st), dR(st), -2).scale(3),
        )
    )
    _entry("p.1/r3.p-3px.1/r3.xp", 1, 5, 5)(
        (
            lambda st: Value(
                _S(
                    (3 * st.n**2 - _LL(st.l)) / (2 * _LL(st.l) * _B(st.l) * st.n**5)
                    + Q(2 * (st.n**2 - 1) * _d1(st.l), 9 * st.n**5)
                )
            ),
            # individually divergent at l = 1; integrate the combination
            lambda st: bilinear_sum(
                st,
                [
                    (-2, dR(st), dR(st), -3),
                    (_LL(st.l), R(st), R(st), -5),
                ],
            ),
        )
    )

    # --- p^2-weighted ---
    _entry("p2.r", 0, 1, 1)(
        (
            lambda st: Value(_S(_LL(st.l) / (2 * st.n**2) + HALF)),
            lambda st: bilinear(st, p2R(st), R(st), 1),
        )
    )
    _entry("p2.1/r", 0, 3, 3)(
        (
            lambda st: Value(_S(2 / ((st.l + HALF) * st.n**3) - Q(1, st.n**4))),
            lambda st: bilinear(st, p2R(st), R(st), -1),
        )
    )
    _entry("p4.1/r", 1, 5, 5)(
        (
            lambda st: Value(_S((4 * st.n**2 + 2 - 4 * _LL(st.l)) / (_B(st.l) * st.n**5) + Q(1, st.n**6))),
            lambda st: bilinear(st, p2R(st), p2_fn(st, div_r(st, fn_of(st))), 0),
        )
    )
    _entry("p2.1/r2", 1, 4, 4)(
        (
            lambda st: Value(_S(2 / (_LL(st.l) * (st.l + HALF) * st.n**3) - 1 / ((st.l + HALF) * st.n**5))),
            lambda st: bilinear(st, p2R(st), R(st), -2),
        )
    )
    _entry("p2.1/r3", 1, 5, 5)(
        (
            lambda st: Value(
                _S((3 * st.n**2 + Q(3, 4) - 2 * _LL(st.l)) / (_LL(st.l) * (st.l + HALF) * (st.l - HALF) * (st.l + Q(3, 2)) * st.n**5))
            ),
            lambda st: bilinear(st, p2R(st), R(st), -3),
        )
    )
    _entry("p2.r.p2", 0, 3, 3)(
        (
            lambda st: Value(_S(-_LL(st.l) / (2 * st.n**4) + Q(3, 2 * st.n**2))),
            lambda st: bilinear(st, p2R(st), p2R(st), 1),
        )
    )
    _entry("p2.1/r.p2", 1, 5, 5)(
        (
            lambda st: Value(_S(Q(1, st.n**6) + (4 * st.n**2 - 4 * _LL(st.l)) / (_LL(st.l) * (st.l + HALF) * st.n**5))),
            lambda st: bilinear(st, p2R(st), p2R(st), -1),
        )
    )

    # --- single radial derivative ---
    _entry("r.dr", 0, 0, 0)(
        (
            lambda st: Value(_S(Q(-3, 2))),
            lambda st: bilinear(st, R(st), dR(st), 1),
        )
    )
    _entry("dr", 0, 1, 1)(
        (
            lambda st: Value(_S(Q(-1, st.n**2))),
            lambda st: bilinear(st, R(st), dR(st), 0),
        )
    )
    _entry("1/r.dr", 0, 2, 2)(
        (
            lambda st: Value(_S(-1 / (2 * (st.l + HALF) * st.n**3))),
            lambda st: bilinear(st, R(st), dR(st), -1),
        )
    )
    _entry("1/r2.dr", 0, 3, 3)(
        (
            lambda st: Value(_S(Q(-2 * _d0(st.l), st.n**3))),
            lambda st: bilinear(st, R(st), dR(st), -2),
        )
    )
    _entry("1/r3.dr", 1, 4, 4)(
        (
            lambda st: Value(_S((3 * st.n**2 - _LL(st.l)) / (4 * _LL(st.l) * _B(st.l) * st.n**5))),
            lambda st: bilinear(st, R(st), dR(st), -3),
        )
    )
    _entry("1/r3.(dr+1)", 0, 4, 4)(
        (
            lambda st: Value(_S((4 * st.n**2 - 1) / (4 * _B(st.l) * st.n**5) + Q(2 * _d0(st.l), st.n**3))),
            lambda st: bilinear(st, R(st), dR(st) + R(st), -3),
        )
    )
    _entry("1/r4.dr", 2, 5, 5)(
        (
            lambda st: Value(
                _S((5 * st.n**2 + 1 - 3 * _LL(st.l)) / (2 * (st.l - 1) * _LL(st.l) * (st.l + 2) * _B(st.l) * st.n**5))
            ),
            lambda st: bilinear(st, R(st), dR(st), -4),
        )
    )
    _entry("1/r4.(dr-1/r)", 1, 5, 5)(
        (
            lambda st: Value(_S(Q(-2 * (st.n**2 - 1) * _d1(st.l), 9 * st.n**5))),
            lambda st: bilinear(st, R(st), dR(st) - div_r(st, fn_of(st)), -4),
        )
    )

    # --- second derivatives ---
    _entry("r.dr2", 0, 1, 1)(
        (
            lambda st: Value(_S((4 + _LL(st.l)) / (2 * st.n**2) - HALF)),
            lambda st: bilinear(st, R(st), ddR(st), 1),
        )
    )
    _entry("dr2", 0, 2, 2)(
        (
            lambda st: Value(_S((1 + _LL(st.l)) / ((st.l + HALF) * st.n**3) - Q(1, st.n**2))),
            lambda st: bilinear(st, R(st), ddR(st), 0),
        )
    )
    _entry("1/r.dr2", 0, 3, 3)(
        (
            lambda st: Value(_S(Q(1, st.n**4) - 1 / ((st.l + HALF) * st.n**3) + Q(2 * _d0(st.l), st.n**3))),
            lambda st: bilinear(st, R(st), ddR(st), -1),
        )
    )
    _entry("1/r2.dr2", 0, 4, 4)(
        (
            lambda st: Value(_S((-2 * st.n**2 - 1 + 2 * _LL(st.l)) / (4 * _B(st.l) * st.n**5))),
            lambda st: bilinear(st, R(st), ddR(st), -2),
        )
    )
    _entry("1/r3.dr2", 1, 5, 5)(
        (
            lambda st: Value(
                _S(
                    (-st.n**2 - HALF + _LL(st.l)) / (2 * _LL(st.l) * _B(st.l) * st.n**5)
                    - Q(2 * (st.n**2 - 1) * _d1(st.l), 9 * st.n**5)
                )
            ),
            lambda st: bilinear(st, R(st), ddR(st), -3),
        )
    )
    _entry("drd.dr2", 0, 3, 3)(
        (
            lambda st: Value(_S(Q(1, st.n**4) - 1 / ((st.l + HALF) * st.n**3))),
            lambda st: bilinear(st, dR(st), ddR(st), 0),
        )
    )
    _entry("drd.1/r.dr2", 0, 4, 4)(
        (
            lambda st: Value(_S((-st.n**2 - HALF + _LL(st.l)) / (4 * _B(st.l) * st.n**5) - Q(2 * _d0(st.l), st.n**3))),
            lambda st: bilinear(st, dR(st), ddR(st), -1),
        )
    )
    _entry("drd.1/r2.dr2", 0, 5, 5)(
        (
            lambda st: Value(_S(Q(-2 * _d0(st.l), st.n**3) - Q(2 * (st.n**2 - 1) * _d1(st.l), 9 * st.n**5))),
            lambda st: bilinear(st, dR(st), ddR(st), -2),
        )
    )
    _entry("drd2.dr2", 0, 4, 4)(
        (
            lambda st: Value(
                _S(
                    (-4 * st.n**2 - 2 - 2 * _LL(st.l) + 6 * st.n**2 * _LL(st.l) + 6 * _LL(st.l) ** 2)
                    / (4 * _B(st.l) * st.n**5)
                    - Q(3, st.n**4)
                )
            ),
            lambda st: bilinear(st, ddR(st), ddR(st), 0),
        )
    )
    _entry("p2.r.dr2", 0, 3, 3)(
        (
            lambda st: Value(
                _S(-(4 + _LL(st.l)) / (2 * st.n**4) + (2 + 2 * _LL(st.l)) / ((st.l + HALF) * st.n**3) - Q(3, 2 * st.n**2))
            ),
            lambda st: bilinear(st, p2R(st), ddR(st), 1),
        )
    )
    _entry("p2.dr2", 0, 4, 4)(
        (
            lambda st: Value(
                _S(-(2 * st.n**2 + 1 + _LL(st.l)) / ((st.l + HALF) * st.n**5) + Q(3, st.n**4) + Q(4 * _d0(st.l), st.n**3))
            ),
            lambda st: bilinear(st, p2R(st), ddR(st), 0),
        )
    )

    # --- third derivatives ---
    _entry("dr3", 0, 3, 3)(
        (
            lambda st: Value(_S(Q(-3, st.n**4) + 3 / ((st.l + HALF) * st.n**3) - Q(4 * _d0(st.l), st.n**3))),
            lambda st: bilinear(st, R(st), dddR(st), 0),
        )
    )
    _entry("1/r.dr3", 0, 4, 4)(
        (
            lambda st: Value(
                _S((3 * st.n**2 + Q(3, 2) - 3 * _LL(st.l)) / (4 * _B(st.l) * st.n**5) + Q(2 * _d0(st.l), st.n**3))
            ),
            lambda st: bilinear(st, R(st), dddR(st), -1),
        )
    )
    _entry("1/r2.dr3", 0, 5, 5)(
        (
            lambda st: Value(
                _S(Q(-2 * (st.n**2 + 2) * _d0(st.l), 3 * st.n**5) + Q(2 * (st.n**2 - 1) * _d1(st.l), 9 * st.n**5))
            ),
            lambda st: bilinear(st, R(st), dddR(st), -2),
        )
    )
    _entry("drd.dr3", 0, 4, 4)(
        (
            lambda st: Value(
                _S(
                    (6 * st.n**2 + 3 - 6 * st.n**2 * _LL(st.l) - 6 * _LL(st.l) ** 2) / (4 * _B(st.l) * st.n**5)
                    + Q(3, st.n**4)
                    + Q(4 * _d0(st.l), st.n**3)
                )
            ),
            lambda st: bilinear(st, dR(st), dddR(st), 0),
        )
    )

    # --- adjoint-derivative sandwiches ---
    _entry("drd.1/r3.dr", 2, 5, 5)(
        (
            lambda st: Value(
                _S(
                    (6 * st.n**2 + _LL(st.l) * (2 * st.n**2 - 1 - 2 * _LL(st.l)))
                    / (4 * (st.l - 1) * _LL(st.l) * (st.l + 2) * _B(st.l) * st.n**5)
                )
            ),
            lambda st: bilinear(st, dR(st), dR(st), -3),
        )
    )
    _entry("drd.1/r3.(dr-1/r)", 1, 5, 5)(
        (
            lambda st: Value(
                _S(
                    (st.n**2 + HALF - _LL(st.l)) / (2 * _LL(st.l) * _B(st.l) * st.n**5)
                    - Q(2 * (st.n**2 - 1) * _d1(st.l), 9 * st.n**5)
                )
            ),
            lambda st: bilinear(st, dR(st), dR(st) - div_r(st, fn_of(st)), -3),
        )
    )
    _entry("(drd-1/r).1/r3.(dr-1/r)", 1, 5, 5)(
        (
            lambda st: Value(_S((st.n**2 + HALF - _LL(st.l)) / (2 * _LL(st.l) * _B(st.l) * st.n**5))),
            lambda st: bilinear(
                st, dR(st) - div_r(st, fn_of(st)), dR(st) - div_r(st, fn_of(st)), -3
            ),
        )
    )
    _entry("drd.p2.dr", 0, 4, 4)(
        (
            lambda st: Value(
                _S(
                    (2 * st.n**2 - 2 + 2 * _LL(st.l)) / (4 * _B(st.l) * st.n**5)
                    + _LL(st.l) / ((st.l + HALF) * st.n**5)
                    + 2 / ((st.l + HALF) * st.n**3)
                    - Q(3, st.n**4)
                )
            ),
            lambda st: bilinear(st, dR(st), p2_fn(st, dR(st)), 0),
        )
    )
    _entry("pn.1/r.dr.pn", 0, 4, 4)(
        (
            lambda st: Value(
                _S((-4 * st.n**2 - HALF + 2 * _LL(st.l)) / (4 * _B(st.l) * st.n**5) - Q(4 * _d0(st.l), st.n**3))
            ),
            lambda st: bilinear(st, dR(st), ddR(st), -1)
            + (
                bilinear(st, div_r(st, fn_of(st)), d_r(st, div_r(st, fn_of(st))), -1).scale(_LL(st.l))
                if st.l
                else Value(SYM_ZERO)
            ),
        )
    )
    _entry("pn.px.xp.pn", 0, 4, 4)(
        (
            lambda st: Value(
                _S(
                    (2 * st.n**2 - 2 + 2 * _LL(st.l)) / (4 * _B(st.l) * st.n**5)
                    + _LL(st.l) / ((st.l + HALF) * st.n**5)
                    + 2 / ((st.l + HALF) * st.n**3)
                    - Q(3, st.n**4)
                )
            ),
            lambda st: bilinear(st, ddR(st), ddR(st), 0)
            + (
                bilinear(st, d_r(st, div_r(st, fn_of(st))), d_r(st, div_r(st, fn_of(st))), 0).scale(_LL(st.l))
                if st.l
                else Value(SYM_ZERO)
            ),
        )
    )

    # --- logarithmic entries ---
    def _lam(st, kappa):
        return SymExpr.of(lam(kappa))

    def ln_closed(st, kappa="kappa"):
        n, l = st.n, st.l
        return Value(
            _lam(st, kappa)
            + SymExpr({ONE: harmonic(n + l) + 1 - Q(2 * l + 1, 2 * n), GAMMA_E: Q(-1)})
        )

    _entry("ln", 0, 0, 0, needs_kappa=True)(
        (ln_closed, lambda st, kappa="kappa": bilinear(st, R(st), R(st), 0, logpow=1, kappa=kappa))
    )

    def ln_r1_closed(st, kappa="kappa"):
        n, l = st.n, st.l
        return Value(
            (_lam(st, kappa) + SymExpr({ONE: harmonic(n + l), GAMMA_E: Q(-1)})) * Q(1, n * n)
        )

    _entry("ln/r", 0, 1, 1, needs_kappa=True)(
        (ln_r1_closed, lambda st, kappa="kappa": bilinear(st, R(st), R(st), -1, logpow=1, kappa=kappa))
    )

    def ln_r2_closed(st, kappa="kappa"):
        n, l = st.n, st.l
        c = 1 / ((l + HALF) * n**3)
        return Value(
            (
                _lam(st, kappa)
                + SymExpr({ONE: harmonic(2 * l + 1) + harmonic(2 * l) - harmonic(n + l), GAMMA_E: Q(-1)})
            )
            * c
        )

    _entry("ln/r2", 0, 2, 2, needs_kappa=True)(
        (ln_r2_closed, lambda st, kappa="kappa": bilinear(st, R(st), R(st), -2, logpow=1, kappa=kappa))
    )

    def ln_r3_closed(st, kappa="kappa"):
        n, l = st.n, st.l
        c = 1 / (_LL(l) * (l + HALF) * n**3)
        return Value(
            (
                _lam(st, kappa)
                + SymExpr(
                    {
                        ONE: harmonic(2 * l + 2) + harmonic(2 * l - 1) - harmonic(n + l) - Q(n - l, n) + Q(1, 2 * n),
                        GAMMA_E: Q(-1),
                    }
                )
            )
            * c
        )

    _entry("ln/r3", 1, 3, 3, needs_kappa=True)(
        (ln_r3_closed, lambda st, kappa="kappa": bilinear(st, R(st), R(st), -3, logpow=1, kappa=kappa))
    )

    def ln2_r_closed(st, kappa="kappa"):
        n, l = st.n, st.l
        nr = st.nr
        hnl = harmonic(n + l)
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
        return Value(inner * Q(1, n * n))

    _entry("ln2/r", 0, 1, 1, needs_kappa=True)(
        (ln2_r_closed, lambda st, kappa="kappa": bilinear(st, R(st), R(st), -1, logpow=2, kappa=kappa))
    )

    def ln_dr_closed(st, kappa="kappa"):
        n, l = st.n, st.l
        return Value(
            (_lam(st, kappa) + SymExpr({ONE: harmonic(n + l) + HALF, GAMMA_E: Q(-1)})) * Q(-1, n * n)
        )

    _entry("ln.dr", 0, 1, 1, needs_kappa=True)(
        (ln_dr_closed, lambda st, kappa="kappa": bilinear(st, R(st), dR(st), 0, logpow=1, kappa=kappa))
    )

    # --- potential block (finite three-dimensional entries) ---
    _entry("V", 0, 1, 2)(
        (
            lambda st: Value(_S(Q(-1, st.n**2)), 0, 0, 0),
            lambda st: bilinear(st, R(st), R(st), -1).scale(-1),
        )
    )
    _entry("V2", 0, 2, 4)(
        (
            lambda st: Value(_S(1 / ((st.l + HALF) * st.n**3))),
            lambda st: bilinear(st, R(st), R(st), -2),
        )
    )
    _entry("p.V.p", 0, 3, 4)(
        (
            lambda st: Value(
                _S(Q(1, st.n**4) - 2 / ((st.l + HALF) * st.n**3) + Q(2 * _d0(st.l), st.n**3))
            ),
            lambda st: pfp(st, -1).scale(-1),
        )
    )
    _entry("p2.V", 0, 3, 4)(
        (
            lambda st: Value(_S(Q(1, st.n**4) - 2 / ((st.l + HALF) * st.n**3))),
            lambda st: bilinear(st, p2R(st), R(st), -1).scale(-1),
        )
    )


_build_catalog()


def catalog_tags():
    return sorted(CATALOG)


def _resolve(op: Union[str, OperatorSpec]) -> OperatorSpec:
    if isinstance(op, str):
        op = OperatorSpec(op)
    if op.kind not in CATALOG:
        raise CatalogError(
            "unknown operator %r; valid tags: %s" % (op.kind, ", ".join(catalog_tags()))
        )
    return op


def _check_guard(entry: CatalogEntry, op: OperatorSpec, state: QuantumState):
    if state.l < entry.min_l:
        raise RequiresDimregError(
            "<%s> requires l >= %d (l = %d is divergent in 3D; see dimreg.divergent_expectation)"
            % (op.kind, entry.min_l, state.l)
        )


def expectation_closed(op: Union[str, OperatorSpec], state: QuantumState) -> Value:
    """Tabulated closed form for one catalog entry, with unit metadata."""
    op = _resolve(op)
    entry = CATALOG[op.kind]
    _check_guard(entry, op, state)
    if entry.needs_kappa:
        v = entry.closed(state, kappa=op.kappa)
    else:
        v = entry.closed(state)
    return Value(v.sym, entry.mr_pow, entry.za_pow, entry.pi_pow)


def expectation_oracle(op: Union[str, OperatorSpec], state: QuantumState) -> Value:
    """Independent exact-integration value of the same entry."""
    op = _resolve(op)
    entry = CATALOG[op.kind]
    _check_guard(entry, op, state)
    if entry.needs_kappa:
        v = entry.oracle(state, kappa=op.kappa)
    else:
        v = entry.oracle(state)
    return Value(v.sym, entry.mr_pow, entry.za_pow, entry.pi_pow)


# ---------------------------------------------------------------------------
# generic exact moments and validators
# ---------------------------------------------------------------------------


def power_moment(state: QuantumState, s: int) -> Fraction:
    """<r^s> in units m_r Zalpha = 1, exact, any integer s with 2 + s + 2l >= 0."""
    return bilinear(state, fn_of(state), fn_of(state), s).sym.rational


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

    c1, c2, m1, m2 = Q(c1), Q(c2), Q(m1), Q(m2)
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


@dataclass(frozen=True)
class MomentumRadialWF:
    """R_{nl}(p) = phi_n N_{nl} p^l gamma_n^{l+1} / D_n^{l+2} C_{n-l-1}^{l+1}(Dbar_n/D_n).

    D_n = p^2 + gamma_n^2, Dbar_n = p^2 - gamma_n^2; units m_r Zalpha = 1 so
    gamma_n = 1/n and the normalization is int p^2 R^2 dp/(2 pi)^3 = 1.
    """

    state: QuantumState
    gegenbauer: GegenbauerPoly  # degree n-l-1, order l+1
    norm: float  # phi_n * N_{nl}

    def __call__(self, p: float) -> float:
        n, l = self.state.n, self.state.l
        gamma_n = 1.0 / n
        D = p * p + gamma_n * gamma_n
        beta = (p * p - gamma_n * gamma_n) / D
        acc = 0.0
        for c in reversed(self.gegenbauer.poly.coeffs):
            acc = acc * beta + float(c)
        return self.norm * p**l * gamma_n ** (l + 1) / D ** (l + 2) * acc


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
