"""Momentum-space brackets: D-dimensional Fourier-transform kernels of rank
0 through 4, the tables that reduce brackets to 3D and dimensionally
regularized expectation values, the closed forms that reduce to neither,
and <ln q>.  Its oracle, a direct momentum-space quadrature,
is floating-point and lives in `shoot`; `bracket_lnq_oracle` resolves to it
on first use, so importing this module does not load numpy.  `dimreg` too
is imported only by the brackets that reduce to it."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict

from .exactnum import (
    DomainError,
    EpsSeries,
    LNQN,
    ONE,
    Q,
    Record,
    SymExpr,
    harmonic,
    lam,
)
from .coulomb import (
    CatalogError,
    QuantumState,
    Value,
    _d0,
    _d1,
    expectation_closed,
)

HALF = Q(1, 2)


def __getattr__(name):
    # PEP 562: the oracle's module loads numpy, so wait for a caller
    if name == "bracket_lnq_oracle":
        from .shoot import bracket_lnq_oracle

        return bracket_lnq_oracle
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class KernelSingularityError(DomainError):
    """The Fourier kernel hits a singular Gamma (delta-type or log-type)."""

    def __init__(self, kind: str, msg: str):
        super().__init__(msg)
        self.kind = kind


class BracketCatalogError(CatalogError):
    pass


class FourierKernel(Record):
    """FT[p_{i1}..p_{ir} / p^alpha] = pref * r^{-(D + r - alpha)} * tensor.

    pref = i^r 2^two_pow Gamma(num_arg)/(2^alpha pi^{D/2} Gamma(alpha/2)) with
    num_arg = (D + 2 ceil(r/2) - alpha)/2; in D = 3-2 eps it is num_c0 - eps.
    """

    __slots__ = ("alpha", "rank", "num_c0", "den_arg", "two_pow", "tensor")

    def __init__(self, alpha: Fraction, rank: int, num_c0: Fraction, den_arg: Fraction, two_pow: int, tensor: str):
        # num_c0 is the numerator Gamma argument at eps = 0, den_arg that of
        # Gamma(alpha/2), two_pow the overall power of 2 before 2^-alpha
        self._fill(alpha, rank, num_c0, den_arg, two_pow, tensor)

    def prefactor_float(self, eps: float = 0.0) -> float:
        num = math.gamma(float(self.num_c0) - eps)
        den = 2.0 ** float(self.alpha - self.two_pow) * math.pi ** (1.5 - eps) * math.gamma(float(self.den_arg))
        return num / den


_TENSORS = {
    0: "1",
    1: "i xhat_i",
    2: "delta_ij - (D+2-alpha) xhat_i xhat_j",
    3: "i [ (delta xhat)_3 - (D+4-alpha) xhat^3 ]",
    4: "(delta delta)_3 - (D+4-alpha)(delta xhat xhat)_6 + (D+4-alpha)(D+6-alpha) xhat^4",
}


def fourier_kernel(alpha, rank: int, eps: bool = False) -> FourierKernel:
    """Structured D-dimensional Fourier transform of p^{rank tensor}/p^alpha.

    With eps=False (strict D = 3), singular Gamma arguments raise: delta-type
    when the tensor rank minus power is an even non-positive integer, log-type
    when the numerator Gamma argument is non-positive (these transforms exist
    only as distributions outside this catalog).  The bracket of 1/q^4 is
    log-type at D = 3 and must be taken through the eps kernel.
    """
    alpha = Q(alpha)
    if rank not in _TENSORS:
        raise DomainError("tensor rank must be 0..4")
    shift = 2 * ((rank + 1) // 2)  # 0,2,2,4,4: numerator argument shift
    num_c0 = Q(3 + shift - alpha, 2)
    den_arg = alpha / 2
    if den_arg <= 0 and den_arg.denominator == 1:
        raise KernelSingularityError("delta", "1/Gamma(alpha/2) zero: delta-function transform")
    if not eps:
        if num_c0 <= 0 and (num_c0.denominator == 1):
            raise KernelSingularityError(
                "log", "Gamma((D+%d-alpha)/2) singular at D=3: log-type transform" % shift
            )
        if alpha >= 3 and rank == 0:
            # 1/q^alpha with alpha >= D: the bracket integral is IR divergent in
            # strict 3D; the finite value exists only as the D -> 3 limit
            raise KernelSingularityError(
                "log", "1/q^%s requires the D-dimensional kernel (D -> 3 limit)" % alpha
            )
    return FourierKernel(
        alpha=alpha,
        rank=rank,
        num_c0=num_c0,
        den_arg=den_arg,
        two_pow=(rank + 1) // 2,
        tensor=_TENSORS[rank],
    )


# ---------------------------------------------------------------------------
# bracket catalog
# ---------------------------------------------------------------------------

# Brackets that the D-dimensional kernels reduce to 3D catalog values:
# tag -> ((m_r, Za, pi) powers, {catalog tag: coefficient}).
_VIA_CATALOG = {
    "1/q": ((2, 2, -2), {"1/r2": HALF}),  # (1/2 pi^2) <1/r^2>
    "1/q2": ((1, 1, -1), {"1/r": Q(1, 4)}),
    # the D -> 3 limit of the eps kernel: -(1/8 pi) <r>
    "1/q4": ((-1, -1, -1), {"r": Q(-1, 8)}),
    "p2.p1/q": ((4, 4, -2), {"p.1/r2.p": HALF}),  # (1/2 pi^2) <p_i r^-2 p_i>
    # (1/2 pi^2) [ <p_i r^-2 p_i> - 2 <drd r^-2 dr> ]
    "(p2.q)(q.p1)/q3": ((4, 4, -2), {"p.1/r2.p": HALF, "px.1/r2.xp": Q(-1)}),
    "p2.p1/q2": ((3, 3, -1), {"p.1/r.p": Q(1, 4)}),
    "(p2.q)(q.p1)/q4": ((3, 3, -1), {"p.1/r.p": Q(1, 8), "px.1/r.xp": Q(-1, 8)}),
    # (p2^2 p1^2 - (p2.p1)^2)/q^4: (1/8 pi) [ <p_i r^-1 p_i> + <drd r^-1 dr> ]
    "(p22p12-(p2.p1)2)/q4": ((3, 3, -1), {"p.1/r.p": Q(1, 8), "px.1/r.xp": Q(1, 8)}),
}

# Brackets that reduce to a dimensionally regularized value:
# tag -> (dimreg tag, coefficient, m_r shift, Za shift).  At l = 0 the pi and
# mubar^{2 eps} of the prefactor cancel against the brace's.
_VIA_DIMREG = {
    "(p22-p12)2/q2": ("(V')2", Q(1), 1, -1),  # (m/(pi Za mubar^2eps)) <(V')^2>
    "p22p12/q2": ("p2.V.p2", Q(-1, 4), 0, -1),  # -(1/(4 pi Za mubar^2eps)) <p^2 V p^2>
}


def _from_catalog(row, st: QuantumState) -> Value:
    (mr, za, pi), terms = row
    sym = sum((expectation_closed(tag, st).sym * c for tag, c in terms.items()), SymExpr())
    return Value(sym, mr, za, pi)


def _from_dimreg(row, st: QuantumState):
    from . import dimreg

    tag, c, mr, za = row
    val = dimreg.divergent_expectation(tag, st.n, st.l).scale(c)
    if isinstance(val, Value):
        return val.shift_dims(mr, za, -1)
    return val.shift_dims(mr, za)


def _s(x) -> SymExpr:
    return SymExpr.scalar(x)


def _brk_lnq_q2(st):
    # -(1/4pi) <(ln r + gamma_E)/r> = (1/4 pi n^2){ln(2 mr Za/n) - H_{n+l}}
    n, l = st.n, st.l
    sym = SymExpr({LNQN: Q(1), ONE: -harmonic(n + l)}) * Q(1, 4 * n * n)
    return Value(sym, 1, 1, -1)


def _brk_p2p1(st):
    n, l = st.n, st.l
    return Value(_s(Q((n * n - 1) * _d1(l), 3 * n**5)), 5, 5, -1)


def _brk_vq(st):
    # <Vbar(q)> with the O(eps) term retained
    n, l = st.n, st.l
    en = Q(-1, n * n)
    bracket = SymExpr({lam("mu"): Q(4), ONE: 4 * harmonic(n + l) + Q(2, n) - 2})
    return EpsSeries.from_coeffs(0, [_s(en), en * bracket])


class BracketReduction(Record):
    """A bracket whose value embeds a dimensionally regularized object.

    `finite_extra` is the explicit delta-term piece; the remaining content is
    `coefficient` times the referenced dimreg value, kept unexpanded so the
    eps-dependence of its prefactor is not truncated prematurely."""

    __slots__ = ("formula", "finite_extra", "coefficient", "reference")

    def __init__(self, formula: str, finite_extra: Value, coefficient: Fraction, reference):
        self._fill(formula, finite_extra, coefficient, reference)


def _brk_asym_q2(st):
    # (p2^2 p1^2 - (p2.p1)^2)/q^2 =
    #   { -<(V')^2>/(4 m^4 Za^6 mubar^2eps) - d_l0/(2n^5) + (n^2-1) d_l1/(6 n^5) }
    #   * (m_r Za)^5/pi
    from . import dimreg

    n, l = st.n, st.l
    extra = Value(_s(-Q(_d0(l), 2 * n**5) + Q((n * n - 1) * _d1(l), 6 * n**5)), 5, 5, -1)
    formula = "(m_r Za)^5/pi * [ -<(V')^2>/(4 m^4 Za^6 mubar^2eps) + finite_extra ]"
    return BracketReduction(formula, extra, Q(-1, 4), dimreg.divergent_expectation("(V')2", n, l))


def bracket_lnq(state: QuantumState) -> Value:
    """<ln q>: (1/pi n^3){ln(2 m_r Za/n) + H_n + (n-1)/2n} for S states,
    -(1/4 pi)<r^-3> for l > 0."""
    n, l = state.n, state.l
    if l == 0:
        sym = SymExpr({LNQN: Q(1), ONE: harmonic(n) + Q(n - 1, 2 * n)}) * Q(1, n**3)
        return Value(sym, 3, 3, -1)
    return _from_catalog(((3, 3, -1), {"1/r3": Q(-1, 4)}), state)


# the closed forms that reduce to no other table
_BRACKETS: Dict[str, Callable] = {
    "lnq": bracket_lnq,
    "lnq/q2": _brk_lnq_q2,
    "p2.p1": _brk_p2p1,
    "(p22p12-(p2.p1)2)/q2": _brk_asym_q2,
    "V(q)": _brk_vq,
}


def bracket_tags():
    return sorted([*_VIA_CATALOG, *_VIA_DIMREG, *_BRACKETS])


def bracket(tag: str, state: QuantumState):
    if tag in _VIA_CATALOG:
        return _from_catalog(_VIA_CATALOG[tag], state)
    if tag in _VIA_DIMREG:
        return _from_dimreg(_VIA_DIMREG[tag], state)
    if tag in _BRACKETS:
        return _BRACKETS[tag](state)
    raise BracketCatalogError("unknown bracket %r; valid: %s" % (tag, ", ".join(bracket_tags())))
