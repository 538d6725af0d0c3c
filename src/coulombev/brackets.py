"""Momentum-space brackets: D-dimensional Fourier-transform kernels of rank
0 through 4, the bracket-to-expectation reductions, and the <ln q> special
case from its closed form.  Its oracle, a direct momentum-space quadrature,
is floating-point and lives in `shoot`; `bracket_lnq_oracle` resolves to it
on first use, so importing this module loads no numpy or scipy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict

from .exactnum import (
    DomainError,
    EpsSeries,
    LNQN,
    ONE,
    Q,
    SymExpr,
    harmonic,
    lam,
)
from .coulomb import (
    QuantumState,
    Value,
    _d0,
    _d1,
    expectation_closed,
)
from . import dimreg

HALF = Q(1, 2)


def __getattr__(name):
    # PEP 562: the oracle's module loads numpy and scipy, so wait for a caller
    if name == "bracket_lnq_oracle":
        from .shoot import bracket_lnq_oracle

        return bracket_lnq_oracle
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class KernelSingularityError(DomainError):
    """The Fourier kernel hits a singular Gamma (delta-type or log-type)."""

    def __init__(self, kind: str, msg: str):
        super().__init__(msg)
        self.kind = kind


class BracketCatalogError(KeyError):
    pass


@dataclass(frozen=True)
class FourierKernel:
    """FT[p_{i1}..p_{ir} / p^alpha] = pref * r^{-(D + r - alpha)} * tensor.

    pref = i^delta 2^{r'} Gamma(num_arg)/(2^alpha pi^{D/2} Gamma(alpha/2)) with
    num_arg = (D + 2*ceil(r/2)... stored explicitly; in D = 3-2 eps the
    numerator argument is num_c0 - eps.
    """

    alpha: Fraction
    rank: int
    eps_mode: bool
    num_c0: Fraction  # numerator Gamma argument at eps = 0
    den_arg: Fraction  # Gamma(alpha/2)
    two_pow: int  # overall power of 2 in the prefactor (before 2^-alpha)
    r_pow_c0: Fraction  # power of r at eps = 0 (positive means 1/r^...)
    tensor: str

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
        eps_mode=eps,
        num_c0=num_c0,
        den_arg=den_arg,
        two_pow=(rank + 1) // 2,
        r_pow_c0=Q(3) + rank - alpha,
        tensor=_TENSORS[rank],
    )


# ---------------------------------------------------------------------------
# bracket catalog
# ---------------------------------------------------------------------------


def _s(x) -> SymExpr:
    return SymExpr.scalar(x)


def _brk_qm1(st):
    # (1/2 pi^2) <1/r^2>
    v = expectation_closed("1/r2", st)
    return Value(v.sym * HALF, 2, 2, -2)


def _brk_qm2(st):
    v = expectation_closed("1/r", st)
    return Value(v.sym * Q(1, 4), 1, 1, -1)


def _brk_qm4(st):
    # through the D-dimensional kernel: -(1/8 pi) <r> in the D -> 3 limit
    fourier_kernel(4, 0, eps=True)
    v = expectation_closed("r", st)
    return Value(v.sym * Q(-1, 8), -1, -1, -1)


def _brk_lnq_q2(st):
    # -(1/4pi) <(ln r + gamma_E)/r> = (1/4 pi n^2){ln(2 mr Za/n) - H_{n+l}}
    n, l = st.n, st.l
    sym = SymExpr({LNQN: Q(1), ONE: -harmonic(n + l)}) * Q(1, 4 * n * n)
    return Value(sym, 1, 1, -1)


def _brk_p2p1(st):
    n, l = st.n, st.l
    return Value(_s(Q((n * n - 1) * _d1(l), 3 * n**5)), 5, 5, -1)


def _brk_p2p1_qm1(st):
    # (1/2 pi^2) <p_i r^-2 p_i>
    v = expectation_closed("p.1/r2.p", st)
    return Value(v.sym * HALF, 4, 4, -2)


def _brk_p2qqp1_qm3(st):
    # (1/2 pi^2) [ <p_i r^-2 p_i> - 2 <drd r^-2 dr> ]
    v1 = expectation_closed("p.1/r2.p", st)
    v2 = expectation_closed("px.1/r2.xp", st)
    return Value((v1.sym - 2 * v2.sym) * HALF, 4, 4, -2)


def _brk_p2p1_qm2(st):
    v = expectation_closed("p.1/r.p", st)
    return Value(v.sym * Q(1, 4), 3, 3, -1)


def _brk_p2qqp1_qm4(st):
    v1 = expectation_closed("p.1/r.p", st)
    v2 = expectation_closed("px.1/r.xp", st)
    return Value((v1.sym - v2.sym) * Q(1, 8), 3, 3, -1)


def _brk_asym_qm4(st):
    # (p2^2 p1^2 - (p2.p1)^2)/q^4
    n, l = st.n, st.l
    sym = _s((-Q(1, n) + Q(3, 2) / (l + HALF) - _d0(l)) * Q(1, 4 * n**3))
    return Value(sym, 3, 3, -1)


def _brk_dp2sq_q2(st):
    # (p2^2-p1^2)^2/q^2 -> (m/(pi Za mubar^2eps)) <(V')^2>
    val = dimreg.divergent_expectation("(V')2", st.n, st.l)
    if isinstance(val, Value):
        return Value(val.sym, val.mr_pow + 1, val.za_pow - 1, -1)
    # l = 0: pi and mubar^{2 eps} cancel against the prefactor
    return dimreg.DivergentValue(val.series, val.mr_pow + 1, val.za_pow - 1)


def _brk_p22p12_q2(st):
    # p2^2 p1^2 / q^2 -> -(1/(4 pi Za mubar^2eps)) <p^2 V p^2>
    val = dimreg.divergent_expectation("p2.V.p2", st.n, st.l)
    if isinstance(val, Value):
        return Value(val.sym * Q(-1, 4), val.mr_pow, val.za_pow - 1, -1)
    return dimreg.DivergentValue(val.series * Q(-1, 4), val.mr_pow, val.za_pow - 1)


def _brk_vq(st):
    # <Vbar(q)> with the O(eps) term retained
    n, l = st.n, st.l
    en = Q(-1, n * n)
    bracket = SymExpr({lam("mu"): Q(4), ONE: 4 * harmonic(n + l) + Q(2, n) - 2})
    return EpsSeries.from_coeffs(0, [_s(en), en * bracket])


@dataclass(frozen=True)
class BracketReduction:
    """A bracket whose value embeds a dimensionally regularized object.

    `finite_extra` is the explicit delta-term piece; the remaining content is
    `coefficient` times the referenced dimreg value, kept unexpanded so the
    eps-dependence of its prefactor is not truncated prematurely."""

    formula: str
    finite_extra: Value
    coefficient: Fraction
    reference: object


def _brk_asym_q2(st):
    # (p2^2 p1^2 - (p2.p1)^2)/q^2 =
    #   { -<(V')^2>/(4 m^4 Za^6 mubar^2eps) - d_l0/(2n^5) + (n^2-1) d_l1/(6 n^5) }
    #   * (m_r Za)^5/pi
    n, l = st.n, st.l
    extra = Value(
        _s(-Q(_d0(l), 2 * n**5) + Q((n * n - 1) * _d1(l), 6 * n**5)), 5, 5, -1
    )
    ref = dimreg.divergent_expectation("(V')2", st.n, st.l)
    return BracketReduction(
        "(m_r Za)^5/pi * [ -<(V')^2>/(4 m^4 Za^6 mubar^2eps) + finite_extra ]",
        extra,
        Q(-1, 4),
        ref,
    )


_BRACKETS: Dict[str, Callable] = {
    "1/q": _brk_qm1,
    "1/q2": _brk_qm2,
    "1/q4": _brk_qm4,
    "lnq": None,  # handled by bracket_lnq
    "lnq/q2": _brk_lnq_q2,
    "p2.p1": _brk_p2p1,
    "p2.p1/q": _brk_p2p1_qm1,
    "(p2.q)(q.p1)/q3": _brk_p2qqp1_qm3,
    "p2.p1/q2": _brk_p2p1_qm2,
    "(p2.q)(q.p1)/q4": _brk_p2qqp1_qm4,
    "(p22p12-(p2.p1)2)/q4": _brk_asym_qm4,
    "(p22p12-(p2.p1)2)/q2": _brk_asym_q2,
    "(p22-p12)2/q2": _brk_dp2sq_q2,
    "p22p12/q2": _brk_p22p12_q2,
    "V(q)": _brk_vq,
}


def bracket_tags():
    return sorted(_BRACKETS)


def bracket(tag: str, state: QuantumState):
    if tag == "lnq":
        return bracket_lnq(state)
    fn = _BRACKETS.get(tag)
    if fn is None:
        raise BracketCatalogError(
            "unknown bracket %r; valid: %s" % (tag, ", ".join(bracket_tags()))
        )
    return fn(state)


def bracket_lnq(state: QuantumState) -> Value:
    """<ln q>: (1/pi n^3){ln(2 m_r Za/n) + H_n + (n-1)/2n} for S states,
    -(1/4 pi)<r^-3> for l > 0."""
    n, l = state.n, state.l
    if l == 0:
        sym = SymExpr({LNQN: Q(1), ONE: harmonic(n) + Q(n - 1, 2 * n)}) * Q(1, n**3)
        return Value(sym, 3, 3, -1)
    v = expectation_closed("1/r3", state)
    return Value(v.sym * Q(-1, 4), 3, 3, -1)
