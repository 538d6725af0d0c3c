import math
from fractions import Fraction as Q

import pytest

from coulombev import brackets as br
from coulombev import coulomb as cb
from coulombev import dimreg as dr
from coulombev.exactnum import LNQN, ONE, DomainError, SymExpr, harmonic as H

S = SymExpr.scalar


def test_reference_values():
    v = br.bracket("1/q2", cb.QuantumState(2, 0))
    assert v.sym == S(Q(1, 16)) and v.pi_pow == -1
    v = br.bracket("1/q4", cb.QuantumState(1, 0))
    assert v.sym == S(Q(-3, 16)) and v.pi_pow == -1
    v = br.bracket("p2.p1", cb.QuantumState(2, 1))
    assert v.sym == S(Q(1, 32)) and v.pi_pow == -1
    assert br.bracket("p2.p1", cb.QuantumState(2, 0)).sym == SymExpr()


def _rows(tags):
    # the suite checks each catalog coefficient of a row and its m_r, Za powers against the Fourier kernels
    labels = ["kernel %s: %s" % (tag, cat) for tag in tags for cat in br._VIA_CATALOG[tag][1]]
    return labels + ["kernel %s powers" % tag for tag in tags]


def test_duality(suite):
    suite("brackets").assert_passed(_rows(("1/q", "1/q2")))


def test_q4_through_eps_kernel_only(suite):
    labels = ["1/q4 rejection kind", "1/q4 D-dim kernel numerator"] + _rows(("1/q4",))
    suite("brackets").assert_passed(labels)


def test_vq_virial(suite):
    labels = ["V(q) virial (%d,%d)" % (n, l) for n in range(1, 11) for l in range(n)]
    assert len(labels) == 55
    suite("brackets").assert_passed(labels)


def test_kernel_exceptional_cases():
    with pytest.raises(br.KernelSingularityError) as err:
        br.fourier_kernel(0, 0)
    assert err.value.kind == "delta"
    with pytest.raises(br.KernelSingularityError) as err:
        br.fourier_kernel(3, 0)
    assert err.value.kind == "log"


def test_kernel_3d_values():
    assert abs(br.fourier_kernel(2, 0).prefactor_float() - 1 / (4 * math.pi)) < 1e-15
    assert abs(br.fourier_kernel(1, 0).prefactor_float() - 1 / (2 * math.pi**2)) < 1e-15


def test_rank2_trace_consistency(suite):
    alphas = (Q(5, 2), Q(7, 2), Q(9, 2), Q(4), Q(6))
    labels = ["FT_2 trace%s alpha=%s" % (kind, alpha) for alpha in alphas for kind in (" exact", "")]
    suite("brackets").assert_passed(labels)


def test_tensor_bracket_rows(suite):
    tags = ("(p2.q)(q.p1)/q4", "(p2.q)(q.p1)/q3", "p2.p1/q2", "p2.p1/q", "(p22p12-(p2.p1)2)/q4")
    suite("brackets").assert_passed(_rows(tags) + ["kernel table covers every catalog bracket"])


def test_divergent_delegation():
    v = br.bracket("(p22-p12)2/q2", cb.QuantumState(1, 0))
    assert isinstance(v, dr.DivergentValue)
    assert v.pole() == S(-2)
    assert (v.mr_pow, v.za_pow) == (2, 2)
    v = br.bracket("p22p12/q2", cb.QuantumState(3, 1))
    assert not isinstance(v, dr.DivergentValue)
    red = br.bracket("(p22p12-(p2.p1)2)/q2", cb.QuantumState(2, 0))
    assert isinstance(red, br.BracketReduction)
    assert red.coefficient == Q(-1, 4)
    assert red.finite_extra.sym == S(Q(-1, 2 * 2**5))


def test_vq_eps_series():
    s = br.bracket("V(q)", cb.QuantumState(1, 0))
    assert s.coeff(0) == S(-1)
    from coulombev.exactnum import lam

    assert s.coeff(1) == -1 * SymExpr({lam("mu"): Q(4), ONE: Q(4)})


def test_lnq_closed_forms():
    v = br.bracket_lnq(cb.QuantumState(1, 0))
    assert v.sym == SymExpr({LNQN: Q(1), ONE: Q(1)})
    v = br.bracket_lnq(cb.QuantumState(3, 0))
    assert v.sym == SymExpr({LNQN: Q(1, 27), ONE: Q(1, 27) * (H(3) + Q(1, 3))})
    v = br.bracket_lnq(cb.QuantumState(3, 1))
    assert v.sym == S(Q(-1, 4) * Q(1, 2 * Q(3, 2) * 27))


@pytest.mark.parametrize("n", range(1, 11))
def test_lnq_oracle(suite, n):
    suite("brackets").assert_passed(["lnq oracle n=%d" % n])


@pytest.mark.parametrize("n, value", [(1, 0.5389454863364408), (2, 0.06963028760270386)])
def test_lnq_oracle_pinned(n, value):
    # the oracle's rule and the order of its floating-point operations are fixed
    assert abs(br.bracket_lnq_oracle(n) / value - 1) <= 1e-15


def test_lnq_oracle_cap():
    with pytest.raises(DomainError, match="n <= 10"):
        br.bracket_lnq_oracle(11)


def test_unknown_bracket():
    with pytest.raises(br.BracketCatalogError):
        br.bracket("q^-7", cb.QuantumState(1, 0))
