import math
import re
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from coulombev import coulomb as cb
from coulombev import dimreg, lagint, shoot
from coulombev.exactnum import DivergenceError, DomainError, SymExpr, lam

STATES = [cb.QuantumState(n, l) for n in range(1, 11) for l in range(n)]
LOW_STATES = [st for st in STATES if st.n <= 8]


def test_state_validation():
    with pytest.raises(DomainError):
        cb.QuantumState(0, 0)
    with pytest.raises(DomainError):
        cb.QuantumState(2, 2)
    assert cb.QuantumState(4, 2).nr == 1


@pytest.mark.parametrize(
    "n,l", [(3, 1.0), (3.0, 1), (1.5, 0), (float("inf"), 1), (2, float("nan")), ("2", 1), (2, "1"), (Q(2), 1)]
)
def test_state_refuses_non_integer_quantum_numbers(n, l):
    # a float l once reached the closed forms and rounded them: <1/r2> at (3, 1.0) was not 2/81
    with pytest.raises(DomainError, match="quantum numbers must be integers") as err:
        cb.QuantumState(n, l)
    assert "\n" not in str(err.value)


def test_wavefunction_spec_examples():
    # R_nl / sqrt(norm2) as the integer table (den, ((power of rho, c), ...)) of rho^l L_{n-l-1}^{2l+1}
    assert lagint._radial_chain(1, 0, 0) == (1, ((0, 1),))
    assert lagint._norm2(1, 0) == Q(4)
    assert lagint._radial_chain(2, 0, 0) == (1, ((0, 2), (1, -1)))
    assert lagint._radial_chain(3, 1, 0) == (1, ((1, 4), (2, -1)))


def test_normalization_exact(suite):
    suite("coulomb").assert_passed(["normalization (%d,%d)" % (st.n, st.l) for st in STATES])


@pytest.mark.parametrize("tag", sorted(cb.CATALOG))
def test_catalog_closed_equals_oracle(suite, tag):
    # suite_coulomb compares whole values: sym and the m_r, Z alpha and pi powers
    states = [st for st in STATES if st.l >= cb.CATALOG[tag].min_l]
    assert states
    suite("coulomb").assert_passed(["catalog %s (%d,%d)" % (tag, st.n, st.l) for st in states])


HIGH_N_STATES = [cb.QuantumState(n, l) for n in (15, 20, 30) for l in sorted({0, 1, 2, n // 2, n - 1})]


def test_catalog_closed_equals_oracle_high_n():
    """Every tag at n = 15, 20, 30, symbol and units; the log tags also with kappa = mu."""
    pairs = 0
    for tag in sorted(cb.CATALOG):
        entry = cb.CATALOG[tag]
        kappas = ("kappa", "mu") if entry.logpow else ("kappa",)
        for st in HIGH_N_STATES:
            if st.l < entry.min_l:
                continue
            for kappa in kappas:
                c = cb.expectation_closed(tag, st, kappa)
                assert c == cb.expectation_oracle(tag, st, kappa), (tag, kappa, st.n, st.l)
            if entry.logpow:  # c is the kappa = mu value
                assert lam("mu") in c.sym.terms and lam("kappa") not in c.sym.terms
            pairs += 1
    assert pairs == 990


def test_log_rows_closed_equals_oracle_at_n100():
    """The six ln rows at n = 100 against their Stirling-number oracle, both kappa labels."""
    checks = 0
    for tag in sorted(t for t, entry in cb.CATALOG.items() if entry.logpow):
        for l in (0, 3, 50, 99):
            st = cb.QuantumState(100, l)
            if st.l < cb.CATALOG[tag].min_l:
                continue
            for kappa in ("kappa", "mu"):
                assert cb.expectation_closed(tag, st, kappa) == cb.expectation_oracle(tag, st, kappa), (tag, kappa, l)
                checks += 1
    assert checks == 46


@pytest.mark.parametrize("logpow", [-1, 3])
def test_bilinear_sum_refuses_log_power(logpow, monkeypatch):
    def convolve_into(*args):
        raise AssertionError("convolved before the log power was checked")

    monkeypatch.setattr(lagint, "convolve_into", convolve_into)
    with pytest.raises(DomainError):
        lagint.bilinear_sum(cb.QuantumState(2, 1), ((1, cb.R, cb.R, 0),), logpow=logpow)


# the integer path of the oracle: random states, operands, Fraction coefficients and r^sigma
OPERANDS = (cb.R, cb.DR, cb.DDR, cb.P2R, cb.R_R, cb.DR_R, cb.scaled(cb.DR, Q(-3, 7), ang=1, k=1))
STATE = st.integers(1, 10).flatmap(lambda n: st.builds(cb.QuantumState, st.just(n), st.integers(0, n - 1)))
COEF = st.fractions(min_value=-50, max_value=50, max_denominator=60)
PIECES = st.lists(
    st.tuples(COEF, st.sampled_from(OPERANDS), st.sampled_from(OPERANDS), st.integers(-2, 3)), min_size=1, max_size=3
)


def _units(fn, state, pieces, message):
    """fn of each piece with coefficient 1; a divergent piece must say so in `message` and is skipped."""
    try:
        return [fn(state, ((1, left, right, sigma),)) for _, left, right, sigma in pieces]
    except DivergenceError as exc:
        assert re.fullmatch(message, str(exc)), str(exc)
        assume(False)


@given(STATE, PIECES, st.integers(-1, 3))
@settings(max_examples=150, deadline=None)
def test_bilinear_sum_is_linear_in_each_coefficient(state, pieces, logpow):
    if logpow not in (0, 1, 2):
        with pytest.raises(DomainError, match=r"^log power must be 0, 1 or 2, got %d$" % logpow):
            lagint.bilinear_sum(state, pieces, logpow)
        return
    units = _units(
        lambda s, p: lagint.bilinear_sum(s, p, logpow), state, pieces,
        r"moment diverges: surviving x\^-\d+ monomial at the origin",
    )
    want = sum((c * u for (c, _, _, _), u in zip(pieces, units)), SymExpr())
    assert lagint.bilinear_sum(state, pieces, logpow) == want


@given(STATE, PIECES)
@settings(max_examples=150, deadline=None)
def test_contact_is_linear_in_each_coefficient(state, pieces):
    units = _units(lagint.contact, state, pieces, r"contact value divergent \(r\^-\d+\)")
    want = sum((c * u for (c, _, _, _), u in zip(pieces, units)), SymExpr())
    assert lagint.contact(state, pieces) == want


def test_reference_values():
    assert cb.expectation_closed("1/r", cb.QuantumState(3, 1)).sym.rational == Q(1, 9)
    # 4/((l+1/2) n^3) - 3/n^4 at (2,1): 1/3 - 3/16 = 7/48
    assert cb.expectation_closed("p4", cb.QuantumState(2, 1)).sym.rational == Q(7, 48)
    assert cb.expectation_closed("r", cb.QuantumState(2, 1)).sym.rational == Q(5)
    assert cb.expectation_oracle("r2", cb.QuantumState(1, 0)).sym.rational == 3
    assert cb.expectation_oracle("dr", cb.QuantumState(1, 0)).sym.rational == -1


def test_log_entry_kappa_resolution():
    v = cb.expectation_closed("ln/r", cb.QuantumState(1, 0), kappa="mu")
    assert v.sym == SymExpr({lam("mu"): Q(1), ("one",): Q(1), ("gamma_e",): Q(-1)})


def test_guard_points_to_dimreg():
    with pytest.raises(cb.RequiresDimregError):
        cb.expectation_closed("1/r3", cb.QuantumState(2, 0))
    with pytest.raises(cb.CatalogError):
        cb.expectation_closed("nonsense", cb.QuantumState(1, 0))


def test_virial(suite):
    labels = ["virial %s (%d,%d)" % (op, st.n, st.l) for st in STATES for op in ("p2", "V")]
    suite("coulomb").assert_passed(labels)


def test_p4_schroedinger_reduction(suite):
    suite("coulomb").assert_passed(["p4 reduction (%d,%d)" % (st.n, st.l) for st in STATES])


def test_rs_dr_relation(suite):
    labels = ["r^s dr (%d,%d,%d)" % (st.n, st.l, s) for st in LOW_STATES for s in (1, 2, 3)]
    suite("coulomb").assert_passed(labels)


def test_contact_value(suite):
    # <delta3> = norm2 L(0)^2 / 4 pi = 1/(pi n^3) at l = 0, closed form against the oracle's r -> 0 limit
    suite("coulomb").assert_passed(["catalog delta3 (%d,0)" % n for n in range(1, 11)])


def test_power_moment_against_laguerre_moment():
    # <r^s> = norm2 (n/2)^{3+s} int rho^{2l+2+s} e^{-rho} L^2, not through the operand tables
    for n in range(1, 9):
        for l in range(n):
            st = cb.QuantumState(n, l)
            L = (n - l - 1, 2 * l + 1)
            for s in range(-2 * l - 2, 6):
                moment = lagint.brute_force_moment(lagint.MomentSpec(Q(2 * l + 2 + s), 0, L + (0,), L)).rational
                assert cb.power_moment(st, s) == lagint._norm2(n, l) * Q(n, 2) ** (3 + s) * moment, (n, l, s)


def test_power_moment_reads_an_integral_power_as_its_integer():
    # as for lagint.integral_I; a float s once reached `1 << sigma` and raised a bare TypeError
    st = cb.QuantumState(2, 1)
    for s in (2.0, Q(2), Q(4, 2)):
        assert cb.power_moment(st, s) == cb.power_moment(st, 2) == 30, s
        assert type(cb.recursion_residual(s, st)) is Q and not cb.recursion_residual(s, st), s
    for s in (1.5, Q(1, 2), float("nan"), float("inf"), "2"):
        with pytest.raises(DomainError, match="power s must be an integer"):
            cb.power_moment(st, s)


def test_recursion_and_feynman_hellmann(suite):
    labels = ["recursion s=%d (%d,%d)" % (s, st.n, st.l) for st in LOW_STATES for s in range(0, 5)]
    labels += ["FH (%d,%d)" % (st.n, st.l) for st in LOW_STATES]
    suite("dimreg-symbolic").assert_passed(labels)


def test_p6_naive_divergence():
    for n in (1, 2, 3):
        with pytest.raises(DivergenceError):
            cb.p6_naive_oracle(cb.QuantumState(n, 0))
    for (n, l) in [(2, 1), (3, 2), (5, 3)]:
        st = cb.QuantumState(n, l)
        assert cb.p6_naive_oracle(st).sym == cb.expectation_closed("p6", st).sym


def test_momentum_normalization(suite):
    suite("coulomb").assert_passed(["momentum norm (%d,%d)" % (n, l) for n in range(1, 11) for l in range(n)])


def test_cx1_l_positive_branch():
    # (2,1) with c1 = c2 = 5/128 and equal masses m1 = m2 = 2 m_r
    coef, val = dimreg.cx1_energy_shift(cb.QuantumState(2, 1), Q(5, 128), Q(5, 128), 2, 2)
    assert coef == Q(-5, 256)
    assert val.sym.rational == Q(-5, 256) * Q(1, 24)
    assert (val.mr_pow, val.za_pow) == (1, 6)


def test_cx1_l0_branch_pole():
    coef, val = dimreg.cx1_energy_shift(cb.QuantumState(1, 0), Q(5, 128), Q(5, 128), 2, 2)
    # pole: coef * (-2/eps) relative to pi phibar^2 mubar^2eps prefactor
    assert val.pole() == SymExpr.scalar(coef * -2)
    assert dimreg.cx1_energy_shift(cb.QuantumState(1, 0), 0, 0, 2, 2)[1].series.is_zero()


def test_value_unit_arithmetic():
    a = cb.Value(SymExpr.scalar(1), 1, 2, 0)
    b = cb.Value(SymExpr.scalar(2), 1, 2, 0)
    assert (a + b).sym.rational == 3
    with pytest.raises(DomainError):
        a + cb.Value(SymExpr.scalar(1), 2, 2, 0)


def test_momentum_wavefunction_structure():
    R = shoot.momentum_radial(cb.QuantumState(3, 1))
    assert isinstance(R, shoot.MomentumRadialWF)
    assert R.state == cb.QuantumState(3, 1)
    assert R.coeffs == (4.0, 0.0)  # C_{n-l-1}^{l+1} = C_1^2(beta) = 4 beta, highest degree first
    assert abs(R(0.4) / 22.00905236788859 - 1) <= 1e-14
    for p in (1e60, 1e160):  # evaluated in p n, so large p underflows instead of overflowing
        assert math.isfinite(R(p)) and abs(R(p)) <= 1e-100
