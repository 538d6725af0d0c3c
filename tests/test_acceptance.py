"""Acceptance criteria, one row per `coulombev verify` suite.

Each suite is the only home of its checks: a criterion runs its suite once
(the session shares the run), asserts that every check passed and enforces
the criterion's wall-clock budget.  Each criterion prints a single
`criterion N: pass` line (visible with pytest -s / in the captured output on
failure).
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from coulombev import coulomb as cb
from coulombev import dimreg as dr
from coulombev.exactnum import SymExpr
from coulombev.suites import SUITES

S = SymExpr.scalar

# suite -> (criteria, wall-clock budget in s or None, least number of checks)
TABLE = {
    "coulomb": ((1,), 60, 1),  # finite 3D catalog against the exact oracle, n <= 10
    "lagint": ((2,), 30, 1),  # I/J/K/L/M tables and the randomized brute-force sweeps
    "dimreg-symbolic": ((3, 6), None, 1),  # Laurent tables, l > 0 closed forms, identity network
    "dimreg-pole": ((4,), 120, 26),  # fitted 1/eps coefficients within 1%, 13 tags x n = 1, 2
    "dimreg-numeric": ((5,), 60, 1),  # shooting: nbar(0) = n and the O(eps^2) energy order
    "brackets": ((7,), 30, 1),  # momentum brackets and <ln q> against quadrature to 1e-12, n <= 10
    "exactnum": ((8,), 10, 8001),  # diharmonic recursions, reflections and closed forms
    "laguerre": ((), None, 1),  # Laguerre and Gegenbauer identities
}


def _report(num, label, elapsed, budget):
    print("criterion %d: pass (%s, %.1fs < %ds)" % (num, label, elapsed, budget))


def _check_row(suite, name):
    _, budget, least = TABLE[name]
    run = suite(name)
    assert run.result.ok, run.result.failures
    assert run.result.passed >= least
    if budget is not None:
        assert run.elapsed < budget
    return run


def _criterion(suite, num):
    (name,) = [name for name, row in TABLE.items() if num in row[0]]
    run = _check_row(suite, name)
    _report(num, "suite %s, %d checks" % (name, run.result.passed), run.elapsed, TABLE[name][1] or 9999)


def test_table_names_every_suite_once():
    assert sorted(TABLE) == sorted(SUITES)
    criteria = sorted(num for row in TABLE.values() for num in row[0])
    assert criteria == list(range(1, 9))


def test_criterion_1_catalog_exactness(suite):
    """Every finite 3D entry equals the exact-integration oracle, n <= 10."""
    _criterion(suite, 1)


def test_criterion_2_integral_tables(suite):
    """I/J/K/L/M tables, orthogonality for n <= 12 and the randomized brute checks."""
    _criterion(suite, 2)


def test_criterion_3_divergent_tables(suite):
    """Laurent data and l > 0 closed forms of the divergent block, n <= 10."""
    _criterion(suite, 3)


def test_criterion_4_numeric_pole_cross_check(suite):
    """Fitted 1/eps coefficients of every l = 0 tag with a nonzero pole within 1%, n = 1, 2."""
    _criterion(suite, 4)


def test_criterion_5_eigenvalue_order_of_accuracy(suite):
    """|Ebar_shoot - Ebar_series|/|E_n| drops by >= 3.6 under eps halving."""
    _criterion(suite, 5)


def test_criterion_6_identity_network(suite):
    """Recursion, Feynman-Hellmann and D-dimensional relations vanish, n <= 8."""
    _criterion(suite, 6)


def test_criterion_7_lnq(suite):
    """The <ln q> closed form matches momentum quadrature to 1e-12, n = 1..10."""
    _criterion(suite, 7)


def test_criterion_8_diharmonic_suite(suite):
    """Diharmonic recursions, reflections and closed forms, exact."""
    _criterion(suite, 8)


@pytest.mark.parametrize("name", [name for name, row in TABLE.items() if not row[0]])
def test_suite_without_criterion(suite, name):
    _check_row(suite, name)


def test_criterion_9_cx1_demo():
    """demo-cx1 equals -4 m_r (c1/m1^4 + c2/m2^4) <(V')^2>, both branches."""
    t0 = time.time()
    c1 = c2 = Q(5, 128)
    # l > 0 branch at (2,1), equal masses m1 = m2 = 2 m_r
    coef, val = dr.cx1_energy_shift(cb.QuantumState(2, 1), c1, c2, 2, 2)
    assert coef == -4 * (c1 * Q(1, 16) + c2 * Q(1, 16))
    vp2 = dr.divergent_expectation("(V')2", 2, 1)
    assert val.sym == vp2.sym * coef
    assert (val.mr_pow, val.za_pow) == (vp2.mr_pow - 3, vp2.za_pow)
    # l = 0 branch: Laurent series proportional to the (V')^2 brace
    coef0, val0 = dr.cx1_energy_shift(cb.QuantumState(1, 0), c1, c2, 2, 2)
    brace = dr.divergent_expectation("(V')2", 1, 0)
    assert val0.series == brace.series * coef0
    assert val0.pole() == S(coef0 * -2)
    elapsed = time.time() - t0
    _report(9, "exact symbolic match, both branches", elapsed, 9999)


def _benchmark_pass(workload: str) -> dict:
    """The JSON result of one perfbench pass of the workload at seed 1."""
    worker = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    proc = subprocess.run(
        [sys.executable, str(worker), "--workload", workload, "--seed", "1"],
        capture_output=True, text=True, check=True, timeout=300, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_exact_sweep_pass():
    """One exact-sweep pass of perfbench (seed 1) fails no operation: every closed form
    equals its oracle, and the catalog, divergent and identity digests equal the
    ones recorded in perfbench/expected.json."""
    out = _benchmark_pass("exact-sweep")
    assert sorted(out["core_digests"]) == ["catalog", "divergent", "identity"]
    assert out["attempted"] > 4000
    assert out["failed"] == 0, out["failures"]


def test_benchmark_numeric_oracles_pass():
    """One numeric-oracles pass of perfbench (seed 1) fails no operation, and every
    tolerance check (nbar(0) = n, the energy order, the pole fits and <ln q>) uses
    less than its whole bound."""
    out = _benchmark_pass("numeric-oracles")
    assert out["failed"] == 0, out["failures"]
    assert sorted(out["tol_use"]) == ["energy_order", "lnq", "nbar0", "pole_fit"]
    assert all(use < 1 for use in out["tol_use"].values()), out["tol_use"]
