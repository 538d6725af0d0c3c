"""The value classes of every layer: equality, hashing, repr, immutability and
constructor defaults, pinned to literal values."""

import copy
from fractions import Fraction as Q

import pytest

from coulombev import brackets as br, coulomb as cb, dimreg as dr, lagint, laguerre, shoot, suites
from coulombev.exactnum import EpsSeries, SymExpr

# name: (build one instance, its fields in order, its repr, the TypeError of hash() or None)
RECORDS = {
    "QuantumState": (lambda: cb.QuantumState(2, 1), ("n", "l"), "QuantumState(n=2, l=1)", None),
    "PhysScale": (
        lambda: cb.PhysScale(2.0, 1.0, 0.5, 3.0),
        ("mr", "zalpha", "mu", "kappa"),
        "PhysScale(mr=2.0, zalpha=1.0, mu=0.5, kappa=3.0)",
        None,
    ),
    "Value": (
        lambda: cb.Value(SymExpr.scalar(Q(1, 4)), 1, 2, -1),
        ("sym", "mr_pow", "za_pow", "pi_pow"),
        "(1/4) m_r^1 (Za)^2 pi^-1",
        None,
    ),
    "CatalogEntry": (
        lambda: cb.CatalogEntry("r", 0, -1, -1, abs, ((1, "R", "R", 1),), 1, True),
        ("tag", "min_l", "mr_pow", "za_pow", "closed", "pieces", "logpow", "contact"),
        "CatalogEntry(tag='r', min_l=0, mr_pow=-1, za_pow=-1, closed=<built-in function abs>,"
        " pieces=((1, 'R', 'R', 1),), logpow=1, contact=True)",
        None,
    ),
    "MomentumRadialWF": (
        lambda: cb.MomentumRadialWF(cb.QuantumState(2, 0), laguerre.gegenbauer(1, 1), 2.0),
        ("state", "norm", "coeffs"),
        "MomentumRadialWF(state=QuantumState(n=2, l=0), norm=2.0, coeffs=(2.0, 0.0))",
        None,
    ),
    "MomentSpec": (
        lambda: lagint.MomentSpec(Q(2), 1, (3, 1, 0), (2, 1)),
        ("s", "logpow", "left", "right"),
        "MomentSpec(s=Fraction(2, 1), logpow=1, left=(3, 1, 0), right=(2, 1))",
        None,
    ),
    "CoeffTable": (
        lambda: dr.CoeffTable(0, 0.01, 1, {(0, 0): 1.0}),
        ("l", "eps", "jmax", "a"),
        "CoeffTable(l=0, eps=0.01, jmax=1, a={(0, 0): 1.0})",
        "unhashable type: 'dict'",
    ),
    "DivergentValue": (
        lambda: dr.DivergentValue(EpsSeries.constant(1), 1, 2),
        ("series", "mr_pow", "za_pow"),
        "pi.phibar2.mubar^2eps m_r^1 Za^2 * [(1) + O(eps^1)]",
        "unhashable type: 'EpsSeries'",
    ),
    "FourierKernel": (
        lambda: br.FourierKernel(Q(2), 0, Q(1, 2), Q(1), 0, "1"),
        ("alpha", "rank", "num_c0", "den_arg", "two_pow", "tensor"),
        "FourierKernel(alpha=Fraction(2, 1), rank=0, num_c0=Fraction(1, 2), den_arg=Fraction(1, 1), two_pow=0,"
        " tensor='1')",
        None,
    ),
    "BracketReduction": (
        lambda: br.BracketReduction("f", cb.Value(SymExpr.scalar(1), 5, 5, -1), Q(-1, 4), None),
        ("formula", "finite_extra", "coefficient", "reference"),
        "BracketReduction(formula='f', finite_extra=(1) m_r^5 (Za)^5 pi^-1, coefficient=Fraction(-1, 4),"
        " reference=None)",
        None,
    ),
    "DimRegEigen": (
        lambda: shoot.DimRegEigen(cb.QuantumState(1, 0), 0.01, 1.0, 1.0, 1.0, -0.5, None, 0.1, 30.0, None),
        ("state", "eps", "mu", "nbar", "gammabar", "ebar", "sol", "rho0", "rhomax", "table"),
        "DimRegEigen(state=QuantumState(n=1, l=0), eps=0.01, mu=1.0, nbar=1.0, gammabar=1.0, ebar=-0.5, sol=None,"
        " rho0=0.1, rhomax=30.0, table=None)",
        None,
    ),
    "SuiteResult": (
        lambda: suites.SuiteResult("x", 1, 0, [], [("a", True)]),
        ("name", "passed", "failed", "failures", "record"),
        "SuiteResult(name='x', passed=1, failed=0, failures=[], record=[('a', True)])",
        "unhashable type: 'SuiteResult'",
    ),
}
NAMES = sorted(RECORDS)
FROZEN = [name for name in NAMES if name != "SuiteResult"]


@pytest.mark.parametrize("name", NAMES)
def test_equal_and_hash(name):
    make, fields, _, unhashable = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert type(a).__name__ == name
    assert a != tuple(getattr(a, f) for f in fields)
    c = copy.copy(a)
    assert c is not a and c == a
    for f in fields:  # every field takes part in the comparison
        d = copy.copy(a)
        object.__setattr__(d, f, object())
        assert d != a and a != d
    if unhashable is None:
        assert hash(a) == hash(b) == hash(c)
    else:
        with pytest.raises(TypeError, match=unhashable):
            hash(a)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, _, text, _ = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", FROZEN)
def test_fields_are_frozen(name):
    make, fields, _, _ = RECORDS[name]
    a = make()
    for f in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(a, f)
        getattr(a, f)
    assert a == make()


def test_suite_result_is_mutable():
    r = suites.SuiteResult("x")
    r.check(False, "a")
    r.passed += 2
    assert (r.passed, r.failed, r.failures, r.record, r.ok) == (2, 1, ["a"], [("a", False)], False)
    assert suites.SuiteResult("x").failures == []  # a fresh list per instance


@pytest.mark.parametrize(
    "build,fields",
    [
        (lambda: cb.PhysScale(), {"mr": 1.0, "zalpha": 1.0, "mu": 1.0, "kappa": 1.0}),
        (lambda: cb.Value(SymExpr.scalar(1)), {"mr_pow": 0, "za_pow": 0, "pi_pow": 0}),
        (lambda: cb.CatalogEntry("r", 0, -1, -1, abs, ()), {"logpow": 0, "contact": False}),
        (lambda: lagint.MomentSpec(Q(1), 0, (1, 1, 0)), {"right": None}),
        (lambda: suites.SuiteResult("x"), {"passed": 0, "failed": 0, "failures": [], "record": []}),
    ],
    ids=["PhysScale", "Value", "CatalogEntry", "MomentSpec", "SuiteResult"],
)
def test_constructor_defaults(build, fields):
    a = build()
    assert {f: getattr(a, f) for f in fields} == fields


def test_keyword_construction():
    assert cb.QuantumState(l=1, n=2) == cb.QuantumState(2, 1)
    assert cb.PhysScale(kappa=2.0) == cb.PhysScale(1.0, 1.0, 1.0, 2.0)
    assert cb.Value(sym=SymExpr.scalar(1), pi_pow=-1) == cb.Value(SymExpr.scalar(1), 0, 0, -1)
    assert cb.QuantumState(2, 1) != cb.QuantumState(2, 0)
