import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import coulombev
from coulombev import cli
from coulombev import shoot


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval_pretty(capsys):
    code, out = run(capsys, "eval", "--n", "3", "--l", "1", "--op", "1/r")
    assert code == 0
    assert "1/9" in out
    assert "m_r Zalpha" in out


def test_eval_json_roundtrip(capsys):
    code, out = run(capsys, "eval", "--n", "2", "--l", "0", "--bracket", "1/q2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic"] == {"1": "1/16"}
    # byte-identical round trip through the same serializer
    assert cli._json_dump(json.loads(out)) == out.strip()


def test_eval_numeric_units(capsys):
    code, out = run(
        capsys, "eval", "--n", "1", "--l", "0", "--op", "delta3",
        "--mr", "2.0", "--zalpha", "0.5", "--format", "json",
    )
    payload = json.loads(out)
    assert abs(payload["numeric"] - (2.0 * 0.5) ** 3 / 3.141592653589793) < 1e-12


def test_eval_divergent_tag(capsys):
    code, out = run(capsys, "eval", "--n", "1", "--l", "0", "--op", "V3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic"]["lowest_order"] == -1


def test_eval_unknown_tag(capsys):
    # the catalog errors are KeyErrors, whose str() would wrap the message in quotes
    for flag, kind in (("--op", "operator"), ("--bracket", "bracket")):
        assert cli.main(["eval", "--n", "1", "--l", "0", flag, "junk"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown %s 'junk'; " % kind) and not lines[0].endswith("'")
        if kind == "operator":  # --op takes the divergent tags too, so no list of finite tags alone
            assert lines[0].endswith("see `coulombev tags`")


@pytest.mark.parametrize("argv", [["--op", "1/r", "--bracket", "1/q"], []], ids=["both", "neither"])
def test_eval_needs_one_of_op_and_bracket(capsys, argv):
    code = cli.main(["eval", "--n", "2", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: eval needs exactly one of --op and --bracket"]


def test_eval_below_min_l(capsys):
    # a finite catalog tag below its min_l names the l it needs
    code = cli.main(["eval", "--n", "3", "--l", "1", "--op", "1/r5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: <1/r5> requires l >= 2 (l = 1 is divergent in 3D; see dimreg.divergent_expectation)"
    ]


EULER_GAMMA = 0.5772156649015329


@pytest.mark.parametrize(
    "argv,expect",
    [
        # Lambda_kappa resolves to a float under the unit flags
        (
            ["--n", "2", "--l", "1", "--op", "ln", "--kappa", "3", "--mr", "2", "--zalpha", "0.5"],
            {
                "symbolic": {"1": "25/12", "Lambda[kappa]": "1", "gamma_E": "-1"},
                "numeric": 25 / 12 + math.log(3) - EULER_GAMMA,
                "units": "1",
            },
        ),
        (
            ["--n", "1", "--bracket", "V(q)"],
            {
                "symbolic": {"coeffs": [{"1": "-1"}, {"1": "-4", "Lambda[mu]": "-4"}], "lowest_order": 0, "truncation": 1},
                "dimension": None,
                "units": "eps series",
            },
        ),
        (
            ["--n", "2", "--l", "1", "--bracket", "(p22p12-(p2.p1)2)/q2"],
            {
                "symbolic": {
                    "coefficient": "-1/4",
                    "finite_extra": {"1": "1/64"},
                    "formula": "(m_r Za)^5/pi * [ -<(V')^2>/(4 m^4 Za^6 mubar^2eps) + finite_extra ]",
                },
                "dimension": 5,
                "units": "(m_r Zalpha)^5/pi",
            },
        ),
    ],
    ids=["lambda-kappa", "eps-series", "bracket-reduction"],
)
def test_eval_json_payload_kinds(capsys, argv, expect):
    code, out = run(capsys, "eval", *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for key, value in expect.items():
        if key == "numeric":
            assert abs(payload[key] - value) < 1e-12
        else:
            assert payload[key] == value, key


def test_eval_pretty_resolves_lnqn(capsys):
    code, out = run(capsys, "eval", "--n", "2", "--bracket", "lnq", "--mr", "2", "--zalpha", "0.25")
    assert code == 0
    value, numeric, units = out.splitlines()
    assert value == "value: {'1': '7/32', 'ln(2*mr*Za/n)': '1/8'}"
    # ln(2 m_r Zalpha/n) = ln(1/2), times (m_r Zalpha)^3/pi
    expect = (7 / 32 + math.log(0.5) / 8) * 0.5**3 / math.pi
    assert numeric.startswith("numeric: ") and abs(float(numeric.split()[1]) / expect - 1) < 1e-11
    assert units == "units: m_r^3 (Zalpha)^3 pi^-1"


def test_table_csv(capsys):
    code, out = run(capsys, "table", "--ops", "1/r,p2", "--n-range", "1:3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,l,1/r,p2"
    assert len(lines) == 1 + 6  # states with n <= 3


def test_table_json(capsys):
    code, out = run(capsys, "table", "--ops", "1/r,p2", "--n-range", "1:2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "table",
        "rows": [
            {"n": 1, "l": 0, "1/r": "1", "p2": "1"},
            {"n": 2, "l": 0, "1/r": "1/4", "p2": "1/4"},
            {"n": 2, "l": 1, "1/r": "1/4", "p2": "1/4"},
        ],
    }


@pytest.mark.parametrize("n_range", ["5:x", "5:1", "0:2", "5", "1:2:3"])
def test_table_bad_n_range(capsys, n_range):
    code = cli.main(["table", "--ops", "1/r", "--n-range", n_range])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_dimreg_nan_eps(capsys):
    code = cli.main(["dimreg", "--n", "1", "--eps", "nan"])
    assert code == 1
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("mu", ["0", "-1", "nan", "inf", "-inf"])
def test_dimreg_bad_mu(capsys, mu):
    code = cli.main(["dimreg", "--n", "1", "--eps", "0.01", "--mu", mu])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_table_unknown_tag(capsys):
    code = cli.main(["table", "--ops", "1/r,bogus", "--n-range", "1:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "bogus" in captured.err


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "junk"]) == 1


def test_dimreg_command(capsys):
    code, out = run(capsys, "dimreg", "--n", "1", "--l", "0", "--eps", "0.001", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["nbar"] - 1.0) < 0.01
    assert abs(payload["difference"]) < 1e-4  # O(eps^2)


def test_dimreg_pretty(capsys):
    code, out = run(capsys, "dimreg", "--n", "1", "--eps", "0.001")
    assert code == 0
    lines = out.splitlines()
    names = ["nbar", "gammabar", "Ebar (shooting)", "Ebar (expansion)", "difference"]
    assert [line.split("=")[0].strip() for line in lines] == names
    values = [float(line.split("=")[1].split()[0]) for line in lines]
    assert abs(values[0] - 1) < 0.01 and abs(values[2] + 0.5) < 0.01
    assert abs(values[2] - values[3] - values[4]) < 1e-9 and lines[4].endswith("(O(eps^2))")


def test_dimreg_negative_eps_in_exponent_notation(capsys):
    # argparse alone reads -1e-3 as an option, not as the value of --eps
    code, out = run(capsys, "dimreg", "--n", "1", "--eps", "-1e-3")
    assert code == 0
    assert out == run(capsys, "dimreg", "--n", "1", "--eps", "-0.001")[1]


def test_dimreg_shooting_failure(capsys, monkeypatch):
    monkeypatch.setattr(shoot, "_count_nodes", lambda sol, l, rho0, rho_hi: 3)
    code = cli.main(["dimreg", "--n", "1", "--eps", "0.01"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert "nodes 3, expected 0" in lines[0]


def test_dimreg_n_outside_validated_range(capsys):
    code = cli.main(["dimreg", "--n", "21", "--eps", "0.01"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: n = 21 outside the validated shooting range n <= 20"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "1", "--op", "V3", "--mr", "2"],
        ["--n", "2", "--bracket", "(p22p12-(p2.p1)2)/q2", "--mr", "2"],
    ],
)
def test_eval_unit_flags_need_finite_value(capsys, argv):
    code = cli.main(["eval"] + argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_eval_unit_flags_finite_divergent_tag(capsys):
    code, out = run(capsys, "eval", "--n", "2", "--l", "1", "--op", "V3", "--mr", "2")
    assert code == 0
    assert "numeric" in out


@pytest.mark.parametrize(
    "flag", [("--mr", "-1"), ("--kappa", "-2"), ("--mr", "0"), ("--mr", "nan"), ("--mr", "-1e-3")]
)
def test_eval_bad_phys_scale(capsys, flag):
    code = cli.main(["eval", "--n", "1", "--op", "1/r", "--format", "json", *flag])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--op", "p4", "--mr", "1e300"],
        ["--op", "p4", "--zalpha", "1e100"],
        ["--op", "r4", "--mr", "1e-100"],
        ["--op", "1/r", "--mr", "1e200", "--zalpha", "1e200"],
        ["--op", "ln", "--kappa", "1e308", "--mr", "1e-308"],
        ["--op", "p4", "--mr", "1e-100"],  # 5e-400 underflows
        ["--op", "p4", "--mr", "3e-81"],  # 4.05e-322 is subnormal
        ["--bracket", "lnq", "--mr", "1e-200", "--zalpha", "1e-200"],
    ],
)
def test_eval_phys_scale_out_of_float_range(capsys, argv):
    code = cli.main(["eval", "--n", "1", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,expect",
    [
        (["--op", "1/r", "--mu", "1e-300", "--mr", "1e100"], 1e100),
        (["--op", "1", "--mr", "1e-200", "--zalpha", "1e-200"], 1.0),
    ],
)
def test_eval_phys_scale_resolves_only_held_logs(capsys, argv, expect):
    # neither value holds Lambda_mu or ln(2 m_r Zalpha/n), whose floats overflow here
    code, out = run(capsys, "eval", "--n", "1", "--format", "json", *argv)
    assert code == 0
    assert json.loads(out)["numeric"] == expect


@pytest.mark.parametrize("flag", ["--c1", "--c2", "--m1", "--m2"])
def test_demo_cx1_bad_fraction(capsys, flag):
    code = cli.main(["demo-cx1", flag, "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_demo_cx1(capsys):
    code, out = run(capsys, "demo-cx1", "--n", "2", "--l", "1")
    assert code == 0
    assert "-5/256" in out and "-5/6144" in out
    code, out = run(capsys, "demo-cx1", "--n", "1", "--l", "0")
    assert code == 0
    assert "Laurent" in out


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "laguerre")
    assert code == 0
    assert "pass" in out


def test_tags(capsys):
    code, out = run(capsys, "tags")
    assert code == 0
    assert "1/r" in out and "V3" in out and "lnq" in out


IMPORT_PROBE = """
import contextlib, io, json, sys
import coulombev, coulombev.cli
numeric = ("mpmath", "numpy", "scipy")
loaded = lambda: sorted(m for m in numeric if m in sys.modules)
out = {"import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [coulombev.cli.main(argv) for argv in (
        ["tags"],
        ["eval", "--n", "2", "--l", "1", "--op", "1/r", "--mr", "2"],
        ["eval", "--n", "1", "--op", "V3"],
        ["eval", "--n", "2", "--bracket", "1/q2"],
        ["eval", "--n", "1", "--bracket", "lnq"],
        ["table", "--ops", "1/r,p2,V3", "--n-range", "1:2"],
        ["demo-cx1"],
    )]
out["codes"], out["exact"] = codes, loaded()
from coulombev import brackets as br, dimreg as dr
from coulombev.coulomb import QuantumState
names = ["eigenvalue_shoot", "v3_brace_numeric", "vp2_brace_numeric", "energy_series_numeric", "ShootingError"]
out["resolved"] = [getattr(dr, name).__module__ for name in names]
for fn in (coulombev.eigenvalue_shoot, coulombev.bracket_lnq_oracle, br.bracket_lnq_oracle):
    out["resolved"].append(fn.__module__)
out["brace"] = dr.v3_brace_numeric(dr.eigenvalue_shoot(QuantumState(1, 0), 0.01))
out["lnq"] = br.bracket_lnq_oracle(1)
out["numeric"] = loaded()
print(json.dumps(out))
"""


ENV = dict(os.environ, PYTHONPATH=str(Path(coulombev.__file__).resolve().parents[1]))


def test_exact_commands_load_no_numeric_layer():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=ENV, check=True)
    out = json.loads(proc.stdout)
    assert out["import"] == [] and out["exact"] == []
    assert out["codes"] == [0] * 7
    assert out["resolved"] == ["coulombev.shoot"] * 8
    assert math.isfinite(out["brace"]) and math.isfinite(out["lnq"])
    assert out["numeric"] == ["numpy"]


def test_unknown_attribute():
    from coulombev import brackets, dimreg

    # shoot's private helpers are not forwarded, so patching them on dimreg fails loudly
    pairs = [(coulombev, "no_such_name"), (dimreg, "no_such_name"), (brackets, "no_such_name"), (dimreg, "_integrate")]
    for module, name in pairs:
        with pytest.raises(AttributeError):
            getattr(module, name)


LAYER_PROBE = """
import contextlib, io, json, sys
import coulombev.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = coulombev.cli.main(sys.argv[1:])
machinery = [m for m in ("dataclasses", "inspect") if m in sys.modules]
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("coulombev.") or m == "numpy"), machinery]))
"""
# what every exact command loads: the CLI and the 3D catalog with the layers under it
EXACT_CORE = ["cli", "coulomb", "exactnum", "lagint"]


@pytest.mark.parametrize(
    "argv,layers,code",
    [
        (["eval", "--n", "2", "--l", "1", "--op", "1/r", "--mr", "2"], [], 0),
        (["table", "--ops", "1/r,p2", "--n-range", "1:2"], [], 0),
        (["eval", "--n", "2", "--bracket", "1/q2"], ["brackets"], 0),
        (["eval", "--n", "1", "--bracket", "lnq"], ["brackets"], 0),
        (["eval", "--n", "1", "--bracket", "nosuch"], ["brackets"], 1),
        (["eval", "--n", "1", "--bracket", "(p22-p12)2/q2"], ["brackets", "dimreg"], 0),
        (["eval", "--n", "1", "--op", "V3"], ["dimreg"], 0),
        (["eval", "--n", "1", "--op", "nosuch"], ["dimreg"], 1),
        (["table", "--ops", "1/r,V3", "--n-range", "1:2"], ["dimreg"], 0),
        (["demo-cx1"], ["dimreg"], 0),
        (["tags"], ["brackets", "dimreg", "suites"], 0),
    ],
    ids=[
        "eval-finite", "table-finite", "bracket-catalog", "bracket-lnq", "bracket-unknown", "bracket-dimreg",
        "eval-divergent", "eval-unknown", "table-divergent", "demo-cx1", "tags",
    ],
)
def test_command_loads_only_its_layers(argv, layers, code):
    # a fresh process per command, so that no other command has loaded a layer
    proc = subprocess.run(
        [sys.executable, "-c", LAYER_PROBE, *argv], capture_output=True, text=True, env=ENV, check=True
    )
    code_seen, modules, machinery = json.loads(proc.stdout)
    assert [code_seen, modules] == [code, sorted("coulombev." + m for m in EXACT_CORE + layers)]
    assert machinery == []  # the value classes are plain __slots__ classes, not dataclasses
    errors = proc.stderr.splitlines()
    assert len(errors) == code and all(line.startswith("error: unknown ") for line in errors)


@pytest.mark.parametrize("flag", ["--op ln", "--bracket lnq", "--l 3 --op V3"])
def test_large_n_query(flag):
    # H_n and n! at n = 1000 once recursed once per term, past the interpreter's limit,
    # and V3 at l > 0 once convolved O(n^2) big integers instead of reading closed forms
    argv = ["eval", "--n", "1000", *flag.split(), "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "coulombev.cli", *argv], capture_output=True, text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    if flag == "--bracket lnq":
        # (1/n^3){ln(2 m_r Za/n) + H_n + (n-1)/2n}
        h = sum(Fraction(1, k) for k in range(1, 1001))
        assert json.loads(proc.stdout)["symbolic"]["1"] == str((h + Fraction(999, 2000)) / 10**9)


def test_import_loads_no_layer():
    probe = "import json, sys, coulombev; print(json.dumps([m for m in sys.modules if m.startswith('coulombev.')]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV, check=True)
    assert json.loads(proc.stdout) == []


def test_lazy_names():
    namespace = {}
    exec("from coulombev import *", namespace)
    for name in coulombev.__all__:
        obj = getattr(coulombev, name)
        assert namespace[name] is obj
        assert getattr(sys.modules[obj.__module__], name) is obj
    assert set(coulombev.__all__) <= set(dir(coulombev))
