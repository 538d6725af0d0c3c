import ast
import re
from pathlib import Path

import pytest

import coulombev

MODULES = sorted(Path(coulombev.__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """Module-level imported names never read as a name, an attribute base or a word of a string."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)  # also the base of every attribute chain
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(re.findall(r"\w+", node.value))
    return [name for name in imported if name not in used]


def test_guard_sees_unused_import():
    source = "from typing import Dict, Optional\nimport math\n\ndef f(x: Dict) -> 'float':\n    return math.pi\n"
    assert unused_imports(source) == ["Optional"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# the value classes are plain __slots__ classes: `dataclasses` loads inspect,
# ast and dis, which no cold CLI query should pay for
BANNED = {"dataclasses"}


def banned_imports(source):
    """Banned modules imported anywhere in the source, also inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] in BANNED]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in BANNED:
            found.append(node.module)
    return found


def test_guard_sees_banned_import():
    source = "import math\nfrom dataclasses import dataclass\n\ndef f():\n    import dataclasses\n    return math.pi\n"
    assert banned_imports(source) == ["dataclasses", "dataclasses"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_banned_import(path):
    assert banned_imports(path.read_text()) == []


def dead_private_defs(sources):
    """Module-level `_name` functions and classes that no other code of the package refers to.

    `sources` maps a module name to its source.  A name counts as referred to
    when it is read as a name or an attribute outside its own definition; a
    word in a string or docstring does not count.
    """
    defs, refs = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defs.append((module, owner))
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != owner:
                    refs.add(name)
    return ["%s.%s" % d for d in defs if d[1] not in refs]


def test_guard_sees_dead_private_def():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _dead(n):\n    '''_dead'''\n    return _dead(n - 1)\n",
        "b": "from . import a\n\ndef f():\n    return a._used()\n\nclass _Gone:\n    pass\n",
    }
    assert dead_private_defs(sources) == ["a._dead", "b._Gone"]


def test_every_private_def_is_used():
    assert dead_private_defs({p.stem: p.read_text() for p in MODULES}) == []


def private_imports(source, module):
    """Names beginning with `_` that the source imports from the sibling `module`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_guard_sees_private_import():
    source = "from .coulomb import R, _norm2\nfrom .exactnum import _finite\n\ndef f():\n    from .coulomb import _p6\n"
    assert private_imports(source, "coulomb") == ["_norm2", "_p6"]


def test_dimreg_imports_no_private_coulomb_name():
    # the l = 0 tail calls `lagint.tail_cross_moment`, not the oracle's internals
    source = (Path(coulombev.__file__).resolve().parent / "dimreg.py").read_text()
    assert private_imports(source, "coulomb") == []


# the integer Laguerre tables and their two helpers: defined and used in `lagint` only
TABLE_FUNCTIONS = {"drho", "convolve_into", "laguerre_table"}


def defined_functions(source):
    """Names of the functions the source defines at any depth."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, functions)}


def referred_names(source):
    """Names the source reads as a name or an attribute, or imports; a word in a string does not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_guard_sees_table_reference():
    source = 'from .lagint import drho as d\nfrom . import lagint\n\ndef f(t):\n    "laguerre_table"\n'
    source += "    return d(t), lagint.convolve_into\n"
    assert referred_names(source) & TABLE_FUNCTIONS == {"drho", "convolve_into"}


def test_table_functions_defined_only_in_lagint():
    homes = {name: [p.stem for p in MODULES if name in defined_functions(p.read_text())] for name in TABLE_FUNCTIONS}
    assert homes == {name: ["lagint"] for name in TABLE_FUNCTIONS}


def test_table_functions_referred_to_only_in_lagint():
    users = {name: [p.stem for p in MODULES if name in referred_names(p.read_text())] for name in TABLE_FUNCTIONS}
    assert users == {name: ["lagint"] for name in TABLE_FUNCTIONS}
