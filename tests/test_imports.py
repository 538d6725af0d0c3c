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
