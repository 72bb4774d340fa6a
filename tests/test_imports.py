"""Every name a library module imports is used in that module.

An AST scan in place of a linter: a name bound by ``import`` or
``from ... import`` must be read somewhere else in the module, or be
listed in ``__all__``. An import line marked ``# noqa: F401`` is a
deliberate re-export and is skipped.
"""

import ast
from pathlib import Path

import pytest

import logvar

SRC = Path(logvar.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in lines[n - 1] for n in range(node.lineno, node.end_lineno + 1)):
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                     and node.module == "__future__"):
                continue
            # "import a.b" binds "a"
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    # a read of "np.zeros" is a Name "np" under an Attribute
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{path.name}:{line}: {name}" for line, name in unused]


def test_scan_sees_the_library():
    assert {"tagger.py", "cli.py", "parse.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "from x import (  # noqa: F401\n    y,\n)\n"
        "import a.b\n"
        "__all__ = ['loads']\n"
        "a.b.c(dumps)\n"
        "os = None\n"
    )
    assert unused_imports(path) == ["m.py:1: os"]
