"""Every library function and method is reached from outside its own definition.

An AST scan in place of a coverage tool: a module-level function of
``src/logvar``, or a method or property of a module-level class there
(dunders aside), must be named somewhere in ``src/``, ``benchmarks/`` or
``demos/`` outside its own ``def``, or be listed in ``__all__``. Tests do
not count, so a code path that only tests reach is flagged. A name counts
as a read of a bare name, an attribute, an imported name, or a string that
is exactly a (dotted) identifier, which is how the benchmark's layer trace
names the functions it hooks.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "logvar"
USERS = [ROOT / "src", ROOT / "benchmarks", ROOT / "demos"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def _defs(tree: ast.Module) -> tuple[dict[str, ast.AST], list[ast.AST]]:
    """Each module-level function and each method of a module-level class,
    by qualified name, and the module's other nodes."""
    defs, rest = {}, []
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS):
                    defs[f"{node.name}.{sub.name}"] = sub
                else:
                    rest.append(sub)
            rest += [*node.bases, *node.keywords, *node.decorator_list]
        else:
            rest.append(node)
    return defs, rest


def unreached_functions(modules: list[Path], users: list[Path]) -> list[str]:
    """``file:line: name`` of each module-level function and each method (not
    a dunder) in ``modules`` that no file under ``users`` names outside its
    own ``def`` or ``__all__`` lists."""
    outside: set[str] = set()  # names read outside any function or method
    inside: dict[tuple[Path, str], set[str]] = {}  # names read inside each one
    for path in sorted({p.resolve() for d in users for p in d.rglob("*.py")}):
        defs, rest = _defs(ast.parse(path.read_text(encoding="utf-8")))
        for qualname, node in defs.items():
            inside[(path, qualname)] = _names(node)
        for node in rest:
            outside |= _names(node)
    unreached = []
    for module in modules:
        module = module.resolve()
        for qualname, node in _defs(ast.parse(module.read_text(encoding="utf-8")))[0].items():
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            elsewhere = node.name in outside or any(
                node.name in names for key, names in inside.items()
                if key != (module, qualname))
            if not elsewhere:
                unreached.append(f"{module.name}:{node.lineno}: {qualname}")
    return unreached


def test_every_library_function_is_reached():
    modules = sorted(SRC.glob("*.py"))
    assert {"crf.py", "tagger.py", "train.py"} <= {p.name for p in modules}
    assert unreached_functions(modules, USERS) == []


def test_scan_flags_an_unreached_function(tmp_path):
    lib, user = tmp_path / "lib", tmp_path / "user"
    lib.mkdir()
    user.mkdir()
    (lib / "m.py").write_text(
        "__all__ = ['public']\n"
        "def public(): return helper()\n"
        "def helper(): return C().size\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def hooked(): pass\n"
        "def documented():\n"
        "    '''Not called: documented is only in prose.'''\n"
        "class C:\n"
        "    def __init__(self): self.method()\n"
        "    def method(self): pass\n"
        "    def again(self): return self.again()\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @property\n"
        "    def unread(self): return 2\n"
        "def dead(): pass\n"
    )
    (user / "u.py").write_text(
        "HOOKS = [('m', 'C.hooked')]\n"
        "print('documented is not called')\n"
    )
    assert unreached_functions([lib / "m.py"], [lib, user]) == [
        "m.py:4: recursive", "m.py:6: documented", "m.py:11: C.again", "m.py:15: C.unread",
        "m.py:16: dead"]
