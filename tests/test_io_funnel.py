"""Every file the library reads or writes goes through one reader or one writer.

An AST scan: a call to ``open`` (a builtin or a method) or to a
``read_text``, ``write_text``, ``read_bytes`` or ``write_bytes`` method in
``src/logvar`` must sit inside ``corpus.read_lines``, ``corpus.write_atomic``
or ``train.load_model``, which checks a model file's checksum over its raw
bytes. Every other reader and writer calls those two, so the line split, the
UTF-8 check and the atomic replace live in one place each.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "logvar"
IO_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
FUNNEL = {("corpus.py", "read_lines"), ("corpus.py", "write_atomic"), ("train.py", "load_model")}


def io_outside_funnel(modules: list[Path], funnel: set[tuple[str, str]]) -> list[str]:
    """``file:line: name`` of each file-I/O call in ``modules`` outside the
    module-level functions that ``funnel`` names as (file name, function)."""
    found = []
    for module in modules:
        for top in ast.parse(module.read_text(encoding="utf-8")).body:
            if (module.name, getattr(top, "name", None)) in funnel:
                continue
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in IO_CALLS:
                    found.append(f"{module.name}:{node.lineno}: {name}")
    return found


def test_library_io_goes_through_the_funnel():
    modules = sorted(SRC.glob("*.py"))
    assert {"cli.py", "corpus.py", "embed.py", "train.py"} <= {p.name for p in modules}
    assert io_outside_funnel(modules, FUNNEL) == []


def test_scan_flags_io_outside_the_funnel(tmp_path):
    module = tmp_path / "corpus.py"
    module.write_text(
        "def read_lines(p):\n"
        "    return open(p)\n"
        "def helper(p):\n"
        "    with open(p) as fh:\n"
        "        return fh.read()\n"
        "class Saver:\n"
        "    def save(self, p):\n"
        "        p.write_bytes(b'')\n"
        "TEXT = Path('x').read_text()\n"
        "def write_atomic(p):\n"
        "    p.open('w')\n"
        "def read(p):\n"
        "    return p.read()\n"
    )
    funnel = {("corpus.py", "read_lines"), ("other.py", "write_atomic")}
    assert io_outside_funnel([module], funnel) == [
        "corpus.py:4: open", "corpus.py:8: write_bytes", "corpus.py:9: read_text",
        "corpus.py:11: open"]
