"""The public surface of `rieszlab` is what something reads.

Every public top-level function or class in `src/rieszlab/*.py` must have a
reader besides its own definition and its `__init__` export: a name or an
attribute that refers to it in `src/`, in the acceptance suite
(`tests/test_acceptance.py`) or in the benchmark (`perfbench/`), whose
tracer also looks the functions it times up by their names as strings.
Other tests do not count: a name only its own unit tests call is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rieszlab"

def _names(tree, strings: bool) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _public_definitions() -> dict:
    """Public top-level function and class names -> module file."""
    return {stmt.name: path.name
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")}


def _read_names() -> set:
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            # a definition does not read itself
            own = getattr(stmt, "name", None)
            read |= _names(stmt, strings=False) - {own}
    read |= _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()), strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= _names(ast.parse(path.read_text()), strings=True)
    return read


def test_every_public_name_has_a_reader():
    read = _read_names()
    unread = sorted(f"{module}: {name}" for name, module in _public_definitions().items()
                    if name not in read)
    assert unread == [], "public names nothing reads; delete them or read them"
