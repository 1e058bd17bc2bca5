"""The public surface of `rieszlab` is what something reads.

Every public top-level function or class in `src/rieszlab/*.py` must have a
reader besides its own definition and its `__init__` export: a name or an
attribute that refers to it in `src/`, in the acceptance suite
(`tests/test_acceptance.py`) or in the benchmark (`perfbench/`), whose
tracer also looks the functions it times up by their names as strings.
Other tests do not count: a name only its own unit tests call is dead code.

The same holds for every public method and property of a public class: an
attribute of that name must be read in `src/` outside its own definition,
in the acceptance suite, or in the benchmark.

The package root binds only its modules and `__version__`, so no export
list repeats the modules' names.  Every spectrum comes from one LAPACK
call, `np.linalg.eigvalsh` inside `linalg.ordered_eigenvalues`.
"""

import ast
import types
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


def _attributes(node, own=frozenset()) -> set:
    """Attribute names read under node; a definition does not read its own name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    out = {node.attr} - own if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        out |= _attributes(child, own)
    return out


def test_every_public_method_has_an_attribute_reader():
    read = _attributes(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    methods = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= _attributes(tree)
        methods += [f"{path.name}: {cls.name}.{item.name}"
                    for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= _names(ast.parse(path.read_text()), strings=True)
    unread = [m for m in methods if m.rsplit(".", 1)[1] not in read]
    assert unread == [], "public methods nothing reads; delete them or read them"


def test_the_package_root_binds_only_its_modules():
    import rieszlab

    bound = set()
    for stmt in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(stmt, ast.ImportFrom):
            assert stmt.level == 1 and stmt.module is None, "import the modules, not their names"
            bound |= {alias.asname or alias.name for alias in stmt.names}
        elif isinstance(stmt, ast.Assign):
            bound |= {target.id for target in stmt.targets}
        else:
            assert isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)  # docstring
    assert bound == {"flow", "linalg", "radial", "riesz", "subeq", "__version__"}
    assert rieszlab.subeq.builtin is not None
    assert all(isinstance(value, types.ModuleType) for name, value in vars(rieszlab).items()
               if not name.startswith("__"))


def _enclosing_calls(node, where, found, solvers):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = node.name
    if (isinstance(node, ast.Attribute) and node.attr in solvers
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
        found.append((where, node.attr))
    for child in ast.iter_child_nodes(node):
        _enclosing_calls(child, where, found, solvers)


def test_every_spectrum_comes_from_one_eigensolver_call():
    solvers = {"eigvalsh", "eigh", "eig", "eigvals", "svd", "svdvals"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        calls = []
        _enclosing_calls(ast.parse(path.read_text()), None, calls, solvers)
        found += [(path.name, *call) for call in calls]
    assert found == [("linalg.py", "ordered_eigenvalues", "eigvalsh")]
