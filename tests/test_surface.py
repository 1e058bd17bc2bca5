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
list repeats the modules' names; it binds them lazily, so `import rieszlab`
runs none of them.  Every spectrum comes from one LAPACK call,
`np.linalg.eigvalsh` inside `linalg.ordered_eigenvalues`.  Every margin is
read through the one `Subequation.margin` field, on one matrix or a stack,
and every rotation comes from the one sampler `subeq.invariance_rotation`:
no second margin field or single-seed sampler remains in `src/`, and no
helper whose one reader could call its body directly.  An option has more
than one value in use, and a function takes one input format: the
signatures that lost a fixed option or a second format are pinned, and
frames are built only by their sample, through `Frame(plane)`.
"""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
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


def _fresh(code: str) -> str:
    """stdout of `code` in a fresh interpreter that imports from `src/`."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_the_package_root_binds_only_its_modules():
    # isinstance reads the type, not an attribute, so it runs no module
    names = json.loads(_fresh(
        "import json, types, rieszlab\n"
        "print(json.dumps({name: isinstance(value, types.ModuleType)\n"
        "                  for name, value in vars(rieszlab).items()\n"
        "                  if not name.startswith('__')}))"))
    assert names == dict.fromkeys(["flow", "linalg", "radial", "riesz", "subeq"], True)
    import rieszlab

    assert isinstance(rieszlab.__version__, str)
    assert rieszlab.subeq.builtin is not None


def test_importing_the_package_runs_no_module():
    # every module imports rieszlab.errors, so none of them ran
    assert _fresh("import sys, rieszlab\nprint('rieszlab.errors' in sys.modules)") == "False\n"


def test_a_read_of_a_registered_module_gives_the_real_function():
    # as the benchmark tracer reads a module: vars() first, then getattr
    read = json.loads(_fresh(
        "import inspect, json, sys, types, rieszlab\n"
        "module = sys.modules['rieszlab.flow']\n"
        "held = vars(module)['densities']\n"
        "from rieszlab.flow import densities\n"
        "print(json.dumps([held is densities, getattr(module, 'densities') is densities,\n"
        "                  inspect.isfunction(densities), densities.__module__,\n"
        "                  rieszlab.flow is module, type(module) is types.ModuleType]))"))
    assert read == [True, True, True, "rieszlab.flow", True, True]


def test_a_wrapper_set_after_import_sees_the_gauss_jacobi_eigensolve():
    # the tracer swaps linalg.ordered_eigenvalues in the namespaces loaded at
    # install; `_numerics` loads later, with `flow`, and still calls the wrapper
    calls = _fresh(
        "import sys, rieszlab.cli\n"
        "modules = [m for name, m in list(sys.modules.items()) if name.startswith('rieszlab')]\n"
        "original = rieszlab.linalg.ordered_eigenvalues\n"
        "calls = []\n"
        "def counted(*args):\n"
        "    calls.append(args)\n"
        "    return original(*args)\n"
        "for module in modules:\n"
        "    for attr, value in list(vars(module).items()):\n"
        "        if value is original:\n"
        "            setattr(module, attr, counted)\n"
        "from rieszlab import _numerics\n"
        "_numerics.gauss_jacobi(8, 0.5)\n"
        "print(len(calls))")
    assert calls == "1\n"


def _enclosing_calls(node, where, found, solvers):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = node.name
    if (isinstance(node, ast.Attribute) and node.attr in solvers
            and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
        found.append((where, node.attr))
    for child in ast.iter_child_nodes(node):
        _enclosing_calls(child, where, found, solvers)


def test_one_margin_and_one_rotation_sampler():
    words = set()
    for path in SRC.glob("*.py"):
        words |= set(re.findall(r"\w+", path.read_text()))
    assert {"margin", "invariance_rotation"} <= words
    assert not words & {"margin_batch", "_margins", "invariance_rotations"}


def test_no_one_reader_helpers_and_suites_own_their_skips():
    words = set()
    for path in SRC.glob("*.py"):
        words |= set(re.findall(r"\w+", path.read_text()))
    assert {"quotients", "sample_grassmannian", "MEMBER_BAND"} <= words
    assert not words & {"quotient_curve", "default_plane_count", "_membership_band"}
    defs = {node.name: node for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"n", "p"} & {node.name for node in defs["Frame"].body
                             if isinstance(node, ast.FunctionDef)}
    # the sandwich suite reports its own skip; verify only collects reports
    assert "PropertyReport" not in _names(defs["cmd_verify"], False)


def test_every_spectrum_comes_from_one_eigensolver_call():
    solvers = {"eigvalsh", "eigh", "eig", "eigvals", "svd", "svdvals"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        calls = []
        _enclosing_calls(ast.parse(path.read_text()), None, calls, solvers)
        found += [(path.name, *call) for call in calls]
    assert found == [("linalg.py", "ordered_eigenvalues", "eigvalsh")]


def test_one_value_per_option_and_one_input_format():
    from rieszlab import flow, linalg, riesz, subeq

    text = "".join(path.read_text() for path in SRC.glob("*.py"))
    assert not set(re.findall(r"\w+", text)) & {"coordinate_direction", "holder_seminorm",
                                                "_evaluate_field", "bisection_certificate",
                                                "_matrix_pencil", "BOUNDARY_BAND"}
    assert "object.__new__" not in text
    empty = inspect.Parameter.empty
    kept = {
        subeq.shift_into: {"f": empty, "a": empty},
        subeq.GrassmannSample: {"planes": empty, "angle_tol": 1e-3},
        subeq.Frame: {"columns": empty},
        linalg.random_unit_vector: {"n": empty, "rng": empty},
        linalg.finite_diff_hessian: {"values": empty, "x": empty},
        flow.log_modulus_coordinate_field: {"n_complex": empty},
        flow.plus_quadratic_field: {"base": empty, "c": empty},
        flow.averages_of_tangent_check: {"tangent": empty, "p": empty, "radii": None,
                                         "quad": None, "kinds": ("M", "S", "V")},
        # the direction is the subequation's; only the pair checks further ones
        riesz.increasing_characteristic: {"f": empty, "tol": 1e-9},
        riesz.decreasing_characteristic: {"f": empty, "tol": 1e-9},
        riesz.characteristic_pair: {"f": empty, "tol": 1e-9, "check_directions": 0, "seed": 0},
        riesz.sandwich_check: {"f": empty, "p": empty, "sample_count": 1000, "seed": 0},
        riesz.radial_harmonic_check: {"f": empty, "theta": empty, "p": empty, "radii": empty,
                                      "seed": 0},
    }
    for function, params in kept.items():
        signature = inspect.signature(function).parameters
        assert {name: param.default for name, param in signature.items()} == params, function
