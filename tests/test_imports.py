"""Source hygiene: every import in the package, at module level or in a
function, is used, no floating point enters it, since every value it
computes must be exact, and each carrier op is defined once, as a batch op."""

import ast
import importlib
import inspect
from itertools import product
from pathlib import Path

import pytest

from ellstates.corpus import boolean_algebra, cone_hoop, godel_hoop, trunc_monoid
from ellstates.ibp0 import ProductAlgebra, SymbolicPerfectAlgebra
from ellstates.lmonoid import Carrier, KElement, KGroup, SymbolicCancellativeMonoid
from ellstates.semihoop import ProductHoop
from reference import SCALAR_OPS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellstates"


def unused_imports(source: str) -> list[str]:
    """Names bound by the import statements of the module body or of a
    function body that the module, or that function, never references."""
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in (tree, *functions):
        bound = {}
        for node in scope.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in bound.items() if name not in used]
    return [f"{name} (line {line})" for line, name in sorted(unused, key=lambda u: u[0])]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom typing import Any, Mapping\nx: Any = 1\n"
    assert unused_imports(source) == ["os (line 2)", "Mapping (line 3)"]
    # A function's imports count only its own uses, nested functions included.
    source += (
        "def f(s):\n"
        "    from json import dumps, loads\n"
        "    import re\n"
        "    return lambda: loads(s)\n"
        "def g():\n"
        "    return dumps\n"
    )
    assert unused_imports(source) == ["os (line 2)", "Mapping (line 3)", "dumps (line 6)", "re (line 7)"]


# numpy constructors whose default dtype is float64, as in np.array([]).
ARRAY_MAKERS = {"array", "asarray", "zeros", "ones", "empty", "full", "fromiter"}


def inexact_uses(source: str) -> list[str]:
    """Floating point in ``source``: the name ``float`` (so also
    ``astype(float)``), numpy float types such as ``np.float64``, float dtype
    strings, the tolerance comparisons ``isclose`` and ``allclose``, and an
    array constructor called with no ``dtype=`` keyword."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ARRAY_MAKERS:
            if not any(k.arg == "dtype" for k in node.keywords):
                found.append((node.lineno, node.col_offset, f"{node.func.attr} without dtype"))
            continue
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name.rstrip("0123456789") == "float" or name in ("isclose", "allclose"):
            found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    assert inexact_uses(path.read_text()) == []


def test_detects_floating_point():
    source = (
        "import numpy as np\n"
        "a = np.zeros(3).astype(float)\n"
        "b = np.float64(1) + np.asarray([1], dtype='float32')\n"
        "c = np.isclose(a, b) or math.isclose(1, 1) or np.allclose(a, b)\n"
        "d = float('1.5')\n"
        "floats = 'never floats'\n"
        "e = np.array([]), np.asarray(e), np.ones(2, np.int64), np.full(3, 0), np.fromiter(iter(e), int)\n"
        "f = np.empty(0, dtype=object), np.array([], dtype=np.intp), np.zeros_like(e), np.stack([e])\n"
    )
    assert inexact_uses(source) == [
        "zeros without dtype (line 2)", "float (line 2)", "float64 (line 3)", "float32 (line 3)",
        "isclose (line 4)", "isclose (line 4)", "allclose (line 4)", "float (line 5)",
        "array without dtype (line 7)", "asarray without dtype (line 7)", "ones without dtype (line 7)",
        "full without dtype (line 7)", "fromiter without dtype (line 7)",
    ]


def test_only_semihoop_spells_the_pseudo_join():
    # Every semihoop carries its own join, so no other module needs the term.
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "pseudo_join" in p.read_text()] == ["semihoop.py"]


# The names that pick an integer width for a table.
WIDTH_NAMES = {"INT64_MAX", "int64", "object_"}


def names_object_dtype(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "object") or (
        isinstance(node, ast.Constant) and node.value in ("O", "object"))


def width_choices(source: str) -> list[str]:
    """Where ``source`` picks an integer width: the names ``INT64_MAX`` and
    ``int64`` (imported, as ``np.int64`` or as a dtype string), ``np.object_``,
    and ``object`` as a dtype, that is a ``dtype=`` keyword or an argument of
    a method or module function such as ``astype`` or ``np.array``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "dtype" and names_object_dtype(node.value):
            found.append((node.value.lineno, node.value.col_offset, "dtype=object"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found += [(a.lineno, a.col_offset, f"{node.func.attr}(object)") for a in node.args if names_object_dtype(a)]
        if isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in WIDTH_NAMES:
            found.append((node.lineno, node.col_offset, name))
    return [f"{name} (line {line})" for line, _, name in sorted(found)]


def test_only_scan_chooses_the_integer_width():
    # _scan alone decides int64 or Python ints for an exact table.
    chooser = [p.name for p in sorted(PACKAGE.glob("*.py")) if width_choices(p.read_text())]
    assert chooser == ["_scan.py"]


def test_detects_an_integer_width_choice():
    source = (
        "import numpy as np\n"
        "from ._scan import INT64_MAX, exact_table\n"
        "a = np.zeros(3, dtype=np.int64).astype(object)\n"
        "b = a.astype('O') if a.max() < INT64_MAX else np.array([], dtype=object)\n"
        "c = np.array([], object), np.object_, np.dtype('int64'), a.astype(int)\n"
        "d: list[object] = [isinstance(a, object), np.array([], dtype=np.intp), np.int32, 'an object']\n"
    )
    assert width_choices(source) == [
        "INT64_MAX (line 2)", "int64 (line 3)", "astype(object) (line 3)", "astype(object) (line 4)",
        "INT64_MAX (line 4)", "dtype=object (line 4)", "array(object) (line 5)", "object_ (line 5)",
        "int64 (line 5)",
    ]


def imported_modules(source: str) -> set[str]:
    """The top-level packages ``source`` imports by absolute name, at module
    level or in a function."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # A dataclass decorator generates and compiles its methods when its module
    # is imported, which every CLI child would pay again.
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if "dataclasses" in imported_modules(p.read_text())] == []


def test_detects_a_dataclasses_import():
    source = (
        "import numpy as np, os.path\n"
        "from .reports import Check\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
        "    return dataclass\n"
    )
    assert imported_modules(source) == {"numpy", "os", "dataclasses"}


def verdict_names(source: str) -> tuple[set[str], set[str]]:
    """The names ``source`` imports from other modules, and every name it
    mentions: bare, as an attribute, or as what it defines."""
    imported, named = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named.add(node.name)
    return imported, named


def test_only_scan_writes_a_value_law_verdict():
    # A value law is a declaration that _scan.scan_laws runs; no law module
    # builds its own check, and the per-law helpers it replaced stay gone.
    names = {p.name: verdict_names(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert [m for m in ("ibp0.py", "semihoop.py", "states.py") if "verdict" in names[m][0]] == []
    assert [m for m in ("semihoop.py", "states.py") if "masked_verdict" in names[m][0]] == []
    assert [m for m, (imported, named) in names.items() if {"pair_verdict", "_part_law"} & (imported | named)] == []


def test_detects_a_value_law_verdict():
    source = (
        "from .reports import ValidationReport, verdict\n"
        "from ._scan import masked_verdict as mv\n"
        "def _part_law(v):\n"
        "    return _scan.pair_verdict(v)\n"
    )
    assert verdict_names(source) == ({"ValidationReport", "verdict", "masked_verdict"},
                                     {"_part_law", "_scan", "pair_verdict", "v"})


def package_classes() -> list[type]:
    """Every class defined in a module of the package."""
    modules = [importlib.import_module(f"ellstates.{p.stem}") for p in sorted(PACKAGE.glob("*.py"))]
    return [c for m in modules for _, c in inspect.getmembers(m, inspect.isclass) if c.__module__ == m.__name__]


# One instance of each carrier class, a rotation over each kind of core,
# products of finite and symbolic factors, one of them nested, and the
# envelope of a finite base and of each cone orientation.
CARRIERS = {
    "lmonoid": trunc_monoid(3), "semihoop": godel_hoop(3), "mtl": boolean_algebra(2),
    "natural-cone": SymbolicCancellativeMonoid(rank=2), "cone-hoop": cone_hoop(2),
    "rotation-cone": SymbolicPerfectAlgebra(cone_hoop(1)), "rotation-finite": SymbolicPerfectAlgebra(godel_hoop(3)),
    "product-hoop": ProductHoop([godel_hoop(3), cone_hoop(2)]),
    "product-algebra": ProductAlgebra([boolean_algebra(2), SymbolicPerfectAlgebra(cone_hoop(1))]),
    "nested-product-hoop": ProductHoop([ProductHoop([cone_hoop(1), godel_hoop(2)]), godel_hoop(3)]),
    "envelope-finite": KGroup(trunc_monoid(3)), "envelope-natural-cone": KGroup(SymbolicCancellativeMonoid(rank=2)),
    "envelope-cone-hoop": KGroup(cone_hoop(2)),
}


def window_elements(A) -> list:
    """A's window at 1; an envelope's are the pairs over its base's."""
    if isinstance(A, KGroup):
        return [KElement(a, b) for a, b in product(A.base.carrier(1), repeat=2)]
    return A.carrier(1)


def test_no_class_writes_a_scalar_op_beside_its_batch_op():
    # The scalar ops are derived in one place, Carrier, with no __getattr__
    # fallback; no class and no table algebra instance writes its own.
    both = [(c.__name__, op) for c in package_classes() for op in SCALAR_OPS if {op, f"{op}_rows"} <= set(vars(c))]
    assert both == []
    assert [op for A in CARRIERS.values() for op in SCALAR_OPS if op in vars(A)] == []
    assert [c.__name__ for c in package_classes() if issubclass(c, Carrier) and "__getattr__" in vars(c)] == []
    carriers = [c for c in package_classes() if issubclass(c, Carrier)]
    leaves = {c for c in carriers if not any(d is not c and issubclass(d, c) for d in carriers)}
    assert leaves == {type(A) for A in CARRIERS.values()}


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_every_scalar_op_resolves_to_scalar(name, monkeypatch):
    # A carrier has a scalar op exactly where it has the batch op, and
    # calling it calls Carrier._scalar with the op's name.
    A, calls = CARRIERS[name], []
    monkeypatch.setattr(Carrier, "_scalar", lambda self, op, *xs: calls.append((self, op, xs)) or op)
    ops = [op for op in SCALAR_OPS if hasattr(A, f"{op}_rows")]
    assert ops == [op for op in SCALAR_OPS if hasattr(A, op)]
    x, y = window_elements(A)[:2]
    for op in ops:
        args = (x,) if op == "neg" else (x, y)
        assert getattr(A, op)(*args) == op
        assert calls.pop() == (A, op, args)


# The envelope wrappers that perfbench's k_ops calls; K's methods replace them.
K_WRAPPERS = {"k_equal", "k_leq", "k_add"}


def envelope_functions(source: str) -> tuple[list[str], list[str]]:
    """The calls in ``source`` to a K_WRAPPERS name, bare or as an attribute,
    and the module-level functions it defines whose names start with ``k_``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in K_WRAPPERS:
                calls.append(f"{name} (line {node.lineno})")
    defined = [n.name for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name.startswith("k_")]
    return calls, defined


def test_no_module_calls_the_envelope_wrappers():
    # K's ops are its methods; the wrappers stay only for perfbench's k_ops,
    # and no other k_<op> function is defined beside them.
    calls = {p.name: envelope_functions(p.read_text())[0] for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: c for name, c in calls.items() if c} == {}
    assert envelope_functions((PACKAGE / "lmonoid.py").read_text())[1] == ["k_envelope", "k_equal", "k_leq", "k_add"]


def test_detects_an_envelope_wrapper_call():
    source = (
        "from .lmonoid import k_add, k_equal\n"
        "def k_join(K, a, b):\n"
        "    return lmonoid.k_leq(K, a, b) and k_equal(K, k_add(K, a, b), b)\n"
        "class C:\n"
        "    def k_meet(self):\n"
        "        return K.add(a, b), k_envelope(M), self.k_add\n"
    )
    assert envelope_functions(source) == (["k_leq (line 3)", "k_equal (line 3)", "k_add (line 3)"], ["k_join"])
