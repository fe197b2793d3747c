"""Rules on the package source, checked on its syntax trees.

No ``assert`` statements: they vanish under ``python -O``, so a check that
matters raises a ``TorelliLabError`` subclass.  No environment reads: every
setting arrives through a function argument or a command-line flag.  Every
name the benchmark's tracer rebinds and every exported name exists, so a
deletion cannot break ``perfbench`` or ``from torelli_lab import *``.  No
true division in the exact layer of ``binforms``, in the exact core of
``jets`` and ``jets.JetSeries``, or in ``plumbing.JetCoefficients``, the
random jets, and the chain, its layout, the closed forms and the
proportionality check built from them: their coefficients and numerators
are ints, and ``int / int`` is a float.  No numpy in that exact layer
either: its decisions stay on CPython ints.  Every source file is ASCII.  No module imports scipy when it loads:
scipy costs most of the package's start-up, and only the assignment
fallback of ``recovery.match_points`` needs it, so it is imported there.
Every private helper (a top-level function or class, or a method, named
with a single leading underscore) is used in the package outside its own
definition: a path the package no longer takes is deleted, not kept for
its tests alone.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import torelli_lab

SOURCES = sorted(Path(torelli_lab.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
BINFORMS = Path(torelli_lab.__file__).parent / "binforms.py"
JETS = Path(torelli_lab.__file__).parent / "jets.py"
PLUMBING = Path(torelli_lab.__file__).parent / "plumbing.py"
# with every ``poly_*`` function, the exact layer of binforms
EXACT_LAYER = {"_int_primitive", "_to_int_primitive", "_pseudo_rem",
               "_heu_gcd", "gcd_is_constant", "squarefree_decomposition",
               "BinaryForm", "transvectant_first"}


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield f"{path.name}:{node.lineno}: assert statement"
        elif (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield f"{path.name}:{node.lineno}: os.{node.attr}"
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENV_NAMES for alias in node.names)):
            yield f"{path.name}:{node.lineno}: environment import from os"


def test_no_asserts_and_no_environment_reads():
    assert len(SOURCES) > 1
    found = [v for path in SOURCES for v in _violations(path)]
    assert found == []


def test_sources_are_ascii():
    found = [f"{path.name}:{lineno}"
             for path in SOURCES
             for lineno, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1)
             if not line.isascii()]
    assert found == []


def _definitions(path, names, prefix=None):
    """The top-level definitions of ``path`` named in ``names`` or starting
    with ``prefix``; every name must exist."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert names <= defs.keys()
    return [node for name, node in defs.items()
            if name in names or (prefix and name.startswith(prefix))]


def _true_divisions(path, names, prefix=None):
    """True divisions inside ``_definitions(path, names, prefix)``."""
    return [f"{path.name}:{node.lineno}: true division in {top.name}"
            for top in _definitions(path, names, prefix)
            for node in ast.walk(top)
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)]


def test_no_true_division_in_the_exact_layer():
    assert _true_divisions(BINFORMS, EXACT_LAYER, prefix="poly_") == []


def test_no_numpy_in_the_exact_layer():
    found = [f"{BINFORMS.name}:{node.lineno}: np in {top.name}"
             for top in _definitions(BINFORMS, EXACT_LAYER, prefix="poly_")
             for node in ast.walk(top)
             if isinstance(node, ast.Name) and node.id == "np"]
    assert found == []


def test_no_true_division_in_jet_series():
    # every method of the classes, none exempt
    assert _true_divisions(JETS, {"_ExactCore", "JetSeries"}) == []
    assert _true_divisions(PLUMBING, {
        "JetCoefficients", "_chain_factors", "_numerators", "_add_products",
        "residue_pair", "closed_form_pair", "_first_cross_mismatch",
        "random_jet_coefficients"}) == []


def test_traced_and_exported_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"torelli_lab.{module}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # Tracer.install reads the owner's own __dict__
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{attr}")
    missing += [name for name in torelli_lab.__all__
                if not hasattr(torelli_lab, name)]
    assert missing == []


def _module_level_imports(body):
    """Modules that the statements ``body`` import when they run at module
    load: the top level and the blocks of top-level ``if``, ``try`` and
    ``with`` statements, but no function or class body."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, node.module or ""
        elif isinstance(node, (ast.If, ast.Try, getattr(ast, "TryStar", ast.Try),
                               ast.With)):
            blocks = [node.body]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            blocks += [getattr(node, "orelse", []), getattr(node, "finalbody", [])]
            for block in blocks:
                yield from _module_level_imports(block)


def _scipy_imports(source, name):
    return [f"{name}:{lineno}: imports {module}"
            for lineno, module in _module_level_imports(ast.parse(source).body)
            if module == "scipy" or module.startswith("scipy.")]


def test_the_scipy_rule_sees_nested_blocks_but_not_functions():
    source = """
if True:
    from scipy import linalg
try:
    import numpy, scipy.optimize
except ImportError:
    import scipy
else:
    pass
finally:
    from scipy.sparse import csr_matrix
def f():
    from scipy.optimize import linear_sum_assignment
class C:
    import scipy
"""
    assert _scipy_imports(source, "m") == [
        "m:3: imports scipy", "m:5: imports scipy.optimize",
        "m:7: imports scipy", "m:11: imports scipy.sparse"]


def test_no_module_imports_scipy_when_it_loads():
    found = [v for path in SOURCES
             for v in _scipy_imports(path.read_text(encoding="utf-8"), path.name)]
    assert found == []


FRESH_ROUNDTRIP = """
import sys
sys.path.insert(0, sys.argv[1])
import torelli_lab
from torelli_lab import recovery
from torelli_lab.surfaces import make_random_general
report = recovery.roundtrip(make_random_general(5, 0), 0)
print(report.status, "scipy" in sys.modules)
"""


def test_a_passing_roundtrip_never_loads_scipy():
    src = str(Path(torelli_lab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", FRESH_ROUNDTRIP, src],
                          capture_output=True, text=True, check=True, timeout=120)
    assert done.stdout.split() == ["ok", "False"]


def _private_helpers(tree):
    """The top-level functions and classes and the methods of ``tree``
    whose names start with exactly one underscore."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if (isinstance(d, (*functions, ast.ClassDef))
                    and d.name.startswith("_")
                    and not d.name.startswith("__")):
                yield d


def _unused_private_helpers(trees):
    """``file:line: name`` for each private helper of ``trees`` (a dict of
    file name to syntax tree) that no name or attribute refers to outside
    the helper's own definition."""
    uses = {}
    for name, tree in trees.items():
        for node in ast.walk(tree):
            ref = (node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else None)
            if ref is not None:
                uses.setdefault(ref, []).append((name, node.lineno))
    found = []
    for name, tree in trees.items():
        for node in _private_helpers(tree):
            if not any(f != name or not node.lineno <= line <= node.end_lineno
                       for f, line in uses.get(node.name, ())):
                found.append(f"{name}:{node.lineno}: {node.name}")
    return found


def test_the_private_helper_rule_sees_methods_and_ignores_self_use():
    source = """
def _used(): pass
def _recursive(n): return _recursive(n - 1)
def __dunder_like(): pass
class _Unused:
    def _method(self): return self._method()
    def _called(self): pass
    def __init__(self): self._called()
def public(): return _used()
"""
    assert _unused_private_helpers({"m": ast.parse(source)}) == [
        "m:3: _recursive", "m:5: _Unused", "m:6: _method"]


def test_every_private_helper_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert _unused_private_helpers(trees) == []
