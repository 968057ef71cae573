"""The package's public surface: exports, docstrings, imports and parameters.

``snapslam.__all__`` lists exactly what ``__init__`` imports, once each,
and each name is read by the package, the benchmark or a demo, not by the
tests alone; every public top-level function and class has a docstring; no module
imports a name it does not use, and the simulator imports no solver
module; every private top-level definition is used
by the package itself, so tests alone cannot keep a dead helper alive.
Every parameter of every function is read, and every defaulted parameter
of a private function is passed by some call in the package, so neither
an unread argument nor a default no caller overrides survives. No module
computes a matrix or vector product through BLAS, or a length through
NumPy's hypot, and neither the tracer's per-leg helpers nor the LoS
search's per-path and per-cell helpers read a NumPy name. Every
double-backquoted reference to a package name in a docstring or comment
resolves. No linter is a dependency, so the checks read the source with
``ast`` and ``tokenize``.
"""

import ast
import functools
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import snapslam

PACKAGE = Path(snapslam.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """Every name the module binds by an import, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_all_lists_every_import_once():
    exported = snapslam.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == _imported(_tree(PACKAGE / "__init__.py"))


# exported though only the tests read them: each has logic that no private
# function has, and an acceptance criterion calls it
_TEST_ONLY_EXPORTS = {
    "rmse": "criterion 4 compares the robust and benchmark errors by it",
    "strip_outliers_by_truth": "criterion 4 scores the solvers on the stripped paths",
    "write_scene": "criterion 9 writes the scene file that the CLI reads",
    "write_positions": "criterion 9 writes the positions file that the CLI reads",
}


_PACKAGE_ROOTS = {"snapslam"} | {path.stem for path in MODULES}


def _read_names(path):
    """Every name that the file reads, as a name or as an attribute of the
    package or one of its modules (``snapslam.cli.main``, not a field such
    as ``sweep.rmse``), outside the top-level definition of that name;
    imports, strings and comments do not count."""
    read = set()
    for stmt in _tree(path).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = {stmt.name}
        else:
            defined = {t.id for t in getattr(stmt, "targets", [getattr(stmt, "target", None)])
                       if isinstance(t, ast.Name)}
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if getattr(root, "id", None) in _PACKAGE_ROOTS:
                    names.add(node.attr)
        read |= names - defined
    return read


def test_every_export_has_a_reader_beyond_the_tests():
    # a public adapter that only tests call is a second name for a kernel;
    # the package (re-exports aside), the benchmark or a demo must read each
    # export, or it is one of the few kept above
    readers = [p for p in MODULES if p.name != "__init__.py"]
    readers += sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    read = set().union(*map(_read_names, readers))
    assert sorted(set(snapslam.__all__) - read) == sorted(_TEST_ONLY_EXPORTS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_public_definitions_have_docstrings(path):
    missing = [node.name for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and not ast.get_docstring(node)]
    assert missing == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # __init__ imports to re-export; the first test covers it
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def test_the_simulator_imports_no_solver_module():
    # the simulator draws data, and its digests pin the datasets; it reads
    # the shared geometry and errors only, so no solver change reaches it
    imported = set()
    for node in ast.walk(_tree(PACKAGE / "sim.py")):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.startswith("snapslam"))
    assert imported == {"geometry", "errors"}


def _private_definitions(tree):
    """Names of the module's ``_``-prefixed top-level functions, classes and
    constants, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_no_orphaned_private_helpers():
    # a name counts as used where the package reads it, not where it is
    # defined or imported
    used = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = [f"{path.stem}.{name}" for path in MODULES
               for name in _private_definitions(_tree(path)) if name not in used]
    assert orphans == []


def _functions():
    """(module name, function node) of every function and lambda in the package."""
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield path.stem, node


def test_every_parameter_is_read():
    unread = []
    for module, fn in _functions():
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        unread += [f"{module}.{name}({a.arg})" for a in params if a.arg not in read]
    assert unread == []


def test_every_default_of_a_private_function_is_passed():
    # a default that no call overrides is a constant
    calls = [node for path in MODULES for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)]
    unpassed = []
    for module, fn in _functions():
        name = getattr(fn, "name", "")
        if not name.startswith("_") or name.startswith("__"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        passed = set()
        for call in calls:
            callee = call.func
            if getattr(callee, "id", getattr(callee, "attr", None)) != name:
                continue
            keywords = {kw.arg for kw in call.keywords}
            spread = any(isinstance(a, ast.Starred) for a in call.args)
            passed.update(arg for i, arg in defaulted
                          if arg in keywords or None in keywords
                          or (i is not None and (spread or i < len(call.args))))
        unpassed += [f"{module}.{name}({arg})" for _, arg in defaulted if arg not in passed]
    assert unpassed == []


_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "norm"}


def test_no_matrix_product():
    # BLAS picks its product kernel by CPU, and kernels round differently,
    # so outputs would depend on the machine; 2-vector products go through
    # geometry._dot2 instead
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.stem}:{node.lineno} @")
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in _PRODUCTS:
                    found.append(f"{path.stem}:{node.lineno} {name}")
    assert found == []


def test_no_numpy_hypot():
    # NumPy's hypot is the C library's, whose rounding differs from libm to
    # libm; every length goes through math.hypot, CPython's own
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "hypot"
                    and getattr(node.value, "id", None) in ("np", "numpy")):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


# the tracer's per-leg helpers, which work on (x, y) pairs of Python floats
_FLOAT_HELPERS = {"sim": ("_image_tree", "_unfold", "_blocked", "_interior_crossing",
                          "_on_any_wall"),
                  "geometry": ("_mirror", "_chain_measurement")}


# the LoS search's per-path and per-cell helpers, in Python floats as well
_LOS_SEARCH_HELPERS = {"robust": ("_los_terms", "_los_system", "_los_live_cells", "_los_cell"),
                       "estimator": ("_gated_solve",)}


def _numpy_reads(helpers):
    """Every read of an ``np`` or ``numpy`` name inside the named functions."""
    found = []
    for module, names in helpers.items():
        defs = {node.name: node for node in _tree(PACKAGE / f"{module}.py").body
                if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(defs)
        found += [f"{module}.{name}:{node.lineno}" for name in names
                  for node in ast.walk(defs[name])
                  if isinstance(node, ast.Name) and node.id in ("np", "numpy")]
    return found


def test_tracer_helpers_read_no_numpy():
    # Python floats round as NumPy does, and on a pair a NumPy call costs
    # more than the arithmetic it does; a helper that reads np brings NumPy
    # scalars back into every leg
    assert _numpy_reads(_FLOAT_HELPERS) == []


def test_los_search_helpers_read_no_numpy():
    # the LoS branch searches 12-13 paths and n - 1 cells, where a NumPy
    # call costs more than the arithmetic it does; the search converts its
    # result to arrays once, outside the per-cell loop
    assert _numpy_reads(_LOS_SEARCH_HELPERS) == []


def test_no_linalg():
    # src/ makes no LAPACK call: both condition gates decide by the trace
    # estimate of estimator.CONDITION_LIMIT, and solves are closed-form
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                    and getattr(node.value, "id", None) in ("np", "numpy")):
                found.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.Import):
                found += [f"{path.stem}:{node.lineno} import" for alias in node.names
                          if alias.name.startswith("numpy.linalg")]
            elif isinstance(node, ast.ImportFrom) and (
                    (node.module or "").startswith("numpy.linalg")
                    or (node.module == "numpy"
                        and any(alias.name == "linalg" for alias in node.names))):
                found.append(f"{path.stem}:{node.lineno} import")
    assert found == []


_REFERENCE = re.compile(r"``(\w+(?:\.\w+)*)(?:\(\))?``")


def test_no_stale_references():
    # A ``module.name`` reference resolves by getattr from that package
    # module, and a bare private ``_name`` is a top-level name of some
    # package module; other references (parameters, NumPy names) are not
    # checked
    modules = {path.stem: importlib.import_module(f"snapslam.{path.stem}")
               for path in MODULES if path.stem != "__init__"}
    missing = object()
    stale = []
    for path in MODULES:
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type not in (tokenize.STRING, tokenize.COMMENT):
                continue
            for ref in _REFERENCE.findall(token.string):
                head, *rest = ref.split(".")
                if head in modules and rest:
                    found = functools.reduce(lambda obj, name: getattr(obj, name, missing),
                                             rest, modules[head]) is not missing
                elif head.startswith("_") and not head.startswith("__") and not rest:
                    found = any(hasattr(module, head) for module in modules.values())
                else:
                    continue
                if not found:
                    stale.append(f"{path.stem}:{token.start[0]} {ref}")
    assert stale == []
