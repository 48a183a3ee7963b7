"""Rules about the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "parbetti"


def test_no_assert_statements():
    """Certificates must be real exceptions: python -O strips asserts."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []



def _imported_modules(tree):
    """Names of the modules a module imports, relative ones as written."""
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    return modules


def _scopes(tree):
    """(name, node) of every module function and method, named ``func`` and
    ``Class.method``."""
    scopes = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    scopes += [
        (f"{c.name}.{f.name}", f)
        for c in tree.body
        if isinstance(c, ast.ClassDef)
        for f in c.body
        if isinstance(f, ast.FunctionDef)
    ]
    return scopes


def _fraction_uses(tree, allowed, within=None):
    """Lines naming Fraction outside the functions named in allowed, given
    as ``func`` for module functions and ``Class.method`` for methods; with
    within, only lines inside the functions named there are searched."""
    scopes = _scopes(tree)
    skip = {id(n) for name, f in scopes if name in allowed for n in ast.walk(f)}
    if within is None:
        nodes = ast.walk(tree)
    else:
        nodes = [n for name, f in scopes if name in within for n in ast.walk(f)]
    return [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Name) and node.id == "Fraction" and id(node) not in skip
    ]


def test_coefficients_are_ints():
    """One coefficient type: ratfunc never meets a Fraction, and laurent
    names one only to accept an integral one and to evaluate at a point."""
    ratfunc = ast.parse((SRC / "ratfunc.py").read_text(encoding="utf-8"))
    assert "fractions" not in _imported_modules(ratfunc)
    assert _fraction_uses(ratfunc, set()) == []

    laurent = ast.parse((SRC / "laurent.py").read_text(encoding="utf-8"))
    assert _fraction_uses(laurent, {"_coerce", "LaurentPoly.evaluate"}) == []


def test_closed_block_sum_is_integer():
    """The closed routes' block sum and exponents are integer arithmetic:
    none of them names Fraction."""
    engine = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    closed = {"_block_classes", "_block_sum", "poincare_closed", "q_ratfunc"}
    assert closed <= {name for name, _ in _scopes(engine)}
    assert _fraction_uses(engine, set(), within=closed) == []


def test_no_partition_objects_in_src():
    """One stratum representation: every route walks the integer tables of
    ``parabolic._strata``, so no module defines a partition type or list,
    and the engine imports nothing from fractions."""
    engine = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    assert "fractions" not in _imported_modules(engine)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name in {"Partition", "partitions", "inv_count"}
        ]
    assert found == []


def _is_empty_container(node):
    """An empty ``{}`` or ``[]`` literal, or a bare ``dict()``, ``list()`` or
    ``set()`` call."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"dict", "list", "set"}
        and not node.args
        and not node.keywords
    )


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_no_module_level_caches():
    """Caches and work stay bounded: no module-level name starts as an empty
    container to be filled later, and no function is memoised by functools."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and _is_empty_container(node.value)
        ]
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_decorator_name(d) in {"cache", "lru_cache"} for d in node.decorator_list)
        ]
    assert found == []


HEAVY = ("dataclasses", "concurrent", "multiprocessing")


def test_no_heavy_stdlib_imports():
    """Every parbetti process pays at start-up for what the package imports:
    no module imports dataclasses (which loads inspect, ast and dis) or a
    process pool; sweeps fork their workers with os.fork."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in HEAVY
    ]
    assert found == []


def test_cli_import_leaves_heavy_modules_unloaded():
    probe = (
        "import sys, parbetti.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'concurrent.futures', "
        "'multiprocessing') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
