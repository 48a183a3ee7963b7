"""Rules about the package source itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    """One coefficient type: neither ratfunc nor laurent names a Fraction or
    imports fractions; laurent accepts an integral rational by its
    numerator and denominator."""
    for name in ("ratfunc.py", "laurent.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        assert "fractions" not in _imported_modules(tree), name
        assert _fraction_uses(tree, set()) == [], name


def test_only_rank2_imports_fractions_at_module_level():
    """Weights are ints from the document on, so loading a module loads
    ``fractions`` (and with it ``decimal`` and ``numbers``) only for the
    rank-2 route, whose gaps are public Fractions.  Anywhere else it is
    imported inside the function that builds a Fraction for a caller."""
    found = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "fractions" in _imported_modules(node)
    ]
    assert found == ["rank2.py"]


def test_closed_block_sum_is_integer():
    """The closed routes' block sum and exponents are integer arithmetic:
    none of them names Fraction."""
    engine = ast.parse((SRC / "engine.py").read_text(encoding="utf-8"))
    closed = {"_block_classes", "_block_sum", "poincare_closed", "q_ratfunc"}
    assert closed <= {name for name, _ in _scopes(engine)}
    assert _fraction_uses(engine, set(), within=closed) == []


def test_stability_check_is_integer():
    """The stability check divides integers over the weights' common
    denominator: neither it nor its caller names Fraction."""
    parabolic = ast.parse((SRC / "parabolic.py").read_text(encoding="utf-8"))
    check = {"slope_coincidence_witness", "ss_equals_stable"}
    assert check <= {name for name, _ in _scopes(parabolic)}
    assert _fraction_uses(parabolic, set(), within=check) == []


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


def test_weights_become_ints_in_one_place():
    """The data turns into integers over one denominator only in
    ``parabolic._integer_block``: the engine and the recursion take its
    blocks, and name no Fraction, numerator, denominator, lcm or canonical
    form, nor turn a block back into rational data."""
    banned = {"numerator", "denominator", "lcm", "Fraction", "canonical_form", "_block_data"}
    for name in ("engine.py", "recursion.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        named = set(_references(tree))
        named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert named & banned == set(), name
    defined = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_integer_block"
    ]
    assert defined == ["parabolic.py"]


def test_sub_data_walked_in_one_place():
    """Proper sub-data are walked only in ``parabolic``: no other module
    names ``_bounded_compositions``, so the recursion's chamber key and the
    stability check read one threshold walk."""
    naming = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = set(_references(tree))
        named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if "_bounded_compositions" in named:
            naming.append(path.name)
    assert naming == ["parabolic.py"]



def test_recursion_fetches_in_one_place():
    """The recursion decides how deep each block series must reach only in
    ``_Recursor._compute``: ``_horner`` multiplies and certifies what it is
    given and names neither ``_series`` nor ``q_series``."""
    tree = ast.parse((SRC / "recursion.py").read_text(encoding="utf-8"))
    horner = [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "_Recursor"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "_horner"
    ]
    assert len(horner) == 1
    assert set(_references(horner[0])) & {"_series", "q_series"} == set()

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


HEAVY = ("dataclasses", "concurrent", "multiprocessing", "argparse")


def test_no_heavy_stdlib_imports():
    """Every parbetti process pays at start-up for what the package imports:
    no module imports dataclasses (which loads inspect, ast and dis), a
    process pool (sweeps run in the calling process) or argparse (the CLI
    parses its arguments from a table)."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name.split(".")[0] in HEAVY
    ]
    assert found == []


def test_src_reads_no_environment():
    """No setting comes from the environment: no module reads
    ``os.environ`` or ``os.getenv``, or imports either from ``os``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in names:
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in names]
    assert found == []


def _run_python(code, *args):
    """Standard output of ``python -c code args...`` with the package on the
    path."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_heavy_modules_unloaded():
    probe = (
        "import sys, parbetti.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'concurrent.futures', "
        "'multiprocessing') if m in sys.modules))"
    )
    assert _run_python(probe) == "[]\n"


_LOADED_AFTER = """
import contextlib, json, os, sys
import parbetti
loaded = [sorted(m for m in sys.modules if m.startswith("parbetti."))]
from parbetti.cli import main
with contextlib.redirect_stdout(open(os.devnull, "w")):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded.append(sorted(m for m in ("argparse", "decimal", "fractions", "numbers",
                               "parbetti.recursion", "parbetti.rank2")
                     if m in sys.modules))
print(json.dumps([codes, loaded]))
"""


def test_process_loads_only_what_its_command_runs(tmp_path):
    """``import parbetti`` loads no submodule; a process that runs a closed
    route, a sweep or a check never loads argparse, the recursion or the
    rank-2 route, and one that runs the recursion leaves the rank-2 route
    alone.  Only the rank-2 route loads ``fractions``, ``decimal`` and
    ``numbers``: on rank-3 data neither compare nor check does."""
    rank2, rank3 = tmp_path / "rank2.json", tmp_path / "rank3.json"
    for doc, weights in ((rank2, ["0", "1/3"]), (rank3, ["0", "1/5", "3/7"])):
        doc.write_text(json.dumps({
            "genus": 2,
            "degree": 1,
            "points": [{"weights": weights, "multiplicities": [1] * len(weights)}],
        }))
    doc = str(rank2)
    cases = [
        ([["compute", doc, "--method", "closed"], ["compute", doc, "--method", "qclosed"],
          ["sweep", doc], ["check", str(rank3)]],
         []),
        ([["compute", doc, "--method", "recursion"], ["compare", str(rank3)]],
         ["parbetti.recursion"]),
        ([["compute", doc, "--method", "rank2"]],
         ["decimal", "fractions", "numbers", "parbetti.rank2"]),
    ]
    for argvs, loaded in cases:
        out = _run_python(_LOADED_AFTER, json.dumps(argvs))
        assert json.loads(out) == [[0] * len(argvs), [[], loaded]]


def test_public_names_resolve_through_the_lazy_map():
    """Every name of ``__all__`` is the object of the module that the
    package's map names, and an unknown name is an AttributeError."""
    import parbetti

    assert sorted(parbetti.__all__) == sorted(parbetti._EXPORTS)
    for name in parbetti.__all__:
        module = importlib.import_module(f"parbetti.{parbetti._EXPORTS[name]}")
        assert getattr(parbetti, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        parbetti.no_such_name
    with pytest.raises(ImportError):
        exec("from parbetti import no_such_name", {})


def _references(tree):
    """How often each name is read or bound by a Name or Attribute node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_no_test_only_names_in_src():
    """Every module-level function and class of the package is used by the
    package, the benchmark or the demos; what only the tests use belongs in
    the tests.  A name's own definition does not count, and neither does
    the package's re-export: its name map, ``__all__`` and the PEP 562
    ``__getattr__`` that Python calls on attribute access."""
    root = SRC.parents[1]
    total = Counter()
    for folder in (SRC, root / "bench", root / "demos"):
        for path in sorted(folder.glob("*.py")):
            if path != SRC / "__init__.py":
                total += _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}: {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (path.name, node.name) != ("__init__.py", "__getattr__")
        and total[node.name] <= _references(node)[node.name]
    ]
    assert unused == []
