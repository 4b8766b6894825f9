"""Every exported name resolves, and so does every layer the benchmark traces."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import toruslie

MODULES = sorted(m.name for m in pkgutil.iter_modules(toruslie.__path__))
SRC = Path(toruslie.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _traced_targets():
    """(module, attribute) pairs of the TARGETS tuple in bench/spans.py."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(module, attr) for module, attr, *_ in ast.literal_eval(node.value)]
    raise AssertionError("bench/spans.py defines no TARGETS tuple")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"toruslie.{module}")
    names = mod.__all__
    assert len(names) == len(set(names)), "duplicate __all__ entries"
    missing = [n for n in names if not hasattr(mod, n)]
    assert not missing


@pytest.mark.skipif(not SPANS.is_file(), reason="benchmark sources not present")
def test_traced_targets_resolve():
    targets = _traced_targets()
    assert targets
    for module, attr in targets:
        obj = importlib.import_module(f"toruslie.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"toruslie.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"toruslie.{module}.{attr}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_unused_import_is_found():
    assert _unused_imports("import math\nfrom fractions import Fraction\nmath.pi\n") == ["Fraction"]
    assert _unused_imports("import os.path\nos.sep\n") == []


#: the demos and test files, by their path from the repository root
SCRIPTS = sorted(f"{d}/{p.name}" for d in ("demos", "tests") for p in (ROOT / d).glob("*.py"))


@pytest.mark.parametrize("module", MODULES + SCRIPTS)
def test_no_unused_imports(module):
    path = ROOT / module if module in SCRIPTS else SRC / f"{module}.py"
    assert _unused_imports(path.read_text()) == []


def _dead_private_names(sources: dict) -> list[str]:
    """Module-level ``_name`` definitions of the modules (name -> source)
    that no module reads, as "module._name"."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}.{n}" for n in names
                     if n.startswith("_") and not n.startswith("__") and n not in read]
    return sorted(dead)


def test_dead_private_name_is_found():
    sources = {"a": "_TABLE = {}\n_used = 1\ndef _helper():\n    return _used\n",
               "b": "from .a import _helper\n_helper()\n"}
    assert _dead_private_names(sources) == ["a._TABLE"]


def test_no_dead_private_names():
    assert _dead_private_names({m: (SRC / f"{m}.py").read_text() for m in MODULES}) == []


def _rounding_calls(sources: dict) -> list[str]:
    """Each call of np.floor or np.round in the modules (name -> source), as
    "module.np.floor" or "module.np.round"."""
    return sorted(
        f"{module}.np.{node.func.attr}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("floor", "round")
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
    )


def test_rounding_call_is_found():
    sources = {"a": "np.floor(x)\nround(y)\nmath.floor(y)\n", "b": "np.round(z)\nnp.floor\n"}
    assert _rounding_calls(sources) == ["a.np.floor", "b.np.round"]


def test_one_centring_site():
    # every fold and centring of a point goes through lattice.py
    sources = {m: (SRC / f"{m}.py").read_text() for m in MODULES}
    assert {call.split(".")[0] for call in _rounding_calls(sources)} == {"lattice"}


def _unset_defaults(defining: dict, calling: list) -> list[str]:
    """Defaulted parameters of the functions in the ``defining`` sources
    (module -> source) that no call in the ``calling`` sources passes, by
    keyword or by position, as "function.parameter".  A call is matched by
    the called name alone (a class name stands for its ``__init__``), and a
    ``*args`` or ``**kwargs`` in it passes everything."""
    defaulted = []  # (called name, parameter, positional index or None)
    for tree in map(ast.parse, defining.values()):
        # a method is called without its self, and __init__ by the class name
        methods = {id(f): c.name if f.name == "__init__" else f.name
                   for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            name, skip = methods.get(id(f), f.name), id(f) in methods
            a = f.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted += [(name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            defaulted += [(name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
    passed = set()  # (called name, parameter, positional index, "*" or "**")
    for tree in map(ast.parse, calling):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            passed |= {(name, "*") for a in node.args if isinstance(a, ast.Starred)}
            passed |= {(name, k.arg or "**") for k in node.keywords}
            passed |= {(name, i) for i in range(len(node.args))}
    return sorted(
        f"{name}.{p}" for name, p, i in defaulted
        if not {(name, p), (name, "**"), (name, i)} & passed
        and not (i is not None and (name, "*") in passed)
    )


def test_unset_default_is_found():
    defining = {"a": "def f(x, y=1, *, z=2):\n    pass\n"
                     "class C:\n    def __init__(self, u=0):\n        pass\n"
                     "    def m(self, v=0, w=0):\n        pass\n"}
    assert _unset_defaults(defining, ["f(0, 1)\nC()\nc.m(1)\n"]) == ["C.u", "f.z", "m.w"]
    assert _unset_defaults(defining, ["f(0, z=1)\nC(*a)\nc.m(**k)\n"]) == ["f.y"]


def test_every_default_is_set_outside_the_tests():
    root = SRC.parents[1]
    callers = [*root.glob("src/**/*.py"), *root.glob("demos/*.py"), *root.glob("bench/*.py"),
               root / "tests" / "test_acceptance.py"]
    defining = {m: (SRC / f"{m}.py").read_text() for m in MODULES}
    assert _unset_defaults(defining, [p.read_text() for p in callers]) == []


#: the functools decorators that keep results
_CACHING = {"cache", "lru_cache", "cached_property"}


def _cached_definitions(sources: dict) -> tuple[list, list]:
    """The definitions in the modules (name -> source) that a functools
    cache keeps results of: (module-level functions as "module.name", every
    other one as "module.Class.name" or "module.outer.name", with each
    cache made by a call outside a decorator as "module:line")."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    top, inner = [], []

    def visit(body, prefix, at_top):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                label = f"{prefix}.{node.name}"
                if any(name(d) in _CACHING for d in node.decorator_list):
                    (top if at_top else inner).append(label)
                visit(node.body, label, False)

    for module, source in sources.items():
        tree = ast.parse(source)
        visit(tree.body, module, True)
        decorators = {id(d) for n in ast.walk(tree) for d in getattr(n, "decorator_list", ())}
        inner += [f"{module}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Call)
                  and name(n) in _CACHING and id(n) not in decorators]
    return sorted(top), sorted(inner)


def test_cached_definition_is_found():
    source = ("@lru_cache(maxsize=4)\ndef f(x):\n    return x\n"
              "@functools.cache\ndef g():\n    @cache\n    def h():\n        pass\n"
              "class C:\n    @cached_property\n    def p(self):\n        pass\n"
              "k = lru_cache(len)\n")
    assert _cached_definitions({"a": source}) == (["a.f", "a.g"], ["a.C.p", "a.g.h", "a:13"])


def test_every_cache_is_cleared_through_its_module():
    # the benchmark's cold mode empties each module attribute with a
    # cache_clear; a per-instance memo lives as long as its object
    top, inner = _cached_definitions({m: (SRC / f"{m}.py").read_text() for m in MODULES})
    assert inner == ["torusgroup.GroupEmbedding.quotient"]
    assert {"torusgroup.branch_points", "sl2rep.standard_rep", "normalform._orbit_points",
            "intertwine._phi_data", "intertwine._psi_data"} <= set(top)
    for label in top:
        module, attr = label.split(".")
        assert callable(getattr(importlib.import_module(f"toruslie.{module}"), attr).cache_clear)
