"""Source hygiene checks that need no extra tools."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "parmm"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_scan_finds_unused_names():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.zeros(1), tau)\n"
    assert unused_imports(src) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# numpy is parmm's one dependency: these cost most of the import time
HEAVY = ("scipy", "numpy.polynomial")


def is_heavy(name: str) -> bool:
    """Whether the dotted name is a HEAVY module or lies inside one."""
    return any(name == m or name.startswith(m + ".") for m in HEAVY)


def heavy_imports(source: str) -> list[int]:
    """Line numbers of the absolute imports that load a HEAVY module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(is_heavy(a.name) for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if any(is_heavy(f"{node.module}.{a.name}") for a in node.names):
                lines.append(node.lineno)
    return lines


def test_heavy_import_scan_finds_imports():
    src = (
        "import scipy\nimport numpy as np, scipy.special as sp\nfrom scipy.special import expit\n"
        "from numpy.polynomial import Polynomial\nfrom numpy import polynomial\nimport scipyx\n"
        "def f():\n    from scipy import integrate\n    from . import scipy\n"
    )
    assert heavy_imports(src) == [1, 2, 3, 4, 5, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_heavy_imports(path):
    assert heavy_imports(path.read_text()) == []


def test_import_leaves_heavy_modules_unloaded():
    # a fresh process, so no other test's imports count
    code = "import sys, parmm; print(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert [m for m in ast.literal_eval(out.stdout) if is_heavy(m)] == []


# checks in these modules raise typed errors: `python -O` strips `assert`
ASSERT_FREE = ["cli.py", "convex_core.py", "engine.py", "equivalence.py", "generators.py", "two_asset.py"]


def assert_lines(source: str) -> list[int]:
    """Line numbers of the `assert` statements in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_scan_finds_assert_statements():
    src = "def f(x):\n    assert x, 'msg'\n    if x:\n        assert x > 0\n    return AssertionError\n"
    assert assert_lines(src) == [2, 4]


@pytest.mark.parametrize("name", ASSERT_FREE)
def test_no_assert_statements(name):
    assert assert_lines((SRC / name).read_text()) == []


# besides a ParmmError, a raise may name these: an abstract method's error,
# and TypeError for a call that misuses the API
OTHER_RAISES = {"NotImplementedError", "TypeError"}


def untyped_raises(source: str, typed: set[str]) -> list[int]:
    """Line numbers of the `raise` statements that name neither a class in
    `typed` nor one in OTHER_RAISES; a bare `raise` re-raises and passes."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in typed | OTHER_RAISES):
                lines.append(node.lineno)
    return sorted(lines)


def test_raise_scan_finds_untyped_raises():
    src = (
        "def f(x):\n    if x:\n        raise ValueError(x)\n    try:\n        g()\n    except KeyError as e:\n"
        "        raise E(x) from e\n    except OSError as e:\n        raise e\n    except Exception:\n"
        "        raise\n    raise NotImplementedError\n    raise mod.E(x)\n    raise TypeError('x')\n"
    )
    assert untyped_raises(src, {"E"}) == [3, 9, 13]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_names_a_typed_error(path):
    # callers catch ParmmError; anything else is a traceback
    from parmm import errors

    typed = {name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.ParmmError)}
    assert untyped_raises(path.read_text(), typed) == []


def private_definitions(source: str) -> set[str]:
    """Module-level private names: `_x` functions, classes and constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    """Names a module loads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_private_name_scan_finds_unread_names():
    src = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A + mod._g\nclass _C:\n    pass\n"
    assert private_definitions(src) - names_read(src) == {"_B", "_f", "_C"}


def test_every_private_name_is_read():
    # a dead helper left behind by a refactor fails here
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    read = set().union(*map(names_read, sources.values()))
    unread = {name: sorted(private_definitions(s) - read) for name, s in sources.items()}
    assert {name: names for name, names in unread.items() if names} == {}


TESTS = Path(__file__).resolve().parent
README = SRC.parents[1] / "README.md"


def round_trip_families(source: str) -> set[str]:
    """The family part of each `FAMILIES` key, spelled `family` or
    `family-variant`, in a test module."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["FAMILIES"]:
            return {key.value.split("-")[0] for key in node.value.keys}
    return set()


def readme_families(text: str) -> set[str]:
    """The names in backticks in the README paragraph "Generator families: ..."."""
    para = text[text.index("Generator families:"):].split("\n\n")[0]
    return set(re.findall(r"`(\w+)`", para))


def test_family_scans_read_their_sources():
    assert round_trip_families('FAMILIES = {"a-n2": f, "a-n3": f, "b": g}\nOTHER = {"c": h}\n') == {"a", "b"}
    assert readme_families("x `y`\n\nGenerator families: `a`, `b` (and\n`c`).\n\nNot `d`.\n") == {"a", "b", "c"}


def test_descriptor_families_are_loaded_tested_and_documented():
    # a family added to the descriptor table needs a round trip and a README entry
    from parmm.generators import _BUILDERS

    loaded = set(_BUILDERS)
    tested = round_trip_families((TESTS / "test_generators.py").read_text())
    documented = readme_families(README.read_text())
    assert loaded == tested == documented


def test_each_curve_family_writes_its_second_derivative_once():
    # g'' lives in slope_curvature alone, and g' in dg and slope_curvature:
    # a second copy (d2g, slope) drifts when one copy is mended and not the other
    from parmm import generators

    classes = [c for c in vars(generators).values() if isinstance(c, type) and c.__module__ == generators.__name__]
    curves = {c for c in classes if issubclass(c, generators.Curve1D) and c is not generators.Curve1D}
    built = {b for b in generators._CURVES.values() if isinstance(b, type) and issubclass(b, generators.Curve1D)}
    assert built and built <= curves
    assert sorted(c.__name__ for c in curves if "slope_curvature" not in vars(c)) == []
    assert sorted((c.__name__, m) for c in classes for m in ("d2g", "slope") if m in vars(c)) == []


# one rule per input kind, written once, beside the errors it raises: a copy
# elsewhere drifts apart from it, as four "is this a number" checks once did
CHECKS = {"_check_number", "_check_integer", "_check_index", "_check_amount", "_floats", "_shaped", "_bundle"}


def check_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for each name a module imports that is a check:
    `_check*`, `_floats`, `_shaped` or `_bundle`."""
    return [(node.module or "", a.name) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for a in node.names if a.name.startswith("_check") or a.name in CHECKS]


def test_check_import_scan_finds_imported_checks():
    src = ("from .engine import MarketState, _check_rate\nfrom .errors import UnknownKind, _floats\n"
           "def f():\n    from parmm.engine import _bundle\n")
    assert check_imports(src) == [("engine", "_check_rate"), ("errors", "_floats"), ("parmm.engine", "_bundle")]


def test_the_argument_checks_are_defined_in_errors_and_imported_from_there():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    defined = {name: sorted(CHECKS & private_definitions(s)) for name, s in sources.items()}
    assert {name: checks for name, checks in defined.items() if checks} == {"errors.py": sorted(CHECKS)}
    imported = {name: [m for m, _ in check_imports(s) if m not in ("errors", "parmm.errors")]
                for name, s in sources.items()}
    assert {name: modules for name, modules in imported.items() if modules} == {}


def test_one_descriptor_writes_every_family_from_one_table_of_field_kinds():
    # `descriptor()` is written once, on Generator, from the fields recorded
    # at build; BucketCurve's adds only its shorthand name.  Each field name a
    # builder takes has one kind, so one rule checks it in every family
    from parmm import generators

    classes = [c for c in vars(generators).values() if isinstance(c, type) and c.__module__ == generators.__name__]
    assert sorted(c.__name__ for c in classes if "descriptor" in vars(c)) == ["BucketCurve", "Generator"]
    fields = {name for build in generators._BUILDERS.values() for name in inspect.signature(build).parameters}
    assert fields == set(generators._KINDS)


def eps_readers(source: str) -> list[str]:
    """The top-level functions and classes of a module that read `EPS`, and
    "<module>" if its top-level statements do."""
    readers = []
    for node in ast.parse(source).body:
        if any(isinstance(n, ast.Name) and n.id == "EPS" and isinstance(n.ctx, ast.Load) for n in ast.walk(node)):
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            readers.append(node.name if named else "<module>")
    return readers


def test_eps_scan_finds_readers():
    src = ("from .core import EPS\nLO = EPS\ndef f(p):\n    return p > EPS\ndef g(EPS):\n    return 0\n"
           "class C:\n    def h(self):\n        return EPS\n")
    assert eps_readers(src) == ["<module>", "f", "C"]


def test_the_price_clamp_is_read_where_prices_are_checked():
    # `simplex_price` is the one price rule: a second clamp test elsewhere
    # can disagree with it about the same price
    sources = {p.name: p.read_text() for p in MODULES if p.name != "convex_core.py"}
    readers = {name: eps_readers(s) for name, s in sources.items()}
    assert {name: names for name, names in readers.items() if names} == {"engine.py": ["_simplex_grid"]}


def grad_calls(source: str) -> list[int]:
    """Line numbers of the calls to a method named `grad` in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "grad"]


def test_grad_call_scan_finds_calls():
    src = "def f(G, p):\n    q = G.grad(p)\n    grad = G.grad\n    return q + self.inner.grad(p) + grad(p)\n"
    assert grad_calls(src) == [2, 4]


def test_the_market_layers_read_liabilities_only_through_liability_of():
    # `liability_of` checks a price once for a whole batch of LPs; a `.grad(`
    # in these modules would be an LP liability with no price check
    calls = {name: grad_calls((SRC / name).read_text()) for name in ("engine.py", "two_asset.py", "cli.py")}
    assert {name: lines for name, lines in calls.items() if lines} == {}


# the LP book: its generators and its liability and fee arrays, row i for LP i
BOOK = {"_generators", "_liabilities", "_cash_fees", "_bundle_fees"}


def _book_target(target) -> bool:
    """Whether an assignment target is a book attribute, an item of one, or
    holds one in a tuple or list."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_book_target(t) for t in target.elts)
    if isinstance(target, (ast.Starred, ast.Subscript)):
        return _book_target(target.value)
    return isinstance(target, ast.Attribute) and target.attr in BOOK


def book_writes(source: str) -> list[int]:
    """Line numbers of the assignments to a book attribute (`x._liabilities`
    and the like) or into one."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_book_target(t) for t in targets):
                lines.append(node.lineno)
    return sorted(lines)


def test_book_write_scan_finds_writes():
    src = ("def f(st, G):\n    st._liabilities = st._liabilities + 1\n    st._generators[0] = G\n"
           "    a, st._cash_fees = 1, 2\n    st._bundle_fees += 1\n    q = st._liabilities\n"
           "    st.price = q[st._cash_fees]\n    self._generators: list = []\n")
    assert book_writes(src) == [2, 3, 4, 5, 8]


def test_only_the_engine_writes_the_lp_book():
    # the engine replaces an array instead of writing into it and drops its
    # caches when a generator changes; a write from elsewhere would skip both
    writes = {p.name: book_writes(p.read_text()) for p in MODULES}
    assert sorted(name for name, lines in writes.items() if lines) == ["engine.py"]


def fee_float_tests(source: str) -> list[int]:
    """Line numbers of the calls `isinstance(x, float)` (float alone or in a
    tuple) whose x names a fee: a name or attribute containing "fee"."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2):
            continue
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        names = [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[0])
                 if isinstance(n, (ast.Name, ast.Attribute))]
        if any(isinstance(k, ast.Name) and k.id == "float" for k in kinds) and any("fee" in n for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_fee_float_scan_finds_calls():
    src = ("cash = [isinstance(fee, float) for fee in fees]\nisinstance(r.lp_fees[0], (int, float))\n"
           "isinstance(v, float)\nisinstance(fee, np.ndarray)\nisinstance(trader_fee, np.floating)\n")
    assert fee_float_tests(src) == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fee_kind_is_read_from_a_python_type(path):
    # a fee's kind is the shape of the receipt's fee array, (k,) cash or
    # (k, n) bundles; a float test breaks when a cash fee is a numpy float
    assert fee_float_tests(path.read_text()) == []
