"""Every module under src/icm uses each name it imports, and every private
top-level name defined under src/icm is used somewhere in src/icm.

Package `__init__.py` files are exempt from the import check (their imports
are re-exports), and so are `from __future__` imports.  No module but
`feasibility.py` itself imports the LP solver, so no production path solves
an LP.  No module refers to `closed_supersets`, the antichain walk, but in
its own definition, so no library query walks antichains.  Only `ideals`
and `newton` build ideals without MonomialIdeal's checks, only `newton`
holds a cache, and only `parsing` writes an IdealDocument.  Every console script named in pyproject.toml
resolves to a callable entry point.

Start-up: a fresh `import icm` loads no submodule, and a fresh `import
icm.cli` loads neither `dataclasses` nor the modules only some commands
run (`newton`, `monoid`, `polytopes`, `properties`, `feasibility`), while
every public name still resolves to its home module's object.  Running a
command loads only what it runs: `ord`, `colon` and a parse error load
neither `newton` nor `monoid`, and `closure`, `closed?`, `decompose2d`,
`phi` and `colon-factor` do not load `monoid`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os\nfrom sys import argv, path\nprint(path)\n"
    assert unused_imports(source) == [(1, "os"), (2, "argv")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source):
    """Last dotted part of every module a source imports, or imports from."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module)
            else:  # from . import name
                names.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in names}


def test_detects_an_import_of_feasibility():
    for source in ("from .feasibility import feasible_nonneg\n",
                   "from . import feasibility\n",
                   "import icm.feasibility\n"):
        assert "feasibility" in imported_modules(source), source
    assert "feasibility" not in imported_modules("from .newton import member\n")


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "feasibility.py"],
                         ids=lambda p: p.name)
def test_no_lp_in_production(path):
    """Only the test oracles solve LPs; the library reads every polyhedral
    answer off the facet description."""
    assert "feasibility" not in imported_modules(
        path.read_text(encoding="utf-8"))


def references(source, name):
    """Lines of a source that refer to name, outside its own definition."""
    tree = ast.parse(source)
    own = {id(node) for stmt in tree.body if name in _defined_names(stmt)
           for node in ast.walk(stmt)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if id(node) not in own and name in (
                      getattr(node, "id", None), getattr(node, "attr", None),
                      node.name if isinstance(node, ast.alias) else None))


def test_detects_a_reference_to_the_walk():
    source = ("def closed_supersets(I):\n    return closed_supersets(I)\n"
              "def split(I):\n    return next(closed_supersets(I))\n"
              "from .monoid import closed_supersets as walk\n"
              "import icm.monoid\nicm.monoid.closed_supersets(I)\n")
    assert references(source, "closed_supersets") == [4, 5, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_antichain_walk_in_production(path):
    """closed_supersets walks every antichain of a box complement; the
    tests list closed ideals with it, and divisor searches read NP(I)'s
    vertices instead."""
    assert references(path.read_text(encoding="utf-8"),
                      "closed_supersets") == []


def test_detects_a_reference_to_the_unchecked_constructor():
    source = ("from .ideals import _sorted_antichain as build\n"
              "import icm.ideals\n"
              "icm.ideals._sorted_antichain(2, gens)\n")
    assert references(source, "_sorted_antichain") == [1, 3]
    assert references("MonomialIdeal(2, gens)\n", "_sorted_antichain") == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name not in ("ideals.py", "newton.py")],
                         ids=lambda p: p.name)
def test_unchecked_ideals_only_from_walks(path):
    """_sorted_antichain skips MonomialIdeal's checks; only ideals (colon,
    the translation shift) and newton (every closure, by _lattice_ideal)
    build ideals that are sorted antichains by proof, so every other
    module goes through the checks."""
    assert references(path.read_text(encoding="utf-8"),
                      "_sorted_antichain") == []


def test_detects_a_cache():
    for source in ("from functools import lru_cache\n",
                   "import functools\n@functools.lru_cache(maxsize=None)\n"
                   "def f(x):\n    return x\n"):
        assert references(source, "lru_cache"), source
    assert references("from functools import reduce\n", "lru_cache") == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "newton.py"],
                         ids=lambda p: p.name)
def test_one_cache_in_production(path):
    """newton's facet cache, bounded in entries, is the package's only
    cache, so a long-lived process holds no other memory that grows with
    the queries it has answered."""
    assert references(path.read_text(encoding="utf-8"), "lru_cache") == []


def document_displays(source):
    """Lines of a source that build a dict display keyed "gens" or
    "vars", that is, write an IdealDocument by hand."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Dict) and any(
                      isinstance(key, ast.Constant)
                      and key.value in ("gens", "vars") for key in node.keys))


def test_detects_a_document_display():
    source = ('doc = {"gens": [list(g) for g in gens]}\n'
              'out = {"count": 1, "f": [{"vars": "2", "gens": []}]}\n'
              'gens = doc["gens"]\n'
              '__slots__ = ("dim", "gens")\n'
              'other = {"dim": 2, **rest}\n')
    assert document_displays(source) == [1, 2]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "parsing.py"],
                         ids=lambda p: p.name)
def test_one_document_writer(path):
    """parsing.ideal_to_document is the only writer of an IdealDocument,
    so every ideal a command prints has both keys and reads back."""
    assert document_displays(path.read_text(encoding="utf-8")) == []


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def orphaned_private_names(sources):
    """Top-level `_name`s (dunders aside) that no code outside their own
    definition refers to, across all the given module sources."""
    bodies = [ast.parse(source).body for source in sources]
    defined = {name: stmt for body in bodies for stmt in body
               for name in _defined_names(stmt)
               if name.startswith("_") and not name.startswith("__")}
    referenced = set()
    for stmt in (stmt for body in bodies for stmt in body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if defined.get(name) is not stmt:
                referenced.add(name)
    return sorted(set(defined) - referenced)


def test_detects_an_orphaned_private_name():
    helpers = ("_LIMIT = 3\n_UNUSED = 4\n"
               "def _used(n):\n    return n < _LIMIT\n"
               "def _recursive(n):\n    return _recursive(n - 1)\n"
               "class _Orphan:\n    pass\n")
    user = "from helpers import _used\nprint(_used(2))\n"
    assert orphaned_private_names([helpers, user]) == [
        "_Orphan", "_UNUSED", "_recursive"]


def test_no_orphaned_private_names():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))]
    assert orphaned_private_names(sources) == []


def test_console_script_targets_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, function = target.split(":")
        main = getattr(importlib.import_module(module), function)
        assert main(["ord", "x"]) == 0


# ---------------------------------------------------------------------------
# Start-up: what a fresh process loads

# Every name icm/__init__.py bound when it imported its submodules eagerly,
# by home module.
PUBLIC = {
    "errors": ["BudgetExceededError", "DimensionMismatchError",
               "IdealParseError", "NotIntegrallyClosedError",
               "NotStarMultipleError", "SearchBudget"],
    "ideals": ["MonomialIdeal", "colon", "contains", "intersection",
               "minimalize", "normalize_translation", "ord_valuation",
               "principal_ideal", "product", "translate", "unit_ideal"],
    "newton": ["NewtonPolyhedron", "integral_closure", "is_integrally_closed",
               "member", "mink_sum", "np_equal", "np_of", "reduce_points",
               "vertices"],
    "monoid": ["Factorization", "all_factorizations", "divides",
               "factor_atoms", "is_star_irreducible", "quotient_cancel",
               "star", "star_power"],
    "polytopes": ["BasisElement", "ColonFactorization", "IdealClassElement",
                  "IntegralPolytope", "PolytopeGroupElement", "basis_segment",
                  "basis_triangle", "class_equal", "class_equal_ideal",
                  "colon_factorization_2d", "decompose_2d",
                  "edge_vector_counts", "group_add", "group_element",
                  "group_negate", "height", "hull", "ideal_class",
                  "ideal_to_polytope", "p_mink_sum", "phi", "phi_group",
                  "shadow"],
    "parsing": ["parse_ideal", "render_ideal"],
}
# newton, monoid, polytopes and properties load only with the commands
# that run them, feasibility only with the test oracles, dataclasses never.
NOT_AT_CLI_START = {"dataclasses", "icm.newton", "icm.monoid",
                    "icm.polytopes", "icm.properties", "icm.feasibility"}


def modules_after(statements):
    """Every module a fresh interpreter has loaded once it has run the
    statements, with this checkout's package first on its path."""
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    probe = statements + "\nimport sys\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return set(proc.stdout.split())


def test_detects_a_loaded_module():
    loaded = modules_after("import dataclasses\nimport icm.polytopes")
    assert {"dataclasses", "icm.polytopes", "icm.newton"} <= loaded
    assert "icm.polytopes" not in modules_after("pass")
    with pytest.raises(subprocess.CalledProcessError):
        modules_after("import icm.no_such_module")


def test_cli_start_loads_only_what_every_command_needs():
    loaded = modules_after("import icm.cli")
    assert "icm.cli" in loaded
    assert loaded & NOT_AT_CLI_START == set()


# Commands, a parse error among them, and the modules each must not load.
NOT_LOADED_BY = [
    (["ord", "x^2,y"], {"icm.newton", "icm.monoid"}),
    (["colon", "x^2,x*y,y^2", "x,y"], {"icm.newton", "icm.monoid"}),
    (["closure", "x^2,y^"], {"icm.newton", "icm.monoid"}),
    (["closure", "x^2,y^2"], {"icm.monoid"}),
    (["closed?", "x^2,x*y,y^2"], {"icm.monoid"}),
    (["decompose2d", "0,0; 1,0; 0,1"], {"icm.monoid"}),
    (["phi", "2,0; 0,3"], {"icm.monoid"}),
    (["colon-factor", "x^2,x*y^2,y^3"], {"icm.monoid"}),
]


@pytest.mark.parametrize("argv, absent", NOT_LOADED_BY,
                         ids=[" ".join(argv) for argv, _ in NOT_LOADED_BY])
def test_command_loads_only_what_it_runs(argv, absent):
    """A command's process loads newton and monoid only when it runs
    them.  main's JSON goes to a buffer, so the probe prints only the
    module list."""
    loaded = modules_after("import contextlib, io\nfrom icm.cli import main\n"
                           "with contextlib.redirect_stdout(io.StringIO()):\n"
                           f"    main({argv!r})")
    assert "icm.cli" in loaded
    assert loaded & absent == set()


def test_bare_import_loads_no_submodule():
    loaded = modules_after("import icm")
    assert "icm" in loaded
    assert {m for m in loaded if m.startswith("icm.")} == set()


def test_submodule_attribute_after_bare_import():
    loaded = modules_after("import icm\nassert icm.newton.np_of")
    assert "icm.newton" in loaded
    assert "icm.polytopes" not in loaded


def test_public_names_resolve_to_their_home_module():
    icm = importlib.import_module("icm")
    listed = dir(icm)
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"icm.{home}")
        for name in names:
            assert getattr(icm, name) is getattr(module, name), name
            assert name in icm.__all__ and name in listed, name


def test_unknown_name_raises_attribute_error():
    icm = importlib.import_module("icm")
    with pytest.raises(AttributeError, match="no_such_name"):
        icm.no_such_name
    with pytest.raises(ImportError):
        exec("from icm import no_such_name", {})
