"""Design rules of the package that no behaviour test sees."""

import ast
import gc
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coupledrpp import checks, coupling, partitions, rpp_core, vertex_model

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coupledrpp"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str, siblings) -> list[str]:
    """Every `_private` name of a sibling module that `source` imports, or
    reads as an attribute of a name bound to a sibling module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != "coupledrpp":
                    continue
                path = path[1:]
            for alias in node.names:
                if _private(alias.name):
                    found.append(".".join([*path, alias.name]))
                elif not path and alias.name in siblings:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "coupledrpp" and len(path) == 2 and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_scan_finds_private_names():
    source = ("from . import coupling, rpp_core as core\n"
              "from .render import _polygon, pair_svg\n"
              "from coupledrpp.sliding import _private_helper\n"
              "import coupledrpp.vertex_model as vm\n"
              "coupling._live_moves, core.__name__, core.shape_geometry\n"
              "vm._ALLOWED, other._hidden\n")
    siblings = {"coupling", "rpp_core", "render", "sliding", "vertex_model"}
    assert private_reads(source, siblings) == [
        "render._polygon", "sliding._private_helper", "coupling._live_moves",
        "vm._ALLOWED"]


def test_no_module_reads_a_private_name_of_a_sibling():
    files = sorted(PACKAGE.glob("*.py"))
    siblings = {path.stem for path in files}
    assert {"coupling", "render", "vertex_model"} <= siblings
    found = {path.name: private_reads(path.read_text(), siblings) for path in files}
    assert {name: names for name, names in found.items() if names} == {}


def unused_imports(source: str) -> list[str]:
    """Every name that `source` binds by an import and never reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    source = ("from __future__ import annotations\n"
              "import json, os.path\n"
              "from .partitions import normalize as norm, part\n"
              "from .rpp_core import shape_geometry  # noqa: F401\n"
              "norm(json.loads('[]'))\n")
    assert unused_imports(source) == ["os", "part", "shape_geometry"]
    # the package's __init__ imports in order to re-export
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_public_names(sources) -> list[str]:
    """Every public top-level function or class, and public method of a
    top-level class, defined in `sources` whose name no source reads."""
    trees = [ast.parse(source) for source in sources]
    defined, read = [], set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [qualified for qualified, name in defined if name not in read]


def test_every_public_name_is_referenced_in_the_package():
    source = ("class Series:\n"
              "    def add(self): pass\n"
              "    def spare(self): pass\n"
              "    def __hash__(self): pass\n"
              "def used(): return Series().add()\n"
              "def unused(): pass\n"
              "def _private(): pass\n"
              "unused = used()\n")
    assert unreferenced_public_names([source]) == ["Series.spare", "unused"]
    # what only the re-exports of __init__ or the tests reach is dead code
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name not in ("__init__.py", "__main__.py")]
    assert len(sources) >= 9
    assert unreferenced_public_names(sources) == []


def _start_up_modules() -> set[str]:
    """The modules loaded once the CLI has imported and built its parser.
    -S: only the package's own imports are counted."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import coupledrpp.cli as cli; "
            "cli.build_parser(); print(*sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_cli_start_up_loads_no_introspection_modules():
    # dataclasses pulls in inspect (and with it ast, dis and tokenize) at
    # import; the records are named tuples so that every command starts
    # without them.
    assert {"dataclasses", "inspect"} & _start_up_modules() == set()


def test_cli_start_up_loads_no_fractions():
    # only `ybe` and `verify-all` compute with Fraction; they import it
    # where they use it, and `vertex_model.YBE_SAMPLES` is built on first read
    assert {"fractions", "decimal"} & _start_up_modules() == set()
    assert vertex_model.YBE_SAMPLES[2][0] == (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))


def _fresh_pairs():
    """Pairs of fillings of small shapes with nothing derived kept yet."""
    return [coupling.make_pair(rpp_core.RPP(blue.shape, blue.rows),
                               rpp_core.RPP(red.shape, red.rows))
            for lam in partitions.all_partitions(4) if lam
            for blue, red in rpp_core.enumerate_pairs(lam, 4)]


def _refuse(*args):
    raise AssertionError("read by the other g route")


def test_the_two_g_routes_read_apart(monkeypatch):
    # the lozenge count reads no vertex row masks, the vertex t-degree no
    # lozenge masks; both read the fillings' interface masks
    want = [coupling.g_via_vertex(pair) for pair in _fresh_pairs()]
    assert sum(want) > 0
    with monkeypatch.context() as patch:
        patch.setattr(vertex_model, "row_masks", _refuse)
        with pytest.raises(AssertionError, match="other g route"):
            coupling.g_via_vertex(_fresh_pairs()[-1])
        assert [coupling.g_via_lozenges(pair) for pair in _fresh_pairs()] == want
    with monkeypatch.context() as patch:
        patch.setattr(coupling, "_lozenge_masks", _refuse)
        with pytest.raises(AssertionError, match="other g route"):
            coupling.g_via_lozenges(_fresh_pairs()[-1])
        assert [coupling.g_via_vertex(pair) for pair in _fresh_pairs()] == want


@pytest.mark.parametrize("call", [
    lambda: list(rpp_core.enumerate_rpps((3, 2, 1), 6)),
    lambda: list(rpp_core.next_slices((3, 1), rpp_core.PRECEQ, 3, 6)),
    lambda: list(partitions.partitions_of(6)),
    lambda: coupling.pair_genfun_transfer((3, 2, 1), 8),
    checks.run_all,
], ids=["enumerate_rpps", "next_slices", "partitions_of", "pair_genfun_transfer",
        "run_all"])
def test_no_call_leaves_cyclic_garbage(call):
    # what a call builds is freed by reference counting, so the cyclic
    # collector finds nothing to free after it
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
