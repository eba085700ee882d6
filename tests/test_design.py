"""Design rules of the package that no behaviour test sees."""

import ast
import gc
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coupledrpp import checks, coupling, partitions, rpp_core, sliding, vertex_model

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


def declared_fields(sources, names) -> list[str]:
    """Every `Class.field` among `names` that a class of `sources` declares
    with an annotation in its body, as a named tuple's fields are."""
    return [f"{node.name}.{item.target.id}"
            for tree in map(ast.parse, sources) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            and item.target.id in names]


def test_only_the_shape_geometry_holds_the_pattern_and_the_centres():
    source = ("class Geometry(NamedTuple):\n"
              "    pattern: tuple\n"
              "    zetas: tuple\n"
              "class Chain:\n"
              "    slices: tuple\n"
              "    pattern: tuple = ()\n"
              "    def f(self): zetas: int = 0\n")
    assert declared_fields([source], {"pattern", "zetas"}) == [
        "Geometry.pattern", "Geometry.zetas", "Chain.pattern"]
    # the row pattern and the interface centres belong to the shape: a
    # filling's chain or configuration reads them off `shape_geometry`
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert declared_fields(sources, {"pattern", "zetas"}) == [
        "ShapeGeometry.pattern", "ShapeGeometry.zetas"]


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


def stack_walks(source: str, module: str) -> list[str]:
    """Every function of `source` that runs a `while` loop over a stack of
    iterators: `while stack:` iterating `stack[-1]` and popping `stack`."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        loops = [node for node in ast.walk(fn) if isinstance(node, ast.While)
                 and isinstance(node.test, ast.Name)]
        for loop in loops:
            stack, inner = loop.test.id, list(ast.walk(loop))
            iterates = any(isinstance(node, ast.For) and isinstance(node.iter, ast.Subscript)
                           and isinstance(node.iter.value, ast.Name)
                           and node.iter.value.id == stack for node in inner)
            pops = any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "pop" and isinstance(node.func.value, ast.Name)
                       and node.func.value.id == stack for node in inner)
            if iterates and pops:
                found.append(f"{module}.{fn.name}")
                break
    return found


def test_one_function_walks_the_slice_chain_tree():
    source = ("def walk(todo):\n"
              "    while todo:\n"
              "        for x in todo[-1]:\n"
              "            todo.append(iter(()))\n"
              "            break\n"
              "        else:\n"
              "            todo.pop()\n"
              "def drain(items):\n"
              "    while items:\n"
              "        items.pop()\n"
              "def scan(rows):\n"
              "    while rows:\n"
              "        for x in rows[-1]:\n"
              "            return x\n")
    assert stack_walks(source, "m") == ["m.walk"]
    # enumeration, the q-exponent walk and the g = 0 pair walk pass their
    # moves to `rpp_core.walk`; none keeps a stack of its own
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in stack_walks(path.read_text(), path.stem)]
    assert found == ["rpp_core.walk"]


COLUMN = (1,) * 3000  # three times the default recursion limit of rows


def test_the_walks_take_no_recursion_per_row():
    # the walks keep their slice-chain tree on explicit stacks: a column's
    # fillings of volume <= 1 are all zeros and a 1 at the top
    assert [rpp.volume for rpp in rpp_core.enumerate_rpps(COLUMN, 1)] == [0, 1]
    assert sorted(volume for _, volume in rpp_core.slice_chains(COLUMN, 1)) == [0, 1]
    a = vertex_model.A_lambda(COLUMN).q_exp
    assert sorted(volume - q for volume, q in vertex_model.q_exponents(COLUMN, 1)) == [a, a]
    assert len(sliding.t0_pairs(COLUMN, 1)) == 2


@pytest.mark.parametrize("call", [
    lambda: list(rpp_core.enumerate_rpps((3, 2, 1), 6)),
    lambda: list(rpp_core.next_slices((3, 1), rpp_core.PRECEQ, 3, 6)),
    lambda: list(partitions.partitions_of(6)),
    lambda: coupling.pair_genfun_transfer((3, 2, 1), 8),
    checks.run_all,
    lambda: vertex_model.q_exponents((3, 2, 1), 6),
    lambda: sliding.t0_pairs((3, 2, 1), 6),
    lambda: list(rpp_core.slice_chains((3, 2, 1), 6)),
], ids=["enumerate_rpps", "next_slices", "partitions_of", "pair_genfun_transfer",
        "run_all", "q_exponents", "t0_pairs", "slice_chains"])
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
