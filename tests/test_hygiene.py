"""Static checks on the package source, by an AST scan of src/relutoric.

- No unused import outside `__init__.py`, whose imports are the public API.
- No float on the exact path: no float literal and no `float(` call.
- No `itertools.combinations`: subset enumeration is what the exact
  routines replaced, and the tests keep it only as a reference.
- No `gcd` or `lcm` outside `exact_math.py`: primitive rows and common
  denominators come from its helpers, so every module puts a rational row
  in lowest integer terms the same way.
- The lattice lift of a wall curve is only for the `lift` field of
  `intersect`: only `cli._cmd_intersect` uses `wall_curve`, and only
  `wall_curve` uses `pairing_one_solution`.  Wall numbers come from slope
  jumps (`divisor.intersection_number`).
- One double description step: the cut step (`crossing_rays` and
  `keep_side`) is used by `exact_math.double_description` and
  `fan._split_cone` and nowhere else.
- One simplicial seed: `integer_kernel_direction` is used only by
  `exact_math.simplicial_rays`, which starts every double description and
  every arrangement, and by `exact_math.kernel_normal`.
- One exact elimination: `_echelon` is used only by the routines that read
  rank, pivots, bases, solves, covectors, determinants and kernels off it,
  and `int_det` only by `exact_math.euclidean_volume`, so no kernel is
  built from minors again.
- No all-pairs point location: `cone_containing`, a scan over every
  maximal cone, is used only by `SupportFunction.value` and by the
  fallback of `realizability.transfer_support`, which keys cells by sign
  vector, so no loop over cells locates each one again.
- One pull-back: `network.pull_back`, which reads a layer's rows as
  covectors of the input at a probe, is used only by `network.linear_piece`
  and `fan.build_relu_fan`, so no second loop carries composed maps along.
- One realize pipeline: `verify_synthesis` is used only by
  `realizability.analyze`, so the CLI's `realize` reports what `analyze`
  decides instead of repeating its steps.
- One shallow constructor: `network.shallow_network` is used only by
  `network.reduce_shallow` and `realizability.synthesize_shallow`, so
  neither builds a net, the empty one included, by a route of its own.
- One input boundary: no module but `jsonio` calls `decode_network` or
  `decode_function`, so every job document decodes through
  `jsonio.decode_input`.
- One command table: `decode_input` is called only by `cli._read`, which
  gives each command the input its `_HANDLERS` row names, so no handler
  decodes or converts a document of its own.
- One conversion of a net to a function: `support_of_network` is called
  only by `cli._read` and `realizability.verify_up_to_linear`, and no
  module defines `as_support` again, so the realize entry points take a
  `SupportFunction` and nothing dispatches on the input's type.
- One compile: `_forms_table`, `_node_forms` and `affine_forms` are absent
  from `src/`, so no expression's affine forms are enumerated again.
- One cut routine: `fan._cut_at_max`, which cuts pieces where the first
  argmax of a list of covectors changes and reports each piece's max, is
  the only caller of `fan._split_cone`, and it is called only by
  `fan._arrangement_cells` (a hyperplane n is the max of n and 0),
  `fan.build_relu_fan` (a neuron is the max of its pulled-back row and 0)
  and `expressions.compile_expression` (each max node), so no module writes
  a split loop of its own.  `_refine` is defined nowhere.
- Each max decided once: `expressions.py` calls no `interior_point`,
  imports no `vdot` and defines no `_affine` or `_walk`, so no slope is
  read at a probe; each max node's slope on a piece is the max
  `_cut_at_max` reports.
- One canonical order: `cmp_to_key` and `_ray_cmp_2d` are used only by
  `fan.canonical_order`, which orders rays, cones and walls, and
  `expressions.py` builds no `frozenset`, so no module re-keys a fan's
  cones by their rays; `fan._assemble_fan` hands back each cone's place.
- One slope table: a `SupportFunction` holds integer covectors over one
  denominator in lowest terms, made only by `divisor.support_on_fan`.
  `common_integer_scale` is used only by `support_on_fan`,
  `network.cleared_layers`, `exact_math.convex_hull` and
  `exact_math.euclidean_volume`, and `lowest_terms` only by
  `support_on_fan`; `network.linear_piece` and
  `expressions.compile_expression` build no `Fraction`; and
  `_check_continuity` and `clearing_multiple` are defined nowhere, so no
  producer divides its integers and no consumer clears slopes again.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "relutoric").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def float_uses(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"float literal {node.value!r} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"float( call (line {node.lineno})")
    return found


def combination_uses(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "combinations"
                and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
            found.append(f"itertools.combinations (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [f"from itertools import combinations (line {node.lineno})"
                      for alias in node.names if alias.name == "combinations"]
    return found


def integer_normal_form_uses(tree: ast.Module) -> list[str]:
    """Imports of math.gcd or math.lcm, and attribute uses math.gcd/lcm."""
    names = ("gcd", "lcm")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"from math import {alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name in names]
        elif (isinstance(node, ast.Attribute) and node.attr in names
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"math.{node.attr} (line {node.lineno})")
    return found


def name_uses(tree: ast.Module, name: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of every read of `name`, as a
    bare name or an attribute; `<module>` outside any function."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == name
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == name)):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "<module>")
    return found


# routine -> the one place in src/ allowed to use it
SOLE_USER = {
    "wall_curve": "cli._cmd_intersect",
    "pairing_one_solution": "divisor.wall_curve",
}

# the cut step of the double description -> the places allowed to use it
CUT_STEP_USERS = {
    name: {"exact_math.double_description", "fan._split_cone"}
    for name in ("crossing_rays", "keep_side")
}

# the kernel of n - 1 integer rows -> the places allowed to use it
KERNEL_USERS = {"exact_math.simplicial_rays", "exact_math.kernel_normal"}

# the one elimination routine -> its readers
ECHELON_USERS = {f"exact_math.{name}" for name in (
    "mat_rank", "pivot_columns", "independent_rows", "solve_exact",
    "nullspace_covectors", "int_det", "integer_kernel_direction")}


# the point location scan -> the places allowed to use it
POINT_LOCATION_USERS = {"divisor.value", "realizability.transfer_support"}


# the one pull-back of layer rows to the input -> its users
PULL_BACK_USERS = {"network.linear_piece", "fan.build_relu_fan"}


# the one clearing of rational rows to integers -> its users
INTEGER_SCALE_USERS = {"divisor.support_on_fan", "network.cleared_layers",
                       "exact_math.convex_hull", "exact_math.euclidean_volume"}


# the one shallow net constructor -> its users
SHALLOW_NETWORK_USERS = {"network.reduce_shallow", "realizability.synthesize_shallow"}


def defines(tree: ast.Module, name: str) -> list[int]:
    """Lines where `name` is bound by a def, a class or an assignment."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name == name)
            or (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Store))]


def users(name: str) -> set[str]:
    return {f"{path.stem}.{scope}" for path in SOURCES
            for scope, _ in name_uses(_tree(path), name)}


@pytest.mark.parametrize("name", sorted(SOLE_USER))
def test_lattice_lift_has_one_user(name):
    assert users(name) == {SOLE_USER[name]}


@pytest.mark.parametrize("name", sorted(CUT_STEP_USERS))
def test_cut_step_has_two_users(name):
    assert users(name) == CUT_STEP_USERS[name]


def test_one_simplicial_seed():
    assert users("integer_kernel_direction") == KERNEL_USERS


def test_one_elimination():
    assert users("_echelon") == ECHELON_USERS
    assert users("int_det") == {"exact_math.euclidean_volume"}


def test_point_location_has_two_users():
    assert users("cone_containing") == POINT_LOCATION_USERS


def test_one_pull_back():
    assert users("pull_back") == PULL_BACK_USERS


def test_one_realize_pipeline():
    assert users("verify_synthesis") == {"realizability.analyze"}


def test_one_shallow_constructor():
    assert users("shallow_network") == SHALLOW_NETWORK_USERS


@pytest.mark.parametrize("name", ["decode_network", "decode_function"])
def test_one_input_boundary(name):
    assert {user.split(".")[0] for user in users(name)} == {"jsonio"}


def test_one_command_table():
    assert users("decode_input") == {"cli._read"}


def test_one_conversion_of_a_net():
    assert users("support_of_network") == {"cli._read", "realizability.verify_up_to_linear"}
    assert [(path.name, line) for path in SOURCES
            for line in defines(_tree(path), "as_support")] == []


@pytest.mark.parametrize("name", ["_forms_table", "_node_forms", "affine_forms"])
def test_one_compile_enumerates_no_forms(name):
    assert users(name) == set()
    assert [(path.name, line) for path in SOURCES
            for line in defines(_tree(path), name)] == []


def test_one_split_loop():
    assert users("_split_cone") == {"fan._cut_at_max"}


def test_one_cut_routine():
    assert users("_cut_at_max") == {
        "fan._arrangement_cells", "fan.build_relu_fan", "expressions.compile_expression"}
    assert [(path.name, line) for path in SOURCES
            for line in defines(_tree(path), "_refine")] == []


def test_one_canonical_order():
    assert users("cmp_to_key") == users("_ray_cmp_2d") == {"fan.canonical_order"}
    tree = _tree(next(path for path in SOURCES if path.name == "expressions.py"))
    assert name_uses(tree, "frozenset") == []


def test_each_max_decided_once():
    tree = _tree(next(path for path in SOURCES if path.name == "expressions.py"))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert name_uses(tree, "interior_point") == []
    assert "vdot" not in imported
    assert defines(tree, "_affine") == defines(tree, "_walk") == []


def test_one_slope_table():
    assert users("common_integer_scale") == INTEGER_SCALE_USERS
    assert users("lowest_terms") == {"divisor.support_on_fan"}
    assert {"network.linear_piece", "expressions.compile_expression"}.isdisjoint(
        users("Fraction"))
    for name in ("_check_continuity", "clearing_multiple"):
        assert users(name) == set()
        assert [(path.name, line) for path in SOURCES
                for line in defines(_tree(path), name)] == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "exact_math.py"],
                         ids=lambda p: p.name)
def test_integer_normal_forms_only_in_exact_math(path):
    assert integer_normal_form_uses(_tree(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
class TestSource:
    def test_no_floats(self, path):
        assert float_uses(_tree(path)) == []

    def test_no_subset_enumeration(self, path):
        assert combination_uses(_tree(path)) == []


class TestScanner:
    """The scan itself finds what it is meant to find."""

    def test_flags_an_unused_import(self):
        tree = ast.parse("from __future__ import annotations\n"
                         "from .exact_math import kernel_normal, vdot\n"
                         "import itertools\n"
                         "def f(a: int) -> int:\n    return vdot(a, a)\n")
        assert unused_imports(tree) == ["itertools (line 3)", "kernel_normal (line 2)"]

    def test_flags_floats(self):
        tree = ast.parse("x = 0.5\ny = float(3)\nz = 1\n")
        assert float_uses(tree) == ["float literal 0.5 (line 1)", "float( call (line 2)"]

    def test_flags_combinations(self):
        tree = ast.parse("import itertools\nfrom itertools import combinations, product\n"
                         "pairs = itertools.combinations(range(4), 2)\n")
        assert combination_uses(tree) == ["from itertools import combinations (line 2)",
                                          "itertools.combinations (line 3)"]

    def test_flags_gcd_and_lcm(self):
        tree = ast.parse("import math\nfrom math import factorial, gcd\n"
                         "m = math.lcm(2, 3)\n")
        assert integer_normal_form_uses(tree) == ["from math import gcd (line 2)",
                                                  "math.lcm (line 3)"]

    def test_finds_name_uses_by_scope(self):
        tree = ast.parse("from .divisor import wall_curve\n"
                         "lift = wall_curve(fan, wall)\n"
                         "def outer(fan):\n"
                         "    def inner(w):\n"
                         "        return divisor.wall_curve(fan, w)\n"
                         "    wall_curve = None\n"
                         "    return map(wall_curve, fan.walls)\n"
                         "class Report:\n"
                         "    def lifts(self):\n"
                         "        return [wall_curve(self.fan, w) for w in self.walls]\n")
        assert name_uses(tree, "wall_curve") == [
            ("<module>", 2), ("inner", 5), ("outer", 7), ("lifts", 10)]

    def test_finds_definitions(self):
        tree = ast.parse("def as_support(x):\n    return x\n"
                         "class as_support: pass\n"
                         "as_support = None\n"
                         "y = as_support(1)\n")
        assert defines(tree, "as_support") == [1, 3, 4]

    def test_sources_found(self):
        assert {p.name for p in SOURCES} >= {"divisor.py", "fan.py", "realizability.py"}
