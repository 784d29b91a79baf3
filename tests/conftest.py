"""Shared fixtures: golden inputs, hypothesis strategies and independent
oracles.

The bend oracle below measures how much a function bends across a wall by
exact second differences of function *values*; it never looks at slope or
divisor data, so it is an independent check of the intersection-number path.
The reference compile at the end is how expressions compiled before they
compiled by refinement: the arrangement of every candidate hyperplane,
whose cells the reference arrangement splits from all 2^d simplicial
cells of a basis rather than from half of them.
Beside it, the reference cut at a max rescans every earlier covector at
every piece instead of carrying the running max, and `walk` lists a tree's
nodes in the pre-order the homogeneity message and the compile's seed
follow.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from relutoric.divisor import support_on_fan, wall_curve
from relutoric.errors import InhomogeneousConstant
from relutoric.exact_math import (
    independent_rows,
    is_zero_vector,
    kernel_normal,
    pairing_one_solution,
    simplicial_rays,
    vadd,
    vdot,
    vneg,
    vscale,
    vsub,
)
from relutoric.expressions import Const, Max, Neg, Scale, Sum, Var
from relutoric.fan import (
    EXTENDED,
    Cone,
    _assemble_fan,
    _augmented,
    _cut_at_max,
    _split_cone,
    hyperplane,
    merge_hyperplanes,
)
from relutoric.network import network

# Architecture (2, 3, 1; 1) computing max{0, x, y}; the pipeline's golden
# example throughout.
GOLDEN_LAYERS = [[[0, 1], [0, -1], [1, -1]], [[1, -1, 1]], [[1]]]

# Six-piece symmetric function on the three lines y=0, y=x, y=-x with sector
# slopes (counterclockwise from the positive x-axis):
#   3y | x+2y | y | 0 | 2x-2y | -4y
# realizable as a difference of maxima but not by any shallow unbiased net.
SIXPIECE_EXPR = ("max(4*x1 + 5*x2, 3*x1 + 6*x2, 3*x2, 0, 4*x1 - 4*x2)"
                 " - 2*max(0, x2) - 2*max(0, x1 - x2) - 2*max(0, x1 + x2)")
SIXPIECE_SLOPES = {
    (Fraction(0), Fraction(3)),
    (Fraction(1), Fraction(2)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(0)),
    (Fraction(2), Fraction(-2)),
    (Fraction(0), Fraction(-4)),
}


@pytest.fixture
def golden_net():
    return network(GOLDEN_LAYERS)


def rand_rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_point(rng: random.Random, dim: int, bound: int = 9):
    return tuple(rand_rational(rng, bound) for _ in range(dim))


def rand_shallow_net(rng: random.Random, dim: int, max_width: int = 6):
    width = rng.randint(1, max_width)
    rows = [[rand_rational(rng) for _ in range(dim)] for _ in range(width)]
    weights = [rand_rational(rng) for _ in range(width)]
    return network([rows, [weights]])


weights = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def nets(draw):
    """Depth 1-3 in dim 2-4 with rational weights; rows are often zero."""
    dim = draw(st.integers(2, 4))
    depth = draw(st.integers(1, 3))
    widths = [dim] + [draw(st.integers(1, 6 - depth)) for _ in range(depth)] + [1]
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        row = st.one_of(st.just([0] * n_in),
                        st.lists(weights, min_size=n_in, max_size=n_in))
        layers.append(draw(st.lists(row, min_size=n_out, max_size=n_out)))
    return network(layers)


@st.composite
def random_nets(draw, max_dim, max_width):
    """Unbiased nets of depth 1-3 with weights p/q, |p| <= 5, q <= 3."""
    dim = draw(st.integers(2, max_dim))
    widths = ([dim] + draw(st.lists(st.integers(1, max_width), min_size=1, max_size=3))
              + [1])
    weight = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    return network([[[draw(weight) for _ in range(widths[i])]
                     for _ in range(widths[i + 1])]
                    for i in range(len(widths) - 1)])


@st.composite
def expressions(draw, dim, constants=False):
    """Nested max, sums and negative scales over x1..x_dim, with rational
    constant leaves too when asked for."""
    leaf = st.builds(Var, st.integers(1, dim))
    if constants:
        leaf |= st.builds(Const, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)))

    def extend(children):
        args = st.lists(children, min_size=2, max_size=3)
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Scale, st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
                      children),
            st.builds(lambda a: Sum(tuple(a)), args),
            st.builds(lambda a: Max(tuple(a)), args),
            # a repeated argument ties with itself everywhere
            st.builds(lambda a: Max((a, a)), children),
        )

    return draw(st.recursive(leaf, extend, max_leaves=6))


def in_cone(cone, x) -> bool:
    """Whether x lies in the closed cone: every inward facet normal pairs
    with it to >= 0."""
    return all(vdot(n, x) >= 0 for n in cone.halfspaces)


def bend_oracle(value_at, fan, wall) -> Fraction:
    """Second-difference bend of a function across a wall, per unit step of
    the quotient lattice, measured from exact values only.

    `value_at` evaluates the function; the returned number equals the
    intersection number of the function's divisor with the wall curve.
    """
    lo, hi = wall.cones
    second = fan.maximal_cones[hi]
    phi = kernel_normal(wall.generators, fan.dim)
    outside = next(r for r in second.rays if r not in wall.generators)
    if vdot(phi, outside) < 0:
        phi = vneg(phi)
    u = pairing_one_solution(phi)
    p = tuple(Fraction(sum(g[i] for g in wall.generators)) for i in range(fan.dim))
    eps = Fraction(1)
    first = fan.maximal_cones[lo]
    for _ in range(64):
        plus = vadd(p, vscale(eps, u))
        minus = vadd(p, vscale(-eps, u))
        if in_cone(second, plus) and in_cone(first, minus):
            break
        eps /= 2
    else:
        raise AssertionError("could not step off the wall")
    bend = value_at(plus) + value_at(minus) - 2 * value_at(p)
    return -bend / eps


def reference_intersection_number(s, wall, lift=None) -> Fraction:
    """Intersection number by its lattice definition, <m_sigma - m_sigma', u>
    with u the lift of the wall curve (`wall_curve` unless another lattice
    point with the same pairing is given)."""
    if lift is None:
        lift = wall_curve(s.fan, wall)
    i, j = wall.cones
    return Fraction(vdot(vsub(s.slopes[i], s.slopes[j]), lift))


def reference_affine_forms(expr, dim: int) -> set:
    """affine_forms as first written: a Sum recomputes each term's forms for
    every form accumulated so far."""
    zero = tuple(Fraction(0) for _ in range(dim))
    if isinstance(expr, Var):
        return {(tuple(Fraction(1) if i == expr.index - 1 else Fraction(0) for i in range(dim)), Fraction(0))}
    if isinstance(expr, Const):
        return {(zero, expr.value)}
    if isinstance(expr, Neg):
        return {(vneg(s), -c) for s, c in reference_affine_forms(expr.arg, dim)}
    if isinstance(expr, Scale):
        return {(vscale(expr.coeff, s), expr.coeff * c)
                for s, c in reference_affine_forms(expr.arg, dim)}
    if isinstance(expr, Sum):
        forms = {(zero, Fraction(0))}
        for term in expr.terms:
            forms = {(vadd(s1, s2), c1 + c2)
                     for s1, c1 in forms
                     for s2, c2 in reference_affine_forms(term, dim)}
        return forms
    out = set()
    for arg in expr.args:
        out |= reference_affine_forms(arg, dim)
    return out


def walk(expr):
    """Every node of an expression tree, in pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def children(expr) -> tuple:
    if isinstance(expr, (Neg, Scale)):
        return (expr.arg,)
    return expr.terms if isinstance(expr, Sum) else expr.args if isinstance(expr, Max) else ()


# The reference compile: the route `compile_expression` took before it
# compiled by refinement.  Every affine form a node can take is enumerated
# (Minkowski sums at every Sum), every difference of two forms of two
# arguments of one max is a cut of one central arrangement, and each cell's
# slope is read in Fractions at its interior point.


def forms_table(expr, dim: int) -> dict[int, set]:
    """The affine forms of every node of the tree, keyed by node identity;
    one post-order pass computes each node's set once, from its children's.
    A node with a single form is that affine function everywhere."""
    table = {}
    node_forms(expr, dim, table)
    return table


def node_forms(expr, dim: int, table: dict[int, set]) -> set:
    zero = tuple(Fraction(0) for _ in range(dim))
    if isinstance(expr, Var):
        slope = tuple(Fraction(1) if i == expr.index - 1 else Fraction(0) for i in range(dim))
        forms = {(slope, Fraction(0))}
    elif isinstance(expr, Const):
        forms = {(zero, expr.value)}
    elif isinstance(expr, Neg):
        forms = {(vneg(s), -c) for s, c in node_forms(expr.arg, dim, table)}
    elif isinstance(expr, Scale):
        forms = {(vscale(expr.coeff, s), expr.coeff * c)
                 for s, c in node_forms(expr.arg, dim, table)}
    elif isinstance(expr, Sum):
        forms = {(zero, Fraction(0))}
        for term in expr.terms:
            term_forms = node_forms(term, dim, table)
            forms = {(vadd(s1, s2), c1 + c2)
                     for s1, c1 in forms
                     for s2, c2 in term_forms}
    else:
        forms = set()
        for arg in expr.args:
            forms |= node_forms(arg, dim, table)
    table[id(expr)] = forms
    return forms


def affine_forms(expr, dim: int) -> set:
    """All affine forms (slope, constant) the expression can take on linear
    pieces; an overapproximation for nested maxima."""
    return forms_table(expr, dim)[id(expr)]


def reference_check_homogeneous(expr, forms) -> None:
    """The homogeneity check on the forms table: the first nonzero constant
    of a max argument's forms, max nodes in pre-order, then of the whole
    function's."""
    for node in walk(expr):
        if isinstance(node, Max):
            for arg in node.args:
                for _, const in forms[id(arg)]:
                    if const != 0:
                        raise InhomogeneousConstant(
                            f"constant {const} inside max breaks homogeneity")
    for _, const in forms[id(expr)]:
        if const != 0:
            raise InhomogeneousConstant(f"constant {const} breaks homogeneity")


def reference_value_and_slope(expr, point, dim: int, forms):
    """Value and slope at a point in Fraction arithmetic, a node with a
    single affine form in `forms` read off it, a max taking its first
    argmax."""
    own = forms[id(expr)]
    if len(own) == 1:
        (slope, const), = own
        return vdot(slope, point) + const, slope
    if isinstance(expr, Neg):
        value, slope = reference_value_and_slope(expr.arg, point, dim, forms)
        return -value, vneg(slope)
    if isinstance(expr, Scale):
        value, slope = reference_value_and_slope(expr.arg, point, dim, forms)
        return expr.coeff * value, vscale(expr.coeff, slope)
    if isinstance(expr, Sum):
        value, slope = 0, (0,) * dim
        for term in expr.terms:
            v, m = reference_value_and_slope(term, point, dim, forms)
            value, slope = value + v, vadd(slope, m)
        return value, slope
    best = None
    for arg in expr.args:
        value, slope = reference_value_and_slope(arg, point, dim, forms)
        if best is None or value > best[0]:
            best = value, slope
    return best


def reference_candidate_hyperplanes(expr, dim: int, forms) -> tuple:
    """Every difference of two slopes two arguments of one max can take."""
    planes = []
    for node in walk(expr):
        if not isinstance(node, Max):
            continue
        form_sets = [forms[id(arg)] for arg in node.args]
        for i in range(len(form_sets)):
            for j in range(i + 1, len(form_sets)):
                for si, _ in form_sets[i]:
                    for sj, _ in form_sets[j]:
                        diff = vsub(si, sj)
                        if not is_zero_vector(diff):
                            planes.append(hyperplane(diff, EXTENDED))
    return merge_hyperplanes(planes)


def reference_compile_expression(expr, dim: int):
    forms = forms_table(expr, dim)
    reference_check_homogeneous(expr, forms)
    fan = reference_augmented_fan(reference_candidate_hyperplanes(expr, dim, forms), dim)
    return support_on_fan(fan, [
        reference_value_and_slope(expr, cone.interior_point(), dim, forms)[1]
        for cone in fan.maximal_cones])


def reference_arrangement_cells(merged, dim: int) -> list:
    """The cells of `fan._arrangement_cells` of an essential arrangement,
    built without its central symmetry: all 2^d simplicial cells of the
    first d independent normals, each split by every remaining normal."""
    normals = [h.normal for h in merged]
    chosen = independent_rows(normals)
    basis = [normals[i] for i in chosen]
    rest = [n for i, n in enumerate(normals) if i not in chosen]
    kernel = simplicial_rays(basis)
    cones = []
    for signs in itertools.product((1, -1), repeat=dim):
        rays = tuple(k if s > 0 else vneg(k) for s, k in zip(signs, kernel))
        halfspaces = tuple(n if s > 0 else vneg(n) for s, n in zip(signs, basis))
        facet_rays = tuple(tuple(sorted(rays[:i] + rays[i + 1:])) for i in range(dim))
        cones.append(Cone(rays, halfspaces, facet_rays, dim))
    for cut in rest:
        cones = [piece for piece, _ in _cut_at_max(cones, (cut, (0,) * dim))]
    return cones


def reference_augmented_fan(hyperplanes, dim: int):
    """`fan.augmented_central_fan` assembled from the reference cells."""
    merged = _augmented(hyperplanes, dim)
    return _assemble_fan(reference_arrangement_cells(merged, dim), dim, merged)[0]


def reference_cut_at_max(cones, slopes) -> list:
    """The pieces of `fan._cut_at_max` as the compile first wrote it: at
    every step each piece rescans the earlier covectors for their first
    argmax at its probe, and is cut by that argmax minus the next covector."""
    pieces = list(cones)
    for k in range(1, len(slopes)):
        refined = []
        for piece in pieces:
            point = piece.interior_point()
            top = max(slopes[:k], key=lambda slope: vdot(slope, point))
            refined.extend(side for side in _split_cone(piece, vsub(top, slopes[k]))
                           if side is not None)
        pieces = refined
    return pieces
