"""Oracle tests for the fraction-free elimination and the double
description hulls in exact_math.

The linear algebra is checked against sympy's exact rational matrices, and
the determinant and the integer kernel read off the elimination against the
routines they replaced, kept below as references: a separate Bareiss loop
with row swaps, and signed maximal minors.  The hull facets are checked
against two subset enumerations kept below as references: the earlier
Fraction implementation (Gauss-Jordan over Fractions for the candidate
normal, and Fraction side tests) and the integer one that preceded the
double description.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F
from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from relutoric.errors import RankDeficient  # noqa: E402
from relutoric.exact_math import (  # noqa: E402
    _echelon,
    clear_denominators,
    convex_hull,
    int_det,
    integer_kernel_direction,
    is_zero_vector,
    mat_rank,
    normalize_primitive,
    nullspace_covectors,
    pivot_columns,
    rational_to_primitive,
    simplicial_rays,
    solve_exact,
    vdot,
    vneg,
    vsub,
)

RATIONALS = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def matrices(draw, max_rows=6, max_cols=5):
    """Random rational matrices up to 6 x 5, wide and tall, salted with zero
    rows, duplicate and scaled rows (rank deficiency) and one entry given
    as a 'p/q' string."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    rows = [draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("zero", "duplicate", "scaled")))
        at = draw(st.integers(0, len(rows)))
        if kind == "zero":
            rows.insert(at, [F(0)] * ncols)
        else:
            source = rows[draw(st.integers(0, len(rows) - 1))]
            factor = F(1) if kind == "duplicate" else draw(RATIONALS)
            rows.insert(at, [factor * x for x in source])
    rows = [list(r) for r in rows[:max_rows]]
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, ncols - 1))
        x = rows[r][c]
        rows[r][c] = f"{x.numerator}/{x.denominator}"
    return rows


def sym(rows):
    return sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in rows])


def to_fraction(value) -> F:
    return F(int(value.p), int(value.q))


class TestEliminationAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_rank_and_pivots(self, rows):
        reduced, pivots = sym(rows).rref()
        assert mat_rank(rows) == len(pivots)
        assert pivot_columns(rows) == list(pivots)

    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_nullspace_is_the_rref_basis(self, rows):
        ncols = len(rows[0])
        expected = [tuple(to_fraction(x) for x in v) for v in sym(rows).nullspace()]
        assert nullspace_covectors(rows, ncols) == expected

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.data())
    def test_solve_matches_sympy(self, rows, data):
        ncols = len(rows[0])
        A = sym(rows)
        if data.draw(st.booleans(), label="consistent by construction"):
            x = sympy.Matrix([sympy.Rational(str(v)) for v in
                              data.draw(st.lists(RATIONALS, min_size=ncols,
                                                 max_size=ncols))])
            b = A * x
            rhs = [to_fraction(v) for v in b]
        else:
            rhs = data.draw(st.lists(RATIONALS, min_size=len(rows),
                                     max_size=len(rows)))
            b = sympy.Matrix([sympy.Rational(str(v)) for v in rhs])
        rank = A.rank()
        if A.row_join(b).rank() > rank:
            assert solve_exact(rows, rhs) is None
        elif rank < ncols:
            with pytest.raises(RankDeficient):
                solve_exact(rows, rhs)
        else:
            solution, _ = A.gauss_jordan_solve(b)
            assert solve_exact(rows, rhs) == tuple(to_fraction(v) for v in solution)

    def test_inconsistent_before_underdetermined(self):
        # rank 1 < 2 columns, and the two rows contradict each other
        assert solve_exact([[1, 1], [2, 2]], [1, 3]) is None
        with pytest.raises(RankDeficient):
            solve_exact([[1, 1], [2, 2]], [1, 2])

    def test_empty_inputs(self):
        assert mat_rank([]) == 0
        assert pivot_columns([]) == []
        assert nullspace_covectors([], 2) == [(F(1), F(0)), (F(0), F(1))]
        with pytest.raises(RankDeficient):
            solve_exact([], [])


# ---------------------------------------------------------------------------
# determinants and integer kernels
# ---------------------------------------------------------------------------

def reference_int_det(rows) -> int:
    """int_det as first written: its own Bareiss loop, swapping in the next
    row with a nonzero entry when a diagonal entry is 0."""
    mat = [list(map(int, row)) for row in rows]
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if mat[r][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def reference_kernel_direction(rows):
    """integer_kernel_direction as first written: the signed maximal minors
    (the generalized cross product), gcd-normalized."""
    rows = [tuple(int(x) for x in r) for r in rows]
    n = len(rows) + 1
    coords = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows]
        coords.append((-1) ** j * reference_int_det(minor))
    if is_zero_vector(coords):
        raise RankDeficient("rows do not span a hyperplane")
    prim, _ = normalize_primitive(coords)
    return prim


@st.composite
def integer_rows(draw, nrows, ncols, singular=True):
    """Integer rows with entries in [-5, 5], some with leading zeros (so
    pivot columns come out of order) and, when `singular`, sometimes one
    row a combination of two others (so the rank is short)."""
    rows = []
    for _ in range(nrows):
        row = draw(st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols))
        zeros = draw(st.integers(0, ncols - 1))
        rows.append([0] * zeros + row[zeros:])
    if singular and nrows > 2 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(nrows)))[:3]
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[c] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return rows


@st.composite
def square_rows(draw):
    n = draw(st.integers(0, 5))
    return draw(integer_rows(n, n))


@st.composite
def full_rank_rows(draw, extra_rows):
    """n - 1 + extra_rows integer rows of length n, n = 2..5, of full row
    rank."""
    n = draw(st.integers(2, 5))
    rows = draw(integer_rows(n - 1 + extra_rows, n, singular=False))
    hypothesis.assume(mat_rank(rows) == len(rows))
    return rows


class TestDeterminantAndKernel:
    @settings(max_examples=300, deadline=None)
    @given(square_rows())
    def test_int_det_matches_sympy(self, rows):
        expected = int(sympy.Matrix(len(rows), len(rows), sum(rows, [])).det())
        assert int_det(rows) == expected == reference_int_det(rows)

    @settings(max_examples=300, deadline=None)
    @given(full_rank_rows(0))
    def test_kernel_direction_matches_minors(self, rows):
        kernel = integer_kernel_direction(rows)
        assert normalize_primitive(kernel)[1] == 1
        assert all(vdot(row, kernel) == 0 for row in rows)
        assert kernel in (reference_kernel_direction(rows),
                          vneg(reference_kernel_direction(rows)))

    @settings(max_examples=200, deadline=None)
    @given(full_rank_rows(1))
    def test_simplicial_rays_pair_with_their_own_row(self, rows):
        rays = simplicial_rays(rows)
        for i, row in enumerate(rows):
            for j, ray in enumerate(rays):
                product = vdot(row, ray)
                assert product > 0 if i == j else product == 0

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
        lambda shape: integer_rows(*shape)))
    def test_integer_rows_eliminate_as_their_fraction_copies(self, rows):
        # a row of ints skips the clearing of denominators
        assert _echelon(rows) == _echelon([[F(x) for x in row] for row in rows])

    def test_rank_deficient_rows_have_no_kernel_direction(self):
        with pytest.raises(RankDeficient):
            integer_kernel_direction([[1, 2, 3], [2, 4, 6]])


# ---------------------------------------------------------------------------
# facet enumeration
# ---------------------------------------------------------------------------

def _fraction_nullspace(rows, dim):
    """Gauss-Jordan over Fractions: the covector basis of the rows' kernel."""
    mat = [[F(x) for x in row] for row in rows]
    pivots = []
    row_at = 0
    for col in range(dim):
        pivot = next((r for r in range(row_at, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row_at], mat[pivot] = mat[pivot], mat[row_at]
        inv = 1 / mat[row_at][col]
        mat[row_at] = [x * inv for x in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[row_at])]
        pivots.append(col)
        row_at += 1
    basis = []
    for fcol in (c for c in range(dim) if c not in pivots):
        cov = [F(0)] * dim
        cov[fcol] = F(1)
        for r, pcol in enumerate(pivots):
            cov[pcol] = -mat[r][fcol]
        basis.append(tuple(cov))
    return basis


def reference_facets(pts, dim):
    """The Fraction facet enumeration: every dim-subset spanning a
    hyperplane gives a candidate normal, tested on both sides."""
    facets = {}
    for subset in itertools.combinations(range(len(pts)), dim):
        base = pts[subset[0]]
        dirs = [vsub(pts[i], base) for i in subset[1:]]
        covs = _fraction_nullspace(dirs, dim)
        if len(covs) != 1:
            continue
        normal = rational_to_primitive(covs[0])
        offset = F(vdot(normal, base))
        sides = [vdot(normal, p) - offset for p in pts]
        if all(s <= 0 for s in sides):
            facets[(normal, offset)] = True
        elif all(s >= 0 for s in sides):
            facets[(vneg(normal), -offset)] = True
    return sorted(facets)


@st.composite
def point_sets(draw, dim, max_points):
    """Full-dimensional rational point sets with at least one non-lattice
    coordinate, so the common denominator matters."""
    point = st.tuples(*[st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 6)))
                        for _ in range(dim)])
    pts = draw(st.lists(point, min_size=dim + 1, max_size=max_points, unique=True))
    hypothesis.assume(any(x.denominator > 1 for p in pts for x in p))
    hypothesis.assume(mat_rank([vsub(p, pts[0]) for p in pts[1:]]) == dim)
    return pts


class TestFacetsAgainstFractionReference:
    @settings(max_examples=60, deadline=None)
    @given(point_sets(3, 9))
    def test_three_dimensional(self, pts):
        assert list(convex_hull(pts).facets) == reference_facets(pts, 3)

    @settings(max_examples=30, deadline=None)
    @given(point_sets(4, 8))
    def test_four_dimensional(self, pts):
        assert list(convex_hull(pts).facets) == reference_facets(pts, 4)

    def test_offsets_keep_the_common_denominator(self):
        # the cube [0, 1/2]^3 scaled by 2 to integers and back
        cube = [tuple(F(c, 2) for c in v) for v in itertools.product((0, 1), repeat=3)]
        facets = list(convex_hull(cube).facets)
        assert facets == reference_facets(cube, 3)
        assert {c for _, c in facets} == {F(0), F(1, 2)}


# ---------------------------------------------------------------------------
# the double description hull against the subset enumeration it replaced
# ---------------------------------------------------------------------------

def _facets_of_points(pts, dim):
    """Facet inequalities n . x <= c of the hull of a full-dimensional point
    set: every dim-subset spanning a hyperplane gives a candidate primitive
    normal, and the side tests run on the points scaled to integers."""
    scaled = [clear_denominators(p) for p in pts]
    mult = lcm(*[m for _, m in scaled])
    ipts = [tuple(x * (mult // m) for x in v) for v, m in scaled]
    facets = set()
    for subset in itertools.combinations(ipts, dim):
        base = subset[0]
        try:
            normal = integer_kernel_direction([vsub(p, base) for p in subset[1:]])
        except RankDeficient:
            continue
        offset = vdot(normal, base)
        sides = [vdot(normal, p) for p in ipts]
        if max(sides) == offset:
            facets.add((normal, F(offset, mult)))
        elif min(sides) == offset:
            facets.add((vneg(normal), F(-offset, mult)))
    return sorted(facets)


def reference_hull(points):
    """Vertices and facets (on the pivot coordinates of the affine hull) by
    subset enumeration: a point is a vertex when the normals of its facets
    span the affine hull."""
    pts = sorted(set(tuple(F(x) for x in p) for p in points))
    cols = pivot_columns([vsub(p, pts[0]) for p in pts[1:]])
    proj = [tuple(p[c] for c in cols) for p in pts]
    if not cols:
        return pts[:1], []
    if len(cols) == 1:
        lo, hi = min(proj), max(proj)
        return sorted({pts[proj.index(lo)], pts[proj.index(hi)]}), [
            ((-1,), -lo[0]), ((1,), hi[0])]
    facets = _facets_of_points(proj, len(cols))
    vertices = [p for p, y in zip(pts, proj)
                if mat_rank([n for n, c in facets if vdot(n, y) == c]) == len(cols)]
    return vertices, facets


@st.composite
def degenerate_point_sets(draw):
    """Rational points in dimension 2..4 spanning an affine subspace of any
    dimension, on a coarse lattice of it so that collinear and coplanar
    triples, edge midpoints and duplicates are common."""
    dim = draw(st.integers(2, 4))
    span = draw(st.integers(1, dim))
    coord = st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    base = draw(st.tuples(*[coord] * dim))
    dirs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                         min_size=span, max_size=span))
    coefficients = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * span),
                                 min_size=1, max_size=10))
    pts = [tuple(b + sum(c * d[i] for c, d in zip(cs, dirs)) for i, b in enumerate(base))
           for cs in coefficients]
    pairs = draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                    st.integers(0, len(pts) - 1)), max_size=4))
    pts += [tuple((x + y) / 2 for x, y in zip(pts[i], pts[j])) for i, j in pairs]
    return pts


class TestHullAgainstSubsetReference:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_point_sets())
    def test_vertices_facets_and_incidence(self, pts):
        hull = convex_hull(pts)
        vertices, facets = reference_hull(pts)
        assert list(hull.vertices) == vertices
        assert list(hull.facets) == facets
        cols = pivot_columns([vsub(v, hull.vertices[0]) for v in hull.vertices[1:]])
        proj = [tuple(v[c] for c in cols) for v in hull.vertices]
        assert list(hull.incidence) == [
            frozenset(k for k, y in enumerate(proj) if vdot(n, y) == c)
            for n, c in facets]
