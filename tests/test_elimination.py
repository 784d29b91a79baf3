"""Oracle tests for the fraction-free elimination and the integer facet
enumeration in exact_math.

The linear algebra is checked against sympy's exact rational matrices.  The
facet enumeration is checked against the earlier Fraction implementation,
which is kept below as the reference: Gauss-Jordan over Fractions for the
candidate normal, and Fraction side tests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from relutoric.errors import RankDeficient  # noqa: E402
from relutoric.exact_math import (  # noqa: E402
    _facets_of_points,
    mat_rank,
    nullspace_covectors,
    pivot_columns,
    rational_to_primitive,
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
        assert _facets_of_points(pts, 3) == reference_facets(pts, 3)

    @settings(max_examples=30, deadline=None)
    @given(point_sets(4, 8))
    def test_four_dimensional(self, pts):
        assert _facets_of_points(pts, 4) == reference_facets(pts, 4)

    def test_offsets_keep_the_common_denominator(self):
        # the cube [0, 1/2]^3 scaled by 2 to integers and back
        cube = [tuple(F(c, 2) for c in v) for v in itertools.product((0, 1), repeat=3)]
        facets = _facets_of_points(cube, 3)
        assert facets == reference_facets(cube, 3)
        assert {c for _, c in facets} == {F(0), F(1, 2)}
