from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relutoric.errors import RankDeficient, ZeroVector
from relutoric.exact_math import (
    RationalPolytope,
    convex_hull,
    euclidean_volume,
    independent_rows,
    kernel_normal,
    lattice_point_count,
    mat_rank,
    mixed_volume,
    normalize_primitive,
    pairing_one_solution,
    solve_exact,
    vdot,
)

TRIANGLE = convex_hull([(0, 0), (0, -1), (-1, 0)])
SQUARE = convex_hull([(0, 0), (-1, 0), (0, -1), (-1, -1)])


def triangle_count_oracle(m: int) -> int:
    # m * conv((0,0),(0,-1),(-1,0)) = {x <= 0, y <= 0, x + y >= -m}
    return sum(1 for x in range(-m, 1) for y in range(-m, 1) if x + y >= -m)


class TestNormalizePrimitive:
    def test_gcd_factoring(self):
        assert normalize_primitive((2, 4, -6)) == ((1, 2, -3), 2)

    def test_direction_preserved(self):
        assert normalize_primitive((0, -5)) == ((0, -1), 5)

    def test_single_coordinate(self):
        assert normalize_primitive((7,)) == ((1,), 7)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            normalize_primitive((0, 0))

    def test_roundtrip(self):
        for v in [(2, 4, -6), (0, -5), (7,), (-3, 9, 0, 12)]:
            prim, scale = normalize_primitive(v)
            assert tuple(scale * p for p in prim) == v


class TestKernelNormal:
    def test_plane_diagonal(self):
        assert kernel_normal([(1, 1)]) == (1, -1)

    def test_three_dims(self):
        assert kernel_normal([(1, 1, 0), (0, 0, 1)]) == (1, -1, 0)

    def test_non_primitive_generator(self):
        assert kernel_normal([(2, 4)]) == (2, -1)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            kernel_normal([(1, 1, 0), (2, 2, 0)])

    def test_orthogonal_and_primitive(self):
        cases = [
            [(1, 2, 3), (0, 1, 1)],
            [(5, -1, 2), (1, 0, 7)],
            [(2, 4)],
        ]
        for gens in cases:
            k = kernel_normal(gens)
            assert all(vdot(k, g) == 0 for g in gens)
            from math import gcd
            g = 0
            for x in k:
                g = gcd(g, abs(x))
            assert g == 1
            assert next(x for x in k if x != 0) > 0

    def test_redundant_generators_accepted(self):
        # More generators than needed, spanning the same hyperplane.
        assert kernel_normal([(1, 1, 0), (0, 0, 1), (1, 1, 1)]) == (1, -1, 0)


def reference_independent_rows(rows):
    """The greedy loop: keep a row when it raises the rank of those kept."""
    chosen = []
    for i, row in enumerate(rows):
        if mat_rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


@st.composite
def row_lists(draw):
    """Rows in dim 1-4: fresh rational rows, zero rows, and combinations
    a + c * b of earlier rows (repeats when c = 0)."""
    dim = draw(st.integers(1, 4))
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "zero", "combination"]))
        if kind == "combination" and rows:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(entry)
            rows.append(tuple(x + c * y for x, y in zip(a, b)))
        elif kind == "zero":
            rows.append((F(0),) * dim)
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=dim, max_size=dim))))
    return rows


class TestIndependentRows:
    def test_first_independent_rows_in_order(self):
        assert independent_rows([(0, 0), (1, 2), (2, 4), (0, 1), (1, 0)]) == [1, 3]

    def test_no_rows(self):
        assert independent_rows([]) == []

    @settings(max_examples=300, deadline=None)
    @given(row_lists())
    def test_matches_greedy_rank_loop(self, rows):
        assert independent_rows(rows) == reference_independent_rows(rows)


class TestPairingOne:
    @pytest.mark.parametrize("phi", [(1, 0), (0, 1), (2, 1), (3, -7), (2, 3, -5)])
    def test_pairs_to_one(self, phi):
        assert vdot(phi, pairing_one_solution(phi)) == 1


class TestConvexHull:
    def test_interior_point_dropped(self):
        hull = convex_hull([(0, 0), (1, 0), (0, 1), (F(1, 4), F(1, 4))])
        assert set(hull.vertices) == {(0, 0), (1, 0), (0, 1)}

    def test_reference_triangle(self):
        assert set(TRIANGLE.vertices) == {(0, 0), (0, -1), (-1, 0)}

    def test_singleton(self):
        hull = convex_hull([(3, 3)])
        assert hull.vertices == ((F(3), F(3)),)

    def test_collinear_points(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert set(hull.vertices) == {(0, 0), (3, 3)}

    def test_edge_midpoint_dropped(self):
        hull = convex_hull([(0, 0), (2, 0), (1, 0), (0, 2)])
        assert set(hull.vertices) == {(0, 0), (2, 0), (0, 2)}

    def test_idempotent(self):
        for pts in [
            [(0, 0), (1, 0), (0, 1), (F(1, 3), F(1, 3)), (1, 1)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 4), F(1, 4), F(1, 4))],
        ]:
            hull = convex_hull(pts)
            again = convex_hull(hull.vertices)
            assert again.vertices == hull.vertices

    def test_three_dimensional_cube(self):
        corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        hull = convex_hull(corners + [(F(1, 2), F(1, 2), F(1, 2))])
        assert len(hull.vertices) == 8
        assert euclidean_volume(hull) == 1
        assert mixed_volume(hull) == 6


class TestLatticeCount:
    def test_triangle_m1(self):
        assert lattice_point_count(TRIANGLE, 1) == 3
        assert triangle_count_oracle(1) == 3

    def test_triangle_m2(self):
        assert lattice_point_count(TRIANGLE, 2) == 6
        assert triangle_count_oracle(2) == 6

    def test_triangle_matches_oracle(self):
        for m in (3, 4, 5, 8):
            assert lattice_point_count(TRIANGLE, m) == triangle_count_oracle(m)

    def test_point(self):
        point = RationalPolytope(2, ((F(0), F(0)),))
        for m in (1, 2, 7):
            assert lattice_point_count(point, m) == 1

    def test_non_lattice_point(self):
        point = RationalPolytope(2, ((F(1, 2), F(0)),))
        assert lattice_point_count(point, 1) == 0
        assert lattice_point_count(point, 2) == 1

    def test_segment_in_plane(self):
        seg = convex_hull([(0, 0), (3, 6)])
        # integer points on the segment from (0,0) to (3m, 6m): 3m + 1
        for m in (1, 2, 3):
            assert lattice_point_count(seg, m) == 3 * m + 1

    def test_ehrhart_polynomiality(self):
        # counts grow as a polynomial of degree dim(P); fit on the first
        # dim+1 values and predict the next one exactly
        for P in (TRIANGLE, SQUARE):
            d = P.affine_dimension()
            ms = list(range(1, d + 2))
            counts = [lattice_point_count(P, m) for m in ms]
            coeffs = solve_exact([[F(m) ** k for k in range(d + 1)] for m in ms],
                                 counts)
            predicted = sum(c * F(d + 2) ** k for k, c in enumerate(coeffs))
            assert predicted == lattice_point_count(P, d + 2)


class TestVolume:
    def test_reference_triangle(self):
        assert euclidean_volume(TRIANGLE) == F(1, 2)

    def test_unit_square(self):
        assert euclidean_volume(SQUARE) == 1

    def test_segment_has_no_area(self):
        assert euclidean_volume(convex_hull([(0, 0), (2, 3)])) == 0

    def test_mixed_volume_triangle(self):
        assert mixed_volume(TRIANGLE) == 1

    def test_mixed_volume_square(self):
        assert mixed_volume(SQUARE) == 2

    def test_standard_simplex(self):
        simplex = convex_hull([(0, 0), (1, 0), (0, 1)])
        assert mixed_volume(simplex) == 1

    def test_mixed_volume_is_count_limit(self):
        # |n! count(m) / m^n - Vol| decreasing over m = 4, 8, 16
        for P in (TRIANGLE, SQUARE):
            vol = mixed_volume(P)
            n = P.dimension
            factor = 1
            for k in range(2, n + 1):
                factor *= k
            errors = [abs(F(factor * lattice_point_count(P, m), m ** n) - vol)
                      for m in (4, 8, 16)]
            assert errors[0] > errors[1] > errors[2]

    def test_rational_vertices(self):
        tri = convex_hull([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
        assert euclidean_volume(tri) == F(1, 8)
