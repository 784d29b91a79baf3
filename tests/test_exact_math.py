import itertools
import random
from fractions import Fraction as F
from math import ceil, factorial, floor, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relutoric.divisor import ehrhart_volume_estimate
from relutoric.errors import RankDeficient, ZeroVector
from relutoric.exact_math import (
    convex_hull,
    euclidean_volume,
    independent_rows,
    int_det,
    kernel_normal,
    lattice_point_count,
    lowest_terms,
    mat_rank,
    mixed_volume,
    normalize_primitive,
    pairing_one_solution,
    pivot_columns,
    solve_exact,
    vdot,
    vscale,
    vsub,
)

TRIANGLE = convex_hull([(0, 0), (0, -1), (-1, 0)])
SQUARE = convex_hull([(0, 0), (-1, 0), (0, -1), (-1, -1)])


def triangle_count_oracle(m: int) -> int:
    # m * conv((0,0),(0,-1),(-1,0)) = {x <= 0, y <= 0, x + y >= -m}
    return sum(1 for x in range(-m, 1) for y in range(-m, 1) if x + y >= -m)


def reference_normalize_primitive(v):
    """The coordinate gcd read by a loop over the coordinates."""
    v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        raise ZeroVector("cannot normalize the zero vector")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v), g


class TestNormalizePrimitive:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(-3, 3),
                              st.fractions(max_denominator=5)), max_size=5))
    def test_matches_the_coordinate_loop(self, v):
        try:
            expected = reference_normalize_primitive(v)
        except ZeroVector as exc:
            with pytest.raises(ZeroVector, match=str(exc)):
                normalize_primitive(v)
            return
        got = normalize_primitive(v)
        assert got == expected
        assert all(type(x) is int for x in got[0]) and type(got[1]) is int

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


class TestLowestTerms:
    """Rows over a denominator against the same entries as Fractions: the
    entries keep their values, and the denominator is the lcm of theirs."""

    def test_matches_fractions_on_random_rows(self):
        rng = random.Random(26)
        for _ in range(500):
            width = rng.randint(1, 4)
            rows = [tuple(rng.choice((0, rng.randint(-60, 60))) for _ in range(width))
                    for _ in range(rng.randint(1, 5))]
            denominator = rng.choice((1, rng.randint(1, 360)))
            got, d = lowest_terms(rows, denominator)
            values = [[F(x, denominator) for x in row] for row in rows]
            assert d == lcm(*(x.denominator for row in values for x in row))
            assert [[F(x, d) for x in row] for row in got] == values
            assert all(type(x) is int for row in got for x in row)

    def test_negative_entries(self):
        assert lowest_terms([(-4, 6), (2, -10)], 8) == ([(-2, 3), (1, -5)], 4)

    def test_all_zero_rows_come_over_one(self):
        assert lowest_terms([(0, 0), (0, 0)], 6) == ([(0, 0), (0, 0)], 1)
        assert lowest_terms([(0,)], 1) == ([(0,)], 1)


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
        point = convex_hull([(F(0), F(0))])
        for m in (1, 2, 7):
            assert lattice_point_count(point, m) == 1

    def test_non_lattice_point(self):
        point = convex_hull([(F(1, 2), F(0))])
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


def reference_lattice_point_count(P, m, interior=False):
    """The bounding-box scan that lattice_point_count replaced: every integer
    point of the box of the pivot coordinates of m * P is tested against the
    facets (strictly for `interior`), and its other coordinates, affine
    functions of the pivot ones on the affine hull, for integrality."""
    if P.is_empty():
        return 0
    if len(P.vertices) == 1:
        point = vscale(m, P.vertices[0])
        return 1 if all(x.denominator == 1 for x in point) else 0
    base = P.vertices[0]
    dirs = [vsub(v, base) for v in P.vertices[1:]]
    cols = pivot_columns(dirs)
    lift = _affine_lift(base, dirs, cols, P.dimension)
    ranges = [range(ceil(min(m * v[c] for v in P.vertices)),
                    floor(max(m * v[c] for v in P.vertices)) + 1) for c in cols]
    facets = P.facets
    count = 0
    for y in itertools.product(*ranges):
        if any(vdot(n, y) > m * c or interior and vdot(n, y) == m * c for n, c in facets):
            continue
        if lift is not None and not _lift_is_integral(lift, y, m):
            continue
        count += 1
    return count


def _affine_lift(base, dirs, cols, ambient):
    """Each non-pivot coordinate as an affine function of the pivot
    coordinates on the affine hull; None when the hull is full."""
    if len(cols) == ambient:
        return None
    basis = [dirs[i] for i in independent_rows(dirs)]
    tmat = [[basis[j][c] for j in range(len(cols))] for c in cols]
    transposed = [tuple(row[i] for row in tmat) for i in range(len(tmat[0]))]
    rows = []
    for c in range(ambient):
        if c in cols:
            continue
        coeffs = solve_exact(transposed, [basis[j][c] for j in range(len(cols))])
        const = base[c] - sum(w * base[col] for w, col in zip(coeffs, cols))
        rows.append((coeffs, const))
    return rows


def _lift_is_integral(lift, y, m):
    return all((m * const + sum(w * yi for w, yi in zip(coeffs, y))).denominator == 1
               for coeffs, const in lift)


def box_points(P, m):
    """Points the reference scans for m * P."""
    if len(P.vertices) < 2:
        return 1
    cols = pivot_columns([vsub(v, P.vertices[0]) for v in P.vertices[1:]])
    return prod(max(0, floor(max(m * v[c] for v in P.vertices))
                    - ceil(min(m * v[c] for v in P.vertices)) + 1) for c in cols)


@st.composite
def rational_polytopes(draw, lattice=False):
    """Hulls in dim 1-4: of dim + 1 to dim + 4 points (full-dimensional in
    general), of points on a random affine line or plane (the lift path),
    or of a single point.  Coordinates are p/q with q <= 3, integers for
    `lattice`; their range shrinks with the dimension so that the
    reference scan stays small."""
    dim = draw(st.integers(1, 4))
    bound = {1: 3, 2: 3, 3: 2, 4: 1}[dim]
    coord = st.builds(F, st.integers(-bound, bound),
                      st.just(1) if lattice else st.integers(1, 3))
    point = st.tuples(*[coord] * dim)
    kind = draw(st.sampled_from(["full", "full", "flat", "flat", "point"]))
    if kind == "point":
        return convex_hull([draw(point)])
    if kind == "full" or dim == 1:
        return convex_hull(draw(st.lists(point, min_size=dim + 1, max_size=dim + 4)))
    base = draw(point)
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim),
                         min_size=1, max_size=min(2, dim - 1)))
    weights = draw(st.lists(st.lists(coord, min_size=len(gens), max_size=len(gens)),
                            min_size=1, max_size=5))
    return convex_hull([tuple(b + sum(w * g[i] for w, g in zip(ws, gens))
                              for i, b in enumerate(base)) for ws in weights])


def scannable_dilations(P, limit=4000):
    """The dilations 1-6 whose reference scan visits at most `limit` points."""
    return [m for m in range(1, 7) if box_points(P, m) <= limit]


class TestFibreCount:
    @settings(max_examples=250, deadline=None)
    @given(rational_polytopes(), st.data())
    def test_matches_box_scan(self, P, data):
        m = data.draw(st.sampled_from(scannable_dilations(P)))
        for interior in (False, True):
            assert (lattice_point_count(P, m, interior)
                    == reference_lattice_point_count(P, m, interior))

    # Each polytope has a facet whose coefficient of the last coordinate is
    # 0, which bounds the interior without bounding any last-level fibre.
    @pytest.mark.parametrize("points, interior_counts", [
        ([(0, 0), (2, 0), (0, 2), (2, 2)], [1, 9, 25]),
        ([(0, 0), (3, 0), (0, 3)], [1, 10, 28]),
        ([(x, y, z) for x, y in [(0, 0), (3, 0), (0, 3)] for z in (0, 2)], [1, 30, 140]),
        ([(0, 0, 0), (2, 0, 2), (0, 2, 0), (2, 2, 2)], [1, 9, 25]),
    ])
    def test_interior_with_facet_parallel_to_last_axis(self, points, interior_counts):
        P = convex_hull(points)
        for m, expected in enumerate(interior_counts, start=1):
            assert lattice_point_count(P, m, interior=True) == expected
            assert reference_lattice_point_count(P, m, interior=True) == expected

    def test_single_point_is_its_own_interior(self):
        assert lattice_point_count(convex_hull([(F(1), F(2))]), 3, True) == 1
        assert lattice_point_count(convex_hull([(F(1, 3), F(2))]), 2, True) == 0


@st.composite
def zonotope_generators(draw):
    """1-5 nonzero integer generators in dim 1-4, entries in [-2, 2]."""
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    return draw(st.lists(vector, min_size=1, max_size=5 if dim < 4 else 4))


def stanley_zonotope_count(generators, m):
    """L(m) = sum over linearly independent subsets S of h(S) m^|S|, h(S) the
    gcd of the maximal minors of S (Stanley; Beck and Robins, Thm. 9.2)."""
    dim = len(generators[0])
    total = 0
    for size in range(len(generators) + 1):
        for S in itertools.combinations(generators, size):
            h = 0
            for columns in itertools.combinations(range(dim), size):
                h = gcd(h, int_det([[g[c] for c in columns] for g in S]))
            total += h * m ** size
    return total


class TestEhrhartSequence:
    @settings(max_examples=120, deadline=None)
    @given(rational_polytopes(lattice=True))
    def test_interpolation_equals_direct_counts(self, P):
        n, m_max = P.dimension, P.affine_dimension() + 3
        assert ehrhart_volume_estimate(P, m_max) == tuple(
            F(factorial(n) * lattice_point_count(P, m), m ** n) for m in range(1, m_max + 1))

    @settings(max_examples=80, deadline=None)
    @given(zonotope_generators())
    def test_stanley_zonotope_formula(self, generators):
        dim = len(generators[0])
        Z = convex_hull([tuple(sum(g[i] for g in S) for i in range(dim))
                         for size in range(len(generators) + 1)
                         for S in itertools.combinations(generators, size)])
        assert ehrhart_volume_estimate(Z, 6) == tuple(
            F(factorial(dim) * stanley_zonotope_count(generators, m), m ** dim)
            for m in range(1, 7))


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
