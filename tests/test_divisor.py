import itertools
import random
from dataclasses import replace
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from relutoric.errors import (
    DimensionMismatch,
    InconsistentRayValue,
    NotConvexFunction,
    NotLatticePolytope,
    NotQCartier,
)
from relutoric.divisor import (
    SupportFunction,
    ToricDivisor,
    add_divisors,
    classify_convexity,
    divisor_coefficients,
    ehrhart_volume_estimate,
    extract_support,
    intersection_number,
    line_bundle_volume,
    negate_support,
    newton_polytope,
    polytope_of_divisor,
    scale_divisor,
    support_from_divisor,
    support_of_network,
    support_on_fan,
    wall_curve,
    wall_numbers,
)
from relutoric.exact_math import (
    convex_hull,
    int_det,
    mat_rank,
    mixed_volume,
    solve_exact,
    vadd,
    vdot,
)
from relutoric.expressions import (
    compile_expression,
    evaluate_expression,
    parse_and_compile,
    parse_expression,
)
from relutoric.fan import (
    Fan,
    build_relu_fan,
    central_fan,
    cone_containing,
    cone_from_rays,
    hyperplane,
)
from relutoric.network import network
from conftest import (
    SIXPIECE_EXPR,
    bend_oracle,
    expressions,
    in_cone,
    rand_point,
    rand_rational,
    random_nets,
    reference_intersection_number,
)


@pytest.fixture
def golden_support(golden_net):
    fan = build_relu_fan(golden_net)
    return extract_support(golden_net, fan)


@pytest.fixture
def sixpiece_support():
    return parse_and_compile(SIXPIECE_EXPR, 2)


class TestExtractSupport:
    def test_golden_slopes(self, golden_support):
        assert golden_support.slopes == (
            (F(1), F(0)), (F(0), F(1)), (F(0), F(0)), (F(0), F(0)), (F(1), F(0)))

    def test_zero_network(self):
        net = network([[[1, 0], [0, 1]], [[0, 0]], [[1]]])
        s = support_of_network(net)
        assert all(all(c == 0 for c in m) for m in s.slopes)

    def test_single_neuron(self):
        s = support_of_network(network([[[1, 2]], [[1]]]))
        values = {cone.rays: m for cone, m in zip(s.fan.maximal_cones, s.slopes)}
        for rays, m in values.items():
            probe = vadd(rays[0], rays[1])
            if vdot((1, 2), probe) > 0:
                assert m == (F(1), F(2))
            else:
                assert m == (F(0), F(0))

    def test_value_evaluation(self, golden_support, golden_net):
        rng = random.Random(2)
        from relutoric.network import evaluate
        for _ in range(30):
            p = rand_point(rng, 2)
            assert golden_support.value(p) == evaluate(golden_net, p)

    def test_value_rejects_a_point_of_another_dimension(self):
        s = parse_and_compile("max(x1, x2, 0)", 2)
        assert s.value((1, 2)) == 2
        for point in ((1, 2, 3), (1,)):
            with pytest.raises(DimensionMismatch):
                s.value(point)


class TestDivisorCoefficients:
    def test_golden(self, golden_support):
        D = divisor_coefficients(golden_support)
        assert D.coefficients == (F(-1), F(-1), F(0), F(0), F(0))

    def test_zero_support(self, golden_support):
        zero = support_on_fan(golden_support.fan,
                              [(F(0), F(0)) for _ in golden_support.slopes])
        assert all(a == 0 for a in divisor_coefficients(zero).coefficients)

    def test_single_neuron_formula(self):
        s = support_of_network(network([[[1, 2]], [[1]]]))
        D = divisor_coefficients(s)
        for ray, a in zip(s.fan.rays, D.coefficients):
            pairing = vdot((1, 2), ray)
            assert a == (-pairing if pairing > 0 else 0)

    def test_inconsistent_data_detected(self, golden_support):
        # a table support_on_fan would refuse, built directly
        broken = SupportFunction(
            golden_support.fan, ((1, 0), (0, 1), (0, 0), (0, 0), (2, 0)), 1)
        with pytest.raises(InconsistentRayValue):
            divisor_coefficients(broken)


class TestSupportFromDivisor:
    def test_golden_roundtrip(self, golden_support):
        D = divisor_coefficients(golden_support)
        recovered = support_from_divisor(D)
        assert recovered.slopes == golden_support.slopes

    def test_zero_divisor(self, golden_support):
        D = ToricDivisor(golden_support.fan,
                         tuple(F(0) for _ in golden_support.fan.rays))
        s = support_from_divisor(D)
        assert all(all(c == 0 for c in m) for m in s.slopes)

    def test_cone_over_square_not_qcartier(self):
        cone = cone_from_rays([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3)
        fan = Fan(3, tuple(sorted(cone.rays)), (cone,), ())
        a = {(1, 0, 1): F(0), (-1, 0, 1): F(0), (0, 1, 1): F(0), (0, -1, 1): F(-1)}
        D = ToricDivisor(fan, tuple(a[r] for r in fan.rays))
        with pytest.raises(NotQCartier):
            support_from_divisor(D)

    def test_rational_coefficients(self, golden_support):
        D = scale_divisor(divisor_coefficients(golden_support), F(1, 3))
        s = support_from_divisor(D)
        assert s.slopes[0] == (F(1, 3), F(0))
        assert s.denominator == 3

    def test_roundtrip_on_random_divisors(self, golden_support):
        rng = random.Random(5)
        fan = golden_support.fan
        for _ in range(10):
            D = ToricDivisor(fan, tuple(rand_rational(rng) for _ in fan.rays))
            back = divisor_coefficients(support_from_divisor(D))
            assert back.coefficients == D.coefficients


class TestIntersectionNumbers:
    def test_sixpiece_heavy_wall(self, sixpiece_support):
        s = sixpiece_support
        wall = next(w for w in s.fan.walls if w.generators == ((1, 0),))
        assert intersection_number(s, wall) == -7

    def test_sixpiece_light_wall(self, sixpiece_support):
        s = sixpiece_support
        wall = next(w for w in s.fan.walls if w.generators == ((-1, 0),))
        assert intersection_number(s, wall) == -1

    def test_zero_bend_walls(self, golden_support):
        wall = next(w for w in golden_support.fan.walls
                    if w.generators == ((1, 0),))
        assert intersection_number(golden_support, wall) == 0

    def test_matches_bend_oracle_on_values(self, sixpiece_support):
        ast = parse_expression(SIXPIECE_EXPR, 2)
        s = sixpiece_support
        for wall in s.fan.walls:
            expected = bend_oracle(lambda p: evaluate_expression(ast, p),
                                   s.fan, wall)
            assert intersection_number(s, wall) == expected

    def test_lift_independence(self, sixpiece_support):
        s = sixpiece_support
        for wall in s.fan.walls:
            base = intersection_number(s, wall)
            lift = wall_curve(s.fan, wall)
            for k in (1, 2, -3):
                shifted = vadd(lift, tuple(k * g for g in wall.generators[0]))
                assert reference_intersection_number(s, wall, shifted) == base

    def test_side_symmetry(self, sixpiece_support):
        s = sixpiece_support
        for wall in s.fan.walls:
            lo, hi = wall.cones
            flipped = wall.__class__(wall.generators, (hi, lo), wall.normal,
                                     wall.kind, wall.neurons)
            # recompute with the roles of sigma and sigma' exchanged
            assert intersection_number(s, flipped) == intersection_number(s, wall)

    def test_lift_lands_in_second_cone(self, sixpiece_support):
        s = sixpiece_support
        for wall in s.fan.walls:
            lift = wall_curve(s.fan, wall)
            second = s.fan.maximal_cones[wall.cones[1]]
            assert in_cone(second, lift)
            # inside sigma', so the normal oriented toward sigma' pairs to +1
            assert abs(vdot(wall.normal, lift)) == 1

    def test_linearity_and_scaling(self, golden_support):
        rng = random.Random(13)
        fan = golden_support.fan
        for _ in range(10):
            D = ToricDivisor(fan, tuple(rand_rational(rng) for _ in fan.rays))
            E = ToricDivisor(fan, tuple(rand_rational(rng) for _ in fan.rays))
            sD = support_from_divisor(D)
            sE = support_from_divisor(E)
            sDE = support_from_divisor(add_divisors(D, E))
            for wall in fan.walls:
                assert (intersection_number(sDE, wall)
                        == intersection_number(sD, wall) + intersection_number(sE, wall))
                for l in (2, 3, 7):
                    sLD = support_from_divisor(scale_divisor(D, l))
                    assert intersection_number(sLD, wall) == l * intersection_number(sD, wall)


def assert_lift_agrees(s):
    """`intersection_number` equals the lattice definition on every wall of
    s, also with the two cones of the wall swapped."""
    for wall in s.fan.walls:
        swapped = replace(wall, cones=wall.cones[::-1])
        number = intersection_number(s, wall)
        assert number == reference_intersection_number(s, wall), wall
        assert intersection_number(s, swapped) == number
        assert reference_intersection_number(s, swapped) == number


class TestWallNumberAgainstLift:
    @settings(max_examples=60, deadline=None)
    @given(random_nets(max_dim=4, max_width=4))
    def test_nets(self, net):
        assert_lift_agrees(support_of_network(net))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), expressions(d))))
    def test_compiled_expressions(self, case):
        dim, expr = case
        assert_lift_agrees(compile_expression(expr, dim))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_divisors(self, data):
        fan = build_relu_fan(data.draw(random_nets(max_dim=4, max_width=3)))
        weight = st.fractions(min_value=-5, max_value=5, max_denominator=3)
        D = ToricDivisor(fan, tuple(data.draw(weight) for _ in fan.rays))
        try:
            s = support_from_divisor(D)
        except NotQCartier:
            assume(False)
        assert_lift_agrees(s)


class TestSingleNeuronLaws:
    def _check(self, a, dim):
        net = network([[list(a)], [[1]]])
        s = support_of_network(net)
        for wall in s.fan.walls:
            n = intersection_number(s, wall)
            if all(vdot(a, g) == 0 for g in wall.generators):
                assert n == -1, (a, wall.generators)
            else:
                assert n == 0, (a, wall.generators)

    def test_plane_neurons(self):
        rng = random.Random(41)
        from math import gcd
        seen = 0
        while seen < 12:
            a = (rng.randint(-9, 9), rng.randint(-9, 9))
            if a == (0, 0) or gcd(abs(a[0]), abs(a[1])) != 1:
                continue
            self._check(a, 2)
            seen += 1

    def test_space_neurons(self):
        rng = random.Random(43)
        from math import gcd
        seen = 0
        while seen < 6:
            a = tuple(rng.randint(-9, 9) for _ in range(3))
            g = 0
            for x in a:
                g = gcd(g, abs(x))
            if g != 1:
                continue
            self._check(a, 3)
            seen += 1

    def test_opposite_rows_same_divisor_class(self):
        # max{0, a.x} and max{0, -a.x} differ by the linear term a.x, so
        # their divisors differ by a principal divisor: every intersection
        # number agrees, and the coefficient difference is a pairing with a
        # single covector.
        rng = random.Random(47)
        for _ in range(8):
            a = (rng.randint(-9, 9), rng.randint(-9, 9))
            if a == (0, 0):
                continue
            pos = support_of_network(network([[list(a)], [[1]]]))
            neg = support_of_network(network([[[-x for x in a]], [[1]]]))
            Dp = divisor_coefficients(pos)
            Dn = divisor_coefficients(neg)
            assert Dp.fan.rays == Dn.fan.rays
            for wall_p, wall_n in zip(Dp.fan.walls, Dn.fan.walls):
                assert (intersection_number(pos, wall_p)
                        == intersection_number(neg, wall_n))
            from relutoric.exact_math import solve_exact
            diff = [p - n for p, n in zip(Dp.coefficients, Dn.coefficients)]
            g = solve_exact(Dp.fan.rays, [-d for d in diff])
            assert g is not None  # principal: a_p - a_n = -<g, u_rho>


class TestClassify:
    def test_negated_golden_is_basepoint_free_not_ample(self, golden_support):
        report = classify_convexity(negate_support(golden_support))
        assert report.convex and not report.strictly_convex
        assert not report.concave

    def test_sixpiece_neither(self, sixpiece_support):
        report = classify_convexity(sixpiece_support)
        assert not report.convex and not report.concave

    def test_zero_function(self, golden_support):
        zero = support_on_fan(golden_support.fan,
                              [(F(0), F(0)) for _ in golden_support.slopes])
        report = classify_convexity(zero)
        assert report.convex and report.concave
        assert not report.strictly_convex and not report.strictly_concave

    def test_agrees_with_value_oracle(self, golden_support, sixpiece_support):
        rng = random.Random(53)
        for s in (negate_support(golden_support), golden_support, sixpiece_support):
            report = classify_convexity(s)
            min_ok = True
            max_ok = True
            for _ in range(200):
                p = rand_point(rng, 2)
                value = s.value(p)
                pieces = [vdot(m, p) for m in s.slopes]
                if value != min(pieces):
                    min_ok = False
                if value != max(pieces):
                    max_ok = False
            assert report.convex == min_ok      # divisor-sense convex: min of pieces
            assert report.concave == max_ok     # function-sense convex: max of pieces


class TestPolytopes:
    def test_golden_negated(self, golden_support):
        D = divisor_coefficients(golden_support)
        P = polytope_of_divisor(scale_divisor(D, -1))
        assert set(P.vertices) == {(F(0), F(0)), (F(0), F(-1)), (F(-1), F(0))}

    def test_zero_divisor(self, golden_support):
        D = ToricDivisor(golden_support.fan,
                         tuple(F(0) for _ in golden_support.fan.rays))
        P = polytope_of_divisor(D)
        assert P.vertices == ((F(0), F(0)),)

    def test_two_ramps(self):
        net = network([[[1, 0], [0, 1]], [[1, 1]]])
        s = support_of_network(net)
        D = scale_divisor(divisor_coefficients(s), -1)
        P = polytope_of_divisor(D)
        assert set(P.vertices) == {
            (F(0), F(0)), (F(-1), F(0)), (F(0), F(-1)), (F(-1), F(-1))}
        assert line_bundle_volume(D) == 2

    def test_empty_sections(self, golden_support):
        D = divisor_coefficients(golden_support)  # sections of D_f are empty
        P = polytope_of_divisor(D)
        assert P.is_empty()
        assert line_bundle_volume(D) == 0

    def test_nonconvex_halfspace_route(self, sixpiece_support):
        D = divisor_coefficients(sixpiece_support)
        P = polytope_of_divisor(D)
        # {m : <m, u> >= -a} computed directly from ray constraints
        for ray, a in zip(D.fan.rays, D.coefficients):
            for v in P.vertices:
                assert vdot(v, ray) >= -a


class TestNewton:
    def test_golden(self, golden_support):
        P = newton_polytope(golden_support)
        assert set(P.vertices) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}

    def test_constant_zero(self, golden_support):
        zero = support_on_fan(golden_support.fan,
                              [(F(0), F(0)) for _ in golden_support.slopes])
        assert newton_polytope(zero).vertices == ((F(0), F(0)),)

    def test_single_neuron(self):
        s = support_of_network(network([[[1, 2]], [[1]]]))
        P = newton_polytope(s)
        assert set(P.vertices) == {(F(0), F(0)), (F(1), F(2))}

    def test_not_convex_function(self, sixpiece_support):
        with pytest.raises(NotConvexFunction):
            newton_polytope(sixpiece_support)

    def test_newton_bridge(self, golden_support):
        # Newt(f) = -P_{-D} vertex for vertex
        for s in (golden_support,
                  support_of_network(network([[[1, 2]], [[1]]])),
                  support_of_network(network([[[1, 0], [0, 1]], [[2, 3]]]))):
            newt = newton_polytope(s)
            negD = scale_divisor(divisor_coefficients(s), -1)
            P = polytope_of_divisor(negD)
            assert {tuple(-c for c in v) for v in P.vertices} == set(newt.vertices)

    def test_volume_bridge(self, golden_support):
        from relutoric.exact_math import mixed_volume
        for s in (golden_support,
                  support_of_network(network([[[1, 0], [0, 1]], [[1, 1]]]))):
            negD = scale_divisor(divisor_coefficients(s), -1)
            assert mixed_volume(newton_polytope(s)) == line_bundle_volume(negD)


class TestEhrhartEstimate:
    def test_reference_triangle(self, golden_support):
        D = scale_divisor(divisor_coefficients(golden_support), -1)
        P = polytope_of_divisor(D)
        seq = ehrhart_volume_estimate(P, 4)
        assert seq == (F(6), F(3), F(20, 9), F(15, 8))
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_unit_square(self):
        net = network([[[1, 0], [0, 1]], [[1, 1]]])
        D = scale_divisor(divisor_coefficients(support_of_network(net)), -1)
        seq = ehrhart_volume_estimate(polytope_of_divisor(D), 4)
        assert seq[3] == F(2 * 25, 16)
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_point_tends_to_zero(self):
        from relutoric.exact_math import convex_hull
        P = convex_hull([(F(0), F(0))])
        seq = ehrhart_volume_estimate(P, 4)
        assert seq == (F(2), F(1, 2), F(2, 9), F(1, 8))

    def test_rejects_rational_vertices(self):
        from relutoric.exact_math import convex_hull
        P = convex_hull([(0, 0), (F(1, 2), 0), (0, F(1, 2))])
        with pytest.raises(NotLatticePolytope):
            ehrhart_volume_estimate(P, 2)


class TestSupportOnFan:
    def test_continuity_enforced(self, golden_support):
        fan = golden_support.fan
        from relutoric.errors import ContinuityViolation
        with pytest.raises(ContinuityViolation):
            support_on_fan(fan, [(1, 0), (0, 1), (0, 0), (0, 0), (2, 0)])

    def test_valid_data_accepted(self, golden_support):
        s = support_on_fan(golden_support.fan, golden_support.slopes)
        assert s.slopes == golden_support.slopes


# ---------------------------------------------------------------------------
# section and Newton polytopes against enumerations and closed forms
# ---------------------------------------------------------------------------

def reference_section_vertices(D):
    """Vertices of P_D by brute force: every dim-subset of independent ray
    constraints meets in one point, a vertex when it satisfies them all."""
    dim = D.fan.dim
    rays = D.fan.rays
    rhs = [-a for a in D.coefficients]
    vertices = set()
    for subset in itertools.combinations(range(len(rays)), dim):
        rows = [rays[i] for i in subset]
        if mat_rank(rows) != dim:
            continue
        point = solve_exact(rows, [rhs[i] for i in subset])
        if all(vdot(rays[i], point) >= rhs[i] for i in range(len(rays))):
            vertices.add(point)
    return tuple(sorted(vertices))


@st.composite
def divisors_on_arrangement_fans(draw):
    """Small coefficients on the rays of random central fans in dimension
    2..4.  In a sample of 200, 141 were not nef; 99 section polytopes were
    empty, 44 lower-dimensional and 57 full-dimensional."""
    dim = draw(st.integers(2, 4))
    normals = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                            min_size=dim, max_size=6 if dim == 2 else 5))
    assume(mat_rank(normals) == dim)
    fan = central_fan([hyperplane(n) for n in normals], dim)
    coefficient = st.sampled_from([F(0), F(0), F(1), F(1), F(2), F(1, 2), F(-1, 2)])
    return ToricDivisor(fan, tuple(draw(st.lists(
        coefficient, min_size=len(fan.rays), max_size=len(fan.rays)))))


class TestSectionPolytopeAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(divisors_on_arrangement_fans())
    def test_vertices_facets_and_incidence(self, D):
        P = polytope_of_divisor(D)
        assert P.vertices == reference_section_vertices(D)
        if P.vertices:
            hull = convex_hull(P.vertices)
            assert P.facets == hull.facets
            assert P.incidence == hull.incidence


@st.composite
def zonotope_nets(draw):
    """Integer rows spanning R^d, d = 2..4, with positive output weights:
    the network computes a convex function whose Newton polytope is the
    zonotope of the weighted rows."""
    dim = draw(st.integers(2, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                         min_size=dim, max_size=6))
    assume(mat_rank(rows) == dim)
    weights = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    return rows, weights


def _zonotope_normalized_volume(rows, weights):
    gens = [[w * x for x in row] for row, w in zip(rows, weights)]
    dim = len(rows[0])
    return factorial(dim) * sum(abs(int_det(list(s)))
                                for s in itertools.combinations(gens, dim))


class TestZonotopeOracle:
    """A zonotope is dual to the central arrangement of its generators: its
    vertices match the arrangement's maximal cones (Zaslavsky's count), and
    its volume is the sum of |det| over the dim-subsets of generators."""

    @settings(max_examples=40, deadline=None)
    @given(zonotope_nets())
    def test_vertex_count_and_volume(self, zonotope):
        rows, weights = zonotope
        P = newton_polytope(support_of_network(network([rows, [weights]])))
        arrangement = central_fan([hyperplane(r) for r in rows], len(rows[0]))
        assert len(P.vertices) == len(arrangement.maximal_cones)
        assert mixed_volume(P) == _zonotope_normalized_volume(rows, weights)

    def test_seeded_4_6_1_zonotope(self):
        # corpus.zonotope_net(random.Random(1), 4, 6, 2, 3), written out
        rows = [[-1, 2, -2, 0], [-2, 1, 1, 1], [1, -1, -2, 1], [-2, 1, 1, 2],
                [-2, 1, 0, -1], [2, -2, 0, -2]]
        weights = [1, 1, 3, 3, 1, 2]
        P = newton_polytope(support_of_network(network([rows, [weights]])))
        assert len(P.vertices) == 50
        assert mixed_volume(P) == 29016 == _zonotope_normalized_volume(rows, weights)
