import itertools
import random
from collections import Counter
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from relutoric.divisor import extract_support, intersection_number
from relutoric.errors import Biased, NotEssential
from relutoric.exact_math import (
    int_det,
    integer_kernel_direction,
    mat_rank,
    solve_exact,
    vdot,
    vneg,
)
from relutoric.fan import (
    BENT,
    LAYER1,
    SYNTHETIC,
    Cone,
    Fan,
    _assemble_fan,
    _facet_normals,
    _split_cone,
    build_relu_fan,
    central_fan,
    cone_containing,
    cone_from_rays,
    hyperplane,
    merge_hyperplanes,
    sort_rays,
    validate_fan,
    wall_groups,
)
from relutoric.jsonio import encode_fan
from relutoric.network import NeuronId, evaluate, network, neuron_value
from conftest import bend_oracle, rand_point, rand_rational

GOLDEN_RAYS = ((1, 0), (1, 1), (-1, 0), (-1, -1), (0, -1))


class TestCentralFan:
    def test_two_lines(self):
        fan = central_fan([hyperplane((0, 1)), hyperplane((1, -1))], 2)
        assert fan.rays == ((1, 0), (1, 1), (-1, 0), (-1, -1))
        assert len(fan.maximal_cones) == 4

    def test_three_concurrent_lines(self):
        fan = central_fan(
            [hyperplane((0, 1)), hyperplane((1, -1)), hyperplane((1, 1))], 2)
        assert len(fan.rays) == 6
        assert len(fan.maximal_cones) == 6

    def test_single_line_not_essential(self):
        with pytest.raises(NotEssential):
            central_fan([hyperplane((1, 0))], 2)

    def test_three_dim_coordinate_planes(self):
        planes = [hyperplane((1, 0, 0)), hyperplane((0, 1, 0)), hyperplane((0, 0, 1))]
        fan = central_fan(planes, 3)
        assert len(fan.maximal_cones) == 8  # octants
        assert len(fan.rays) == 6
        assert validate_fan(fan).valid

    def test_four_planes_in_space(self):
        planes = [hyperplane(n) for n in
                  [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
        fan = central_fan(planes, 3)
        report = validate_fan(fan)
        assert report.valid and report.complete


class TestBuildReLUFan:
    def test_golden_rays_and_cones(self, golden_net):
        fan = build_relu_fan(golden_net)
        assert fan.rays == GOLDEN_RAYS
        assert len(fan.maximal_cones) == 5
        assert [c.rays for c in fan.maximal_cones] == [
            ((1, 0), (1, 1)),
            ((1, 1), (-1, 0)),
            ((-1, 0), (-1, -1)),
            ((-1, -1), (0, -1)),
            ((0, -1), (1, 0)),
        ]

    def test_golden_wall_provenance(self, golden_net):
        fan = build_relu_fan(golden_net)
        tags = {w.generators[0]: (w.kind, w.normal) for w in fan.walls}
        assert tags[(1, 0)] == (LAYER1, (0, 1))
        assert tags[(-1, 0)] == (LAYER1, (0, 1))
        assert tags[(1, 1)] == (LAYER1, (1, -1))
        assert tags[(-1, -1)] == (LAYER1, (1, -1))
        assert tags[(0, -1)] == (BENT, (1, 0))
        bent = next(w for w in fan.walls if w.kind == BENT)
        assert bent.neurons == ((2, 1),)
        layer1 = next(w for w in fan.walls if w.generators[0] == (1, 0))
        assert layer1.neurons == ((1, 1), (1, 2))

    def test_shallow_coordinate_net(self):
        fan = build_relu_fan(network([[[1, 0], [0, 1]], [[1, 1]]]))
        assert fan.rays == ((1, 0), (0, 1), (-1, 0), (0, -1))

    def test_degenerate_functional_no_split(self):
        # second layer sees only max{0, x}; its functional vanishes where
        # the first neuron is off, so no cone is split there
        net = network([[[1, 0], [0, 1]], [[1, 0]], [[1]]])
        notes = []
        fan = build_relu_fan(net, diagnostics=notes)
        assert len(fan.maximal_cones) == 4
        assert notes

    def test_single_neuron_augmented(self):
        fan = build_relu_fan(network([[[1, 2]], [[1]]]))
        assert fan.rays == ((1, 0), (0, 1), (-2, 1), (-1, 0), (0, -1), (2, -1))
        kinds = {h.normal: h.kind for h in fan.hyperplanes}
        assert kinds[(1, 2)] == LAYER1
        assert kinds[(1, 0)] == SYNTHETIC
        assert kinds[(0, 1)] == SYNTHETIC

    def test_biased_rejected(self):
        net = network([[[1, 0]], [[1]]], biases=[[1], [0]])
        with pytest.raises(Biased):
            build_relu_fan(net)

    def test_zero_network(self):
        fan = build_relu_fan(network([[[0, 0]], [[1]]]))
        assert len(fan.maximal_cones) == 4  # augmented coordinate fan

    def test_three_dim_refinement(self):
        net = network([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, -1]], [[1]]])
        fan = build_relu_fan(net)
        report = validate_fan(fan)
        assert report.valid and report.complete
        assert any(w.kind == BENT for w in fan.walls)


class TestWalls:
    def test_golden_groups(self, golden_net):
        fan = build_relu_fan(golden_net)
        walls = fan.walls
        assert len(walls) == 5
        groups = dict(wall_groups(fan))
        assert set(groups) == {(0, 1), (1, -1), (1, 0)}
        assert len(groups[(0, 1)]) == 2
        assert len(groups[(1, -1)]) == 2
        assert len(groups[(1, 0)]) == 1  # the bent singleton

    def test_coordinate_fan_groups(self):
        fan = build_relu_fan(network([[[1, 0], [0, 1]], [[1, 1]]]))
        assert len(fan.walls) == 4
        assert len(wall_groups(fan)) == 2

    def test_three_line_fan_groups(self):
        fan = central_fan(
            [hyperplane((0, 1)), hyperplane((1, 1)), hyperplane((1, -1))], 2)
        assert len(fan.walls) == 6
        assert len(wall_groups(fan)) == 3

    def test_two_sidedness_and_span(self, golden_net):
        fan = build_relu_fan(golden_net)
        for wall in fan.walls:
            assert len(wall.cones) == 2
            assert wall.cones[0] < wall.cones[1]
            assert mat_rank(wall.generators) == fan.dim - 1
            for g in wall.generators:
                assert vdot(wall.normal, g) == 0


class TestValidateFan:
    def test_golden_is_valid(self, golden_net):
        report = validate_fan(build_relu_fan(golden_net))
        assert report.valid
        assert report.complete
        assert report.violations == ()

    def test_halfplanes_not_strongly_convex(self):
        upper = cone_from_rays([(1, 0), (0, 1), (-1, 0)], 2)
        lower = cone_from_rays([(1, 0), (0, -1), (-1, 0)], 2)
        fan = Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), (upper, lower), ())
        report = validate_fan(fan)
        assert not report.strongly_convex

    def test_overlapping_cones_flagged(self):
        big = cone_from_rays([(1, 0), (0, 1)], 2)
        inner = cone_from_rays([(1, 0), (1, 1)], 2)
        fan = Fan(2, ((1, 0), (1, 1), (0, 1)), (big, inner), ())
        report = validate_fan(fan)
        assert not report.face_property
        assert "facet ((1, 0),) bounds two cones on one side" in report.violations

    def test_missing_cone_not_complete(self, golden_net):
        full = build_relu_fan(golden_net)
        partial = Fan(2, full.rays, full.maximal_cones[:-1], ())
        report = validate_fan(partial)
        assert not report.complete

    def test_disjoint_same_side_cycles_not_complete(self):
        # rays at about 0/50/100 and 180/230/280 degrees, each triple with
        # its three cones: every facet bounds two cones and the rays
        # positively span, yet the sector from 100 to 180 degrees is bare
        cycles = [((1, 0), (5, 6), (-1, 6)), ((-1, 0), (-5, -6), (1, -6))]
        fan = _collection((cone_from_rays(pair, 2) for rays in cycles
                           for pair in itertools.combinations(rays, 2)), 2)
        report = validate_fan(fan)
        assert report.complete is False
        assert not report.valid

    def test_pentagram_covers_the_plane_twice(self):
        rays = [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)]
        fan = _planar_collection(rays, step=2)
        report = validate_fan(fan)
        assert report.two_sided and report.complete
        assert report.degree == 2
        assert not report.face_property and not report.valid

    def test_no_cones(self):
        report = validate_fan(Fan(2, (), (), ()))
        assert report.degree == 0
        assert not report.complete and not report.valid

    def test_seeded_3_16_1_fan_is_valid(self):
        rng = random.Random(1)
        widths = (3, 16, 1)
        net = network([[[F(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(widths[i])] for _ in range(widths[i + 1])]
                       for i in range(len(widths) - 1)])
        fan = build_relu_fan(net)
        assert len(fan.maximal_cones) > 200
        report = validate_fan(fan)
        assert report.valid, report.violations

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_nets_are_fans_with_oracle_wall_numbers(self, data):
        net = data.draw(random_nets(max_dim=4, max_width=4))
        fan = build_relu_fan(net)
        report = validate_fan(fan)
        assert report.valid, report.violations
        support = extract_support(net, fan)
        for wall in fan.walls:
            assert intersection_number(support, wall) == bend_oracle(
                lambda p: evaluate(net, p), fan, wall)


# ---------------------------------------------------------------------------
# the local checks against the all-pairs check they replaced
# ---------------------------------------------------------------------------

# Reference: every pair of cones is intersected by enumerating the extreme
# rays of their joint facet inequalities over (d-1)-subsets, and the
# intersection must be an exposed face of both; completeness is "every facet
# bounds two cones and the rays positively span".

def _rays_from_halfspaces(normals, dim):
    rays = set()
    for subset in itertools.combinations(normals, dim - 1):
        if mat_rank(subset) != dim - 1:
            continue
        direction = integer_kernel_direction(subset)
        for cand in (direction, vneg(direction)):
            if cand in rays:
                continue
            products = [vdot(n, cand) for n in normals]
            if any(p < 0 for p in products):
                continue
            active = [n for n, p in zip(normals, products) if p == 0]
            if mat_rank(active) == dim - 1:
                rays.add(cand)
    return sorted(rays)


def _positively_spanning(rays, dim):
    if mat_rank(rays) < dim:
        return False
    for subset in itertools.combinations(rays, dim - 1):
        if mat_rank(subset) != dim - 1:
            continue
        direction = integer_kernel_direction(subset)
        for cand in (direction, vneg(direction)):
            if all(vdot(cand, r) >= 0 for r in rays):
                return False
    return True


def _face_property(cones, dim):
    if len({tuple(sorted(c.rays)) for c in cones}) != len(cones):
        return False
    for ci, cj in itertools.combinations(cones, 2):
        normals = sorted(set(ci.halfspaces + cj.halfspaces))
        shared = _rays_from_halfspaces(normals, dim)
        for cone in (ci, cj):
            if not set(shared) <= set(cone.rays):
                return False
            active = [n for n in cone.halfspaces
                      if all(vdot(n, r) == 0 for r in shared)]
            exposed = {r for r in cone.rays if all(vdot(n, r) == 0 for n in active)}
            if exposed != set(shared):
                return False
    return True


def reference_validate(fan):
    """(complete, valid) by the all-pairs check."""
    facets = Counter(tuple(sorted(r for r in cone.rays if vdot(n, r) == 0))
                     for cone in fan.maximal_cones for n in cone.halfspaces)
    complete = (all(count == 2 for count in facets.values())
                and _positively_spanning(fan.rays, fan.dim))
    strongly_convex = all(mat_rank(c.halfspaces) == fan.dim for c in fan.maximal_cones)
    valid = (strongly_convex and complete
             and _face_property(fan.maximal_cones, fan.dim))
    return complete, valid


def _collection(cones, dim):
    """A Fan of the given cones, as a hand-built document would give it."""
    cones = tuple(cones)
    return Fan(dim, tuple(sort_rays({r for c in cones for r in c.rays}, dim)), cones, ())


def _planar_collection(rays, step):
    """Planar cones from each ray to the one `step` places on, cyclically."""
    return _collection((cone_from_rays([a, rays[(i + step) % len(rays)]], 2)
                        for i, a in enumerate(rays)), 2)


@st.composite
def small_central_fans(draw):
    """Fans of essential central arrangements small enough for the all-pairs
    reference: up to 8 lines in the plane, 4 planes in dimensions 3 and 4."""
    dim = draw(st.integers(2, 4))
    normals = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * dim).filter(any),
                            min_size=dim, max_size=8 if dim == 2 else 4))
    assume(mat_rank(normals) == dim)
    return central_fan([hyperplane(n) for n in normals], dim)


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


# Sixteen directions around the plane, counterclockwise.
_COMPASS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1),
            (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1)]


class TestLocalChecksAgainstReference:
    def _assert_agrees(self, fan):
        report = validate_fan(fan)
        assert (report.complete, report.valid) == reference_validate(fan), report

    @settings(max_examples=30, deadline=None)
    @given(small_central_fans())
    def test_central_fans(self, fan):
        assert validate_fan(fan).valid
        self._assert_agrees(fan)

    @settings(max_examples=20, deadline=None)
    @given(random_nets(max_dim=3, max_width=2))
    def test_relu_fans(self, net):
        self._assert_agrees(build_relu_fan(net))

    @settings(max_examples=80, deadline=None)
    @given(small_central_fans(), st.sampled_from(["drop", "duplicate", "replace"]),
           st.data())
    def test_perturbed_cone_lists(self, fan, change, data):
        dim = fan.dim
        cones = list(fan.maximal_cones)
        k = data.draw(st.integers(0, len(cones) - 1))
        if change == "drop":
            del cones[k]
        elif change == "duplicate":
            cones.insert(data.draw(st.integers(0, len(cones))), cones[k])
        else:
            rays = data.draw(st.lists(st.sampled_from(fan.rays), min_size=dim,
                                      max_size=dim + 2, unique=True))
            assume(mat_rank(rays) == dim)
            cones[k] = cone_from_rays(rays, dim)
            assume(mat_rank(cones[k].halfspaces) == dim)
        self._assert_agrees(_collection(cones, dim))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(_COMPASS), min_size=5, max_size=11, unique=True)
           .map(lambda rays: sort_rays(rays, 2)).filter(lambda rays: len(rays) % 2))
    def test_winding_two_planar_fans(self, rays):
        # each cone skips a ray; with an odd count the cycle of cones goes
        # round the origin twice
        assume(all(rays[i][0] * rays[(i + 2) % len(rays)][1]
                   - rays[i][1] * rays[(i + 2) % len(rays)][0] > 0
                   for i in range(len(rays))))
        fan = _planar_collection(rays, step=2)
        assert validate_fan(fan).degree == 2
        self._assert_agrees(fan)


class TestConeContaining:
    def test_interior_point(self, golden_net):
        fan = build_relu_fan(golden_net)
        assert cone_containing(fan, (2, 1)) == 0

    def test_origin_lowest_index(self, golden_net):
        fan = build_relu_fan(golden_net)
        assert cone_containing(fan, (0, 0)) == 0

    def test_wall_tie_breaks_low(self, golden_net):
        fan = build_relu_fan(golden_net)
        assert cone_containing(fan, (1, 1)) == 0
        assert cone_containing(fan, (-2, -2)) == 2

    def test_random_membership(self, golden_net):
        fan = build_relu_fan(golden_net)
        rng = random.Random(17)
        for _ in range(100):
            p = rand_point(rng, 2)
            idx = cone_containing(fan, p)
            assert fan.maximal_cones[idx].contains(p)


class TestRefinementSoundness:
    def _assert_neurons_linear_on_cones(self, net, fan):
        for cone in fan.maximal_cones:
            base = cone.interior_point()
            probes = [tuple(2 * b + r for b, r in zip(base, ray))
                      for ray in cone.rays]
            probes.append(tuple(3 * b for b in base))
            for layer in range(1, net.hidden_layers + 1):
                for idx in range(1, net.architecture[layer] + 1):
                    nid = NeuronId(layer, idx)
                    fit_pts = []
                    for p in probes:
                        if mat_rank(fit_pts + [p]) > len(fit_pts):
                            fit_pts.append(p)
                        if len(fit_pts) == fan.dim:
                            break
                    slope = solve_exact(fit_pts,
                                        [neuron_value(net, nid, p) for p in fit_pts])
                    for p in probes:
                        assert vdot(slope, p) == neuron_value(net, nid, p)

    def test_golden(self, golden_net):
        self._assert_neurons_linear_on_cones(golden_net, build_relu_fan(golden_net))

    def test_random_deep_nets(self):
        rng = random.Random(31)
        for _ in range(5):
            net = network([
                [[rand_rational(rng, 3) for _ in range(2)] for _ in range(3)],
                [[rand_rational(rng, 3) for _ in range(3)] for _ in range(2)],
                [[rand_rational(rng, 3) for _ in range(2)]],
            ])
            fan = build_relu_fan(net)
            assert validate_fan(fan).complete
            self._assert_neurons_linear_on_cones(net, fan)


# ---------------------------------------------------------------------------
# the cell-splitting engine against the enumerators it replaced
# ---------------------------------------------------------------------------

# Reference: the arrangement's rays from every (d-1)-subset of normals, then
# the planar cells between consecutive rays, or every one of the 2^N sign
# vectors in dimension >= 3.

def _arrangement_rays(normals, dim):
    rays = set()
    for subset in itertools.combinations(normals, dim - 1):
        if mat_rank(subset) != dim - 1:
            continue
        direction = integer_kernel_direction(subset)
        for cand in (direction, vneg(direction)):
            if cand in rays:
                continue
            active = [n for n in normals if vdot(n, cand) == 0]
            if mat_rank(active) == dim - 1:
                rays.add(cand)
    return sort_rays(rays, dim)


def _planar_cells(rays):
    def rot(v):
        return (-v[1], v[0])

    cones = []
    for a, b in zip(rays, rays[1:] + rays[:1]):
        na = rot(a)
        if vdot(na, b) < 0:
            na = vneg(na)
        nb = rot(b)
        if vdot(nb, a) < 0:
            nb = vneg(nb)
        cones.append(Cone((a, b), tuple(sorted({na, nb})), 2))
    return cones


def _cells_by_sign_vector(normals, rays, dim):
    ray_signs = [tuple(vdot(n, r) for n in normals) for r in rays]
    cones = []
    for signs in itertools.product((1, -1), repeat=len(normals)):
        members = [rays[i] for i, prods in enumerate(ray_signs)
                   if all(s * p >= 0 for s, p in zip(signs, prods))]
        if len(members) < dim:
            continue
        probe = tuple(sum(r[i] for r in members) for i in range(dim))
        if any(s * vdot(n, probe) <= 0 for s, n in zip(signs, normals)):
            continue
        oriented = [n if s > 0 else vneg(n) for s, n in zip(signs, normals)]
        cones.append(Cone(tuple(sorted(members)),
                          _facet_normals(members, oriented, dim), dim))
    return cones


def reference_central_fan(hyperplanes, dim):
    merged = merge_hyperplanes(hyperplanes)
    normals = [h.normal for h in merged]
    if not merged or mat_rank(normals) < dim:
        raise NotEssential("lineality remains")
    rays = _arrangement_rays(normals, dim)
    if dim == 2:
        cones = _planar_cells(rays)
    else:
        cones = _cells_by_sign_vector(normals, rays, dim)
    return _assemble_fan(cones, dim, merged)


@st.composite
def arrangements(draw):
    """Up to 8 normals in [-2, 2]^d, d = 2..4: repeated, parallel and
    concurrent planes are all common at this size."""
    dim = draw(st.integers(2, 4))
    normals = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * dim).filter(any), min_size=1, max_size=8))
    return dim, normals


def _generic_normals(rng, dim, count):
    """Random integer normals with every dim-subset independent."""
    while True:
        normals = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(count)]
        if all(int_det(list(s)) != 0 for s in itertools.combinations(normals, dim)):
            return normals


def _zaslavsky(count, dim):
    return 2 * sum(comb(count - 1, i) for i in range(dim))


class TestSplittingEngine:
    @settings(max_examples=120, deadline=None)
    @given(arrangements())
    def test_matches_reference_enumerators(self, arrangement):
        dim, normals = arrangement
        planes = [hyperplane(n) for n in normals]
        try:
            expected = reference_central_fan(planes, dim)
        except NotEssential:
            with pytest.raises(NotEssential):
                central_fan(planes, dim)
            return
        fan = central_fan(planes, dim)
        assert encode_fan(fan) == encode_fan(expected)
        assert [c.halfspaces for c in fan.maximal_cones] == [
            c.halfspaces for c in expected.maximal_cones]

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_generic_region_count(self, dim):
        rng = random.Random(100 + dim)
        for count in range(dim, 9):
            normals = _generic_normals(rng, dim, count)
            fan = central_fan([hyperplane(n) for n in normals], dim)
            assert len(fan.maximal_cones) == _zaslavsky(count, dim)

    def test_generic_4_8_1_net(self):
        rows = _generic_normals(random.Random(48), 4, 8)
        fan = build_relu_fan(network([rows, [[1] * 8]]))
        assert len(fan.maximal_cones) == _zaslavsky(8, 4) == 128

    def test_random_deep_nets_in_space(self):
        rng = random.Random(3)
        for widths in ([3, 3, 2, 1], [3, 2, 2, 2, 1], [3, 4, 2, 1]):
            net = network([
                [[rand_rational(rng, 3) for _ in range(widths[i])]
                 for _ in range(widths[i + 1])]
                for i in range(len(widths) - 1)])
            fan = build_relu_fan(net)
            report = validate_fan(fan)
            assert report.valid, report.violations
            support = extract_support(net, fan)
            for wall in fan.walls:
                assert intersection_number(support, wall) == bend_oracle(
                    lambda p: evaluate(net, p), fan, wall)

    def _assert_split(self, cone, cut, neg_rays, pos_rays):
        neg, pos = _split_cone(cone, cut)
        for piece, rays in ((neg, neg_rays), (pos, pos_rays)):
            assert sorted(piece.rays) == sorted(rays)
            assert sorted(piece.halfspaces) == list(cone_from_rays(rays, 3).halfspaces)

    def test_split_through_a_ray(self):
        octant = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        self._assert_split(octant, (1, -1, 0),
                           [(0, 1, 0), (0, 0, 1), (1, 1, 0)],
                           [(1, 0, 0), (0, 0, 1), (1, 1, 0)])

    def test_split_through_two_rays_of_a_square_cone(self):
        # the cut meets the rays (0, +-1, 1); the rays (+-1, 0, 1) on either
        # side span no edge, so no new ray appears
        square = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
        self._assert_split(square, (1, 0, 0),
                           [(-1, 0, 1), (0, 1, 1), (0, -1, 1)],
                           [(1, 0, 1), (0, 1, 1), (0, -1, 1)])

    def test_cut_along_a_facet_does_not_split(self):
        octant = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        assert _split_cone(octant, (1, 0, 0)) is None
        assert _split_cone(octant, (1, 1, 0)) is None
