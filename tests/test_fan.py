import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relutoric.divisor import extract_support, intersection_number
from relutoric.errors import Biased, NotEssential
from relutoric import fan as fan_module
from relutoric.exact_math import (
    crossing_rays,
    int_det,
    integer_kernel_direction,
    kernel_normal,
    mat_rank,
    nullspace_covectors,
    rational_to_primitive,
    sign_canonical,
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
    Hyperplane,
    _arrangement_cells,
    _assemble_fan,
    _cut_at_max,
    _split_cone,
    augmented_central_fan,
    build_relu_fan,
    canonical_order,
    central_fan,
    cone_containing,
    cone_from_rays,
    hyperplane,
    layer_one_hyperplanes,
    merge_hyperplanes,
    validate_fan,
    wall_groups,
)
from relutoric.jsonio import decode_fan, encode_fan
from relutoric.network import NeuronId, cleared_layers, evaluate, network, neuron_value
from conftest import (
    bend_oracle,
    in_cone,
    nets,
    rand_point,
    rand_rational,
    random_nets,
    reference_arrangement_cells,
    reference_augmented_fan,
    reference_cut_at_max,
)

GOLDEN_RAYS = ((1, 0), (1, 1), (-1, 0), (-1, -1), (0, -1))
# two walls of this net are bent by neurons (2, 1) and (2, 2), and the
# canonical cell order meets (2, 2) first
MERGED_NEURONS_NET = network([[[-1, -1], [1, -2], [1, 2], [-2, 1]],
                              [[2, -1, -1, -2], [-1, 0, -1, 2]], [[1, 2]]])


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
    return Fan(dim, tuple(canonical_order({r for c in cones for r in c.rays}, dim)), cones, ())


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
           .map(lambda rays: canonical_order(rays, 2)).filter(lambda rays: len(rays) % 2))
    def test_winding_two_planar_fans(self, rays):
        # each cone skips a ray; with an odd count the cycle of cones goes
        # round the origin twice
        assume(all(rays[i][0] * rays[(i + 2) % len(rays)][1]
                   - rays[i][1] * rays[(i + 2) % len(rays)][0] > 0
                   for i in range(len(rays))))
        fan = _planar_collection(rays, step=2)
        assert validate_fan(fan).degree == 2
        self._assert_agrees(fan)


def _assert_wall_normals(fan):
    """Every wall's normal is primitive, sign-canonical and zero on the
    wall's generators, so it is the kernel normal of the wall span."""
    for wall in fan.walls:
        n = wall.normal
        assert gcd(*n) == 1
        assert sign_canonical(n) == n
        assert all(vdot(n, g) == 0 for g in wall.generators)
        assert n == kernel_normal(wall.generators, fan.dim)


class TestWallNormals:
    @settings(max_examples=40, deadline=None)
    @given(small_central_fans())
    def test_central_fans(self, fan):
        _assert_wall_normals(fan)

    @settings(max_examples=40, deadline=None)
    @given(random_nets(max_dim=4, max_width=3))
    def test_relu_fans(self, net):
        _assert_wall_normals(build_relu_fan(net))

    @settings(max_examples=40, deadline=None)
    @given(small_central_fans())
    def test_decoded_fans(self, fan):
        decoded = decode_fan(encode_fan(fan))
        _assert_wall_normals(decoded)
        assert [w.normal for w in decoded.walls] == [w.normal for w in fan.walls]


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
            assert in_cone(fan.maximal_cones[idx], p)


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
# the facet record against the pairing it replaced
# ---------------------------------------------------------------------------

# Reference: each facet's rays found by pairing its normal with every ray of
# the cone, the cone split on zero sets found the same way, and the ReLU fan
# refined from the cones of a whole assembled layer-one fan.

def pairing_record(rays, halfspaces):
    """The sorted rays on each facet, by pairing its normal with every ray."""
    return tuple(tuple(sorted(r for r in rays if vdot(n, r) == 0)) for n in halfspaces)


def paired_cone(rays, halfspaces, dim):
    """A hand-built cone whose facet record comes from the pairing."""
    return Cone(rays, halfspaces, pairing_record(rays, halfspaces), dim)


def reference_facet_incidence(cones):
    incidence = {}
    for idx, cone in enumerate(cones):
        for n in cone.halfspaces:
            tight = tuple(sorted(r for r in cone.rays if vdot(n, r) == 0))
            incidence.setdefault(tight, []).append((idx, n))
    return incidence


def reference_split_cone(cone, cut):
    products = [vdot(cut, r) for r in cone.rays]
    if not any(p < 0 for p in products):
        return None, cone
    if not any(p > 0 for p in products):
        return cone, None
    tight = [frozenset(i for i, n in enumerate(cone.halfspaces) if vdot(n, r) == 0)
             for r in cone.rays]
    new_rays = [r for r, _ in crossing_rays(cone.rays, tight, products, cone.dim)]

    def side(sign):
        rays = [r for r, p in zip(cone.rays, products) if sign * p >= 0] + new_rays
        kept = {i for p, t in zip(products, tight) if sign * p > 0 for i in t}
        facets = [n for i, n in enumerate(cone.halfspaces) if i in kept]
        facets.append(cut if sign > 0 else vneg(cut))
        return paired_cone(tuple(rays), tuple(facets), cone.dim)

    return side(-1), side(1)


def _activated(functionals, cone):
    """Linear map computed by ReLU . L on a cone where each row of L is a
    linear functional of fixed sign: the positive rows, the others zero."""
    probe = cone.interior_point()
    zero = (0,) * cone.dim
    return tuple(phi if vdot(phi, probe) > 0 else zero for phi in functionals)


def _compose(out_row, matrix, dim):
    """Covector out_row . matrix."""
    return tuple(sum(c * row[i] for c, row in zip(out_row, matrix))
                 for i in range(dim))


def reference_build_relu_fan(net):
    """The whole layer-one fan assembled, walls and all, then its cones
    refined by the pairing split and the fan assembled again.  Each piece
    carries the linear map of its layer so far (`_activated` of the
    `_compose`d rows), instead of pulling rows back at a probe."""
    dim = net.input_dim
    base = reference_augmented_fan(layer_one_hyperplanes(net), dim)
    layers, _ = cleared_layers(net)
    cones = list(base.maximal_cones)
    prefix = [_activated(layers[0], cone) for cone in cones]
    bent = []
    for layer in range(2, net.hidden_layers + 1):
        next_cones, next_prefix = [], []
        for cone, w in zip(cones, prefix):
            functionals = [_compose(row, w, dim) for row in layers[layer - 1]]
            pieces = [cone]
            for j, phi in enumerate(functionals, start=1):
                if any(phi):
                    cut = rational_to_primitive(phi)
                    split = [reference_split_cone(piece, cut) for piece in pieces]
                    if any(None not in sides for sides in split):
                        bent.append(Hyperplane(sign_canonical(cut), BENT, ((layer, j),)))
                    pieces = [q for sides in split for q in sides if q is not None]
            next_cones.extend(pieces)
            next_prefix.extend(_activated(functionals, piece) for piece in pieces)
        cones, prefix = next_cones, next_prefix
    return _assemble_fan(cones, dim, base.hyperplanes, bent)[0]


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
    return canonical_order(rays, dim)


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
        cones.append(paired_cone((a, b), tuple(sorted({na, nb})), 2))
    return cones


def _facet_normals(rays, candidates, dim):
    """Filter candidate valid constraints down to facet-defining ones."""
    facets = []
    seen = set()
    for n in candidates:
        if n in seen:
            continue
        seen.add(n)
        tight = [r for r in rays if vdot(n, r) == 0]
        if tight and mat_rank(tight) == dim - 1:
            facets.append(n)
    return tuple(sorted(facets))


def reference_halfspaces(rays, dim):
    """Inward facet normals of a full-dimensional cone given by generators,
    by brute force over (dim-1)-subsets of the rays."""
    rays = [tuple(int(x) for x in r) for r in rays]
    candidates = set()
    for subset in itertools.combinations(rays, dim - 1):
        if mat_rank(subset) != dim - 1:
            continue
        normal = integer_kernel_direction(subset)
        for n in (normal, vneg(normal)):
            if all(vdot(n, r) >= 0 for r in rays):
                candidates.add(n)
    return _facet_normals(rays, sorted(candidates), dim)


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
        cones.append(paired_cone(tuple(sorted(members)),
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
    return _assemble_fan(cones, dim, merged)[0]


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
        # an uncrossed cone is its own side, the positive one where the cut
        # vanishes on a face or on the whole cone
        octant = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        for cut in ((1, 0, 0), (1, 1, 0), (0, 0, 0)):
            neg, pos = _split_cone(octant, cut)
            assert neg is None and pos is octant
        neg, pos = _split_cone(octant, (-1, -1, 0))
        assert neg is octant and pos is None


@st.composite
def normal_sets(draw):
    """1-6 integer normals in [-3, 3]^d, d = 2..4, each followed by up to two
    of its multiples by -2, -1 or 2, shuffled: parallel, duplicate and
    rank-deficient sets are all common."""
    dim = draw(st.integers(2, 4))
    base = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim).filter(any),
                         min_size=1, max_size=6))
    normals = []
    for n in base:
        normals.append(n)
        for k in draw(st.lists(st.sampled_from((-2, -1, 2)), max_size=2)):
            normals.append(tuple(k * x for x in n))
    return dim, draw(st.permutations(normals))


def _as_sets(rays, halfspaces, facet_rays):
    return frozenset(rays), frozenset(zip(halfspaces, map(frozenset, facet_rays)))


class TestArrangementAgainstAllCells:
    """Half the simplicial cells, split and then negated, give the fan that
    splitting all 2^d of them gives (`reference_arrangement_cells`)."""

    @settings(max_examples=150, deadline=None)
    @given(normal_sets())
    def test_same_fan_as_the_reference_cells(self, case):
        dim, normals = case
        planes = [hyperplane(n) for n in normals]
        merged = merge_hyperplanes(planes)
        if mat_rank([h.normal for h in merged]) == dim:
            assert central_fan(planes, dim) == _assemble_fan(
                reference_arrangement_cells(merged, dim), dim, merged)[0]
        fan = augmented_central_fan(planes, dim)
        assert fan == reference_augmented_fan(planes, dim)
        cones = {_as_sets(c.rays, c.halfspaces, c.facet_rays) for c in fan.maximal_cones}
        for c in fan.maximal_cones:
            assert _as_sets(map(vneg, c.rays), map(vneg, c.halfspaces),
                            [map(vneg, tight) for tight in c.facet_rays]) in cones

    @pytest.mark.parametrize("dim, count", [(4, 8), (3, 10), (2, 9)])
    def test_each_split_is_made_once(self, monkeypatch, dim, count):
        # each split adds one cell, and only the half of the cells on the
        # positive side of the first normal is split
        splits = []

        def counted(cone, cut):
            sides = _split_cone(cone, cut)
            if None not in sides:
                splits.append(cut)
            return sides

        monkeypatch.setattr(fan_module, "_split_cone", counted)
        normals = _generic_normals(random.Random(200 + dim), dim, count)
        fan = central_fan([hyperplane(n) for n in normals], dim)
        assert len(fan.maximal_cones) == _zaslavsky(count, dim)
        assert len(splits) == (len(fan.maximal_cones) - 2 ** dim) // 2


@st.composite
def orthants_and_covectors(draw):
    """The 2^d orthant cells in R^2..R^4 and 1-6 integer covectors, drawn
    from a few, so that repeats and the zero vector are common."""
    dim = draw(st.integers(2, 4))
    covector = st.tuples(*[st.integers(-2, 2)] * dim)
    few = draw(st.lists(covector, min_size=1, max_size=4)) + [(0,) * dim]
    slopes = draw(st.lists(st.sampled_from(few), min_size=1, max_size=6))
    basis = [hyperplane(tuple(int(i == j) for j in range(dim))) for i in range(dim)]
    return dim, _arrangement_cells(basis, dim), slopes


class TestCutAtMaxAgainstRescan:
    """Carrying each piece's running max cuts as rescanning every earlier
    covector at every piece does."""

    @settings(max_examples=150, deadline=None)
    @given(orthants_and_covectors())
    def test_same_pieces_in_the_same_order(self, case):
        dim, cells, slopes = case
        pieces = [piece for piece, _ in _cut_at_max(cells, slopes)]
        assert pieces == reference_cut_at_max(cells, slopes)

    @settings(max_examples=100, deadline=None)
    @given(orthants_and_covectors())
    def test_pieces_form_a_fan_on_which_the_max_is_linear(self, case):
        # and each piece reports its max: the first covector that is >= every
        # covector on every ray of the piece
        dim, cells, slopes = case
        cut = _cut_at_max(cells, slopes)
        assert validate_fan(_assemble_fan([piece for piece, _ in cut], dim, ())[0]).valid
        for piece, top in cut:
            tops = [slope for slope in slopes
                    if all(vdot(slope, r) >= vdot(other, r)
                           for other in slopes for r in piece.rays)]
            assert tops and top is tops[0]


@st.composite
def generator_sets(draw):
    """Up to 7 integer generators in [-3, 3]^d, d = 2..4: cones with lines,
    half-spaces, repeated and non-primitive generators, and flat cones."""
    dim = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim).filter(any),
                         min_size=1, max_size=7))
    return dim, rays


class TestConeFacetsAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(generator_sets())
    def test_matches_subset_enumeration(self, generators):
        dim, rays = generators
        cone = cone_from_rays(rays, dim)
        if mat_rank(rays) == dim:
            assert cone.halfspaces == reference_halfspaces(rays, dim)
            return
        # a flat cone: its facets inside the span, lifted along the span's
        # orthogonal complement, and both signs of each equation of the span
        equations = [rational_to_primitive(c) for c in nullspace_covectors(rays, dim)]
        equations += [vneg(e) for e in equations]
        assert cone.halfspaces == tuple(sorted(
            reference_halfspaces(list(rays) + equations, dim) + tuple(equations)))

    def test_half_plane_keeps_its_generators(self):
        cone = cone_from_rays([(2, 0), (0, 1), (-1, 0)], 2)
        assert cone.rays == ((-1, 0), (0, 1), (1, 0))
        assert cone.halfspaces == ((0, 1),)

    def test_flat_cone_is_cut_to_its_span(self):
        cone = cone_from_rays([(1, 0, 0), (0, 1, 0)], 3)
        assert cone.halfspaces == ((0, 0, -1), (0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert in_cone(cone, (1, 2, 0))
        assert not in_cone(cone, (1, 2, 1))
        assert not in_cone(cone, (-1, 2, 0))


class TestFacetRecordAgainstPairing:
    def _assert_paired(self, cones):
        for cone in cones:
            assert cone.facet_rays == pairing_record(cone.rays, cone.halfspaces)
        assert fan_module._facet_incidence(cones) == reference_facet_incidence(cones)

    @settings(max_examples=200, deadline=None)
    @given(generator_sets())
    def test_cone_from_rays(self, generators):
        dim, rays = generators
        self._assert_paired([cone_from_rays(rays, dim)])

    @settings(max_examples=100, deadline=None)
    @given(arrangements())
    def test_central_fans(self, arrangement):
        dim, normals = arrangement
        try:
            fan = central_fan([hyperplane(n) for n in normals], dim)
        except NotEssential:
            return
        self._assert_paired(fan.maximal_cones)

    @settings(max_examples=100, deadline=None)
    @given(arrangements(), st.data())
    def test_split_matches_the_pairing_split(self, arrangement, data):
        dim, normals = arrangement
        try:
            fan = central_fan([hyperplane(n) for n in normals], dim)
        except NotEssential:
            return
        cut = rational_to_primitive(data.draw(
            st.tuples(*[st.integers(-3, 3)] * dim).filter(any), label="cut"))
        for cone in fan.maximal_cones:
            sides = _split_cone(cone, cut)
            assert sides == reference_split_cone(cone, cut)
            if None in sides:  # uncrossed: the cone itself, not a copy
                assert any(side is cone for side in sides)

    @settings(max_examples=60, deadline=None)
    @given(random_nets(max_dim=4, max_width=3))
    def test_relu_fans_match_the_assemble_then_refine_route(self, net):
        fan = build_relu_fan(net)
        self._assert_paired(fan.maximal_cones)
        expected = reference_build_relu_fan(net)
        assert json.dumps(encode_fan(fan)) == json.dumps(encode_fan(expected))
        assert fan == expected

    def test_bent_provenance_is_sorted(self):
        # the cut x + y = 0 comes from neuron (2, 1) in the second quadrant
        # and from (2, 2) in the fourth, which the seed cells cut first
        net = network([[[1, 0], [0, 1], [-1, 0], [0, -1]],
                       [[0, 1, -1, 0], [1, 0, 0, -1]], [[1, 1]]])
        fan = build_relu_fan(net)
        assert {w.neurons for w in fan.walls if w.kind == BENT} == {((2, 1), (2, 2))}
        assert fan == reference_build_relu_fan(net)
        walls = encode_fan(build_relu_fan(MERGED_NEURONS_NET))["walls"]
        assert [w["provenance"]["neurons"] for w in walls if w["provenance"]["kind"] == BENT
                ] == [[[2, 1], [2, 2]], [[2, 2]], [[2, 1], [2, 2]]]

    @settings(max_examples=60, deadline=None)
    @given(nets())
    @example(MERGED_NEURONS_NET)
    def test_relu_fan_does_not_depend_on_the_cell_order(self, net):
        cells = fan_module._arrangement_cells
        expected = encode_fan(build_relu_fan(net))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fan_module, "_arrangement_cells", lambda *args: cells(*args)[::-1])
            assert encode_fan(build_relu_fan(net)) == expected

    def test_relu_fan_assembled_once(self, monkeypatch, golden_net):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return _assemble_fan(*args, **kwargs)

        monkeypatch.setattr(fan_module, "_assemble_fan", counted)
        deep = network([[[1, 0, 2], [0, 1, -1], [1, 1, 1]], [[1, -1, 1], [2, 1, -1]],
                        [[1, 1]]])
        for net in (golden_net, deep, network([[[1, 2]], [[1]]])):
            calls.clear()
            fan = build_relu_fan(net)
            assert len(calls) == 1
            assert len(calls[0]) == len(fan.maximal_cones)
