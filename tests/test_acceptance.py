"""Acceptance suite: one test per criterion, exact tolerances, one PASS/FAIL
line each (run with `pytest -s` to see the lines as they happen).
"""

import functools
import random
import sys
from fractions import Fraction as F
from math import gcd

from relutoric.divisor import (
    ToricDivisor,
    add_divisors,
    classify_convexity,
    divisor_coefficients,
    ehrhart_volume_estimate,
    extract_support,
    intersection_number,
    line_bundle_volume,
    negate_support,
    polytope_of_divisor,
    scale_divisor,
    support_from_divisor,
    support_of_network,
    wall_curve,
)
from relutoric.exact_math import vadd, vdot
from relutoric.expressions import evaluate_expression, parse_and_compile, parse_expression
from relutoric.fan import build_relu_fan
from relutoric.network import affine_shift, evaluate, is_reduced, network, reduce_shallow
from relutoric.realizability import (
    criterion_check,
    criterion_fan,
    synthesize_shallow,
    verify_up_to_linear,
)
from conftest import (
    GOLDEN_LAYERS,
    SIXPIECE_EXPR,
    bend_oracle,
    rand_point,
    rand_rational,
    rand_shallow_net,
    reference_intersection_number,
)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {title}", file=sys.stderr)
                raise
            print(f"criterion {number}: PASS - {title}", file=sys.stderr)
        return wrapper
    return decorate


def golden_support():
    net = network(GOLDEN_LAYERS)
    return extract_support(net, build_relu_fan(net))


@criterion(1, "golden pipeline: fan, slopes, divisor of max{0,x,y}")
def test_criterion_1_golden_pipeline():
    net = network(GOLDEN_LAYERS)
    fan = build_relu_fan(net)
    assert fan.rays == ((1, 0), (1, 1), (-1, 0), (-1, -1), (0, -1))
    assert len(fan.maximal_cones) == 5
    s = extract_support(net, fan)
    assert s.slopes == ((F(1), F(0)), (F(0), F(1)), (F(0), F(0)),
                        (F(0), F(0)), (F(1), F(0)))
    D = divisor_coefficients(s)
    assert D.coefficients == (F(-1), F(-1), F(0), F(0), F(0))


@criterion(2, "Newton/volume bridge and Ehrhart decay on the golden triangle")
def test_criterion_2_newton_volume_bridge():
    s = golden_support()
    negD = scale_divisor(divisor_coefficients(s), -1)
    P = polytope_of_divisor(negD)
    assert set(P.vertices) == {(F(0), F(0)), (F(0), F(-1)), (F(-1), F(0))}
    from relutoric.exact_math import mixed_volume
    assert mixed_volume(P) == 1
    assert line_bundle_volume(negD) == 1
    sequence = ehrhart_volume_estimate(P, 16)
    subsampled = [sequence[m - 1] for m in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(subsampled, subsampled[1:])), \
        "normalized counts must decrease"
    assert all(term > 1 for term in subsampled)
    # Pick's theorem in Ehrhart form: a lattice polygon with area A and b
    # boundary lattice points has L(m) = A m^2 + (b/2) m + 1, so the
    # normalized count 2 L(m) / m^2 decays to 2A exactly as b/m + 2/m^2.
    # b is the sum of gcds of the edge vectors; any order of a triangle's
    # vertices is cyclic, so consecutive pairs are its edges.
    vertices = P.vertices
    b = sum(gcd(int(q[0] - p[0]), int(q[1] - p[1]))
            for p, q in zip(vertices, vertices[1:] + vertices[:1]))
    for m in range(1, 17):
        predicted = line_bundle_volume(negD) + F(b, m) + F(2, m * m)
        assert sequence[m - 1] == predicted, (
            f"m={m}: Ehrhart estimate {sequence[m - 1]} differs from "
            f"Pick's law {predicted}")


@criterion(3, "six-piece function is not shallow-realizable, witness y=0 with bends -7, -1")
def test_criterion_3_sixpiece_nonrealizable():
    s = parse_and_compile(SIXPIECE_EXPR, 2)
    report = criterion_check(s)
    assert not report.realizable
    assert report.witness.normal == (0, 1)
    assert report.witness.numbers == (F(-7), F(-1))
    # independent oracle: second-difference bend measurement across the two
    # walls of {y = 0} on the criterion fan
    fan = criterion_fan(s).fan
    ast = parse_expression(SIXPIECE_EXPR, 2)
    oracle = {}
    for wall in fan.walls:
        if wall.normal == (0, 1):
            oracle[wall.generators] = bend_oracle(
                lambda p: evaluate_expression(ast, p), fan, wall)
    assert oracle == {((1, 0),): F(-7), ((-1, 0),): F(-1)}


@criterion(4, "single-neuron wall law: bend -1 inside the neuron hyperplane, 0 outside")
def test_criterion_4_single_neuron_wall_law():
    rng = random.Random(1009)

    def random_primitive(dim):
        while True:
            a = tuple(rng.randint(-9, 9) for _ in range(dim))
            g = 0
            for x in a:
                g = gcd(g, abs(x))
            if g == 1:
                return a

    cases = [random_primitive(2) for _ in range(50)]
    cases += [random_primitive(3) for _ in range(25)]
    for a in cases:
        s = support_of_network(network([[list(a)], [[1]]]))
        for wall in s.fan.walls:
            number = intersection_number(s, wall)
            if all(vdot(a, g) == 0 for g in wall.generators):
                assert number == -1, (a, wall.generators, number)
            else:
                assert number == 0, (a, wall.generators, number)


@criterion(5, "round-trip synthesis on 100 random shallow nets")
def test_criterion_5_round_trip_synthesis():
    rng = random.Random(2027)
    for i in range(100):
        dim = 2 if i % 2 == 0 else 3
        net = rand_shallow_net(rng, dim, max_width=6)
        s = support_of_network(net)
        report = criterion_check(s)
        assert report.realizable, (net.layers, report.witness)
        synth = synthesize_shallow(report)
        ok, correction = verify_up_to_linear(s, synth)
        assert ok, (net.layers, synth.layers)


@criterion(6, "reduction normal form and exact semantics on 50 random shallow nets")
def test_criterion_6_reduction_semantics():
    rng = random.Random(3081)
    grid = [F(i, 2) for i in range(-4, 5)]
    for _ in range(50):
        rows = [[rand_rational(rng) for _ in range(2)]
                for _ in range(rng.randint(1, 4))]
        while all(all(c == 0 for c in row) for row in rows):
            rows = [[rand_rational(rng) for _ in range(2)]
                    for _ in range(rng.randint(1, 4))]
        rows.append([0, 0])  # planted zero row
        pivot = next(r for r in rows if any(c != 0 for c in r))
        factor = F(rng.randint(1, 6), rng.randint(1, 6))
        rows.append([factor * c for c in pivot])  # planted parallel pair
        weights = [rand_rational(rng) for _ in rows]
        net = network([rows, [weights]])
        red = reduce_shallow(net)
        assert is_reduced(red), red.layers
        for x in grid:
            for y in grid:
                assert evaluate(net, (x, y)) == evaluate(red, (x, y))


@criterion(7, "affine shift preserves depth, widens by two, adds g exactly")
def test_criterion_7_affine_shift():
    rng = random.Random(4001)
    for i in range(20):
        dim = (i % 3) + 1
        hidden = [rng.randint(1, 3) for _ in range(1 if i < 10 else 2)]
        widths = [dim] + hidden + [1]
        layers = [[[rand_rational(rng, 5) for _ in range(widths[k])]
                   for _ in range(widths[k + 1])]
                  for k in range(len(widths) - 1)]
        net = network(layers)
        slope = tuple(rand_rational(rng, 5) for _ in range(dim))
        shifted = affine_shift(net, slope)
        assert len(shifted.architecture) == len(net.architecture)
        assert shifted.architecture[0] == net.architecture[0]
        assert shifted.architecture[-1] == 1
        for k in range(1, len(net.architecture) - 1):
            assert shifted.architecture[k] == net.architecture[k] + 2
        for _ in range(50):
            p = rand_point(rng, dim, bound=6)
            assert evaluate(shifted, p) == evaluate(net, p) + vdot(slope, p)


@criterion(8, "intersection-number algebra: linearity, scaling, lifts, sides")
def test_criterion_8_intersection_algebra():
    rng = random.Random(5003)
    golden = golden_support().fan
    sixpiece_fan = criterion_fan(parse_and_compile(SIXPIECE_EXPR, 2)).fan
    for fan in (golden, sixpiece_fan):
        for _ in range(20):
            D = ToricDivisor(fan, tuple(rand_rational(rng) for _ in fan.rays))
            E = ToricDivisor(fan, tuple(rand_rational(rng) for _ in fan.rays))
            sD = support_from_divisor(D)
            sE = support_from_divisor(E)
            sSum = support_from_divisor(add_divisors(D, E))
            for wall in fan.walls:
                nD = intersection_number(sD, wall)
                nE = intersection_number(sE, wall)
                assert intersection_number(sSum, wall) == nD + nE
                for l in (2, 3, 7):
                    sL = support_from_divisor(scale_divisor(D, l))
                    assert intersection_number(sL, wall) == l * nD
        # lift-independence and side-symmetry on every wall
        D = ToricDivisor(fan, tuple(rand_rational(rng) for _ in fan.rays))
        sD = support_from_divisor(D)
        for wall in fan.walls:
            base = intersection_number(sD, wall)
            lift = wall_curve(fan, wall)
            assert reference_intersection_number(sD, wall, lift) == base
            for k in (1, -2):
                shift = tuple(k * sum(g[i] for g in wall.generators)
                              for i in range(fan.dim))
                moved = vadd(lift, shift)
                assert reference_intersection_number(sD, wall, moved) == base
            swapped = wall.__class__(wall.generators,
                                     (wall.cones[1], wall.cones[0]),
                                     wall.normal, wall.kind, wall.neurons)
            assert intersection_number(sD, swapped) == base


@criterion(9, "convexity classification matches the value oracle")
def test_criterion_9_convexity():
    s = golden_support()
    neg = negate_support(s)
    report = classify_convexity(neg)
    assert report.convex and not report.strictly_convex
    sixpiece = parse_and_compile(SIXPIECE_EXPR, 2)
    sp_report = classify_convexity(sixpiece)
    assert not sp_report.convex and not sp_report.concave
    rng = random.Random(6007)
    for support in (neg, s, sixpiece):
        rep = classify_convexity(support)
        is_min = True
        is_max = True
        for _ in range(200):
            p = rand_point(rng, 2)
            value = support.value(p)
            pieces = [vdot(m, p) for m in support.slopes]
            is_min = is_min and value == min(pieces)
            is_max = is_max and value == max(pieces)
        assert rep.convex == is_min
        assert rep.concave == is_max
