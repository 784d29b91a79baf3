"""Toric divisors on ReLU fans: slope data, intersection numbers, polytopes.

A support function is a fan with integer covectors, one per maximal cone,
over one positive denominator in lowest terms (`slopes` is the Fraction
view); it encodes a continuous piecewise linear function that is linear on
every cone.  Divisors are rational coefficient vectors indexed by fan rays.
The two views are linked by the Cartier relation <m_sigma, u_rho> = -a_rho,
and the bend of the support function across a wall is the intersection
number of the divisor with the wall's invariant curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial

from .errors import (
    ContinuityViolation,
    DimensionMismatch,
    InconsistentRayValue,
    NotConvexFunction,
    NotLatticePolytope,
    NotQCartier,
    RankDeficient,
    SingularSample,
)
from .exact_math import (
    IntVec,
    RationalPolytope,
    RatVec,
    clear_denominators,
    common_integer_scale,
    convex_hull,
    double_description,
    frac,
    independent_rows,
    lattice_point_count,
    lowest_terms,
    mat_rank,
    mixed_volume,
    pairing_one_solution,
    ratvec,
    solve_exact,
    vadd,
    vdot,
    vneg,
    vscale,
)
from .fan import Fan, Wall, build_relu_fan, cone_containing
from .network import ValidatedNetwork, cleared_layers, linear_piece


@dataclass(frozen=True)
class SupportFunction:
    """Slope i is covectors[i] / denominator, a table `support_on_fan`
    puts in lowest terms, so equal functions have equal tables."""

    fan: Fan
    covectors: tuple[IntVec, ...]
    denominator: int

    @cached_property
    def slopes(self) -> tuple[RatVec, ...]:
        return tuple(tuple(Fraction(x, self.denominator) for x in m) for m in self.covectors)

    def value(self, x) -> Fraction:
        x = ratvec(x)
        if len(x) != self.fan.dim:
            raise DimensionMismatch(f"point has dimension {len(x)}, expected {self.fan.dim}")
        return frac(vdot(self.slopes[cone_containing(self.fan, x)], x))


@dataclass(frozen=True)
class ToricDivisor:
    """Rational coefficient a_rho per fan ray (a Q-Cartier Weil divisor
    candidate; Q-Cartierness is only decided when slopes are requested)."""

    fan: Fan
    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class ConvexityReport:
    convex: bool
    strictly_convex: bool
    concave: bool
    strictly_concave: bool


def support_on_fan(fan: Fan, slopes, denominator: int = 1) -> SupportFunction:
    """The support with slope slopes[i] / denominator on cone i: the slopes
    (integer or rational) are cleared once into the lowest-terms table, and
    the two covectors of every wall must pair equally with its generators."""
    if len(slopes) != len(fan.maximal_cones):
        raise ContinuityViolation(
            f"{len(slopes)} slopes for {len(fan.maximal_cones)} cones")
    for m in slopes:
        if len(m) != fan.dim:
            raise DimensionMismatch(f"a slope has {len(m)} entries, expected {fan.dim}")
    rows, mult = common_integer_scale(slopes)
    covectors, denominator = lowest_terms(rows, mult * denominator)
    for wall in fan.walls:
        i, j = wall.cones
        for w in wall.generators:
            if vdot(covectors[i], w) != vdot(covectors[j], w):
                raise ContinuityViolation(
                    f"slopes disagree on wall {wall.generators}")
    return SupportFunction(fan, tuple(covectors), denominator)


def slopes_by_evaluation(fan: Fan, func) -> SupportFunction:
    """Slope covector of a cone-linear function on each maximal cone.

    Samples interior rational points (ray sum perturbed by each ray in turn)
    in general position, solves the linear system, and verifies continuity.
    This is the method for a black-box callable; it calls `func` dim times
    per cone.
    """
    slopes = []
    for cone in fan.maximal_cones:
        center = cone.interior_point()
        candidates = [vadd(vscale(scale, center), r)
                      for scale in (1, 2, 3) for r in cone.rays]
        points = [candidates[i] for i in independent_rows(candidates)]
        if len(points) < fan.dim:
            raise SingularSample(
                f"could not find {fan.dim} independent interior points")
        values = [func(p) for p in points]
        try:
            m = solve_exact(points, values)
        except RankDeficient as exc:
            raise SingularSample(str(exc)) from exc
        slopes.append(m)
    return support_on_fan(fan, slopes)


def extract_support(net: ValidatedNetwork, fan: Fan) -> SupportFunction:
    """Slope data of the network on a fan, one linear piece per cone.

    Each maximal cone's covector is the net's integer linear piece at its
    interior point, over the cleared layers' scale.  The fan must refine the
    net's activation regions, as `build_relu_fan(net)` does.  On such a fan
    a neuron's pre-activation vanishes at an interior point only if it
    vanishes on the whole cone, so counting the tie as inactive cannot
    change the slope.  Continuity across every wall is still verified.
    """
    if net.input_dim != fan.dim:
        raise DimensionMismatch(
            f"fan has dimension {fan.dim}, network input {net.input_dim}")
    layers, scale = cleared_layers(net)
    return support_on_fan(fan, [linear_piece(layers, cone.interior_point())
                                for cone in fan.maximal_cones], scale)


def support_of_network(net: ValidatedNetwork) -> SupportFunction:
    return extract_support(net, build_relu_fan(net))


# ---------------------------------------------------------------------------
# divisors and Cartier data
# ---------------------------------------------------------------------------

def divisor_coefficients(s: SupportFunction) -> ToricDivisor:
    """Ray coefficients a_rho = -<m_sigma, u_rho>, checked to be independent
    of the choice of incident maximal cone; paired on the integer table."""
    values = {}
    for m, cone in zip(s.covectors, s.fan.maximal_cones):
        for ray in cone.rays:
            values.setdefault(ray, set()).add(-vdot(m, ray))
    coefficients = []
    for ray in s.fan.rays:
        found = {Fraction(v, s.denominator) for v in values.get(ray, ())}
        if len(found) != 1:
            raise InconsistentRayValue(
                f"ray {ray} receives {sorted(found)}; continuity breach")
        coefficients.append(found.pop())
    return ToricDivisor(s.fan, tuple(coefficients))


def support_from_divisor(D: ToricDivisor) -> SupportFunction:
    """Solve the Cartier relations cone by cone; fails iff D is not
    Q-Cartier on some cone."""
    slopes = []
    for idx, cone in enumerate(D.fan.maximal_cones):
        rows = list(cone.rays)
        rhs = [-D.coefficients[D.fan.rays.index(r)] for r in rows]
        solution = solve_exact(rows, rhs)
        if solution is None:
            raise NotQCartier(idx)
        slopes.append(solution)
    return support_on_fan(D.fan, slopes)


def scale_support(s: SupportFunction, factor) -> SupportFunction:
    factor = frac(factor)
    return support_on_fan(s.fan, [vscale(factor, m) for m in s.slopes])


def negate_support(s: SupportFunction) -> SupportFunction:
    return scale_support(s, -1)


def scale_divisor(D: ToricDivisor, factor) -> ToricDivisor:
    factor = frac(factor)
    return ToricDivisor(D.fan, tuple(factor * a for a in D.coefficients))


def add_divisors(D: ToricDivisor, E: ToricDivisor) -> ToricDivisor:
    if D.fan is not E.fan and D.fan != E.fan:
        raise ContinuityViolation("divisors live on different fans")
    return ToricDivisor(D.fan, tuple(a + b for a, b in zip(D.coefficients, E.coefficients)))


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------

def _oriented_normal(fan: Fan, wall: Wall) -> IntVec:
    """`wall.normal`, signed to be nonnegative on the wall's second cone."""
    second = fan.maximal_cones[wall.cones[1]]
    outside = next(r for r in second.rays if r not in wall.generators)
    return vneg(wall.normal) if vdot(wall.normal, outside) < 0 else wall.normal


def wall_curve(fan: Fan, wall: Wall) -> IntVec:
    """Lattice lift of a wall's invariant curve.

    The lift u solves <phi, u> = 1, phi the wall normal oriented to be
    nonnegative on the higher-indexed incident cone sigma', and is pushed
    into sigma' along the wall's interior direction, so u maps to the
    minimal generator of the quotient image of sigma'.
    """
    second = fan.maximal_cones[wall.cones[1]]
    u = pairing_one_solution(_oriented_normal(fan, wall))
    interior = tuple(sum(g[i] for g in wall.generators)
                     for i in range(fan.dim))
    steps = 0
    for n in second.halfspaces:
        value = vdot(n, u)
        if value >= 0:
            continue
        # Only the wall facet pairs to zero with the wall interior, and u
        # already satisfies it; every other facet sees the interior strictly.
        slope = vdot(n, interior)
        if slope <= 0:
            raise ContinuityViolation("wall interior is not interior to its span")
        steps = max(steps, (-value + slope - 1) // slope)
    if steps:
        u = vadd(u, vscale(steps, interior))
    return tuple(int(x) for x in u)


def intersection_number(s: SupportFunction, wall: Wall) -> Fraction:
    """Bend of the support function across a wall: the intersection number
    of its divisor with the wall's invariant curve.

    On a continuous support m_sigma - m_sigma' vanishes on the wall's span,
    so it is c * phi, phi the wall normal oriented nonnegative on sigma', and
    its pairing with any lift u of <phi, u> = 1 (see `wall_curve`) is c
    (Cox, Little and Schenck, "Toric Varieties", Ch. 6).  c is read off one
    nonzero coordinate of phi.  Continuity is not re-checked here: it is
    verified where slopes enter the package.
    """
    phi = _oriented_normal(s.fan, wall)
    k = next(k for k, x in enumerate(phi) if x)
    i, j = wall.cones
    return Fraction(s.covectors[i][k] - s.covectors[j][k], phi[k] * s.denominator)


def wall_numbers(s: SupportFunction) -> tuple[Fraction, ...]:
    return tuple(intersection_number(s, w) for w in s.fan.walls)


def classify_convexity(s: SupportFunction) -> ConvexityReport:
    """Convexity in the divisor sense: convex (basepoint free) iff every
    wall bend is >= 0; strict additionally needs all bends nonzero and
    pairwise distinct slopes over all maximal cones (ample)."""
    numbers = wall_numbers(s)
    convex = all(n >= 0 for n in numbers)
    concave = all(n <= 0 for n in numbers)
    distinct = len(set(s.covectors)) == len(s.covectors)
    nowhere_flat = all(n != 0 for n in numbers)
    return ConvexityReport(
        convex=convex,
        strictly_convex=convex and nowhere_flat and distinct,
        concave=concave,
        strictly_concave=concave and nowhere_flat and distinct,
    )


# ---------------------------------------------------------------------------
# polytopes and volumes
# ---------------------------------------------------------------------------

def polytope_of_divisor(D: ToricDivisor) -> RationalPolytope:
    """The section polytope P_D = {m : <m, u_rho> >= -a_rho for all rays}.

    One double description pass over its homogenisation
    {(m, t) : <m, u_rho> + a_rho t >= 0, t >= 0}: the rays with t > 0,
    divided by t, are the vertices, and when P_D is full-dimensional the
    rows the pass keeps are its facets -u_rho . m <= a_rho.  A
    lower-dimensional P_D gets its facets from the hull of its vertices;
    an empty one, whose cone is {0}, has no vertices.
    """
    dim = D.fan.dim
    rows = [clear_denominators(tuple(u) + (a,))[0]
            for u, a in zip(D.fan.rays, D.coefficients)]
    rows.append((0,) * dim + (1,))
    rays, zero_sets, kept = double_description(rows, dim + 1)
    points = {tuple(Fraction(x, ray[-1]) for x in ray[:-1]): z
              for ray, z in zip(rays, zero_sets) if ray[-1] > 0}
    if not points:
        return RationalPolytope(dim, (), (), ())
    if mat_rank(rays) <= dim:
        return convex_hull(points)
    vertices = sorted(points)
    facets = sorted((vneg(D.fan.rays[i]), D.coefficients[i],
                     frozenset(k for k, v in enumerate(vertices) if i in points[v]))
                    for i in kept)
    return RationalPolytope(dim, tuple(vertices), tuple((n, c) for n, c, _ in facets),
                            tuple(incident for _, _, incident in facets))


def newton_polytope(s: SupportFunction) -> RationalPolytope:
    """Hull of the slope covectors of a convex piecewise linear function
    (max of its linear pieces); equals the negated section polytope of the
    negated divisor."""
    if not classify_convexity(s).concave:
        raise NotConvexFunction(
            "support has a positive bend; not a max of linear pieces")
    return convex_hull(s.slopes)


def ehrhart_volume_estimate(P: RationalPolytope, m_max: int) -> tuple[Fraction, ...]:
    """Normalized lattice-point counts n! L(m) / m^n for m = 1..m_max, n the
    ambient dimension and L(m) the number of integer points in m * P.

    P must be a lattice polytope.  Then L is a polynomial of degree
    k = dim P with L(0) = 1 (Ehrhart), and L(-m) = (-1)^k L°(m), where L°
    counts the points in the relative interior (Ehrhart-Macdonald
    reciprocity; Beck and Robins, "Computing the Continuous Discretely",
    Ch. 3-4).  Only L(1..ceil(k/2)) and L°(1..floor(k/2)) are counted
    (:func:`lattice_point_count`): with L(0) they give L at the k + 1
    consecutive integers -floor(k/2)..ceil(k/2), and Newton's forward
    differences over them evaluate L exactly, in integers, at every other m.

    The error against the limit n! c_n, c_n the leading coefficient of L, is
    O(1/m) with leading term n! c_{n-1} / m.  For a lattice polygon with b
    boundary lattice points Pick's theorem makes it exactly b/m + 2/m^2.
    The limit is the mixed volume (n! vol) only for full-dimensional
    polytopes; for a lower dimensional one c_n = 0 and the sequence tends
    to 0 (a point gives n!/m^n)."""
    if not P.is_lattice():
        raise NotLatticePolytope("vertices are not integral")
    n = P.dimension
    ms = range(1, m_max + 1)
    return tuple(Fraction(factorial(n) * count, m ** n)
                 for m, count in zip(ms, _ehrhart_values(P, ms)))


def _ehrhart_values(P: RationalPolytope, ms: range) -> list[int]:
    """L(m) for every m in `ms`, for a lattice polytope P (see
    :func:`ehrhart_volume_estimate`)."""
    k = P.affine_dimension()
    up, down = (k + 1) // 2, k // 2
    if k < 0 or len(ms) <= up:
        return [lattice_point_count(P, m) for m in ms]
    values = ([(-1) ** k * lattice_point_count(P, j, interior=True)
               for j in range(down, 0, -1)]
              + [1] + [lattice_point_count(P, m) for m in range(1, up + 1)])
    differences = []
    while values:
        differences.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return [sum(comb(m + down, i) * d for i, d in enumerate(differences)) for m in ms]


def line_bundle_volume(D: ToricDivisor) -> Fraction:
    """Volume of the associated line bundle: the mixed volume of the
    section polytope (the exact limit of the normalized section counts)."""
    return mixed_volume(polytope_of_divisor(D))
