"""Central polyhedral fans of unbiased ReLU networks.

Every fan here is cut by one routine, `_cut_at_max`, which splits cones
where the first argmax of a list of integer covectors changes and reports
that max on each piece; a cut that vanishes on a cone keeps the earlier
covector.  A central arrangement cuts the simplicial cells of d
independent normals by each remaining normal n as max(n, 0); the ReLU fan
cuts each maximal cone by each deeper neuron as max(phi, 0), phi its row
pulled back at the cone's probe (its interior point); both ignore the max.
The arrangement is centrally symmetric, so only the 2^(d-1) cells on the
positive side of the first normal are cut, and the other half of its cells
are the negations of those pieces.  An expression cuts at each of its max
nodes and keeps the max as that node's slope on the piece.  Each split is
one exact double-description step on integers, so cones carry both their
extreme rays and an irredundant inward facet description, and no cell is
ever enumerated that does not exist.  Each cone also keeps which rays lie
on each of its facets, as the step that made it found them, and the walls
of the fan are read off that record.

Deterministic ordering: in the plane, rays, maximal cones and walls are
sorted counterclockwise starting from the positive x-axis, which matches the
usual way these fans are drawn; in higher dimension all three are sorted
lexicographically by their (sorted) generator tuples.  Merged provenance
lists a wall's neurons in sorted order, so no report depends on the order
in which cones were cut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key

from .errors import Biased, NotEssential, RelutoricError, UnsupportedDimension
from .exact_math import (
    IntVec,
    clear_denominators,
    crossing_rays,
    double_description,
    independent_rows,
    is_zero_vector,
    keep_side,
    mat_rank,
    normalize_primitive,
    nullspace_covectors,
    rational_to_primitive,
    sign_canonical,
    simplicial_rays,
    vdot,
    vneg,
    vsub,
)
from .network import ValidatedNetwork, cleared_layers, pull_back

LAYER1 = "layer1"
SYNTHETIC = "synthetic"
EXTENDED = "extended"
BENT = "bent"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Hyperplane:
    """A central hyperplane, identified by its sign-canonical primitive
    normal, together with where it came from."""

    normal: IntVec
    kind: str = LAYER1
    neurons: tuple[tuple[int, int], ...] = ()


def hyperplane(normal, kind: str = LAYER1, neurons=()) -> Hyperplane:
    prim = sign_canonical(rational_to_primitive(normal))
    return Hyperplane(prim, kind, tuple(neurons))


def merge_hyperplanes(hyperplanes) -> tuple[Hyperplane, ...]:
    """Deduplicate by normal, keeping first-appearance order and merging
    neuron provenance into a sorted tuple."""
    order: list[IntVec] = []
    merged: dict[IntVec, Hyperplane] = {}
    for h in hyperplanes:
        if h.normal not in merged:
            order.append(h.normal)
            merged[h.normal] = h
        else:
            old = merged[h.normal]
            neurons = tuple(sorted({*old.neurons, *h.neurons}))
            kind = old.kind if old.kind != SYNTHETIC else h.kind
            merged[h.normal] = Hyperplane(old.normal, kind, neurons)
    return tuple(merged[n] for n in order)


@dataclass(frozen=True)
class Cone:
    """A strongly convex rational polyhedral cone with extreme rays and an
    irredundant inward facet description.

    `facet_rays` holds, for each halfspace in turn, the sorted tuple of the
    rays on it, as the double description step that made the cone found it.
    """

    rays: tuple[IntVec, ...]
    halfspaces: tuple[IntVec, ...]
    facet_rays: tuple[tuple[IntVec, ...], ...]
    dim: int

    def interior_point(self) -> IntVec:
        """Sum of the extreme rays; interior for full-dimensional cones,
        relative-interior in general."""
        return tuple(map(sum, zip(*self.rays)))


@dataclass(frozen=True)
class Wall:
    """A codimension-one cone shared by two maximal cones.

    `normal` is the primitive, sign-canonical normal of the wall's span: the
    shared facet normal of its two cones, which every fan here keeps
    primitive.  It vanishes on every generator, so it equals
    `kernel_normal(generators)`.
    """

    generators: tuple[IntVec, ...]
    cones: tuple[int, int]
    normal: IntVec
    kind: str = UNKNOWN
    neurons: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Fan:
    """A complete central fan, maximal cones plus derived wall data."""

    dim: int
    rays: tuple[IntVec, ...]
    maximal_cones: tuple[Cone, ...]
    walls: tuple[Wall, ...]
    hyperplanes: tuple[Hyperplane, ...] = ()


@dataclass(frozen=True)
class FanReport:
    """Structured result of validate_fan; never raises.

    `strongly_convex`: every cone is pointed.  `two_sided`: every facet
    bounds exactly two cones, on opposite sides.  `degree`: the number of
    cones whose interior holds a generic probe point.  With two-sided facets
    that number is the same at every generic point, so the cones cover the
    space `degree` times; the face property holds exactly when they cover it
    once.  A collection whose facets are not two-sided reads
    `face_property` False, because local checks cannot decide it there.
    """

    strongly_convex: bool
    two_sided: bool
    degree: int
    violations: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.two_sided and self.degree >= 1

    @property
    def face_property(self) -> bool:
        return self.two_sided and self.degree == 1

    @property
    def valid(self) -> bool:
        return self.strongly_convex and self.complete and self.degree == 1


# ---------------------------------------------------------------------------
# low-level cone machinery
# ---------------------------------------------------------------------------

def cone_from_rays(rays, dim: int) -> Cone:
    """The cone generated by the given rays, with its inward facet normals:
    the extreme rays of the dual cone {c : c . g >= 0 for every generator
    g}, found by one double description pass.  A cone that is not
    full-dimensional also gets both signs of each equation of its span, so
    its halfspaces still cut out exactly the cone."""
    prim = []
    for r in rays:
        p = rational_to_primitive(r)
        if p not in prim:
            prim.append(p)
    equations = [rational_to_primitive(c) for c in nullspace_covectors(prim, dim)]
    equations += [vneg(e) for e in equations]
    normals, zero_sets, _ = double_description(prim + equations, dim)
    rays = tuple(sorted(prim))
    facets = sorted([(n, tuple(sorted(prim[i] for i in z if i < len(prim))))
                     for n, z in zip(normals, zero_sets)]
                    + [(e, rays) for e in equations])
    return Cone(rays, tuple(n for n, _ in facets), tuple(t for _, t in facets), dim)


def _split_cone(cone: Cone, cut: IntVec) -> tuple[Cone | None, Cone | None]:
    """A maximal cone's (negative side, positive side) of a hyperplane.

    A cone the hyperplane does not cross is its own side, the positive one
    when `cut` vanishes on it, and the other side is None.  A split is one
    double-description step in integers (:func:`crossing_rays`,
    :func:`keep_side`) on the zero sets the cone's `facet_rays` give: it
    needs the cone's rays to be exactly its extreme rays and its facets to
    be irredundant, which every cone this engine makes satisfies; `cut`,
    any integer normal, is kept primitive.  Each edge the cut crosses yields
    one new ray.  A facet survives on a side when one of its rays lies
    strictly on that side.
    """
    products = [vdot(cut, r) for r in cone.rays]
    if min(products) >= 0:
        return None, cone
    if max(products) <= 0:
        return cone, None
    cut, _ = normalize_primitive(cut)
    zero_sets = [frozenset(i for i, tight in enumerate(cone.facet_rays) if r in tight)
                 for r in cone.rays]
    crossings = crossing_rays(cone.rays, zero_sets, products, cone.dim)
    row = len(cone.halfspaces)
    sides = []
    for sign in (-1, 1):
        signed = [sign * p for p in products]
        rays, tight = keep_side(cone.rays, zero_sets, signed, crossings, row)
        normals = cone.halfspaces + ((cut if sign > 0 else vneg(cut)),)
        kept = sorted({i for p, z in zip(signed, zero_sets) if p > 0 for i in z})
        kept.append(row)
        sides.append(Cone(tuple(rays), tuple(normals[i] for i in kept),
                          tuple(tuple(sorted(r for r, z in zip(rays, tight) if i in z))
                                for i in kept), cone.dim))
    return sides[0], sides[1]


def _cut_at_max(cones, slopes) -> list[tuple[Cone, IntVec]]:
    """The pieces of the cones on which the max of the integer covectors
    `slopes` is linear, each with that max: its first argmax.  Each piece
    carries its running max and is cut by it minus the next covector: the
    negative side takes the new covector and the positive side, where they
    tie too, keeps the max."""
    first = slopes[0]
    pieces = [(cone, first) for cone in cones]
    for slope in slopes[1:]:
        from_first = vsub(first, slope)  # the cut of every piece whose max is `first`
        step = []
        for piece, top in pieces:
            sides = _split_cone(piece, from_first if top is first else vsub(top, slope))
            step += [(side, m) for side, m in zip(sides, (slope, top)) if side is not None]
        pieces = step
    return pieces


# ---------------------------------------------------------------------------
# deterministic ordering
# ---------------------------------------------------------------------------

def _half_of_plane(v: IntVec) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _ray_cmp_2d(a: IntVec, b: IntVec) -> int:
    ha, hb = _half_of_plane(a), _half_of_plane(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cross = a[0] * b[1] - a[1] * b[0]
    if cross == 0:
        return 0
    return -1 if cross > 0 else 1


def canonical_order(items, dim: int, rays=lambda ray: (ray,)) -> list:
    """The items in the canonical order of their ray tuples `rays(item)`: in
    the plane counterclockwise from the positive x-axis by the first ray,
    above lexicographically.  A ray's tuple is itself alone; a cone's is its
    canonical rays (:func:`_canonical_cone`) and a wall's its generators."""
    if dim == 2:
        counterclockwise = cmp_to_key(_ray_cmp_2d)
        return sorted(items, key=lambda item: counterclockwise(rays(item)[0]))
    return sorted(items, key=rays)


# ---------------------------------------------------------------------------
# fan assembly
# ---------------------------------------------------------------------------

def _facet_incidence(cones) -> dict[tuple[IntVec, ...], list[tuple[int, IntVec]]]:
    """Each facet of the given maximal cones, keyed by its sorted rays, with
    the (cone index, inward normal) of every cone it bounds."""
    incidence: dict[tuple[IntVec, ...], list[tuple[int, IntVec]]] = {}
    for idx, cone in enumerate(cones):
        for n, tight in zip(cone.halfspaces, cone.facet_rays):
            incidence.setdefault(tight, []).append((idx, n))
    return incidence


def two_sided_violations(cones) -> list[str]:
    """One message per facet that does not bound exactly two of the given
    maximal cones on opposite sides, in sorted facet order; empty when every
    facet is two sided, as in a complete fan."""
    messages = []
    for tight, incident in sorted(_facet_incidence(cones).items()):
        if len(incident) != 2:
            messages.append(
                f"facet {tight} has {len(incident)} incident maximal cones, expected 2")
        elif vdot(incident[0][1], cones[incident[1][0]].interior_point()) >= 0:
            messages.append(f"facet {tight} bounds two cones on one side")
    return messages


def _walls_from_cones(cones, dim: int, provenance) -> tuple[Wall, ...]:
    """Match up facets shared by two maximal cones.

    `provenance` maps a sign-canonical span normal to a (kind, neurons)
    pair; unmatched walls are tagged unknown.
    """
    walls = []
    for tight, incident in _facet_incidence(cones).items():
        if len(incident) != 2:
            continue
        normal = sign_canonical(incident[0][1])
        kind, neurons = provenance.get(normal, (UNKNOWN, ()))
        indices = sorted(idx for idx, _ in incident)
        walls.append(Wall(tight, tuple(indices), normal, kind, neurons))
    return tuple(canonical_order(walls, dim, lambda w: w.generators))


def _canonical_cone(cone: Cone, dim: int) -> Cone:
    if dim == 2:
        a, b = cone.rays
        cross = a[0] * b[1] - a[1] * b[0]
        rays = (a, b) if cross > 0 else (b, a)
    else:
        rays = tuple(sorted(cone.rays))
    facets = sorted(zip(cone.halfspaces, cone.facet_rays))
    return Cone(rays, tuple(n for n, _ in facets), tuple(t for _, t in facets), dim)


def _assemble_fan(cones, dim: int, hyperplanes, bent=()) -> tuple[Fan, list[int]]:
    """Fan of the cones made canonical, in canonical order, and `order`:
    `order[i]` is the index in `cones` of the cone that became the fan's
    maximal cone i.  A wall's provenance is that of its hyperplane in
    `hyperplanes`, else of the merged `bent` cuts."""
    cones = [_canonical_cone(c, dim) for c in cones]
    order = canonical_order(range(len(cones)), dim, lambda i: cones[i].rays)
    cones = [cones[i] for i in order]
    rays = canonical_order({r for c in cones for r in c.rays}, dim)
    provenance = {h.normal: (h.kind, h.neurons)
                  for h in merge_hyperplanes(bent) + tuple(hyperplanes)}
    walls = _walls_from_cones(cones, dim, provenance)
    return Fan(dim, tuple(rays), tuple(cones), walls, tuple(hyperplanes)), order


def central_fan(hyperplanes, dim: int) -> Fan:
    """Fan of a central hyperplane arrangement: the assembly of its cells
    (:func:`_arrangement_cells`)."""
    merged = merge_hyperplanes(hyperplanes)
    return _assemble_fan(_arrangement_cells(merged, dim), dim, merged)[0]


def _arrangement_cells(merged, dim: int) -> list[Cone]:
    """Maximal cones of the arrangement of the merged hyperplanes, built by
    splitting; :func:`_assemble_fan` puts them in canonical order.

    The first d independent normals, in the given order, cut space into 2^d
    simplicial cells; ray i of a cell lies on each of its facets but the
    i-th.  A central arrangement is centrally symmetric, so only the 2^(d-1)
    cells on the positive side of the first normal are split by each
    remaining normal; the cells are those pieces followed by their
    negations, which share each negated ray.  Negation reverses
    lexicographic order, so a negated facet record stays sorted when
    reversed.  Raises NotEssential when the normals do not span the ambient
    space (the complex then has a lineality space and is only a generalized
    fan).
    """
    if dim < 2:
        raise UnsupportedDimension(
            f"central fans need ambient dimension >= 2, got {dim}")
    normals = [h.normal for h in merged]
    chosen = independent_rows(normals)
    basis = [normals[i] for i in chosen]
    rest = [n for i, n in enumerate(normals) if i not in chosen]
    if len(basis) < dim:
        raise NotEssential(
            f"normals span rank {len(basis)} < {dim}; lineality remains")
    kernel = simplicial_rays(basis)
    cones = []
    for signs in itertools.product((1, -1), repeat=dim - 1):
        signs = (1,) + signs
        rays = tuple(k if s > 0 else vneg(k) for s, k in zip(signs, kernel))
        halfspaces = tuple(n if s > 0 else vneg(n) for s, n in zip(signs, basis))
        facet_rays = tuple(tuple(sorted(rays[:i] + rays[i + 1:])) for i in range(dim))
        cones.append(Cone(rays, halfspaces, facet_rays, dim))
    for cut in rest:
        cones = [piece for piece, _ in _cut_at_max(cones, (cut, (0,) * dim))]
    negated = {r: vneg(r) for cone in cones for r in cone.rays}
    return cones + [Cone(tuple(negated[r] for r in cone.rays),
                         tuple(vneg(n) for n in cone.halfspaces),
                         tuple(tuple(negated[r] for r in reversed(tight))
                               for tight in cone.facet_rays), dim)
                    for cone in cones]


def _augmented(hyperplanes, dim: int) -> tuple[Hyperplane, ...]:
    """The hyperplanes merged, with synthetic coordinate hyperplanes added
    when they are not essential (those carry zero bend by construction)."""
    merged = merge_hyperplanes(hyperplanes)
    if mat_rank([h.normal for h in merged]) < dim:
        coords = [Hyperplane(tuple(1 if j == i else 0 for j in range(dim)), SYNTHETIC)
                  for i in range(dim)]
        merged = merge_hyperplanes(list(merged) + coords)
    return merged


def augmented_central_fan(hyperplanes, dim: int) -> Fan:
    """central_fan, adding synthetic coordinate hyperplanes whenever the
    arrangement is not essential."""
    return central_fan(_augmented(hyperplanes, dim), dim)


# ---------------------------------------------------------------------------
# the ReLU fan
# ---------------------------------------------------------------------------

def layer_one_hyperplanes(net: ValidatedNetwork) -> tuple[Hyperplane, ...]:
    """Nondegenerate first-layer rows as canonical hyperplanes, merged."""
    planes = []
    for j, row in enumerate(net.layers[0], start=1):
        if is_zero_vector(row):
            continue
        planes.append(hyperplane(row, LAYER1, ((1, j),)))
    return merge_hyperplanes(planes)


def build_relu_fan(net: ValidatedNetwork, diagnostics: list | None = None) -> Fan:
    """Canonical polyhedral complex of an unbiased network, as a fan.

    Starts from the cells of the first layer's arrangement (synthetically
    augmented with coordinate hyperplanes when not essential), then refines
    cone by cone along the zero sets of each deeper hidden layer's rows,
    pulled back at the cone's probe (its interior point; the cone lies in one
    activation region of every earlier layer), and assembles the fan once.
    The output layer never refines.  The pull-backs and sign tests run on
    `cleared_layers(net)`: a positive multiple of a functional has the same
    signs and the same primitive cut.
    """
    if not net.is_unbiased:
        raise Biased("the toric pipeline requires an unbiased network")
    dim = net.input_dim
    planes = _augmented(layer_one_hyperplanes(net), dim)
    cones = _arrangement_cells(planes, dim)
    layers, _ = cleared_layers(net)
    bent: list[Hyperplane] = []
    for layer in range(2, net.hidden_layers + 1):
        next_cones: list[Cone] = []
        for cone in cones:
            pieces = [cone]
            functionals = pull_back(layers, cone.interior_point(), layer - 1)
            for j, phi in enumerate(functionals, start=1):
                if is_zero_vector(phi):
                    if diagnostics is not None:
                        diagnostics.append(
                            f"neuron ({layer},{j}) is identically zero on a cone")
                    continue
                refined = [piece for piece, _ in _cut_at_max(pieces, (phi, (0,) * dim))]
                if len(refined) > len(pieces):
                    bent.append(hyperplane(phi, BENT, ((layer, j),)))
                pieces = refined
            next_cones.extend(pieces)
        cones = next_cones
    return _assemble_fan(cones, dim, planes, bent)[0]


# ---------------------------------------------------------------------------
# queries and validation
# ---------------------------------------------------------------------------

def wall_groups(fan: Fan) -> list[tuple[IntVec, list[int]]]:
    """Wall indices grouped by the full hyperplane containing them, ordered
    by sign-canonical normal."""
    groups: dict[IntVec, list[int]] = {}
    for i, wall in enumerate(fan.walls):
        groups.setdefault(wall.normal, []).append(i)
    return sorted(groups.items())


def cone_containing(fan: Fan, x) -> int:
    """Lowest-indexed maximal cone whose closure contains x.

    The point is cleared of denominators once (a positive scaling, so no
    sign changes) and every side test runs on integers.
    """
    x, _ = clear_denominators(x)
    for i, cone in enumerate(fan.maximal_cones):
        if all(vdot(n, x) >= 0 for n in cone.halfspaces):
            return i
    raise RelutoricError("point escapes the fan; fan is not complete")


def validate_fan(fan: Fan) -> FanReport:
    """Decide whether the maximal cones form a complete fan, by three local
    checks on integers, O(C*F) for C cones of F facets each.

    1. Pointed: every cone's facet normals have full rank.
    2. Two-sided: every facet (keyed by its rays) bounds exactly two cones,
       and the second lies on the negative side of the first's inward
       normal.
    3. Degree 1: exactly one cone holds the probe p = (1, t, ..., t^(d-1))
       strictly inside every facet inequality, where t = 2 + the largest
       |entry| of any facet normal.  Each n.p is a nonzero integer
       polynomial in t, and t exceeds its Cauchy root bound, so p lies on
       no facet hyperplane.

    Soundness, for full-dimensional cones in dimension d >= 2.  With
    two-sided facets the number of cones whose interior holds a point is
    the same at every point off the facet hyperplanes: crossing a point of a
    facet that lies in no (d-2)-face swaps each cone bounded there for its
    partner on the other side, and the complement of the (d-2)-skeleton is
    connected.  Every cone is full-dimensional, so that number is at least
    1 and the cones cover R^d.  Degree 1 makes the interiors disjoint.  The
    cones around each face then close up, once, because their facets match
    exactly: so no ray of one cone lies in a face of another that does not
    list it, and any two cones meet in a common face.  Conversely every
    complete fan of pointed cones passes all three checks.
    """
    cones = fan.maximal_cones
    violations = [f"cone {i} contains a line" for i, cone in enumerate(cones)
                  if mat_rank(cone.halfspaces) < fan.dim]
    strongly_convex = not violations

    one_sided = two_sided_violations(cones)
    violations.extend(one_sided)

    t = 2 + max((abs(x) for cone in cones for n in cone.halfspaces for x in n),
                default=0)
    probe = tuple(t ** k for k in range(fan.dim))
    degree = sum(all(vdot(n, probe) > 0 for n in cone.halfspaces) for cone in cones)
    if degree != 1:
        violations.append(
            f"the generic point {probe} lies inside {degree} maximal cones, expected 1")

    return FanReport(strongly_convex, not one_sided, degree, tuple(violations))
