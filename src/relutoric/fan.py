"""Central polyhedral fans of unbiased ReLU networks.

Every fan here comes out of one cell-splitting engine.  A central
arrangement starts from the 2^d simplicial cells of d independent normals and
splits every cell by each remaining hyperplane; the ReLU fan then refines each
maximal cone wherever the composed (cone-linear) functional of a deeper
neuron changes sign.  Each split is one exact double-description step on
integers, so cones carry both their extreme rays and an irredundant inward
facet description, and no cell is ever enumerated that does not exist.

Deterministic ordering: in the plane, rays and maximal cones are sorted
counterclockwise starting from the positive x-axis, which matches the usual
way these fans are drawn; in higher dimension both are sorted
lexicographically by their (sorted) generator tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cmp_to_key

from .errors import Biased, NotEssential, RelutoricError, UnsupportedDimension
from .exact_math import (
    IntVec,
    clear_denominators,
    integer_kernel_direction,
    is_zero_vector,
    mat_rank,
    rational_to_primitive,
    sign_canonical,
    vdot,
    vneg,
)
from .network import ValidatedNetwork, cleared_layers

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
    neuron provenance."""
    order: list[IntVec] = []
    merged: dict[IntVec, Hyperplane] = {}
    for h in hyperplanes:
        if h.normal not in merged:
            order.append(h.normal)
            merged[h.normal] = h
        else:
            old = merged[h.normal]
            neurons = old.neurons + tuple(n for n in h.neurons if n not in old.neurons)
            kind = old.kind if old.kind != SYNTHETIC else h.kind
            merged[h.normal] = Hyperplane(old.normal, kind, neurons)
    return tuple(merged[n] for n in order)


@dataclass(frozen=True)
class Cone:
    """A strongly convex rational polyhedral cone with extreme rays and an
    irredundant inward facet description."""

    rays: tuple[IntVec, ...]
    halfspaces: tuple[IntVec, ...]
    dim: int

    def contains(self, x) -> bool:
        x, _ = clear_denominators(x)
        return all(vdot(n, x) >= 0 for n in self.halfspaces)

    def interior_point(self) -> IntVec:
        """Sum of the extreme rays; interior for full-dimensional cones,
        relative-interior in general."""
        return tuple(sum(r[i] for r in self.rays) for i in range(self.dim))


@dataclass(frozen=True)
class Wall:
    """A codimension-one cone shared by two maximal cones."""

    generators: tuple[IntVec, ...]
    cones: tuple[int, int]
    normal: IntVec                       # sign-canonical normal of the span
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

def _facet_normals(rays, candidates, dim: int) -> tuple[IntVec, ...]:
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


def halfspaces_from_rays(rays, dim: int) -> tuple[IntVec, ...]:
    """Irredundant inward facet normals of a full-dimensional cone given by
    generators.  Brute force over (dim-1)-subsets of the rays."""
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


def cone_from_rays(rays, dim: int) -> Cone:
    prim = []
    for r in rays:
        p = rational_to_primitive(r)
        if p not in prim:
            prim.append(p)
    halfspaces = halfspaces_from_rays(prim, dim)
    return Cone(tuple(sorted(prim)), halfspaces, dim)


def _split_cone(cone: Cone, cut: IntVec) -> tuple[Cone, Cone] | None:
    """Split a maximal cone along a hyperplane through its interior.

    Returns (negative side, positive side) or None when the hyperplane does
    not separate the cone's interior.  This is one double-description step
    in integers: it needs the cone's rays to be exactly its extreme rays and
    its facets to be irredundant, which every cone this engine makes
    satisfies, and `cut` to be primitive.  Two rays on opposite sides span
    an edge of the cone unless a third ray is tight on every facet that both
    are tight on; each edge the cut crosses yields one new ray.
    """
    products = [vdot(cut, r) for r in cone.rays]
    if not (any(p > 0 for p in products) and any(p < 0 for p in products)):
        return None
    tight = [frozenset(i for i, n in enumerate(cone.halfspaces) if vdot(n, r) == 0)
             for r in cone.rays]
    new_rays = []
    for a, pa in enumerate(products):
        for b, pb in enumerate(products):
            if pa <= 0 or pb >= 0:
                continue
            common = tight[a] & tight[b]
            if any(common <= t for c, t in enumerate(tight) if c != a and c != b):
                continue
            ra, rb = cone.rays[a], cone.rays[b]
            new_rays.append(rational_to_primitive(
                tuple(pa * y - pb * x for x, y in zip(ra, rb))))

    def side(sign: int) -> Cone:
        rays = [r for r, p in zip(cone.rays, products) if sign * p >= 0] + new_rays
        kept = {i for p, t in zip(products, tight) if sign * p > 0 for i in t}
        facets = [n for i, n in enumerate(cone.halfspaces) if i in kept]
        facets.append(cut if sign > 0 else vneg(cut))
        return Cone(tuple(rays), tuple(facets), cone.dim)

    return side(-1), side(1)


def _refine(cones, cut: IntVec) -> tuple[list[Cone], bool]:
    """Split every cone that `cut` passes through; also report whether any
    cone was split."""
    refined: list[Cone] = []
    split_any = False
    for cone in cones:
        split = _split_cone(cone, cut)
        if split is None:
            refined.append(cone)
        else:
            refined.extend(split)
            split_any = True
    return refined, split_any


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


def sort_rays(rays, dim: int) -> list[IntVec]:
    if dim == 2:
        return sorted(rays, key=cmp_to_key(_ray_cmp_2d))
    return sorted(rays)


def _sort_cones(cones, dim: int) -> list[Cone]:
    if dim == 2:
        def start_ray(cone: Cone) -> IntVec:
            a, b = cone.rays
            cross = a[0] * b[1] - a[1] * b[0]
            return a if cross > 0 else b
        return sorted(cones, key=cmp_to_key(
            lambda c1, c2: _ray_cmp_2d(start_ray(c1), start_ray(c2))))
    return sorted(cones, key=lambda c: tuple(sorted(c.rays)))


# ---------------------------------------------------------------------------
# fan assembly
# ---------------------------------------------------------------------------

def _facet_incidence(cones) -> dict[tuple[IntVec, ...], list[tuple[int, IntVec]]]:
    """Each facet of the given maximal cones, keyed by its sorted rays, with
    the (cone index, inward normal) of every cone it bounds."""
    incidence: dict[tuple[IntVec, ...], list[tuple[int, IntVec]]] = {}
    for idx, cone in enumerate(cones):
        for n in cone.halfspaces:
            tight = tuple(sorted(r for r in cone.rays if vdot(n, r) == 0))
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
        generators = tuple(sort_rays(tight, dim)) if dim == 2 else tight
        indices = sorted(idx for idx, _ in incident)
        walls.append(Wall(generators, tuple(indices), normal, kind, neurons))
    if dim == 2:
        walls.sort(key=cmp_to_key(
            lambda w1, w2: _ray_cmp_2d(w1.generators[0], w2.generators[0])))
    else:
        walls.sort(key=lambda w: w.generators)
    return tuple(walls)


def _canonical_cone(cone: Cone, dim: int) -> Cone:
    if dim == 2:
        a, b = cone.rays
        cross = a[0] * b[1] - a[1] * b[0]
        rays = (a, b) if cross > 0 else (b, a)
    else:
        rays = tuple(sorted(cone.rays))
    return Cone(rays, tuple(sorted(cone.halfspaces)), dim)


def _assemble_fan(cones, dim: int, hyperplanes, bent_cuts=()) -> Fan:
    cones = _sort_cones([_canonical_cone(c, dim) for c in cones], dim)
    rays = sort_rays({r for c in cones for r in c.rays}, dim)
    provenance: dict[IntVec, tuple[str, tuple]] = {}
    for normal, tag in bent_cuts:
        kind, neurons = provenance.get(normal, (BENT, ()))
        if tag not in neurons:
            neurons = neurons + (tag,)
        provenance[normal] = (BENT, neurons)
    for h in hyperplanes:
        provenance[h.normal] = (h.kind, h.neurons)
    walls = _walls_from_cones(cones, dim, provenance)
    return Fan(dim, tuple(rays), tuple(cones), walls, tuple(hyperplanes))


def central_fan(hyperplanes, dim: int) -> Fan:
    """Fan of a central hyperplane arrangement, cells built by splitting.

    The first d independent normals, in the given order, cut space into 2^d
    simplicial cells; every cell is then split by each remaining normal.
    Raises NotEssential when the normals do not span the ambient space (the
    complex then has a lineality space and is only a generalized fan).
    """
    if dim < 2:
        raise UnsupportedDimension(
            f"central fans need ambient dimension >= 2, got {dim}")
    merged = merge_hyperplanes(hyperplanes)
    if not merged:
        raise NotEssential("no hyperplanes given")
    basis: list[IntVec] = []
    rest: list[IntVec] = []
    for h in merged:
        if len(basis) < dim and mat_rank(basis + [h.normal]) > len(basis):
            basis.append(h.normal)
        else:
            rest.append(h.normal)
    if len(basis) < dim:
        raise NotEssential(
            f"normals span rank {len(basis)} < {dim}; lineality remains")
    kernel = []
    for i, n in enumerate(basis):
        k = integer_kernel_direction(basis[:i] + basis[i + 1:])
        kernel.append(k if vdot(n, k) > 0 else vneg(k))
    cones = [Cone(tuple(k if s > 0 else vneg(k) for s, k in zip(signs, kernel)),
                  tuple(n if s > 0 else vneg(n) for s, n in zip(signs, basis)), dim)
             for signs in itertools.product((1, -1), repeat=dim)]
    for cut in rest:
        cones, _ = _refine(cones, cut)
    return _assemble_fan(cones, dim, merged)


def augmented_central_fan(hyperplanes, dim: int) -> Fan:
    """central_fan, adding synthetic coordinate hyperplanes whenever the
    arrangement is not essential (they carry zero bend by construction)."""
    merged = merge_hyperplanes(hyperplanes)
    normals = [h.normal for h in merged]
    if not merged or mat_rank(normals) < dim:
        coords = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            coords.append(Hyperplane(e, SYNTHETIC))
        merged = merge_hyperplanes(list(merged) + coords)
    return central_fan(merged, dim)


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

    Starts from the central fan of the first layer (synthetically augmented
    with coordinate hyperplanes when not essential), then refines cone by
    cone along the zero sets of the composed (cone-linear) functionals of
    each deeper hidden layer.  The output layer never refines.  The
    compositions and sign tests run on `cleared_layers(net)`: a positive
    multiple of a functional has the same signs and the same primitive cut.
    """
    if not net.is_unbiased:
        raise Biased("the toric pipeline requires an unbiased network")
    dim = net.input_dim
    planes = layer_one_hyperplanes(net)
    base = augmented_central_fan(planes, dim)
    planes = base.hyperplanes
    layers, _ = cleared_layers(net)

    cones = list(base.maximal_cones)
    prefix = [_first_layer_matrix(layers[0], cone) for cone in cones]
    bent_cuts: list[tuple[IntVec, tuple[int, int]]] = []
    k = net.hidden_layers
    zero = (0,) * dim
    for layer in range(2, k + 1):
        rows = layers[layer - 1]
        next_cones: list[Cone] = []
        next_prefix = []
        for cone, w in zip(cones, prefix):
            functionals = [_compose(row, w, dim) for row in rows]
            pieces = [cone]
            for j, phi in enumerate(functionals, start=1):
                if is_zero_vector(phi):
                    if diagnostics is not None:
                        diagnostics.append(
                            f"neuron ({layer},{j}) is identically zero on a cone")
                    continue
                cut = rational_to_primitive(phi)
                pieces, bent = _refine(pieces, cut)
                if bent:
                    bent_cuts.append((sign_canonical(cut), (layer, j)))
            for piece in pieces:
                probe = piece.interior_point()
                next_cones.append(piece)
                next_prefix.append(tuple(phi if vdot(phi, probe) > 0 else zero
                                         for phi in functionals))
        cones = next_cones
        prefix = next_prefix
    return _assemble_fan(cones, dim, planes, bent_cuts)


def _first_layer_matrix(rows, cone: Cone):
    """Linear map computed by ReLU . L1 on a maximal cone of the layer-one
    arrangement, for the cleared first-layer rows."""
    probe = cone.interior_point()
    zero = (0,) * cone.dim
    return tuple(row if vdot(row, probe) > 0 else zero for row in rows)


def _compose(out_row, matrix, dim: int):
    """Covector out_row . matrix."""
    return tuple(sum(c * row[i] for c, row in zip(out_row, matrix))
                 for i in range(dim))


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
