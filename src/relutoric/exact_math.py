"""Exact rational and integer-lattice arithmetic.

Vectors are plain tuples: integer vectors (lattice points, ray generators,
hyperplane normals) are ``tuple[int, ...]``, rational vectors are
``tuple[Fraction, ...]``.  Everything downstream — fans, divisors, polytopes —
reduces to the handful of primitives in this module, and none of them ever
touches a float.

The arithmetic runs on Python integers wherever it can.  Rank, pivot
columns, the greedy basis of given rows, linear solves, kernels and
determinants are all read off one fraction-free Bareiss elimination
(:func:`_echelon`): each row in turn is cleared of denominators once and
reduced against the pivot rows before it with exact integer divisions, so
every entry stays a minor of the input.  Only the back substitution of a
rational solve or covector uses Fractions.

Every conversion between generators and inequalities — polytope hulls,
section polytopes, the facets of a cone — is one integer double
description pass (:func:`double_description`), whose work grows with the
rays it finds rather than with the C(n, dim) subsets of its input.  Its cut
step (:func:`crossing_rays`, :func:`keep_side`) also splits the cones of
every fan.  A
:class:`RationalPolytope` keeps what its conversion produced: vertices,
facet inequalities and which vertices lie on each facet, so lattice-point
counts and volumes never rebuild them.  Lattice points are counted fibre
by fibre over the projections of the polytope (:func:`lattice_point_count`),
not by scanning a bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import floordiv, mul, sub

from .errors import RankDeficient, ZeroVector

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# vector helpers
# ---------------------------------------------------------------------------

def frac(value) -> Fraction:
    """Coerce ints, strings like '2/3' and Fractions to Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def ratvec(values) -> RatVec:
    return tuple(frac(v) for v in values)


def vdot(a, b):
    return sum(map(mul, a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(map(sub, a, b))


def vscale(c, a):
    return tuple(c * x for x in a)


def vneg(a):
    return tuple(-x for x in a)


def is_zero_vector(a) -> bool:
    return all(x == 0 for x in a)


def normalize_primitive(v) -> tuple[IntVec, int]:
    """Factor an integer vector as scale * primitive with coordinate gcd 1.

    The direction is preserved; only the positive gcd is divided out.
    """
    v = tuple(map(int, v))
    g = gcd(*v)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    return tuple(x // g for x in v), g


def sign_canonical(v: IntVec) -> IntVec:
    """Flip an integer vector so its first nonzero coordinate is positive."""
    for x in v:
        if x != 0:
            return v if x > 0 else vneg(v)
    raise ZeroVector("cannot orient the zero vector")


def clear_denominators(v) -> tuple[IntVec, int]:
    """Scale a rational vector to integers; returns (integer vector, lcm)."""
    v = [x if type(x) in (int, Fraction) else frac(x) for x in v]
    mult = lcm(*[x.denominator for x in v])
    return tuple(x.numerator * (mult // x.denominator) for x in v), mult


def rational_to_primitive(v) -> IntVec:
    """Primitive integer vector with the same direction as a rational one."""
    ints, _ = clear_denominators(v)
    prim, _ = normalize_primitive(ints)
    return prim


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _echelon(rows) -> list[tuple[int, int, list[int]]]:
    """Fraction-free row reduction (Bareiss), one row at a time, in order.

    Each row is scaled once to integers by the positive lcm of its
    denominators (a row of ints is taken as it is) and reduced against the
    pivot rows kept so far, each of which owns the column c of its first
    nonzero entry: against pivot row b it becomes (b[c] * v - v[c] * b) / p,
    p the pivot entry of the pivot row before b (1 for the first).  By
    Sylvester's identity, entry j is then the minor of the scaled input on
    the rows of those pivots and its own and on their pivot columns and
    column j, so every division is exact and no entry outgrows a minor of
    the input.  A row with something left becomes a pivot row, zero in
    every earlier pivot column.

    Returns (row index, pivot column, pivot row) for each row that gave a
    pivot, in order; the scan stops once the pivot rows span every column.
    Its readers are :func:`mat_rank`, :func:`pivot_columns`,
    :func:`independent_rows`, :func:`solve_exact`,
    :func:`nullspace_covectors`, :func:`int_det` and
    :func:`integer_kernel_direction`.
    """
    pivots: list[tuple[int, int, list[int]]] = []
    for i, row in enumerate(rows):
        v = list(row)
        if not all(type(x) is int for x in v):
            v = list(clear_denominators(v)[0])
        p = 1
        for _, col, b in pivots:
            bc, vc = b[col], v[col]
            v = [(bc * x - vc * y) // p for x, y in zip(v, b)]
            p = bc
        col = next((c for c, x in enumerate(v) if x), None)
        if col is not None:
            pivots.append((i, col, v))
            if len(pivots) == len(v):
                break
    return pivots


def _back_substitute(pivots, x: list, divide=Fraction) -> tuple:
    """Complete `x`, whose free coordinates are already set, so that every
    pivot row pairs with it to 0, dividing by each pivot entry with
    `divide`.  The newest pivot row goes first: each is zero in the pivot
    columns of the rows before it."""
    for _, col, row in reversed(pivots):
        rest = sum(row[j] * x[j] for j in range(col + 1, len(x)))
        x[col] = divide(-rest, row[col])
    return tuple(x)


def mat_rank(rows) -> int:
    """Rank of a matrix given as an iterable of row vectors."""
    return len(_echelon(rows))


def pivot_columns(rows) -> list[int]:
    """Column indices of pivots after Gaussian elimination."""
    return sorted(col for _, col, _ in _echelon(rows))


def solve_exact(rows, rhs) -> RatVec | None:
    """Solve a (possibly overdetermined) linear system exactly.

    Returns the unique solution, or None when the system is inconsistent:
    when the right-hand side column holds a pivot.  Raises RankDeficient
    when the solution is not unique.  The solution, extended by -1, is the
    kernel vector of the augmented rows that ends in -1.
    """
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not augmented:
        raise RankDeficient("empty system")
    ncols = len(augmented[0]) - 1
    pivots = _echelon(augmented)
    if any(col == ncols for _, col, _ in pivots):
        return None
    if len(pivots) < ncols:
        raise RankDeficient("system is underdetermined")
    return _back_substitute(pivots, [0] * ncols + [-1])[:-1]


def nullspace_covectors(rows, dim: int) -> list[RatVec]:
    """Basis of covectors vanishing on every given vector (rational): one
    per free column, that coordinate 1 and the other free ones 0."""
    pivots = _echelon(rows)
    bound = {col for _, col, _ in pivots}
    basis = []
    for free in (c for c in range(dim) if c not in bound):
        x = [Fraction(0)] * dim
        x[free] = Fraction(1)
        basis.append(_back_substitute(pivots, x))
    return basis


def int_det(rows) -> int:
    """Determinant of a square integer matrix: the last pivot entry of
    :func:`_echelon`, the leading minor in pivot-column order, signed by
    the parity of that order; 0 when the rank is short, 1 when empty."""
    rows = list(rows)
    pivots = _echelon(rows)
    if len(pivots) < len(rows):
        return 0
    cols = [col for _, col, _ in pivots]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    return (-1) ** inversions * (pivots[-1][2][cols[-1]] if pivots else 1)


def integer_kernel_direction(rows) -> IntVec:
    """Primitive integer kernel vector of an (n-1) x n integer matrix.

    Back substitution over the :func:`_echelon` pivots with the free
    coordinate set to the last pivot entry: that vector is, up to sign, the
    one of signed maximal minors (Cramer's rule), so every division is
    exact.  It is then gcd-normalized; callers canonicalize the sign.
    """
    pivots = _echelon(rows)
    if len(pivots) < len(rows):
        raise RankDeficient("rows do not span a hyperplane")
    bound = {col for _, col, _ in pivots}
    x = [0] * (len(rows) + 1)
    free = next(c for c in range(len(x)) if c not in bound)
    x[free] = pivots[-1][2][pivots[-1][1]] if pivots else 1
    prim, _ = normalize_primitive(_back_substitute(pivots, x, floordiv))
    return prim


def simplicial_rays(rows) -> list[IntVec]:
    """Rays of the simplicial cone {y : <row, y> >= 0} of n independent integer
    rows in R^n: ray i spans the kernel of the others, positive on row i."""
    rays = []
    for i, row in enumerate(rows):
        ray = integer_kernel_direction(rows[:i] + rows[i + 1:])
        rays.append(ray if vdot(row, ray) > 0 else vneg(ray))
    return rays


def kernel_normal(generators, dim: int | None = None) -> IntVec:
    """Primitive covector vanishing on all generators, spanning their
    annihilator; sign-canonical (first nonzero coordinate positive).

    Accepts any number of integer vectors whose span has dimension n-1.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise RankDeficient("no generators given")
    n = dim if dim is not None else len(gens[0])
    chosen = independent_rows(gens)
    if len(chosen) != n - 1:
        raise RankDeficient(
            f"generators span dimension {len(chosen)}, expected {n - 1}"
        )
    return sign_canonical(integer_kernel_direction([gens[i] for i in chosen]))


def independent_rows(rows) -> list[int]:
    """Indices of the rows that are independent of the rows before them, in
    the order given: the greedy basis of their span, read off
    :func:`_echelon`."""
    return [i for i, _, _ in _echelon(rows)]


def pairing_one_solution(phi: IntVec) -> IntVec:
    """Integer vector u with <phi, u> = 1, for primitive phi.

    Folds the extended Euclidean algorithm over the coordinates.
    """
    g = 0
    coeffs = [0] * len(phi)
    for i, a in enumerate(phi):
        if a == 0:
            continue
        if g == 0:
            g, x = abs(a), (1 if a > 0 else -1)
            coeffs = [0] * len(phi)
            coeffs[i] = x
            continue
        new_g, x, y = _extended_gcd(g, a)
        coeffs = [x * c for c in coeffs]
        coeffs[i] += y
        g = new_g
        if g == 1:
            break
    if g != 1:
        raise ZeroVector("covector is not primitive")
    return tuple(coeffs)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------

def crossing_rays(rays, zero_sets, products, dim: int) -> list[tuple[IntVec, frozenset]]:
    """Where a hyperplane crosses the edges of a pointed cone in R^dim.

    `rays` are the cone's extreme rays, `zero_sets` the constraints of an
    inequality description of the cone that are tight on each ray, and
    `products` the rays' pairings with the hyperplane's normal.  Two rays on
    opposite sides span an edge when they share at least dim - 2 tight
    constraints and no third ray is tight on all of them (the combinatorial
    adjacency test).  Each crossed edge yields one primitive ray on the
    hyperplane, returned with the edge's common zero set.
    """
    crossings = []
    for a, pa in enumerate(products):
        if pa <= 0:
            continue
        for b, pb in enumerate(products):
            if pb >= 0:
                continue
            common = zero_sets[a] & zero_sets[b]
            if len(common) < dim - 2 or any(
                    common <= z for c, z in enumerate(zero_sets) if c != a and c != b):
                continue
            ra, rb = rays[a], rays[b]
            ray, _ = normalize_primitive(tuple(pa * y - pb * x for x, y in zip(ra, rb)))
            crossings.append((ray, common))
    return crossings


def keep_side(rays, zero_sets, products, crossings,
              row: int) -> tuple[list[IntVec], list[frozenset]]:
    """The rays of a cone cut by the halfspace where `products` (the rays'
    pairings with the cut) are >= 0, with their zero sets: the rays on that
    side and then the `crossings` of :func:`crossing_rays`.  A ray on the
    cut, and every crossing, gains `row`, the cut's index."""
    tight = frozenset((row,))
    kept = [(r, z | tight if p == 0 else z)
            for r, z, p in zip(rays, zero_sets, products) if p >= 0]
    kept += [(r, z | tight) for r, z in crossings]
    return [r for r, _ in kept], [z for _, z in kept]


def double_description(rows, dim: int) -> tuple[list[IntVec], list[frozenset], set[int]]:
    """Extreme rays of the cone {y in R^dim : <row, y> >= 0 for every row}.

    The integer rows must span R^dim, which makes the cone pointed; the cone
    itself may have any dimension, down to {0}.  The pass starts from the
    simplicial cone of the first dim independent rows and intersects it with
    the halfspace of each remaining row in turn, keeping the positive side
    (Fukuda and Prodon, "Double description method revisited", 1996).  Zero
    sets range over every processed row, so the adjacency test of
    :func:`crossing_rays` stays exact when the cone loses dimension.

    Returns the primitive extreme rays, the zero set (row indices) of each,
    and the rows that define facets.  That set is exact for a
    full-dimensional cone: a row that cuts the cone defines a facet, and an
    earlier facet survives a cut exactly when one of its rays lies strictly
    on the kept side.
    """
    basis = independent_rows(rows)
    if len(basis) < dim:
        raise RankDeficient(f"rows span rank {len(basis)} < {dim}; the cone has lineality")
    rays = simplicial_rays([rows[i] for i in basis])
    zero_sets = [frozenset(j for j in basis if j != i) for i in basis]
    facets = set(basis)
    in_basis = set(basis)
    for j, row in enumerate(rows):
        if j in in_basis:
            continue
        products = [vdot(row, r) for r in rays]
        crossings = []
        if any(p < 0 for p in products):
            crossings = crossing_rays(rays, zero_sets, products, dim)
            facets &= {i for p, z in zip(products, zero_sets) if p > 0 for i in z}
            facets.add(j)
        rays, zero_sets = keep_side(rays, zero_sets, products, crossings, j)
    return rays, zero_sets, facets


# ---------------------------------------------------------------------------
# rational polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPolytope:
    """A polytope with exact rational coordinates, in both descriptions.

    ``dimension`` is the ambient dimension; the vertex tuple is deduplicated,
    every listed vertex is extreme, and the order is canonical (sorted).
    ``facets`` are the sorted inequalities ``(normal, offset)``, n . y <= c
    with primitive integer outward normals, on the pivot coordinates of the
    affine hull (see :func:`convex_hull`); ``incidence`` holds,
    per facet, the indices of the vertices on it.  Both come from the
    conversion that made the polytope; :func:`convex_hull` gives them for a
    polytope known by its vertices.
    """

    dimension: int
    vertices: tuple[RatVec, ...]
    facets: tuple[tuple[IntVec, Fraction], ...] = field(compare=False)
    incidence: tuple[frozenset, ...] = field(compare=False)

    def is_empty(self) -> bool:
        return not self.vertices

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def affine_dimension(self) -> int:
        if not self.vertices:
            return -1
        base = self.vertices[0]
        return mat_rank([vsub(v, base) for v in self.vertices[1:]])

    @cached_property
    def _fibres(self):
        """The fibre walk's data (:func:`_fibre_levels`), built once per
        polytope for all the counts of its dilates."""
        return _fibre_levels(self)


def convex_hull(points) -> RationalPolytope:
    """Convex hull of a nonempty set of rational points, with its vertices,
    facets and their incidence.

    The points are projected to the pivot coordinates of their affine hull,
    scaled once to integers by the lcm of all denominators and lifted to
    (p, 1).  One double description pass over the polar cone
    {(c, c0) : c . p + c0 >= 0} gives the facets -c . y <= c0 / lcm as its
    extreme rays, and the rows it keeps as facet-defining are exactly the
    vertices.  Duplicates are merged; interior and non-extreme points are
    dropped.
    """
    pts = sorted(set(ratvec(p) for p in points))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    base = pts[0]
    cols = pivot_columns([vsub(p, base) for p in pts[1:]])
    if not cols:
        return RationalPolytope(len(base), (base,), (), ())
    scaled, mult = common_integer_scale([tuple(p[c] for c in cols) for p in pts])
    rows = [p + (1,) for p in scaled]
    rays, zero_sets, kept = double_description(rows, len(cols) + 1)
    order = sorted(kept)
    index = {i: k for k, i in enumerate(order)}
    facets = sorted((vneg(ray[:-1]), Fraction(ray[-1], mult),
                     frozenset(index[i] for i in z if i in index))
                    for ray, z in zip(rays, zero_sets))
    return RationalPolytope(len(base), tuple(pts[i] for i in order),
                            tuple((n, c) for n, c, _ in facets),
                            tuple(incident for _, _, incident in facets))


def common_integer_scale(points) -> tuple[list[IntVec], int]:
    """Points with int or Fraction coordinates scaled to integers by the
    lcm of all their denominators, and that lcm."""
    mult = lcm(*[x.denominator for p in points for x in p])
    return [tuple(x.numerator * (mult // x.denominator) for x in p) for p in points], mult


def lowest_terms(rows, denominator: int) -> tuple[list[IntVec], int]:
    """Integer rows over a positive denominator, with their common factor out."""
    g = gcd(denominator, *(x for row in rows for x in row))
    return [tuple(x // g for x in row) for row in rows], denominator // g


def lattice_point_count(P: RationalPolytope, m: int, interior: bool = False) -> int:
    """Exact number of integer points in the dilate m * P; with `interior`,
    in its relative interior.

    A fibre walk over the pivot coordinates y_1..y_k of the affine hull of P
    (see :func:`convex_hull`), on the facets of its projections
    (:func:`_fibre_levels`).  An integer prefix y_1..y_{j-1} in the
    projection of m * P to its first j - 1 coordinates bounds y_j to an
    exact integer interval, read off the facets of the projection to the
    first j; interior counts make every inequality strict.  At the last
    level a full-dimensional P adds the length of the interval, and a
    lower-dimensional one keeps the points whose other coordinates, affine
    functions of y on the affine hull, are integers.  All of it runs in
    Python integers, and the work grows with the integer points of the
    projections rather than with their bounding box.
    """
    if P.is_empty():
        return 0
    if m <= 0:
        raise ValueError("dilation factor must be positive")
    if len(P.vertices) == 1:
        point = vscale(m, P.vertices[0])
        return 1 if all(x.denominator == 1 for x in point) else 0
    levels, lift = P._fibres
    strict = 1 if interior else 0
    # A row (c, a, t) of level j bounds a * y_j from above by t - c . prefix
    # when it is an upper bound, and -a * y_j when it is a lower one.
    bounds = [tuple([(c, a, m * r - strict) for c, a, r in rows] for rows in level)
              for level in levels]
    last = len(bounds) - 1

    def walk(j: int, prefix: IntVec) -> int:
        upper, lower = bounds[j]
        hi = min((t - sum(map(mul, c, prefix))) // a for c, a, t in upper)
        lo = -min((t - sum(map(mul, c, prefix))) // a for c, a, t in lower)
        if j < last:
            return sum(walk(j + 1, prefix + (y,)) for y in range(lo, hi + 1))
        if not lift:
            return max(0, hi - lo + 1)
        return sum(1 for y in range(lo, hi + 1)
                   if all((m * e - sum(map(mul, h, prefix + (y,)))) % d == 0
                          for h, e, d in lift))

    return walk(0, ())


def _fibre_levels(P: RationalPolytope):
    """The integer data of the fibre walk of :func:`lattice_point_count`.

    Level j = 1..k holds the facets c . y <= r of the projection of P to its
    first j pivot coordinates: the stored facets of P at level k, the range
    of y_1 at level 1, and the facets of :func:`convex_hull` of the
    projected vertices in between.  Each is
    scaled to integers and kept as (c_1..c_{j-1}, |c_j|, r), an upper bound
    on y_j when c_j > 0 and a lower bound when c_j < 0.  A facet with
    c_j = 0 is dropped: it is valid for the projection one level down, so
    every prefix the walk reaches satisfies it, and strictly when the walk
    keeps to the interior.

    The lift has one congruence (h, e, d) per non-pivot coordinate, whose
    value on the affine hull of m * P is (m e - h . y) / d; it keeps those
    with d > 1, and none for a full-dimensional P.
    """
    base = P.vertices[0]
    dirs = [vsub(v, base) for v in P.vertices[1:]]
    cols = pivot_columns(dirs)
    k = len(cols)
    projected = [tuple(v[c] for c in cols) for v in P.vertices]
    levels = []
    for j in range(1, k + 1):
        if j == k:
            facets = P.facets
        elif j == 1:
            values = [v[0] for v in projected]
            facets = [((1,), max(values)), ((-1,), -min(values))]
        else:
            facets = convex_hull([v[:j] for v in projected]).facets
        upper, lower = [], []
        for normal, offset in facets:
            offset = frac(offset)
            q = offset.denominator
            row = (tuple(q * x for x in normal[:-1]), q * abs(normal[-1]), offset.numerator)
            if normal[-1] > 0:
                upper.append(row)
            elif normal[-1] < 0:
                lower.append(row)
        levels.append((upper, lower))
    # Each covector h of the affine hull has h_c = 1 at its own non-pivot
    # coordinate c and 0 at the others, so x_c = h . base - sum_i h_(cols i) y_i.
    lift = []
    for h in nullspace_covectors(dirs, P.dimension):
        ints, d = clear_denominators(tuple(h[c] for c in cols) + (vdot(h, base),))
        if d > 1:
            lift.append((ints[:-1], ints[-1], d))
    return levels, lift


def euclidean_volume(P: RationalPolytope) -> Fraction:
    """Exact volume in the ambient dimension; 0 for lower-dimensional sets.

    Sums the pyramids from the first vertex over the facets that miss it,
    each facet dissected the same way (:func:`_dissect`), and the simplex
    determinants of the vertices scaled once to integers.
    """
    if P.is_empty() or P.affine_dimension() < P.dimension:
        return Fraction(0)
    n = P.dimension
    pts, mult = common_integer_scale(P.vertices)
    total = 0
    for simplex in _dissect(frozenset(range(len(pts))), P.incidence, n):
        v0 = pts[simplex[0]]
        total += abs(int_det([vsub(pts[i], v0) for i in simplex[1:]]))
    return Fraction(total, mult ** n * factorial(n))


def _dissect(face: frozenset, facets, dim: int) -> list[tuple[int, ...]]:
    """Simplices (vertex index tuples) dissecting a polytope face of
    dimension `dim`, given the vertex sets of its facets.

    Pyramids from the face's lowest vertex over the facets that miss it; a
    facet with `dim` vertices is a simplex, any other is dissected in turn.
    The facets of a facet F are the inclusion-maximal sets F & G over the
    other facets G: each ridge of F lies in exactly one other facet, and
    every other F & G is a smaller face of F.
    """
    apex = min(face)
    simplices = []
    for facet in facets:
        if apex in facet:
            continue
        if len(facet) == dim:
            simplices.append((apex,) + tuple(sorted(facet)))
            continue
        meets = {facet & other for other in facets if other != facet}
        ridges = [r for r in meets if not any(r < s for s in meets)]
        simplices.extend((apex,) + s for s in _dissect(facet, ridges, dim - 1))
    return simplices


def mixed_volume(P: RationalPolytope) -> Fraction:
    """n! times the Euclidean volume, n the ambient dimension."""
    return factorial(P.dimension) * euclidean_volume(P)
