"""Exact rational and integer-lattice arithmetic.

Vectors are plain tuples: integer vectors (lattice points, ray generators,
hyperplane normals) are ``tuple[int, ...]``, rational vectors are
``tuple[Fraction, ...]``.  Everything downstream — fans, divisors, polytopes —
reduces to the handful of primitives in this module, and none of them ever
touches a float.

The arithmetic runs on Python integers wherever it can.  Rank, pivot
columns, linear solves and kernels share one fraction-free elimination
(:func:`_echelon`): each row is cleared of denominators once, eliminated
with integer row operations and kept small by dividing out its gcd; only
the back substitution over the at most n pivot rows uses Fractions.
Determinants use Bareiss elimination, and hyperplane normals come from
signed maximal minors.

A :class:`RationalPolytope` stores only its vertex set.  Facet inequalities
come from the dim-subsets of the vertices, scaled once to a common integer
lattice, so the side tests are integer comparisons; affine hulls,
triangulations and lattice-point counts are recomputed on demand.  The
subset enumeration is exact but grows as C(n, dim), which the intended
scale (dimension <= 4, a few dozen vertices) affords.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

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
    return sum(x * y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


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
    v = tuple(int(x) for x in v)
    if is_zero_vector(v):
        raise ZeroVector("cannot normalize the zero vector")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
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

def _echelon(rows, ncols: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Integer row echelon form by fraction-free forward elimination.

    Each row is scaled once to integers by the positive lcm of its
    denominators.  Elimination then uses integer row operations only, and
    each updated row is divided by the gcd of its entries, so the numbers
    stay small.  Pivots are sought in the first `ncols` columns (default:
    all), which lets a right-hand side ride along in a last column.
    Returns the rows, pivot rows first, and the pivot columns.
    """
    work = [list(clear_denominators(row)[0]) for row in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(work):
            break
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        p = top[col]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                row = [p * x - f * y for x, y in zip(work[r], top)]
                g = gcd(*row)
                work[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return work, pivots


def _back_substitute(echelon, pivots, x: list, rhs=None) -> RatVec:
    """Complete `x`, whose free coordinates are already set, so that pivot
    row r of the echelon form pairs with it to rhs[r] (to 0 without rhs)."""
    n = len(x)
    for r in reversed(range(len(pivots))):
        row, col = echelon[r], pivots[r]
        rest = sum(row[j] * x[j] for j in range(col + 1, n))
        x[col] = Fraction((rhs[r] if rhs is not None else 0) - rest, row[col])
    return tuple(x)


def mat_rank(rows) -> int:
    """Rank of a matrix given as an iterable of row vectors."""
    return len(_echelon(rows)[1])


def pivot_columns(rows) -> list[int]:
    """Column indices of pivots after Gaussian elimination."""
    return _echelon(rows)[1]


def solve_exact(rows, rhs) -> RatVec | None:
    """Solve a (possibly overdetermined) linear system exactly.

    Returns the unique solution, or None when the system is inconsistent.
    Raises RankDeficient when the solution is not unique.
    """
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not augmented:
        raise RankDeficient("empty system")
    ncols = len(augmented[0]) - 1
    echelon, pivots = _echelon(augmented, ncols)
    if any(row[ncols] for row in echelon[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise RankDeficient("system is underdetermined")
    return _back_substitute(echelon, pivots, [0] * ncols,
                            [row[ncols] for row in echelon])


def nullspace_covectors(rows, dim: int) -> list[RatVec]:
    """Basis of covectors vanishing on every given vector (rational): one
    per free column, that coordinate 1 and the other free ones 0."""
    echelon, pivots = _echelon(rows, dim)
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        x = [Fraction(0)] * dim
        x[free] = Fraction(1)
        basis.append(_back_substitute(echelon, pivots, x))
    return basis


def int_det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    mat = [list(map(int, row)) for row in rows]
    n = len(mat)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if mat[r][k] != 0), None)
            if pivot is None:
                return 0
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def det_fraction(rows) -> Fraction:
    """Determinant of a square rational matrix: the integer determinant of
    the rows cleared of denominators, divided by the product of the lcms."""
    scaled = [clear_denominators(row) for row in rows]
    return Fraction(int_det([v for v, _ in scaled]), prod(m for _, m in scaled))


def integer_kernel_direction(rows) -> IntVec:
    """Primitive integer kernel vector of an (n-1) x n integer matrix.

    Computed from signed maximal minors (the generalized cross product),
    then gcd-normalized.  The sign is whatever the minors produce; callers
    canonicalize as needed.
    """
    rows = [tuple(int(x) for x in r) for r in rows]
    n = len(rows) + 1
    coords = []
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows]
        coords.append((-1) ** j * int_det(minor))
    if is_zero_vector(coords):
        raise RankDeficient("rows do not span a hyperplane")
    prim, _ = normalize_primitive(coords)
    return prim


def kernel_normal(generators, dim: int | None = None) -> IntVec:
    """Primitive covector vanishing on all generators, spanning their
    annihilator; sign-canonical (first nonzero coordinate positive).

    Accepts any number of integer vectors whose span has dimension n-1.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise RankDeficient("no generators given")
    n = dim if dim is not None else len(gens[0])
    independent = _independent_subset(gens, n - 1)
    if independent is None:
        raise RankDeficient(
            f"generators span dimension {mat_rank(gens)}, expected {n - 1}"
        )
    return sign_canonical(integer_kernel_direction(independent))


def _independent_subset(vectors, size: int):
    """Greedy selection of `size` linearly independent vectors, or None."""
    chosen = []
    for v in vectors:
        if mat_rank(chosen + [v]) > len(chosen):
            chosen.append(v)
            if len(chosen) == size:
                break
    if len(chosen) != size:
        return None
    if mat_rank(vectors) != size:
        return None
    return chosen


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
# rational polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalPolytope:
    """Vertex representation of a polytope with exact rational coordinates.

    ``dimension`` is the ambient dimension; the vertex tuple is deduplicated,
    every listed vertex is extreme, and the order is canonical (sorted).
    """

    dimension: int
    vertices: tuple[RatVec, ...]

    def is_empty(self) -> bool:
        return not self.vertices

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def affine_dimension(self) -> int:
        if not self.vertices:
            return -1
        base = self.vertices[0]
        return mat_rank([vsub(v, base) for v in self.vertices[1:]])


def convex_hull(points) -> RationalPolytope:
    """Vertex set of the convex hull of a nonempty set of rational points.

    Gift wrapping in (affine) dimension 2; brute-force facet enumeration over
    point subsets in dimension >= 3.  Interior and non-extreme points are
    dropped, duplicates are merged.
    """
    pts = sorted(set(ratvec(p) for p in points))
    if not pts:
        raise ValueError("convex hull of an empty point set")
    ambient = len(pts[0])
    if len(pts) == 1:
        return RationalPolytope(ambient, (pts[0],))
    base = pts[0]
    dirs = [vsub(p, base) for p in pts[1:]]
    adim = mat_rank(dirs)
    if adim == 0:
        return RationalPolytope(ambient, (base,))
    cols = pivot_columns(dirs)
    proj = [tuple(p[c] for c in cols) for p in pts]
    if adim == 1:
        idx = [min(range(len(proj)), key=lambda i: proj[i]),
               max(range(len(proj)), key=lambda i: proj[i])]
    elif adim == 2:
        idx = _hull_indices_2d(proj)
    else:
        idx = _hull_indices_facets(proj, adim)
    return RationalPolytope(ambient, tuple(sorted(pts[i] for i in idx)))


def _hull_indices_2d(pts) -> list[int]:
    """Gift wrapping around a full-dimensional planar point set."""
    start = min(range(len(pts)), key=lambda i: pts[i])
    hull = [start]
    while True:
        cur = hull[-1]
        cand = next(i for i in range(len(pts)) if i != cur)
        for i in range(len(pts)):
            if i == cur or i == cand:
                continue
            a = vsub(pts[cand], pts[cur])
            b = vsub(pts[i], pts[cur])
            cross = a[0] * b[1] - a[1] * b[0]
            if cross < 0 or (cross == 0 and vdot(b, b) > vdot(a, a)):
                cand = i
        if cand == start:
            break
        hull.append(cand)
    return hull


def _hull_indices_facets(pts, dim: int) -> list[int]:
    """Vertices via facet enumeration: a point is extreme iff its active
    facet normals span the full dimension."""
    facets = _facets_of_points(pts, dim)
    vertex_idx = []
    for i, p in enumerate(pts):
        active = [n for n, c in facets if vdot(n, p) == c]
        if len(active) >= dim and mat_rank(active) == dim:
            vertex_idx.append(i)
    return vertex_idx


def _facets_of_points(pts, dim: int) -> list[tuple[IntVec, Fraction]]:
    """Facet inequalities n . x <= c of the hull of a full-dimensional
    point set, with primitive integer outward normals.

    The point set is scaled once to integers by the lcm of all its
    denominators.  Each dim-subset spanning a hyperplane gives a candidate
    normal, and the side tests run on integers.
    """
    scaled = [clear_denominators(p) for p in pts]
    mult = lcm(*[m for _, m in scaled])
    ipts = [tuple(x * (mult // m) for x in v) for v, m in scaled]
    facets = set()
    for subset in itertools.combinations(ipts, dim):
        base = subset[0]
        try:
            normal = integer_kernel_direction([vsub(p, base) for p in subset[1:]])
        except RankDeficient:
            continue
        offset = vdot(normal, base)
        sides = [vdot(normal, p) for p in ipts]
        if max(sides) == offset:
            facets.add((normal, Fraction(offset, mult)))
        elif min(sides) == offset:
            facets.add((vneg(normal), Fraction(-offset, mult)))
    return sorted(facets)


def halfspace_representation(P: RationalPolytope):
    """Exact H-representation of a polytope, split by its affine hull.

    Returns ``(equalities, cols, facets)`` where `equalities` is a list of
    ``(covector, offset)`` pairs cutting out the affine hull, `cols` are the
    pivot coordinates identifying the hull with R^adim, and `facets` are
    ``(normal, offset)`` inequalities (n . y <= c) on the projected polytope.
    """
    if P.is_empty():
        return [], [], []
    base = P.vertices[0]
    dirs = [vsub(v, base) for v in P.vertices[1:]]
    adim = mat_rank(dirs) if dirs else 0
    equalities = []
    for cov in nullspace_covectors(dirs, P.dimension) if adim < P.dimension else []:
        normal = rational_to_primitive(cov)
        equalities.append((normal, frac(vdot(normal, base))))
    cols = pivot_columns(dirs) if adim else []
    proj = [tuple(v[c] for c in cols) for v in P.vertices]
    if adim == 0:
        facets = []
    elif adim == 1:
        lo = min(p[0] for p in proj)
        hi = max(p[0] for p in proj)
        facets = [((-1,), -lo), ((1,), hi)]
    else:
        facets = _facets_of_points(proj, adim)
    return equalities, cols, facets


def lattice_point_count(P: RationalPolytope, m: int) -> int:
    """Exact number of integer points in the dilate m * P.

    Scans the bounding box of the pivot coordinates; the remaining
    coordinates are affine functions of the pivots on the affine hull and
    are checked for integrality.
    """
    if P.is_empty():
        return 0
    if m <= 0:
        raise ValueError("dilation factor must be positive")
    ambient = P.dimension
    if len(P.vertices) == 1:
        point = vscale(m, P.vertices[0])
        return 1 if all(x.denominator == 1 for x in point) else 0
    equalities, cols, facets = halfspace_representation(P)
    base = P.vertices[0]
    dirs = [vsub(v, base) for v in P.vertices[1:]]
    # Affine lift: x = lift_const + lift_lin . y where y are pivot coords.
    lift = _affine_lift(base, dirs, cols, ambient)
    ranges = []
    for k, c in enumerate(cols):
        values = [m * v[c] for v in P.vertices]
        lo, hi = min(values), max(values)
        lo_int = -((-lo.numerator) // lo.denominator)  # ceil
        hi_int = hi.numerator // hi.denominator        # floor
        if lo_int > hi_int:
            return 0
        ranges.append(range(lo_int, hi_int + 1))
    # n . y is an integer, so n . y <= m c iff n . y <= floor(m c).
    limits = [(n, m * c // 1) for n, c in facets]
    count = 0
    for y in itertools.product(*ranges):
        if any(vdot(n, y) > limit for n, limit in limits):
            continue
        if lift is not None and not _lift_is_integral(lift, y, m):
            continue
        count += 1
    return count


def _affine_lift(base, dirs, cols, ambient):
    """Expresses each non-pivot coordinate as an affine function of the
    pivot coordinates on the affine hull; None when the hull is full."""
    if len(cols) == ambient:
        return None
    basis = _independent_subset(dirs, len(cols))
    tmat = [[basis[j][c] for j in range(len(cols))] for c in cols]
    rows = []
    consts = []
    for c in range(ambient):
        if c in cols:
            continue
        # coordinate c of base + sum_j t_j basis_j where T t = (y - base_cols)
        target = [basis[j][c] for j in range(len(cols))]
        coeffs = solve_exact(_transpose(tmat), target)
        const = base[c] - sum(w * base[col] for w, col in zip(coeffs, cols))
        rows.append((c, coeffs))
        consts.append(const)
    return rows, consts


def _transpose(mat):
    return [tuple(row[i] for row in mat) for i in range(len(mat[0]))]


def _lift_is_integral(lift, y, m: int) -> bool:
    rows, consts = lift
    for (c, coeffs), const in zip(rows, consts):
        value = m * const + sum(w * yi for w, yi in zip(coeffs, y))
        if value.denominator != 1:
            return False
    return True


def euclidean_volume(P: RationalPolytope) -> Fraction:
    """Exact volume in the ambient dimension; 0 for lower-dimensional sets.

    Triangulates recursively from a fixed vertex over facet pyramids and
    sums simplex determinants.
    """
    if P.is_empty() or P.affine_dimension() < P.dimension:
        return Fraction(0)
    n = P.dimension
    verts = list(P.vertices)
    total = Fraction(0)
    for simplex in _triangulate(verts, n):
        v0 = verts[simplex[0]]
        edges = [vsub(verts[i], v0) for i in simplex[1:]]
        total += abs(det_fraction(edges))
    return total / factorial(n)


def _triangulate(pts, dim: int):
    """Combinatorial triangulation (index tuples) of a full-dimensional
    vertex set, by pyramids from the first vertex over far facets."""
    if dim == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i])
        hi = max(range(len(pts)), key=lambda i: pts[i])
        return [(lo, hi)]
    facets = _facets_of_points(pts, dim)
    apex = 0
    simplices = []
    for normal, offset in facets:
        if vdot(normal, pts[apex]) == offset:
            continue
        on_facet = [i for i, p in enumerate(pts) if vdot(normal, p) == offset]
        facet_pts = [pts[i] for i in on_facet]
        base = facet_pts[0]
        dirs = [vsub(p, base) for p in facet_pts[1:]]
        cols = pivot_columns(dirs)
        proj = [tuple(p[c] for c in cols) for p in facet_pts]
        for sub in _triangulate(proj, dim - 1):
            simplices.append((apex,) + tuple(on_facet[i] for i in sub))
    return simplices


def mixed_volume(P: RationalPolytope) -> Fraction:
    """n! times the Euclidean volume, n the ambient dimension."""
    return factorial(P.dimension) * euclidean_volume(P)
