"""Independent checks of CLI reports.

Nothing here imports the package: the forward pass, the expression values,
determinants and binomials are computed from the job's document with
``fractions.Fraction`` alone, so an oracle cannot share a defect with the
routine it checks.  Each check returns None when the report agrees, or a
one-line description of the disagreement.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def net_function(doc):
    """Exact forward pass of a network document: ReLU between layers, none
    on the output."""
    layers = [[[Fraction(x) for x in row] for row in layer] for layer in doc["layers"]]

    def value(x):
        x = [Fraction(v) for v in x]
        for layer in layers[:-1]:
            x = [max(Fraction(0), _dot(row, x)) for row in layer]
        return _dot(layers[-1][0], x)
    return value


def expression_function(oracle):
    """Value of sum c * max(form . x) + linear . x, from the structure the
    corpus generated the expression text from."""
    terms = oracle["terms"]
    linear = oracle["linear"]

    def value(x):
        x = [Fraction(v) for v in x]
        total = _dot(linear, x)
        for coeff, forms in terms:
            total += coeff * max(_dot(f, x) for f in forms)
        return total
    return value


def function_of(job):
    if "terms" in job.oracle:
        return expression_function(job.oracle)
    return net_function(job.doc)


def _det(rows) -> Fraction:
    """Determinant by exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _rng(job) -> random.Random:
    return random.Random(f"oracle/{job.key}")


def _random_point(rng, dim):
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(dim)]


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def zaslavsky(job, report):
    """A generic central arrangement of N hyperplanes in R^d has
    2 * sum_{i<d} C(N-1, i) regions; a shallow net with generic rows has that
    many maximal cones."""
    rows = job.doc["layers"][0]
    d, n = len(rows[0]), len(rows)
    if any(_det(sub) == 0 for sub in itertools.combinations(rows, d)):
        return None                     # not generic: the count does not apply
    expected = 2 * sum(math.comb(n - 1, i) for i in range(d))
    found = len(report["cones"]) if "cones" in report else len(report["slopes"])
    if found != expected:
        return f"{found} cones, Zaslavsky gives {expected}"
    return None


def cartier(job, report):
    """Divisor reports: a_rho = -f(rho) on every ray, and at random points
    f(x) is the pairing of x with one of the reported slopes."""
    f = function_of(job)
    for ray, a in zip(report["rays"], report["ray_coefficients"]):
        if Fraction(a) != -f(ray):
            return f"ray {ray}: coefficient {a}, but -f(ray) = {-f(ray)}"
    slopes = [[Fraction(x) for x in m] for m in report["slopes"]]
    rng = _rng(job)
    for _ in range(8):
        x = _random_point(rng, len(slopes[0]))
        if f(x) not in {_dot(m, x) for m in slopes}:
            return f"f({x}) = {f(x)} matches no reported slope"
    return None


def bend_oracle(value_at, generators, lift, dim) -> Fraction:
    """Second-difference bend of a function across a wall, per unit step of
    the quotient lattice, measured from exact values only.

    Adapted from the test suite's oracle of the same name, which needs fan
    objects to keep its probes inside the wall's two incident cones.  Here
    the probes sit at p +- eps * u with p the sum of the wall's generators
    and u the report's lattice lift.  Every other facet of the two cones has
    an integer normal n with n . p >= 1, so a step of eps = 2^-40 cannot
    cross it for any coordinates this corpus produces; the bend must read
    the same at eps / 2, or the check is void.
    """
    p = [Fraction(sum(g[i] for g in generators)) for i in range(dim)]
    u = [Fraction(x) for x in lift]

    def bend(eps):
        plus = [a + eps * b for a, b in zip(p, u)]
        minus = [a - eps * b for a, b in zip(p, u)]
        return -(value_at(plus) + value_at(minus) - 2 * value_at(p)) / eps

    eps = Fraction(1, 2 ** 40)
    measured = bend(eps)
    if bend(eps / 2) != measured:
        raise ArithmeticError("bend differs at eps and eps/2")
    return measured


def bend(job, report):
    """Intersect reports: every wall number equals the value-based bend."""
    f = function_of(job)
    dim = len(job.doc["layers"][0][0])
    for i, wall in enumerate(report["walls"]):
        measured = bend_oracle(f, wall["generators"], wall["lift"], dim)
        if measured != Fraction(wall["number"]):
            return f"wall {i}: number {wall['number']}, bend oracle {measured}"
    return None


def zonotope(job, report):
    """A shallow net with nonnegative output weights has the zonotope
    sum w_i [0, a_i] as Newton polytope; its normalised volume is
    n! * sum over n-subsets S of |det(w_S a_S)|."""
    rows = job.doc["layers"][0]
    weights = job.doc["layers"][1][0]
    gens = [[Fraction(w) * Fraction(x) for x in row] for row, w in zip(rows, weights)]
    n = len(gens[0])
    volume = sum(abs(_det(sub)) for sub in itertools.combinations(gens, n))
    expected = math.factorial(n) * volume
    if Fraction(report["newton_volume"]) != expected:
        return f"newton_volume {report['newton_volume']}, zonotope gives {expected}"
    return None


def synthesis(job, report):
    """Realize reports with a synthesis: f(x) = net(x) + g . x at random
    points, g the reported linear correction."""
    if report.get("synthesis") is None:
        return None
    f = function_of(job)
    net = net_function(report["synthesis"]["network"])
    slope = [Fraction(x) for x in report["synthesis"]["linear_correction"]["slope"]]
    rng = _rng(job)
    for _ in range(8):
        x = _random_point(rng, len(slope))
        if f(x) != net(x) + _dot(slope, x):
            return f"f({x}) = {f(x)} but synthesized + correction = {net(x) + _dot(slope, x)}"
    return None


CHECKS = {"zaslavsky": zaslavsky, "cartier": cartier, "bend": bend,
          "zonotope": zonotope, "synthesis": synthesis}


def check(job, report: dict) -> list[tuple[str, str]]:
    """(oracle, disagreement) pairs for every oracle the job names."""
    out = []
    for name, fn in CHECKS.items():
        if job.oracle.get(name):
            try:
                problem = fn(job, report)
            except ArithmeticError as exc:
                problem = f"oracle could not decide: {exc}"
            if problem is not None:
                out.append((name, problem))
    return out
