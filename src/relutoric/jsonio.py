"""JSON document encoding and decoding.

Exactness forbids JSON floats: rationals travel as integers or as strings
"p/q" with arbitrary precision.  All emitted dictionaries are built in a
fixed key order so serialized reports are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DocumentError, UnsupportedDimension
from .exact_math import RationalPolytope, frac, mat_rank, vdot
from .expressions import parse_and_compile
from .divisor import SupportFunction, support_on_fan
from .fan import Cone, Fan, _assemble_fan, cone_from_rays, validate_fan
from .network import NetworkSpec, ValidatedNetwork, validate


def encode_rational(value: Fraction):
    value = frac(value)
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decode_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise DocumentError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"bad rational {value!r}: {exc}") from exc
    raise DocumentError(f"expected int or 'p/q' string, got {value!r}")


def decode_int(value, what: str) -> int:
    """A JSON integer; booleans, strings and floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return value


def _decode_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{what} must be a list, got {value!r}")
    return value


def encode_vector(vec) -> list:
    return [encode_rational(x) for x in vec]


def decode_vector(values) -> tuple[Fraction, ...]:
    if not isinstance(values, (list, tuple)):
        raise DocumentError(f"expected a list, got {values!r}")
    return tuple(decode_rational(v) for v in values)


def encode_matrix(rows) -> list:
    return [encode_vector(row) for row in rows]


def decode_matrix(rows) -> tuple:
    if not isinstance(rows, list):
        raise DocumentError(f"expected a matrix, got {rows!r}")
    return tuple(decode_vector(row) for row in rows)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

def encode_network(net: ValidatedNetwork) -> dict:
    doc = {
        "architecture": list(net.architecture),
        "layers": [encode_matrix(layer) for layer in net.layers],
    }
    if net.biases is not None:
        doc["biases"] = [encode_vector(vec) for vec in net.biases]
    return doc


def decode_network(doc) -> ValidatedNetwork:
    if not isinstance(doc, dict) or "layers" not in doc:
        raise DocumentError("network document needs a 'layers' key")
    layers = tuple(decode_matrix(layer)
                   for layer in _decode_list(doc["layers"], "layers"))
    if "architecture" in doc:
        arch = tuple(decode_int(n, "architecture width")
                     for n in _decode_list(doc["architecture"], "architecture"))
    else:
        if not layers or not layers[0]:
            raise DocumentError("cannot infer architecture from empty layers")
        arch = (len(layers[0][0]),) + tuple(len(m) for m in layers)
    biases = None
    if doc.get("biases") is not None:
        biases = tuple(decode_vector(vec)
                       for vec in _decode_list(doc["biases"], "biases"))
    return validate(NetworkSpec(arch, layers, biases))


# ---------------------------------------------------------------------------
# fans and supports
# ---------------------------------------------------------------------------

def encode_fan(fan: Fan) -> dict:
    ray_index = {r: i for i, r in enumerate(fan.rays)}
    return {
        "dim": fan.dim,
        "rays": [list(r) for r in fan.rays],
        "cones": [{"rays": [ray_index[r] for r in cone.rays]}
                  for cone in fan.maximal_cones],
        "walls": [
            {
                "generators": [ray_index[g] for g in wall.generators],
                "cones": list(wall.cones),
                "hyperplane": list(wall.normal),
                "provenance": {
                    "kind": wall.kind,
                    "neurons": [list(n) for n in wall.neurons],
                },
            }
            for wall in fan.walls
        ],
    }


def _documented_cones(doc) -> tuple[int, list[Cone]]:
    """Dimension and cones of a fan document, in the document's order."""
    if not isinstance(doc, dict) or "rays" not in doc or "cones" not in doc:
        raise DocumentError("fan document needs 'rays' and 'cones'")
    rays = [tuple(decode_int(x, "ray coordinate") for x in _decode_list(r, "ray"))
            for r in _decode_list(doc["rays"], "rays")]
    if not rays:
        raise DocumentError("fan document has no rays")
    dim = decode_int(doc.get("dim", len(rays[0])), "dim")
    if dim < 2:
        raise UnsupportedDimension(f"fans need ambient dimension >= 2, got {dim}")
    if any(len(r) != dim for r in rays):
        raise DocumentError(f"every ray needs {dim} coordinates")
    cones = []
    for cone_doc in _decode_list(doc["cones"], "cones"):
        idxs = cone_doc.get("rays") if isinstance(cone_doc, dict) else cone_doc
        members = []
        for i in _decode_list(idxs, "cone rays"):
            if not 0 <= decode_int(i, "ray index") < len(rays):
                raise DocumentError(f"cone refers to ray {i}; there are {len(rays)} rays")
            members.append(rays[i])
        cones.append(_proper_cone(cone_from_rays(members, dim), len(cones)))
    return dim, cones


def _proper_cone(cone: Cone, k: int) -> Cone:
    """The documented cone k, which must be full-dimensional and strongly
    convex and list only extreme rays: a ray is extreme when its tight
    facets span a hyperplane."""
    dim = cone.dim
    if mat_rank(cone.rays) < dim:
        raise DocumentError(f"cone {k} is not full-dimensional")
    if mat_rank(cone.halfspaces) < dim:
        raise DocumentError(f"cone {k} contains a line")
    for r in cone.rays:
        if mat_rank([n for n in cone.halfspaces if vdot(n, r) == 0]) < dim - 1:
            raise DocumentError(f"cone {k} lists ray {list(r)}, which is not extreme")
    return cone


def decode_fan(doc) -> Fan:
    return _complete_fan(*_documented_cones(doc))


def _complete_fan(dim: int, cones) -> Fan:
    """The fan of the cones, which must be a complete fan (see
    `validate_fan`)."""
    fan = _assemble_fan(cones, dim, ())
    report = validate_fan(fan)
    if not report.valid:
        problem = "not a fan" if report.complete else "fan is not complete"
        raise DocumentError(f"{problem}: {report.violations[0]}")
    return fan


def decode_support(doc) -> SupportFunction:
    dim, documented = _documented_cones(doc["fan"])
    fan = _complete_fan(dim, documented)
    slope_docs = doc.get("slopes")
    if not isinstance(slope_docs, list) or len(slope_docs) != len(fan.maximal_cones):
        raise DocumentError("need one slope vector per maximal cone")
    # Hand-given cones may be listed in any order; match by containment of
    # each canonical cone's interior point in the documented cone.
    slopes = []
    for cone in fan.maximal_cones:
        probe = cone.interior_point()
        position = next((i for i, d in enumerate(documented) if d.contains(probe)),
                        None)
        if position is None:
            raise DocumentError("documented cones do not cover the fan")
        slopes.append(decode_vector(slope_docs[position]))
    return support_on_fan(fan, slopes)


def decode_function(doc) -> SupportFunction:
    """A function document: {"dim": n, "expr": ...} or {"dim", "fan", "slopes"}."""
    if not isinstance(doc, dict):
        raise DocumentError("function document must be an object")
    if "expr" in doc:
        dim = decode_int(doc.get("dim", 0), "dim")
        if dim < 1:
            raise DocumentError("function document needs a positive 'dim'")
        if not isinstance(doc["expr"], str):
            raise DocumentError(f"'expr' must be a string, got {doc['expr']!r}")
        return parse_and_compile(doc["expr"], dim)
    if "fan" in doc:
        return decode_support(doc)
    raise DocumentError("function document needs 'expr' or 'fan'+'slopes'")


def encode_polytope(P: RationalPolytope) -> dict:
    return {
        "dimension": P.dimension,
        "vertices": [encode_vector(v) for v in P.vertices],
        "empty": P.is_empty(),
    }
