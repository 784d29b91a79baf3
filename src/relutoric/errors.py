"""Exception types shared across the package.

Every domain error derives from RelutoricError so the command line layer can
map any contract violation to a single exit code.
"""


class RelutoricError(Exception):
    """Base class for all domain errors raised by this package."""


# exact_math
class ZeroVector(RelutoricError):
    """A nonzero vector was required."""


class RankDeficient(RelutoricError):
    """Input vectors do not span the required dimension."""


# network
class ShapeMismatch(RelutoricError):
    """Layer matrices do not chain; carries the offending layer index."""

    def __init__(self, layer: int, message: str):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer


class DimensionMismatch(RelutoricError):
    """A point or functional has the wrong ambient dimension."""


class BadNeuronId(RelutoricError):
    """Neuron coordinates outside the architecture."""


class NotShallow(RelutoricError):
    """Operation requires a single hidden layer."""


class Biased(RelutoricError):
    """Operation requires an unbiased network."""


# fan
class NotEssential(RelutoricError):
    """Hyperplane normals do not span the ambient space, so the induced
    complex has a lineality space and is only a generalized fan."""


# divisor
class SingularSample(RelutoricError):
    """Interior sample points failed to determine a unique slope."""


class ContinuityViolation(RelutoricError):
    """Slope data disagrees across a wall; internal consistency guard."""


class InconsistentRayValue(RelutoricError):
    """Two maximal cones assign different coefficients to a shared ray."""


class NotQCartier(RelutoricError):
    """No per-cone slope solves the ray equations; carries the cone index."""

    def __init__(self, cone: int, message: str = ""):
        super().__init__(message or f"divisor is not Q-Cartier on cone {cone}")
        self.cone = cone


class NotConvexFunction(RelutoricError):
    """Newton polytope requested for a non-convex piecewise linear function."""


class NotLatticePolytope(RelutoricError):
    """Operation requires integer vertex coordinates."""


# realizability
class CriterionFailed(RelutoricError):
    """Synthesis requested although the wall-number criterion fails."""


# expression parsing
class ParseError(RelutoricError):
    """Syntax error; carries the byte offset of the failure."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"at offset {offset}: {message}")
        self.offset = offset


class UnknownVariable(RelutoricError):
    """Variable index outside the declared dimension."""


class InhomogeneousConstant(RelutoricError):
    """A nonzero constant would break positive homogeneity."""


# fan, rendering
class UnsupportedDimension(RelutoricError):
    """The operation is not defined in this ambient dimension: central fans
    need dimension >= 2, and rendering is only implemented in dimension 2."""


# cli
class DocumentError(RelutoricError):
    """Malformed input document."""
