"""Exact toric and tropical invariants of unbiased ReLU networks.

The pipeline: a rational-weight unbiased feedforward ReLU network determines
a complete central fan (its canonical polyhedral complex), the network's
output function is the support function of a Q-Cartier divisor on that fan,
and the bends of the function across walls are intersection numbers with the
invariant wall curves.  On top of this sit Newton polytopes, lattice-point
volumes, and an exact decision procedure (with synthesis) for realizability
by shallow unbiased networks.
"""

from .exact_math import (
    RationalPolytope,
    convex_hull,
    euclidean_volume,
    kernel_normal,
    lattice_point_count,
    mixed_volume,
    normalize_primitive,
)
from .network import (
    NetworkSpec,
    NeuronId,
    ValidatedNetwork,
    affine_shift,
    evaluate,
    network,
    neuron_value,
    reduce_shallow,
    validate,
)
from .fan import (
    Cone,
    Fan,
    Hyperplane,
    Wall,
    build_relu_fan,
    central_fan,
    cone_containing,
    validate_fan,
)
from .divisor import (
    SupportFunction,
    ToricDivisor,
    classify_convexity,
    divisor_coefficients,
    ehrhart_volume_estimate,
    extract_support,
    intersection_number,
    line_bundle_volume,
    newton_polytope,
    polytope_of_divisor,
    support_from_divisor,
    support_of_network,
    wall_curve,
)
from .realizability import (
    RealizabilityReport,
    analyze,
    criterion_check,
    nonlinear_locus_hyperplanes,
    synthesize_shallow,
    verify_up_to_linear,
)
from .expressions import compile_expression, format_expression, parse_expression
from .svg import render_fan_svg

__version__ = "0.1.0"
