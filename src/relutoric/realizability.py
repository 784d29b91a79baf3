"""Deciding shallow realizability of homogeneous piecewise linear functions.

A homogeneous CPWL function is computable by an unbiased one-hidden-layer
rational network iff, after extending its bend locus to full central
hyperplanes, the wall bends are constant along each hyperplane.  The check
is exact; on success, explicit integer first-layer rows and rational output
weights are synthesized (one neuron per bend hyperplane, function recovered
up to an explicit linear correction).

The criterion fan is the arrangement of the extended bend hyperplanes, and
the function is linear on each of its cells.  When the function's own fan
already is that arrangement (a generic shallow net) it is reused with its
slopes.  Otherwise each cell, keyed by its signs on those hyperplanes,
takes the slope of a cone whose interior point has the same signs: the
slope point location would find (`transfer_support`).

Verification runs on the criterion fan: its hyperplanes are the synthesized
net's own first-layer rows (plus zero-bend coordinate hyperplanes), so it
refines the net's activation regions and the net's slopes are read off its
cones directly.  `verify_up_to_linear` compares a function with any net on
a common refinement and stays the reference for nets of other origin.

`analyze` is the one realize pipeline (criterion, synthesis, verification),
and the CLI's `realize` reports what it returns.  A synthesized net that
fails verification is reported in `Synthesis.verified`, not raised.

Every entry point takes the function as a `SupportFunction`; a network
becomes one through `divisor.support_of_network` before it gets here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction

from .errors import CriterionFailed, DimensionMismatch
from .exact_math import IntVec, RatVec, vdot, vscale, vsub
from .fan import (
    EXTENDED,
    Fan,
    Hyperplane,
    _assemble_fan,
    _augmented,
    augmented_central_fan,
    central_fan,
    cone_containing,
    wall_groups,
)
from .divisor import (
    SupportFunction,
    extract_support,
    support_of_network,
    wall_numbers,
)
from .network import ValidatedNetwork, shallow_network


@dataclass(frozen=True)
class HyperplaneGroup:
    """All walls inside one extended hyperplane, with their bends."""

    normal: IntVec
    walls: tuple[tuple[IntVec, ...], ...]
    numbers: tuple[Fraction, ...]

    @property
    def passes(self) -> bool:
        return all(n == self.numbers[0] for n in self.numbers)


@dataclass(frozen=True)
class Synthesis:
    """Shallow network plus the linear correction g with f = f_net + g, and
    whether verification confirmed that equation."""

    network: ValidatedNetwork
    correction_slope: RatVec
    verified: bool


@dataclass(frozen=True)
class RealizabilityReport:
    """`refined` is the function transferred onto the criterion fan, kept so
    that a net is synthesized and verified without building another fan."""

    groups: tuple[HyperplaneGroup, ...]
    refined: SupportFunction = field(compare=False)
    synthesis: Synthesis | None = None

    @cached_property
    def witness(self) -> HyperplaneGroup | None:
        """The first group whose walls carry unequal numbers."""
        return next((g for g in self.groups if not g.passes), None)

    @property
    def realizable(self) -> bool:
        return self.witness is None


def transfer_support(s: SupportFunction, fan: Fan) -> SupportFunction:
    """Re-express s on a central fan that refines it up to zero-bend walls.

    `fan` must be the arrangement of its own `hyperplanes`, so a cell is
    keyed by the signs of its interior point on their normals.  A cone of s
    whose interior point lies off every hyperplane shares that point with
    one cell, and s is linear on the cell, so the cone's slope is the one
    point location would find there; a cell no cone reaches is located
    (`cone_containing`)."""
    normals = [h.normal for h in fan.hyperplanes]
    table = {}
    for cone, covector in zip(s.fan.maximal_cones, s.covectors):
        products = [vdot(n, cone.interior_point()) for n in normals]
        if all(products):
            table[tuple(p > 0 for p in products)] = covector
    covectors = []
    for cone in fan.maximal_cones:
        probe = cone.interior_point()
        covector = table.get(tuple(vdot(n, probe) > 0 for n in normals))
        if covector is None:
            covector = s.covectors[cone_containing(s.fan, probe)]
        covectors.append(covector)
    return SupportFunction(fan, tuple(covectors), s.denominator)


def nonlinear_locus_hyperplanes(s: SupportFunction) -> tuple[Hyperplane, ...]:
    """Span hyperplanes of the walls where the function actually bends,
    ordered by sign-canonical normal.

    A wall bends exactly when its two cones carry different slopes: on a
    continuous support its `intersection_number` is the c of
    m_sigma - m_sigma' = c * phi, which is nonzero iff the slopes differ.
    """
    normals = {wall.normal for wall in s.fan.walls
               if s.covectors[wall.cones[0]] != s.covectors[wall.cones[1]]}
    return tuple(Hyperplane(n, EXTENDED) for n in sorted(normals))


def criterion_fan(s: SupportFunction) -> SupportFunction:
    """s transferred onto the central fan of the extended bend hyperplanes
    (synthetically augmented when rank-deficient).  When every wall of
    s.fan lies on one of them and none crosses a cone of s.fan (has rays on
    both sides), each cone is a cell: s.fan's cones, reassembled with the
    hyperplanes, are the arrangement's, each with its slope."""
    dim = s.fan.dim
    planes = _augmented(nonlinear_locus_hyperplanes(s), dim)
    normals = {h.normal for h in planes}
    products = ([vdot(n, r) for r in cone.rays] for cone in s.fan.maximal_cones for n in normals)
    if all(w.normal in normals for w in s.fan.walls) and not any(
            min(p) < 0 < max(p) for p in products):
        fan, order = _assemble_fan(s.fan.maximal_cones, dim, planes)
        return SupportFunction(fan, tuple(s.covectors[i] for i in order), s.denominator)
    return transfer_support(s, central_fan(planes, dim))


def hyperplane_groups(fan: Fan, numbers) -> tuple[HyperplaneGroup, ...]:
    """The walls of `fan` by hyperplane (`wall_groups`), each with its walls'
    entries of `numbers`, one per wall of the fan as `wall_numbers` gives."""
    return tuple(HyperplaneGroup(normal,
                                 tuple(fan.walls[i].generators for i in indices),
                                 tuple(numbers[i] for i in indices))
                 for normal, indices in wall_groups(fan))


def criterion_check(s: SupportFunction) -> RealizabilityReport:
    """Wall-number criterion: realizable iff every extended hyperplane sees
    one single bend value across all of its walls.  Synthetic augmentation
    walls carry zero bend and are excluded from the groups."""
    refined = criterion_fan(s)
    extended = {h.normal for h in refined.fan.hyperplanes if h.kind == EXTENDED}
    groups = tuple(g for g in hyperplane_groups(refined.fan, wall_numbers(refined))
                   if g.normal in extended)
    return RealizabilityReport(groups, refined)


def synthesize_shallow(report: RealizabilityReport) -> ValidatedNetwork:
    """Explicit shallow network from a passing criterion report: first-layer
    rows are the sign-canonical hyperplane normals, output weights are the
    negated common wall numbers.  A function with no bends is linear: the
    net then has an empty hidden layer."""
    if not report.realizable:
        raise CriterionFailed(
            f"hyperplane {report.witness.normal} has unequal wall numbers "
            f"{sorted(set(report.witness.numbers))}")
    return shallow_network(report.refined.fan.dim, [g.normal for g in report.groups],
                           [-g.numbers[0] for g in report.groups])


def common_refinement(supports) -> list[SupportFunction]:
    """Transfer several supports onto the central fan of the union of all
    their wall hyperplanes (augmented if necessary).  Raises
    DimensionMismatch when the supports live in different dimensions."""
    dims = sorted({s.fan.dim for s in supports})
    if len(dims) > 1:
        raise DimensionMismatch(f"supports have dimensions {dims}, expected one")
    fan = augmented_central_fan(
        [Hyperplane(wall.normal, EXTENDED) for s in supports for wall in s.fan.walls],
        dims[0])
    return [transfer_support(s, fan) for s in supports]


def _linear_difference(f: SupportFunction, g: SupportFunction) -> tuple[bool, RatVec]:
    """Whether two supports on one fan differ by a linear function: the
    slope difference on the first cone, asserted on every other cone, in
    the integers b * m - a * n for covectors m / a of f and n / b of g."""
    a, b = f.denominator, g.denominator
    cross = [vsub(vscale(b, m), vscale(a, n)) for m, n in zip(f.covectors, g.covectors)]
    return all(c == cross[0] for c in cross), tuple(Fraction(x, a * b) for x in cross[0])


def verify_up_to_linear(f: SupportFunction, net: ValidatedNetwork) -> tuple[bool, RatVec]:
    """Exact comparison of a function and a network modulo linear terms.

    Fits g as the slope difference on one maximal cone of a common
    refinement, then asserts the same difference on every other cone.
    """
    return _linear_difference(*common_refinement([f, support_of_network(net)]))


def verify_synthesis(report: RealizabilityReport,
                     net: ValidatedNetwork) -> tuple[bool, RatVec]:
    """`verify_up_to_linear` for the net synthesized from `report`, on the
    criterion fan the report already holds.  That fan is cut by every
    first-layer row of the net, so the net is linear on each of its cones
    and `extract_support` reads its slopes there."""
    f = report.refined
    return _linear_difference(f, extract_support(net, f.fan))


def analyze(s: SupportFunction) -> RealizabilityReport:
    """criterion_check plus synthesis and verification when realizable.

    This is the pipeline the CLI's `realize` reports.  A net that fails
    verification is returned with `synthesis.verified` false, not raised."""
    report = criterion_check(s)
    if not report.realizable:
        return report
    net = synthesize_shallow(report)
    ok, correction = verify_synthesis(report, net)
    return replace(report, synthesis=Synthesis(net, correction, ok))
