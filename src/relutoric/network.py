"""Feedforward ReLU networks with exact rational weights.

A network of architecture (n0, n1, ..., nk; 1) is a chain of k+1 rational
matrices; the forward pass alternates matrix application with coordinatewise
max{0, .} and applies no activation on the last layer.  Biases are optional
and only the affine-shift construction ever produces them; everything in the
toric pipeline requires them absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadNeuronId, Biased, DimensionMismatch, NotShallow, ShapeMismatch
from .exact_math import (
    IntVec,
    RatVec,
    clear_denominators,
    common_integer_scale,
    frac,
    is_zero_vector,
    normalize_primitive,
    rational_to_primitive,
    ratvec,
    vdot,
)

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class NeuronId:
    """Coordinates of a neuron: layer in 1..k+1, 1-based row index."""

    layer: int
    index: int


@dataclass(frozen=True)
class NetworkSpec:
    """Raw architecture plus weight data, prior to validation."""

    architecture: tuple[int, ...]        # (n0, n1, ..., nk, 1)
    layers: tuple[Matrix, ...]           # k+1 matrices, L_i of shape n_i x n_{i-1}
    biases: tuple[RatVec, ...] | None = None


@dataclass(frozen=True)
class ValidatedNetwork:
    """A NetworkSpec whose shape chain has been verified and whose entries
    are in canonical rational form."""

    architecture: tuple[int, ...]
    layers: tuple[Matrix, ...]
    biases: tuple[RatVec, ...] | None = None

    @property
    def input_dim(self) -> int:
        return self.architecture[0]

    @property
    def hidden_layers(self) -> int:
        return len(self.architecture) - 2

    @property
    def is_unbiased(self) -> bool:
        if self.biases is None:
            return True
        return all(all(b == 0 for b in vec) for vec in self.biases)


def network(layers, biases=None) -> ValidatedNetwork:
    """Build and validate a network directly from nested weight lists."""
    mats = tuple(tuple(ratvec(row) for row in layer) for layer in layers)
    if not mats or not mats[0]:
        raise ShapeMismatch(1, "network needs at least one nonempty layer")
    arch = (len(mats[0][0]),) + tuple(len(m) for m in mats)
    b = None
    if biases is not None:
        b = tuple(ratvec(vec) for vec in biases)
    return validate(NetworkSpec(arch, mats, b))


def shallow_network(dim: int, rows, weights) -> ValidatedNetwork:
    """The unbiased network (dim, len(rows); 1) with these first-layer rows
    and output weights; no rows give the empty hidden layer."""
    return validate(NetworkSpec((dim, len(rows), 1), (tuple(rows), (tuple(weights),))))


def validate(spec: NetworkSpec) -> ValidatedNetwork:
    """Verify the shape chain and canonicalize all rational entries."""
    arch = tuple(int(n) for n in spec.architecture)
    if len(arch) < 3:
        raise ShapeMismatch(0, "architecture needs at least (n0, n1; 1)")
    if arch[-1] != 1:
        raise ShapeMismatch(len(arch) - 1, "output width must be 1")
    if any(n < 0 for n in arch) or arch[0] < 1:
        raise ShapeMismatch(0, f"invalid widths {arch}")
    if len(spec.layers) != len(arch) - 1:
        raise ShapeMismatch(0, f"expected {len(arch) - 1} layers, got {len(spec.layers)}")
    layers = []
    for i, layer in enumerate(spec.layers, start=1):
        rows = tuple(tuple(frac(x) for x in row) for row in layer)
        if len(rows) != arch[i]:
            raise ShapeMismatch(i, f"expected {arch[i]} rows, got {len(rows)}")
        for row in rows:
            if len(row) != arch[i - 1]:
                raise ShapeMismatch(i, f"row length {len(row)} != {arch[i - 1]}")
        layers.append(rows)
    biases = None
    if spec.biases is not None:
        if len(spec.biases) != len(layers):
            raise ShapeMismatch(
                0, f"expected {len(layers)} bias vectors, got {len(spec.biases)}")
        biases = []
        for i, vec in enumerate(spec.biases, start=1):
            vec = ratvec(vec)
            if len(vec) != arch[i]:
                raise ShapeMismatch(i, f"bias length {len(vec)} != {arch[i]}")
            biases.append(vec)
        biases = tuple(biases)
    return ValidatedNetwork(arch, tuple(layers), biases)


def _apply_layer(net: ValidatedNetwork, i: int, x: RatVec) -> RatVec:
    """Pre-activation output of layer i (1-based) on input x."""
    rows = net.layers[i - 1]
    out = [vdot(row, x) for row in rows]
    if net.biases is not None:
        out = [v + b for v, b in zip(out, net.biases[i - 1])]
    return tuple(out)


def _relu(v: RatVec) -> RatVec:
    zero = Fraction(0)
    return tuple(x if x > 0 else zero for x in v)


def evaluate(net: ValidatedNetwork, x) -> Fraction:
    """Exact forward pass; no activation on the last layer."""
    return neuron_value(net, NeuronId(len(net.layers), 1), x)


def cleared_layers(net: ValidatedNetwork) -> tuple[tuple[tuple[IntVec, ...], ...], int]:
    """Each layer's matrix scaled by the positive lcm of its denominators,
    and the product of those scales.

    ReLU commutes with positive scaling, so the integer network computes
    the product times the original function, and every pre-activation keeps
    its sign.
    """
    layers = []
    scale = 1
    for layer in net.layers:
        rows, mult = common_integer_scale(layer)
        layers.append(tuple(rows))
        scale *= mult
    return tuple(layers), scale


def pull_back(layers, probe: IntVec, depth: int) -> list[list[int]]:
    """Rows of `layers[depth]` as integer covectors of the input on the
    activation region of an integer probe.

    `layers` are integer matrices, as `cleared_layers` gives them.  One
    forward pass through the layers before `depth` records the activation
    pattern at the probe (a neuron is active when its pre-activation is
    > 0); each row is then pulled back through the active rows.  Any probe
    inside a cone on which every earlier neuron keeps one sign reads the
    same pattern, so the rows are that cone's linear functionals.
    """
    x = probe
    passes = []
    for layer in layers[:depth]:
        pre = [vdot(row, x) for row in layer]
        passes.append((layer, [p > 0 for p in pre], len(x)))
        x = [p if p > 0 else 0 for p in pre]
    covectors = [list(row) for row in layers[depth]]
    for layer, active, width in reversed(passes):
        pulled_rows = []
        for covector in covectors:
            pulled = [0] * width
            for c, row, on in zip(covector, layer, active):
                if on and c:
                    for j, w in enumerate(row):
                        pulled[j] += c * w
            pulled_rows.append(pulled)
        covectors = pulled_rows
    return covectors


def linear_piece(layers, probe: IntVec) -> IntVec:
    """Integer row of the network's linear piece at an integer probe: the
    output row pulled back there (:func:`pull_back`).  `layers` are the
    cleared layers of `cleared_layers(net)`, and the slope is this row over
    their scale."""
    return tuple(pull_back(layers, probe, len(layers) - 1)[0])


def neuron_value(net: ValidatedNetwork, neuron: NeuronId, x) -> Fraction:
    """Post-activation value of a hidden neuron at x (pre-activation for the
    output neuron)."""
    x = ratvec(x)
    if len(x) != net.input_dim:
        raise DimensionMismatch(f"point has dimension {len(x)}, expected {net.input_dim}")
    nlayers = len(net.layers)
    if not 1 <= neuron.layer <= nlayers:
        raise BadNeuronId(f"layer {neuron.layer} outside 1..{nlayers}")
    if not 1 <= neuron.index <= net.architecture[neuron.layer]:
        raise BadNeuronId(f"index {neuron.index} outside layer {neuron.layer}")
    for i in range(1, neuron.layer):
        x = _relu(_apply_layer(net, i, x))
    pre = frac(_apply_layer(net, neuron.layer, x)[neuron.index - 1])
    if neuron.layer == nlayers:
        return pre
    return pre if pre > 0 else Fraction(0)


def reduce_shallow(net: ValidatedNetwork) -> ValidatedNetwork:
    """Normal form of a shallow unbiased network.

    Deletes zero rows and writes every other row as lam * prim, prim its
    primitive integer row and lam > 0.  Rows with the same prim (positively
    parallel rows) become one neuron at the place of the first of them,
    whose output weight is the sum of their weights times their lam.  The
    computed function is unchanged; when every row is zero it is the zero
    function, with an empty hidden layer.
    """
    if net.hidden_layers != 1:
        raise NotShallow(f"architecture {net.architecture} has depth != 2")
    if not net.is_unbiased:
        raise Biased("reduction is defined for unbiased networks")
    merged: dict[IntVec, Fraction] = {}
    for row, weight in zip(net.layers[0], net.layers[1][0]):
        if is_zero_vector(row):
            continue
        ints, mult = clear_denominators(row)
        prim, g = normalize_primitive(ints)
        merged[prim] = merged.get(prim, 0) + weight * Fraction(g, mult)
    return shallow_network(net.input_dim, list(merged), list(merged.values()))


def is_reduced(net: ValidatedNetwork) -> bool:
    """Structural check of the normal form: shallow and unbiased, every row
    nonzero and equal to its primitive integer row, no two rows equal."""
    if net.hidden_layers != 1 or not net.is_unbiased:
        return False
    rows = net.layers[0]
    return (all(not is_zero_vector(row) and row == rational_to_primitive(row)
                for row in rows)
            and len(set(rows)) == len(rows))


def affine_shift(net: ValidatedNetwork, slope, constant=0) -> ValidatedNetwork:
    """Network of identical depth computing f + g for g(x) = slope.x + c.

    Two extra channels per hidden layer carry max{0, g} and max{0, -g};
    the output layer recombines them with weights (+1, -1).  With c = 0 an
    unbiased input stays unbiased.
    """
    slope = ratvec(slope)
    constant = frac(constant)
    if len(slope) != net.input_dim:
        raise DimensionMismatch(
            f"shift slope has dimension {len(slope)}, expected {net.input_dim}")
    k = net.hidden_layers
    zero = Fraction(0)
    neg_slope = tuple(-x for x in slope)

    first = tuple(net.layers[0]) + (slope, neg_slope)
    layers = [first]
    for i in range(2, k + 1):
        old = net.layers[i - 1]
        width = len(old[0])
        rows = [row + (zero, zero) for row in old]
        rows.append(tuple([zero] * width) + (Fraction(1), zero))
        rows.append(tuple([zero] * width) + (zero, Fraction(1)))
        layers.append(tuple(rows))
    last = net.layers[k][0]
    layers.append((last + (Fraction(1), Fraction(-1)),))

    keep_biases = net.biases is not None or constant != 0
    biases = None
    if keep_biases:
        base = net.biases
        if base is None:
            base = tuple(tuple([zero] * net.architecture[i + 1])
                         for i in range(k + 1))
        biases = [base[0] + (constant, -constant)]
        for i in range(1, k):
            biases.append(base[i] + (zero, zero))
        biases.append(base[k])
        biases = tuple(biases)
    return network(layers, biases)
