import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relutoric.errors import BadNeuronId, Biased, DimensionMismatch, NotShallow, ShapeMismatch
from relutoric.network import (
    NetworkSpec,
    NeuronId,
    affine_shift,
    evaluate,
    is_reduced,
    network,
    neuron_value,
    reduce_shallow,
    validate,
)
from relutoric.jsonio import encode_network
from conftest import GOLDEN_LAYERS, rand_point, rand_rational
from conftest import weights as small_rationals


class TestValidate:
    def test_golden_network(self, golden_net):
        assert golden_net.architecture == (2, 3, 1, 1)
        assert golden_net.is_unbiased

    def test_bad_row_length(self):
        spec = NetworkSpec((2, 3, 1, 1),
                           (((F(0), F(1)), (F(0), F(-1)), (F(1), F(-1))),
                            ((F(1), F(-1)),),  # row too short
                            ((F(1),),)))
        with pytest.raises(ShapeMismatch) as err:
            validate(spec)
        assert err.value.layer == 2

    def test_empty_layer_list(self):
        with pytest.raises(ShapeMismatch):
            validate(NetworkSpec((2,), ()))

    def test_zero_width_hidden_layer_allowed(self):
        net = validate(NetworkSpec((2, 0, 1), ((), ((),))))
        assert evaluate(net, (5, -3)) == 0


class TestEvaluate:
    def test_golden_positive_region(self, golden_net):
        assert evaluate(golden_net, (2, 1)) == 2

    def test_origin(self, golden_net):
        assert evaluate(golden_net, (0, 0)) == 0

    def test_negative_region(self, golden_net):
        # trace: ReLU(L1 x) = (0, 5, 2), L2 . = -3, ReLU -> 0
        assert evaluate(golden_net, (-3, -5)) == 0

    def test_matches_max(self, golden_net):
        rng = random.Random(7)
        for _ in range(25):
            p = rand_point(rng, 2)
            assert evaluate(golden_net, p) == max(F(0), p[0], p[1])

    def test_dimension_check(self, golden_net):
        with pytest.raises(DimensionMismatch):
            evaluate(golden_net, (1, 2, 3))

    def test_positive_homogeneity(self):
        rng = random.Random(11)
        net = network([[[rand_rational(rng) for _ in range(2)] for _ in range(3)],
                       [[rand_rational(rng) for _ in range(3)] for _ in range(2)],
                       [[rand_rational(rng) for _ in range(2)]]])
        for _ in range(20):
            x = rand_point(rng, 2)
            fx = evaluate(net, x)
            for lam in (F(0), F(1, 2), F(3)):
                assert evaluate(net, tuple(lam * c for c in x)) == lam * fx


class TestNeuronValue:
    def test_first_layer(self, golden_net):
        # neuron (1,3) computes max{0, x - y}
        assert neuron_value(golden_net, NeuronId(1, 3), (-3, -5)) == 2

    def test_second_layer(self, golden_net):
        assert neuron_value(golden_net, NeuronId(2, 1), (-3, -5)) == 0

    def test_all_zero_at_origin(self, golden_net):
        for layer, width in ((1, 3), (2, 1), (3, 1)):
            for idx in range(1, width + 1):
                assert neuron_value(golden_net, NeuronId(layer, idx), (0, 0)) == 0

    def test_output_neuron_is_preactivation(self):
        net = network([[[1, 0]], [[-1]]])  # f = -max{0, x}
        assert neuron_value(net, NeuronId(2, 1), (3, 0)) == -3

    def test_bad_id(self, golden_net):
        with pytest.raises(BadNeuronId):
            neuron_value(golden_net, NeuronId(1, 4), (0, 0))
        with pytest.raises(BadNeuronId):
            neuron_value(golden_net, NeuronId(5, 1), (0, 0))


class TestReduceShallow:
    def test_denominator_clearing(self):
        net = network([[[F(2, 3), F(4, 3)]], [[3]]])
        red = reduce_shallow(net)
        assert red.layers[0] == ((F(1), F(2)),)
        assert red.layers[1] == ((F(2),),)

    def test_parallel_merge(self):
        net = network([[[1, 2], [2, 4]], [[1, F(1, 2)]]])
        red = reduce_shallow(net)
        assert red.layers[0] == ((F(1), F(2)),)
        assert red.layers[1] == ((F(2),),)

    def test_zero_row_deletion(self):
        net = network([[[0, 0], [1, 0]], [[5, 1]]])
        red = reduce_shallow(net)
        assert red.layers[0] == ((F(1), F(0)),)
        assert red.layers[1] == ((F(1),),)

    def test_not_shallow(self, golden_net):
        with pytest.raises(NotShallow):
            reduce_shallow(golden_net)

    def test_biased_rejected(self):
        net = network([[[1, 0]], [[1]]], biases=[[1], [0]])
        with pytest.raises(Biased):
            reduce_shallow(net)

    def test_all_rows_zero(self):
        red = reduce_shallow(network([[[0, 0], [0, 0]], [[3, 4]]]))
        assert red.architecture == (2, 0, 1)
        assert evaluate(red, (1, 1)) == 0

    def test_idempotent_and_semantics(self):
        rng = random.Random(23)
        grid = [F(i, 2) for i in range(-4, 5)]
        for _ in range(20):
            rows = [[rand_rational(rng) for _ in range(2)] for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                rows.append([0, 0])
            if rng.random() < 0.5 and rows:
                factor = F(rng.randint(1, 4), rng.randint(1, 4))
                rows.append([factor * c for c in rows[0]])
            weights = [rand_rational(rng) for _ in rows]
            net = network([rows, [weights]])
            red = reduce_shallow(net)
            assert is_reduced(red) or red.architecture[1] == 0
            again = reduce_shallow(red)
            assert again.layers == red.layers
            for x in grid:
                for y in grid:
                    assert evaluate(net, (x, y)) == evaluate(red, (x, y))


def reference_positive_parallel_factor(row_a, row_b):
    """Returns k > 0 with row_a = k * row_b, or None."""
    k = None
    for a, b in zip(row_a, row_b):
        if b == 0:
            if a != 0:
                return None
            continue
        ratio = a / b
        if k is None:
            k = ratio
        elif ratio != k:
            return None
    if k is None or k <= 0:
        return None
    return k


def reference_reduce_shallow(net):
    """The pairwise reduction: merge each row into the first earlier row it
    is a positive multiple of, then scale every row by lcm / gcd."""
    rows = [list(r) for r in net.layers[0] if any(x != 0 for x in r)]
    weights = [w for r, w in zip(net.layers[0], net.layers[1][0]) if any(x != 0 for x in r)]
    removed = set()
    for i in range(len(rows)):
        if i in removed:
            continue
        for j in range(i + 1, len(rows)):
            if j in removed:
                continue
            k = reference_positive_parallel_factor(rows[j], rows[i])
            if k is not None:
                weights[i] += k * weights[j]
                removed.add(j)
    rows = [r for i, r in enumerate(rows) if i not in removed]
    weights = [w for i, w in enumerate(weights) if i not in removed]
    if not rows:
        return validate(NetworkSpec((net.input_dim, 0, 1), ((), ((),))))
    denominator_lcm = 1
    for row in rows:
        for x in row:
            denominator_lcm = lcm(denominator_lcm, x.denominator)
    new_rows = []
    new_weights = []
    for row, w in zip(rows, weights):
        row_gcd = 0
        for x in row:
            row_gcd = gcd(row_gcd, abs(int(x * denominator_lcm)))
        factor = F(denominator_lcm, row_gcd)
        new_rows.append(tuple(x * factor for x in row))
        new_weights.append(w / factor)
    return network([new_rows, [new_weights]])


def reference_is_reduced(net):
    if net.hidden_layers != 1 or not net.is_unbiased:
        return False
    rows = net.layers[0]
    for row in rows:
        if all(x == 0 for x in row) or any(x.denominator != 1 for x in row):
            return False
        g = 0
        for x in row:
            g = gcd(g, abs(int(x)))
        if g != 1:
            return False
    return not any(reference_positive_parallel_factor(rows[j], rows[i]) is not None
                   for i in range(len(rows)) for j in range(i + 1, len(rows)))


@st.composite
def parallel_shallow_nets(draw):
    """Shallow nets in dim 1-4 whose rows are zero, fresh, or a positive or
    negative rational multiple of one of a few base rows; the entries are
    small integers or rationals."""
    dim = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([st.integers(-2, 2), small_rationals]))
    vector = st.lists(entry, min_size=dim, max_size=dim)
    bases = draw(st.lists(vector, min_size=1, max_size=3))
    multiple = st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["zero", "fresh", "parallel"]))
        if kind == "zero":
            rows.append([0] * dim)
        elif kind == "fresh":
            rows.append(draw(vector))
        else:
            k = draw(multiple)
            rows.append([k * x for x in draw(st.sampled_from(bases))])
    out = draw(st.lists(small_rationals, min_size=len(rows), max_size=len(rows)))
    return network([rows, [out]])


class TestReduceAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(parallel_shallow_nets())
    def test_same_normal_form(self, net):
        reduced = reduce_shallow(net)
        assert encode_network(reduced) == encode_network(reference_reduce_shallow(net))
        assert is_reduced(net) == reference_is_reduced(net)
        assert is_reduced(reduced) == reference_is_reduced(reduced)

    def test_negatively_parallel_rows_stay_apart(self):
        net = network([[[1, 2], [-2, -4], [F(1, 2), 1]], [[1, 1, 2]]])
        reduced = reduce_shallow(net)
        assert reduced.layers[0] == ((1, 2), (-1, -2))
        assert reduced.layers[1] == ((2, 2),)
        assert is_reduced(reduced)
        assert not is_reduced(network([[[1, 2], [1, 2]], [[1, 1]]]))


class TestAffineShift:
    def test_negated_ramp(self):
        # f = max{0, x} in one variable; g = -x gives f + g = max{0, -x}
        net = network([[[1]], [[1]]])
        shifted = affine_shift(net, (-1,))
        assert shifted.architecture == (1, 3, 1)
        for x, want in ((-2, 2), (0, 0), (3, 0)):
            assert evaluate(shifted, (x,)) == want

    def test_zero_shift_identity(self, golden_net):
        shifted = affine_shift(golden_net, (0, 0))
        rng = random.Random(3)
        for _ in range(15):
            p = rand_point(rng, 2)
            assert evaluate(shifted, p) == evaluate(golden_net, p)

    def test_golden_with_linear_shift(self, golden_net):
        shifted = affine_shift(golden_net, (1, 1))
        assert evaluate(shifted, (1, 0)) == 2  # max{0,1,0} + 1

    def test_widths_and_depth(self, golden_net):
        shifted = affine_shift(golden_net, (2, -3))
        assert len(shifted.architecture) == len(golden_net.architecture)
        assert shifted.architecture == (2, 5, 3, 1)
        assert shifted.is_unbiased

    def test_affine_constant_makes_biased(self):
        net = network([[[1, 0]], [[1]]])
        shifted = affine_shift(net, (0, 1), constant=F(1, 2))
        assert not shifted.is_unbiased
        rng = random.Random(5)
        for _ in range(15):
            p = rand_point(rng, 2)
            assert evaluate(shifted, p) == evaluate(net, p) + p[1] + F(1, 2)

    def test_biased_input_network(self):
        net = network([[[1, 0], [0, 1]], [[1, 1]]], biases=[[1, -1], [2]])
        shifted = affine_shift(net, (1, 1), constant=3)
        rng = random.Random(9)
        for _ in range(15):
            p = rand_point(rng, 2)
            assert evaluate(shifted, p) == evaluate(net, p) + p[0] + p[1] + 3

    def test_dimension_mismatch(self, golden_net):
        with pytest.raises(DimensionMismatch):
            affine_shift(golden_net, (1, 2, 3))
