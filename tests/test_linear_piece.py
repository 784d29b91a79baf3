"""Slopes read off linear pieces, against slopes solved from exact values.

`slopes_by_evaluation` samples each cone at `dim` interior points and solves
for the slope from the values alone; it is the oracle here for the integer
linear-piece path of `extract_support` and the integer slope forms of
`compile_expression`.  Both hand their integer rows and one denominator to
`support_on_fan`, so a support function is one integer table in lowest
terms whose `slopes` view is what the oracles read (`TestSlopeTable`).
"""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from relutoric.divisor import (
    extract_support,
    slopes_by_evaluation,
    support_of_network,
    support_on_fan,
)
from relutoric.errors import DimensionMismatch
from relutoric.expressions import (
    Max,
    Neg,
    Scale,
    Var,
    compile_expression,
    evaluate_expression,
    parse_expression,
)
from relutoric.exact_math import vadd, vdot, vscale
from relutoric.fan import _cut_at_max, _split_cone, build_relu_fan, cone_from_rays
from relutoric.jsonio import decode_function, encode_fan, encode_vector
from relutoric.network import (
    cleared_layers,
    evaluate,
    linear_piece,
    network,
    pull_back,
    reduce_shallow,
)
from conftest import expressions, forms_table, nets, rand_point, reference_value_and_slope


def _assert_matches_evaluation(net, seed):
    fan = build_relu_fan(net)
    support = extract_support(net, fan)
    oracle = slopes_by_evaluation(fan, lambda p: evaluate(net, p))
    assert support.slopes == oracle.slopes
    rng = random.Random(seed)
    for _ in range(5):
        x = rand_point(rng, net.input_dim)
        assert support.value(x) == evaluate(net, x)


class TestNetworkSlopes:
    @settings(max_examples=60, deadline=None)
    @given(nets(), st.integers(0, 2**16))
    def test_matches_evaluation(self, net, seed):
        _assert_matches_evaluation(net, seed)

    def test_deeper_neuron_zero_on_a_cone(self):
        # on x1 < 0, x2 < 0 both layer-2 neurons vanish identically, and the
        # third layer-2 row is zero
        net = network([[[1, 0], [0, 1], [1, -1]],
                       [[1, 0, 0], [0, F(1, 2), -1], [0, 0, 0]],
                       [[1, -3, 2]]])
        diagnostics = []
        build_relu_fan(net, diagnostics)
        assert any("(2,2) is identically zero" in d for d in diagnostics)
        _assert_matches_evaluation(net, 1)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_zero_width_hidden_layer(self, dim):
        net = reduce_shallow(network([[[0] * dim], [[1]]]))
        assert net.architecture == (dim, 0, 1)
        support = extract_support(net, build_relu_fan(net))
        assert set(support.slopes) == {(0,) * dim}
        _assert_matches_evaluation(net, 2)

    def test_scale_is_the_product_of_layer_lcms(self):
        layers, scale = cleared_layers(network([[[F(1, 2), F(1, 3)]], [[F(3, 4)]]]))
        assert layers == (((3, 2),), ((3,),))
        assert scale == 6 * 4

    def test_fan_of_another_dimension_rejected(self):
        net = network([[[1, 0, 0]], [[1]]])
        with pytest.raises(DimensionMismatch):
            extract_support(net, build_relu_fan(network([[[1, 0]], [[1]]])))

    def test_tie_counts_as_inactive(self):
        # max(0, x1) at a point of its bending line takes the inactive piece
        layers, _ = cleared_layers(network([[[1, 0]], [[1]]]))
        assert linear_piece(layers, (0, 1)) == (0, 0)
        assert linear_piece(layers, (1, 1)) == (1, 0)


class TestPullBack:
    @settings(max_examples=60, deadline=None)
    @given(nets())
    def test_rows_are_constant_on_each_cone(self, net):
        # build_relu_fan cuts each cone by the rows pulled back at its
        # interior point; every maximal cone lies in one activation region,
        # so a second probe inside it reads the same rows at every depth
        layers, _ = cleared_layers(net)
        for cone in build_relu_fan(net).maximal_cones:
            probe = cone.interior_point()
            other = tuple(2 * p + r for p, r in zip(probe, cone.rays[0]))
            for depth in range(len(layers)):
                assert pull_back(layers, probe, depth) == pull_back(layers, other, depth)

    def test_rows_of_a_deeper_layer(self):
        # on x1 > 0 > x2 only the first neuron is active, so the row (2, 3)
        # of the second layer pulls back to 2 * (1, 0)
        layers, _ = cleared_layers(network([[[1, 0], [0, 1]], [[2, 3]], [[1]]]))
        assert pull_back(layers, (1, -1), 0) == [[1, 0], [0, 1]]
        assert pull_back(layers, (1, -1), 1) == [[2, 0]]
        assert pull_back(layers, (1, 1), 1) == [[2, 3]]
        assert pull_back(layers, (1, -1), 2) == [[2, 0]]
        assert pull_back(layers, (-1, -1), 2) == [[0, 0]]


def _assert_expression_matches(expr, dim):
    support = compile_expression(expr, dim)
    oracle = slopes_by_evaluation(support.fan,
                                  lambda p: evaluate_expression(expr, p))
    assert support.slopes == oracle.slopes


class TestExpressionSlopes:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda d: st.tuples(st.just(d), expressions(d))))
    def test_matches_evaluation(self, case):
        dim, expr = case
        _assert_expression_matches(expr, dim)

    @pytest.mark.parametrize("text", [
        "max(x1, x1, x2)",
        "2*max(x1, x2) - max(x1, x2) - max(x1, x2)",
        "max(max(x1, x2), x1) - max(x2, -x1)",
        "max(x1, x2, x3) + min(x1, 2*x2)",
    ])
    def test_ties_and_cancellations(self, text):
        dim = 3 if "x3" in text else 2
        _assert_expression_matches(parse_expression(text, dim), dim)

    def test_negative_scale(self):
        expr = Scale(F(-2), Max((Var(1), Var(2), Neg(Var(1)))))
        _assert_expression_matches(expr, 2)

    # A max node's pieces and slopes come from `_cut_at_max`, so its tie
    # conventions are pinned there.

    def test_max_takes_its_first_argmax(self):
        # equal covectors keep the earlier one, the very object
        quadrant = cone_from_rays([(1, 0), (0, 1)], 2)
        first, equal = (1, 0), tuple([1, 0])
        assert first == equal and first is not equal
        for slopes in ([first, equal], [first, (-1, 0), equal], [(0, 0), first, equal]):
            [(piece, top)] = _cut_at_max([quadrant], slopes)
            assert piece is quadrant and top is first

    def test_vanishing_cut_sends_a_cone_to_the_positive_side(self):
        # the cut is the running max minus the next covector: where it is
        # >= 0 on the whole cone the max is kept, where it is <= 0 and not
        # 0 the next covector takes over
        quadrant = cone_from_rays([(1, 0), (0, 1)], 2)
        assert _split_cone(quadrant, (0, 0)) == (None, quadrant)
        assert _split_cone(quadrant, (1, 0)) == (None, quadrant)
        assert _split_cone(quadrant, (-1, 0)) == (quadrant, None)
        assert _cut_at_max([quadrant], [(1, 1), (0, 1)]) == [(quadrant, (1, 1))]
        assert _cut_at_max([quadrant], [(0, 1), (1, 1)]) == [(quadrant, (1, 1))]


def _assert_lowest_terms(s):
    """Integer covectors over a positive denominator sharing no factor with
    all of them, and the table its own constructor gives back."""
    assert s.denominator > 0
    assert all(type(x) is int for m in s.covectors for x in m)
    assert gcd(s.denominator, *(x for m in s.covectors for x in m)) == 1
    assert support_on_fan(s.fan, s.slopes) == s


class TestSlopeTable:
    """One integer table per support function, whatever produced it, and
    its Fraction view equals the slopes the oracles solve or probe."""

    @settings(max_examples=40, deadline=None)
    @given(nets())
    def test_nets(self, net):
        fan = build_relu_fan(net)
        s = extract_support(net, fan)
        _assert_lowest_terms(s)
        assert s.slopes == slopes_by_evaluation(fan, lambda p: evaluate(net, p)).slopes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda d: st.tuples(st.just(d), expressions(d))))
    def test_expressions(self, case):
        dim, expr = case
        s = compile_expression(expr, dim)
        _assert_lowest_terms(s)
        forms = forms_table(expr, dim)
        assert s.slopes == tuple(
            reference_value_and_slope(expr, cone.interior_point(), dim, forms)[1]
            for cone in s.fan.maximal_cones)
        assert s.slopes == slopes_by_evaluation(
            s.fan, lambda p: evaluate_expression(expr, p)).slopes

    @settings(max_examples=40, deadline=None)
    @given(nets(), st.fractions(-3, 3, max_denominator=6), st.data())
    def test_decoded_documents(self, net, scale, data):
        # a net's function times a rational plus a rational linear term,
        # written as a {fan, slopes} document and decoded
        base = support_of_network(net)
        shift = data.draw(st.lists(st.fractions(-3, 3, max_denominator=6),
                                   min_size=net.input_dim, max_size=net.input_dim))
        doc = {"fan": encode_fan(base.fan),
               "slopes": [encode_vector(vadd(vscale(scale, m), shift)) for m in base.slopes]}
        s = decode_function(doc)
        _assert_lowest_terms(s)
        assert s.fan.maximal_cones == base.fan.maximal_cones  # provenance is not decoded
        assert s.slopes == slopes_by_evaluation(
            s.fan, lambda p: scale * evaluate(net, p) + vdot(shift, p)).slopes

    def test_a_scale_that_cancels(self):
        s = support_of_network(network([[[F(1, 2), 0]], [[2]]]))
        assert s.denominator == 1 and set(s.covectors) == {(0, 0), (1, 0)}

    def test_a_scale_that_stays(self):
        s = support_of_network(network([[[F(1, 3), 0]], [[1]]]))
        assert s.denominator == 3 and set(s.covectors) == {(0, 0), (1, 0)}
