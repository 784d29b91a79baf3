import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from relutoric import expressions
from relutoric.cli import main
from relutoric.errors import InhomogeneousConstant, ParseError, UnknownVariable
from relutoric.exact_math import is_zero_vector, vadd, vdot, vneg, vscale, vsub
from relutoric.expressions import (
    Const,
    Max,
    Neg,
    Scale,
    Sum,
    Var,
    affine_forms,
    compile_expression,
    evaluate_expression,
    format_expression,
    parse_and_compile,
    parse_expression,
)
from relutoric.divisor import support_of_network, support_on_fan
from relutoric.fan import EXTENDED, augmented_central_fan, hyperplane, merge_hyperplanes
from relutoric.network import network
from relutoric.realizability import common_refinement
from conftest import SIXPIECE_EXPR, SIXPIECE_SLOPES, expressions as expression_trees


class TestParse:
    def test_simple_max(self):
        ast = parse_expression("max(0, x1, x2)", 2)
        assert ast == Max((Const(F(0)), Var(1), Var(2)))

    def test_scaled_terms(self):
        ast = parse_expression("3*max(0,x1) - 2*max(0,x2)", 2)
        assert ast == Sum((Scale(F(3), Max((Const(F(0)), Var(1)))),
                           Neg(Scale(F(2), Max((Const(F(0)), Var(2)))))))

    def test_unclosed_max(self):
        with pytest.raises(ParseError):
            parse_expression("max(0, x1", 2)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_expression("max(0, x3)", 2)

    def test_rational_literals(self):
        ast = parse_expression("1/2*x1 + 3*x2", 2)
        assert ast == Sum((Scale(F(1, 2), Var(1)), Scale(F(3), Var(2))))

    def test_min_canonicalized(self):
        ast = parse_expression("min(x1, x2)", 2)
        assert ast == Neg(Max((Neg(Var(1)), Neg(Var(2)))))

    def test_whitespace_insensitive(self):
        a = parse_expression("max( 0 ,x1,  x2 )", 2)
        b = parse_expression("max(0,x1,x2)", 2)
        assert a == b

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x1 )", 2)

    def test_leading_negation(self):
        ast = parse_expression("-max(0, x1)", 2)
        assert ast == Neg(Max((Const(F(0)), Var(1))))


class TestHomogeneity:
    def test_constant_outside_max(self):
        with pytest.raises(InhomogeneousConstant):
            parse_expression("x1 + 3", 2)

    def test_constant_inside_max(self):
        with pytest.raises(InhomogeneousConstant):
            parse_expression("max(1, x1)", 2)

    def test_cancelling_constants_allowed(self):
        ast = parse_expression("max(0, x1 + 1 - 1)", 2)
        assert evaluate_expression(ast, (F(2), F(0))) == 2

    def test_zero_constant_allowed(self):
        parse_expression("max(0, x1, x2)", 2)

    # Messages as the checker reported them before affine_forms computed
    # each Sum term's forms once: the first nonzero constant in the forms'
    # iteration order is the one named.
    MESSAGES = [
        ("max(x1, max(x2, 1) + 2)", "constant 3 inside max breaks homogeneity"),
        ("max(x1, x2) + 1", "constant 1 breaks homogeneity"),
        ("max(x1, 1 - 2 + x2)", "constant -1 inside max breaks homogeneity"),
    ]

    @pytest.mark.parametrize("text,message", MESSAGES)
    def test_message(self, text, message):
        for parse in (parse_expression, parse_and_compile):
            with pytest.raises(InhomogeneousConstant) as info:
                parse(text, 2)
            assert str(info.value) == message

    @pytest.mark.parametrize("text,message", MESSAGES)
    def test_cli_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"dim": 2, "expr": text}))
        assert main(["realize", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_constants_cancelling_inside_max(self):
        parse_and_compile("max(x1, 1 - 1 + x2)", 2)

    def test_checked_once_per_document(self, monkeypatch):
        calls = []
        check = expressions._check_homogeneous
        monkeypatch.setattr(expressions, "_check_homogeneous",
                            lambda expr, dim: calls.append(expr) or check(expr, dim))
        parse_and_compile(SIXPIECE_EXPR, 2)
        assert len(calls) == 1


def reference_affine_forms(expr, dim: int) -> set:
    """affine_forms as first written: a Sum recomputes each term's forms for
    every form accumulated so far."""
    zero = tuple(F(0) for _ in range(dim))
    if isinstance(expr, Var):
        return {(tuple(F(1) if i == expr.index - 1 else F(0) for i in range(dim)), F(0))}
    if isinstance(expr, Const):
        return {(zero, expr.value)}
    if isinstance(expr, Neg):
        return {(vneg(s), -c) for s, c in reference_affine_forms(expr.arg, dim)}
    if isinstance(expr, Scale):
        return {(vscale(expr.coeff, s), expr.coeff * c)
                for s, c in reference_affine_forms(expr.arg, dim)}
    if isinstance(expr, Sum):
        forms = {(zero, F(0))}
        for term in expr.terms:
            forms = {(vadd(s1, s2), c1 + c2)
                     for s1, c1 in forms
                     for s2, c2 in reference_affine_forms(term, dim)}
        return forms
    out = set()
    for arg in expr.args:
        out |= reference_affine_forms(arg, dim)
    return out


class TestAffineFormsAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda d: st.tuples(st.just(d), expression_trees(d, constants=True))))
    def test_same_forms_in_the_same_order(self, case):
        # the order matters: the homogeneity message names the first
        # nonzero constant met
        dim, expr = case
        assert list(affine_forms(expr, dim)) == list(reference_affine_forms(expr, dim))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda d: st.tuples(st.just(d), expression_trees(d, constants=True))))
    def test_table_holds_every_node(self, case):
        dim, expr = case
        table = expressions._forms_table(expr, dim)
        for node in expressions._walk(expr):
            assert list(table[id(node)]) == list(reference_affine_forms(node, dim))

    def test_table_built_once_per_compile(self, monkeypatch):
        nodes = len(list(expressions._walk(parse_expression(SIXPIECE_EXPR, 2))))
        tables, visits = [], []
        build, node_forms = expressions._forms_table, expressions._node_forms
        monkeypatch.setattr(expressions, "_forms_table",
                            lambda expr, dim: tables.append(expr) or build(expr, dim))
        monkeypatch.setattr(expressions, "_node_forms",
                            lambda expr, dim, table: visits.append(expr)
                            or node_forms(expr, dim, table))
        parse_and_compile(SIXPIECE_EXPR, 2)
        assert len(tables) == 1
        assert len(visits) == nodes


def reference_value_and_slope(expr, point, dim: int, forms):
    """The per-cone walk of compile_expression before the integer slope
    table: value and slope in Fraction arithmetic, a node with a single
    affine form in `forms` read off it, a max taking its first argmax."""
    own = forms[id(expr)]
    if len(own) == 1:
        (slope, const), = own
        return vdot(slope, point) + const, slope
    if isinstance(expr, Neg):
        value, slope = reference_value_and_slope(expr.arg, point, dim, forms)
        return -value, vneg(slope)
    if isinstance(expr, Scale):
        value, slope = reference_value_and_slope(expr.arg, point, dim, forms)
        return expr.coeff * value, vscale(expr.coeff, slope)
    if isinstance(expr, Sum):
        value, slope = 0, (0,) * dim
        for term in expr.terms:
            v, m = reference_value_and_slope(term, point, dim, forms)
            value, slope = value + v, vadd(slope, m)
        return value, slope
    best = None
    for arg in expr.args:
        value, slope = reference_value_and_slope(arg, point, dim, forms)
        if best is None or value > best[0]:
            best = value, slope
    return best


def reference_candidate_hyperplanes(expr, dim: int, forms) -> tuple:
    """candidate_hyperplanes before the integer slope table: differences of
    the Fraction slopes of the forms table."""
    planes = []
    for node in expressions._walk(expr):
        if not isinstance(node, Max):
            continue
        form_sets = [forms[id(arg)] for arg in node.args]
        for i in range(len(form_sets)):
            for j in range(i + 1, len(form_sets)):
                for si, _ in form_sets[i]:
                    for sj, _ in form_sets[j]:
                        diff = vsub(si, sj)
                        if not is_zero_vector(diff):
                            planes.append(hyperplane(diff, EXTENDED))
    return merge_hyperplanes(planes)


def reference_compile(expr, dim: int):
    forms = expressions._forms_table(expr, dim)
    fan = augmented_central_fan(reference_candidate_hyperplanes(expr, dim, forms), dim)
    return support_on_fan(fan, [
        reference_value_and_slope(expr, cone.interior_point(), dim, forms)[1]
        for cone in fan.maximal_cones])


def _homogeneous(expr, dim: int) -> bool:
    try:
        expressions._check_homogeneous(expr, dim)
    except InhomogeneousConstant:
        return False
    return True


# homogeneous trees: without constants, and with constants that cancel
HOMOGENEOUS_TREES = st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), st.one_of(
    expression_trees(d),
    expression_trees(d, constants=True).filter(lambda e: _homogeneous(e, d)))))


class TestIntegerSlopesAgainstReference:
    """The integer slope table gives the reports the Fraction walk gave."""

    @settings(max_examples=150, deadline=None)
    @given(HOMOGENEOUS_TREES)
    def test_slopes_on_every_cone(self, case):
        dim, expr = case
        support, reference = compile_expression(expr, dim), reference_compile(expr, dim)
        assert support.fan.maximal_cones == reference.fan.maximal_cones
        assert support.slopes == reference.slopes

    @settings(max_examples=150, deadline=None)
    @given(HOMOGENEOUS_TREES)
    def test_candidate_hyperplanes_in_the_same_order(self, case):
        dim, expr = case
        forms = expressions._forms_table(expr, dim)
        assert (expressions.candidate_hyperplanes(expr, dim)
                == reference_candidate_hyperplanes(expr, dim, forms))

    @pytest.mark.parametrize("text", [
        "-2/3*max(3/2*x1, -x2)",
        "1/2*max(1/3*max(x1, x2), x2) - 1/6*x1",
        "max(x1, 0*max(x1, x2), -x2) + 0*min(x1, x2)",
        "-3/4*max(2/3*x1 - 1/2*x2, 5/6*min(x1, -x2)) + 1/4*max(x1, x2)",
    ])
    def test_exact_division(self, text):
        expr = parse_expression(text, 2)
        support, reference = compile_expression(expr, 2), reference_compile(expr, 2)
        assert support.fan.maximal_cones == reference.fan.maximal_cones
        assert support.slopes == reference.slopes
        for cone in support.fan.maximal_cones:
            point = cone.interior_point()
            assert support.value(point) == evaluate_expression(expr, point)

    def test_without_a_table_checks_homogeneity(self):
        with pytest.raises(InhomogeneousConstant):
            expressions.candidate_hyperplanes(Max((Var(1), Const(F(1)))), 2)


def nested(levels: int) -> str:
    """`levels` max and min nodes, each inside the one before."""
    text = "x1"
    for level in range(levels):
        text = f"max(x2, x1 - 2*{text})" if level % 2 else f"min(x1, {text})"
    return text


class TestNesting:
    def test_deepest_nest_compiles(self):
        support = parse_and_compile(nested(expressions.MAX_NESTING), 2)
        assert support.slopes

    def test_one_level_deeper_is_rejected(self):
        with pytest.raises(ParseError, match="max and min nested deeper than 100"):
            parse_expression(nested(expressions.MAX_NESTING + 1), 2)


class TestRoundTrip:
    @pytest.mark.parametrize("text", [
        "max(0, x1, x2)",
        "3*max(0, x1) - 2*max(0, x2)",
        "min(x1, x2) + max(0, x1 - x2)",
        "1/2*x1 + 3/4*x2",
        "-max(0, x1 + x2)",
        SIXPIECE_EXPR,
    ])
    def test_print_parse(self, text):
        ast = parse_expression(text, 2)
        assert parse_expression(format_expression(ast), 2) == ast


class TestEvaluate:
    def test_max(self):
        ast = parse_expression("max(0, x1, x2)", 2)
        assert evaluate_expression(ast, (F(-1), F(3))) == 3

    def test_min(self):
        ast = parse_expression("min(x1, x2)", 2)
        assert evaluate_expression(ast, (F(-1), F(3))) == -1

    def test_rational_arithmetic(self):
        ast = parse_expression("1/2*x1 - 1/3*x2", 2)
        assert evaluate_expression(ast, (F(1), F(1))) == F(1, 6)


class TestCompile:
    def test_max_three_pieces(self):
        s = parse_and_compile("max(0, x1, x2)", 2)
        assert len(s.fan.maximal_cones) == 6
        normals = {h.normal for h in s.fan.hyperplanes}
        assert normals == {(1, 0), (0, 1), (1, -1)}
        assert set(s.slopes) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}

    def test_linear_gets_augmented_fan(self):
        s = parse_and_compile("x1", 2)
        assert len(s.fan.maximal_cones) == 4
        assert set(s.slopes) == {(F(1), F(0))}

    def test_sixpiece_slopes(self):
        s = parse_and_compile(SIXPIECE_EXPR, 2)
        assert set(s.slopes) == SIXPIECE_SLOPES

    def test_matches_golden_network(self, golden_net):
        compiled = parse_and_compile("max(0, x1, x2)", 2)
        from_net = support_of_network(golden_net)
        a, b = common_refinement([compiled, from_net])
        assert a.slopes == b.slopes

    def test_values_match_compiled_support(self):
        s = parse_and_compile(SIXPIECE_EXPR, 2)
        ast = parse_expression(SIXPIECE_EXPR, 2)
        pts = [(F(3), F(1)), (F(-2), F(5)), (F(-1), F(-1)), (F(7, 2), F(-4))]
        for p in pts:
            assert s.value(p) == evaluate_expression(ast, p)

    def test_three_variables(self):
        s = parse_and_compile("max(0, x1 + x2 - x3)", 3)
        assert set(s.slopes) == {(F(0),) * 3, (F(1), F(1), F(-1))}
