import contextlib
import io
import json
import random
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from relutoric import expressions
from relutoric.cli import main
from relutoric.errors import InhomogeneousConstant, ParseError, UnknownVariable
from relutoric.exact_math import independent_rows, is_zero_vector, vsub
from relutoric.expressions import (
    Const,
    Max,
    Neg,
    Scale,
    Sum,
    Var,
    compile_expression,
    evaluate_expression,
    format_expression,
    parse_and_compile,
    parse_expression,
)
from relutoric.divisor import support_of_network
from relutoric.fan import EXTENDED, _augmented, hyperplane
from relutoric.realizability import common_refinement
import conftest
from conftest import (
    SIXPIECE_EXPR,
    SIXPIECE_SLOPES,
    affine_forms,
    expressions as expression_trees,
    forms_table,
    reference_affine_forms,
    reference_candidate_hyperplanes,
    reference_compile_expression,
    reference_value_and_slope,
    walk,
)


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

    # The first max argument in pre-order, then the function, whose value at
    # the origin is nonzero is named by that value.  In the last, the outer
    # argument's value max(0, 1) - 1 cancels, so the inner constant 1 is
    # named.
    MESSAGES = [
        ("max(x1, max(x2, 1) + 2)", "constant 3 inside max breaks homogeneity"),
        ("max(x1, x2) + 1", "constant 1 breaks homogeneity"),
        ("max(x1, 1 - 2 + x2)", "constant -1 inside max breaks homogeneity"),
        ("max(x1, max(x2, 1) - 1)", "constant 1 inside max breaks homogeneity"),
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


def reference_seed(expr, dim: int, forms) -> tuple:
    """`candidate_hyperplanes` in Fractions: for each max node, those whose
    arguments hold no max first, the difference between its first
    argument's slope at the origin and each later one's, and d independent
    normals among them, augmented when they are rank-deficient."""
    def holds_max(node):
        return any(isinstance(n, Max) for n in walk(node))

    origin = (F(0),) * dim
    planes = []
    for node in sorted((n for n in walk(expr) if isinstance(n, Max)),
                       key=lambda n: any(holds_max(arg) for arg in n.args)):
        first, *rest = (reference_value_and_slope(arg, origin, dim, forms)[1]
                        for arg in node.args)
        planes += [hyperplane(vsub(s, first), EXTENDED) for s in rest
                   if not is_zero_vector(vsub(s, first))]
    planes = _augmented(planes, dim)
    return tuple(planes[i] for i in independent_rows([h.normal for h in planes]))


class TestAffineFormsAgainstReference:
    """The forms table of the reference compile against the forms as first
    written."""

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
        table = forms_table(expr, dim)
        for node in walk(expr):
            assert list(table[id(node)]) == list(reference_affine_forms(node, dim))

    def test_table_built_once_per_compile(self, monkeypatch):
        expr = parse_expression(SIXPIECE_EXPR, 2)
        nodes = len(list(walk(expr)))
        tables, visits = [], []
        build, visit = conftest.forms_table, conftest.node_forms
        monkeypatch.setattr(conftest, "forms_table",
                            lambda expr, dim: tables.append(expr) or build(expr, dim))
        monkeypatch.setattr(conftest, "node_forms",
                            lambda expr, dim, table: visits.append(expr)
                            or visit(expr, dim, table))
        reference_compile_expression(expr, 2)
        assert len(tables) == 1
        assert len(visits) == nodes


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


def _probe_slopes(support, expr, dim: int) -> tuple:
    """The Fraction walk's slope at the interior point of every cone."""
    forms = forms_table(expr, dim)
    return tuple(reference_value_and_slope(expr, cone.interior_point(), dim, forms)[1]
                 for cone in support.fan.maximal_cones)


def _same_function(a, b) -> bool:
    """Zero correction: equal slopes on a common refinement."""
    a, b = common_refinement([a, b])
    return a.slopes == b.slopes


class TestIntegerSlopesAgainstReference:
    """The integer slopes of the refinement are the slopes the Fraction walk
    reads, and its seed is the one the Fraction walk gives."""

    @settings(max_examples=150, deadline=None)
    @given(HOMOGENEOUS_TREES)
    def test_slopes_on_every_cone(self, case):
        dim, expr = case
        support = compile_expression(expr, dim)
        assert support.slopes == _probe_slopes(support, expr, dim)
        assert _same_function(support, reference_compile_expression(expr, dim))

    @settings(max_examples=150, deadline=None)
    @given(HOMOGENEOUS_TREES)
    def test_candidate_hyperplanes_in_the_same_order(self, case):
        dim, expr = case
        forms = forms_table(expr, dim)
        seed = expressions.candidate_hyperplanes(expr, dim)
        assert seed == reference_seed(expr, dim, forms)
        candidates = {h.normal for h in
                      _augmented(reference_candidate_hyperplanes(expr, dim, forms), dim)}
        assert len(seed) == dim and {h.normal for h in seed} <= candidates

    @pytest.mark.parametrize("text", [
        "-2/3*max(3/2*x1, -x2)",
        "1/2*max(1/3*max(x1, x2), x2) - 1/6*x1",
        "max(x1, 0*max(x1, x2), -x2) + 0*min(x1, x2)",
        "-3/4*max(2/3*x1 - 1/2*x2, 5/6*min(x1, -x2)) + 1/4*max(x1, x2)",
    ])
    def test_exact_division(self, text):
        expr = parse_expression(text, 2)
        support = compile_expression(expr, 2)
        assert support.slopes == _probe_slopes(support, expr, 2)
        assert _same_function(support, reference_compile_expression(expr, 2))
        for cone in support.fan.maximal_cones:
            point = cone.interior_point()
            assert support.value(point) == evaluate_expression(expr, point)

    def test_without_a_table_checks_homogeneity(self):
        with pytest.raises(InhomogeneousConstant):
            expressions.candidate_hyperplanes(Max((Var(1), Const(F(1)))), 2)


def form_text(coeffs) -> str:
    """An integer linear form as the parser reads it."""
    terms = [f"{c}*x{i}" for i, c in enumerate(coeffs, start=1) if c]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


@st.composite
def nested_max_trees(draw, max_depth: int = 2):
    """(dim, text) of a nested max/min tree in R^2 or R^3: every argument is
    a linear form, and above the innermost level it may add a scaled node
    one level down."""
    dim = draw(st.integers(2, 3))
    form = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(form_text)

    def node(depth):
        args = []
        for _ in range(draw(st.integers(2, 3))):
            text = draw(form)
            if depth > 1 and draw(st.booleans()):
                sign = draw(st.sampled_from(["+", "-"]))
                coeff = draw(st.sampled_from(["1", "2", "1/2", "3/2"]))
                text = f"{text} {sign} {coeff}*{node(depth - 1)}"
            args.append(text)
        return f"{draw(st.sampled_from(['max', 'min']))}({', '.join(args)})"

    return dim, node(draw(st.integers(1, max_depth)))


def nested_draw(rng: random.Random, dim: int, depth: int) -> str:
    """A seeded nested max/min expression of the given depth: 2-3 arguments
    per node, each a linear form plus, with probability 0.7 above the
    innermost level, a positive multiple of a node one level down."""
    args = []
    for _ in range(rng.randint(2, 3)):
        text = form_text([rng.randint(-2, 2) for _ in range(dim)])
        if depth > 1 and rng.random() < 0.7:
            text = f"{text} + {rng.randint(1, 3)}*{nested_draw(rng, dim, depth - 1)}"
        args.append(text)
    return f"{rng.choice(['max', 'min'])}({', '.join(args)})"


REPORT_COMMANDS = (["newton"], ["polytope"], ["volume"], ["realize"], ["classify"])


def _reports(dim: int, text: str) -> list:
    """Exit code, report and stderr of each command of REPORT_COMMANDS on an
    expression document, through `cli.main`."""
    out = []
    with tempfile.TemporaryDirectory() as directory:
        doc, report = Path(directory) / "input.json", Path(directory) / "report.json"
        doc.write_text(json.dumps({"dim": dim, "expr": text}))
        for command in REPORT_COMMANDS:
            report.unlink(missing_ok=True)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*command, "--input", str(doc), "--output", str(report)])
            out.append((code, report.read_text() if report.exists() else None, err.getvalue()))
    return out


class TestRefinementAgainstReference:
    """The refinement compiles the function the reference compiles, on no
    more cones, with the same reports of every command that depends on the
    function alone."""

    @settings(max_examples=40, deadline=None)
    @given(nested_max_trees(), st.randoms(use_true_random=False))
    def test_same_function(self, case, rng):
        dim, text = case
        expr = parse_expression(text, dim)
        support = compile_expression(expr, dim)
        assert _same_function(support, reference_compile_expression(expr, dim))
        for _ in range(5):
            point = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(dim))
            assert support.value(point) == evaluate_expression(expr, point)

    @settings(max_examples=60, deadline=None)
    @given(nested_max_trees())
    def test_never_more_cones(self, case):
        dim, text = case
        expr = parse_expression(text, dim)
        assert (len(compile_expression(expr, dim).fan.maximal_cones)
                <= len(reference_compile_expression(expr, dim).fan.maximal_cones))

    @settings(max_examples=12, deadline=None)
    @given(nested_max_trees())
    def test_same_reports(self, case):
        reports = _reports(*case)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expressions, "compile_expression", reference_compile_expression)
            assert _reports(*case) == reports

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3).flatmap(
        lambda d: st.tuples(st.just(d), expression_trees(d, constants=True))))
    def test_inhomogeneous_exactly_when_the_reference_is(self, case):
        dim, expr = case

        def raises(compile_):
            try:
                compile_(expr, dim)
            except InhomogeneousConstant:
                return True
            return False

        assert raises(compile_expression) == raises(reference_compile_expression)

    def test_seeded_depth_three_draw(self):
        # the costliest of 30 such draws for the reference, which compiles
        # it on 6352 cones
        text = nested_draw(random.Random("nested/19"), 3, 3)
        expr = parse_expression(text, 3)
        support = compile_expression(expr, 3)
        assert len(support.fan.maximal_cones) == 113
        rng = random.Random(19)
        for _ in range(10):
            point = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3))
            assert support.value(point) == evaluate_expression(expr, point)

    def test_wide_max_is_not_quadratic(self):
        # a compile quadratic in the arguments misses the bound: rescanning
        # every earlier argument at every piece takes 16 s on this max of
        # 800 forms on a 2-core host, carrying each piece's running max 0.5 s
        rng = random.Random("wide-max/800")
        forms = [form_text([rng.randint(-1000, 1000) for _ in range(2)]) for _ in range(800)]
        expr = parse_expression(f"max({', '.join(forms)})", 2)
        start = time.perf_counter()
        support = compile_expression(expr, 2)
        assert time.perf_counter() - start < 1.5
        for _ in range(20):
            point = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(2))
            assert support.value(point) == evaluate_expression(expr, point)


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
        # seeded by x1 = 0 and x2 = 0; only the positive quadrant is cut,
        # by x1 = x2
        s = parse_and_compile("max(0, x1, x2)", 2)
        assert len(s.fan.maximal_cones) == 5
        assert {h.normal for h in s.fan.hyperplanes} == {(1, 0), (0, 1)}
        assert {w.normal for w in s.fan.walls} == {(1, 0), (0, 1), (1, -1)}
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
