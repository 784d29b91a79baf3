import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from relutoric import fan as fan_module, realizability
from relutoric.cli import JobSpec, run_job
from relutoric.errors import CriterionFailed, DimensionMismatch
from relutoric.divisor import SupportFunction, support_of_network, support_on_fan
from relutoric.exact_math import vdot
from relutoric.expressions import (
    compile_expression,
    evaluate_expression,
    parse_and_compile,
    parse_expression,
)
from relutoric.fan import EXTENDED, Hyperplane, augmented_central_fan, cone_containing
from relutoric.jsonio import encode_network, encode_vector
from relutoric.network import evaluate, network
from relutoric.realizability import (
    analyze,
    common_refinement,
    criterion_check,
    criterion_fan,
    nonlinear_locus_hyperplanes,
    synthesize_shallow,
    verify_synthesis,
    verify_up_to_linear,
)
from conftest import (
    SIXPIECE_EXPR,
    expressions,
    nets,
    rand_point,
    rand_shallow_net,
    reference_compile_expression,
    reference_intersection_number,
    weights,
)


@pytest.fixture
def sixpiece():
    return parse_and_compile(SIXPIECE_EXPR, 2)


class TestNonlinearLocus:
    def test_max_of_three(self, golden_net):
        s = support_of_network(golden_net)
        normals = {h.normal for h in nonlinear_locus_hyperplanes(s)}
        assert normals == {(1, 0), (0, 1), (1, -1)}

    def test_linear_function(self):
        s = parse_and_compile("x1", 2)
        assert nonlinear_locus_hyperplanes(s) == ()

    def test_sixpiece(self, sixpiece):
        normals = {h.normal for h in nonlinear_locus_hyperplanes(sixpiece)}
        assert normals == {(0, 1), (1, 1), (1, -1)}

    def test_kind_is_extended(self, sixpiece):
        assert all(h.kind == EXTENDED
                   for h in nonlinear_locus_hyperplanes(sixpiece))


def reference_bend_locus(s):
    """The bend locus by its definition: span hyperplanes of the walls with a
    nonzero intersection number, paired with the lattice lift."""
    normals = []
    for wall in s.fan.walls:
        if reference_intersection_number(s, wall) != 0 and wall.normal not in normals:
            normals.append(wall.normal)
    return tuple(Hyperplane(n, EXTENDED) for n in sorted(normals))


class TestBendLocusAgainstIntersectionNumbers:
    @settings(max_examples=60, deadline=None)
    @given(nets())
    def test_nets(self, net):
        s = support_of_network(net)
        assert nonlinear_locus_hyperplanes(s) == reference_bend_locus(s)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda d: st.tuples(st.just(d), expressions(d))))
    def test_expressions(self, case):
        dim, expr = case
        s = compile_expression(expr, dim)
        assert nonlinear_locus_hyperplanes(s) == reference_bend_locus(s)


class TestCriterion:
    def test_sixpiece_not_realizable(self, sixpiece):
        report = criterion_check(sixpiece)
        assert not report.realizable
        assert report.witness.normal == (0, 1)
        assert report.witness.numbers == (F(-7), F(-1))

    def test_two_ramps_realizable(self):
        net = network([[[1, 0], [0, 1]], [[3, -2]]])
        report = criterion_check(support_of_network(net))
        assert report.realizable
        by_normal = {g.normal: g.numbers for g in report.groups}
        assert by_normal[(1, 0)] == (F(-3), F(-3))
        assert by_normal[(0, 1)] == (F(2), F(2))

    def test_max_xy_not_realizable(self, golden_net):
        report = criterion_check(support_of_network(golden_net))
        assert not report.realizable
        assert not report.witness.passes
        by_normal = {g.normal: set(g.numbers) for g in report.groups}
        assert by_normal[(1, -1)] == {F(-1), F(0)}

    def test_group_order_is_lexicographic(self, sixpiece):
        report = criterion_check(sixpiece)
        normals = [g.normal for g in report.groups]
        assert normals == sorted(normals)

    def test_negative_stability_under_permutation(self, golden_net):
        # permuting first-layer rows (with matching output weights) presents
        # the hyperplanes in a different order but must not change the verdict
        rng = random.Random(7)
        rows = [[0, 1], [0, -1], [1, -1]]
        weights = [1, -1, 1]
        for _ in range(6):
            order = list(range(3))
            rng.shuffle(order)
            net = network([[rows[i] for i in order],
                           [[weights[i] for i in order]], [[1]]])
            report = criterion_check(support_of_network(net))
            assert not report.realizable
            assert report.witness.normal == (0, 1)

    def test_sixpiece_stability_under_term_permutation(self):
        rng = random.Random(8)
        args = ["4*x1 + 5*x2", "3*x1 + 6*x2", "3*x2", "0", "4*x1 - 4*x2"]
        tail = [" - 2*max(0, x2)", " - 2*max(0, x1 - x2)", " - 2*max(0, x1 + x2)"]
        for _ in range(4):
            rng.shuffle(args)
            rng.shuffle(tail)
            expr = "max(" + ", ".join(args) + ")" + "".join(tail)
            report = criterion_check(parse_and_compile(expr, 2))
            assert not report.realizable
            assert report.witness.normal == (0, 1)
            assert set(report.witness.numbers) == {F(-7), F(-1)}


class TestSynthesis:
    def test_two_ramps(self):
        s = support_of_network(network([[[1, 0], [0, 1]], [[3, -2]]]))
        synth = synthesize_shallow(criterion_check(s))
        weight_of_row = dict(zip(synth.layers[0], synth.layers[1][0]))
        assert weight_of_row[(F(1), F(0))] == 3
        assert weight_of_row[(F(0), F(1))] == -2
        ok, g = verify_up_to_linear(s, synth)
        assert ok and g == (F(0), F(0))

    def test_two_diagonals(self):
        s = support_of_network(network([[[1, 1], [1, -1]], [[1, 1]]]))
        synth = synthesize_shallow(criterion_check(s))
        weight_of_row = dict(zip(synth.layers[0], synth.layers[1][0]))
        assert weight_of_row[(F(1), F(1))] == 1
        assert weight_of_row[(F(1), F(-1))] == 1
        ok, g = verify_up_to_linear(s, synth)
        assert ok and g == (F(0), F(0))

    def test_orientation_absorbed_into_correction(self):
        # f = max{0, -x} embedded in the plane; the sign-canonical row is
        # (1, 0) and the flip is a linear correction g = -x
        net = network([[[-1, 0]], [[1]]])
        report = analyze(support_of_network(net))
        synth = report.synthesis
        assert synth.network.layers[0] == ((F(1), F(0)),)
        assert synth.network.layers[1] == ((F(1),),)
        assert synth.correction_slope == (F(-1), F(0))

    def test_criterion_failed(self, golden_net):
        with pytest.raises(CriterionFailed):
            synthesize_shallow(criterion_check(support_of_network(golden_net)))

    def test_linear_function_degenerate_net(self):
        s = parse_and_compile("2*x1 - x2", 2)
        report = analyze(s)
        assert report.realizable
        assert report.synthesis.network.architecture == (2, 0, 1)
        assert report.synthesis.correction_slope == (F(2), F(-1))

    def test_failed_verification_is_reported(self, monkeypatch):
        s = parse_and_compile("max(x1, 0) - 2*max(x1 - x2, 0)", 2)
        assert analyze(s).synthesis.verified is True
        monkeypatch.setattr(realizability, "verify_synthesis",
                            lambda report, net: (False, (F(0), F(0))))
        report = analyze(s)
        assert report.realizable
        assert report.synthesis.verified is False
        assert report.synthesis.network == synthesize_shallow(criterion_check(s))


class TestVerifyUpToLinear:
    def test_exact_match(self):
        net = network([[[1, 0], [0, 1]], [[3, -2]]])
        ok, g = verify_up_to_linear(support_of_network(net), net)
        assert ok and g == (F(0), F(0))

    def test_linear_difference(self):
        ramp_pos = network([[[1, 0]], [[1]]])
        ramp_neg = network([[[-1, 0]], [[1]]])
        ok, g = verify_up_to_linear(support_of_network(ramp_pos), ramp_neg)
        assert ok and g == (F(1), F(0))  # max{0,x} - max{0,-x} = x

    def test_genuinely_different(self, golden_net):
        shallow = network([[[1, 0], [0, 1]], [[1, 1]]])
        ok, _ = verify_up_to_linear(support_of_network(golden_net), shallow)
        assert not ok

    def test_net_of_another_dimension_rejected(self):
        # max(x1, x2, 0) in R^2 against a net on R^3: no common refinement
        s = parse_and_compile("max(x1, x2, 0)", 2)
        net = network([[[1, 0, 0], [0, 1, 0]], [[1, 1]]])
        with pytest.raises(DimensionMismatch, match=r"dimensions \[2, 3\]"):
            verify_up_to_linear(s, net)
        with pytest.raises(DimensionMismatch):
            common_refinement([support_of_network(net), s])


class TestRandomRoundTrip:
    @pytest.mark.parametrize("dim,count,seed", [(2, 12, 101), (3, 8, 202)])
    def test_soundness_and_synthesis(self, dim, count, seed):
        rng = random.Random(seed)
        done = 0
        while done < count:
            net = rand_shallow_net(rng, dim, max_width=4)
            s = support_of_network(net)
            report = criterion_check(s)
            assert report.realizable, (net.layers, report.witness)
            synth = synthesize_shallow(report)
            ok, g = verify_up_to_linear(s, synth)
            assert ok
            # spot check: equality of values after adding the correction
            for _ in range(5):
                p = tuple(F(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(dim))
                assert evaluate(net, p) == evaluate(synth, p) + vdot(g, p)
            done += 1

    def test_round_trip_wall_numbers(self):
        rng = random.Random(303)
        for _ in range(6):
            net = rand_shallow_net(rng, 2, max_width=4)
            s = support_of_network(net)
            report = criterion_check(s)
            synth = synthesize_shallow(report)
            synth_report = criterion_check(support_of_network(synth))
            ours = {g.normal: g.numbers[0] for g in report.groups}
            theirs = {g.normal: g.numbers[0] for g in synth_report.groups}
            assert ours == theirs

    def test_linear_shift_invariance(self):
        # adding a linear term changes no wall number
        rng = random.Random(404)
        from relutoric.exact_math import vadd
        for _ in range(6):
            net = rand_shallow_net(rng, 2, max_width=4)
            s = support_of_network(net)
            shift = (F(rng.randint(-5, 5), rng.randint(1, 5)),
                     F(rng.randint(-5, 5), rng.randint(1, 5)))
            shifted = support_on_fan(
                s.fan, [vadd(m, shift) for m in s.slopes])
            base = criterion_check(s)
            moved = criterion_check(shifted)
            assert ([g.numbers for g in base.groups]
                    == [g.numbers for g in moved.groups])
            assert base.realizable == moved.realizable


@st.composite
def shallow_nets(draw):
    """Unbiased one-hidden-layer nets, width 1-4 in dim 2-4; rows may be
    zero or parallel."""
    dim = draw(st.integers(2, 4))
    width = draw(st.integers(1, 4))
    row = st.lists(weights, min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=width, max_size=width))
    return network([rows, [draw(st.lists(weights, min_size=width, max_size=width))]])


def _sum_text(signed_terms) -> str:
    """An expr of the grammar from (sign, term) pairs, sign 1 or -1."""
    text = " ".join(f"{'-' if sign < 0 else '+'} {term}" for sign, term in signed_terms)
    return text.removeprefix("+ ") or "0"


def _linear_terms(coeffs):
    return [(c, f"{abs(c)}*x{i}") for i, c in enumerate(coeffs, 1) if c]


@st.composite
def shallow_expressions(draw):
    """Sums of c*max(l, l') over linear forms l, l', plus a linear term:
    each c*max(l, l') is c*l' + c*relu(l - l'), so these are realizable."""
    dim = draw(st.integers(2, 4))
    coeffs = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    scale = st.builds(F, st.integers(1, 3), st.integers(1, 2))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        pair = ", ".join(_sum_text(_linear_terms(draw(coeffs))) for _ in range(2))
        terms.append((draw(st.sampled_from([1, -1])), f"{draw(scale)}*max({pair})"))
    return dim, _sum_text(terms + _linear_terms(draw(coeffs)))


class TestShallowRoundTrip:
    """analyze and the CLI's realize on functions a shallow net computes:
    both decide realizable, synthesize the same net and correction, and
    their criterion-fan verification agrees with verify_up_to_linear."""

    def _round_trip(self, s, f, document, dim, seed):
        report = analyze(s)
        assert report.realizable
        synth = report.synthesis.network
        g = report.synthesis.correction_slope
        assert verify_synthesis(report, synth) == verify_up_to_linear(s, synth) == (True, g)

        payload = run_job(JobSpec("realize", document)).payload
        assert payload["realizable"]
        assert payload["synthesis"] == {
            "network": encode_network(synth),
            "linear_correction": {"slope": encode_vector(g), "constant": 0},
            "verified": True,
        }

        rng = random.Random(seed)
        for _ in range(5):
            x = rand_point(rng, dim)
            assert evaluate(synth, x) + vdot(g, x) == f(x)

    @settings(max_examples=40, deadline=None)
    @given(shallow_nets(), st.integers(0, 2**16))
    def test_nets(self, net, seed):
        self._round_trip(support_of_network(net), lambda x: evaluate(net, x),
                         {"network": encode_network(net)}, net.input_dim, seed)

    @settings(max_examples=40, deadline=None)
    @given(shallow_expressions(), st.integers(0, 2**16))
    def test_expressions(self, case, seed):
        dim, text = case
        expr = parse_expression(text, dim)
        self._round_trip(parse_and_compile(text, dim),
                         lambda x: evaluate_expression(expr, x),
                         {"dim": dim, "expr": text}, dim, seed)

    def test_altered_weight_fails_both_verifications(self):
        net = network([[[1, 0], [1, 1], [0, 1]], [[2, -1, 3]]])
        s = support_of_network(net)
        report = analyze(s)
        rows, (weights_out,) = report.synthesis.network.layers
        altered = network([rows, [(weights_out[0] + 1,) + weights_out[1:]]])
        assert verify_synthesis(report, altered)[0] is False
        assert verify_up_to_linear(s, altered)[0] is False


# ---------------------------------------------------------------------------
# the criterion fan against the arrangement it replaces
# ---------------------------------------------------------------------------

def reference_transfer_support(s, fan):
    """The slopes of s moved onto `fan` by point location: each cell takes
    the slope of the lowest-indexed cone of s whose closure holds the
    cell's interior point."""
    return support_on_fan(fan, [
        s.slopes[cone_containing(s.fan, cone.interior_point())]
        for cone in fan.maximal_cones])


def reference_criterion_fan(s):
    """The arrangement of the extended bend hyperplanes, always built, with
    the slopes located cell by cell."""
    fan = augmented_central_fan(nonlinear_locus_hyperplanes(s), s.fan.dim)
    return fan, reference_transfer_support(s, fan)


def reference_common_refinement(supports):
    fan = augmented_central_fan(
        [Hyperplane(wall.normal, EXTENDED) for s in supports for wall in s.fan.walls],
        supports[0].fan.dim)
    return [reference_transfer_support(s, fan) for s in supports]


@st.composite
def max_of_forms(draw):
    """max of 2-5 integer linear forms in dim 2-4; forms may repeat."""
    dim = draw(st.integers(2, 4))
    coeffs = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    forms = [_sum_text(_linear_terms(draw(coeffs))) for _ in range(draw(st.integers(2, 5)))]
    return dim, f"max({', '.join(forms)})"


@st.composite
def sixpiece_permutations(draw):
    """SIXPIECE_EXPR with its max arguments and its tail terms reordered."""
    args = draw(st.permutations(["4*x1 + 5*x2", "3*x1 + 6*x2", "3*x2", "0", "4*x1 - 4*x2"]))
    tail = draw(st.permutations([" - 2*max(0, x2)", " - 2*max(0, x1 - x2)",
                                 " - 2*max(0, x1 + x2)"]))
    return 2, "max(" + ", ".join(args) + ")" + "".join(tail)


@st.composite
def function_pairs(draw):
    """An expression and a shallow net in one dimension, 2 or 3."""
    dim = draw(st.integers(2, 3))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(weights, min_size=dim, max_size=dim),
                         min_size=width, max_size=width))
    net = network([rows, [draw(st.lists(weights, min_size=width, max_size=width))]])
    return compile_expression(draw(expressions(dim)), dim), support_of_network(net)


class TestCriterionFanAgainstReference:
    """The criterion fan is field for field the arrangement of the extended
    bend hyperplanes (rays, cones, walls with kind and neurons,
    hyperplanes), and carries the slopes point location gives, whether s.fan
    is reused or the slopes move by sign vector."""

    def _check(self, s):
        refined = criterion_fan(s)
        expected_fan, expected = reference_criterion_fan(s)
        assert refined.fan == expected_fan
        assert refined.slopes == expected.slopes

    @settings(max_examples=60, deadline=None)
    @given(nets())
    def test_nets(self, net):
        self._check(support_of_network(net))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.one_of(shallow_expressions(), max_of_forms(), sixpiece_permutations()).map(
            lambda case: parse_and_compile(case[1], case[0])),
        st.integers(2, 4).flatmap(
            lambda d: expressions(d).map(lambda expr: compile_expression(expr, d)))))
    def test_expressions(self, s):
        self._check(s)

    @settings(max_examples=40, deadline=None)
    @given(function_pairs())
    def test_common_refinement(self, pair):
        got = common_refinement(list(pair))
        expected = reference_common_refinement(list(pair))
        assert [(r.fan, r.slopes) for r in got] == [(r.fan, r.slopes) for r in expected]


@pytest.fixture
def calls(monkeypatch):
    """Counts of arrangements built (`central_fan`) and points located
    (`cone_containing`), wherever the package calls them from."""
    counts = {"central_fan": 0, "cone_containing": 0}
    for name in counts:
        original = getattr(fan_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in (fan_module, realizability):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def on_candidate_arrangement(text: str, dim: int) -> SupportFunction:
    """An expression on the arrangement of all its candidate hyperplanes,
    which refines the criterion fan: its compile before compiling by
    refinement."""
    return reference_compile_expression(parse_expression(text, dim), dim)


class TestCriterionFanPaths:
    """One case per way the criterion fan is made: s.fan reused, the
    arrangement built and keyed by sign vector, and the arrangement built
    with every cell located because no cone of s has an interior point off
    its hyperplanes.  Each agrees with the reference."""

    def _criterion(self, s, calls):
        expected_fan, expected = reference_criterion_fan(s)
        calls.update(central_fan=0, cone_containing=0)
        refined = criterion_fan(s)
        assert (refined.fan, refined.slopes) == (expected_fan, expected.slopes)
        return refined.fan

    @pytest.mark.parametrize("s", [
        on_candidate_arrangement("max(x1, x2, x3, 0)", 3),
        support_of_network(network([
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
             [1, 1, -1, 2], [2, -1, 1, 1]],
            [[1, -2, 3, F(1, 2), -1, 2]]])),
    ], ids=["max-of-four", "generic-4-6-1"])
    def test_reuse(self, s, calls):
        fan = self._criterion(s, calls)
        assert calls == {"central_fan": 0, "cone_containing": 0}
        assert fan.maximal_cones == s.fan.maximal_cones

    def test_keyed_coarsening(self, calls):
        s = on_candidate_arrangement("max(x1, x2, -x1, x1 - x2)", 2)
        fan = self._criterion(s, calls)
        assert calls == {"central_fan": 1, "cone_containing": 0}
        assert len(fan.maximal_cones) < len(s.fan.maximal_cones)

    @pytest.mark.parametrize("s", [
        support_of_network(network([[[1, 1], [1, -1], [1, -1]], [[1, 1, -1]]])),
        parse_and_compile("max(x1+x2,0) + max(x1-x2,0) - max(x1-x2,0)", 2),
    ], ids=["net", "expression"])
    def test_fallback(self, s, calls):
        fan = self._criterion(s, calls)
        assert calls == {"central_fan": 1, "cone_containing": len(fan.maximal_cones)}
