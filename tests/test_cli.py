import json
import random
import re
import time
from fractions import Fraction as F

import pytest

from relutoric import realizability
from relutoric.cli import _HANDLERS, build_parser, main
from relutoric.divisor import SupportFunction, newton_polytope, support_of_network
from relutoric.exact_math import mixed_volume
from relutoric.jsonio import decode_function, encode_fan, encode_rational, encode_vector
from relutoric.network import network
from conftest import GOLDEN_LAYERS, SIXPIECE_EXPR

GOLDEN_DOC = {"architecture": [2, 3, 1, 1], "layers": GOLDEN_LAYERS}
SIXPIECE_DOC = {"dim": 2, "expr": SIXPIECE_EXPR}


def run(capsys, tmp_path, command, doc, *flags):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(path), *flags])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, tmp_path, command, doc, *flags):
    code, out = run(capsys, tmp_path, command, doc, *flags)
    return code, json.loads(out)


class TestEval:
    def test_values(self, capsys, tmp_path):
        doc = dict(GOLDEN_DOC, points=[[2, 1], [0, 0], [-3, -5], ["1/2", "1/4"]])
        code, payload = run_json(capsys, tmp_path, "eval", doc)
        assert code == 0
        assert payload["values"] == [2, 0, 0, "1/2"]

    def test_neuron(self, capsys, tmp_path):
        doc = dict(GOLDEN_DOC, points=[[-3, -5]], neuron=[1, 3])
        code, payload = run_json(capsys, tmp_path, "eval", doc)
        assert code == 0
        assert payload["values"] == [2]

    def test_missing_points(self, capsys, tmp_path):
        code, _ = run(capsys, tmp_path, "eval", GOLDEN_DOC)
        assert code == 2


class TestFan:
    def test_golden_rays(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "fan", GOLDEN_DOC)
        assert code == 0
        assert payload["rays"] == [[1, 0], [1, 1], [-1, 0], [-1, -1], [0, -1]]
        assert payload["complete"] is True
        kinds = [w["provenance"]["kind"] for w in payload["walls"]]
        assert kinds.count("bent") == 1

    def test_svg_side_output(self, capsys, tmp_path):
        doc_path = tmp_path / "net.json"
        doc_path.write_text(json.dumps(GOLDEN_DOC))
        svg_path = tmp_path / "fan.svg"
        code = main(["fan", "--input", str(doc_path), "--svg", str(svg_path)])
        capsys.readouterr()
        assert code == 0
        assert svg_path.read_text().startswith("<?xml")


class TestDivisor:
    def test_golden(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "divisor", GOLDEN_DOC)
        assert code == 0
        assert payload["ray_coefficients"] == [-1, -1, 0, 0, 0]
        assert payload["slopes"] == [[1, 0], [0, 1], [0, 0], [0, 0], [1, 0]]

    def test_deterministic_bytes(self, capsys, tmp_path):
        _, first = run(capsys, tmp_path, "divisor", GOLDEN_DOC)
        _, second = run(capsys, tmp_path, "divisor", GOLDEN_DOC)
        assert first == second


class TestIntersect:
    def test_sixpiece_groups(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "intersect", SIXPIECE_DOC)
        assert code == 0
        groups = {tuple(g["hyperplane"]): g for g in payload["groups"]}
        assert groups[(0, 1)]["numbers"] == [-7, -1]
        assert groups[(0, 1)]["equal"] is False


class TestClassify:
    def test_negated_max(self, capsys, tmp_path):
        doc = {"dim": 2, "expr": "-max(0, x1, x2)"}
        code, payload = run_json(capsys, tmp_path, "classify", doc)
        assert code == 0
        assert payload["convex"] is True
        assert payload["basepoint_free"] is True
        assert payload["ample"] is False

    def test_sixpiece_neither(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "classify", SIXPIECE_DOC)
        assert payload["convex"] is False and payload["concave"] is False


class TestPolytopeAndVolume:
    def test_negated_polytope(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "polytope", GOLDEN_DOC, "--negate")
        assert code == 0
        assert payload["vertices"] == [[-1, 0], [0, -1], [0, 0]]

    def test_sections_of_d_empty(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "polytope", GOLDEN_DOC)
        assert payload["empty"] is True

    def test_newton(self, capsys, tmp_path):
        doc = {"dim": 2, "expr": "max(0, x1, x2)"}
        code, payload = run_json(capsys, tmp_path, "newton", doc)
        assert payload["vertices"] == [[0, 0], [0, 1], [1, 0]]

    def test_volume_report(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "volume", GOLDEN_DOC,
                                 "--m-max", "4")
        assert code == 0
        assert payload["line_bundle_volume"] == 1
        assert payload["newton_volume"] == 1
        assert payload["ehrhart"] == [6, 3, "20/9", "15/8"]


    @pytest.mark.parametrize("m_max", ["0", "-5"])
    def test_m_max_below_one_rejected(self, capsys, tmp_path, m_max):
        # the option is checked before the document, so an undecodable one
        # reports the m_max line too
        path = tmp_path / "input.json"
        for doc in (GOLDEN_DOC, {"nonsense": True}):
            path.write_text(json.dumps(doc))
            code = main(["volume", "--input", str(path), "--m-max", m_max])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: m_max must be at least 1, got {m_max}\n"

    def test_batch_m_max_below_one_rejected(self, capsys, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        for name, m_max, doc in (("a-zero", 0, GOLDEN_DOC), ("b-good", 2, GOLDEN_DOC),
                                 ("c-negative", -5, GOLDEN_DOC),
                                 ("d-undecodable", 0, {"nonsense": True})):
            (jobs / f"{name}.json").write_text(json.dumps(
                {"command": "volume", "input": doc, "flags": {"m_max": m_max}}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines == ["a-zero.json: m_max must be at least 1, got 0",
                         "c-negative.json: m_max must be at least 1, got -5",
                         "d-undecodable.json: m_max must be at least 1, got 0"]
        assert json.loads((jobs / "b-good.out.json").read_text())["ehrhart"] == [6, 3]
        assert not (jobs / "a-zero.out.json").exists()


def _random_layers(rng, widths, convex):
    """Weights p/q with |p| <= 5, q <= 3; nonnegative after the first layer
    when `convex`, which makes the net a convex function."""
    def weight(k):
        w = F(rng.randint(-5, 5), rng.randint(1, 3))
        return abs(w) if convex and k > 0 else w
    return [[[weight(k) for _ in range(widths[k])] for _ in range(widths[k + 1])]
            for k in range(len(widths) - 1)]


class TestNewtonVolume:
    """`volume` reports `newton_volume` from the section polytope it holds;
    it must be the volume of `newton`'s polytope, and null where `newton`
    fails."""

    @pytest.mark.parametrize("convex", [True, False])
    def test_matches_newton(self, capsys, tmp_path, convex):
        rng = random.Random(11 if convex else 12)
        nulls = 0
        for i in range(16):
            dim = 2 + i % 2
            widths = [dim] + [rng.randint(1, 4) for _ in range(1 + i % 3)] + [1]
            layers = _random_layers(rng, widths, convex)
            doc = {"architecture": widths, "layers": [
                [[str(w) for w in row] for row in layer] for layer in layers]}
            code, out = run(capsys, tmp_path, "newton", doc)
            assert code in (0, 2)
            code_v, payload = run_json(capsys, tmp_path, "volume", doc, "--m-max", "1")
            assert code_v == 0
            if code == 2:
                nulls += 1
                assert payload["newton_volume"] is None
            else:
                s = support_of_network(network(layers))
                expected = mixed_volume(newton_polytope(s))
                assert payload["newton_volume"] == encode_rational(expected)
        assert nulls == 0 if convex else nulls > 0


class TestSectionPolytopeCases:
    """Divisors that are not nef, with empty or lower-dimensional section
    polytopes; the benchmark corpus reaches none of them."""

    @pytest.mark.parametrize("flags", [(), ("--negate",)])
    def test_difference_of_maxima_has_no_sections(self, capsys, tmp_path, flags):
        doc = {"dim": 2, "expr": "max(x1, x2) - max(x1, 0)"}
        code, payload = run_json(capsys, tmp_path, "polytope", doc, *flags)
        assert code == 0
        assert payload == {"dimension": 2, "vertices": [], "empty": True}

    @pytest.mark.parametrize("flags, vertex", [((), [1, 1]), (("--negate",), [-1, -1])])
    def test_linear_function_gives_a_point(self, capsys, tmp_path, flags, vertex):
        doc = {"dim": 2, "expr": "x1 + x2"}
        code, payload = run_json(capsys, tmp_path, "polytope", doc, *flags)
        assert code == 0
        assert payload == {"dimension": 2, "vertices": [vertex], "empty": False}

    def test_segment_in_space(self, capsys, tmp_path):
        doc = {"dim": 3, "expr": "max(x1, 0)"}
        code, payload = run_json(capsys, tmp_path, "volume", doc, "--m-max", "2")
        assert code == 0
        assert payload["polytope"]["vertices"] == [[-1, 0, 0], [0, 0, 0]]
        assert payload["line_bundle_volume"] == 0
        assert payload["newton_volume"] == 0
        assert payload["ehrhart"] == [12, "9/4"]

    def test_empty_volume(self, capsys, tmp_path):
        doc = {"dim": 2, "expr": "max(x1, -x1) - 2*max(x2, -x2)"}
        code, payload = run_json(capsys, tmp_path, "volume", doc, "--m-max", "2")
        assert code == 0
        assert payload["polytope"]["empty"] is True
        assert payload["line_bundle_volume"] == 0
        assert payload["newton_volume"] is None
        assert payload["ehrhart"] == [0, 0]


class TestReduceAndShift:
    def test_reduce(self, capsys, tmp_path):
        doc = {"architecture": [2, 1, 1],
               "layers": [[["2/3", "4/3"]], [[3]]]}
        code, payload = run_json(capsys, tmp_path, "reduce", doc)
        assert code == 0
        assert payload["layers"] == [[[1, 2]], [[2]]]

    def test_shift(self, capsys, tmp_path):
        doc = dict(GOLDEN_DOC, g={"slope": [1, 1], "constant": 0})
        code, payload = run_json(capsys, tmp_path, "shift", doc)
        assert code == 0
        assert payload["architecture"] == [2, 5, 3, 1]


class TestRealize:
    def test_not_realizable_exit_code(self, capsys, tmp_path):
        code, payload = run_json(capsys, tmp_path, "realize", SIXPIECE_DOC)
        assert code == 0
        assert payload["realizable"] is False
        assert payload["witness"]["hyperplane"] == [0, 1]
        assert payload["witness"]["numbers"] == [-7, -1]

    def test_expect_realizable_gate(self, capsys, tmp_path):
        code, _ = run(capsys, tmp_path, "realize", SIXPIECE_DOC,
                      "--expect-realizable")
        assert code == 3

    def test_synthesis_payload(self, capsys, tmp_path):
        doc = {"architecture": [2, 2, 1], "layers": [[[1, 0], [0, 1]], [[3, -2]]]}
        code, payload = run_json(capsys, tmp_path, "realize", doc)
        assert code == 0
        assert payload["realizable"] is True
        net = payload["synthesis"]["network"]
        assert net["architecture"] == [2, 2, 1]
        assert payload["synthesis"]["verified"] is True

    def test_failed_verification_is_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(realizability, "verify_synthesis",
                            lambda report, net: (False, (F(0), F(0))))
        doc = {"dim": 2, "expr": "max(x1, 0) - 2*max(x1 - x2, 0)"}
        code, payload = run_json(capsys, tmp_path, "realize", doc)
        assert code == 0
        assert payload["realizable"] is True
        assert payload["synthesis"]["verified"] is False


class TestRender:
    def test_deterministic(self, capsys, tmp_path):
        _, first = run(capsys, tmp_path, "render", GOLDEN_DOC)
        _, second = run(capsys, tmp_path, "render", GOLDEN_DOC)
        assert first == second
        assert "#cc0000" in first  # the bent wall is drawn in red

    def test_three_dim_rejected(self, capsys, tmp_path):
        doc = {"architecture": [3, 1, 1], "layers": [[[1, 1, 1]], [[1]]]}
        code, _ = run(capsys, tmp_path, "render", doc)
        assert code == 2


class TestFunctionDocuments:
    def test_fan_and_slopes_input(self, capsys, tmp_path):
        doc = {
            "dim": 2,
            "fan": {
                "dim": 2,
                "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                "cones": [{"rays": [0, 1]}, {"rays": [1, 2]},
                          {"rays": [2, 3]}, {"rays": [3, 0]}],
            },
            "slopes": [[1, 1], [0, 1], [0, 0], [1, 0]],
        }
        code, payload = run_json(capsys, tmp_path, "classify", doc)
        assert code == 0
        assert payload["concave"] is True  # max{0,x} + max{0,y} is convex as a function

    def test_malformed_document(self, capsys, tmp_path):
        code, _ = run(capsys, tmp_path, "divisor", {"nonsense": 1})
        assert code == 2

    def test_cone_and_ray_order_do_not_matter(self, capsys, tmp_path):
        # max{0, x, y}; each slope follows its cone
        rays = [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]]
        cones = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
        slopes = [[1, 0], [0, 1], [0, 1], [0, 0], [1, 0]]
        ordered = {"dim": 2, "fan": {"dim": 2, "rays": rays, "cones": cones},
                   "slopes": slopes}
        reversed_doc = {"dim": 2, "fan": {"dim": 2, "rays": rays,
                                          "cones": [c[::-1] for c in cones[::-1]]},
                        "slopes": slopes[::-1]}
        code, expected = run(capsys, tmp_path, "divisor", ordered)
        assert code == 0
        assert run(capsys, tmp_path, "divisor", reversed_doc) == (0, expected)
        assert json.loads(expected)["slopes"] == slopes
        # nets in space: each cone's slope follows it through every command
        rng = random.Random(3)
        commands = sorted(command for command, (_, kind) in _HANDLERS.items()
                          if kind is SupportFunction and command != "render")
        for arch in ([3, 4, 1], [4, 3, 2, 1]):
            layers = [[[rng.randint(-3, 3) for _ in range(n_in)] for _ in range(n_out)]
                      for n_in, n_out in zip(arch, arch[1:])]
            s = support_of_network(network(layers))
            ordered = {"fan": encode_fan(s.fan), "slopes": [encode_vector(m) for m in s.slopes]}
            pairs = list(zip(ordered["fan"]["cones"], ordered["slopes"]))
            rng.shuffle(pairs)
            shuffled = {"fan": dict(ordered["fan"], cones=[rng.sample(c["rays"], len(c["rays"]))
                                                          for c, _ in pairs]),
                        "slopes": [m for _, m in pairs]}
            assert shuffled["fan"]["cones"] != [c["rays"] for c in ordered["fan"]["cones"]]
            for command in commands:  # `newton` exits 2 on these non-convex functions
                expected = run(capsys, tmp_path, command, ordered)
                assert expected[0] == (2 if command == "newton" else 0)
                assert run(capsys, tmp_path, command, shuffled) == expected


class TestTextFormat:
    def test_text_output(self, capsys, tmp_path):
        code, out = run(capsys, tmp_path, "classify",
                        {"dim": 2, "expr": "-max(0, x1, x2)"}, "--format", "text")
        assert code == 0
        assert "basepoint_free: true" in out


class TestBatch:
    def test_batch_directory(self, capsys, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "a.json").write_text(json.dumps(
            {"command": "divisor", "input": GOLDEN_DOC}))
        (jobs / "b.json").write_text(json.dumps(
            {"command": "volume", "input": GOLDEN_DOC, "flags": {"m_max": 2}}))
        code = main(["--batch", str(jobs)])
        capsys.readouterr()
        assert code == 0
        a = json.loads((jobs / "a.out.json").read_text())
        assert a["ray_coefficients"] == [-1, -1, 0, 0, 0]
        b = json.loads((jobs / "b.out.json").read_text())
        assert b["ehrhart"] == [6, 3]

    def test_batch_reports_failures(self, capsys, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "bad.json").write_text(json.dumps(
            {"command": "divisor", "input": {"nonsense": True}}))
        code = main(["--batch", str(jobs)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.json" in err

    @pytest.mark.parametrize("with_failure", [False, True])
    def test_batch_expect_realizable_exits_3(self, capsys, tmp_path, with_failure):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "gate.json").write_text(json.dumps(
            {"command": "realize",
             "input": {"dim": 2, "expr": "max(x1, x2, 0) - max(x1, 0)"},
             "flags": {"expect_realizable": True}}))
        if with_failure:
            (jobs / "bad.json").write_text(json.dumps(
                {"command": "divisor", "input": {"nonsense": True}}))
        code = main(["--batch", str(jobs)])
        capsys.readouterr()
        # the report is written either way; a failed document wins over 3
        assert code == (2 if with_failure else 3)
        assert json.loads((jobs / "gate.out.json").read_text())["realizable"] is False

    def test_batch_non_string_command(self, capsys, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        for name in ("a-good", "c-good"):
            (jobs / f"{name}.json").write_text(json.dumps(
                {"command": "divisor", "input": GOLDEN_DOC}))
        (jobs / "b-list.json").write_text(json.dumps({"command": ["fan"], "input": {}}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines == ["b-list.json: command must be a string, got ['fan']"]
        assert (jobs / "a-good.out.json").exists() and (jobs / "c-good.out.json").exists()

    @pytest.mark.parametrize("command, key, value", [("volume", "m-max", 2),
                                                     ("fan", "negate", True)])
    def test_batch_flag_of_another_command(self, capsys, tmp_path, command, key, value):
        # a misspelled flag, or another command's, used to run with the default
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "a-flag.json").write_text(json.dumps(
            {"command": command, "input": GOLDEN_DOC, "flags": {key: value}}))
        (jobs / "b-good.json").write_text(json.dumps(
            {"command": "divisor", "input": GOLDEN_DOC}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines == [f"a-flag.json: {command} takes no flag {key!r}"]
        assert not (jobs / "a-flag.out.json").exists()
        good = json.loads((jobs / "b-good.out.json").read_text())
        assert good["ray_coefficients"] == [-1, -1, 0, 0, 0]


ONE_CONE_DOC = {"dim": 2, "fan": {"dim": 2, "rays": [[1, 0], [0, 1]],
                                  "cones": [{"rays": [0, 1]}]},
                "slopes": [[1, 2]]}


def run_error(capsys, tmp_path, command, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestInputBoundary:
    """Malformed documents end in exit 2 with an error line, not a traceback."""

    def test_non_integer_architecture(self, capsys, tmp_path):
        doc = dict(GOLDEN_DOC, architecture=[2, "three", 1, 1])
        code, err = run_error(capsys, tmp_path, "intersect", doc)
        assert code == 2
        assert err.startswith("error: architecture width must be an integer")

    def test_ray_index_out_of_range(self, capsys, tmp_path):
        doc = {"dim": 2, "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                                 "cones": [[0, 1], [1, 2], [2, 5]]},
               "slopes": [[0, 0], [0, 0], [0, 0]]}
        code, err = run_error(capsys, tmp_path, "divisor", doc)
        assert code == 2
        assert err.startswith("error: cone refers to ray 5; there are 3 rays")

    @pytest.mark.parametrize("dim, line", [
        (3, "error: dim 3 is not the fan's 2\n"),
        ("x", "error: dim must be an integer, got 'x'\n"),
    ], ids=["other-dimension", "not-an-integer"])
    def test_outer_dim_of_a_fan_document(self, capsys, tmp_path, dim, line):
        doc = {"dim": dim, "fan": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                   "cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
               "slopes": [[1, 2]] * 4}
        assert run_error(capsys, tmp_path, "divisor", doc) == (2, line)

    def test_dimension_one_network(self, capsys, tmp_path):
        doc = {"architecture": [1, 2, 1], "layers": [[[1], [-2]], [[1, 1]]]}
        code, err = run_error(capsys, tmp_path, "fan", doc)
        assert code == 2
        assert err.startswith("error: central fans need ambient dimension >= 2")
        # evaluation needs no fan and keeps working in dimension one
        code, payload = run_json(capsys, tmp_path, "eval",
                                 dict(doc, points=[[3], [-1]]))
        assert code == 0
        assert payload["values"] == [3, 2]

    def test_dimension_one_fan_document(self, capsys, tmp_path):
        # both half-lines used to match the first documented cone, which
        # silently gave them the same slope
        doc = {"dim": 1, "fan": {"dim": 1, "rays": [[1], [-1]], "cones": [[0], [1]]},
               "slopes": [[1], [2]]}
        code, err = run_error(capsys, tmp_path, "divisor", doc)
        assert code == 2
        assert err.startswith("error: fans need ambient dimension >= 2, got 1")

    def test_non_integer_neuron_id(self, capsys, tmp_path):
        doc = dict(GOLDEN_DOC, points=[[1, 2]], neuron=["one", 2])
        code, err = run_error(capsys, tmp_path, "eval", doc)
        assert code == 2
        assert err.startswith("error: neuron layer must be an integer")

    def test_incomplete_fan_rejected(self, capsys, tmp_path):
        code, err = run_error(capsys, tmp_path, "divisor", ONE_CONE_DOC)
        assert code == 2
        assert err.startswith("error: fan is not complete: facet ((0, 1),) has 1")

    @pytest.mark.parametrize("command", ["fan", "divisor", "intersect", "realize"])
    @pytest.mark.parametrize("fan, message", [
        # a pentagram: every ray bounds two cones on opposite sides, and the
        # cones wind around the origin twice
        ({"dim": 2, "rays": [[1, 0], [-4, 3], [1, -3], [1, 3], [-4, -3]],
          "cones": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
         "error: not a fan: the generic point (1, 6) lies inside 2 maximal cones"),
        # three nested cones in one quadrant; every ray bounds two of them
        ({"dim": 2, "rays": [[1, 0], [2, 1], [1, 1]], "cones": [[0, 2], [0, 1], [1, 2]]},
         "error: fan is not complete: facet ((1, 0),) bounds two cones on one side"),
    ], ids=["pentagram", "nested"])
    def test_cones_that_are_not_a_fan(self, capsys, tmp_path, command, fan, message):
        # both documents used to give divisors and realizability, with exit 0
        doc = {"dim": 2, "fan": fan, "slopes": [[0, 0]] * len(fan["cones"])}
        code, err = run_error(capsys, tmp_path, command, doc)
        assert code == 2
        assert err.startswith(message)

    @pytest.mark.parametrize("doc, named", [
        ({"network": GOLDEN_DOC, "function": SIXPIECE_DOC}, "'network' and 'function'"),
        ({"network": GOLDEN_DOC, "layers": GOLDEN_LAYERS}, "'network' and 'layers'"),
        (dict(GOLDEN_DOC, dim=2, expr=SIXPIECE_EXPR), "'layers' and 'expr'"),
        (dict(ONE_CONE_DOC, layers=GOLDEN_LAYERS), "'layers' and 'fan'"),
        (dict(ONE_CONE_DOC, expr=SIXPIECE_EXPR), "'expr' and 'fan'"),
    ], ids=["network-function", "network-layers", "layers-expr", "layers-fan", "expr-fan"])
    def test_document_with_two_inputs(self, capsys, tmp_path, doc, named):
        # such a document used to be read as its first form, with exit 0
        message = f"document holds two inputs, {named}"
        assert run_error(capsys, tmp_path, "fan", doc) == (2, f"error: {message}\n")
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "job.json").write_text(json.dumps({"command": "fan", "input": doc}))
        assert main(["--batch", str(jobs)]) == 2
        assert capsys.readouterr().err == f"job.json: {message}\n"
        assert not (jobs / "job.out.json").exists()

    def test_nested_function_with_two_inputs(self, capsys, tmp_path):
        # such a document used to be read as its expression, with exit 0
        doc = {"function": dict(ONE_CONE_DOC, expr="max(x1, x2)")}
        message = "document holds two inputs, 'expr' and 'fan'"
        assert run_error(capsys, tmp_path, "newton", doc) == (2, f"error: {message}\n")
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "job.json").write_text(json.dumps({"command": "newton", "input": doc}))
        assert main(["--batch", str(jobs)]) == 2
        assert capsys.readouterr().err == f"job.json: {message}\n"
        assert not (jobs / "job.out.json").exists()

    def test_non_list_layers(self, capsys, tmp_path):
        code, err = run_error(capsys, tmp_path, "intersect", {"layers": 5})
        assert code == 2
        assert err.startswith("error: layers must be a list, got 5")

    def test_non_list_biases(self, capsys, tmp_path):
        code, err = run_error(capsys, tmp_path, "intersect", dict(GOLDEN_DOC, biases=5))
        assert code == 2
        assert err.startswith("error: biases must be a list, got 5")

    def test_non_list_points(self, capsys, tmp_path):
        code, err = run_error(capsys, tmp_path, "eval", dict(GOLDEN_DOC, points=5))
        assert code == 2
        assert err.startswith("error: eval needs a nonempty 'points' list")

    @pytest.mark.parametrize("command", ["fan", "divisor", "intersect", "classify",
                                         "polytope", "newton", "volume", "realize",
                                         "render"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_slopes_of_the_wrong_length(self, capsys, tmp_path, command, length):
        # vdot zips to the shorter vector, so these used to end in a
        # traceback, or in a report of slopes that do not fit the fan
        doc = {"dim": 2, "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                 "cones": [[0, 1], [1, 2], [2, 3], [3, 0]]},
               "slopes": [[1] * length] * 4}
        code, err = run_error(capsys, tmp_path, command, doc)
        assert code == 2
        assert err.startswith(f"error: a slope has {length} entries, expected 2")

    def test_non_string_expression(self, capsys, tmp_path):
        code, err = run_error(capsys, tmp_path, "realize", {"dim": 2, "expr": 5})
        assert code == 2
        assert err.startswith("error: 'expr' must be a string, got 5")

    def test_cone_with_a_line(self, capsys, tmp_path):
        doc = {"dim": 2, "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                 "cones": [[0, 1, 2], [2, 3], [3, 0]]},
               "slopes": [[0, 0]] * 3}
        code, err = run_error(capsys, tmp_path, "divisor", doc)
        assert code == 2
        assert err.startswith("error: cone 0 contains a line")

    def test_planar_cone_with_an_inner_ray(self, capsys, tmp_path):
        doc = {"dim": 2, "fan": {"dim": 2,
                                 "rays": [[1, 0], [1, 1], [0, 1], [-1, 0], [0, -1]],
                                 "cones": [[0, 1, 2], [2, 3], [3, 4], [4, 0]]},
               "slopes": [[0, 0]] * 4}
        code, err = run_error(capsys, tmp_path, "divisor", doc)
        assert code == 2
        assert err.startswith("error: cone 0 lists ray [1, 1], which is not extreme")

    def test_spatial_cone_with_a_ray_on_a_facet(self, capsys, tmp_path):
        # (1, 1, 0) lies on a facet of the first octant; it used to be
        # reported as a ray of the fan, with exit 0
        rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1],
                [1, 1, 0]]
        cones = [[0, 1, 2, 6], [3, 1, 2], [0, 4, 2], [3, 4, 2],
                 [0, 1, 5], [3, 1, 5], [0, 4, 5], [3, 4, 5]]
        doc = {"dim": 3, "fan": {"dim": 3, "rays": rays, "cones": cones},
               "slopes": [[0, 0, 0]] * 8}
        code, err = run_error(capsys, tmp_path, "divisor", doc)
        assert code == 2
        assert err.startswith("error: cone 0 lists ray [1, 1, 0], which is not extreme")

    def test_flat_cone(self, capsys, tmp_path):
        doc = {"dim": 3, "fan": {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0]],
                                 "cones": [[0, 1]]},
               "slopes": [[0, 0, 0]]}
        code, err = run_error(capsys, tmp_path, "divisor", doc)
        assert code == 2
        assert err.startswith("error: cone 0 is not full-dimensional")

    @pytest.mark.parametrize("biases", [[[0, 0, 0]], [[0, 0, 0], [0], [0]]])
    @pytest.mark.parametrize("command", ["eval", "divisor"])
    def test_bias_count_differs_from_layer_count(self, capsys, tmp_path, command, biases):
        doc = {"architecture": [2, 3, 1],
               "layers": [[[0, 1], [0, -1], [1, -1]], [[1, -1, 1]]],
               "biases": biases, "points": [[1, 2]]}
        code, err = run_error(capsys, tmp_path, command, doc)
        assert code == 2
        assert err.startswith(
            f"error: layer 0: expected 2 bias vectors, got {len(biases)}")

    def test_zero_denominator_in_expression(self, capsys, tmp_path):
        doc = {"dim": 2, "expr": "max(x1, x2, 1/0)"}
        code, err = run_error(capsys, tmp_path, "realize", doc)
        assert code == 2
        assert err.startswith("error: at offset 14: zero denominator")

    def test_batch_runs_past_bad_documents(self, capsys, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "a-architecture.json").write_text(json.dumps(
            {"command": "intersect",
             "input": dict(GOLDEN_DOC, architecture=[2, "three", 1, 1])}))
        (jobs / "b-one-cone.json").write_text(json.dumps(
            {"command": "divisor", "input": ONE_CONE_DOC}))
        (jobs / "c-good.json").write_text(json.dumps(
            {"command": "divisor", "input": GOLDEN_DOC}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert [line.split(":")[0] for line in lines] == [
            "a-architecture.json", "b-one-cone.json"]
        good = json.loads((jobs / "c-good.out.json").read_text())
        assert good["ray_coefficients"] == [-1, -1, 0, 0, 0]
        assert not (jobs / "a-architecture.out.json").exists()

    @pytest.mark.parametrize("command, flag", [("polytope", "negate"),
                                               ("realize", "expect_realizable")])
    def test_batch_flag_must_be_boolean(self, capsys, tmp_path, command, flag):
        # "false" is a truthy string: it used to negate the polytope (or
        # arm the realizability gate) and exit 0
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "job.json").write_text(json.dumps(
            {"command": command, "input": GOLDEN_DOC, "flags": {flag: "false"}}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert lines == [f"job.json: {flag} must be true or false, got 'false'"]
        assert not (jobs / "job.out.json").exists()

    @pytest.mark.parametrize("value", [True, False, "false"])
    def test_negate_key_is_rejected(self, capsys, tmp_path, value):
        # the key used to negate the polytope beside --negate; a document
        # that still carries it fails instead of silently changing sign
        code, err = run_error(capsys, tmp_path, "polytope", dict(GOLDEN_DOC, negate=value))
        assert code == 2
        assert err == "error: polytope takes --negate, not a 'negate' key in the document\n"

    @pytest.mark.parametrize("text", ["1e1000000000", "1.5", "1e5", " 1", "1_0", "١",
                                      "1/-2", "1/0", "1/00"])
    def test_only_documented_rational_strings(self, capsys, tmp_path, text):
        # Fraction also reads decimal and exponent forms, and "1e1000000000"
        # is an integer of 10**9 digits
        for doc in (dict(GOLDEN_DOC, points=[[text, 1]]),
                    {"layers": [[[text, 1]], [[1]]], "points": [[1, 1]]}):
            start = time.perf_counter()
            code, err = run_error(capsys, tmp_path, "eval", doc)
            assert time.perf_counter() - start < 1
            assert (code, err) == (2, f"error: expected int or 'p/q' string, got {text!r}\n")

    @pytest.mark.parametrize("value, named", [
        ("9" * 5000, "bad rational str of length 5000: Exceeds the limit"),
        ("x" * 100000, "expected int or 'p/q' string, got str of length 100000"),
        ([0] * 100000, "expected int or 'p/q' string, got list of length 100000"),
    ], ids=["past-digit-limit", "long-string", "long-list"])
    def test_long_values_named_by_kind_and_length(self, capsys, tmp_path, value, named):
        code, err = run_error(capsys, tmp_path, "eval", dict(GOLDEN_DOC, points=[[value, 1]]))
        assert code == 2
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("job, named", [
        ({"command": "x" * 5000}, "unknown command str of length 5000"),
        ({"command": "x" * 5000, "flags": {"m_max": 2}}, "unknown command str of length 5000"),
        ({"command": ["fan"] * 3000}, "command must be a string, got list of length 3000"),
        ({"command": "fan", "flags": {"f" * 3000: 1}}, "fan takes no flag str of length 3000"),
        ({"command": "eval", "input": dict(GOLDEN_DOC, points=[[1, 1]], neuron=[1] * 3000)},
         "'neuron' must be [layer, index], got list of length 3000"),
    ], ids=["long-command", "long-command-with-flag", "list-command", "long-flag",
            "long-neuron"])
    def test_long_job_values_named_by_kind_and_length(self, capsys, tmp_path, job, named):
        # each line used to echo the whole value, 3000 to 17000 characters
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "job.json").write_text(json.dumps(dict({"input": GOLDEN_DOC}, **job)))
        assert main(["--batch", str(jobs)]) == 2
        err = capsys.readouterr().err
        assert err == f"job.json: {named}\n"
        assert len(err.encode()) < 200


# a convex shallow net, which every command takes, and the
# {"fan", "slopes"} document of its support
SHALLOW_LAYERS = [[[1, 0], [0, 1], [1, -1]], [[1, 2, "1/2"]]]
SHALLOW_DOC = {"architecture": [2, 3, 1], "layers": SHALLOW_LAYERS}
SHALLOW_SUPPORT = support_of_network(network(SHALLOW_LAYERS))
SHALLOW_SUPPORT_DOC = {"fan": encode_fan(SHALLOW_SUPPORT.fan),
                       "slopes": [encode_vector(m) for m in SHALLOW_SUPPORT.slopes]}
# what a command needs besides its network or function
EXTRAS = {"eval": {"points": [[2, 1], ["1/2", -3]]}, "shift": {"g": {"slope": [1, 0]}}}


def _without_provenance(command, report):
    """A fan document carries no wall provenance, so `intersect`'s
    provenance field and `render`'s wall colours are left out."""
    if command == "intersect":
        payload = json.loads(report)
        for wall in payload["walls"]:
            del wall["provenance"]
        return payload
    if command == "render":
        return re.sub(r'stroke="#[0-9a-f]{6}"', 'stroke=""', report)
    return report


class TestCommandTable:
    """Each command reads the input its `_HANDLERS` row names, on the command
    line and in a batch alike."""

    def _command_line(self, capsys, tmp_path, command, name, doc):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.report"
        path.write_text(json.dumps(doc))
        code = main([command, "--input", str(path), "--output", str(out)])
        lines = capsys.readouterr().err.splitlines()
        return code, lines, out.read_text() if out.exists() else None

    def _batch(self, capsys, tmp_path, command, docs):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        for name, doc in docs.items():
            (jobs / f"{name}.json").write_text(json.dumps({"command": command, "input": doc}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        reports = {path.name.split(".")[0]: path.read_text()
                   for pattern in ("*.out.json", "*.svg") for path in jobs.glob(pattern)}
        return code, lines, reports

    @pytest.mark.parametrize("command", sorted(_HANDLERS))
    def test_network_and_function_documents(self, capsys, tmp_path, command):
        extras = EXTRAS.get(command, {})
        docs = {"net": dict(SHALLOW_DOC, **extras),
                "function": dict(SHALLOW_SUPPORT_DOC, **extras)}
        cli = {name: self._command_line(capsys, tmp_path, command, name, doc)
               for name, doc in docs.items()}
        code, lines, reports = self._batch(capsys, tmp_path, command, docs)
        assert cli["net"][:2] == (0, [])
        if command in ("eval", "reduce", "shift"):
            assert cli["function"] == (
                2, ["error: this command needs a network document"], None)
            assert (code, lines) == (
                2, ["function.json: this command needs a network document"])
        else:
            assert cli["function"][:2] == (code, lines) == (0, [])
            net_report, function_report = cli["net"][2], cli["function"][2]
            if command == "fan":
                fan = decode_function(SHALLOW_SUPPORT_DOC).fan
                assert json.loads(function_report) == dict(
                    encode_fan(fan), complete=True, valid=True)
            else:
                assert (_without_provenance(command, function_report)
                        == _without_provenance(command, net_report))
        assert reports == {name: report for name, (_, _, report) in cli.items()
                           if report is not None}


class TestParserReuse:
    """One process builds the parser once; no flag of one call reaches the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_m_max_resets(self, capsys, tmp_path):
        code, first = run_json(capsys, tmp_path, "volume", GOLDEN_DOC, "--m-max", "3")
        assert (code, first["m_max"]) == (0, 3)
        code, second = run_json(capsys, tmp_path, "volume", GOLDEN_DOC)
        assert (code, second["m_max"]) == (0, 8)

    def test_negate_resets(self, capsys, tmp_path):
        code, first = run_json(capsys, tmp_path, "polytope", GOLDEN_DOC, "--negate")
        assert (code, first["vertices"]) == (0, [[-1, 0], [0, -1], [0, 0]])
        code, second = run_json(capsys, tmp_path, "polytope", GOLDEN_DOC)
        assert (code, second["empty"]) == (0, True)

    def test_expect_realizable_resets(self, capsys, tmp_path):
        code, _ = run(capsys, tmp_path, "realize", SIXPIECE_DOC, "--expect-realizable")
        assert code == 3
        code, payload = run_json(capsys, tmp_path, "realize", SIXPIECE_DOC)
        assert (code, payload["realizable"]) == (0, False)

    def test_help_and_bad_flag_leave_it_usable(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        with pytest.raises(SystemExit) as info:
            main(["volume", "--no-such-flag"])
        assert info.value.code == 2
        capsys.readouterr()
        code, payload = run_json(capsys, tmp_path, "volume", GOLDEN_DOC)
        assert (code, payload["line_bundle_volume"]) == (0, 1)


NINES = "9" * 3000


def run_text(capsys, tmp_path, argv, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestUnreadableAndUnwritable:
    """Input past the parser's nesting bound, JSON past its recursion limit,
    numbers past the interpreter's digit limit and reports that would hold
    them end in exit 2 with one line, not a traceback."""

    @pytest.mark.parametrize("argv, text, line", [
        (["classify"], json.dumps({"dim": 2, "expr": "max(" * 400 + "x1, x2" + ")" * 400}),
         "error: at offset 400: max and min nested deeper than 100"),
        (["fan"], '{"layers": ' + "[" * 100000 + "]" * 100000 + "}",
         "cannot read input: maximum recursion depth exceeded"),
        (["classify"], json.dumps({"dim": 2, "expr": "max(x1, " + "9" * 5000 + "*x2)"}),
         "error: at offset 8: cannot read the 5000-digit number: Exceeds the limit"),
        (["classify"], json.dumps({"dim": 2, "expr": "max(x1, x" + "1" * 5000 + ")"}),
         "error: at offset 9: cannot read the 5000-digit number: Exceeds the limit"),
        (["classify"], json.dumps({"dim": 2, "expr": "max(x1, x²)"}),
         "error: at offset 9: cannot read the 1-digit number: invalid literal"),
        (["fan"], '{"layers": [[[' + "7" * 5000 + ", 1]], [[1]]]}",
         "cannot read input: Exceeds the limit"),
        (["divisor"], json.dumps({"dim": 2, "expr": f"{NINES}*max({NINES}*x1, x2)"}),
         "error: cannot write the report: Exceeds the limit"),
        (["divisor", "--format", "text"],
         json.dumps({"dim": 2, "expr": f"{NINES}*max({NINES}*x1, x2)"}),
         "error: cannot write the report: Exceeds the limit"),
        (["divisor"], json.dumps({"dim": 2, "expr": f"1/{NINES}*max({NINES}*x1, 7/{NINES}*x2)"}),
         "error: cannot write the report: Exceeds the limit"),
        (["classify"], json.dumps({"dim": 2, "expr": f"max(x1, {NINES}*{NINES})"}),
         "error: a constant too long to print inside max breaks homogeneity"),
        (["classify"], json.dumps({"dim": 2, "expr": f"max(x1, x2) + {NINES}*{NINES}"}),
         "error: a constant too long to print breaks homogeneity"),
    ], ids=["nested-max", "nested-json", "long-coefficient", "long-index", "unicode-index",
            "long-json-number", "long-report-integer", "long-text-integer",
            "long-report-rational", "long-constant-inside-max", "long-constant"])
    def test_exit_2_with_one_line(self, capsys, tmp_path, argv, text, line):
        code, err = run_text(capsys, tmp_path, argv, text)
        assert code == 2
        assert err.startswith(line) and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["fan", "--output", "{missing}/r.json"],
        ["fan", "--svg", "{missing}/x.svg"],
        ["render", "--output", "{missing}/x.svg"],
    ], ids=["fan-output", "fan-svg", "render-output"])
    def test_unwritable_output(self, capsys, tmp_path, argv):
        argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
        code, err = run_text(capsys, tmp_path, argv, json.dumps(GOLDEN_DOC))
        assert code == 2
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1

    def test_input_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_bytes(b'\xff{"dim": 2}')
        assert main(["fan", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("cannot read input: 'utf-8' codec")

    def test_batch_goes_on_after_an_unreadable_document(self, capsys, tmp_path):
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        (jobs / "a.json").write_text(json.dumps(
            {"command": "classify",
             "input": {"dim": 2, "expr": "max(" * 400 + "x1, x2" + ")" * 400}}))
        (jobs / "b.json").write_text(json.dumps(
            {"command": "classify", "input": {"dim": 2, "expr": "max(x1, x2)"}}))
        (jobs / "c.json").write_text(json.dumps(
            {"command": "divisor",
             "input": {"dim": 2, "expr": f"{NINES}*max({NINES}*x1, x2)"}}))
        (jobs / "d.json").write_text('{"command": "fan", "input": '
                                     + "[" * 100000 + "]" * 100000 + "}")
        (jobs / "e.json").write_text(json.dumps(
            {"command": "classify", "input": {"dim": 2, "expr": f"max(x1, {NINES}*{NINES})"}}))
        (jobs / "f.json").write_text(json.dumps(
            {"command": "classify", "input": {"dim": 2, "expr": "max(x1, x2)"}}))
        code = main(["--batch", str(jobs)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2
        assert [line.split(":")[0] for line in lines] == ["a.json", "c.json", "d.json", "e.json"]
        assert json.loads((jobs / "b.out.json").read_text())["concave"] is True
        assert json.loads((jobs / "f.out.json").read_text())["concave"] is True
        assert not (jobs / "c.out.json").exists()
