import json
from fractions import Fraction as F

import pytest

from relutoric.cli import main
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
