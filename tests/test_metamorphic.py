"""Metamorphic oracles: reports that must not move, or must move in a known
way, when the input is transformed, checked through `cli.main` with no
reference implementation.

- A unimodular change of coordinates, f(x) -> f(Ux) with U in GL_d(Z): a
  linear form a.x of an expression becomes (aU).x, and a net's first layer
  W becomes W.U.  The fan maps by U^-1, so the cone count, the sorted
  nonzero wall numbers, `classify`, `line_bundle_volume`, the Ehrhart
  counts and the realize verdict stay the same.  The inputs are drawn so that no synthetic
  coordinate hyperplane joins the fan, since those do not map by U^-1: an
  expression holds max(x1, .., xd, 0), and a net's first layer has rank d.
- Scaling f by an integer k > 0 scales every wall number by k and
  `line_bundle_volume` by k^d.
- A positive rescaling of a hidden neuron (its row times c > 0, the next
  layer's column divided by c) leaves the `fan`, `divisor` and `intersect`
  reports byte-identical.
- A permutation of a hidden layer's neurons leaves the `divisor` report
  byte-identical, and the `fan` report too once each wall's neurons are
  relabelled and sorted.  A cone that two neurons of one deeper layer cut
  along one hyperplane credits the cut to the first of them only, so there
  the neurons are left out of the comparison.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from relutoric.cli import main
from relutoric.exact_math import mat_rank, rational_to_primitive, sign_canonical
from relutoric.fan import build_relu_fan
from relutoric.network import cleared_layers, network, pull_back

COMMANDS = ("fan", "intersect", "classify", "volume", "realize")


def _texts(doc: dict, commands=COMMANDS) -> dict:
    """Each command's report text on a job document, through `cli.main`."""
    out = {}
    with tempfile.TemporaryDirectory() as directory:
        path, report = Path(directory) / "input.json", Path(directory) / "report.json"
        path.write_text(json.dumps(doc))
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path), "--output", str(report)])
            assert (code, err.getvalue()) == (0, "")
            out[command] = report.read_text()
    return out


def _reports(doc: dict) -> dict:
    return {command: json.loads(text) for command, text in _texts(doc).items()}


def _wall_numbers(reports) -> list:
    return sorted(F(wall["number"]) for wall in reports["intersect"]["walls"]
                  if F(wall["number"]) != 0)


def _invariants(reports) -> tuple:
    """What a unimodular change of coordinates keeps."""
    return (len(reports["fan"]["cones"]), _wall_numbers(reports), reports["classify"],
            F(reports["volume"]["line_bundle_volume"]), reports["volume"]["ehrhart"],
            reports["realize"]["realizable"])


@st.composite
def unimodular(draw, dim):
    """A signed permutation times 1-3 elementary integer shears."""
    order = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    u = [[signs[i] * int(j == order[i]) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def _times(row, u) -> list:
    """The row vector row.U."""
    return [sum(a * u[k][j] for k, a in enumerate(row)) for j in range(len(u))]


# An expression tree: ("form", integer vector) or ("max", [trees]); the
# function is a sum of integer multiples of trees.

def _tree(dim, depth):
    form = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).map(lambda v: ("form", v))
    if depth == 0:
        return form
    return st.one_of(form, st.lists(_tree(dim, depth - 1), min_size=2, max_size=3)
                     .map(lambda args: ("max", args)))


@st.composite
def expression_cases(draw):
    dim = draw(st.integers(2, 3))
    terms = draw(st.lists(st.tuples(st.sampled_from((-2, -1, 1, 2, 3)), _tree(dim, 2)),
                          min_size=1, max_size=3))
    spanning = ("max", [("form", [int(i == j) for j in range(dim)]) for i in range(dim)]
                + [("form", [0] * dim)])
    return dim, terms + [(1, spanning)], draw(unimodular(dim))


def _mapped(tree, u):
    kind, body = tree
    return (kind, _times(body, u)) if kind == "form" else (kind, [_mapped(t, u) for t in body])


def _text(tree) -> str:
    kind, body = tree
    if kind == "max":
        return "max(" + ", ".join(_text(t) for t in body) + ")"
    terms = [f"{c}*x{i}" for i, c in enumerate(body, start=1) if c]
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _expression(dim, terms, k=1) -> dict:
    """The document of k times the sum of the terms."""
    text = " + ".join(f"{k * c}*max({_text(tree)})" for c, tree in terms)
    return {"dim": dim, "expr": text.replace("+ -", "- ")}


@st.composite
def net_cases(draw):
    dim = draw(st.integers(2, 3))
    widths = ([dim, draw(st.integers(dim, dim + 1))]
              + draw(st.lists(st.integers(1, 3), max_size=1)) + [1])
    weight = st.integers(-3, 3)
    layers = [draw(st.lists(st.lists(weight, min_size=n_in, max_size=n_in),
                            min_size=n_out, max_size=n_out))
              for n_in, n_out in zip(widths, widths[1:])]
    assume(mat_rank(layers[0]) == dim)
    return dim, layers, draw(unimodular(dim))


class TestUnimodularChange:
    @settings(max_examples=20, deadline=None)
    @given(expression_cases())
    def test_expression(self, case):
        dim, terms, u = case
        moved = [(c, _mapped(tree, u)) for c, tree in terms]
        assert (_invariants(_reports(_expression(dim, terms)))
                == _invariants(_reports(_expression(dim, moved))))

    @settings(max_examples=20, deadline=None)
    @given(net_cases())
    def test_net(self, case):
        dim, layers, u = case
        moved = [[_times(row, u) for row in layers[0]]] + layers[1:]
        assert (_invariants(_reports({"layers": layers}))
                == _invariants(_reports({"layers": moved})))


class TestIntegerScaling:
    @settings(max_examples=15, deadline=None)
    @given(expression_cases(), st.integers(2, 3))
    def test_expression(self, case, k):
        dim, terms, _ = case
        self._assert_scaled(_reports(_expression(dim, terms)),
                            _reports(_expression(dim, terms, k)), k, dim)

    @settings(max_examples=15, deadline=None)
    @given(net_cases(), st.integers(2, 3))
    def test_net(self, case, k):
        dim, layers, _ = case
        scaled = layers[:-1] + [[[k * w for w in row] for row in layers[-1]]]
        self._assert_scaled(_reports({"layers": layers}), _reports({"layers": scaled}), k, dim)

    @staticmethod
    def _assert_scaled(base, scaled, k, dim):
        assert _wall_numbers(scaled) == [k * n for n in _wall_numbers(base)]
        assert (F(scaled["volume"]["line_bundle_volume"])
                == k ** dim * F(base["volume"]["line_bundle_volume"]))


def _hidden_neuron(data, layers) -> tuple[int, int]:
    """A hidden layer's index in `layers` and the index of one of its rows."""
    layer = data.draw(st.integers(0, len(layers) - 2), label="layer")
    return layer, data.draw(st.integers(0, len(layers[layer]) - 1), label="neuron")


def _one_neuron_per_cut(layers, layer) -> bool:
    """Whether no cone that hidden layer `layer` + 1 cuts meets the zero sets
    of two of its neurons in one hyperplane, where only the first is
    credited with the cut.  The first layer cuts all of space, and merged
    provenance credits each of its rows."""
    if layer == 0:
        return True
    cleared, _ = cleared_layers(network(layers))
    earlier = network(layers[:layer] + [[[1] * len(layers[layer - 1])]])
    for cone in build_relu_fan(earlier).maximal_cones:
        normals = [sign_canonical(rational_to_primitive(phi))
                   for phi in pull_back(cleared, cone.interior_point(), layer) if any(phi)]
        if len(set(normals)) < len(normals):
            return False
    return True


class TestHiddenNeurons:
    @settings(max_examples=20, deadline=None)
    @given(net_cases(), st.builds(F, st.integers(1, 4), st.integers(1, 3)), st.data())
    def test_positive_rescaling(self, case, c, data):
        _, layers, _ = case
        layer, j = _hidden_neuron(data, layers)
        scaled = [[[str(F(w)) for w in row] for row in rows] for rows in layers]
        scaled[layer][j] = [str(c * w) for w in layers[layer][j]]
        for row, out in zip(scaled[layer + 1], layers[layer + 1]):
            row[j] = str(out[j] / c)
        commands = ("fan", "divisor", "intersect")
        assert (_texts({"layers": layers}, commands)
                == _texts({"layers": scaled}, commands))

    @settings(max_examples=20, deadline=None)
    @given(net_cases(), st.data())
    def test_permutation(self, case, data):
        _, layers, _ = case
        layer, _ = _hidden_neuron(data, layers)
        order = data.draw(st.permutations(range(len(layers[layer]))), label="order")
        moved = [list(rows) for rows in layers]
        moved[layer] = [layers[layer][k] for k in order]
        moved[layer + 1] = [[row[k] for k in order] for row in layers[layer + 1]]
        new_index = {k + 1: i + 1 for i, k in enumerate(order)}
        commands = ("fan", "divisor")
        base, permuted = _texts({"layers": layers}, commands), _texts({"layers": moved}, commands)
        assert base["divisor"] == permuted["divisor"]
        expected, fan = json.loads(base["fan"]), json.loads(permuted["fan"])
        exact = _one_neuron_per_cut(layers, layer)
        for wall, moved_wall in zip(expected["walls"], fan["walls"]):
            if exact:
                wall["provenance"]["neurons"] = sorted(
                    [n, new_index[k]] if n == layer + 1 else [n, k]
                    for n, k in wall["provenance"]["neurons"])
            else:
                del wall["provenance"]["neurons"], moved_wall["provenance"]["neurons"]
        assert expected == fan
