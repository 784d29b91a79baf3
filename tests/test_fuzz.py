"""Malformed documents end in a report or an error line, never a traceback.

Each case takes a valid document of one command, makes one seeded change to
it (a value replaced by an atom, a key deleted, or a list item duplicated)
and runs the command on it.  The exit code must be 0, 2 or 3, and an exit 2
must write exactly one `error:` line.
"""

import copy
import json
import random

import pytest

from relutoric.cli import main
from conftest import GOLDEN_LAYERS

GOLDEN = {"architecture": [2, 3, 1, 1], "layers": GOLDEN_LAYERS}
# max(0, x1) + max(0, x2) on the coordinate fan
FAN = {"dim": 2, "fan": {"dim": 2, "rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                         "cones": [[0, 1], [1, 2], [2, 3], {"rays": [3, 0]}]},
       "slopes": [[1, 1], [0, 1], [0, 0], [1, 0]]}
EXPR = {"dim": 2, "expr": "max(x1, x2, 0) - max(0, x1 - x2)"}
CONVEX = {"dim": 2, "expr": "max(x1, x2, 0)"}

DOCUMENTS = [
    ("eval", dict(GOLDEN, points=[[1, 2], ["1/2", -3]], neuron=[1, 2])),
    ("fan", GOLDEN),
    ("fan", {"function": FAN}),
    ("divisor", {"network": GOLDEN}),
    ("divisor", FAN),
    ("intersect", EXPR),
    ("classify", GOLDEN),
    ("polytope", dict(FAN, negate=True)),
    ("newton", {"function": CONVEX}),
    ("volume", CONVEX),
    ("reduce", {"layers": [[[1, 2], [2, 4], [0, 0]], [[1, 1, 5]]]}),
    ("shift", dict(GOLDEN, g={"slope": [1, "2/3"], "constant": 1})),
    ("realize", EXPR),
    ("render", GOLDEN),
]
HUGE = 10**30
ATOMS = [None, "1/0", [], {}, 1.5, HUGE, -1, 0, True, "x"]
MUTATIONS_PER_DOCUMENT = 15


def _slots(node):
    """Every (container, key) pair of a JSON tree, parents first."""
    if isinstance(node, dict):
        pairs = list(node.items())
    elif isinstance(node, list):
        pairs = list(enumerate(node))
    else:
        return []
    out = []
    for key, value in pairs:
        out.append((node, key))
        out.extend(_slots(value))
    return out


def mutate(doc, rng):
    """A copy of doc with one change, and a description of the change."""
    doc = copy.deepcopy(doc)
    node, key = rng.choice(_slots(doc))
    if rng.random() < 0.5:
        # an expression's cost grows exponentially with its dimension, and
        # parsing alone builds one coordinate per dimension, so a huge 'dim'
        # never ends: that cost is a known limit, not a malformed document
        atom = rng.choice([a for a in ATOMS
                           if not (key == "dim" and "expr" in node and a == HUGE)])
        node[key] = atom
        return doc, f"set {key!r} to {atom!r}"
    if isinstance(node, dict):
        del node[key]
        return doc, f"delete {key!r}"
    node.insert(key, copy.deepcopy(node[key]))
    return doc, f"duplicate item {key} of {node!r}"


@pytest.mark.parametrize("index", range(len(DOCUMENTS)),
                         ids=[f"{cmd}-{i}" for i, (cmd, _) in enumerate(DOCUMENTS)])
def test_single_mutations_exit_cleanly(capsys, tmp_path, index):
    command, original = DOCUMENTS[index]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(original))
    assert main([command, "--input", str(path)]) == 0, capsys.readouterr().err
    capsys.readouterr()
    rng = random.Random(f"fuzz/{index}")
    for _ in range(MUTATIONS_PER_DOCUMENT):
        doc, change = mutate(original, rng)
        path.write_text(json.dumps(doc))
        code = main([command, "--input", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (change, code)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (change, err)

