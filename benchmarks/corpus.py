"""Seeded job corpus for the benchmark workloads.

A workload is a list of *slots*.  A slot fixes the command, the flags and the
input shape; its weights come from one of ``VARIANTS`` deterministic draws.
``jobs(workload, seed)`` takes the first ``RUN_VARIANTS[workload]`` draws of
every slot and puts them in the seed's order, so the program only ever sees
the generated documents and every seed runs the same amount of work.
``pool(workload)`` lists every variant of every slot; ``capture.py`` records
the seed commit's report digest for each of them, so every document can be
checked byte for byte.

Why each workload exists, and why each size cap sits where it does, is in
``NOTES.md`` beside this file.  In short: the caps keep the 2^N sign-vector
and C(n, d) facet-subset terms visible (N up to 10 in R^3 and 8 in R^4,
hulls of up to ~40 points in R^3) without letting one job run for minutes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 8
# Draws of each slot in a per-job workload's job list; every seed runs the
# same draws.  What a draw costs depends on the combinatorics its weights
# happen to give (a polytope-volume job ranges over 10x between draws), and
# a seed-picked subset of draws moves a whole run's cost by up to a third
# from one seed to the next (NOTES.md).  The counts set one pass to 7-15 s.
RUN_VARIANTS = {"relu-fan": 2, "polytope-volume": 3, "realize-mixed": 4}
WORKLOADS = ("relu-fan", "polytope-volume", "realize-mixed", "batch-mixed")
PER_JOB_WORKLOADS = WORKLOADS[:3]

# max{0, x, y}: the pipeline's golden example (architecture (2, 3, 1; 1)).
GOLDEN_NET = {"architecture": [2, 3, 1, 1],
              "layers": [[[0, 1], [0, -1], [1, -1]], [[1, -1, 1]], [[1]]]}


@dataclass
class Job:
    """One CLI call: ``relutoric <command> --input doc <flags>``.

    ``expect`` is "ok" (a report whose digest was captured at the seed
    commit) or "error" (exit 2 with an ``error:`` line and no report).
    ``oracle`` names the independent checks that apply and carries what they
    need, such as the structured form of a generated expression.
    """

    slot: str
    variant: int
    command: str
    flags: tuple[str, ...]
    doc: dict
    expect: str = "ok"
    oracle: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        text = json.dumps([self.command, list(self.flags), self.doc],
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def batch_document(self) -> dict:
        """The same job as a ``--batch`` document."""
        flags = {}
        args = list(self.flags)
        if "--m-max" in args:
            flags["m_max"] = int(args[args.index("--m-max") + 1])
        if "--negate" in args:
            flags["negate"] = True
        if "--expect-realizable" in args:
            flags["expect_realizable"] = True
        return {"command": self.command, "input": self.doc, "flags": flags}


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def _rational(rng: random.Random):
    """Nonzero p/q with |p| <= 5 and q <= 3, the weights of the ad hoc
    baselines in ROADMAP.md; integers stay JSON integers."""
    p = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
    value = Fraction(p, rng.randint(1, 3))
    return value.numerator if value.denominator == 1 else str(value)


def random_net(rng: random.Random, arch) -> dict:
    layers = [[[_rational(rng) for _ in range(arch[i])]
               for _ in range(arch[i + 1])]
              for i in range(len(arch) - 1)]
    return {"architecture": list(arch), "layers": layers}


def _int_rows(rng: random.Random, dim: int, count: int, bound: int) -> list:
    """Distinct nonzero integer rows, no two parallel."""
    rows: list[list[int]] = []
    while len(rows) < count:
        row = [rng.randint(-bound, bound) for _ in range(dim)]
        if any(row) and not any(_parallel(row, r) for r in rows):
            rows.append(row)
    return rows


def _parallel(a, b) -> bool:
    return all(a[i] * b[j] == a[j] * b[i]
               for i in range(len(a)) for j in range(i + 1, len(a)))


def zonotope_net(rng: random.Random, dim: int, width: int, bound: int,
                 wmax: int) -> dict:
    """Shallow net with integer rows and positive integer output weights:
    convex, and its Newton polytope is the lattice zonotope sum w_i [0, a_i]."""
    rows = _int_rows(rng, dim, width, bound)
    weights = [rng.randint(1, wmax) for _ in range(width)]
    return {"architecture": [dim, width, 1], "layers": [rows, [weights]]}


# Expressions are generated from a structure the oracles can evaluate
# without the package's parser: a list of (coefficient, forms) terms meaning
# sum coefficient * max(form . x for form in forms), plus a linear form.

def _signed_pieces(pieces) -> str:
    """Join (negative, text) pieces into a sum the CLI parser accepts."""
    text = "".join((" - " if neg else " + ") + body for neg, body in pieces)
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def _times(coeff: int, body: str) -> str:
    return body if abs(coeff) == 1 else f"{abs(coeff)}*{body}"


def _form_text(form) -> str:
    pieces = [(c < 0, _times(c, f"x{i}")) for i, c in enumerate(form, start=1) if c]
    return _signed_pieces(pieces) if pieces else "0"


def expression_text(terms, linear) -> str:
    pieces = [(coeff < 0,
               _times(coeff, "max(" + ", ".join(_form_text(f) for f in forms) + ")"))
              for coeff, forms in terms]
    pieces += [(c < 0, _times(c, f"x{i}")) for i, c in enumerate(linear, start=1) if c]
    return _signed_pieces(pieces)


def expression_job(slot, variant, command, flags, dim, terms, linear=None):
    linear = linear or [0] * dim
    doc = {"dim": dim, "expr": expression_text(terms, linear)}
    oracle = {"terms": [[c, [list(f) for f in forms]] for c, forms in terms],
              "linear": list(linear), "synthesis": command == "realize"}
    return Job(slot, variant, command, tuple(flags), doc, oracle=oracle)


def _forms(rng, dim, count, bound):
    return [tuple(r) for r in _int_rows(rng, dim, count, bound)]


def relu_sum_terms(rng, dim, count):
    """sum of c_i * max(0, a_i . x): shallow-realizable by construction."""
    zero = tuple([0] * dim)
    return [(rng.choice([-3, -2, -1, 1, 2, 3]), [zero, row])
            for row in _forms(rng, dim, count, 2)]


SIXPIECE_TERMS = [
    (1, [(4, 5), (3, 6), (0, 3), (0, 0), (4, -4)]),
    (-2, [(0, 0), (0, 1)]),
    (-2, [(0, 0), (1, -1)]),
    (-2, [(0, 0), (1, 1)]),
]


def sixpiece_terms(rng):
    """The six-piece function, not shallow-realizable, under a random
    coordinate swap and positive scaling."""
    swap = rng.random() < 0.5
    scale = rng.randint(1, 3)
    out = []
    for coeff, forms in SIXPIECE_TERMS:
        forms = [(f[1], f[0]) if swap else f for f in forms]
        out.append((coeff * scale, forms))
    return out


# ---------------------------------------------------------------------------
# hand-written fan documents
# ---------------------------------------------------------------------------

def _fan_doc_2d(rng):
    """A hand-written complete fan of R^2 with slopes: random primitive
    rays in angular order around the origin, one value per ray, and the
    slope on each two-ray cone solved from those values (continuous by
    construction)."""
    candidates = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1),
                  (0, -1), (1, -1), (2, 1), (1, 2), (-1, 2), (-2, 1),
                  (-2, -1), (-1, -2), (1, -2), (2, -1)]
    while True:
        rays = rng.sample(candidates, rng.randint(3, 7))
        rays.sort(key=lambda r: math.atan2(r[1], r[0]))
        gaps = [(math.atan2(b[1], b[0]) - math.atan2(a[1], a[0])) % (2 * math.pi)
                for a, b in zip(rays, rays[1:] + rays[:1])]
        if max(gaps) < math.pi - 1e-9:
            break
    values = [rng.randint(-3, 3) for _ in rays]
    cones, slopes = [], []
    n = len(rays)
    for i in range(n):
        j = (i + 1) % n
        (a, b), (c, d) = rays[i], rays[j]
        det = a * d - b * c
        m1 = Fraction(values[i] * d - values[j] * b, det)
        m2 = Fraction(a * values[j] - c * values[i], det)
        cones.append({"rays": [i, j]})
        slopes.append([_json_rational(m1), _json_rational(m2)])
    order = list(range(n))
    rng.shuffle(order)
    return {"dim": 2,
            "fan": {"dim": 2, "rays": [list(r) for r in rays],
                    "cones": [cones[k] for k in order]},
            "slopes": [slopes[k] for k in order]}


def _fan_doc_orthants(rng):
    """The coordinate fan of R^3 (eight orthants) with the slopes of
    sum_i (a_i max(0, x_i) + b_i min(0, x_i))."""
    a = [rng.randint(-3, 3) for _ in range(3)]
    b = [rng.randint(-3, 3) for _ in range(3)]
    rays = []
    for i in range(3):
        for s in (1, -1):
            rays.append([s if k == i else 0 for k in range(3)])
    cones, slopes = [], []
    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                  (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
        idx = [2 * i + (0 if s > 0 else 1) for i, s in enumerate(signs)]
        cones.append({"rays": idx})
        slopes.append([a[i] if s > 0 else b[i] for i, s in enumerate(signs)])
    order = list(range(8))
    rng.shuffle(order)
    return {"dim": 3, "fan": {"dim": 3, "rays": rays,
                              "cones": [cones[k] for k in order]},
            "slopes": [slopes[k] for k in order]}


def _json_rational(value: Fraction):
    return value.numerator if value.denominator == 1 else str(value)


# ---------------------------------------------------------------------------
# documents the CLI must reject with exit 2 and an ``error:`` line
# ---------------------------------------------------------------------------

def malformed_jobs(rng, variant, prefix):
    """Documents that must end in exit 2.  The first five are the boundary
    gaps listed in ROADMAP.md, which escape as tracebacks (or, for the
    one-cone fan, exit 0) at the seed commit; the last three are errors the
    code already handles."""
    net = random_net(rng, (2, 3, 1))
    bad_arch = dict(net, architecture=[2, "three", 1])
    fan_doc = _fan_doc_2d(rng)
    missing_ray = {"dim": 2,
                   "fan": {"dim": 2, "rays": fan_doc["fan"]["rays"],
                           "cones": [{"rays": [0, len(fan_doc["fan"]["rays"]) + 2]}]
                           + fan_doc["fan"]["cones"][1:]},
                   "slopes": fan_doc["slopes"]}
    one_cone = {"dim": 2,
                "fan": {"dim": 2, "rays": [[1, 0], [0, 1]],
                        "cones": [{"rays": [0, 1]}]},
                "slopes": [[rng.randint(-3, 3), rng.randint(-3, 3)]]}
    dim_one = random_net(rng, (1, 3, 1))
    bad_neuron = dict(net, points=[[1, 2]], neuron=["one", 2])
    biased = dict(net, biases=[[1, 0, 0], [0]])
    return [
        Job(f"{prefix}gap-architecture", variant, "intersect", (), bad_arch, "error"),
        Job(f"{prefix}gap-missing-ray", variant, "divisor", (), missing_ray, "error"),
        Job(f"{prefix}gap-dimension-one", variant, "fan", (), dim_one, "error"),
        Job(f"{prefix}gap-neuron", variant, "eval", (), bad_neuron, "error"),
        Job(f"{prefix}gap-one-cone", variant, "divisor", (), one_cone, "error"),
        Job(f"{prefix}err-biased", variant, "divisor", (), biased, "error"),
        Job(f"{prefix}err-parse", variant, "realize", (),
            {"dim": 2, "expr": f"max(x1, {rng.randint(2, 5)}*x2"}, "error"),
        Job(f"{prefix}err-variable", variant, "realize", (),
            {"dim": 2, "expr": f"max(0, x{rng.randint(3, 9)})"}, "error"),
    ]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# relu-fan: (command, architecture).  `fan` only in dim 2 and in dim 3 at
# width <= 5, because validate_fan is O(C^2).  In R^3 widths stop at 10 and
# in R^4 at 8: build_relu_fan enumerates 2^N sign vectors and [3,14,1]
# already takes seconds.
RELU_FAN_SLOTS = [
    ("intersect", (2, 4, 1)), ("intersect", (2, 9, 1)), ("intersect", (2, 14, 1)),
    ("intersect", (2, 6, 6, 1)), ("intersect", (2, 8, 8, 1)),
    ("intersect", (2, 5, 5, 5, 1)), ("intersect", (3, 4, 1)),
    ("intersect", (3, 6, 1)), ("intersect", (3, 8, 1)), ("intersect", (3, 10, 1)),
    ("intersect", (3, 3, 3, 1)), ("intersect", (3, 4, 4, 1)),
    ("intersect", (3, 3, 3, 3, 1)), ("intersect", (4, 5, 1)),
    ("intersect", (4, 8, 1)),
    ("classify", (2, 7, 1)), ("classify", (2, 12, 1)), ("classify", (2, 6, 6, 1)),
    ("classify", (3, 5, 1)), ("classify", (3, 9, 1)), ("classify", (3, 3, 3, 1)),
    ("classify", (4, 6, 1)),
    ("divisor", (2, 5, 1)), ("divisor", (2, 11, 1)), ("divisor", (2, 4, 4, 4, 1)),
    ("divisor", (3, 5, 1)), ("divisor", (3, 7, 1)), ("divisor", (3, 10, 1)),
    ("divisor", (3, 4, 4, 1)), ("divisor", (4, 4, 1)), ("divisor", (4, 7, 1)),
    ("fan", (2, 5, 1)), ("fan", (2, 10, 1)), ("fan", (2, 14, 1)),
    ("fan", (2, 6, 6, 1)), ("fan", (2, 4, 4, 4, 1)), ("fan", (3, 4, 1)),
    ("fan", (3, 5, 1)), ("fan", (3, 3, 3, 1)),
]


def _relu_fan_slot(index, variant):
    command, arch = RELU_FAN_SLOTS[index]
    slot = f"relu-fan/{command}-{'-'.join(map(str, arch))}"
    rng = random.Random(f"{slot}/{variant}")
    oracle = {}
    if len(arch) == 3 and arch[0] >= 3 and command in ("divisor", "fan"):
        oracle["zaslavsky"] = True
    if command == "divisor":
        oracle["cartier"] = True
    if command == "intersect":
        oracle["bend"] = True
    return Job(slot, variant, command, (), random_net(rng, arch), oracle=oracle)


# polytope-volume: `newton` in R^4 only up to width 4, since the hull
# enumerates C(n, 4) point subsets.  `volume` stops at width 4 in R^3 with
# rows in {-1,0,1}^3 and unit output weights there: width 5 takes 1.4-3.7 s
# per job and alone would swing a run by 15% from one seed to the next.
POLYTOPE_NET_SLOTS = [
    # (command, flags, dim, width, row bound, largest output weight)
    ("newton", (), 2, 3, 2, 3), ("newton", (), 2, 5, 2, 3), ("newton", (), 3, 3, 1, 3),
    ("newton", (), 3, 4, 1, 3), ("newton", (), 3, 5, 1, 3), ("newton", (), 4, 3, 1, 3),
    ("newton", (), 4, 4, 1, 3),
    ("polytope", ("--negate",), 2, 4, 2, 3), ("polytope", ("--negate",), 2, 5, 2, 3),
    ("polytope", ("--negate",), 3, 3, 1, 3), ("polytope", ("--negate",), 3, 4, 1, 3),
    ("polytope", ("--negate",), 4, 3, 1, 3),
    ("volume", ("--m-max", "2"), 2, 3, 2, 3), ("volume", ("--m-max", "3"), 2, 4, 2, 3),
    ("volume", ("--m-max", "4"), 2, 5, 2, 3), ("volume", ("--m-max", "4"), 2, 3, 2, 3),
    ("volume", ("--m-max", "2"), 3, 3, 1, 3), ("volume", ("--m-max", "3"), 3, 3, 1, 3),
    ("volume", ("--m-max", "4"), 3, 3, 1, 1), ("volume", ("--m-max", "2"), 3, 4, 1, 1),
]

POLYTOPE_EXPR_SLOTS = [
    # (command, flags, dim, number of linear forms)
    ("newton", (), 2, 4), ("newton", (), 2, 6), ("newton", (), 3, 4),
    ("polytope", ("--negate",), 2, 5), ("polytope", ("--negate",), 3, 3),
    ("volume", ("--m-max", "3"), 2, 3), ("volume", ("--m-max", "4"), 2, 5),
    ("volume", ("--m-max", "2"), 3, 4),
]


def _polytope_slot(index, variant):
    if index < len(POLYTOPE_NET_SLOTS):
        command, flags, dim, width, bound, wmax = POLYTOPE_NET_SLOTS[index]
        slot = (f"polytope-volume/{command}{''.join(flags)}"
                f"-zono-{dim}-{width}-w{wmax}")
        rng = random.Random(f"{slot}/{variant}")
        oracle = {"zonotope": True} if command == "volume" else {}
        return Job(slot, variant, command, flags,
                   zonotope_net(rng, dim, width, bound, wmax), oracle=oracle)
    command, flags, dim, count = POLYTOPE_EXPR_SLOTS[index - len(POLYTOPE_NET_SLOTS)]
    slot = f"polytope-volume/{command}{''.join(flags)}-max-{dim}-{count}"
    rng = random.Random(f"{slot}/{variant}")
    forms = _forms(rng, dim, count, 2 if dim == 2 else 1)
    return expression_job(slot, variant, command, flags, dim, [(1, forms)])


# realize-mixed: realize on expressions and nets, some under
# --expect-realizable, plus cheap eval / reduce / divisor jobs.  Deep nets in
# R^3 stop at [3,3,3,1]: larger ones reach N >= 17 extended hyperplanes and
# criterion_fan's 2^N enumeration runs for minutes.
REALIZE_SLOTS = [
    ("relu-sum", 2, 3), ("relu-sum", 2, 6), ("relu-sum", 3, 3), ("relu-sum", 3, 5),
    ("relu-sum-expect", 2, 4), ("relu-sum-expect", 3, 4),
    ("max-forms", 2, 3), ("max-forms", 2, 6), ("max-forms", 3, 4),
    ("max-forms-expect", 2, 5),
    ("sixpiece", 2, 0), ("sixpiece-expect", 2, 0),
    ("net", (2, 5, 1), 0), ("net", (2, 9, 1), 0), ("net", (3, 4, 1), 0),
    ("net", (3, 6, 1), 0), ("net", (4, 4, 1), 0), ("net", (4, 6, 1), 0),
    ("net-expect", (3, 5, 1), 0),
    ("net", (2, 4, 4, 1), 0), ("net", (2, 3, 3, 3, 1), 0), ("net", (2, 6, 5, 1), 0),
    ("net", (3, 3, 3, 1), 0), ("net", (3, 2, 3, 1), 0),
    ("eval", (2, 6, 1), 0), ("eval", (3, 4, 4, 1), 0), ("eval", (4, 5, 3, 1), 0),
    ("reduce", (2, 6, 1), 0), ("reduce", (3, 8, 1), 0),
    ("divisor-fan2", 2, 0), ("divisor-fan2", 2, 1), ("divisor-orthants", 3, 0),
]


def _realize_slot(index, variant):
    kind, shape, size = REALIZE_SLOTS[index]
    tag = "-".join(map(str, shape)) if isinstance(shape, tuple) else f"{shape}-{size}"
    slot = f"realize-mixed/{kind}-{tag}"
    rng = random.Random(f"{slot}/{variant}")
    expect = ("--expect-realizable",) if kind.endswith("-expect") else ()
    base = kind.removesuffix("-expect")
    if base == "relu-sum":
        dim = shape
        terms = relu_sum_terms(rng, dim, size)
        linear = [rng.randint(-2, 2) for _ in range(dim)]
        return expression_job(slot, variant, "realize", expect, dim, terms, linear)
    if base == "max-forms":
        terms = [(1, _forms(rng, shape, size, 2))]
        return expression_job(slot, variant, "realize", expect, shape, terms)
    if base == "sixpiece":
        return expression_job(slot, variant, "realize", expect, 2,
                              sixpiece_terms(rng))
    if base == "net":
        return Job(slot, variant, "realize", expect, random_net(rng, shape),
                   oracle={"synthesis": True})
    if base == "eval":
        doc = random_net(rng, shape)
        doc["points"] = [[_rational(rng) for _ in range(shape[0])]
                         for _ in range(6)]
        if variant % 2:
            doc["neuron"] = [1, rng.randint(1, shape[1])]
        return Job(slot, variant, "eval", (), doc)
    if base == "reduce":
        doc = random_net(rng, shape)
        rows = doc["layers"][0]
        rows[1] = [_scaled(x, 2) for x in rows[0]]          # a parallel pair
        rows[-1] = [0] * shape[0]                           # a zero row
        return Job(slot, variant, "reduce", (), doc)
    if base == "divisor-fan2":
        return Job(slot, variant, "divisor", (), _fan_doc_2d(rng))
    return Job(slot, variant, "divisor", (), _fan_doc_orthants(rng))


def _scaled(value, k):
    f = Fraction(value) * k
    return f.numerator if f.denominator == 1 else str(f)


def _malformed_slot(workload, index, variant):
    rng = random.Random(f"{workload}/malformed/{variant}")
    return malformed_jobs(rng, variant, f"{workload}/")[index]


def _slot_makers(workload):
    if workload == "relu-fan":
        normal = [lambda v, i=i: _relu_fan_slot(i, v) for i in range(len(RELU_FAN_SLOTS))]
    elif workload == "polytope-volume":
        count = len(POLYTOPE_NET_SLOTS) + len(POLYTOPE_EXPR_SLOTS)
        normal = [lambda v, i=i: _polytope_slot(i, v) for i in range(count)]
    elif workload == "realize-mixed":
        normal = [lambda v, i=i: _realize_slot(i, v) for i in range(len(REALIZE_SLOTS))]
    else:
        raise ValueError(f"unknown per-job workload {workload!r}")
    malformed = [lambda v, i=i: _malformed_slot(workload, i, v) for i in range(8)]
    return normal + malformed


# batch-mixed: a fixed sample of slots from the three per-job workloads, in
# a fixed file order.  Handled errors come before the first boundary gap, so
# the seed commit's batch abort (ROADMAP open item 4) drops the same error
# lines on every seed; one handled error sits after it to show that loss.
BATCH_SLOTS = [
    ("relu-fan", 0), ("relu-fan", 3), ("relu-fan", 6), ("relu-fan", 11),
    ("relu-fan", 16), ("relu-fan", 25), ("relu-fan", 31),
    ("polytope-volume", 1), ("polytope-volume", 3), ("polytope-volume", 8),
    ("polytope-volume", 13), ("polytope-volume", 20), ("polytope-volume", 25),
    ("realize-mixed", 0), ("realize-mixed", 6), ("realize-mixed", 10),
    ("realize-mixed", 12), ("realize-mixed", 19), ("realize-mixed", 24),
    ("realize-mixed", 29),
    ("relu-fan", -3),          # err-biased
    ("realize-mixed", -2),     # err-parse
    ("relu-fan", -8),          # gap-architecture
    ("realize-mixed", -1),     # err-variable, after the gap
    ("polytope-volume", -4),   # gap-one-cone
]


def _batch_makers():
    return [_slot_makers(workload)[index] for workload, index in BATCH_SLOTS]


def batch_variant(variant: int) -> list[Job]:
    """The batch with the same variant in every slot (capture.py records
    every batch document this way)."""
    return [make(variant) for make in _batch_makers()]


def jobs(workload: str, seed: int) -> list[Job]:
    """The seed's job list.  A per-job workload runs the first
    ``RUN_VARIANTS[workload]`` variants of every slot in the seed's order;
    the batch takes one variant per slot and keeps its fixed file order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}#{seed}")
    if workload == "batch-mixed":
        return [make(rng.randrange(VARIANTS)) for make in _batch_makers()]
    out = [make(v) for make in _slot_makers(workload)
           for v in range(RUN_VARIANTS[workload])]
    rng.shuffle(out)
    return out


def pool(workload: str) -> list[Job]:
    """Every variant of every slot of a per-job workload (the batch draws
    from these)."""
    return [make(v) for make in _slot_makers(workload) for v in range(VARIANTS)]
