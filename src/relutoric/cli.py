"""Command line interface.

One JSON document per job, rationals as integers or "p/q" strings, reports
with stable key order.  Results go to stdout or --output; diagnostics to
stderr.  Exit codes: 0 success, 2 validation or parse error or an output
that cannot be written, 3 criterion failure under `realize
--expect-realizable`.  A batch exits 2 when any document failed, else 3
when any job exited 3.

The command table `_HANDLERS` names the input each command reads, which
`_read` decodes: a network (a function document is an error), a support
function (a net's through `support_of_network`) or a fan (a net's ReLU
fan).  Each option's `OPTIONS` decoder checks its value from the command
line or a batch flag before the document is decoded.  A batch document is
{"command", "input", "flags"}; its `flags` are its command's own options
under their JobSpec names, such as {"m_max": 3} for `volume`, and any
other flag is an error.

One process builds the argument parser once, on its first `main` call;
parsing keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import DocumentError, NotLatticePolytope, RelutoricError
from .divisor import (
    SupportFunction,
    classify_convexity,
    divisor_coefficients,
    ehrhart_volume_estimate,
    mixed_volume,
    newton_polytope,
    polytope_of_divisor,
    scale_divisor,
    support_of_network,
    wall_curve,
    wall_numbers,
)
from .fan import Fan, build_relu_fan, validate_fan
from .jsonio import (
    _shown,
    decode_bool,
    decode_input,
    decode_int,
    decode_rational,
    decode_vector,
    encode_fan,
    encode_network,
    encode_polytope,
    encode_rational,
    encode_vector,
)
from .network import (NeuronId, ValidatedNetwork, affine_shift, evaluate, neuron_value,
                      reduce_shallow)
from .realizability import analyze, hyperplane_groups
from .svg import render_fan_svg

@dataclass
class JobSpec:
    """One job.  The fields after `fmt` are the options of `OPTIONS`."""

    command: str
    document: dict
    output: str | None = None
    svg: str | None = None
    fmt: str = "json"
    m_max: int = 8
    negate: bool = False
    expect_realizable: bool = False


def _decode_m_max(value, what: str) -> int:
    m_max = decode_int(value, what)
    if m_max < 1:
        raise DocumentError(f"{what} must be at least 1, got {m_max}")
    return m_max


# Each job option under its JobSpec field name: the commands that take it,
# the decoder of its value and its --help text.  On the command line it is
# --name with dashes; a boolean is a switch, an integer takes a value.
OPTIONS = {
    "m_max": (("volume",), _decode_m_max, None),
    "negate": (("polytope",), decode_bool, "use -D instead of D"),
    "expect_realizable": (("realize",), decode_bool, "exit 3 when the criterion fails"),
}


@dataclass
class JobResult:
    payload: dict | None = None
    svg: str | None = None
    exit_code: int = 0


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _read(document, kind):
    """The `ValidatedNetwork`, `SupportFunction` or `Fan` a job document
    gives a command of that kind."""
    decoded = decode_input(document)
    if isinstance(decoded, SupportFunction):
        if kind is ValidatedNetwork:
            raise DocumentError("this command needs a network document")
        return decoded.fan if kind is Fan else decoded
    if kind is Fan:
        return build_relu_fan(decoded)
    return decoded if kind is ValidatedNetwork else support_of_network(decoded)


def _options(command, given: dict) -> dict:
    """The job options `given` under their JobSpec names, from the command
    line or from a batch document's `flags`: each must be an option of its
    command, which must be known (`_handler`), decoded as `OPTIONS` says."""
    _handler(command)
    for key in given:
        if key not in OPTIONS or command not in OPTIONS[key][0]:
            raise DocumentError(f"{command} takes no flag {_shown(key)}")
    return {key: OPTIONS[key][1](value, key) for key, value in given.items()}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_eval(job: JobSpec, net: ValidatedNetwork) -> JobResult:
    points = job.document.get("points")
    if not isinstance(points, list) or not points:
        raise DocumentError("eval needs a nonempty 'points' list")
    neuron = job.document.get("neuron")
    if neuron is not None:
        if not isinstance(neuron, list) or len(neuron) != 2:
            raise DocumentError(f"'neuron' must be [layer, index], got {_shown(neuron)}")
        neuron = NeuronId(decode_int(neuron[0], "neuron layer"),
                          decode_int(neuron[1], "neuron index"))
    values = []
    for p in points:
        x = decode_vector(p)
        if neuron is not None:
            values.append(neuron_value(net, neuron, x))
        else:
            values.append(evaluate(net, x))
    return JobResult({"values": [encode_rational(v) for v in values]})


def _cmd_fan(job: JobSpec, fan: Fan) -> JobResult:
    report = validate_fan(fan)
    payload = encode_fan(fan)
    payload["complete"] = report.complete
    payload["valid"] = report.valid
    svg = render_fan_svg(fan) if job.svg else None
    return JobResult(payload, svg)


def _cmd_divisor(job: JobSpec, support: SupportFunction) -> JobResult:
    D = divisor_coefficients(support)
    return JobResult({
        "rays": [list(r) for r in support.fan.rays],
        "slopes": [encode_vector(m) for m in support.slopes],
        "ray_coefficients": [encode_rational(a) for a in D.coefficients],
    })


def _cmd_intersect(job: JobSpec, support: SupportFunction) -> JobResult:
    fan = support.fan
    numbers = wall_numbers(support)
    walls = [{"generators": [list(g) for g in wall.generators],
              "cones": list(wall.cones),
              "hyperplane": list(wall.normal),
              "provenance": wall.kind,
              "lift": list(wall_curve(fan, wall)),
              "number": encode_rational(number)}
             for wall, number in zip(fan.walls, numbers)]
    groups = [{"hyperplane": list(g.normal),
               "numbers": [encode_rational(n) for n in g.numbers],
               "equal": g.passes}
              for g in hyperplane_groups(fan, numbers)]
    return JobResult({"walls": walls, "groups": groups})


def _cmd_classify(job: JobSpec, support: SupportFunction) -> JobResult:
    report = classify_convexity(support)
    return JobResult({
        "convex": report.convex,
        "strictly_convex": report.strictly_convex,
        "concave": report.concave,
        "strictly_concave": report.strictly_concave,
        "basepoint_free": report.convex,
        "ample": report.strictly_convex,
    })


def _cmd_polytope(job: JobSpec, support: SupportFunction) -> JobResult:
    if "negate" in job.document:
        raise DocumentError("polytope takes --negate, not a 'negate' key in the document")
    D = divisor_coefficients(support)
    if job.negate:
        D = scale_divisor(D, -1)
    return JobResult(encode_polytope(polytope_of_divisor(D)))


def _cmd_newton(job: JobSpec, support: SupportFunction) -> JobResult:
    return JobResult(encode_polytope(newton_polytope(support)))


def _cmd_volume(job: JobSpec, support: SupportFunction) -> JobResult:
    """For a support with no positive bend the Newton polytope is the
    section polytope of the negated divisor up to sign (`newton_polytope`),
    so `newton_volume` is the volume already computed; it is null when
    `newton` would fail."""
    P = polytope_of_divisor(scale_divisor(divisor_coefficients(support), -1))
    volume = encode_rational(mixed_volume(P))
    payload = {
        "polytope": encode_polytope(P),
        "line_bundle_volume": volume,
        "m_max": job.m_max,
        "newton_volume": volume if classify_convexity(support).concave else None,
    }
    try:
        payload["ehrhart"] = [encode_rational(v)
                              for v in ehrhart_volume_estimate(P, job.m_max)]
    except NotLatticePolytope:
        payload["ehrhart"] = None
    return JobResult(payload)


def _cmd_reduce(job: JobSpec, net: ValidatedNetwork) -> JobResult:
    return JobResult(encode_network(reduce_shallow(net)))


def _cmd_shift(job: JobSpec, net: ValidatedNetwork) -> JobResult:
    g = job.document.get("g")
    if not isinstance(g, dict) or "slope" not in g:
        raise DocumentError("shift needs 'g': {'slope': [...], 'constant': r}")
    slope = decode_vector(g["slope"])
    constant = decode_rational(g.get("constant", 0))
    return JobResult(encode_network(affine_shift(net, slope, constant)))


def _cmd_realize(job: JobSpec, support: SupportFunction) -> JobResult:
    report = analyze(support)
    witness, synthesis = report.witness, report.synthesis
    payload = {
        "realizable": report.realizable,
        "groups": [
            {
                "hyperplane": list(g.normal),
                "walls": [[list(v) for v in w] for w in g.walls],
                "numbers": [encode_rational(n) for n in g.numbers],
                "equal": g.passes,
            }
            for g in report.groups
        ],
        "witness": None if witness is None else {
            "hyperplane": list(witness.normal),
            "numbers": [encode_rational(n) for n in witness.numbers],
        },
        "synthesis": None if synthesis is None else {
            "network": encode_network(synthesis.network),
            "linear_correction": {
                "slope": encode_vector(synthesis.correction_slope),
                "constant": 0,
            },
            "verified": synthesis.verified,
        },
    }
    code = 3 if (job.expect_realizable and not report.realizable) else 0
    return JobResult(payload, exit_code=code)


def _cmd_render(job: JobSpec, support: SupportFunction) -> JobResult:
    svg = render_fan_svg(support.fan, support)
    return JobResult(None, svg)


# Each command: its handler and the input `_read` gives it.
_HANDLERS = {
    "eval": (_cmd_eval, ValidatedNetwork),
    "fan": (_cmd_fan, Fan),
    "divisor": (_cmd_divisor, SupportFunction),
    "intersect": (_cmd_intersect, SupportFunction),
    "classify": (_cmd_classify, SupportFunction),
    "polytope": (_cmd_polytope, SupportFunction),
    "newton": (_cmd_newton, SupportFunction),
    "volume": (_cmd_volume, SupportFunction),
    "reduce": (_cmd_reduce, ValidatedNetwork),
    "shift": (_cmd_shift, ValidatedNetwork),
    "realize": (_cmd_realize, SupportFunction),
    "render": (_cmd_render, SupportFunction),
}


def _handler(command):
    """The `_HANDLERS` row of a job's command."""
    if not isinstance(command, str):
        raise DocumentError(f"command must be a string, got {_shown(command)}")
    if command not in _HANDLERS:
        raise DocumentError(f"unknown command {_shown(command)}")
    return _HANDLERS[command]


def run_job(job: JobSpec) -> JobResult:
    handler, kind = _handler(job.command)
    return handler(job, _read(job.document, kind))


# ---------------------------------------------------------------------------
# formatting and dispatch
# ---------------------------------------------------------------------------

def to_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value and not _scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(to_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_inline(value)}")
        return "\n".join(lines)
    if isinstance(obj, list):
        lines = []
        for item in obj:
            if isinstance(item, (dict, list)) and item and not _scalar_list(item):
                lines.append(f"{pad}-")
                lines.append(to_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_inline(item)}")
        return "\n".join(lines)
    return f"{pad}{_inline(obj)}"


def _scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value)


def _inline(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_inline(v) for v in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(job: JobSpec, result: JobResult) -> None:
    """Write the report, the SVG or both where the job asks.  A report that
    cannot be encoded (an integer past the interpreter's digit limit,
    `sys.get_int_max_str_digits`) is a DocumentError and is not written."""
    if result.svg is not None and job.svg:
        _write(job.svg, result.svg)
    if result.payload is not None:
        try:
            text = (json.dumps(result.payload, indent=2) + "\n"
                    if job.fmt == "json" else to_text(result.payload) + "\n")
        except ValueError as exc:
            raise DocumentError(f"cannot write the report: {exc}") from None
        _write(job.output, text)
    elif result.svg is not None and not job.svg:
        _write(job.output, result.svg)


def _write(path, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout without a path.  A
    file that cannot be written is a DocumentError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise DocumentError(f"cannot write output: {exc}") from None


def _read_json(path) -> object:
    """The JSON document in the file at `path`, or on stdin without a path.
    Text that json cannot read (malformed, not UTF-8, nested past its
    recursion limit, or with a number past the interpreter's digit limit)
    is a DocumentError."""
    try:
        return json.loads(Path(path).read_text() if path else sys.stdin.read())
    except (ValueError, RecursionError) as exc:
        raise DocumentError(str(exc)) from None


def _run_batch(directory: str) -> int:
    base = Path(directory)
    files = sorted(base.glob("*.json"))
    files = [f for f in files if not f.name.endswith(".out.json")]
    if not files:
        print(f"no job documents in {directory}", file=sys.stderr)
        return 2

    failures = 0
    criterion_failed = False
    for path in files:
        try:
            doc = _read_json(path)
            if not isinstance(doc, dict) or not isinstance(doc.get("flags", {}), dict):
                raise DocumentError("a job document is an object with an object of 'flags'")
            command = doc.get("command", "")
            job = JobSpec(
                command=command,
                document=doc.get("input", {}),
                output=str(path.with_name(path.stem + ".out.json")),
                svg=str(path.with_suffix(".svg")) if command == "render" else None,
                **_options(command, doc.get("flags", {})),
            )
            result = run_job(job)
            criterion_failed |= result.exit_code == 3
            _emit(job, result)
        except (RelutoricError, OSError) as exc:
            failures += 1
            print(f"{path.name}: {exc}", file=sys.stderr)
    return 2 if failures else 3 if criterion_failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relutoric",
        description="Exact toric invariants of unbiased ReLU networks.")
    parser.add_argument("--batch", metavar="DIR",
                        help="process every job document in DIR, one after another")
    sub = parser.add_subparsers(dest="command")
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", metavar="PATH",
                       help="input document (default: stdin)")
        p.add_argument("--output", metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if name in ("fan", "render"):
            p.add_argument("--svg", metavar="PATH",
                           help="also write an SVG rendering (dimension 2)")
        for option, (commands, decode, help_text) in OPTIONS.items():
            if name in commands:
                kind = {"action": "store_true"} if decode is decode_bool else {"type": int}
                p.add_argument("--" + option.replace("_", "-"), dest=option,
                               default=argparse.SUPPRESS, help=help_text, **kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.batch:
        return _run_batch(args.batch)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    try:
        document = _read_json(args.input)
    except (OSError, DocumentError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    given = {name: value for name, value in vars(args).items() if name in OPTIONS}
    try:
        job = JobSpec(
            command=args.command,
            document=document,
            output=args.output,
            svg=getattr(args, "svg", None),
            fmt=args.format,
            **_options(args.command, given),
        )
        result = run_job(job)
        _emit(job, result)
    except RelutoricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
