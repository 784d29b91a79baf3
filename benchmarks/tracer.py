"""Spans around calls into the package's public functions, from outside.

``Tracer.install`` rebinds each target function, under its own name, in
every ``relutoric.*`` module namespace that holds it (the defining module and
each module that imported it), so calls between modules and inside a module
both go through the wrapper.  ``Tracer.restore`` puts every original binding
back.  Spans stay in memory: name, start, end, parent span, job id, thread,
and, for the functions whose work is counted, the call's arguments and
result, which ``layers.py`` reads after the run.

A layer's self time therefore includes the untraced helpers it calls; the
vector and rank helpers of ``exact_math`` called from ``fan`` count as fan.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass

# Public functions timed per layer (the module that defines them).  ``_emit``
# is the CLI's json.dumps-plus-write step, which has no public name.
TARGETS = {
    "cli": ("main", "run_job", "_emit"),
    "jsonio": ("decode_network", "decode_function", "decode_support", "decode_fan",
               "decode_vector", "decode_rational", "encode_network", "encode_fan",
               "encode_polytope", "encode_vector", "encode_rational"),
    "network": ("evaluate", "validate", "neuron_value", "reduce_shallow",
                "affine_shift"),
    "fan": ("build_relu_fan", "central_fan", "augmented_central_fan",
            "validate_fan", "cone_containing", "cone_from_rays", "wall_groups"),
    "divisor": ("support_of_network", "extract_support", "slopes_by_evaluation",
                "support_on_fan", "divisor_coefficients", "wall_curve",
                "intersection_number", "wall_numbers", "classify_convexity",
                "polytope_of_divisor", "newton_polytope", "ehrhart_volume_estimate",
                "line_bundle_volume"),
    "exact_math": ("convex_hull", "lattice_point_count", "mixed_volume",
                   "euclidean_volume"),
    "expressions": ("parse_expression", "compile_expression",
                    "candidate_hyperplanes"),
    "realizability": ("criterion_check", "criterion_fan", "synthesize_shallow",
                      "verify_up_to_linear", "common_refinement", "transfer_support"),
}

# Functions whose arguments and result are kept for work counts.
COUNTED = {"fan.build_relu_fan", "fan.central_fan", "fan.validate_fan",
           "exact_math.convex_hull", "exact_math.lattice_point_count",
           "expressions.compile_expression", "expressions.candidate_hyperplanes",
           "realizability.criterion_check"}


@dataclass
class Span:
    name: str                   # "<layer>.<function>"
    start: float
    end: float
    parent: int | None          # index into Tracer.spans
    job: str
    thread: int
    call: tuple | None = None   # (args, kwargs, result) for COUNTED names

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = "-"
        self.main_thread = threading.main_thread().ident
        self._local = threading.local()
        self._roots = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    # -- binding ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "relutoric" or name.startswith("relutoric.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"relutoric.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        counted = name in COUNTED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                job = spans[parent].job
            else:
                # Outside the main thread each root span is its own job: the
                # documents of one --batch call.
                parent = None
                thread = threading.get_ident()
                job = (self.job if thread == self.main_thread
                       else f"{self.job}/{next(self._roots)}")
            span = Span(name, clock(), 0.0, parent, job, threading.get_ident())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counted:
                span.call = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, name, start, end, parent, job."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{parent}\t{s.job}\n")
