"""Per-layer metrics from a traced pass.

Times are seconds per job, averaged over the traced pass; counts are per
job too, so they repeat exactly for a given seed.  Every ratio is reported
next to its base.
"""

from __future__ import annotations

import math

from tracer import TARGETS, Tracer

LAYERS = tuple(TARGETS)

DECODE = {f"jsonio.{n}" for n in TARGETS["jsonio"] if n.startswith("decode_")}
ENCODE = {f"jsonio.{n}" for n in TARGETS["jsonio"] if n.startswith("encode_")}


def _top_level(tracer: Tracer, names: set[str]):
    """Spans in `names` with no ancestor in `names` (no double counting)."""
    spans = tracer.spans
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            yield span


def _seconds(tracer, *names) -> float:
    return sum(s.duration for s in _top_level(tracer, set(names)))


def _calls(tracer, name):
    return [s for s in tracer.spans if s.name == name]


def _returned(tracer, name):
    """Calls of a COUNTED function that returned (kept arguments, result)."""
    return [s for s in _calls(tracer, name) if s.call is not None]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _lattice_box(P, m: int) -> int:
    """Points in the bounding box lattice_point_count scans for m * P."""
    from relutoric.exact_math import mat_rank, pivot_columns, vsub

    if P.is_empty():
        return 0
    if len(P.vertices) == 1:
        return 1
    base = P.vertices[0]
    dirs = [vsub(v, base) for v in P.vertices[1:]]
    cols = pivot_columns(dirs) if mat_rank(dirs) else []
    box = 1
    for c in cols:
        values = [m * v[c] for v in P.vertices]
        lo, hi = math.ceil(min(values)), math.floor(max(values))
        box *= max(0, hi - lo + 1)
    return box


def layer_metrics(tracer: Tracer, jobs: int, batch: bool = False
                  ) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced pass of `jobs` jobs.

    In a ``--batch`` pass the jobs run in the pool's worker threads and the
    main thread's ``main`` span only waits for them, so its time is left out
    of the self-time shares.
    """
    from relutoric.realizability import nonlinear_locus_hyperplanes

    per = 1 / jobs
    out: dict[str, tuple[float, str]] = {}

    self_times = tracer.self_times()
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(tracer.spans, self_times):
        if batch and span.parent is None and span.thread == tracer.main_thread:
            continue
        by_layer[span.layer] += own
    total = sum(by_layer.values())
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_layer[layer] * per, "s")
        out[f"{layer}.self_share"] = (_ratio(by_layer[layer], total), "ratio")

    out["cli.emit_s"] = (_seconds(tracer, "cli._emit") * per, "s")
    out["jsonio.decode_s"] = (_seconds(tracer, *DECODE) * per, "s")
    out["jsonio.encode_s"] = (_seconds(tracer, *ENCODE) * per, "s")

    out["network.evaluate_calls"] = (len(_calls(tracer, "network.evaluate")) * per, "count")
    out["network.evaluate_s"] = (_seconds(tracer, "network.evaluate") * per, "s")

    # fan
    sign_vectors = cells = 0
    for span in _returned(tracer, "fan.central_fan"):
        fan = span.call[2]
        if fan.dim >= 3:
            sign_vectors += 2 ** len(fan.hyperplanes)
            cells += len(fan.maximal_cones)
    built = [s.call[2] for s in _returned(tracer, "fan.build_relu_fan")]
    built += [s.call[2] for s in _top_level(tracer, {"fan.build_relu_fan",
                                                     "fan.central_fan"})
              if s.name == "fan.central_fan" and s.call is not None]
    pairs = sum(math.comb(len(s.call[0][0].maximal_cones), 2)
                for s in _returned(tracer, "fan.validate_fan"))
    out["fan.build_relu_fan_s"] = (_seconds(tracer, "fan.build_relu_fan") * per, "s")
    out["fan.central_fan_s"] = (_seconds(tracer, "fan.central_fan") * per, "s")
    out["fan.central_fan_calls"] = (len(_calls(tracer, "fan.central_fan")) * per, "count")
    out["fan.sign_vectors"] = (sign_vectors * per, "count")
    out["fan.cells_found"] = (cells * per, "count")
    out["fan.cell_yield"] = (_ratio(cells, sign_vectors), "ratio")
    out["fan.validate_fan_s"] = (_seconds(tracer, "fan.validate_fan") * per, "s")
    out["fan.cone_pairs_validated"] = (pairs * per, "count")
    out["fan.cone_containing_calls"] = (len(_calls(tracer, "fan.cone_containing")) * per,
                                        "count")
    out["fan.cone_containing_s"] = (_seconds(tracer, "fan.cone_containing") * per, "s")
    out["fan.cones"] = (sum(len(f.maximal_cones) for f in built) * per, "count")
    out["fan.rays"] = (sum(len(f.rays) for f in built) * per, "count")
    out["fan.walls"] = (sum(len(f.walls) for f in built) * per, "count")

    # divisor
    out["divisor.extract_support_s"] = (_seconds(tracer, "divisor.extract_support") * per, "s")
    out["divisor.wall_numbers_s"] = (_seconds(tracer, "divisor.wall_numbers",
                                              "divisor.intersection_number",
                                              "divisor.wall_curve") * per, "s")
    out["divisor.walls_intersected"] = (
        len(_calls(tracer, "divisor.intersection_number")) * per, "count")
    out["divisor.polytope_s"] = (_seconds(tracer, "divisor.polytope_of_divisor",
                                          "divisor.newton_polytope") * per, "s")
    out["divisor.ehrhart_s"] = (_seconds(tracer, "divisor.ehrhart_volume_estimate") * per,
                                "s")
    out["divisor.volume_s"] = (_seconds(tracer, "divisor.line_bundle_volume") * per, "s")

    # exact_math
    hull_points = hull_vertices = subsets = 0
    for span in _returned(tracer, "exact_math.convex_hull"):
        points = {tuple(p) for p in span.call[0][0]}
        P = span.call[2]
        hull_points += len(points)
        hull_vertices += len(P.vertices)
        adim = P.affine_dimension()
        if adim >= 3:
            subsets += math.comb(len(points), adim)
    box = counted = 0
    for span in _returned(tracer, "exact_math.lattice_point_count"):
        P, m = span.call[0][0], span.call[0][1]
        box += _lattice_box(P, m)
        counted += span.call[2]
    out["exact_math.convex_hull_s"] = (_seconds(tracer, "exact_math.convex_hull") * per, "s")
    out["exact_math.convex_hull_calls"] = (
        len(_calls(tracer, "exact_math.convex_hull")) * per, "count")
    out["exact_math.facet_subsets"] = (subsets * per, "count")
    out["exact_math.hull_input_points"] = (hull_points * per, "count")
    out["exact_math.hull_vertices"] = (hull_vertices * per, "count")
    out["exact_math.hull_vertex_yield"] = (_ratio(hull_vertices, hull_points), "ratio")
    out["exact_math.lattice_point_count_s"] = (
        _seconds(tracer, "exact_math.lattice_point_count") * per, "s")
    out["exact_math.lattice_box_points"] = (box * per, "count")
    out["exact_math.lattice_points_counted"] = (counted * per, "count")
    out["exact_math.lattice_scan_yield"] = (_ratio(counted, box), "ratio")
    out["exact_math.mixed_volume_s"] = (_seconds(tracer, "exact_math.mixed_volume") * per,
                                        "s")

    # expressions
    candidates = sum(len(s.call[2]) for s in
                     _returned(tracer, "expressions.candidate_hyperplanes"))
    bending = sum(len(nonlinear_locus_hyperplanes(s.call[2])) for s in
                  _returned(tracer, "expressions.compile_expression"))
    out["expressions.parse_s"] = (_seconds(tracer, "expressions.parse_expression") * per, "s")
    out["expressions.compile_s"] = (_seconds(tracer, "expressions.compile_expression") * per,
                                    "s")
    out["expressions.candidate_hyperplanes"] = (candidates * per, "count")
    out["expressions.bending_hyperplanes"] = (bending * per, "count")
    out["expressions.bend_yield"] = (_ratio(bending, candidates), "ratio")

    # realizability
    reports = [s.call[2] for s in _returned(tracer, "realizability.criterion_check")]
    out["realizability.criterion_check_s"] = (
        _seconds(tracer, "realizability.criterion_check") * per, "s")
    out["realizability.synthesize_s"] = (
        _seconds(tracer, "realizability.synthesize_shallow") * per, "s")
    out["realizability.verify_s"] = (
        _seconds(tracer, "realizability.verify_up_to_linear") * per, "s")
    out["realizability.extended_hyperplanes"] = (
        sum(len(r.groups) for r in reports) * per, "count")
    out["realizability.criterion_checks"] = (len(reports) * per, "count")
    out["realizability.realizable_share"] = (
        _ratio(sum(r.realizable for r in reports), len(reports)), "ratio")
    return out
