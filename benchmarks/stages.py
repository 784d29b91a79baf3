"""The ROADMAP's ad hoc stage baselines, timed once per traced run.

These inputs sit outside every workload: random weights p/q with |p| <= 5
and q <= 3 from a fixed seed, as in the ROADMAP's measurements.  The
[3,6,1] fan of a generic draw has 32 maximal cones, the size of the
ROADMAP's ``validate_fan`` figure.
"""

from __future__ import annotations

import random
import time

from corpus import random_net


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def stage_baselines() -> dict[str, tuple[float, str]]:
    from relutoric.divisor import extract_support
    from relutoric.fan import build_relu_fan, validate_fan
    from relutoric.jsonio import decode_network
    from relutoric.realizability import criterion_check

    small = decode_network(random_net(random.Random("stage/3-6-1"), (3, 6, 1)))
    large = decode_network(random_net(random.Random("stage/3-14-1"), (3, 14, 1)))
    out = {}
    seconds, small_fan = _timed(build_relu_fan, small)
    out["stage.build_relu_fan_3_6_1_s"] = (seconds, "s")
    seconds, large_fan = _timed(build_relu_fan, large)
    out["stage.build_relu_fan_3_14_1_s"] = (seconds, "s")
    seconds, _ = _timed(validate_fan, small_fan)
    out["stage.validate_fan_s"] = (seconds, "s")
    out["stage.validate_fan_cones"] = (len(small_fan.maximal_cones), "count")
    support = extract_support(large, large_fan)
    seconds, _ = _timed(criterion_check, support)
    out["stage.criterion_check_3_14_1_s"] = (seconds, "s")
    return out
