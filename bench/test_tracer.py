"""Self times, leaves and absent entry points of the benchmark's tracer.

    python3 -m pytest bench/test_tracer.py
"""

import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def test_self_time_subtracts_children():
    tracer = Tracer()
    leaf = tracer.leaf("b.work", "b", lambda: time.sleep(0.02))
    with tracer.span("a.outer", "a"):
        time.sleep(0.02)
        leaf()
        leaf()
    assert tracer.leaves["b.work"][0] == 2
    assert 0.035 < tracer.self_time["b"] < 0.08
    assert 0.015 < tracer.self_time["a"] < 0.04
    (span,) = tracer.spans
    assert span["parent"] is None and span["end"] > span["start"]


def test_missing_entry_point_is_reported_absent():
    module = types.ModuleType("program")
    module.present = lambda: 1
    tracer = Tracer()
    assert tracer.lookup(module, "prefetch_kernel_matrices") is None
    with tracer.patched([(module, "present", "layer"), (module, "removed", "layer")]):
        assert module.present() == 1
    assert module.present() == 1 and tracer.leaves["layer.present"][0] == 1
    assert tracer.absent == ["program.prefetch_kernel_matrices", "program.removed"]


def test_bookkeeping_is_overhead_not_self_time():
    tracer = Tracer()
    leaf = tracer.leaf("b.noop", "b", lambda: None)
    t0 = time.perf_counter()
    with tracer.span("a.loop", "a"):
        for _ in range(20000):
            leaf()
    wall = time.perf_counter() - t0
    assert tracer.overhead > 0.0
    accounted = sum(tracer.self_time.values()) + tracer.overhead
    assert abs(accounted - wall) < 0.05 * wall
