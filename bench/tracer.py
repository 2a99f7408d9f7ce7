"""Spans, counters and self times, recorded from outside the program.

A span is (name, layer, start, end, parent).  Calls that run thousands of
times (a potential evaluated inside a minimizer) are timed as leaves: they
nest and subtract from their parent like spans, but only their call count
and total time are kept.  A layer's self time is the time its spans and
leaves cover minus the time their children cover.  The tracer also times
its own bookkeeping around every span and leaf: that is what tracing adds
to the wall time, and it is kept out of every self time.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


def rusage(children: bool = False):
    return resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for ru in (rusage(), rusage(children=True)):
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    return max(rusage().ru_maxrss, rusage(children=True).ru_maxrss) / 1024.0


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self.leaves: Dict[str, List[float]] = {}  # name -> [calls, seconds]
        self.counters: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.absent: List[str] = []
        self.overhead = 0.0  # seconds of the tracer's own bookkeeping
        # frames: [layer, start, child seconds, span index, bookkeeping
        # start, leaf stats or None]
        self._stack: List[list] = []

    def _enter(self, name: str, layer: str, record: bool, stats=None) -> list:
        entered = time.perf_counter()
        index = None
        if record:
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.spans)
            self.spans.append({"name": name, "layer": layer, "parent": parent})
        frame = [layer, 0.0, 0.0, index, entered, stats]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        layer, start, child, index, entered, stats = frame
        duration = end - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        if index is not None:
            self.spans[index].update(start=start, end=end)
        if stats is not None:
            stats[0] += 1
            stats[1] += duration
        cost = (start - entered) + (time.perf_counter() - end)
        self.overhead += cost
        if self._stack:
            # the bookkeeping is no part of the parent's own work either
            self._stack[-1][2] += duration + cost

    @contextmanager
    def span(self, name: str, layer: str):
        frame = self._enter(name, layer, record=True)
        try:
            yield frame
        finally:
            self._exit(frame)

    def leaf(self, name: str, layer: str, fn: Callable) -> Callable:
        """fn wrapped so that each call is timed as a leaf of the open span."""
        stats = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self._enter(name, layer, False, stats)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return timed

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def lookup(self, module, attr: str) -> Optional[Callable]:
        """A public entry point of the program, or None (recorded as absent)
        when a later version of the program no longer has it."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
        return fn

    @contextmanager
    def patched(self, boundaries):
        """Time calls across module boundaries for the duration of the block.

        boundaries: (module, attribute, layer) triples; the attribute is the
        name under which the calling module imported another layer's
        function.  Missing attributes are recorded as absent and skipped.
        """
        saved = []
        try:
            for module, attr, layer in boundaries:
                fn = self.lookup(module, attr)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.leaf(f"{layer}.{attr}", layer, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": {k: {"calls": v[0], "seconds": v[1]} for k, v in self.leaves.items()},
            "counters": self.counters,
            "self_time": self.self_time,
            "absent": self.absent,
            "overhead_s": self.overhead,
        }
