"""Spans and counters recorded around each call into a ladderdet layer.

The benchmark routes every library call through ``tracer.call(name, fn,
*args)``, where ``name`` is ``<layer>.<function>``; the library itself is
not instrumented.  ``NullTracer`` is the untraced path used for the
end-to-end metrics.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

KEEP_OPS = 2000  # spans are kept for the first ops only; counters cover all
# The benchmark times CPU time, not wall time: the work is single-threaded
# and CPU-bound, and on a shared machine wall time also counts the time the
# process waits for a core.  ``speed`` then scales it to a fixed speed.
CLOCK = time.process_time


def tree_clock():
    """CPU seconds of this process and of the children it has waited for: the clock of the cli layer."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + usage.ru_utime + usage.ru_stime


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass

    def begin_op(self):
        pass

    def end_op(self, start, end):
        pass


class Tracer:
    """Keeps spans in memory; ``spans`` rows are (id, name, start, end, parent, op)."""

    def __init__(self, clock):
        self.clock = clock
        self.durations = defaultdict(list)
        self.counts = Counter()
        self.spans = []
        self.op = -1
        self._op_span = None
        self._next_id = 0

    def begin_op(self):
        self.op += 1
        self._op_span = self._next_id
        self._next_id += 1

    def end_op(self, start, end):
        if self.op < KEEP_OPS:
            self.spans.append((self._op_span, "op", start, end, None, self.op))
        self.durations["op"].append(end - start)

    def call(self, name, fn, *args):
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self.durations[name].append(end - start)
            if self.op < KEEP_OPS:
                self.spans.append((self._next_id, name, start, end, self._op_span, self.op))
            self._next_id += 1

    def count(self, name, n):
        self.counts[name] += n

    def metrics(self):
        """``<name>.calls`` and ``<name>.busy_s`` per span name, the counters, and ``op.self_s``.

        ``op.self_s`` is the op time that no layer span covers: the
        benchmark's own work inside an operation.
        """
        out = {}
        for name, durations in self.durations.items():
            out[f"{name}.calls"] = len(durations)
            out[f"{name}.busy_s"] = sum(durations)
        out.update(self.counts)
        layers = sum(sum(d) for name, d in self.durations.items() if name != "op")
        out["op.self_s"] = out["op.busy_s"] - layers
        return out
