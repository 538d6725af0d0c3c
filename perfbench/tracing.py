"""Spans and counters recorded around the benchmark's calls into the package.

A span is (name, start, end) around one call the benchmark makes into a
layer's public function.  Spans are kept in memory and summarised when the
pass ends.  With tracing off, ``wrap`` hands back the original function, so
the untraced run pays nothing.

The tracer's own cost is estimated, not taken as a traced-minus-untraced
difference of two passes: on a host whose speed drifts by 10-20 % that
difference is noise many times larger than the cost.  ``overhead_s``
multiplies the spans and counted calls of the pass by the per-call cost of
the span and counter wrappers, timed on a no-op in the same process.
"""

from __future__ import annotations

import functools
import math
import time

perf = time.perf_counter


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.counts = {}

    def wrap(self, name, fn):
        """Return fn timed as span ``name`` (fn itself when tracing is off)."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, t0, perf()))

        return traced

    def count_calls(self, owner, attr, name):
        """Count calls of method ``owner.attr``, which the package calls
        internally, under counter ``name``."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def overhead_s(self, reps=20000, repeats=5):
        """Estimated wall time the pass spent in the tracer's wrappers."""
        n_spans = len(self.spans)
        n_counted = sum(self.counts.values())
        probe = Tracer(True)

        def noop():
            return None

        class Owner:
            f = staticmethod(noop)

        probe.count_calls(Owner, "f", "probe")
        per_call = {}
        for name, fn in (("span", probe.wrap("probe", noop)), ("count", Owner.f)):
            diffs = []
            for _ in range(repeats):
                probe.spans.clear()
                t0 = perf()
                for _ in range(reps):
                    fn()
                t1 = perf()
                for _ in range(reps):
                    noop()
                diffs.append((t1 - t0) - (perf() - t1))
            per_call[name] = max(min(diffs), 0.0) / reps
        return n_spans * per_call["span"] + n_counted * per_call["count"]

    def summary(self):
        """calls, busy_s and p50_ms per span name, and the counters.  The
        benchmark's spans do not nest, so busy time is also self time."""
        durations = {}
        for name, t0, t1 in self.spans:
            durations.setdefault(name, []).append(t1 - t0)
        spans = {
            name: {"calls": len(ds), "busy_s": sum(ds), "p50_ms": 1e3 * percentile(ds, 50)}
            for name, ds in durations.items()
        }
        return {"spans": spans, "counts": dict(self.counts), "overhead_s": self.overhead_s()}
