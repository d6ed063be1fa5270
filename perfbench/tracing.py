"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (perf_counter seconds), the index of its
parent span, the round it belongs to, and optional counts such as ``work``
(points, calls or samples handled). Spans stay in memory until the run
writes them out at exit. ``NULL`` stands in when tracing is off: it calls
straight through, so an untraced round pays nothing for the hooks.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.round_id = None

    @contextmanager
    def span(self, name, **counts):
        """Record one span; the body may add counts to the yielded dict."""
        rec = {"name": name, "parent": self._stack[-1] if self._stack else -1,
               "round": self.round_id, **counts}
        index = len(self.spans)
        self.spans.append(rec)
        self._stack.append(index)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, work=None, **kwargs):
        """Call ``fn`` inside a span named ``name`` with ``work`` units."""
        with self.span(name, work=work):
            return fn(*args, **kwargs)

    @contextmanager
    def round(self, round_id):
        self.round_id = round_id
        try:
            with self.span("round") as rec:
                yield rec
        finally:
            self.round_id = None

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


class _NullTracer:
    @contextmanager
    def span(self, name, **counts):
        yield {}

    def call(self, name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)


NULL = _NullTracer()


def self_times_ok(spans, slack=1e-9):
    """True when, in every round, descendants' self times fit in the round.

    A span's self time is its duration minus the part its direct children
    cover; summed over a round's descendants it may not exceed the round.
    """
    duration = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] >= 0:
            covered[s["parent"]] += d
    self_time = [d - c for d, c in zip(duration, covered)]
    if min(self_time, default=0.0) < -slack:
        return False
    inside = {}
    for i, s in enumerate(spans):
        if s["name"] != "round":
            inside[s["round"]] = inside.get(s["round"], 0.0) + self_time[i]
    return all(inside.get(s["round"], 0.0) <= d + slack
               for s, d in zip(spans, duration) if s["name"] == "round")
