"""Span recording for the traced benchmark run.

The benchmark calls every public ``nonevade`` function through a
``call(name, fn, *args)`` hook.  Untraced runs use ``untraced_call``, which
only forwards; traced runs use a ``Tracer``, which records one span per call
and keeps every span in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time


def untraced_call(name, fn, *args, **kwargs):
    """The hook for untraced runs: call ``fn`` and nothing else."""
    return fn(*args, **kwargs)


class Tracer:
    """Records spans as ``[name, start, end, parent, instance]`` lists.

    ``parent`` is the index of the enclosing span (-1 for none) and
    ``instance`` the id shared by every span of one benchmark instance.
    """

    def __init__(self):
        self.spans = []
        self.instance = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.instance]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def self_times(self, first=0, last=None):
        """Summed self time per span name, over the spans ``first:last``.

        A span's self time is its duration minus the time its child spans
        cover.  Calls run one at a time, so children never overlap.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        totals = {}
        for k, (name, start, end, _, _) in enumerate(spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[k]
        return totals

    def write(self, path):
        """Write every span as JSON, one list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "instance"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
