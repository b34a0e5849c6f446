"""Spans and counters recorded by the benchmark around calls into each layer.

The tracer keeps everything in memory.  ``TracedTarget`` is a
transparent proxy: it forwards every call unchanged, so a traced run
draws the same samples as an untraced one, and it is safe to share
between the worker threads of ``run_chains``.
"""

import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from brightside.targets import TargetModel


class Tracer:
    """Thread-safe store of (name, start, end) spans and named counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self.spans = defaultdict(list)
        self.counters = defaultdict(float)

    def record(self, name, start, end, **counts):
        with self._lock:
            self.spans[name].append((start, end))
            for key, value in counts.items():
                self.counters[f"{name}.{key}"] += value

    @contextmanager
    def span(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.record(name, start, perf_counter())

    def total(self, name):
        return sum(end - start for start, end in self.spans[name])

    def self_time(self, name, children):
        """Duration of ``name`` spans minus the part their child spans cover.

        Children are the spans named in ``children`` that fall inside a
        parent interval; overlapping children (from worker threads) are
        merged first, so covered time is never counted twice.
        """
        kids = [iv for child in children for iv in self.spans[child]]
        kids = np.array(sorted(kids)) if kids else np.empty((0, 2))
        total = 0.0
        for start, end in self.spans[name]:
            inside = kids[(kids[:, 0] >= start) & (kids[:, 1] <= end)]
            total += (end - start) - _union_length(inside)
        return total


def _union_length(intervals):
    """Length of the union of intervals sorted by start."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


class TracedTarget(TargetModel):
    """Proxy recording a span, a call and its point count per density call."""

    def __init__(self, inner: TargetModel, tracer: Tracer):
        self.inner = inner
        self.dim = inner.dim
        self._tracer = tracer
        if inner.has_gradient:
            self.grad_log_density = self._grad_log_density
        if inner.has_exact_sampler:
            self.exact_sample = inner.exact_sample

    def _call(self, name, fn, y):
        start = perf_counter()
        out = fn(y)
        end = perf_counter()
        self._tracer.record(name, start, end, calls=1,
                            points=np.size(y) // self.dim)
        return out

    def log_density(self, y):
        return self._call("targets.log_density", self.inner.log_density, y)

    def _grad_log_density(self, y):
        return self._call("targets.grad_log_density",
                          self.inner.grad_log_density, y)
