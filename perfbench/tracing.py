"""Spans and counters recorded around idealpoly's public functions.

The benchmark never edits the package: it swaps module attributes (for
example ``idealpoly.simplex.solve``) for timing wrappers while a workload
runs and puts the originals back afterwards.  Callers inside the package
look these attributes up at call time, so every call through the public
module surface is seen.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the id of the benchmark
operation it belongs to.  Spans stay in memory until ``write_spans``.
"""

import contextlib
import json
import time


class Tracer:
    """Collects spans, call counts and observed values for one run."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.values = {}
        self.op = 0
        self._stack = []

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``observe(tracer, args, result)`` runs after a successful call; its
        cost counts as the span's self time.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(self, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, op)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that its calls are counted, without a span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name, amount=1):
        self.values[name] = self.values.get(name, 0) + amount

    def maximum(self, name, value):
        self.values[name] = max(self.values.get(name, value), value)

    def layer_totals(self):
        """Per span name: (calls, self seconds).

        Self time is the span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start - covered[index]))
        return totals

    def nesting_errors(self):
        """Spans that are unfinished, orphaned, or stick out of their parent."""
        errors = []
        for index, span in enumerate(self.spans):
            if span is None:
                errors.append(f"span {index} never finished")
                continue
            name, start, end, parent, _ = span
            if end < start:
                errors.append(f"span {index} ({name}) ends before it starts")
            if parent < 0:
                continue
            if parent >= index or self.spans[parent] is None:
                errors.append(f"span {index} ({name}) has orphan parent {parent}")
                continue
            _, pstart, pend, _, _ = self.spans[parent]
            if start < pstart or end > pend:
                errors.append(f"span {index} ({name}) is not inside span {parent}")
        return errors


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def write_spans(path, spans, meta):
    """One JSON header line, then one ``[name, start, end, parent, op]`` per span."""
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
