"""In-memory spans around the program's public functions.

A span records its name, start and end (``perf_counter_ns``), the span
that was open when it started, the workload and the pass. Worker threads
have no open span of their own, so their spans hang under the innermost
span open on the thread that created the tracer. Spans are kept in a list
and written out once, when the benchmark ends; per-layer self times are
derived from them afterwards.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.pass_id = 0
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, pass_id)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        return stack, parent

    @contextmanager
    def span(self, name: str):
        stack, parent = self._open()
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.pass_id))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``. This is
        :meth:`span` inlined, because it runs once per resampling replicate."""
        clock, ids, spans = time.perf_counter_ns, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent = self._open()
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.pass_id))

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, pass_id in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "workload": self.workload, "pass": pass_id,
                }) + "\n")


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans):
        self.by_id = {s[0]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.children[s[4]].append(s)

    @staticmethod
    def duration_s(span) -> float:
        return (span[3] - span[2]) / 1e9

    def self_s(self, span_id) -> float:
        """Span duration minus the part of it that its children cover.
        Children of threaded work overlap, so covered time is the union."""
        span = self.by_id[span_id]
        covered, cursor = 0, span[2]
        for child in sorted(self.children[span_id], key=lambda s: s[2]):
            start, end = max(child[2], cursor), min(child[3], span[3])
            if end > start:
                covered += end - start
                cursor = end
        return (span[3] - span[2] - covered) / 1e9

    def descendants(self, span_id, name):
        """Spans called ``name`` anywhere below ``span_id``."""
        found, todo = [], list(self.children[span_id])
        while todo:
            s = todo.pop()
            if s[1] == name:
                found.append(s)
            todo.extend(self.children[s[0]])
        return found
