"""The benchmark's span recorder.

Spans are recorded from the benchmark's own code, around its calls into
each layer of :mod:`repro`, never from inside the program.  Each thread
keeps its own stack, so a span's parent is the innermost open span of
the thread that opened it, and every span carries the thread's native
id.  A top-level span opens a new request id that its descendants
inherit.  Spans stay in memory until :meth:`SpanRecorder.write` dumps
them as a Chrome ``trace_event`` document.

``repro.obs.Tracer`` is not used here: it keeps one depth counter for
all threads and stamps the process id as the thread id, so two client
threads would interleave on one track with wrong nesting.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.export import validate_chrome_trace


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    tid: int
    parent: int | None
    request: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._next_request = 0
        self._thread_names: dict[int, str] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._thread_names[threading.get_native_id()] = \
                    threading.current_thread().name
        return stack

    def _new_span(self, name: str, start: float, end: float) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            if parent is None:
                self._next_request += 1
            span_id, request = self._next_id, self._next_request
        return Span(span_id, name, start, end, threading.get_native_id(),
                    parent.id if parent else None,
                    parent.request if parent else request)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record the ``with`` body as a child of this thread's open span."""
        span = self._new_span(name, time.perf_counter(), 0.0)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an interval measured elsewhere (``perf_counter`` clock)
        as a child of this thread's open span."""
        span = self._new_span(name, start, end)
        with self._lock:
            self.spans.append(span)
        return span

    # -- queries -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        """Spans called ``name``, in the order they closed."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        """Every recorded span's direct children, keyed by parent id."""
        kids: dict[int, list[Span]] = {}
        with self._lock:
            for span in self.spans:
                if span.parent is not None:
                    kids.setdefault(span.parent, []).append(span)
        return kids

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        with self._lock:
            spans = list(self.spans)
            names = dict(self._thread_names)
        pid = os.getpid()
        base = min((s.start for s in spans), default=0.0)
        events = [{"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                   "args": {"name": name}} for tid, name in names.items()]
        events += [{"ph": "X", "name": s.name, "cat": s.name.split(".")[0],
                    "ts": (s.start - base) * 1e6, "dur": s.seconds * 1e6,
                    "pid": pid, "tid": s.tid,
                    "args": {"id": s.id, "parent": s.parent,
                             "request": s.request}}
                   for s in spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> list[str]:
        """Write the Chrome trace to ``path``; returns its shape problems
        as read back from disk (empty when valid)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)
        with open(path, encoding="utf-8") as handle:
            return validate_chrome_trace(json.load(handle))
