"""In-memory spans recorded from the benchmark's own code.

A traced run wraps calls into the program's public functions -- plan
steps, the artifact reader, the contraction and packing functions the
plan module calls, the daemon's and the fleet's entry points -- and
records one span per call: name, start, end, parent and request id.
Nothing in ``src/`` is instrumented; every wrapper is installed for the
traced window only and removed afterwards.

Parents follow a per-thread stack, so a span opened while another is
open on the same thread is its child.  A span's *self time* is its
duration minus the durations of its children; children on one thread
never overlap, so the self times of a window partition its traced time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One timed call: ``[start, end)`` on ``perf_counter``'s clock."""

    __slots__ = ("ident", "name", "parent", "request", "start", "end", "attrs")

    def __init__(self, ident: int, name: str, parent: Optional[int],
                 request: Any) -> None:
        self.ident = ident
        self.name = name
        self.parent = parent
        self.request = request
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {
            "id": self.ident, "name": self.name, "parent": self.parent,
            "request": self.request, "start": self.start, "end": self.end,
            **self.attrs,
        }


class Tracer:
    """Collects spans in memory until :meth:`write` dumps them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[Span]:
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(
            next(self._ids), name,
            parent.ident if parent is not None else None, request,
        )
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic

    def add(self, name: str, start: float, end: float, request: Any) -> None:
        """Record a finished root span timed by the caller.

        For requests that interleave on one thread (coroutines), whose
        spans cannot follow the thread's stack.
        """
        record = Span(next(self._ids), name, None, request)
        record.start, record.end = start, end
        self.spans.append(record)

    def wrap(self, name: str, function: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """``function`` with every call recorded as a span ``name``.

        ``measure(args, result)`` may return extra span attributes
        (sequence counts, bytes), taken outside the timed interval.
        """

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = function(*args, **kwargs)
            if measure is not None:
                record.attrs.update(measure(args, result))
            return result

        return traced

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name, in seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            totals[record.name] += record.duration - covered[record.ident]
        return dict(totals)

    def named(self, name: str) -> List[Span]:
        return [record for record in self.spans if record.name == name]

    def write(self, path) -> None:
        """Dump every span as one JSON line, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.to_dict()) + "\n")


@contextlib.contextmanager
def patched(target: Any, attribute: str, replacement: Any) -> Iterator[None]:
    """Set ``target.attribute`` for the ``with`` body, then restore it.

    An attribute the target did not hold itself (a method looked up on
    the class) is deleted on exit rather than reassigned, so the lookup
    falls through to the class again.
    """
    had_own = attribute in vars(target)
    original = getattr(target, attribute)
    setattr(target, attribute, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(target, attribute, original)
        else:
            delattr(target, attribute)
