"""In-memory spans for the traced run, written out as JSONL at the end.

A span records its name, start, end and the span that caused it
(``parent``); spans opened on one thread nest automatically, and spans
measured elsewhere (another thread, a child process) are added with
explicit times.  Counters sit next to the spans so ratios are taken
where the work happens.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _new_id(self) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            return sid

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       attrs))

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> None:
        """Record a span whose times were measured elsewhere."""
        span = Span(self._new_id(), name, start, end, parent, attrs)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def total(self, name: str, under: int | None = None) -> float:
        """Summed seconds of spans called ``name`` (optionally only the
        descendants of span ``under``)."""
        return sum(s.seconds for s in self.find(name, under))

    def find(self, name: str, under: int | None = None) -> list[Span]:
        spans = [s for s in self.spans if s.name == name]
        if under is None:
            return spans
        parents = {s.id: s.parent for s in self.spans}

        def descends(span: Span) -> bool:
            node = span.parent
            while node is not None:
                if node == under:
                    return True
                node = parents.get(node)
            return False

        return [s for s in spans if descends(s)]

    def write_jsonl(self, path: str) -> None:
        """One line per span, with its self time (its duration minus
        what its direct children cover), then the counters."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (covered.get(span.parent, 0.0)
                                        + span.seconds)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = asdict(span)
                record["self"] = span.seconds - covered.get(span.id, 0.0)
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"counters": self.counters}) + "\n")
