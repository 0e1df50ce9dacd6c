"""In-memory spans around the benchmark's calls into each layer.

A span records its name, start, end, parent and a few attributes. Spans
opened on the main thread nest; a span opened on a worker thread (a
``complete`` call under ``concurrency`` > 1) takes the main thread's open
span as its parent. Self time is a span's duration minus the part of it
that its children cover, so overlapping children count once.

The two proxies delegate to the real provider and endpoint and add a span
per call; they enter the program only through its public parameters.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._open: list[int | None] = [None]

    @contextmanager
    def span(self, name: str, **attrs):
        sid = next(self._ids)
        parent = self._open[-1]
        on_main = threading.get_ident() == self._main
        if on_main:
            self._open.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            if on_main:
                self._open.pop()
            self.spans.append(Span(sid, parent, name, start, end, attrs))

    def write(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start_ns": s.start - origin, "end_ns": s.end - origin, **s.attrs,
                }) + "\n")


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_seconds(spans: list[Span]) -> dict[tuple[str | None, str], float]:
    """Wall seconds per (parent name, span name), summed over all spans.

    Each group of same-named siblings is charged the union of its
    intervals less what its own children cover, so the groups under a
    span and that span's self time add up to its duration. This is exact
    when spans that overlap a sibling have no children, as ``complete``
    spans do not.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    covered = {
        s.id: _union_ns([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]])
        for s in spans
    }
    out: dict[tuple[str | None, str], float] = defaultdict(float)
    for parent, kids in children.items():
        parent_name = by_id[parent].name if parent in by_id else None
        groups: dict[str, list[Span]] = defaultdict(list)
        for kid in kids:
            groups[kid.name].append(kid)
        for name, group in groups.items():
            union = _union_ns([(k.start, k.end) for k in group])
            out[(parent_name, name)] += (union - sum(covered[k.id] for k in group)) / 1e9
    return dict(out)


class TracedProvider:
    """Embedding provider proxy: one ``embedding.embed`` span per batch."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.spec = inner.spec

    def embed_batch(self, texts):
        with self._tracer.span("embedding.embed", texts=len(texts)):
            return self._inner.embed_batch(texts)


class TracedEndpoint:
    """Completion endpoint proxy: one ``llm.complete`` span per call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def token_budget(self):
        return getattr(self._inner, "token_budget", None)

    def complete(self, prompt: str) -> str:
        with self._tracer.span("llm.complete", prompt_chars=len(prompt)):
            return self._inner.complete(prompt)
