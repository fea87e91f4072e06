"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` keeps spans in memory: name, layer, start, end, the span
that was open on the same thread when it began (its parent), and the thread.
Spans come from two places:

* the benchmark opens them itself around the public calls it makes
  (:meth:`Tracer.span`);
* :meth:`Tracer.wrap` replaces a public function or method for the length of
  the traced run with one that opens a span around each call, for calls the
  program makes internally (``Operation.verify`` inside the pass manager,
  ``ArtifactStore.save`` inside ``Session``, the frontend and passes inside
  ``Backend.lower``).  :meth:`Tracer.close` puts
  every original back.

A layer's self time is its spans' time minus the time of their child spans.
The spans export to the Chrome Trace Event format (open the file in Perfetto
or ``chrome://tracing``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

#: Layer of the span the benchmark opens around each operation; its self
#: time is the part of the operation no other span covers.
OPERATION_LAYER = "benchmark.operation"


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    thread: int
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-safe, one span stack per thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, **args):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = Span(span_id, parent, name, layer, start, end,
                          threading.get_ident(), args)
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, layer: str,
             on_result: Optional[Callable[[object], None]] = None) -> None:
        """Open a span called ``name`` around every outermost call of
        ``owner.attr``; ``on_result`` sees each result after its span ends.

        A call made while a span of the same name is open on the same thread
        (``Operation.verify`` recursing into nested ops, ``DmpBackend.transform``
        calling ``Backend.transform``) gets no span of its own: the outermost
        span already covers it.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        def traced(*args, **kwargs):
            open_names = tracer._open_names()
            if name in open_names:
                return original(*args, **kwargs)
            open_names.add(name)
            try:
                with tracer.span(name, layer):
                    result = original(*args, **kwargs)
            finally:
                open_names.discard(name)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _open_names(self) -> Set[str]:
        names = getattr(self._local, "open_names", None)
        if names is None:
            names = self._local.open_names = set()
        return names

    def close(self) -> None:
        """Put back every function :meth:`wrap` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading the spans ---------------------------------------------------

    def total(self, name: str, since: int = 0) -> float:
        """Summed duration of the spans called ``name``, from the
        ``since``-th recorded span on."""
        return sum(s.seconds for s in self.spans[since:] if s.name == name)

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self time in seconds and number of spans."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        table: Dict[str, Dict[str, float]] = {}
        for s in self.spans:
            row = table.setdefault(s.layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += s.seconds - child_time.get(s.id, 0.0)
            row["calls"] += 1
        return table

    def operation_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.layer == OPERATION_LAYER)

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome Trace Event JSON (complete ``X`` events)."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
            tid = threads.setdefault(s.thread, len(threads) + 1)
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": tid, "ts": (s.start - origin) * 1e6,
                "dur": s.seconds * 1e6,
                "args": {"id": s.id, "parent": s.parent, **s.args},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def format_layer_table(table: Dict[str, Dict[str, float]],
                       wall_s: float) -> List[str]:
    """Rows of layer, self time, spans and share of ``wall_s``; the
    operation layer's self time is printed last as the uncovered part."""
    lines = [f"{'layer':<34} {'self_s':>10} {'spans':>8} {'share':>7}"]
    rows = sorted(((layer, row) for layer, row in table.items()
                   if layer != OPERATION_LAYER),
                  key=lambda item: -item[1]["self_s"])
    for layer, row in rows:
        share = row["self_s"] / wall_s if wall_s else 0.0
        lines.append(f"{layer:<34} {row['self_s']:>10.4f} "
                     f"{int(row['calls']):>8} {share:>7.1%}")
    uncovered = table.get(OPERATION_LAYER, {"self_s": 0.0})["self_s"]
    share = uncovered / wall_s if wall_s else 0.0
    lines.append(f"{'(no span covers it)':<34} {uncovered:>10.4f} "
                 f"{'':>8} {share:>7.1%}")
    lines.append(f"{'operations (wall)':<34} {wall_s:>10.4f}")
    return lines
