"""In-memory spans recorded around calls into subpix, from outside it.

A :class:`Tracer` swaps selected module attributes (functions, methods,
classmethods) for timing wrappers for the duration of a ``with`` block and
puts the originals back afterwards. Nothing under ``src/`` knows it is
being traced: the wrappers sit on the names the calling module looks up,
so a call is timed where one layer enters another.

Each span has a name, start, end, parent span and operation id; spans are
kept in a list and written out once, when the run ends. A wrapper can also
inspect the call's result to count work (points encoded, clamped, ...) at
the same boundary as the span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((sid, name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op_id)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result
        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attr, name, count)`` targets.

        ``name`` is a span name or a function of the call's arguments that
        returns one; ``count`` (or None) is called as
        ``count(counter, result, *args, **kwargs)`` after the call.
        """
        saved = []
        try:
            for owner, attr, name, count in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, count)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, count))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- reductions --------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(e - s for _, n, s, e, _, _ in self.spans if n == name)

    def total_outermost(self, prefix: str) -> float:
        """Summed duration of spans under ``prefix`` not nested in another one.

        Used where one traced function calls another traced function of
        the same layer, so that the inner call is not counted twice.
        """
        names = {sid: n for sid, n, *_ in self.spans}
        return sum(e - s for _, n, s, e, parent, _ in self.spans
                   if n.startswith(prefix)
                   and (parent is None or not names[parent].startswith(prefix)))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus what their direct children cover."""
        child = Counter()
        for _, _, s, e, parent, _ in self.spans:
            if parent is not None:
                child[parent] += e - s
        return sum(e - s - child[sid] for sid, n, s, e, _, _ in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, s, e, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": s, "end": e,
                                     "parent": parent, "op": op}) + "\n")
