"""In-memory span tracer that wraps the program's public functions.

The tracer never edits the program: :meth:`Tracer.wrap` replaces a
module or class attribute with a timing wrapper for the duration of a
traced run and :meth:`Tracer.restore` puts the original back.  Each
span records a name, start, end, parent span and trace id (one per
request, window, cell or phase); spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager, nullcontext

from bench_stats import self_time


def no_span(name, trace=None):
    """Stand-in for :meth:`Tracer.span` in an untraced pass."""
    return nullcontext()


class Span:
    __slots__ = ("id", "parent", "name", "trace", "start", "end", "attrs")

    def __init__(self, id, parent, name, trace, start):
        self.id, self.parent, self.name = id, parent, name
        self.trace, self.start, self.end = trace, start, start
        self.attrs = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "trace": self.trace, "start": self.start, "end": self.end,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if trace is None:
            trace = parent.trace if parent is not None else name
        span = Span(next(self._ids), parent.id if parent else None, name,
                    trace, time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, target: str, name: str, *, trace=None, after=None):
        """Time every call of ``target`` (``"module:attr"`` or
        ``"module:Class.method"``) as a span called ``name``.

        ``trace(args, kwargs)`` picks the call's trace id; ``after(span,
        result, args)`` may attach attributes.  A call made while a span
        of the same name is open on this thread is not recorded again,
        so recursion never counts twice.
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if any(s.name == name for s in stack):
                return func(*args, **kwargs)
            with tracer.span(name, trace(args, kwargs) if trace else None) \
                    as span:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, result, args)
                return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_seconds(self, name: str, exclude=()) -> float:
        """Summed self time of every ``name`` span; children named in
        ``exclude`` count as the span's own time."""
        by_parent: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None and s.name not in exclude:
                by_parent.setdefault(s.parent, []).append(s)
        return sum(
            self_time(s.start, s.end,
                      [(c.start, c.end) for c in by_parent.get(s.id, [])])
            for s in self.named(name))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict()) + "\n")
