"""In-memory span recorder and the function wrappers that feed it.

A span is ``(id, parent, name, start, end, request)``.  Spans are kept
in a list while the workload runs and written out as JSONL at the end,
so tracing costs one ``perf_counter`` pair and one tuple per wrapped
call.  The current span travels in a :mod:`contextvars` variable, so
spans opened in different threads never adopt each other as parents.

Layers are timed from outside the program: :meth:`Tracer.wrap_function`
replaces a function at every ``repro`` module binding that refers to
it (the binding its callers look up), and :meth:`Tracer.wrap_method`
replaces a method on its class.  :meth:`Tracer.restore` undoes both.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

_perf = time.perf_counter


class Tracer:
    """Records spans and counters around wrapped calls."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Content digests of compiled sources (distinct-source count).
        self.sources: set[str] = set()
        #: Simulation budget trackers, read for cycle counts at the end.
        self.sim_trackers: list = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def start(self, name: str, request: Optional[str] = None):
        """Open a span; returns the token :meth:`finish` needs."""
        parent = self._current.get()
        sid = next(self._ids)
        if request is None and parent is not None:
            request = parent[1]
        token = self._current.set((sid, request))
        return (sid, 0 if parent is None else parent[0], name, request,
                token, _perf())

    def finish(self, opened) -> None:
        sid, parent, name, request, token, t0 = opened
        t1 = _perf()
        self._current.reset(token)
        self.spans.append((sid, parent, name, t0, t1, request))

    def span(self, name: str, request: Optional[str] = None) -> "_SpanScope":
        """A ``with`` block recorded as one span."""
        return _SpanScope(self, name, request)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, fn: Callable, name: Optional[str],
                 after: Optional[Callable] = None,
                 request: Optional[Callable] = None) -> Callable:
        """``name=None`` records no span, only runs ``after``;
        ``request(args)`` names the request a root span belongs to."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                after(tracer, args, kwargs, result)
                return result
            opened = tracer.start(
                name, None if request is None else request(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(opened)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return traced

    def wrap_method(self, cls: type, attr: str, name: Optional[str],
                    after: Optional[Callable] = None,
                    request: Optional[Callable] = None) -> None:
        """Record a span around every call of ``cls.attr``; ``after``
        (``tracer, args, kwargs, result``) may add counters."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, after, request))

    def wrap_function(self, module_name: str, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        """Record a span around ``module.attr`` at every loaded ``repro``
        module binding of that same function object."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self._wrapper(original, name, after)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def wrap_context(self, cls: type, attr: str, prefix: str) -> None:
        """Record ``cls.attr(self, name)`` context-manager blocks as
        spans named ``prefix + name`` (``DiagnosticEngine.stage``)."""
        original = cls.__dict__[attr]
        tracer = self
        self._undo.append((cls, attr, original))

        @functools.wraps(original)
        def traced(obj, label, *args, **kwargs):
            return _SpanAround(
                tracer, prefix + label, original(obj, label, *args, **kwargs)
            )
        setattr(cls, attr, traced)

    def restore(self) -> None:
        """Put every wrapped binding back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, t0, t1, request in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "request": request,
                }) + "\n")


class _SpanScope:
    def __init__(self, tracer: Tracer, name: str, request: Optional[str]):
        self.tracer, self.name, self.request = tracer, name, request

    def __enter__(self):
        self.opened = self.tracer.start(self.name, self.request)
        return self

    def __exit__(self, *exc_info):
        self.tracer.finish(self.opened)
        return False


class _SpanAround:
    """A context manager that records a span around another one."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __enter__(self):
        self.opened = self.tracer.start(self.name)
        return self.inner.__enter__()

    def __exit__(self, *exc_info):
        try:
            return self.inner.__exit__(*exc_info)
        finally:
            self.tracer.finish(self.opened)


def load_jsonl(path: str) -> list[tuple]:
    """Spans written by :meth:`Tracer.write_jsonl`, as tuples."""
    spans = []
    with open(path) as handle:
        for line in handle:
            rec = json.loads(line)
            spans.append((rec["id"], rec["parent"], rec["name"],
                          rec["start"], rec["end"], rec["request"]))
    return spans


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds per span name: each span's duration minus the part of
    its interval that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1, _req in spans:
        if parent:
            children[parent].append((t0, t1))
    totals: dict[str, float] = defaultdict(float)
    for sid, _parent, name, t0, t1, _req in spans:
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, edge, t0), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        totals[name] += (t1 - t0) - covered
    return dict(totals)
