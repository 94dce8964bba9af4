"""Process-global ambient slots and the LRU store under every cache.

Run state that deep call sites consult without it being threaded
through their signatures (the active caches, stats sinks, the token
ledger, LLM routing, the sim fault injector, the default sim limits and
engine) is one :class:`Ambient` slot each, declared next to the code
that owns it.  Slots are process-global on purpose, not ``contextvars``:
a value scoped in the main thread must reach
:class:`~repro.runtime.ParallelRunner` thread workers and be inherited
by forked workers.  Only the per-request service deadline
(:mod:`repro.service.deadline`) is a ``ContextVar``, so concurrently
served requests never see each other's.

:class:`LRUStore` is the bounded map the three content-addressed caches
(compile results, pipeline stage artifacts, simulation verdicts) keep
their entries in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator, Optional

#: Default LRU bound of every cache.  Entries are small (compiled
#: designs of a few KB, token tuples, verdicts), so this keeps a full
#: experiment's working set resident without unbounded growth on
#: adversarial workloads.
DEFAULT_MAXSIZE = 4096


class Ambient:
    """One process-global value with scoped, restoring overrides.

    With a ``factory`` (the caches, the sandbox stats), :meth:`use`
    without an argument scopes a fresh value; otherwise it scopes
    ``None``.  ``check`` validates every value :meth:`set` installs by
    raising ``ValueError``.
    """

    __slots__ = ("value", "_factory", "_check", "_lock")

    def __init__(self, default: Any = None, *, factory: Optional[Callable] = None,
                 check: Optional[Callable] = None):
        self.value = default
        self._factory = factory
        self._check = check
        self._lock = threading.Lock()

    def get(self) -> Any:
        """The current value."""
        return self.value

    def set(self, value: Any) -> Any:
        """Install ``value``; returns the previous value."""
        if self._check is not None:
            self._check(value)
        with self._lock:
            previous, self.value = self.value, value
        return previous

    def use(self, value: Any = None):
        """Scope ``value`` (a fresh one from the factory when omitted)
        to a ``with`` block; the previous value is restored on exit."""
        if value is None and self._factory is not None:
            value = self._factory()
        return self._scoped(value)

    def off(self):
        """Scope ``None`` to a ``with`` block (disables a cache)."""
        return self._scoped(None)

    @contextmanager
    def _scoped(self, value: Any) -> Iterator[Any]:
        previous = self.set(value)
        try:
            yield value
        finally:
            self.set(previous)


class LRUStore:
    """Thread-safe map bounded to ``maxsize`` entries that evicts the
    least recently used one.  Store no ``None`` values: :meth:`get`
    returns ``None`` for a miss."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Any:
        """The entry for ``key`` (now the most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value`` under ``key``; returns how many entries were
        evicted to stay within ``maxsize``."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = 0
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
            return evicted

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
