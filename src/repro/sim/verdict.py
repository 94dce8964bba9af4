"""Content-addressed memoization of whole testbench verdicts.

The experiment drivers run the same differential testbench over and over:
every trial of a repair loop re-simulates the unchanged golden reference,
resampled candidates frequently repeat earlier attempts byte-for-byte,
and multi-seed experiment grids re-evaluate identical (candidate,
reference) pairs.  Simulation is deterministic -- the stimulus is fully
derived from ``(samples, seed)``, ``$random`` is a pure hash of the call
site, and the engine has no other entropy source -- so the *entire
verdict* (pass/fail, mismatch list, captured traces) is a pure function
of the design contents and the stimulus parameters.

:class:`VerdictCache` memoizes those verdicts the way
:func:`repro.runtime.cache.cached_compile` memoizes compiles: keyed by
the **design digests** stamped at elaboration (see
:meth:`repro.diagnostics.engine.DiagnosticEngine.result`) plus every
stimulus parameter, held in an :class:`~repro.runtime.ambient.LRUStore`,
with hit/miss/eviction stats.  Designs without a digest (error-bearing
or hand-built) are never cached -- lookups simply miss and the caller
runs the simulation.

Chaos engineering stays transparent by construction: fault injection
perturbs the *source text* before compilation
(:class:`~repro.runtime.faults.ChaosCompiler` appends garbage), which
changes the preprocessed text, hence the digest, hence the verdict key
-- a chaos-garbled design can never alias a clean design's verdict.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..runtime.ambient import DEFAULT_MAXSIZE, Ambient, LRUStore
from ..verilog.limits import DEFAULT_LIMITS, ResourceLimits
from ..verilog.pipeline import _digest


def verdict_key(
    kind: str,
    digests: tuple,
    engine: str,
    limits: Optional[ResourceLimits],
    *params,
) -> Optional[str]:
    """Content address of one simulation verdict, or ``None`` when any
    participating design lacks a digest (uncacheable).

    ``kind`` namespaces the harness ("diff" for
    :func:`~repro.sim.testbench.run_differential`, "feedback" for
    :func:`~repro.sim.feedback.make_sim_feedback`); ``digests`` are
    the content digests of every design involved; ``engine`` and the
    effective resource limits participate because both can change the
    verdict (a compiled-only bug would otherwise poison interp results,
    and tighter settle budgets turn passes into failures); ``params``
    captures the stimulus (sample count, seed, recording caps, ...).
    """
    if any(d is None for d in digests):
        return None
    effective = limits if limits is not None else DEFAULT_LIMITS
    return _digest(kind, engine, repr(effective), *digests, *params)


@dataclass
class VerdictStats:
    """Hit/miss/eviction counters for one :class:`VerdictCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups skipped because a design had no digest.
    uncacheable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def simulations_avoided(self) -> int:
        return self.hits

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``run_full_report``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "uncacheable": self.uncacheable,
            "simulations_avoided": self.simulations_avoided,
            "hit_rate": round(self.hit_rate, 4),
        }


class VerdictCache:
    """LRU-bounded, thread-safe memo of simulation verdicts.

    Values are treated as immutable by every consumer
    (:class:`~repro.sim.testbench.TestbenchResult` and
    :class:`~repro.sim.feedback.SimFeedback` are never mutated after
    construction).
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        self._store = LRUStore(maxsize)
        self.stats = VerdictStats()
        #: Guards ``stats``.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key: Optional[str]):
        """The cached verdict for ``key``, or ``None`` (counts stats)."""
        if key is None:
            self.stats.uncacheable += 1
            return None
        cached = self._store.get(key)
        with self._lock:
            if cached is not None:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        return cached

    def put(self, key: Optional[str], verdict) -> None:
        """Store ``verdict`` under ``key`` (no-op for uncacheable keys)."""
        if key is None or verdict is None:
            return
        evicted = self._store.put(key, verdict)
        with self._lock:
            self.stats.evictions += evicted

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        self._store.clear()
        with self._lock:
            self.stats = VerdictStats()


def cached_verdict(kind: str, candidate, reference, engine: str,
                   limits: Optional[ResourceLimits], params: tuple, compute):
    """``compute()``, memoized in the active :class:`VerdictCache` under
    the :func:`verdict_key` of both designs' digests, ``engine``,
    ``limits`` and the stimulus ``params``.  Only results whose
    ``verdict`` is cacheable (genuine ``ok``/``fail``) are stored."""
    cache = VERDICT_CACHE.value
    if cache is None:
        return compute()
    key = verdict_key(
        kind,
        (getattr(candidate, "digest", None), getattr(reference, "digest", None)),
        engine, limits, *params,
    )
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = compute()
    if result.verdict is not None and result.verdict.cacheable:
        cache.put(key, result)
    return result


#: The process-wide default cache, active from import time.
DEFAULT_VERDICT_CACHE = VerdictCache()

#: The cache the simulation harnesses consult; ``no_verdict_cache()``
#: disables memoization (cold-path measurements, engine differentials).
VERDICT_CACHE = Ambient(DEFAULT_VERDICT_CACHE, factory=VerdictCache)
get_active_verdict_cache = VERDICT_CACHE.get
use_verdict_cache = VERDICT_CACHE.use
no_verdict_cache = VERDICT_CACHE.off
