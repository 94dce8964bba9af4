"""Deterministic fault injection (chaos harness).

The retry/isolation machinery in this package is only trustworthy if
its failure paths are *testable*, and failure paths are only testable if
faults are reproducible.  This module injects configurable faults into
the LLM, compiler and simulation-sandbox seams, keyed by an explicit
seed plus the call's content -- never by wall-clock or global call
order -- so:

* the same seed always faults the same work units, regardless of job
  count or backend (serial, thread, process);
* a "5% of trials hard-fail" experiment names *exactly* which trials
  failed, run after run.

Pieces:

* :class:`FaultSpec` -- what to inject at one seam: a fault ``rate``,
  a ``kind`` (``exception`` / ``timeout`` / ``garbage``), and whether
  the fault is transient (clears after N raises, so retries succeed)
  or permanent (every attempt fails, so retries exhaust);
* :class:`FaultInjector` -- draws fault decisions deterministically
  from ``(seed, site, key)``;
* :class:`ChaosRepairModel` / :class:`ChaosLLMClient` /
  :class:`ChaosCompiler` -- wrappers that apply an injector to a real
  model / client / compiler.

``exception`` and ``timeout`` faults raise
:class:`~repro.errors.InjectedFault` /
:class:`~repro.errors.LLMTimeoutError` (both retryable);
``garbage`` faults *return* plausible junk instead of raising -- the
"model replied with nonsense" failure mode, which must be survived by
the agent loop rather than the retry layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Optional

from ..errors import InjectedFault, LLMTimeoutError
from .ambient import Ambient
from .retry import guidance_key, messages_key

if TYPE_CHECKING:
    from ..diagnostics.compiler import CompileResult
    from ..llm.base import ChatMessage, RepairStep

FaultKind = Literal["exception", "timeout", "garbage"]

#: The junk a garbage-faulted model emits (never valid Verilog, so the
#: compiler keeps the loop honest).
GARBAGE_CODE = "@@@ chaos: garbled model reply @@@"


def _stable_unit(key: str) -> float:
    """Deterministic uniform(0,1) draw from a string key."""
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def _digest(text: str) -> str:
    """Short stable content digest for fault keying."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of one fault seam.

    ``rate`` is the probability that a given call key draws a fault.
    ``transient_failures = 0`` makes drawn faults permanent (every
    attempt at that key fails); ``N > 0`` makes them transient (the
    first ``N`` attempts fail, then the call succeeds -- the
    retry-then-succeed shape).
    """

    rate: float
    kind: FaultKind = "exception"
    transient_failures: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.kind not in ("exception", "timeout", "garbage"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.transient_failures < 0:
            raise ValueError("transient_failures must be >= 0")


@dataclass
class FaultInjector:
    """Draws deterministic fault decisions for named seams.

    Seams: ``llm`` (``RepairModel.start`` / ``step``), ``client``
    (``LLMClient.complete``), ``compiler`` (``Compiler.compile``) and
    ``sim`` (the simulation-sandbox harnesses ``run_differential`` /
    ``make_sim_feedback``, sites ``sim.diff`` and ``sim.feedback``).
    The decision for a call is a pure function of ``(seed, site, key)``;
    only transient-recovery counting is stateful (per injector instance,
    which is exactly the retry loop's scope).  Simulation fault keys
    deliberately exclude the engine name so both engines draw the same
    fault for the same work -- the fuzz sandbox-differential invariant
    depends on that.
    """

    seed: int = 0
    llm: Optional[FaultSpec] = None
    client: Optional[FaultSpec] = None
    compiler: Optional[FaultSpec] = None
    sim: Optional[FaultSpec] = None
    #: (site, key) -> number of faults already raised (transient bookkeeping).
    _raised: dict = field(default_factory=dict, repr=False, compare=False)

    def _spec_for(self, site: str) -> Optional[FaultSpec]:
        return getattr(self, site.split(".", 1)[0], None)

    def decide(self, site: str, key: str) -> Optional[FaultKind]:
        """The fault (if any) for this call: ``None`` or a kind.

        Deterministic per ``(seed, site, key)``; a transient spec stops
        faulting a key after ``transient_failures`` decisions, so a
        retry of the same call recovers.
        """
        spec = self._spec_for(site)
        if spec is None or spec.rate <= 0.0:
            return None
        if _stable_unit(f"fault|{self.seed}|{site}|{key}") >= spec.rate:
            return None
        if spec.transient_failures:
            count = self._raised.get((site, key), 0)
            if count >= spec.transient_failures:
                return None
            self._raised[(site, key)] = count + 1
        return spec.kind

    def fire(self, site: str, key: str) -> Optional[FaultKind]:
        """Decide and, for raising kinds, raise the fault.

        Returns ``None`` (no fault) or ``"garbage"`` (the caller must
        fabricate a junk reply); ``exception``/``timeout`` raise.
        """
        kind = self.decide(site, key)
        if kind == "exception":
            raise InjectedFault(f"injected fault at {site} (key {key})")
        if kind == "timeout":
            raise LLMTimeoutError(f"injected timeout at {site} (key {key})")
        return kind


#: Ambient injector consulted by the simulation harnesses.  The LLM and
#: compiler seams wrap concrete objects, but the sim harnesses are plain
#: functions called from deep inside agents -- an ambient scope (the
#: same idiom as the verdict cache) reaches them without threading an
#: injector through every signature.
SIM_INJECTOR = Ambient()
get_active_sim_injector = SIM_INJECTOR.get
use_sim_chaos = SIM_INJECTOR.use


class ChaosRepairModel:
    """Chaos wrapper for a :class:`~repro.llm.base.RepairModel`.

    Fault keys include the wrapped model's seed (when it has one) and a
    content digest, so per-trial experiments fault the same trials at
    any job count.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    @property
    def name(self) -> str:
        """Marks the model as chaos-wrapped in labels and reports."""
        return f"chaos({self.inner.name})"

    def with_seed(self, seed: int) -> "ChaosRepairModel":
        """Re-seed the wrapped model; the injector seed is independent
        (faults stay pinned to the chaos seed, not the sampling seed)."""
        inner = self.inner
        reseed = getattr(inner, "with_seed", None)
        if callable(reseed):
            inner = reseed(seed)
        return ChaosRepairModel(inner, self.injector)

    def _session_key(self, code: str) -> str:
        return f"{getattr(self.inner, 'seed', 0)}|{_digest(code)}"

    def start(self, code: str, flavor: str, use_rag: bool) -> "ChaosRepairSession":
        """Open a session, possibly faulting the handshake itself."""
        key = self._session_key(code)
        self.injector.fire("llm.start", key)
        return ChaosRepairSession(
            self.inner.start(code, flavor, use_rag), self.injector, key
        )


class ChaosRepairSession:
    """Session counterpart of :class:`ChaosRepairModel`."""

    def __init__(self, inner, injector: FaultInjector, key: str):
        self.inner = inner
        self.injector = injector
        self.key = key

    def step(self, code: str, feedback: str, guidance: list) -> RepairStep:
        """One model turn, faulted by content key (a retry of the same
        turn re-draws the same decision, so transient specs recover).
        Guidance participates in the key -- mirroring the retry layer --
        so turns differing only in retrieved guidance draw independent
        fault decisions."""
        # Imported here, not at module top: repro.llm.pool imports this
        # module, so a top-level llm import would be circular when the
        # runtime package initializes first (e.g. `rtlfixer fuzz`).
        from ..llm.base import RepairStep

        key = f"{self.key}|{_digest(code)}|{_digest(feedback)}|{guidance_key(guidance)}"
        kind = self.injector.fire("llm.step", key)
        if kind == "garbage":
            return RepairStep(
                thought="(chaos) the reply came back garbled",
                code=GARBAGE_CODE,
            )
        return self.inner.step(code, feedback, guidance)

    def observe(self, success: bool) -> None:
        """Forward the agent's per-iteration outcome signal (tier
        escalation) to the wrapped session when it routes on it."""
        notice = getattr(self.inner, "observe", None)
        if callable(notice):
            notice(success)


class ChaosLLMClient:
    """Chaos wrapper for a raw :class:`~repro.llm.base.LLMClient`."""

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def complete(self, messages: list["ChatMessage"], temperature: float = 0.4) -> str:
        """One chat completion, possibly faulted or garbled.  Keyed
        role- and temperature-aware (:func:`~repro.runtime.retry.messages_key`)
        like the retry layer, so a rearranged conversation or a changed
        temperature draws a fresh fault decision and a retried identical
        call re-draws the same one."""
        key = messages_key(messages, temperature)
        kind = self.injector.fire("client.complete", key)
        if kind == "garbage":
            return GARBAGE_CODE
        return self.inner.complete(messages, temperature=temperature)


class ChaosCompiler:
    """Chaos wrapper for the compiler facade.

    ``garbage`` faults compile a corrupted variant of the source, so the
    agent receives real-but-wrong diagnostics (a poisoned feedback
    channel) instead of an exception.
    """

    def __init__(self, inner, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    @property
    def flavor(self) -> str:
        """The wrapped compiler's feedback flavour."""
        return self.inner.flavor

    def compile(self, code: str) -> "CompileResult":
        """One compiler invocation, possibly faulted or poisoned."""
        kind = self.injector.fire("compiler.compile", _digest(code))
        if kind == "garbage":
            return self.inner.compile(code + "\n" + GARBAGE_CODE + "\n")
        return self.inner.compile(code)
