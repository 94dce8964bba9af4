"""Simulation-error feedback generation (paper §5).

Runs the differential testbench's lockstep driver while tracing
outputs, then formats the result the way the paper describes: a summary
of the output error count plus a text-formatted waveform-like comparison
of the erroneous module's outputs against the golden solution's.  The
per-signal trace diff behind the count stays on the feedback, where the
trace-diff localizer reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..verilog.elaborate import ElabDesign
from ..verilog.limits import ResourceLimits
from .engine import get_default_sim_engine
from .limits import SimLimits, get_default_sim_limits
from .sandbox import SimVerdict, run_sandboxed
from .testbench import _chaos_verdict, _Lockstep
from .trace import SignalDiff, Trace, diff_traces, render_comparison
from .verdict import cached_verdict


@dataclass
class SimFeedback:
    """Structured simulation feedback for the debugging agent."""

    mismatch_count: int
    samples: int
    text: str
    #: Sandbox classification of the underlying run; ``limit``/``crashed``
    #: feedback is still feedback (the agent sees the reason as text) but
    #: is never memoized.
    verdict: Optional[SimVerdict] = None
    #: Per output signal: mismatching samples and first divergence
    #: (empty when the run produced no traces).  Memoized with the rest
    #: of the feedback, so the trace-diff localizer reads it for free.
    diff: tuple[SignalDiff, ...] = ()
    #: Stimulus samples compared (the trace length; reset samples are
    #: never compared).
    compared: int = 0

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0


def simulate_with_traces(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
) -> tuple[Trace, Trace]:
    """Run both designs on identical stimulus, tracing every output.

    A recording view over the testbench's lockstep driver: both
    simulators and both traces share one
    :class:`~repro.sim.limits.SimLimitTracker` budget pool, so trace
    bombs are stopped by the trace-entry/byte budgets rather than by
    memory exhaustion.
    """
    effective_sim = sim_limits if sim_limits is not None else get_default_sim_limits()
    pair = _Lockstep(candidate, reference, engine, limits, effective_sim)
    tracker = pair.tracker
    cand_trace = Trace(signals=list(pair.outputs), tracker=tracker)
    ref_trace = Trace(signals=list(pair.outputs), tracker=tracker)

    def record(sample: int) -> None:
        if tracker is not None:
            tracker.phase = "trace"
        cand_trace.record(pair.cand)
        ref_trace.record(pair.ref)
        if tracker is not None:
            tracker.phase = "cycle"

    pair.run(samples, seed, record)
    return cand_trace, ref_trace


def make_sim_feedback(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 16,
    seed: int = 0,
    max_shown: int = 16,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
) -> SimFeedback:
    """The feedback message described in §5: error count summary plus the
    waveform-style expected-vs-actual comparison.

    Memoized in the active :class:`~repro.sim.verdict.VerdictCache` the
    same way :func:`~repro.sim.testbench.run_differential` verdicts are:
    feedback is a pure function of the design digests and the stimulus
    parameters.  The sandbox budgets join the key, and only ``ok``/
    ``fail`` outcomes are memoized -- a budget overflow or crash report
    is environment-dependent feedback, not a content-addressed fact."""
    effective_engine = engine if engine is not None else get_default_sim_engine()
    effective_sim = sim_limits if sim_limits is not None else get_default_sim_limits()

    chaos = _chaos_verdict(
        "sim.feedback",
        f"{getattr(candidate, 'digest', None)}|"
        f"{getattr(reference, 'digest', None)}|{samples}|{seed}",
        effective_engine,
    )
    if chaos is not None:
        return SimFeedback(
            mismatch_count=samples, samples=samples,
            text=f"Simulation failed to run: {chaos.detail}",
            verdict=chaos,
        )

    return cached_verdict(
        "feedback", candidate, reference, effective_engine, limits,
        (samples, seed, max_shown, repr(effective_sim)),
        lambda: _make_sim_feedback_uncached(
            candidate, reference, samples, seed, max_shown,
            effective_engine, limits, effective_sim,
        ),
    )


def _make_sim_feedback_uncached(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int,
    seed: int,
    max_shown: int,
    engine: str,
    limits: Optional[ResourceLimits],
    sim_limits: SimLimits,
) -> SimFeedback:
    traces, verdict = run_sandboxed(
        lambda: simulate_with_traces(
            candidate, reference, samples=samples, seed=seed,
            engine=engine, limits=limits, sim_limits=sim_limits,
        ),
        engine,
    )
    if verdict is not None:  # simulation blow-ups are feedback too
        return SimFeedback(
            mismatch_count=samples, samples=samples,
            text=f"Simulation failed to run: {verdict.detail}",
            verdict=verdict,
        )
    cand_trace, ref_trace = traces
    diff = diff_traces(cand_trace, ref_trace)
    mismatches = sum(signal.mismatches for signal in diff)
    total = ref_trace.length * max(len(ref_trace.signals), 1)
    comparison = render_comparison(
        cand_trace, ref_trace, max_samples=max_shown
    )
    text = (
        f"Simulation produced {mismatches} mismatching output sample(s) "
        f"out of {total}.\n"
        f"{comparison}"
    )
    return SimFeedback(
        mismatch_count=mismatches,
        samples=total,
        text=text,
        verdict=SimVerdict(
            category="ok" if mismatches == 0 else "fail", engine=engine
        ),
        diff=diff,
        compared=ref_trace.length,
    )
