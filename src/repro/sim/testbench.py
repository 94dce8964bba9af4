"""Golden-model differential testbench.

Functional correctness is judged the way VerilogEval does it: simulate
the candidate implementation and the reference implementation on the
same stimulus and compare outputs.  The stimulus generator understands
the corpus conventions: a ``clk`` input gets a clock, ``reset`` /
``areset`` / ``rst`` inputs get a reset pulse, everything else is driven
with seeded random vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import TransientError
from ..verilog.elaborate import ElabDesign
from ..verilog.limits import ResourceLimits
from .engine import get_default_sim_engine, make_simulator
from .limits import (
    UNTRACKED,
    SimLimits,
    SimLimitTracker,
    get_default_sim_limits,
)
from .sandbox import SimVerdict, get_active_sandbox_stats, run_sandboxed
from .values import Logic
from .verdict import cached_verdict

CLOCK_NAMES = ("clk", "clock")
RESET_NAMES = ("reset", "rst", "areset", "arst", "resetn", "rst_n")


@dataclass
class Mismatch:
    sample: int
    output: str
    expected: str
    actual: str


@dataclass
class TestbenchResult:
    """Outcome of one differential run."""

    passed: bool
    samples: int = 0
    mismatch_count: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    #: Non-empty when the candidate could not be simulated at all
    #: (port interface mismatch, runaway loop, unsupported construct).
    failure_reason: str = ""
    #: Sandbox classification of the run (``ok``/``fail``/``limit``/
    #: ``crashed``); ``limit``/``crashed`` results are never memoized.
    verdict: Optional[SimVerdict] = None

    def summary(self) -> str:
        if self.passed:
            return f"PASS ({self.samples} samples)"
        if self.failure_reason:
            return f"FAIL ({self.failure_reason})"
        return f"FAIL ({self.mismatch_count}/{self.samples} samples mismatched)"


def check_interface(candidate: ElabDesign, reference: ElabDesign) -> str:
    """Return an error string if the candidate's ports do not match the
    reference module's ports (name, direction, width); '' when fine."""
    ref_top = reference.top_module()
    cand_top = candidate.top_module()
    if cand_top is None:
        return "candidate has no modules"
    ref_ports = {p.name: p for p in ref_top.ports}
    cand_ports = {p.name: p for p in cand_top.ports}
    for name, ref_port in ref_ports.items():
        cand_port = cand_ports.get(name)
        if cand_port is None:
            return f"missing port {name!r}"
        if cand_port.direction != ref_port.direction:
            return f"port {name!r} direction mismatch"
        if cand_port.width != ref_port.width:
            return f"port {name!r} width {cand_port.width} != {ref_port.width}"
    extra = set(cand_ports) - set(ref_ports)
    if extra:
        return f"unexpected extra ports: {sorted(extra)}"
    return ""


def _chaos_verdict(site: str, chaos_key: str, engine: str) -> Optional[SimVerdict]:
    """Consult the ambient simulation fault injector, if any.

    Returns ``None`` (no fault), a fabricated ``injected`` verdict for
    ``garbage`` faults, or re-raises the injector's raising kinds after
    counting them.  The chaos key deliberately excludes the engine so
    both engines draw the same fault for the same work.
    """
    # Lazy: repro.runtime transitively imports this package.
    from ..runtime.faults import get_active_sim_injector

    injector = get_active_sim_injector()
    if injector is None:
        return None
    stats = get_active_sandbox_stats()
    try:
        kind = injector.fire(site, chaos_key)
    except TransientError:
        if stats is not None:
            stats.chaos_faults += 1
        raise
    if kind != "garbage":
        return None
    if stats is not None:
        stats.chaos_faults += 1
    return SimVerdict(
        category="crashed",
        engine=engine,
        phase="chaos",
        detail="chaos: garbled simulation verdict",
        injected=True,
    )


def run_differential(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int = 64,
    seed: int = 0,
    max_mismatches_recorded: int = 4,
    engine: Optional[str] = None,
    limits: Optional[ResourceLimits] = None,
    sim_limits: Optional[SimLimits] = None,
) -> TestbenchResult:
    """Drive both designs with identical stimulus and compare outputs.

    ``samples`` is the number of random input vectors (combinational) or
    clock cycles (sequential).  The whole verdict is memoized in the
    active :class:`~repro.sim.verdict.VerdictCache` keyed by the design
    digests and every stimulus parameter -- simulation is deterministic,
    so a repeated (candidate, reference, stimulus) triple returns the
    recorded verdict without simulating.  The sandbox budgets join the
    key (runs under different ``sim_limits`` never alias), and only
    ``ok``/``fail`` verdicts are memoized -- ``limit``/``crashed``
    outcomes depend on budgets and environment, not just content.
    """
    effective_engine = engine if engine is not None else get_default_sim_engine()
    effective_sim = sim_limits if sim_limits is not None else get_default_sim_limits()

    chaos = _chaos_verdict(
        "sim.diff",
        f"{getattr(candidate, 'digest', None)}|"
        f"{getattr(reference, 'digest', None)}|{samples}|{seed}",
        effective_engine,
    )
    if chaos is not None:
        return TestbenchResult(
            passed=False, failure_reason=chaos.detail, verdict=chaos
        )
    return cached_verdict(
        "diff", candidate, reference, effective_engine, limits,
        (samples, seed, max_mismatches_recorded, repr(effective_sim)),
        lambda: _run_differential_uncached(
            candidate, reference, samples, seed, max_mismatches_recorded,
            effective_engine, limits, effective_sim,
        ),
    )


def _run_differential_uncached(
    candidate: ElabDesign,
    reference: ElabDesign,
    samples: int,
    seed: int,
    max_mismatches_recorded: int,
    engine: str,
    limits: Optional[ResourceLimits],
    sim_limits: SimLimits,
) -> TestbenchResult:
    interface_error = check_interface(candidate, reference)
    if interface_error:
        return TestbenchResult(
            passed=False,
            failure_reason=interface_error,
            verdict=SimVerdict(
                category="fail", engine=engine,
                phase="interface", detail=interface_error,
            ),
        )

    def body() -> TestbenchResult:
        pair = _Lockstep(candidate, reference, engine, limits, sim_limits)
        result = TestbenchResult(passed=True)
        pair.run(
            samples, seed,
            lambda sample: _compare(pair, sample, result, max_mismatches_recorded),
        )
        return result

    result, verdict = run_sandboxed(body, engine)
    if verdict is not None:
        return TestbenchResult(
            passed=False, failure_reason=verdict.detail, verdict=verdict
        )
    result.passed = result.mismatch_count == 0 and not result.failure_reason
    result.verdict = SimVerdict(
        category="ok" if result.passed else "fail", engine=engine
    )
    return result


def _random_vector(rng: random.Random, width: int) -> int:
    # Mix uniform randomness with corner values so narrow comparisons
    # (all-zeros, all-ones) are exercised early.
    choice = rng.random()
    if choice < 0.1:
        return 0
    if choice < 0.2:
        return (1 << width) - 1
    return rng.getrandbits(width)


class _Lockstep:
    """The one lockstep driver every differential harness runs on.

    Builds the candidate and reference simulators on one
    :class:`~repro.sim.limits.SimLimitTracker` and discovers the clock,
    reset and data ports from the reference; :meth:`run` drives both
    with the same seeded stimulus.  The harnesses are views over it:
    :func:`run_differential` compares each sample,
    :func:`~repro.sim.feedback.simulate_with_traces` records it.
    """

    def __init__(
        self,
        candidate: ElabDesign,
        reference: ElabDesign,
        engine: Optional[str],
        limits: Optional[ResourceLimits],
        sim_limits: SimLimits,
    ):
        # One budget pool for the whole harness invocation: candidate and
        # reference share a tracker, so the pair cannot take more than one
        # run's worth of resources between them.
        self.tracker = (
            None if sim_limits is UNTRACKED else SimLimitTracker(sim_limits)
        )
        self.cand = make_simulator(
            candidate, engine=engine, limits=limits,
            sim_limits=sim_limits, sim_tracker=self.tracker,
        )
        self.ref = make_simulator(
            reference, engine=engine, limits=limits,
            sim_limits=sim_limits, sim_tracker=self.tracker,
        )
        inputs = self.ref.inputs
        self.clock = next((p.name for p in inputs if p.name in CLOCK_NAMES), None)
        self.resets = [p.name for p in inputs if p.name in RESET_NAMES]
        self.data = [
            p for p in inputs if p.name != self.clock and p.name not in self.resets
        ]
        self.outputs = [p.name for p in self.ref.outputs]

    def run(self, samples: int, seed: int, on_sample: Callable[[int], None]) -> None:
        """Drive ``samples`` random vectors (combinational) or clock
        cycles (sequential) and hand each compared sample's index to
        ``on_sample`` once both designs have been stepped.

        Stimulus keys go resets, data, clock.  When the reference has
        reset inputs, the first two samples hold them asserted and are
        not compared.  The ambient service deadline is checked before
        every sample (stage ``sim-cycle``).
        """
        # Lazy: the service package sits above the sim package.
        from ..service.deadline import current_deadline

        deadline = current_deadline()
        rng = random.Random(seed)
        cand, ref, clock = self.cand, self.ref, self.clock
        reset_samples = 2 if self.resets else 0
        for sample in range(samples):
            if deadline is not None:
                deadline.check(stage="sim-cycle")
            in_reset = sample < reset_samples
            stimulus: dict[str, Logic | int] = {}
            for name in self.resets:
                active = 1 if not name.endswith("n") else 0
                stimulus[name] = active if in_reset else active ^ 1
            for port in self.data:
                stimulus[port.name] = _random_vector(rng, port.width)
            if clock is not None:
                stimulus[clock] = 0
            cand.step(dict(stimulus))
            ref.step(dict(stimulus))
            if clock is not None:
                cand.step({clock: 1})
                ref.step({clock: 1})
            if not in_reset:
                on_sample(sample)


def _compare(
    pair: _Lockstep, sample: int, result: TestbenchResult, limit: int
) -> None:
    result.samples += 1
    for name in pair.outputs:
        expected = pair.ref.get(name)
        actual = pair.cand.get(name)
        if not expected.same_as(actual):
            result.mismatch_count += 1
            if len(result.mismatches) < limit:
                result.mismatches.append(
                    Mismatch(
                        sample=sample, output=name,
                        expected=str(expected), actual=str(actual),
                    )
                )
            break  # one mismatch per sample is enough
