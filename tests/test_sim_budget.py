"""The per-invocation statement budget, enforced identically by both
engines.

The compiled engine charges the budget on its fast path at the same
points as :class:`~repro.sim.exec.StmtExecutor` (one unit per statement
entered, one per completed ``for`` iteration), so a runaway loop stops at
compiled speed with the interpreter's own exception and state.  The
differential below drives both engines in lockstep over every corpus
reference, the hostile corpus, three runaway repair candidates and a
nested-loop design, under many small budgets: the exception (type, text,
phase) and the values, arrays and ``$display`` log must agree after
every step and after the exception.

The runaway designs cost the interpreter seconds at the default budget,
so they run at budgets straddling the first watchdog poll instead; the
sandbox gate (``scripts/sandbox_gate.py``) covers them at the default.
"""

import random
from pathlib import Path

import pytest

from repro.dataset import verilogeval
from repro.diagnostics import compile_source
from repro.errors import SimLimitExceeded, SimulationError
from repro.sim import CompiledSimulator, Simulator, make_simulator
from repro.sim import exec as sim_exec
from repro.sim.exec import StmtExecutor
from repro.sim.limits import DEFAULT_SIM_LIMITS, SimLimits
from repro.verilog.pipeline import use_stage_cache

DATA = Path(__file__).resolve().parent / "data"

#: Three runaway Table-4 template candidates on the neighbour-count
#: problem (the loops never read the X inputs, so they stay fast).
CANDIDATES = sorted((DATA / "sim_budget").glob("*.v"))
#: Designs that spin until a budget stops them.
RUNAWAYS = CANDIDATES + [
    DATA / "sim_hostile" / "nested_runaway.v",
    DATA / "sim_hostile" / "runaway_loop.v",
]

SMALL_BUDGETS = range(1, 41)
#: Budgets around the first ``left & 4095 == 0`` watchdog poll.
POLL_BUDGETS = (4095, 4096, 4097)
STEPS = 10


def _elaborate(text: str, name: str):
    result = compile_source(text, name=name)
    assert result.ok and result.elaborated is not None, result.log
    return result.elaborated


def _designs() -> list:
    designs = [
        (problem.id, _elaborate(problem.reference, problem.id))
        for problem in verilogeval()
    ]
    for path in sorted((DATA / "sim_hostile").glob("*.v")) + CANDIDATES:
        designs.append((path.name, _elaborate(path.read_text(), path.name)))
    return designs


def _stimuli(design, seed: int) -> list:
    ports = design.top_module().ports
    rng = random.Random(seed)
    steps = []
    for k in range(STEPS):
        inputs = {}
        for port in ports:
            if port.direction != "input":
                continue
            if port.name == "clk":
                inputs["clk"] = k & 1
            else:
                inputs[port.name] = rng.getrandbits(max(port.width, 1))
        steps.append(inputs)
    return steps


def _snapshot(sim, exc) -> tuple:
    state = getattr(sim, "state", None)
    outcome = None
    if exc is not None:
        outcome = (type(exc).__name__, str(exc), getattr(exc, "phase", None))
    return (
        dict(state.values) if state is not None else None,
        {k: list(v) for k, v in state.arrays.items()} if state is not None else None,
        list(getattr(sim, "display_log", ())),
        outcome,
    )


def _trail(cls, design, limits: SimLimits, stimuli: list) -> list:
    """Snapshots after construction, after every step and after the
    exception (construction included: ``__init__`` runs on an object
    that outlives its failure)."""
    sim = cls.__new__(cls)
    trail = []
    try:
        sim.__init__(design, sim_limits=limits)
        trail.append(_snapshot(sim, None))
        for inputs in stimuli:
            sim.step(dict(inputs))
            trail.append(_snapshot(sim, None))
    except SimulationError as exc:
        trail.append(_snapshot(sim, exc))
    return trail


def test_engines_agree_under_every_budget():
    runaway_names = {path.name for path in RUNAWAYS}
    mismatches = []
    raised = pairs = 0
    with use_stage_cache():
        for index, (name, design) in enumerate(_designs()):
            stimuli = _stimuli(design, index)
            budgets = list(SMALL_BUDGETS)
            budgets += POLL_BUDGETS if name in runaway_names else [
                DEFAULT_SIM_LIMITS.max_stmt_executions
            ]
            for budget in budgets:
                limits = SimLimits(max_stmt_executions=budget)
                interp = _trail(Simulator, design, limits, stimuli)
                compiled = _trail(CompiledSimulator, design, limits, stimuli)
                pairs += 1
                raised += interp[-1][3] is not None
                if interp != compiled:
                    mismatches.append((name, budget))
    assert not mismatches, mismatches[:10]
    assert pairs > 3000
    assert raised > 400  # the budgets really bite


REPEATER = (
    "module top_module(input clk, output reg [31:0] y);\n"
    "always @(posedge clk) begin\n"
    "  y = 0;\n"
    "  repeat (300) y = y + 1;\n"
    "end\nendmodule\n"
)


@pytest.mark.parametrize("engine", ("interp", "compiled"))
def test_repeat_runs_past_the_fallback_budget(engine, monkeypatch):
    monkeypatch.setattr(sim_exec, "_LOOP_BUDGET", 100)
    design = _elaborate(REPEATER, "repeater")
    sim = make_simulator(
        design, engine=engine, sim_limits=SimLimits(max_stmt_executions=1000)
    )
    sim.step({"clk": 0})
    sim.step({"clk": 1})
    assert sim.get("y").to_int() == 300


def _count_exec_stmt(monkeypatch) -> list:
    calls = [0]
    original = StmtExecutor.exec_stmt

    def counted(self, stmt):
        calls[0] += 1
        return original(self, stmt)

    monkeypatch.setattr(StmtExecutor, "exec_stmt", counted)
    return calls


class _LoggedUndo(dict):
    """Undo log that remembers its peak size and every key it held."""

    def __init__(self):
        super().__init__()
        self.peak = 0
        self.keys_seen: set = set()

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.keys_seen.add(key)
        self.peak = max(self.peak, len(self))


class _LoggedSimulator(CompiledSimulator):
    def _post_build(self) -> None:
        super()._post_build()
        self._undo = _LoggedUndo()


class TestRunawayWorkCounts:
    """Counts, not wall clock: a runaway stays on the fast path."""

    def test_for_budget_runaway_never_reaches_the_interpreter(self, monkeypatch):
        path = DATA / "sim_budget" / "runaway_for_budget.v"
        design = _elaborate(path.read_text(), path.name)
        calls = _count_exec_stmt(monkeypatch)
        sim = _LoggedSimulator.__new__(_LoggedSimulator)
        with pytest.raises(SimulationError) as exc_info:
            sim.__init__(design)
        assert str(exc_info.value) == "for-loop budget exceeded"
        assert calls[0] == 0
        # Bounded by the locations written (counts, r, c), not by the
        # ~66,000 loop iterations it ran.
        assert 0 < sim._undo.peak <= len(sim._undo.keys_seen) <= 3
        assert not sim._undo  # cleared before the exception left

    def test_nested_runaway_hits_the_statement_budget(self, monkeypatch):
        path = DATA / "sim_hostile" / "nested_runaway.v"
        design = _elaborate(path.read_text(), path.name)
        calls = _count_exec_stmt(monkeypatch)
        sim = make_simulator(design, engine="compiled")
        with pytest.raises(SimLimitExceeded) as exc_info:
            sim.step({"clk": 0})
            sim.step({"clk": 1})
        assert exc_info.value.kind == "stmt executions"
        assert exc_info.value.phase == "cycle"
        assert calls[0] == 0
