"""The ambient slots and the LRU store under the caches.

Every process-global ambient value (the three caches, the sandbox and
service stats, the token ledger, LLM routing, the sim fault injector,
the default sim limits and engine) is one :class:`Ambient` slot; these
tests pin the scoping contract for each of them and guard against a
hand-rolled toggle creeping back in.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.llm.pool import LLM_ROUTING, RoutingSpec, get_default_llm_routing
from repro.runtime import ParallelRunner, TokenCounter
from repro.runtime.accounting import TOKEN_COUNTER, get_active_token_counter
from repro.runtime.ambient import LRUStore
from repro.runtime.cache import COMPILE_CACHE, CompileCache, get_active_cache
from repro.runtime.faults import SIM_INJECTOR, FaultInjector, get_active_sim_injector
from repro.service.scheduler import (
    SERVICE_STATS,
    ServiceStats,
    get_active_service_stats,
)
from repro.sim.engine import SIM_ENGINE, SIM_ENGINES, get_default_sim_engine
from repro.sim.limits import SIM_LIMITS, SimLimits, get_default_sim_limits
from repro.sim.sandbox import SANDBOX_STATS, SandboxStats, get_active_sandbox_stats
from repro.sim.verdict import VERDICT_CACHE, VerdictCache, get_active_verdict_cache
from repro.verilog.pipeline import STAGE_CACHE, StageCache, get_active_stage_cache

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@dataclasses.dataclass(frozen=True)
class Case:
    """One slot, its public getter and a maker of valid values."""

    slot: object
    getter: object
    make: object
    #: ``use()`` with no argument scopes a fresh ``make()`` instance.
    fresh: bool = False
    #: ``None`` is not a valid value (``set`` raises ``ValueError``).
    checked: bool = False


CASES = {
    "compile_cache": Case(COMPILE_CACHE, get_active_cache, CompileCache, fresh=True),
    "stage_cache": Case(STAGE_CACHE, get_active_stage_cache, StageCache, fresh=True),
    "verdict_cache": Case(
        VERDICT_CACHE, get_active_verdict_cache, VerdictCache, fresh=True
    ),
    "sandbox_stats": Case(
        SANDBOX_STATS, get_active_sandbox_stats, SandboxStats, fresh=True
    ),
    "token_counter": Case(TOKEN_COUNTER, get_active_token_counter, TokenCounter),
    "service_stats": Case(SERVICE_STATS, get_active_service_stats, ServiceStats),
    "llm_routing": Case(
        LLM_ROUTING, get_default_llm_routing,
        lambda: RoutingSpec.parse("cheap=gpt-3.5-sim"),
    ),
    "sim_injector": Case(SIM_INJECTOR, get_active_sim_injector, FaultInjector),
    "sim_limits": Case(
        SIM_LIMITS, get_default_sim_limits,
        lambda: SimLimits(max_cycles=77), checked=True,
    ),
    "sim_engine": Case(SIM_ENGINE, get_default_sim_engine, None, checked=True),
}


def _values(case):
    """Two distinct valid values for ``case``'s slot, the first one
    unlike the slot's current value."""
    if case.make is None:  # the engine slot: the non-current engine first
        return sorted(SIM_ENGINES, key=lambda name: name == SIM_ENGINE.get())
    return case.make(), case.make()


@pytest.fixture(params=sorted(CASES))
def case(request):
    """Each slot, with its value checked unchanged after the test."""
    case = CASES[request.param]
    before = case.slot.get()
    yield case
    assert case.slot.get() is before


def test_use_scopes_and_restores(case):
    before = case.slot.get()
    value = _values(case)[0]
    with case.slot.use(value) as scoped:
        assert scoped is value
        assert case.slot.get() is value
        assert case.getter() is value
    assert case.slot.get() is before


def test_use_restores_when_the_block_raises(case):
    before = case.slot.get()
    with pytest.raises(RuntimeError):
        with case.slot.use(_values(case)[0]):
            raise RuntimeError("boom")
    assert case.slot.get() is before


def test_use_nests(case):
    before = case.slot.get()
    outer, inner = _values(case)
    with case.slot.use(outer):
        with case.slot.use(inner):
            assert case.slot.get() is inner
        assert case.slot.get() is outer
    assert case.slot.get() is before


def test_set_returns_previous(case):
    before = case.slot.get()
    value = _values(case)[0]
    assert case.slot.set(value) is before
    assert case.slot.set(before) is value


def test_bare_use_is_fresh_only_for_factory_slots(case):
    before = case.slot.get()
    if case.checked:
        # None is not a valid sim limit or engine: nothing is scoped.
        with pytest.raises(ValueError):
            with case.slot.use():
                pass
        assert case.slot.get() is before
        return
    with case.slot.use() as first:
        assert case.slot.get() is first
        if case.fresh:
            assert isinstance(first, type(before))
            assert first is not before
            with case.slot.use() as second:
                assert second is not first
        else:
            assert first is None


def test_off_scopes_none(case):
    if case.checked:  # no off state: the slot keeps its value
        with pytest.raises(ValueError):
            with case.slot.off():
                pass
        return
    with case.slot.off() as scoped:
        assert scoped is None and case.slot.get() is None


def test_scoped_value_is_visible_in_thread_workers(case):
    """Slots are process-global, not context-local: a value scoped in
    the main thread must reach ParallelRunner thread workers."""
    value = _values(case)[0]
    with case.slot.use(value):
        seen = ParallelRunner(jobs=2, backend="thread").map(
            lambda _: case.getter(), range(4)
        )
    assert all(item is value for item in seen)


def test_checked_slots_reject_bad_values():
    with pytest.raises(ValueError):
        SIM_LIMITS.set("not limits")
    with pytest.raises(ValueError):
        SIM_ENGINE.set("verilator")


def test_lru_store_counts_evictions_and_keeps_recency():
    store = LRUStore(2)
    assert store.put("a", 1) == 0
    assert store.put("b", 2) == 0
    assert store.get("a") == 1  # b is now the least recent
    assert "b" in store  # membership does not refresh recency
    assert store.put("c", 3) == 1
    assert "b" not in store and store.get("a") == 1 and len(store) == 2
    store.clear()
    assert len(store) == 0


#: The only ``global`` statements allowed under src/repro: lazily
#: compiled module-level memos.  Ambient run state belongs in an
#: :class:`~repro.runtime.ambient.Ambient` slot instead.
LAZY_MEMOS = {
    ("llm/backends/simulated.py", "_guidance_lookup"),
    ("sim/exec.py", "_FORMAT_RE"),
}


def test_only_lazy_memos_use_global_statements():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Global):
                rel = path.relative_to(SRC).as_posix()
                found.update((rel, name) for name in node.names)
    assert found == LAZY_MEMOS
