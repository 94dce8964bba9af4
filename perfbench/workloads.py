"""The batch workloads: inputs from a seed, a timed loop, an
independent check of every output.

Each workload runs *passes*.  A pass is one call of the program's
public entry point on inputs the benchmark generated, inside fresh compile,
stage and verdict caches (the cold caches ``rtlfixer report`` pays once
per process).  A run makes ``round(seconds / pass_seconds)`` passes,
where ``pass_seconds`` is a workload's nominal pass time on a 2-CPU
x86 box: the work of a run is fixed by ``--seconds``, never by how
fast the code under test happens to be.

Items are what a user counts: samples curated (``dataset-build``),
repair trials (``syntax-repair``) and seeded bugs (``functional-repair``).
Per-item latency comes from light hooks on the call that handles one
item; they run in traced and untraced runs alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.fixer import RTLFixer
from repro.dataset import curate, generate, mutate
from repro.dataset.corpus import verilogeval
from repro.diagnostics.compiler import compile_source
from repro.eval import experiments, runner
from repro.repair import RepairEngine, result_digest
from repro.runtime import cached_compile, use_compile_cache, use_stage_cache
from repro.sim import no_verdict_cache, simulate, use_verdict_cache

_perf = time.perf_counter

#: The Table-1 ReAct row (paper §4.2): feedback flavour x RAG.
SYNTAX_CELLS = (("iverilog", False), ("iverilog", True),
                ("quartus", False), ("quartus", True))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


@dataclass
class CacheTally:
    """Summed counters of every cache scope the measured passes used."""

    compile: Counter = field(default_factory=Counter)
    stage: Counter = field(default_factory=Counter)
    verdict: Counter = field(default_factory=Counter)

    @contextlib.contextmanager
    def fresh(self):
        """Empty compile, stage and verdict caches for one pass."""
        with use_compile_cache() as comp, use_stage_cache() as stage, \
                use_verdict_cache() as verdict:
            yield
        self.compile.update(hits=comp.stats.hits, misses=comp.stats.misses)
        self.stage.update(hits=sum(stage.stats.hits.values()),
                          misses=sum(stage.stats.misses.values()))
        self.verdict.update(hits=verdict.stats.hits,
                            misses=verdict.stats.misses,
                            uncacheable=verdict.stats.uncacheable)

    def as_dict(self) -> dict:
        return {
            "compile": {"hits": self.compile["hits"], "misses": self.compile["misses"]},
            "stage": {"hits": self.stage["hits"], "misses": self.stage["misses"]},
            "verdict": {k: self.verdict[k] for k in ("hits", "misses", "uncacheable")},
        }


@dataclass
class Measured:
    """What one timed run produced, before checking."""

    passes: int = 0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    #: per-item records the independent check consumes
    outputs: list = field(default_factory=list)
    #: what each pass's entry-point call returned
    pass_results: list = field(default_factory=list)
    failed: int = 0
    caches: CacheTally = field(default_factory=CacheTally)
    #: serve-load only: the raw phase records
    service: dict = field(default_factory=dict)


class Hooks:
    """Replaces attributes for the length of a run and puts them back."""

    def __init__(self):
        self._undo: list = []

    def patch(self, owner, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def passes_for(workload, seconds: float) -> int:
    return max(1, round(seconds / workload.pass_seconds))


def run_passes(one_pass: Callable[[int, Measured], None], hooks: Hooks,
               measured: Measured, passes: int) -> Measured:
    """Run ``one_pass`` ``passes`` times, each in fresh caches."""
    start = _perf()
    try:
        while measured.passes < passes:
            with measured.caches.fresh():
                one_pass(measured.passes, measured)
            measured.passes += 1
    finally:
        measured.wall_s = _perf() - start
        hooks.restore()
    return measured


@contextlib.contextmanager
def cached_generation():
    """Build benchmark *inputs* with the dataset generator's compiles
    served from a compile cache.  ``cached_compile`` is a content-
    addressed memo of ``compile_source``, so the dataset is the same
    (its digest is recorded per run); the measured workloads never run
    under this patch."""
    from repro import diagnostics
    from repro.dataset import inject

    owners = (diagnostics, mutate, inject)
    saved = [owner.compile_source for owner in owners]

    def routed(code, *args, **kwargs):
        return cached_compile(code, *args, **kwargs)

    for owner in owners:
        owner.compile_source = routed
    try:
        with use_compile_cache(), use_stage_cache(), use_verdict_cache():
            yield
    finally:
        for owner, original in zip(owners, saved):
            owner.compile_source = original


def syntax_dataset():
    """The 212-entry VerilogEval-syntax dataset the paper's tables use
    (§3.4, generator seed 0)."""
    with cached_generation():
        return curate.build_syntax_dataset(verilogeval(), seed=0)


def shuffled_corpus(seed: int) -> dict:
    """The VerilogEval corpus in a seed-drawn order, with its digest."""
    problems = verilogeval()
    random.Random(f"corpus-order|{seed}").shuffle(problems.problems)
    return {"problems": problems, "digest": sha256(json.dumps(
        [(p.id, p.reference) for p in problems]))}


# ---------------------------------------------------------------------------
# dataset-build
# ---------------------------------------------------------------------------


class DatasetBuild:
    """§3.4 curation over the whole corpus in a seed-drawn order, one
    sample per problem and benchmark per pass; pass ``p`` uses generator
    seed ``p``.  Every run therefore meets the same samples, runaway-
    ``for`` mutants included: their 100x cost would otherwise make the
    throughput of a short run depend on how many a seed draws."""

    name = "dataset-build"
    item = "samples curated"
    pass_seconds = 2.1

    def prepare(self, seed: int) -> dict:
        return shuffled_corpus(seed)

    def measure(self, inputs: dict, passes: int) -> Measured:
        measured = Measured()
        hooks = Hooks()
        generated: deque = deque()

        def time_sample(original):
            def sample(*args, **kwargs):
                t0 = _perf()
                result = original(*args, **kwargs)
                generated.append(_perf() - t0)
                return result
            return sample

        def time_filter(original):
            def filter_sample(*args, **kwargs):
                t0 = _perf()
                result = original(*args, **kwargs)
                measured.latencies.append(_perf() - t0 + generated.popleft())
                return result
            return filter_sample

        hooks.patch(generate.GenerationModel, "sample", time_sample)
        hooks.patch(curate, "_filter_sample", time_filter)

        def one_pass(index: int, out: Measured) -> None:
            dataset = curate.build_syntax_dataset(
                inputs["problems"], samples_per_problem=1, seed=index,
            )
            out.pass_results.append(dataset)

        return run_passes(one_pass, hooks, measured, passes)

    def check(self, inputs: dict, measured: Measured) -> dict:
        disagreements = 0
        digests = []
        entries = 0
        for dataset in measured.pass_results:
            digests.append(sha256(dataset.to_json()))
            for entry in dataset:
                entries += 1
                if compile_source(entry.code).ok:
                    disagreements += 1
        sampled = sum(d.stats.sampled for d in measured.pass_results)
        rows = [f"entries={entries} sampled={sampled} "
                f"entries_failing_cold_compile={entries - disagreements}"]
        return {"items": sampled, "disagreements": disagreements,
                "output_digests": digests, "rows": rows}


# ---------------------------------------------------------------------------
# syntax-repair
# ---------------------------------------------------------------------------


class SyntaxRepair:
    """The Table-1 ReAct row over the paper's 212-entry dataset,
    ``repeats=1`` per pass; pass ``p`` samples the model with trial seed
    ``1000 * seed + p``."""

    name = "syntax-repair"
    item = "repair trials"
    pass_seconds = 2.5

    def prepare(self, seed: int) -> dict:
        dataset = syntax_dataset()
        return {"dataset": dataset, "seed": seed,
                "digest": sha256(f"{dataset.to_json()}|trial_seed={seed}")}

    def measure(self, inputs: dict, passes: int) -> Measured:
        measured = Measured()
        hooks = Hooks()
        cell: list = [None]

        def time_fix(original):
            def fix(fixer, code, *args, **kwargs):
                t0 = _perf()
                result = original(fixer, code, *args, **kwargs)
                measured.latencies.append(_perf() - t0)
                measured.outputs.append((cell[0], result))
                return result
            return fix

        hooks.patch(RTLFixer, "fix", time_fix)

        def one_pass(index: int, out: Measured) -> None:
            for compiler, rag in SYNTAX_CELLS:
                cell[0] = f"react/{compiler}/{'rag' if rag else 'norag'}"
                fixer = RTLFixer(prompting="react", compiler=compiler,
                                 use_rag=rag, tier="gpt-3.5-sim",
                                 max_iterations=10,
                                 seed=1000 * inputs["seed"] + index)
                run = runner.run_fix_experiment(inputs["dataset"], fixer, repeats=1,
                                         jobs=1, on_error="collect")
                out.failed += len(run.failures)

        return run_passes(one_pass, hooks, measured, passes)

    def check(self, inputs: dict, measured: Measured) -> dict:
        verdicts: dict[str, bool] = {}
        disagreements = 0
        per_cell: dict[str, list[int]] = {}
        digests = []
        for cell, result in measured.outputs:
            tally = per_cell.setdefault(cell, [0, 0])
            tally[0] += 1
            digests.append(result_digest(result))
            if not result.success:
                continue
            tally[1] += 1
            ok = verdicts.get(result.final_code)
            if ok is None:
                ok = verdicts[result.final_code] = compile_source(
                    result.final_code).ok
            disagreements += not ok
        rows = [f"cell {cell}: trials={n} fixed={k} fix_rate={k / n:.4f}"
                for cell, (n, k) in sorted(per_cell.items())]
        trials = sum(n for n, _ in per_cell.values())
        fixed = sum(k for _, k in per_cell.values())
        rows.append(f"fix_rate={fixed / max(trials, 1):.4f} "
                    f"({fixed}/{trials}); claimed fixes recompiled cold: "
                    f"{len(verdicts)} distinct, {disagreements} disagree")
        return {"items": len(measured.outputs), "disagreements": disagreements,
                "output_digests": [sha256("".join(digests))], "rows": rows}


# ---------------------------------------------------------------------------
# functional-repair
# ---------------------------------------------------------------------------


class FunctionalRepair:
    """Table-4 over all 76 problems (in a seed-drawn order) and every
    mutation class, two bugs per problem per pass (``run_table4``'s
    default); pass ``p`` uses Table-4 seed ``p``.  A few mutants make
    the simulator spend seconds until a statement budget stops it, 500x
    a median bug; with a fixed population every run carries the same
    ones instead of a seed deciding whether the tail shows."""

    name = "functional-repair"
    item = "bugs repaired"
    pass_seconds = 5.0

    def prepare(self, seed: int) -> dict:
        return shuffled_corpus(seed)

    def measure(self, inputs: dict, passes: int) -> Measured:
        measured = Measured()
        hooks = Hooks()
        current: list = [0.0, "", ""]

        def time_mutation(original):
            def mutate_logic_labeled(code, *args, **kwargs):
                current[0] = _perf()
                result = original(code, *args, **kwargs)
                current[1], current[2] = code, result[1]
                return result
            return mutate_logic_labeled

        def time_repair(original):
            def run(engine, code, *args, **kwargs):
                result = original(engine, code, *args, **kwargs)
                measured.latencies.append(_perf() - current[0])
                measured.outputs.append((current[1], current[2], result))
                return result
            return run

        hooks.patch(mutate, "mutate_logic_labeled", time_mutation)
        hooks.patch(RepairEngine, "run", time_repair)

        def one_pass(index: int, out: Measured) -> None:
            table = experiments.run_table4(inputs["problems"], samples_per_problem=2,
                                           seed=index, jobs=1, on_error="collect")
            out.failed += len(table.failures)
            out.pass_results.append(table)

        return run_passes(one_pass, hooks, measured, passes)

    def check(self, inputs: dict, measured: Measured) -> dict:
        verdicts: dict[tuple, bool] = {}
        disagreements = 0
        for reference, _bug_class, outcome in measured.outputs:
            if not outcome.success:
                continue
            key = (outcome.final_code, reference)
            if key not in verdicts:
                verdicts[key] = _resimulates(outcome.final_code, reference)
            disagreements += not verdicts[key]
        by_class: dict[str, list[int]] = {}
        for table in measured.pass_results:
            for bug_class, (attempted, template, llm) in table.by_class.items():
                tally = by_class.setdefault(bug_class, [0, 0, 0])
                tally[0] += attempted
                tally[1] += template
                tally[2] += llm
        rows = [f"class {name}: attempted={a} template_fixed={t} llm_fixed={l} "
                f"fix_rate={(t + l) / a:.4f}"
                for name, (a, t, l) in sorted(by_class.items())]
        attempted = sum(a for a, _, _ in by_class.values())
        fixed = sum(t + l for _, t, l in by_class.values())
        rows.append(f"fix_rate={fixed / max(attempted, 1):.4f} "
                    f"({fixed}/{attempted}); claimed fixes re-simulated "
                    f"(interp, no verdict cache): {len(verdicts)} distinct, "
                    f"{disagreements} disagree")
        return {"items": len(measured.outputs), "disagreements": disagreements,
                "output_digests": [t.digest() for t in measured.pass_results],
                "rows": rows}


def _resimulates(candidate: str, reference: str) -> bool:
    """A claimed functional fix, judged cold: both designs compiled
    without any cache, simulated by the interpreter engine with the
    verdict cache off, under the repair oracle's stimulus."""
    cand = compile_source(candidate).elaborated
    ref = compile_source(reference).elaborated
    if cand is None or ref is None:
        return False
    with no_verdict_cache():
        outcome = simulate(cand, ref, mode="feedback", samples=16, seed=0,
                           engine="interp")
    return outcome.verdict.category == "ok"


BATCH = {w.name: w for w in (DatasetBuild(), SyntaxRepair(), FunctionalRepair())}
