"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

Each entry wraps one public entry point of a ``repro`` layer at the
binding its callers look up.  Span names are ``<layer>.<what>``; a
layer's self time is the sum of its spans' self times (duration minus
child spans), so the layers plus the benchmark's own root span
(``other``) partition the traced wall time.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from collections import defaultdict

from spans import Tracer, self_times

#: Modules whose bindings the tracer rewrites; imported up front so
#: every ``from x import f`` binding exists when the wrappers go in.
MODULES = (
    "repro.diagnostics", "repro.diagnostics.compiler",
    "repro.diagnostics.engine", "repro.verilog.lexer",
    "repro.verilog.pipeline", "repro.runtime.cache", "repro.runtime.journal",
    "repro.rag.retrievers", "repro.llm.simulated", "repro.llm.simfix",
    "repro.llm.repair.logic_strategies", "repro.repair",
    "repro.repair.engine", "repro.repair.localizers",
    "repro.repair.proposers", "repro.repair.templates",
    "repro.repair.oracles", "repro.sim.testbench", "repro.sim.feedback",
    "repro.sim.limits", "repro.dataset.generate", "repro.dataset.mutate",
    "repro.dataset.inject", "repro.dataset.curate", "repro.dataset.cluster",
    "repro.eval.runner", "repro.eval.experiments", "repro.core.fixer",
    "repro.service.server",
)


def _words(text) -> int:
    return len(text.split()) if isinstance(text, str) else 0


def _note_compile(tracer: Tracer, code: str, result) -> None:
    tracer.sources.add(hashlib.sha1(code.encode("utf-8", "replace")).hexdigest())
    tracer.count("verilog.compiles")
    if any(d.category.name == "RESOURCE_LIMIT" for d in result.diagnostics):
        tracer.count("verilog.limit_hits")


def _after_compile_source(tracer: Tracer, args, kwargs, result) -> None:
    _note_compile(tracer, args[0] if args else kwargs["code"], result)


def _after_session_compile(tracer: Tracer, args, kwargs, result) -> None:
    _note_compile(tracer, args[1] if len(args) > 1 else kwargs["code"], result)


def _after_tokenize(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("verilog.tokens", len(result))


def _after_llm_step(tracer: Tracer, args, kwargs, result) -> None:
    # The simulated models have no tokenizer: whitespace-separated words
    # of the prompt (code, feedback, guidance) and the completion.
    prompt = sum(_words(a) for a in args[1:3])
    guidance = args[3] if len(args) > 3 else ()
    prompt += sum(_words(getattr(g, "guidance", "")) for g in guidance or ())
    tracer.count("llm.tokens", prompt + _words(getattr(result, "code", "")))


def _after_repair(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("repair.turns", len(result.transcript.turns))
    if result.success:
        tracer.count("repair.fixes")
    tracer.count("repair.templates", (result.stats or {}).get("templates_tried", 0))


def _after_sim(tracer: Tracer, args, kwargs, result) -> None:
    verdict = getattr(result, "verdict", None)
    category = getattr(verdict, "category", "")
    if category in ("limit", "crashed"):
        tracer.count(f"sim.{category}_verdicts")


def _after_tracker(tracer: Tracer, args, kwargs, result) -> None:
    tracer.sim_trackers.append(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; undo with ``tracer.restore()``."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    fn = tracer.wrap_function
    meth = tracer.wrap_method

    # verilog: every front-end stage runs inside DiagnosticEngine.stage,
    # on both the cold path and the staged pipeline.
    tracer.wrap_context(mods["repro.diagnostics.engine"].DiagnosticEngine,
                        "stage", "verilog.")
    fn("repro.diagnostics.compiler", "compile_source", "verilog.compile",
       _after_compile_source)
    meth(mods["repro.verilog.pipeline"].CompileSession, "compile",
         "pipeline.compile", _after_session_compile)
    meth(mods["repro.verilog.lexer"].Lexer, "tokenize", None, _after_tokenize)
    fn("repro.diagnostics.compiler", "render_log", "diagnostics.render")
    meth(mods["repro.runtime.cache"].CompileCache, "compile", "cache.lookup")

    retrievers = mods["repro.rag.retrievers"]
    for cls_name in ("ExactTagRetriever", "FuzzyRetriever",
                     "JaccardRetriever", "TfIdfRetriever"):
        meth(getattr(retrievers, cls_name), "retrieve", "rag.retrieve")

    meth(mods["repro.llm.simulated"].SimulatedRepairSession, "step",
         "llm.step", _after_llm_step)
    for cls_name in ("LogicDebugSession", "PooledLogicSession"):
        meth(getattr(mods["repro.llm.simfix"], cls_name), "step", "llm.step",
             _after_llm_step)

    repair = mods["repro.repair"]
    meth(repair.RepairEngine, "run", "repair.run", _after_repair)
    for cls in (repair.DiagnosticLocalizer, repair.TraceDiffLocalizer):
        meth(cls, "localize", "repair.localize")
    proposers = mods["repro.repair.proposers"]
    for cls in (proposers.LLMProposerSession, proposers.LogicProposerSession,
                proposers.FallbackSession,
                mods["repro.repair.templates"].TemplateSession):
        meth(cls, "propose", "repair.propose")
    for cls in (repair.CompileOracle, repair.SimOracle):
        meth(cls, "check", "repair.verify")

    fn("repro.sim.testbench", "run_differential", "sim.lookup")
    fn("repro.sim.feedback", "make_sim_feedback", "sim.lookup")
    fn("repro.sim.testbench", "_run_differential_uncached", "sim.run",
       _after_sim)
    fn("repro.sim.feedback", "_make_sim_feedback_uncached", "sim.run",
       _after_sim)
    meth(mods["repro.sim.limits"].SimLimitTracker, "__init__", None,
         _after_tracker)

    fn("repro.dataset.curate", "build_syntax_dataset", "dataset.build")
    meth(mods["repro.dataset.generate"].GenerationModel, "sample",
         "dataset.generate")
    fn("repro.dataset.mutate", "mutate_logic_labeled", "dataset.mutate")
    meth(mods["repro.dataset.inject"].ErrorInjector, "inject_random",
         "dataset.inject")
    fn("repro.dataset.curate", "_filter_sample", "dataset.filter")
    fn("repro.dataset.curate", "cluster_codes", "dataset.cluster")

    fn("repro.eval.runner", "run_fix_experiment", "eval.runner")
    fn("repro.eval.experiments", "run_table4", "eval.runner")
    fn("repro.eval.runner", "evaluate_code", "eval.evaluate")
    meth(mods["repro.core.fixer"].RTLFixer, "fix", "eval.trial")

    meth(mods["repro.runtime.journal"].Journal, "append", "journal.append")
    server = mods["repro.service.server"].RepairServer
    meth(server, "_execute", "service.execute",
         request=lambda args: args[1].job_id)


def sim_cycles(tracer: Tracer) -> int:
    """Cycles simulated under every budget tracker the run created."""
    return sum(t.limits.max_cycles - t.cycles_left for t in tracer.sim_trackers)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(
    spans: list[tuple],
    counters: dict,
    distinct_sources: int,
    sim_cycles: int,
    cache_stats: dict,
) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """``(per-layer metrics, self seconds per span name, cross-checks)``
    for one traced run.  ``cache_stats`` holds the summed ``compile``,
    ``stage`` and ``verdict`` counters of the caches the run used; each
    cross-check is a span count minus the program's own counter, so 0
    means they agree."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    durations: dict[str, list[float]] = defaultdict(list)
    miss_compute = 0.0
    miss_compiles = 0
    for sid, parent, name, t0, t1, _req in spans:
        durations[name].append(t1 - t0)
        if name in ("verilog.compile", "pipeline.compile"):
            up = by_id.get(parent)
            if up is not None and up[2] == "cache.lookup":
                miss_compute += t1 - t0
                miss_compiles += 1
    counts = {name: len(values) for name, values in durations.items()}
    compiles = counters.get("verilog.compiles", 0)
    stage = cache_stats["stage"]
    compile_ = cache_stats["compile"]
    verdict = cache_stats["verdict"]
    runs = counts.get("repair.run", 0)
    lex_s = own.get("verilog.lex", 0.0)
    sim_s = own.get("sim.run", 0.0)
    cold = durations.get("verilog.compile", [])
    appends = durations.get("journal.append", [])
    metrics = {
        "verilog.preprocess_s": own.get("verilog.preprocess", 0.0),
        "verilog.lex_s": lex_s,
        "verilog.parse_s": own.get("verilog.parse", 0.0),
        "verilog.elaborate_s": own.get("verilog.elaborate", 0.0),
        "verilog.tokens_per_s": _ratio(counters.get("verilog.tokens", 0), lex_s),
        "verilog.compile_ms_p50": 1000 * percentile(cold, 0.50),
        "verilog.compile_ms_p99": 1000 * percentile(cold, 0.99),
        "verilog.limit_hits": counters.get("verilog.limit_hits", 0),
        "diagnostics.render_s": own.get("diagnostics.render", 0.0),
        "dataset.generate_s": own.get("dataset.generate", 0.0),
        "dataset.inject_s": own.get("dataset.inject", 0.0),
        "dataset.mutate_s": own.get("dataset.mutate", 0.0),
        "dataset.filter_s": own.get("dataset.filter", 0.0),
        "dataset.cluster_s": own.get("dataset.cluster", 0.0),
        "dataset.compiles_per_distinct_source": _ratio(compiles, distinct_sources),
        "cache.hit_ratio": _ratio(compile_["hits"], compile_["hits"] + compile_["misses"]),
        "cache.miss_compute_s": miss_compute,
        "pipeline.stage_hit_ratio": _ratio(stage["hits"], stage["hits"] + stage["misses"]),
        "llm.steps": counts.get("llm.step", 0),
        "llm.step_s": own.get("llm.step", 0.0),
        "llm.tokens": counters.get("llm.tokens", 0),
        "rag.retrievals": counts.get("rag.retrieve", 0),
        "rag.retrieve_s": own.get("rag.retrieve", 0.0),
        "repair.turns_per_run": _ratio(counters.get("repair.turns", 0), runs),
        "repair.localize_s": own.get("repair.localize", 0.0),
        "repair.propose_s": own.get("repair.propose", 0.0),
        "repair.verify_s": own.get("repair.verify", 0.0),
        "repair.templates_per_fix": _ratio(
            counters.get("repair.templates", 0), counters.get("repair.fixes", 0)
        ),
        "sim.runs": counts.get("sim.run", 0),
        "sim.run_s": sim_s,
        "sim.cycles_per_s": _ratio(sim_cycles, sim_s),
        "sim.verdict_hit_ratio": _ratio(verdict["hits"], verdict["hits"] + verdict["misses"]),
        "sim.limit_verdicts": counters.get("sim.limit_verdicts", 0),
        "sim.crashed_verdicts": counters.get("sim.crashed_verdicts", 0),
        "journal.appends": len(appends),
        "journal.append_ms": 1000 * _ratio(sum(appends), len(appends)),
        "eval.dispatch_s": own.get("eval.runner", 0.0),
    }
    checks = {
        "compile_spans_vs_cache_misses": miss_compiles - compile_["misses"],
        "sim_spans_vs_verdict_misses": counts.get("sim.run", 0)
        - verdict["misses"] - verdict["uncacheable"],
    }
    return metrics, own, checks
