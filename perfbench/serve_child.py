"""Host ``rtlfixer serve`` with the layer spans installed.

Usage: ``python perfbench/serve_child.py OUT serve [serve options]``.
Installs the tracer, calls the CLI entry point, and when the server has
drained writes ``OUT.jsonl`` (spans) and ``OUT.json`` (counters and the
server's cache statistics).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.install(tracer)
    from repro import cli
    from repro.runtime.cache import get_active_cache
    from repro.sim.verdict import get_active_verdict_cache
    from repro.verilog.pipeline import get_active_stage_cache

    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.write_jsonl(out + ".jsonl")
        comp = get_active_cache().stats
        stage = get_active_stage_cache().stats
        verdict = get_active_verdict_cache().stats
        with open(out + ".json", "w") as handle:
            json.dump({
                "counters": dict(tracer.counters),
                "distinct_sources": len(tracer.sources),
                "sim_cycles": layers.sim_cycles(tracer),
                "caches": {
                    "compile": {"hits": comp.hits, "misses": comp.misses},
                    "stage": {"hits": sum(stage.hits.values()),
                              "misses": sum(stage.misses.values())},
                    "verdict": {"hits": verdict.hits, "misses": verdict.misses,
                                "uncacheable": verdict.uncacheable},
                },
            }, handle)


if __name__ == "__main__":
    sys.exit(main())
