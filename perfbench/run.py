"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``BENCHMARK.json`` gates three of them.  ``serve-load`` runs the same
way but is left out of the gated set: its latency spread between runs
(0.3 to 0.9 of the median, see ``serve.py``) exceeds any bound the
gate allows.

Run from the root of a source checkout (it imports ``src/repro``).  The
workload's inputs are generated from ``--seed`` before timing starts;
every output is checked by code other than the path under test.  Rows
starting with ``#`` describe the run; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with no spans;
* ``--trace 1``: the per-layer metrics.  The workload runs untraced for
  half of ``--seconds``, then traced over the same work; spans go to
  ``.perfbench/trace-<workload>-<seed>.jsonl``.

Metric names and bounds are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from layers import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("dataset-build", "syntax-repair", "functional-repair", "serve-load")
#: How often set-up is repeated per run; ``setup_s`` is the median.
SETUP_PROBES = 3
#: Layer self-times must sum to the untraced wall time within this share.
#: Identical passes differ by up to 15% between minutes on a shared
#: 2-CPU box, which sets the floor for comparing two separate runs.
SUM_TOLERANCE = 0.25


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_probe() -> None:
    """What a batch user pays before the first item: imports, the RAG
    guidance database and the corpus."""
    import repro.cli  # noqa: F401
    import workloads  # noqa: F401
    from repro.dataset.corpus import verilogeval
    from repro.rag.guidance_data import build_default_database

    build_default_database()
    verilogeval()


def probe_setup_times() -> list[float]:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-probe"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def source_identity() -> str:
    """The commit when the checkout is a git repository, else a digest
    of every file under ``src/`` (the checkout the benchmark builds)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if commit.returncode == 0:
            return "commit " + commit.stdout.strip()
    except OSError:
        pass
    hasher = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                hasher.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return "source sha256 " + hasher.hexdigest()[:16]


def latency_row(latencies: list[float]) -> str:
    """Median and tails with the samples beyond each: p95 is the gated
    tail because every workload puts at least ten samples past it."""
    parts = [f"latency: samples={len(latencies)}"]
    for q in (0.50, 0.95, 0.99):
        edge = percentile(latencies, q)
        beyond = sum(1 for v in latencies if v > edge)
        parts.append(f"p{round(q * 100)}={1000 * edge:.3f}ms beyond={beyond}")
    return " ".join(parts)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def trace_metrics(own: dict, checks: dict, spans: int, wall_traced: float,
                  wall_untraced: float, summed: float, reference: float) -> dict:
    """Tracing cost and coverage.  Batch workloads hold the layer
    self-times (``summed``) against the untraced wall time; serve-load
    holds the job spans against the server's own ``exec_s``."""
    return {
        "trace.other_s": own.get("bench.run", 0.0),
        "trace.overhead_ratio": wall_traced / wall_untraced - 1.0,
        "trace.sum_error_ratio": abs(summed - reference) / reference,
        "trace.spans": spans,
        "trace.check_mismatches": sum(abs(v) for v in checks.values()),
    }


def run_batch(args, workload, rows: list) -> dict:
    import layers
    from spans import Tracer
    from workloads import passes_for

    setup = probe_setup_times()
    inputs = workload.prepare(args.seed)
    rows.append(f"items: {workload.item}; input digest {inputs['digest']}")
    if not args.trace:
        measured = workload.measure(inputs, passes_for(workload, args.seconds))
        checked = workload.check(inputs, measured)
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_per_s": checked["items"] / measured.wall_s,
            "latency_p50_ms": 1000 * percentile(measured.latencies, 0.50),
            "latency_p95_ms": 1000 * percentile(measured.latencies, 0.95),
            "peak_rss_mb": peak_rss_mb(children=False),
        }
        rows.append(latency_row(measured.latencies))
        return finish(rows, measured, checked, metrics, setup)

    passes = passes_for(workload, args.seconds / 2)
    untraced = workload.measure(inputs, passes)
    plain = workload.check(inputs, untraced)
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("bench.run"):
            traced = workload.measure(inputs, passes)
    finally:
        tracer.restore()
    checked = workload.check(inputs, traced)
    if checked["output_digests"] != plain["output_digests"]:
        checked["disagreements"] += 1
        rows.append("traced and untraced outputs differ")
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_jsonl(os.path.join(
        OUT_DIR, f"trace-{workload.name}-{args.seed}.jsonl"))
    metrics, own, checks = layers.layer_metrics(
        tracer.spans, tracer.counters, len(tracer.sources),
        layers.sim_cycles(tracer), traced.caches.as_dict(),
    )
    metrics.update(service_metrics(None))
    metrics.update(trace_metrics(own, checks, len(tracer.spans), traced.wall_s,
                                 untraced.wall_s, sum(own.values()),
                                 untraced.wall_s))
    layer_rows(rows, own, checks, sum(own.values()), untraced.wall_s,
               "layer self-times vs untraced wall", gated=True)
    return finish(rows, traced, checked, metrics, setup)


def service_metrics(records) -> dict:
    names = ("service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
             "service.exec_ms_p50", "service.exec_ms_p99",
             "service.transport_ms_p50", "service.shed")
    if not records:
        return dict.fromkeys(names, 0.0)
    served = [r for r in records if r["status"] in ("fixed", "not_fixed")]
    queue = [r["queue_wait_s"] for r in served]
    execs = [r["exec_s"] for r in served]
    transport = [r["round_trip_s"] - r["queue_wait_s"] - r["exec_s"]
                 for r in served]
    return {
        "service.queue_wait_ms_p50": 1000 * percentile(queue, 0.5),
        "service.queue_wait_ms_p99": 1000 * percentile(queue, 0.99),
        "service.exec_ms_p50": 1000 * percentile(execs, 0.5),
        "service.exec_ms_p99": 1000 * percentile(execs, 0.99),
        "service.transport_ms_p50": 1000 * percentile(transport, 0.5),
        "service.shed": sum(r["status"] == "overloaded" for r in records),
    }


def run_serve(args, rows: list) -> dict:
    import layers
    from serve import ServeLoad, stop
    from spans import load_jsonl

    workload = ServeLoad(ROOT)
    inputs = workload.prepare(args.seed)
    rows.append(f"items: {workload.item}; input digest {inputs['digest']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = os.path.join(OUT_DIR, f"serve-{args.seed}-{os.getpid()}")
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        proc, port, setup = workload.setup(run_dir, None)
        try:
            measured = workload.measure(inputs, seconds, port)
        finally:
            stop(proc)
        checked = workload.check(inputs, measured)
        if not args.trace:
            metrics = {
                "setup_s": statistics.median(setup),
                "throughput_per_s": checked["throughput_per_s"],
                "latency_p50_ms": 1000 * percentile(measured.latencies, 0.50),
                "latency_p95_ms": 1000 * percentile(measured.latencies, 0.95),
                "peak_rss_mb": peak_rss_mb(children=True),
            }
            rows.append(latency_row(measured.latencies))
            return finish(rows, measured, checked, metrics, setup)

        shutil.rmtree(run_dir, ignore_errors=True)
        trace_out = os.path.join(OUT_DIR, f"trace-serve-load-{args.seed}")
        proc, port, _ = workload.setup(run_dir, trace_out, probes=1)
        try:
            traced = workload.measure(inputs, seconds, port)
        finally:
            stop(proc)
        traced_check = workload.check(inputs, traced)
        if traced_check["output_digests"] != checked["output_digests"]:
            traced_check["disagreements"] += 1
            rows.append("traced and untraced outputs differ")
        spans = load_jsonl(trace_out + ".jsonl")
        with open(trace_out + ".json") as handle:
            extra = json.load(handle)
        metrics, own, checks = layers.layer_metrics(
            spans, extra["counters"], extra["distinct_sources"],
            extra["sim_cycles"], extra["caches"],
        )
        metrics.update(service_metrics(traced.service["paced"]))
        # The layers run inside service.execute spans (one per job, in a
        # worker thread).  The server times exec_s around the executor
        # hop, so the gap between the two is the thread hand-off.
        exec_total = sum(r["exec_s"] for r in traced.outputs)
        execute = sum(t1 - t0 for _i, _p, name, t0, t1, _r in spans
                      if name == "service.execute")
        metrics.update(trace_metrics(
            own, checks, len(spans),
            1 / traced_check["saturated_per_s"], 1 / checked["saturated_per_s"],
            execute, exec_total,
        ))
        metrics["trace.other_s"] = own.get("service.execute", 0.0)
        layer_rows(rows, own, checks, execute, exec_total,
                   "job spans vs server exec_s (gap: executor hand-off)",
                   gated=False)
        return finish(rows, traced, traced_check, metrics, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_rows(rows: list, own: dict, checks: dict, summed: float,
               reference: float, label: str, gated: bool) -> None:
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        rows.append(f"self {name if name != 'bench.run' else 'other'}: "
                    f"{seconds:.4f}s")
    error = abs(summed - reference) / reference if reference else 0.0
    verdict = ""
    if gated:
        verdict = (f" (tolerance {SUM_TOLERANCE}) "
                   f"{'OK' if error <= SUM_TOLERANCE else 'OVER'}")
    rows.append(f"{label}: {summed:.4f}s vs {reference:.4f}s, "
                f"difference {error:.4f}{verdict}")
    rows.append("span/counter cross-checks (0 = agree): " + ", ".join(
        f"{k}={v}" for k, v in sorted(checks.items())))


def finish(rows, measured, checked, metrics, setup) -> dict:
    rows.extend(checked["rows"])
    rows.append(f"output digests {' '.join(d[:16] for d in checked['output_digests'])}")
    rows.append(f"setup runs {' '.join(f'{s:.4f}' for s in setup)}s; "
                f"passes={measured.passes} wall={measured.wall_s:.3f}s")
    failed = measured.failed + checked["disagreements"]
    attempted = max(checked["items"], 1)
    rows.append(f"error_rate={failed / attempted:.4f} ({failed}/{attempted})")
    return {"correct": checked["disagreements"] == 0 and measured.failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        setup_probe()
        return 0
    declared = declared_metrics()
    rows = [
        f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"{source_identity()} nproc={os.cpu_count()} "
        f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}",
    ]
    if args.workload == "serve-load":
        result = run_serve(args, rows)
    else:
        from workloads import BATCH

        result = run_batch(args, BATCH[args.workload], rows)
    for row in rows:
        print(f"# {row}")
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != set(wanted):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(wanted))}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in wanted.items()
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
