"""The ``serve-load`` workload: open-loop traffic to ``rtlfixer serve``.

The server runs as a child process with a journal (``--run-dir``), so
queue wait, admission, HTTP parsing and fsync'd journal appends all sit
on the path of every answer.  One client process keeps at most
``nproc`` connections open.

It is not one of the workloads ``BENCHMARK.json`` gates: between runs
of the same code its paced p50 latency moved by 0.2-0.4 and its p95 by
0.5-0.9 of the median (Poisson bursts, cold first-cycle repairs, and
the event loop waiting on the GIL behind the repair threads), beyond
the largest regression bound the gate allows.  Its spans are still the
only measurement of the ``service`` and ``runtime.journal`` layers.

A run has two phases over one fresh server:

* **paced** -- seeded Poisson arrivals at :data:`RATE_PER_S`.  Each
  request is timed from the moment it was due, so a stall also charges
  the requests queued behind it; the generator's own lateness and the
  backlog trend are reported beside the latency.
* **saturated** -- every request is due at once; completions per second
  is the highest rate the service sustains.  It swings too much between
  runs to gate on, so it is a result row; ``throughput_per_s`` is the
  paced phase's completions per second.

Requests are the syntax dataset's entries in a seed-drawn order, spread
over three tenants, each with a distinct seed so the journal never
replays.  Each phase sends the whole dataset a whole number of times,
so every run offers the same sources; the paced phase is sized from
``--seconds`` by the nominal rate below.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Optional

from repro.diagnostics.compiler import compile_source
from repro.service.client import ServiceClient

from workloads import Measured, sha256, syntax_dataset

#: Offered load of the paced phase (requests per second), about a tenth
#: of what the service sustains here.  Near saturation the server's
#: event loop waits on the GIL behind the repair threads and the same
#: run's latency swings 2x from one minute to the next.
RATE_PER_S = 20.0
#: Share of the run meant for the paced phase; the saturated phase then
#: sends the dataset once.
PACED_SHARE = 0.8
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
_perf = time.perf_counter


def spawn(root: str, run_dir: str, trace_out: Optional[str]):
    """Start a server; returns ``(process, port, seconds to SERVING)``."""
    serve_args = ["serve", "--port", "0", "--run-dir", run_dir]
    if trace_out is None:
        cmd = [sys.executable, "-m", "repro.cli", *serve_args]
    else:
        cmd = [sys.executable, os.path.join(root, "perfbench", "serve_child.py"),
               trace_out, *serve_args]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = _perf()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    line = proc.stdout.readline()
    if not line.startswith("SERVING"):
        stop(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    return proc, int(line.rsplit(":", 1)[1].strip().rstrip("/")), _perf() - t0


def stop(proc) -> None:
    """Drain the server (SIGTERM) and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


class ServeLoad:
    name = "serve-load"
    item = "requests completed"

    def __init__(self, root: str):
        self.root = root

    def prepare(self, seed: int) -> dict:
        dataset = syntax_dataset()
        codes = [entry.code for entry in dataset]
        random.Random(f"serve-load|{seed}").shuffle(codes)
        return {"codes": codes, "seed": seed, "digest": sha256(
            f"{dataset.to_json()}|seed={seed}|rate={RATE_PER_S}")}

    def setup(self, run_dir: str, trace_out: Optional[str], probes: int = 3):
        """Spawn the server ``probes`` times (keeping the last one);
        returns ``(process, port, spawn seconds of each)``."""
        times = []
        for attempt in range(probes):
            shutil.rmtree(run_dir, ignore_errors=True)
            proc, port, took = spawn(self.root, run_dir, trace_out)
            times.append(took)
            if attempt < probes - 1:
                stop(proc)
        return proc, port, times

    def measure(self, inputs: dict, seconds: float, port: int) -> Measured:
        measured = Measured()
        measured.service = asyncio.run(self._drive(inputs, seconds, port))
        measured.passes = 1
        measured.wall_s = measured.service["paced_wall_s"]
        for rec in measured.service["paced"]:
            if rec["status"] in ("fixed", "not_fixed"):
                measured.latencies.append(rec["latency_s"])
            else:
                measured.failed += 1
        for rec in measured.service["saturated"]:
            if rec["status"] not in ("fixed", "not_fixed"):
                measured.failed += 1
        measured.outputs = measured.service["paced"] + measured.service["saturated"]
        return measured

    async def _drive(self, inputs: dict, seconds: float, port: int) -> dict:
        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        slots = asyncio.Semaphore(os.cpu_count() or 1)
        codes = inputs["codes"]
        counter = iter(range(1 << 30))

        async def send(due: float, record: list) -> None:
            woke = _perf()
            async with slots:
                sent = _perf()
                index = next(counter)
                status, body = await client.repair(
                    code=codes[index % len(codes)],
                    tenant=TENANTS[index % len(TENANTS)],
                    seed=1_000_000 * inputs["seed"] + index,
                )
                done = _perf()
            record.append({
                "index": index, "http": status,
                "status": body.get("status", "?"),
                "digest": body.get("result_digest"),
                "final_code": body.get("final_code"),
                "latency_s": done - due, "late_s": woke - due,
                "slot_wait_s": sent - woke, "round_trip_s": done - sent,
                "queue_wait_s": body.get("queue_wait_s", 0.0),
                "exec_s": body.get("exec_s", 0.0),
            })

        # Paced phase: the whole schedule is drawn from the seed first.
        rng = random.Random(f"arrivals|{inputs['seed']}")
        offsets, t = [], 0.0
        for _ in range(_cycles(seconds * PACED_SHARE * RATE_PER_S, len(codes))):
            t += rng.expovariate(RATE_PER_S)
            offsets.append(t)
        paced: list = []
        backlog: list = []
        start = _perf()
        tasks = []
        for offset in offsets:
            delay = start + offset - _perf()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(send(start + offset, paced)))
            backlog.append((_perf() - start, len(tasks) - len(paced)))
        await asyncio.gather(*tasks)
        paced_wall = _perf() - start
        _, health = await client.health()

        # Saturated phase: everything due now, at most ``nproc`` in flight.
        saturated: list = []
        sat_start = _perf()
        await asyncio.gather(*(send(sat_start, saturated) for _ in codes))
        sat_wall = _perf() - sat_start
        return {
            "paced": paced, "saturated": saturated, "paced_wall_s": paced_wall,
            "saturated_wall_s": sat_wall, "backlog": backlog,
            "healthz_queued": health.get("queued"),
        }

    def check(self, inputs: dict, measured: Measured) -> dict:
        service = measured.service
        verdicts: dict[str, bool] = {}
        disagreements = 0
        for rec in measured.outputs:
            if rec["status"] != "fixed":
                continue
            code = rec["final_code"]
            if code not in verdicts:
                verdicts[code] = compile_source(code).ok
            disagreements += not verdicts[code]
        paced = service["paced"]
        digest = sha256(json.dumps(sorted((r["index"], r["digest"]) for r in paced)))
        late = sorted(r["late_s"] for r in paced)
        slope = _slope(service["backlog"])
        fixed = sum(r["status"] == "fixed" for r in measured.outputs)
        shed = sum(r["status"] == "overloaded" for r in measured.outputs)
        rows = [
            f"paced: rate={RATE_PER_S}/s requests={len(paced)} "
            f"wall={service['paced_wall_s']:.3f}s generator_late_ms "
            f"p50={1000 * late[len(late) // 2]:.3f} max={1000 * late[-1]:.3f} "
            f"backlog_slope={slope:.4f}/s healthz_queued_after="
            f"{service['healthz_queued']}",
            f"saturated: requests={len(service['saturated'])} "
            f"wall={service['saturated_wall_s']:.3f}s "
            f"completions_per_s={len(service['saturated']) / service['saturated_wall_s']:.2f}",
            f"fix_rate={fixed / max(len(measured.outputs), 1):.4f} shed={shed}; "
            f"claimed fixes recompiled cold: {len(verdicts)} distinct, "
            f"{disagreements} disagree",
        ]
        return {"items": len(measured.outputs), "disagreements": disagreements,
                "output_digests": [digest], "rows": rows,
                "throughput_per_s": len(paced) / service["paced_wall_s"],
                "saturated_per_s": len(service["saturated"]) / service["saturated_wall_s"]}


def _cycles(requests: float, size: int) -> int:
    """``requests`` rounded to a whole number (>= 1) of dataset cycles."""
    return size * max(1, round(requests / size))


def _slope(points: list) -> float:
    """Least-squares slope of ``(t, backlog)`` samples (requests/s)."""
    if len(points) < 2:
        return 0.0
    n = len(points)
    mt = sum(t for t, _ in points) / n
    mb = sum(b for _, b in points) / n
    var = sum((t - mt) ** 2 for t, _ in points)
    return sum((t - mt) * (b - mb) for t, b in points) / var if var else 0.0
