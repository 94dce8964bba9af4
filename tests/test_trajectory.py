"""The committed benchmark history (``bench/trajectory.jsonl``).

One compact JSON line per change that ran the benchmark:
``{"pr", "kind", "claim", "medians": {"workload/metric": {"parent",
"change"}}}``.  Every workload and metric it names must be one that
``BENCHMARK.json`` declares, so the history cannot drift from the
benchmark it records.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "bench" / "trajectory.jsonl"


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    return workloads, metrics


def _entries():
    lines = TRAJECTORY.read_text(encoding="utf-8").splitlines()
    assert lines, "empty trajectory"
    return [json.loads(line) for line in lines]


def _is_median(value):
    return value is None or (
        isinstance(value, (int, float)) and math.isfinite(value) and value >= 0
    )


def test_lines_parse_with_the_documented_keys():
    for entry in _entries():
        assert set(entry) == {"pr", "kind", "claim", "medians"}
        assert isinstance(entry["pr"], int) and isinstance(entry["kind"], str)
        assert entry["medians"]
        for pair in entry["medians"].values():
            assert set(pair) == {"parent", "change"}
            assert _is_median(pair["parent"]) and _is_median(pair["change"])
            assert pair["change"] is not None


def test_one_line_per_change_in_order():
    prs = [entry["pr"] for entry in _entries()]
    assert prs == sorted(set(prs))


def test_names_exist_in_benchmark_json():
    workloads, metrics = _declared()
    for entry in _entries():
        keys = list(entry["medians"])
        if entry["claim"] is not None:
            assert entry["claim"] in keys
        for key in keys:
            workload, _, metric = key.partition("/")
            assert workload in workloads, key
            assert metric in metrics, key
