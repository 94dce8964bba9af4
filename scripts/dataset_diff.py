#!/usr/bin/env python
"""Dataset differential gate: the compile cache must not change curation.

Builds the full 212-entry VerilogEval-syntax dataset (§3.4) for each
seed twice:

* **cached** -- under a fresh :func:`repro.runtime.use_compile_cache`
  scope, so every curation compile (sample filter, logic mutants,
  injection checks) is served by the content-addressed cache;
* **uncached** -- under :func:`repro.runtime.no_compile_cache`, so every
  one of those calls runs the full front-end.

The SHA-256 digests of the two ``to_json()`` texts must be identical,
and equal to ``tests/data/dataset_digests.json`` for the seeds recorded
there.  Any mismatch is reported and the script exits non-zero.

Usage:
    scripts/dataset_diff.py [--seeds 0 1 2]
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, "src")

from repro.dataset import build_syntax_dataset, verilogeval  # noqa: E402
from repro.runtime import no_compile_cache, use_compile_cache  # noqa: E402

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "dataset_digests.json"


def build_digest(seed: int) -> str:
    """SHA-256 of the seed's full dataset JSON under the active cache."""
    dataset = build_syntax_dataset(verilogeval(), seed=seed)
    return hashlib.sha256(dataset.to_json().encode("utf-8")).hexdigest()


def main() -> int:
    """Run the cache-on/cache-off differential; 0 = identical digests."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2],
        help="generator seeds to build (default: 0 1 2)",
    )
    args = parser.parse_args()
    golden = json.loads(GOLDEN.read_text())["digests"]

    failures = 0
    for seed in args.seeds:
        start = time.perf_counter()
        with use_compile_cache() as cache:
            cached = build_digest(seed)
        mid = time.perf_counter()
        with no_compile_cache():
            uncached = build_digest(seed)
        end = time.perf_counter()
        expected = golden.get(str(seed))
        ok = cached == uncached and (expected is None or expected == cached)
        failures += not ok
        print(
            f"seed {seed}: cached {cached[:16]} ({mid - start:.1f}s, "
            f"{cache.stats.misses} misses, {cache.stats.hits} hits) "
            f"uncached {uncached[:16]} ({end - mid:.1f}s)"
            + ("" if expected is None else f" golden {expected[:16]}")
            + ("" if ok else "  MISMATCH")
        )
    if failures:
        print(f"FAILED: {failures} seed(s) differ", file=sys.stderr)
        return 1
    print("dataset differential: cached and uncached builds bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
