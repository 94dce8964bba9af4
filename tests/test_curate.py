"""Tests for the §3.4 dataset curation pipeline."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dataset import (
    PAPER_DATASET_SIZE,
    SyntaxDataset,
    SyntaxEntry,
    build_syntax_dataset,
    verilogeval,
)
from repro.diagnostics import compile_source
from repro.diagnostics import compiler as compiler_mod
from repro.runtime import use_compile_cache

GOLDEN_DIGESTS = Path(__file__).parent / "data" / "dataset_digests.json"


@pytest.fixture(scope="module")
def small_dataset():
    return build_syntax_dataset(
        verilogeval(), samples_per_problem=6, seed=0, target_size=60
    )


class TestBuildSyntaxDataset:
    def test_target_size_hit(self, small_dataset):
        assert len(small_dataset) == 60

    def test_default_target_is_paper_size(self):
        assert PAPER_DATASET_SIZE == 212

    def test_every_entry_fails_compilation(self, small_dataset):
        for entry in small_dataset:
            assert not compile_source(entry.code).ok, entry.problem_id

    def test_entries_have_module_text(self, small_dataset):
        for entry in small_dataset:
            assert "module" in entry.code
            assert entry.description

    def test_categories_recorded(self, small_dataset):
        for entry in small_dataset:
            assert entry.categories
            assert entry.error_categories()  # round-trips through enum

    def test_category_diversity(self, small_dataset):
        hist = small_dataset.category_histogram()
        assert len(hist) >= 6  # many error classes represented

    def test_multiple_problems_represented(self, small_dataset):
        assert len({e.problem_id for e in small_dataset}) >= 15

    def test_stats_populated(self, small_dataset):
        stats = small_dataset.stats
        assert stats.sampled > 0
        assert stats.failing_kept > 0
        assert stats.clusters > 0
        assert stats.final == 60
        assert stats.compiled_ok > 0  # most samples compile

    def test_deterministic(self):
        a = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=5, target_size=30)
        b = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=5, target_size=30)
        assert [e.code for e in a] == [e.code for e in b]

    def test_different_seed_differs(self):
        a = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=5, target_size=30)
        b = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=6, target_size=30)
        assert [e.code for e in a] != [e.code for e in b]


class TestPersistence:
    def test_json_roundtrip(self, small_dataset):
        text = small_dataset.to_json()
        loaded = SyntaxDataset.from_json(text)
        assert len(loaded) == len(small_dataset)
        assert loaded.entries[0] == small_dataset.entries[0]

    def test_save_load(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.json")
        small_dataset.save(path)
        loaded = SyntaxDataset.load(path)
        assert [e.code for e in loaded] == [e.code for e in small_dataset]

    def test_entry_fields(self):
        entry = SyntaxEntry(
            problem_id="p", benchmark="human", description="d",
            code="module m; endmodule", categories=("missing-semicolon",),
        )
        assert entry.error_categories()[0].value == "missing-semicolon"


class TestGoldenDigest:
    def test_paper_dataset_matches_golden_digest(self):
        golden = json.loads(GOLDEN_DIGESTS.read_text())["digests"]
        with use_compile_cache():
            dataset = build_syntax_dataset(verilogeval(), seed=0)
        digest = hashlib.sha256(dataset.to_json().encode("utf-8")).hexdigest()
        assert digest == golden["0"]


class TestCompileRouting:
    def test_every_curation_compile_goes_through_the_cache(self, monkeypatch):
        # Count calls at every binding of compile_source in the package,
        # so a direct (uncached) call from any module shows up here.
        original = compiler_mod.compile_source
        calls = [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "compile_source", None) is original:
                monkeypatch.setattr(module, "compile_source", counting)
        with use_compile_cache() as cache:
            build_syntax_dataset(verilogeval(), samples_per_problem=1, seed=0)
        assert 0 < calls[0] <= cache.stats.misses
