"""Golden outcomes for the One-shot Table-1 cells.

``tests/data/oneshot_digests.json`` holds one SHA-256 per (cell, seed)
over every trial of the 212-entry syntax dataset, recorded when
One-shot still ran its own hand-rolled single-turn loop.  One-shot is
now the one-iteration configuration of the repair engine, and this
test pins that the configuration reproduces the hand-rolled loop's
success flags, final code, iteration counts, rule-fix flags and every
non-RAG transcript turn byte for byte.  RAG turns are left out of the
hash: the old loop put retrieved guidance into the prompt without
recording a turn for it, the engine records one.

Regenerate (only when One-shot behaviour is meant to change) with::

    PYTHONPATH=src python tests/test_oneshot_golden.py > tests/data/oneshot_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import RTLFixer
from repro.dataset.corpus import verilogeval
from repro.dataset.curate import build_syntax_dataset

GOLDEN = Path(__file__).parent / "data" / "oneshot_digests.json"
SEEDS = (0, 1)

#: The seven One-shot cells of Table 1: (label, compiler, use_rag, tier).
CELLS = (
    ("oneshot", "simple", False, "gpt-3.5-sim"),
    ("oneshot", "iverilog", False, "gpt-3.5-sim"),
    ("oneshot", "iverilog", True, "gpt-3.5-sim"),
    ("oneshot", "quartus", False, "gpt-3.5-sim"),
    ("oneshot", "quartus", True, "gpt-3.5-sim"),
    ("oneshot-gpt4", "quartus", False, "gpt-4-sim"),
    ("oneshot-gpt4", "quartus", True, "gpt-4-sim"),
)


def cell_key(label, compiler, rag, seed):
    return f"{label}/{compiler}/{'rag' if rag else 'norag'}/seed{seed}"


def trial_payload(result):
    """The hashed view of one trial: outcome plus every non-RAG turn."""
    return [
        bool(result.success),
        result.final_code,
        result.iterations,
        bool(result.rule_fixed),
        [
            [t.thought, t.action, t.action_input, t.observation]
            for t in result.transcript.turns
            if t.action != "RAG"
        ],
    ]


def run_cells(dataset):
    """Run every One-shot cell at every seed; returns ``(digests,
    rag_turns)`` where ``rag_turns`` counts RAG turns per cell key."""
    digests, rag_turns = {}, {}
    for label, compiler, rag, tier in CELLS:
        for seed in SEEDS:
            fixer = RTLFixer(
                prompting="oneshot", compiler=compiler, use_rag=rag,
                tier=tier, seed=seed,
            )
            payloads, rags = [], 0
            for entry in dataset:
                result = fixer.fix(entry.code)
                payloads.append(trial_payload(result))
                rags += sum(t.action == "RAG" for t in result.transcript.turns)
            blob = json.dumps(payloads, ensure_ascii=False)
            key = cell_key(label, compiler, rag, seed)
            digests[key] = hashlib.sha256(blob.encode()).hexdigest()
            rag_turns[key] = rags
    return digests, rag_turns


@pytest.fixture(scope="module")
def oneshot_run():
    dataset = build_syntax_dataset(verilogeval(), seed=0)
    assert len(dataset) == 212
    return run_cells(dataset)


def test_oneshot_cells_match_golden_digests(oneshot_run):
    digests, _ = oneshot_run
    golden = json.loads(GOLDEN.read_text())["digests"]
    assert digests == golden


def test_rag_cells_record_rag_turns(oneshot_run):
    _, rag_turns = oneshot_run
    for label, compiler, rag, _tier in CELLS:
        for seed in SEEDS:
            count = rag_turns[cell_key(label, compiler, rag, seed)]
            if rag:
                assert count > 0, (label, compiler, seed)
            else:
                assert count == 0, (label, compiler, seed)


if __name__ == "__main__":
    digests, _ = run_cells(build_syntax_dataset(verilogeval(), seed=0))
    print(json.dumps({
        "recipe": "RTLFixer(prompting='oneshot', compiler=c, use_rag=r, "
                  "tier=t, seed=s).fix(code) over build_syntax_dataset("
                  "verilogeval(), seed=0); sha256 of the JSON list of "
                  "[success, final_code, iterations, rule_fixed, "
                  "[[thought, action, action_input, observation] for each "
                  "non-RAG turn]] per trial",
        "digests": digests,
    }, indent=2))
