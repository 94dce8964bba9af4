"""The One-shot baseline (paper §3.2, Fig. 2a).

A single turn of feedback: compile once, hand the model the code, the
compiler message (and retrieved guidance when RAG is enabled), take one
revised implementation, and compile it once more.  No iterative loop, no
reasoning/action decomposition.  It is the ReAct engine assembly run
for one iteration (one-line verify-turn input, no Finish turns), so the
two Table-1 rows differ only in how many feedback rounds the model gets.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..diagnostics import Compiler
from ..llm.base import RepairModel
from ..rag.retrievers import Retriever
from .react import _REACT_CONFIG, ReActAgent

_ONE_SHOT_CONFIG = replace(
    _REACT_CONFIG, max_iterations=1, head_lines=1,
    finish_thought=None, initial_finish=None,
)


class OneShotAgent(ReActAgent):
    """Single-turn repair baseline: one feedback round, one revision."""

    engine_config = _ONE_SHOT_CONFIG

    def __init__(
        self,
        model: RepairModel,
        compiler: Compiler,
        retriever: Optional[Retriever] = None,
        apply_rule_fix: bool = True,
    ):
        super().__init__(
            model, compiler, retriever, max_iterations=1,
            apply_rule_fix=apply_rule_fix,
        )
