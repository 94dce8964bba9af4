"""Prompt templates from Fig. 2 of the paper, one copy of each text.

The simulated model does not consume raw prompts, but the templates are
part of the framework's public surface (the API-backed session sends
them verbatim; examples and docs render them).  This module imports
nothing, so :mod:`repro.agents` can re-export it without a cycle."""

from __future__ import annotations

GENERATION_SYSTEM_PROMPT = (
    "Implement the Verilog module based on the following description. "
    "Assume that signals are positive clock/clk edge triggered unless "
    "otherwise stated."
)

ONE_SHOT_TEMPLATE = """{system_prompt}

Problem Description:
{description}

Erroneous Implementation:
{code}

Feedback:
{feedback}
"""

REACT_INSTRUCTION = """Solve a task with interleaving Thought, Action, Observation steps. \
Thought can reason about the current situation, and Action can be the following types:
(1) Compiler[code], which compiles the input code and provide error message if there is syntax error.
(2) Finish[answer], which returns the answer and finished the task.
(3) RAG[logs], input the compiler log and retrieve expert solutions to fix the syntax error."""

REACT_QUESTION = (
    "What is the syntax error in the given Verilog module implementation "
    "and how to fix it?"
)


def render_one_shot(description: str, code: str, feedback: str) -> str:
    """Fill the Fig. 2a One-shot template."""
    return ONE_SHOT_TEMPLATE.format(
        system_prompt=GENERATION_SYSTEM_PROMPT,
        description=description,
        code=code,
        feedback=feedback,
    )
