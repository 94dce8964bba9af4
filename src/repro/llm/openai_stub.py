"""OpenAI-backed repair model: documented stub.

The paper runs everything against *gpt-3.5-turbo-16k-0613* via the
OpenAI API.  This environment has no network access, so this module only
documents the real-API path and fails loudly if used.  The prompts it
sends (:mod:`repro.llm.prompts`) are faithful to Fig. 2 of the paper,
so wiring in an actual client is a matter of implementing
:class:`LLMClient.complete`.
"""

from __future__ import annotations

import re

from ..errors import LLMError
from ..rag.database import GuidanceEntry
from .base import ChatMessage, LLMClient, RepairStep
from .prompts import REACT_INSTRUCTION, REACT_QUESTION


def build_repair_messages(
    code: str, feedback: str, guidance: list[GuidanceEntry]
) -> list[ChatMessage]:
    """The messages an API-backed session would send per turn."""
    guidance_text = "\n".join(
        f"- {g.guidance}" + (f"\n  e.g. {g.demonstration}" if g.demonstration else "")
        for g in guidance
    )
    user = (
        f"{REACT_QUESTION}\n\n"
        f"```verilog\n{code}\n```\n\n"
        f"Compiler feedback:\n{feedback or 'Correct the syntax error in the code.'}\n"
    )
    if guidance_text:
        user += f"\nHuman expert guidance:\n{guidance_text}\n"
    user += "\nRespond with a Thought line and the full corrected module."
    return [
        ChatMessage(role="system", content=REACT_INSTRUCTION),
        ChatMessage(role="user", content=user),
    ]


def parse_repair_reply(reply: str, fallback_code: str) -> RepairStep:
    """Extract the thought and code from a model reply."""
    thought_match = re.search(r"Thought.*?:\s*(.+)", reply)
    thought = thought_match.group(1).strip() if thought_match else reply[:200]
    code_match = re.search(r"```(?:verilog)?\n(.*?)```", reply, re.DOTALL)
    code = code_match.group(1) if code_match else fallback_code
    return RepairStep(thought=thought, code=code)


class OpenAIRepairModel:
    """Repair model that would call the OpenAI API.  Unusable offline."""

    def __init__(self, client: LLMClient | None = None, model: str = "gpt-3.5-turbo-16k-0613"):
        self.client = client
        self.model = model
        self.name = model

    def start(self, code: str, flavor: str, use_rag: bool):
        if self.client is None:
            raise LLMError(
                "OpenAIRepairModel needs an LLMClient; this offline "
                "reproduction uses repro.llm.SimulatedLLM instead "
                "(see DESIGN.md, substitution table)."
            )
        return _OpenAISession(self.client)


class _OpenAISession:
    def __init__(self, client: LLMClient):
        self.client = client

    def step(self, code: str, feedback: str, guidance: list[GuidanceEntry]) -> RepairStep:
        messages = build_repair_messages(code, feedback, guidance)
        reply = self.client.complete(messages)
        return parse_repair_reply(reply, fallback_code=code)
