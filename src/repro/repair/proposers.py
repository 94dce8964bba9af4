"""Proposers: candidate-edit sources for the repair engine.

* :class:`RuleFixProposer` -- the deterministic rule-based pre-pass
  (markdown extraction, `timescale hoisting) recorded as a ``RuleFix``
  transcript turn; runs once before the first detect.
* :class:`LLMProposer` -- one :class:`~repro.llm.base.RepairModel`
  session (direct simulated tier, OpenAI-backed, or a
  :mod:`repro.llm.pool` ladder); forwards the engine's verify outcomes
  through the duck-typed ``observe`` escalation seam.
* :class:`LogicModelProposer` -- same, for the §5 logic-debugging model
  surface (``start(code, difficulty)`` / ``step(code, feedback)``).
* :class:`FallbackProposer` -- chains proposers: when one declares done
  without changing the code (search exhausted), the next takes over
  from the current best.  Table 4 runs templates first, then escalates
  to the LLM.
"""

from __future__ import annotations

from typing import Optional

from .base import Localization, OracleVerdict, _head
from .transcript import Transcript


class RuleFixProposer:
    """The rule-based pre-pass, as the engine's ``prefix`` hook."""

    name = "rulefix"

    def apply(self, transcript: Transcript, code: str, on_turn=None):
        """Rule-fix ``code``; returns ``(new_code, materially_changed)``.

        Only a *material* change (whitespace-only trims do not count)
        records a ``RuleFix`` turn and notifies ``on_turn`` of it, so
        clean inputs still short-circuit with a lone ``Finish`` turn.
        """
        from ..core.rulefix import rule_fix  # deferred: avoids an import
        # cycle (repro.core.fixer builds agents, which build engines)

        rule_result = rule_fix(code)
        if rule_result.code.strip() == code.strip():
            return rule_result.code, False
        notes = []
        if rule_result.extracted_from_markdown:
            notes.append("extracted the Verilog from the surrounding text")
        if rule_result.moved_timescale:
            notes.append("hoisted the `timescale directive to the file top")
        if not notes:
            notes.append("normalized the module text")
        turn = transcript.add(
            thought="Apply the rule-based pre-fixer before consulting "
            "the model.",
            action="RuleFix",
            action_input=_head(code),
            observation="; ".join(notes),
        )
        if on_turn is not None:
            on_turn(turn)
        return rule_result.code, True


class LLMProposer:
    """A syntax-repair model session behind the proposer protocol."""

    name = "llm"

    def __init__(self, model, flavor: str = "simple", use_rag: bool = False):
        self.model = model
        self.flavor = flavor
        self.use_rag = use_rag

    def start(self, code: str, verdict: OracleVerdict) -> "LLMProposerSession":
        session = self.model.start(
            code, flavor=self.flavor, use_rag=self.use_rag
        )
        return LLMProposerSession(session)


class LLMProposerSession:
    """One repair-model conversation behind the session protocol."""

    active_name = "llm"

    def __init__(self, session):
        self.session = session

    def propose(self, code: str, verdict: OracleVerdict,
                localization: Optional[Localization]):
        guidance = localization.guidance if localization is not None else []
        return self.session.step(code, verdict.feedback, guidance)

    def observe(self, ok: bool) -> None:
        notice = getattr(self.session, "observe", None)
        if callable(notice):
            notice(ok)


class LogicModelProposer:
    """A §5 logic-debugging model session behind the proposer protocol."""

    name = "llm"

    def __init__(self, model, difficulty: str = "hard"):
        self.model = model
        self.difficulty = difficulty

    def start(self, code: str, verdict: OracleVerdict) -> "LogicProposerSession":
        return LogicProposerSession(self.model.start(code, self.difficulty))


class LogicProposerSession:
    """One logic-debugging conversation behind the session protocol."""

    active_name = "llm"

    def __init__(self, session):
        self.session = session

    def propose(self, code: str, verdict: OracleVerdict,
                localization: Optional[Localization]):
        return self.session.step(code, verdict.feedback)

    def observe(self, ok: bool) -> None:
        notice = getattr(self.session, "observe", None)
        if callable(notice):
            notice(ok)


class FallbackProposer:
    """Chain proposers; each takes over when the previous runs dry."""

    def __init__(self, *proposers):
        if not proposers:
            raise ValueError("FallbackProposer needs at least one proposer")
        self.proposers = proposers

    def start(self, code: str, verdict: OracleVerdict) -> "FallbackSession":
        return FallbackSession(self.proposers, code, verdict)


class FallbackSession:
    """The chained session: delegates to the active proposer's session,
    advancing down the chain whenever one declares done without
    changing the code."""

    def __init__(self, proposers, code: str, verdict: OracleVerdict):
        self.proposers = list(proposers)
        self._index = 0
        self._session = self.proposers[0].start(code, verdict)
        #: Stats of already-exhausted sessions, folded into ``stats``.
        self._drained_stats: dict = {}

    @property
    def active_name(self) -> str:
        return getattr(self._session, "active_name", "") or getattr(
            self.proposers[self._index], "name", ""
        )

    @property
    def stats(self) -> dict:
        merged: dict = {"escalated_to_llm": self._index > 0}
        merged.update(self._drained_stats)
        merged.update(getattr(self._session, "stats", {}) or {})
        return merged

    def propose(self, code: str, verdict: OracleVerdict,
                localization: Optional[Localization]):
        while True:
            step = self._session.propose(code, verdict, localization)
            exhausted = step.declared_done and step.code == code
            if not exhausted or self._index + 1 >= len(self.proposers):
                return step
            # Search dried up: hand the current best to the next
            # proposer (Table 4's templates -> LLM escalation).
            self._drained_stats.update(getattr(self._session, "stats", {}) or {})
            self._index += 1
            self._session = self.proposers[self._index].start(code, verdict)

    def observe(self, ok: bool) -> None:
        notice = getattr(self._session, "observe", None)
        if callable(notice):
            notice(ok)
