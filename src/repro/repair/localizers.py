"""Localizers: narrow the fault before each proposal round.

* :class:`DiagnosticLocalizer` -- the syntax loop's RAG action: retrieve
  human expert guidance for the compiler log (paper §3.3) and surface
  it as a transcript turn.
* :class:`TraceDiffLocalizer` -- rtl-repair-style functional fault
  localization: read the simulation oracle's per-signal trace diff of
  candidate against golden, rank output signals by how many samples
  mismatch (earliest divergence breaks ties), then map each suspect
  signal to source lines -- its driver statements first, one hop of
  fan-in next, remaining mentions last.
  The template proposer searches suspect lines before the rest of the
  file.
"""

from __future__ import annotations

import re
from typing import Optional

from ..rag.retrievers import Retriever
from ..sim.feedback import SimFeedback
from .base import Localization, OracleVerdict, Suspect


class DiagnosticLocalizer:
    """Retrieve expert guidance for a compiler log (the RAG action)."""

    def __init__(self, retriever: Optional[Retriever]):
        self.retriever = retriever

    def localize(self, code: str, verdict: OracleVerdict) -> Localization:
        feedback = verdict.feedback
        # A crashed compile (internal-error diagnostic, see
        # compile_source's never-crash boundary) is still feedback the
        # model can react to, but there is no point retrieving guidance
        # for it: the RAG database indexes *design* errors, not
        # compiler defects.
        crashed = getattr(verdict.detail, "crashed", False)
        guidance = []
        if self.retriever is not None and feedback and not crashed:
            guidance = [r.entry for r in self.retriever.retrieve(feedback)]
        turn = None
        if guidance:
            turn = dict(
                thought="I should look up expert guidance for this "
                "compiler log.",
                action="RAG",
                action_input=feedback.split("\n")[0],
                observation=guidance[0].guidance,
            )
        return Localization(guidance=guidance, turn=turn)


def driver_lines(code: str, signal: str) -> list[int]:
    """1-based lines where ``signal`` is assigned (continuous or
    procedural)."""
    pattern = re.compile(
        rf"(?:\bassign\s+)?\b{re.escape(signal)}\b"
        rf"(?:\s*\[[^\]]*\])?\s*(?:<=|=)(?!=)"
    )
    lines = []
    for index, line in enumerate(code.split("\n"), start=1):
        if pattern.search(line):
            lines.append(index)
    return lines


def suspect_lines(code: str, signal: str) -> list[int]:
    """Source lines implicated by a mismatching ``signal``, rank order:
    driver statements, one hop of fan-in drivers, other mentions."""
    drivers = driver_lines(code, signal)
    lines = code.split("\n")
    fan_in: list[int] = []
    for line_no in drivers:
        rhs = lines[line_no - 1].split("=", 1)[-1]
        for ident in re.findall(r"[A-Za-z_]\w*", rhs):
            if ident == signal:
                continue
            for driver in driver_lines(code, ident):
                if driver not in drivers and driver not in fan_in:
                    fan_in.append(driver)
    mentions = [
        index
        for index, line in enumerate(lines, start=1)
        if re.search(rf"\b{re.escape(signal)}\b", line)
        and index not in drivers and index not in fan_in
    ]
    return drivers + fan_in + mentions


class TraceDiffLocalizer:
    """Rank suspect signals/lines from the oracle's trace diff.

    Reads the per-signal diff that a :class:`~repro.repair.oracles.SimOracle`
    verdict carries (:attr:`~repro.sim.feedback.SimFeedback.diff`); it
    compiles and simulates nothing itself.  A candidate the oracle could
    not simulate -- it did not compile, hit a budget or crashed --
    localizes to nothing.
    """

    def __init__(self, max_suspects: int = 8):
        self.max_suspects = max_suspects

    def localize(self, code: str, verdict: OracleVerdict) -> Localization:
        feedback = verdict.detail
        if not isinstance(feedback, SimFeedback):
            return Localization()
        # Most mismatches first; earlier first divergence breaks ties
        # (the signal that goes wrong first is closest to the fault).
        ranked = sorted(
            ((d.signal, d.mismatches, d.first) for d in feedback.diff if d.mismatches),
            key=lambda item: (-item[1], item[2], item[0]),
        )
        suspects: list[Suspect] = []
        seen_lines: set[int] = set()
        total = max(feedback.compared, 1)
        for name, mismatches, first in ranked[: self.max_suspects]:
            reason = (
                f"{mismatches}/{total} samples mismatch, "
                f"first at sample {first}"
            )
            lines = suspect_lines(code, name)
            if not lines:
                suspects.append(
                    Suspect(signal=name, line=None,
                            score=mismatches / total, reason=reason)
                )
            for line in lines:
                if line in seen_lines:
                    continue
                seen_lines.add(line)
                suspects.append(
                    Suspect(signal=name, line=line,
                            score=mismatches / total, reason=reason)
                )
        return Localization(suspects=suspects)
