"""Source-text bookkeeping for the Verilog front-end.

A :class:`SourceFile` wraps raw Verilog text and provides line/column
resolution; a :class:`Span` points at a region of a file and is attached
to every token, AST node and diagnostic so that error messages can print
``file.v:12`` locations the way iverilog and Quartus do.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceFile:
    """A named piece of Verilog source text.

    The name is what appears in diagnostics (``main.v:5: error: ...``);
    it does not have to exist on disk.
    """

    name: str
    text: str
    _line_starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        starts = [0]
        find = self.text.find
        nl = find("\n")
        while nl != -1:
            starts.append(nl + 1)
            nl = find("\n", nl + 1)
        object.__setattr__(self, "_line_starts", tuple(starts))

    @property
    def num_lines(self) -> int:
        return len(self._line_starts)

    def line_col(self, offset: int) -> tuple[int, int]:
        """Return 1-based (line, column) for a character offset."""
        offset = max(0, min(offset, len(self.text)))
        line = bisect.bisect_right(self._line_starts, offset) - 1
        return line + 1, offset - self._line_starts[line] + 1

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line number, without the newline."""
        if not 1 <= line <= self.num_lines:
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end == -1:
            end = len(self.text)
        return self.text[start:end]


@dataclass(frozen=True)
class Span:
    """A half-open [start, end) character range inside a source file."""

    file: SourceFile
    start: int
    end: int

    @property
    def line(self) -> int:
        return self.file.line_col(self.start)[0]

    @property
    def column(self) -> int:
        return self.file.line_col(self.start)[1]

    @property
    def text(self) -> str:
        return self.file.text[self.start : self.end]

    def to(self, other: "Span") -> "Span":
        """Smallest span covering both self and other (same file)."""
        return Span(self.file, min(self.start, other.start), max(self.end, other.end))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.file.name}:{self.line}"


def dummy_span(text: str = "", name: str = "<generated>") -> Span:
    """A span for synthesized constructs with no real source location."""
    f = SourceFile(name, text)
    return Span(f, 0, len(text))
