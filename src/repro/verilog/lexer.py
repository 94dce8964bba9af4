"""Lexer for the supported Verilog subset.

One compiled master regex lexes the common tokens (identifiers,
keywords, numbers, operators) together with the trivia before them in a
single match; the rare, diagnostic-bearing forms fall back to
hand-written code.

The lexer is error-tolerant: malformed constructs produce a
:class:`~repro.diagnostics.diagnostic.Diagnostic` in the supplied sink
and a best-effort replacement token, so that parsing (and therefore
diagnosis of *further* errors) can continue -- mirroring how real
compilers report several errors per run.
"""

from __future__ import annotations

import re

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic
from .source import SourceFile, Span
from .tokens import KEYWORDS, MULTI_PUNCT, SINGLE_PUNCT, Token, TokenKind

_BASE_DIGITS = {
    "b": "01xz?",
    "o": "01234567xz?",
    "d": "0123456789",
    "h": "0123456789abcdef" + "xz?",
}

_IDENT_CONT = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789$")
_DIGITS = set("0123456789")

#: One match per token: skip the trivia (whitespace, ``//`` comments,
#: block comments terminated or not), then capture a hot token kind in a
#: named group.  Every class is spelled out in ASCII (``\w``/``\s``/``\d``
#: would admit Unicode letters, ``\f``/``\v`` and fullwidth digits, all of
#: which are invalid characters here), and the digit runs are possessive
#: so ``04'b1`` cannot backtrack into a plain ``0``.  When no group
#: matches, the token is a rare form (based literal, string, ``$``, ``\``,
#: invalid character) or EOF, and the hand-written fallback lexes it.
_MASTER = re.compile(
    r"(?:[ \t\r\n]++|//[^\n]*+|/\*(?s:.*?\*/|.*))*+"
    r"(?:(?P<ident>[A-Za-z_][A-Za-z0-9_$]*+)"
    r"|(?P<real>[0-9][0-9_]*+\.[0-9][0-9_]*+)"
    r"|(?P<number>[0-9][0-9_]*+(?!'|\.[0-9]))"
    r"|(?P<punct>"
    + "|".join(re.escape(op) for op in MULTI_PUNCT)
    + "|["
    + re.escape("".join(sorted(SINGLE_PUNCT)))
    + "]))?"
)

_GROUP_KIND = {
    "real": TokenKind.REAL,
    "number": TokenKind.NUMBER,
    "punct": TokenKind.PUNCT,
}


class Lexer:
    """Tokenizes one :class:`SourceFile`, reporting problems to ``sink``.

    With a :class:`~repro.verilog.limits.LimitTracker` attached, the
    token stream is budgeted: once ``max_tokens`` is exhausted the lexer
    reports a single ``RESOURCE_LIMIT`` diagnostic and terminates the
    stream with EOF instead of chewing through megabytes of garbage.
    """

    def __init__(
        self,
        source: SourceFile,
        sink: list[Diagnostic],
        tracker=None,
        start: int = 0,
    ):
        self.source = source
        self.text = source.text
        #: ``start`` lets an incremental caller resume lexing mid-source
        #: (the lexer is stateless between tokens, so resuming at a known
        #: token boundary yields exactly the cold token suffix).
        self.pos = start
        self.sink = sink
        self.tracker = tracker

    def tokenize(self) -> list[Token]:
        """Lex to EOF (or to the token budget), charging the budget once.

        Each token costs one budget unit, EOF included.  The budget left
        is read up front and the tokens are counted locally; the single
        ``charge`` at the end leaves ``tracker.spent`` exactly where one
        charge per token would have, over-budget attempt included.
        """
        source, text, tracker = self.source, self.text, self.tracker
        size = len(text)
        match = _MASTER.match
        keywords = KEYWORDS
        ident, keyword = TokenKind.IDENT, TokenKind.KEYWORD
        tokens: list[Token] = []
        append = tokens.append
        # Unbudgeted, ``left`` exceeds any token count: every token but
        # EOF consumes at least one character.
        left = size + 2
        if tracker is not None:
            left = tracker.limits.limit_for("tokens") - tracker.spent.get("tokens", 0)
        count = 0
        pos = self.pos
        while True:
            count += 1
            if count > left:
                tracker.report_overflow("tokens", Span(source, pos, pos + 1), self.sink)
                append(Token(TokenKind.EOF, "", Span(source, pos, pos)))
                break
            m = match(text, pos)
            group = m.lastgroup
            if group is None:
                # An escaped trailing backslash in an unterminated string
                # leaves ``pos`` one past the end, where the match clamps.
                self.pos = m.end() if pos <= size else pos
                token = self._lex_rare()
                pos = self.pos
                append(token)
                if token.kind is TokenKind.EOF:
                    break
                continue
            start, pos = m.span(group)
            value = text[start:pos]
            if group == "ident":
                kind = keyword if value in keywords else ident
            else:
                kind = _GROUP_KIND[group]
            append(Token(kind, value, Span(source, start, pos)))
        if tracker is not None:
            tracker.charge("tokens", count)
        self.pos = pos
        return tokens

    # -- rare forms ----------------------------------------------------

    def _span(self, start: int, end: int | None = None) -> Span:
        return Span(self.source, start, self.pos if end is None else end)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def _lex_rare(self) -> Token:
        """Lex the token at ``self.pos`` that the master regex left alone."""
        start = self.pos
        if start >= len(self.text):
            return Token(TokenKind.EOF, "", self._span(start))
        ch = self.text[start]
        if ch in _DIGITS:  # a size prefix: ``4'b...``
            while self._peek() in _DIGITS or self._peek() == "_":
                self.pos += 1
            return self._lex_based_literal(start)
        if ch == "'":
            return self._lex_based_literal(start)
        if ch == '"':
            return self._lex_string(start)
        if ch == "$":
            return self._lex_system_ident(start)
        if ch == "\\":
            return self._lex_escaped_ident(start)
        self.pos += 1
        self.sink.append(
            Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": ch})
        )
        # Substitute a harmless token so parsing continues.
        return Token(TokenKind.PUNCT, ";", self._span(start))

    def _lex_escaped_ident(self, start: int) -> Token:
        self.pos += 1  # backslash
        while self._peek() not in ("", " ", "\t", "\r", "\n"):
            self.pos += 1
        value = self.text[start + 1 : self.pos]
        if not value:
            self.sink.append(
                Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": "\\"})
            )
            value = "_"
        return Token(TokenKind.IDENT, value, self._span(start))

    def _lex_system_ident(self, start: int) -> Token:
        self.pos += 1  # $
        while self._peek() in _IDENT_CONT:
            self.pos += 1
        value = self.text[start : self.pos]
        if value == "$":
            self.sink.append(
                Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": "$"})
            )
        return Token(TokenKind.SYSTEM_IDENT, value, self._span(start))

    def _lex_string(self, start: int) -> Token:
        self.pos += 1
        while self._peek() not in ("", '"', "\n"):
            if self._peek() == "\\":
                self.pos += 1
            self.pos += 1
        if self._peek() == '"':
            self.pos += 1
        else:
            self.sink.append(
                Diagnostic(
                    ErrorCategory.SYNTAX_NEAR,
                    self._span(start),
                    {"near": "unterminated string"},
                )
            )
        return Token(TokenKind.STRING, self.text[start : self.pos], self._span(start))

    def _lex_based_literal(self, start: int) -> Token:
        self.pos += 1  # the apostrophe
        if self._peek() in ("s", "S"):  # recorded in the literal text
            self.pos += 1
        base_ch = self._peek().lower()
        if base_ch not in _BASE_DIGITS:
            self.sink.append(
                Diagnostic(
                    ErrorCategory.BAD_LITERAL,
                    self._span(start),
                    {"literal": self.text[start : self.pos + 1]},
                )
            )
            return Token(TokenKind.NUMBER, "0", self._span(start))
        self.pos += 1
        digit_start = self.pos
        while self._peek().lower() in "0123456789abcdefxz?_" and self._peek() != "":
            self.pos += 1
        digits = self.text[digit_start : self.pos].lower().replace("_", "")
        valid = _BASE_DIGITS[base_ch]
        literal = self.text[start : self.pos]
        if not digits or any(d not in valid for d in digits):
            self.sink.append(
                Diagnostic(
                    ErrorCategory.BAD_LITERAL, self._span(start), {"literal": literal}
                )
            )
            return Token(TokenKind.NUMBER, "0", self._span(start))
        return Token(TokenKind.NUMBER, literal, self._span(start))


def tokenize(
    source: SourceFile, sink: list[Diagnostic] | None = None, tracker=None
) -> list[Token]:
    """Convenience wrapper: tokenize ``source``, optionally collecting
    diagnostics into ``sink`` (discarded when not provided) and charging
    the token budget of ``tracker``."""
    return Lexer(source, sink if sink is not None else [], tracker=tracker).tokenize()
