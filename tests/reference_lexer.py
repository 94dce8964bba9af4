"""Frozen reference copy of the character-at-a-time Verilog lexer.

This is the lexer the master-regex :class:`repro.verilog.lexer.Lexer`
replaced, kept verbatim (one character per step, one ``startswith``
probe per multi-char operator, one token-budget charge per token) so
the differential tests in ``tests/test_lexer.py`` can hold the fast
lexer to exactly its tokens, spans, diagnostics and budget accounting.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.diagnostics.codes import ErrorCategory
from repro.diagnostics.diagnostic import Diagnostic
from repro.verilog.source import SourceFile, Span
from repro.verilog.tokens import KEYWORDS, MULTI_PUNCT, SINGLE_PUNCT, Token, TokenKind

_BASE_DIGITS = {
    "b": "01xz?",
    "o": "01234567xz?",
    "d": "0123456789",
    "h": "0123456789abcdef" + "xz?",
}

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789$")
_DIGITS = set("0123456789")


class ReferenceLexer:
    """The pre-regex ``Lexer``: same constructor, same ``tokenize``."""

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
        tokens: list[Token] = []
        while True:
            if self.tracker is not None and not self.tracker.charge("tokens"):
                self.tracker.report_overflow(
                    "tokens", self._span(self.pos, self.pos + 1), self.sink
                )
                tokens.append(Token(TokenKind.EOF, "", self._span(self.pos)))
                return tokens
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internals ---------------------------------------------------

    def _span(self, start: int, end: int | None = None) -> Span:
        return Span(self.source, start, self.pos if end is None else end)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "/" and self._peek(1) == "/":
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl == -1 else nl
            elif ch == "/" and self._peek(1) == "*":
                close = self.text.find("*/", self.pos + 2)
                self.pos = len(self.text) if close == -1 else close + 2
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        start = self.pos
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", self._span(start))
        ch = self.text[self.pos]

        if ch in _IDENT_START:
            return self._lex_ident(start)
        if ch in _DIGITS:
            return self._lex_number(start)
        if ch == "'":
            return self._lex_based_literal(start, size_digits="")
        if ch == '"':
            return self._lex_string(start)
        if ch == "$":
            return self._lex_system_ident(start)
        if ch == "\\":
            return self._lex_escaped_ident(start)
        return self._lex_punct(start)

    def _lex_ident(self, start: int) -> Token:
        while self._peek() in _IDENT_CONT:
            self.pos += 1
        value = self.text[start : self.pos]
        kind = TokenKind.KEYWORD if value in KEYWORDS else TokenKind.IDENT
        return Token(kind, value, self._span(start))

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

    def _lex_number(self, start: int) -> Token:
        while self._peek() in _DIGITS or self._peek() == "_":
            self.pos += 1
        if self._peek() == "'":
            return self._lex_based_literal(start, size_digits=self.text[start : self.pos])
        if self._peek() == "." and self._peek(1) in _DIGITS:
            self.pos += 1
            while self._peek() in _DIGITS or self._peek() == "_":
                self.pos += 1
            return Token(TokenKind.REAL, self.text[start : self.pos], self._span(start))
        return Token(TokenKind.NUMBER, self.text[start : self.pos], self._span(start))

    def _lex_based_literal(self, start: int, size_digits: str) -> Token:
        self.pos += 1  # the apostrophe
        signed = False
        if self._peek() in ("s", "S"):
            signed = True
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
        del signed  # recorded in the literal text; value parsing happens later
        return Token(TokenKind.NUMBER, literal, self._span(start))

    def _lex_punct(self, start: int) -> Token:
        for op in MULTI_PUNCT:
            if self.text.startswith(op, self.pos):
                self.pos += len(op)
                return Token(TokenKind.PUNCT, op, self._span(start))
        ch = self.text[self.pos]
        self.pos += 1
        if ch not in SINGLE_PUNCT:
            self.sink.append(
                Diagnostic(ErrorCategory.SYNTAX_NEAR, self._span(start), {"near": ch})
            )
            # Substitute a harmless token so parsing continues.
            return Token(TokenKind.PUNCT, ";", self._span(start))
        return Token(TokenKind.PUNCT, ch, self._span(start))
