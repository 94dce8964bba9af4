"""Unit tests for the Verilog lexer."""

import random
from pathlib import Path

import pytest

from repro.dataset import build_syntax_dataset, rtllm, verilogeval
from repro.diagnostics import ErrorCategory
from repro.verilog import SourceFile, tokenize
from repro.verilog.lexer import Lexer
from repro.verilog.limits import LimitTracker, ResourceLimits
from repro.verilog.tokens import TokenKind

from .reference_lexer import ReferenceLexer

CRASH_CORPUS = Path(__file__).parent / "data" / "crash_corpus"
REFERENCES = [p.reference for p in list(verilogeval()) + list(rtllm())]


def lex(code: str):
    sink = []
    tokens = tokenize(SourceFile("t.v", code), sink)
    return tokens, sink


def kinds(code: str):
    tokens, _ = lex(code)
    return [t.kind for t in tokens[:-1]]  # drop EOF


def values(code: str):
    tokens, _ = lex(code)
    return [t.value for t in tokens[:-1]]


class TestBasics:
    def test_empty_input_is_just_eof(self):
        tokens, sink = lex("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF
        assert sink == []

    def test_identifiers_and_keywords(self):
        tokens, _ = lex("module foo endmodule")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[1].value == "foo"
        assert tokens[2].kind is TokenKind.KEYWORD

    def test_identifier_with_dollar_and_digits(self):
        assert values("a1_$x") == ["a1_$x"]

    def test_escaped_identifier(self):
        tokens, sink = lex("\\my+sig  rest")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "my+sig"
        assert sink == []

    def test_system_identifier(self):
        tokens, _ = lex("$display")
        assert tokens[0].kind is TokenKind.SYSTEM_IDENT
        assert tokens[0].value == "$display"

    def test_string_literal(self):
        tokens, sink = lex('"hello world"')
        assert tokens[0].kind is TokenKind.STRING
        assert sink == []

    def test_unterminated_string_reports(self):
        _, sink = lex('"oops')
        assert sink
        assert sink[0].category is ErrorCategory.SYNTAX_NEAR


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment here\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_consumes_rest(self):
        assert values("a /* never closed") == ["a"]


class TestNumbers:
    def test_plain_decimal(self):
        tokens, _ = lex("42")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "42"

    def test_sized_hex(self):
        tokens, sink = lex("8'hFF")
        assert tokens[0].value == "8'hFF"
        assert sink == []

    def test_sized_binary_with_x(self):
        _, sink = lex("4'b10x1")
        assert sink == []

    def test_underscores_allowed(self):
        tokens, sink = lex("16'b1010_1010_1111_0000")
        assert sink == []
        assert tokens[0].kind is TokenKind.NUMBER

    def test_signed_literal(self):
        _, sink = lex("8'sd12")
        assert sink == []

    def test_real_number(self):
        tokens, _ = lex("3.14")
        assert tokens[0].kind is TokenKind.REAL

    def test_invalid_binary_digit_flags_bad_literal(self):
        _, sink = lex("4'b1021")
        assert [d.category for d in sink] == [ErrorCategory.BAD_LITERAL]

    def test_invalid_hex_digit_flags_bad_literal(self):
        _, sink = lex("8'hGG")
        assert [d.category for d in sink] == [ErrorCategory.BAD_LITERAL]

    def test_missing_digits_flags_bad_literal(self):
        _, sink = lex("4'b;")
        assert [d.category for d in sink] == [ErrorCategory.BAD_LITERAL]

    def test_bad_base_char_flags_bad_literal(self):
        _, sink = lex("4'q1010")
        assert sink[0].category is ErrorCategory.BAD_LITERAL

    def test_bad_literal_recovers_with_zero_token(self):
        tokens, _ = lex("4'b1021 + 1")
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == "0"
        assert tokens[1].value == "+"


class TestOperators:
    def test_multi_char_operators_greedy(self):
        assert values("a <= b") == ["a", "<=", "b"]
        assert values("a <<< 2") == ["a", "<<<", "2"]
        assert values("a === b") == ["a", "===", "b"]

    def test_c_style_tokens_lexed(self):
        # The lexer passes these through; the *parser* flags them.
        assert values("i++") == ["i", "++"]
        assert values("i += 2") == ["i", "+=", "2"]

    def test_at_star(self):
        assert values("@*") == ["@*"]

    def test_part_select_operators(self):
        assert values("a[3 +: 4]") == ["a", "[", "3", "+:", "4", "]"]

    def test_unknown_character_reports_syntax(self):
        _, sink = lex("a \x01 b")
        assert sink
        assert sink[0].category is ErrorCategory.SYNTAX_NEAR


class TestSpans:
    def test_token_spans_point_into_source(self):
        code = "module foo;\nendmodule"
        tokens, _ = lex(code)
        assert tokens[0].span.line == 1
        assert tokens[0].span.text == "module"
        assert tokens[3].span.line == 2

    def test_line_col_resolution(self):
        src = SourceFile("x.v", "ab\ncd\nef")
        assert src.line_col(0) == (1, 1)
        assert src.line_col(3) == (2, 1)
        assert src.line_col(7) == (3, 2)
        assert src.line_text(2) == "cd"


# -- differential against the pre-regex lexer ------------------------------

#: Verilog-heavy chunks for random inputs, including every trap the master
#: regex must not fall into: non-trivia whitespace (form feed, vertical
#: tab), non-ASCII letters a ``\w`` class or IGNORECASE would admit
#: (``é``, the Kelvin sign U+212A, fullwidth letters and digits),
#: size-prefixed and unsized based literals, reals and near-reals,
#: comment openers and closers, the longest operator, and a backslash
#: that can end up trailing an unterminated string.
_ALPHABET = (
    "a", "b1", "_x$", "module", "begin", " ", "\t", "\n", "\r", "\f", "\v",
    "\u00e9", "\u212a", "\uff21", "\uff14", "4'b", "'sh", "'", "8'hF", "1.5",
    "12.x", "0", "9_", ".", "/*", "*/", "//", "/", "*", "<<<=", "<", "<<",
    "<-", "=", ">", '"', "\\", "$", "$d", "x", "z", "?", "'d", "f", "_", ";",
    "(", ")", "@*", "~^", "!", "#", "`", "\x00", "-", "+:",
)


def _lex_record(lexer_cls, text, start=0, max_tokens=None, precharged=0):
    """Everything observable about one lex: tokens, diagnostics, budget."""
    source = SourceFile("t.v", text)
    sink = []
    tracker = None
    if max_tokens is not None:
        tracker = LimitTracker(ResourceLimits(max_tokens=max_tokens))
        if precharged:
            tracker.charge("tokens", precharged)
    tokens = lexer_cls(source, sink, tracker=tracker, start=start).tokenize()
    return (
        [(t.kind, t.value, t.span.start, t.span.end) for t in tokens],
        [(d.category, d.span.start, d.span.end, d.args) for d in sink],
        None if tracker is None else (dict(tracker.spent), set(tracker.reported)),
    )


def _assert_same(text, start=0, max_tokens=None, precharged=0):
    fast = _lex_record(Lexer, text, start, max_tokens, precharged)
    ref = _lex_record(ReferenceLexer, text, start, max_tokens, precharged)
    assert fast == ref, (text[:200], start, max_tokens, precharged)


def _assert_same_all_budgets(text, rng):
    start = rng.randint(0, len(text))
    for begin in (0, start):
        _assert_same(text, begin)
        for max_tokens in range(1, 13):
            _assert_same(text, begin, max_tokens)


@pytest.fixture(scope="module")
def dataset_sources():
    return [entry.code for entry in build_syntax_dataset(verilogeval(), seed=0)]


class TestDifferential:
    """The master-regex lexer against a frozen copy of the lexer it
    replaced: equal tokens, spans, diagnostics (category, span, args,
    order) and token-budget state, unbudgeted and at every budget from 1
    to 12, from offset 0 and from a random resume offset."""

    def test_corpus_references(self):
        rng = random.Random(1)
        for text in REFERENCES:
            _assert_same_all_budgets(text, rng)

    def test_dataset_entries(self, dataset_sources):
        assert len(dataset_sources) == 212
        rng = random.Random(2)
        for text in dataset_sources:
            _assert_same_all_budgets(text, rng)

    def test_crash_corpus(self):
        rng = random.Random(3)
        paths = sorted(CRASH_CORPUS.glob("*.v"))
        assert paths
        for path in paths:
            _assert_same_all_budgets(path.read_text(encoding="utf-8"), rng)

    def test_random_strings(self):
        # Each string is lexed unbudgeted and under one budget; the budget
        # cycles through 1..12 and a third of the runs start with part of
        # it already spent, as an incremental resume leaves it.
        rng = random.Random(4)
        for i in range(20_000):
            text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 24)))
            start = rng.randint(0, len(text)) if i % 2 else 0
            _assert_same(text, start)
            precharged = rng.randint(1, 3) if i % 3 == 0 else 0
            _assert_same(text, start, 1 + i % 12, precharged)

    def test_trailing_backslash_in_unterminated_string(self):
        # The escape skip steps one past the end of the text; the EOF span
        # keeps that position.
        text = 'x = "abc\\'
        tokens, sink = lex(text)
        assert tokens[-1].kind is TokenKind.EOF
        assert tokens[-1].span.end == len(text) + 1
        assert sink[0].span.end == len(text) + 1
        _assert_same(text)
        _assert_same(text, max_tokens=3)


@pytest.fixture
def charge_calls(monkeypatch):
    """Every ``LimitTracker.charge`` call as ``(kind, amount)``."""
    calls = []
    charge = LimitTracker.charge

    def counting_charge(self, kind, amount=1):
        calls.append((kind, amount))
        return charge(self, kind, amount)

    monkeypatch.setattr(LimitTracker, "charge", counting_charge)
    return calls


class TestWorkCounts:
    """Deterministic gates on the work the lexer does, counted by call
    rather than timed."""

    def test_one_budget_charge_per_tokenize(self, charge_calls):
        tracker = LimitTracker()
        tokens = Lexer(SourceFile("t.v", REFERENCES[0]), [], tracker=tracker).tokenize()
        assert charge_calls == [("tokens", len(tokens))]
        assert tracker.spent["tokens"] == len(tokens)

    def test_overflow_charges_once_and_reports_once(self, charge_calls):
        tracker = LimitTracker(ResourceLimits(max_tokens=5))
        sink = []
        tokens = Lexer(SourceFile("t.v", REFERENCES[0]), sink, tracker=tracker).tokenize()
        assert charge_calls == [("tokens", 6)]
        assert len(tokens) == 6 and tokens[-1].kind is TokenKind.EOF
        assert [d.category for d in sink] == [ErrorCategory.RESOURCE_LIMIT]
        assert sink[0].span.start == tokens[-2].span.end


class TestLineIndex:
    """``SourceFile``'s ``str.find`` line index against a reference
    ``enumerate`` scan."""

    @staticmethod
    def _reference_starts(text):
        return [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    @staticmethod
    def _reference_line_col(starts, text, offset):
        offset = max(0, min(offset, len(text)))
        line = max(i for i, s in enumerate(starts) if s <= offset)
        return line + 1, offset - starts[line] + 1

    def _check(self, text):
        source = SourceFile("t.v", text)
        starts = self._reference_starts(text)
        assert source.num_lines == len(starts)
        for offset in range(-1, len(text) + 2):
            assert source.line_col(offset) == self._reference_line_col(
                starts, text, offset
            )
        lines = text.split("\n")
        for line in range(0, len(starts) + 2):
            expected = lines[line - 1] if 1 <= line <= len(starts) else ""
            assert source.line_text(line) == expected

    def test_edge_texts(self):
        for text in ("", "\n", "\n\n", "a", "a\n", "a\r\nb\r\n", "\r\n", "ab\ncd"):
            self._check(text)

    def test_random_texts(self):
        rng = random.Random(5)
        for _ in range(300):
            text = "".join(
                rng.choice(("a", "bc", " ", "\n", "\r\n", "\r", "\t", "\u00e9"))
                for _ in range(rng.randint(0, 40))
            )
            self._check(text)
            self._check(text + "\n")
