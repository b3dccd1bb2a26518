"""The shared tokenizer: agreement with a character-loop oracle, positions, linear time."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagweaver import parse_statechart
from tagweaver.errors import ParseError
from tagweaver.parsing import IDENT, is_identifier, tokenize

from util import oracle_tokenize

# Pieces that tokenize on their own in both bracket modes.
_CLEAN = [
    # identifiers, including non-ASCII letters and digit suffixes
    "a", "state", "_x1", "Zeta9", "é", "naïve", "Straße", "a²", "x_²",
    # strings
    '"plain"', '""', '"q\\"uote"', '"back\\\\slash"', '"\\\\\\""',
    # comments
    "// line\n", "/* block */", "/* multi\nline */", "/**/", "/***/", "/* a * b **/",
    # brackets
    "[a > b]", "[x [y] z]", "[outer\n[inner]\n]", "[]", "]",
    # punctuation
    "...", "..", "->", ".", "{", "}", ";", ",", "=", ":", "|", "+", "*", "?", "(", ")",
    # whitespace
    " ", "  ", "\t", "\r", "\n", "\r\n",
]

# Pieces that end the token stream with an error in at least one mode, or
# change how what follows them is read.
_TROUBLE = [
    "²", "1", "42abc", "-", "/", "@", "#", "\\", "\f", "\x00", "\u00a0", "€",
    '"bad\\q"', '"\\', '"a\nb"', '"open', '"tail\\',
    "// trailing", "/* open", "/*/", "/* half *",
    "[", "[[", "[open\n",
]

_pieces = st.lists(st.sampled_from(_CLEAN), max_size=12).map("".join)
_inputs = st.one_of(
    _pieces,
    st.tuples(_pieces, st.sampled_from(_TROUBLE), _pieces).map("".join),
    st.lists(st.sampled_from(_CLEAN + _TROUBLE), max_size=12).map("".join),
)


def _lex(tokenizer, text: str, raw_brackets: bool):
    try:
        return [tuple(tok) for tok in tokenizer(text, raw_brackets=raw_brackets)]
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


class TestAgainstOracle:
    @pytest.mark.parametrize("raw_brackets", [True, False])
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(text=_inputs)
    def test_same_tokens_or_same_error(self, raw_brackets, text):
        assert _lex(tokenize, text, raw_brackets) == _lex(oracle_tokenize, text, raw_brackets)

    @pytest.mark.parametrize(
        "text",
        [
            "state A;\n  [x > 1]; // done\n",
            'tag A with Note = "say \\"hi\\" \\\\ bye";',
            "/* a\nb */ [p\n[q]\nr] -> ... x",
            "a²;",
            "\r\n\tb",
        ],
    )
    @pytest.mark.parametrize("raw_brackets", [True, False])
    def test_hand_picked_inputs(self, text, raw_brackets):
        assert _lex(tokenize, text, raw_brackets) == _lex(oracle_tokenize, text, raw_brackets)


class TestIsIdentifier:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(text=st.text(alphabet="aZ_09é²١ß.- ", max_size=5))
    def test_agrees_with_the_tokenizer(self, text):
        try:
            tokens = tokenize(text, raw_brackets=True)
        except ParseError:
            tokens = []
        whole = [(tok.kind, tok.value) for tok in tokens[:-1]] == [(IDENT, text)]
        assert is_identifier(text) is whole


class TestPositions:
    def test_eof_after_trailing_line_comment(self):
        eof = tokenize("a // xyz", raw_brackets=True)[-1]
        assert (eof.kind, eof.line, eof.col, eof.start) == ("eof", 1, 9, 8)

    def test_end_of_input_error_after_trailing_comment_points_past_it(self):
        with pytest.raises(ParseError) as info:
            parse_statechart("package p;\nstatechart A { // open")
        assert "end of input" in info.value.message
        assert (info.value.line, info.value.col) == (2, 23)

    def test_superscript_digit_cannot_start_an_identifier(self):
        with pytest.raises(ParseError) as info:
            tokenize("a ²", raw_brackets=True)
        assert (info.value.message, info.value.line, info.value.col) == (
            "unexpected character '²'", 1, 3
        )


class TestLinearTime:
    @pytest.mark.parametrize(
        "text, raw_brackets, error",
        [
            ("[" * 100_000 + "]" * 100_000, True, None),
            ("[" * 100_000, True, "unterminated '[' expression"),
            ("/*" + "x" * 1_000_000, True, "unterminated block comment"),
            ("/*" + "*" * 1_000_000, False, "unterminated block comment"),
            ("/*" + " *x" * 350_000, True, "unterminated block comment"),
            ('"' + "a" * 1_000_000, True, "unterminated string literal"),
            (" " * 200_000 + "@", True, "unexpected character '@'"),
            ("// x " * 200_000 + "@", False, None),
        ],
    )
    def test_large_input_finishes_quickly(self, text, raw_brackets, error):
        began = time.perf_counter()
        try:
            tokenize(text, raw_brackets=raw_brackets)
            outcome = None
        except ParseError as exc:
            outcome = exc.message
        assert time.perf_counter() - began < 2.0
        assert outcome == error
