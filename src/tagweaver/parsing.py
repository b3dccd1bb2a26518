"""Tokenizer and token-cursor helpers shared by the model-language parsers.

The statechart, tag-model, and tag-schema languages share one lexical
vocabulary: identifiers, double-quoted strings, punctuation, ``//`` and
``/* */`` comments.  They differ in how square brackets behave:

* statechart and tag-model files use ``[...]`` as opaque text (invariant
  expressions, bracketed element identifiers), captured verbatim as a
  single token with nesting allowed;
* tag-schema files use ``[`` and ``]`` as ordinary punctuation around
  enumeration domains.

``tokenize`` takes a ``raw_brackets`` flag to select between the two.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# Token kinds.  Punctuation tokens use their own spelling as the kind so
# parsers can write expect("{") and friends.
IDENT = "ident"
STRING = "string"
BRACKET = "bracket"  # raw [...] capture, value is the inner text
ELLIPSIS = "..."
ARROW = "->"
EOF = "eof"

# How deep ``{ ... }`` blocks may nest: state bodies, ``within`` blocks and
# complex values, counted together per file.  The deepest recursion past the
# parsers, the export of a complex value, takes about six frames per level,
# so a parsed file stays well inside Python's default limit of 1000 frames.
MAX_NESTING = 100


class Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int
    start: int = 0  # character offset of the first character
    end: int = 0  # character offset one past the last character


def _string_repr(tok: Token) -> str:
    if tok.kind == EOF:
        return "end of input"
    if tok.kind == STRING:
        return "string literal"
    if tok.kind == BRACKET:
        return f"'[{tok.value}]'"
    return f"'{tok.value}'"


# ---------------------------------------------------------------------------
# Source files
# ---------------------------------------------------------------------------


def read_source(path: Path) -> str:
    """The text of a UTF-8 source file, its newlines read as ``\\n``.

    A byte sequence that is not UTF-8 raises :class:`ParseError` at its
    line and column: the file is unusable input, not a crash.
    """

    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        raise ParseError(
            f"not UTF-8 text: cannot decode byte 0x{data[exc.start]:02x}",
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
            str(path),
        ) from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    # What reading the file in text mode would give: ``\r\n`` and ``\r`` end lines.
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# One match skips whitespace and comments, then reads at most one token.
# The token group is optional, so a match never fails and never backtracks
# into the skipped part; where no token follows, ``tokenize`` takes its
# slow path (end of input, a ``[...]`` capture, or an error).  The string
# and block-comment bodies are unrolled loops, so a missing closing quote
# or ``*/`` costs one pass over the rest of the text.  ``\w`` is exactly
# ``str.isalnum()`` or ``_``; an identifier must also start with a letter
# or ``_``, which ``tokenize`` checks.
_STRING_BODY = r'[^"\\\n]*(?:\\["\\][^"\\\n]*)*'  # one line; only \" and \\ escapes
_SCAN = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*[^*]*\*+(?:[^*/][^*]*\*+)*/ )*
    (?:
        (\w+)                          # 1: identifier
      | "(%s)"                         # 2: string body
      | (->|\.\.\.|[{};,=:.|+*?()\]])  # 3: punctuation
      | (\[)                           # 4: '[', raw capture or punctuation
    )?
    """
    % _STRING_BODY,
    re.VERBOSE,
)
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_WORD = re.compile(r"\w+")
_UNESCAPE = re.compile(r'\\(["\\])')
_BRACKETS = re.compile(r"[\[\]]")


def escape_string(text: str) -> str:
    """Escape a string for inclusion in double quotes; :func:`unescape_string` undoes it."""

    return text.replace("\\", "\\\\").replace('"', '\\"')


def unescape_string(body: str) -> str:
    """The text of a quoted string's body: ``\\"`` and ``\\\\`` stand for ``"`` and ``\\``."""

    return _UNESCAPE.sub(r"\1", body)


def is_identifier(text: str) -> bool:
    """The identifier rule of ``tokenize``: word characters, the first a letter or ``_``."""

    return _WORD.fullmatch(text) is not None and (text[0].isalpha() or text[0] == "_")


def tokenize(text: str, *, raw_brackets: bool, filename: str | None = None) -> list[Token]:
    """Split ``text`` into tokens, ending with a single EOF token."""

    tokens: list[Token] = []
    append = tokens.append
    scan = _SCAN.match
    count = text.count
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``

    while True:
        m = scan(text, pos)
        group = m.lastindex
        start = m.end() if group is None else m.start(group)
        if start != pos:
            newlines = count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, start) + 1
        pos = m.end()

        if group == 1:
            value = m.group(1)
            if not (value[0].isalpha() or value[0] == "_"):
                raise ParseError(f"unexpected character {value[0]!r}", line,
                                 start - line_start + 1, filename)
            append(Token(IDENT, value, line, start - line_start + 1, start, pos))
        elif group == 3:
            value = m.group(3)
            append(Token(value, value, line, start - line_start + 1, start, pos))
        elif group == 2:  # ``start`` is one past the opening quote
            value = m.group(2)
            if "\\" in value:
                value = _UNESCAPE.sub(r"\1", value)
            append(Token(STRING, value, line, start - line_start, start - 1, pos))
        elif group == 4 and not raw_brackets:
            append(Token("[", "[", line, start - line_start + 1, start, pos))
        elif group == 4:
            depth = 1
            while depth:
                found = _BRACKETS.search(text, pos)
                if found is None:
                    raise ParseError("unterminated '[' expression", line,
                                     start - line_start + 1, filename)
                pos = found.end()
                depth += 1 if found.group() == "[" else -1
            append(Token(BRACKET, text[start + 1 : pos - 1], line, start - line_start + 1, start, pos))
            newlines = count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, pos) + 1
        elif pos == len(text):
            append(Token(EOF, "", line, pos - line_start + 1, pos, pos))
            return tokens
        elif text.startswith("/*", pos):
            raise ParseError("unterminated block comment", line, pos - line_start + 1, filename)
        elif text[pos] == '"':
            stop = _STRING_PREFIX.match(text, pos).end()
            if stop < len(text) and text[stop] == "\\":
                raise ParseError(
                    "unsupported escape sequence (only \\\" and \\\\ are allowed)",
                    line,
                    stop - line_start + 1,
                    filename,
                )
            raise ParseError("unterminated string literal", line, pos - line_start + 1, filename)
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", line,
                             pos - line_start + 1, filename)


# ---------------------------------------------------------------------------
# Cursor
# ---------------------------------------------------------------------------


class TokenCursor:
    """A position in a token stream with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token], filename: str | None = None):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0
        self.filename = filename

    # -- primitives ---------------------------------------------------------

    # The stream ends with EOF and advance() never moves past it, so
    # ``self._pos`` always indexes a token.

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        if tok.kind != kind:
            return False
        return value is None or tok.value == value

    def at_keyword(self, word: str) -> bool:
        return self.at(IDENT, word)

    def match(self, kind: str, value: str | None = None) -> Token | None:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.at(kind, value):
            want = f"'{value}'" if value is not None else _describe_kind(kind)
            raise self.error(f"expected {want}, found {_string_repr(tok)}", tok)
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        return self.expect(IDENT, word)

    def enter(self, brace: Token) -> None:
        """Open one nested block at ``brace``, up to ``MAX_NESTING`` deep."""

        self._depth += 1
        if self._depth > MAX_NESTING:
            raise self.error(f"blocks nest deeper than {MAX_NESTING} levels", brace)

    def leave(self) -> None:
        self._depth -= 1

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok if tok is not None else self.peek()
        return ParseError(message, tok.line, tok.col, self.filename)

    # -- compound forms -------------------------------------------------------

    def qualified_name(self) -> tuple[tuple[str, ...], Token]:
        """Parse ``ident (. ident)*`` and return (segments, first token)."""

        first = self.expect(IDENT)
        parts = [first.value]
        while self.at("."):
            self.advance()
            parts.append(self.expect(IDENT).value)
        return tuple(parts), first


def _describe_kind(kind: str) -> str:
    if kind == IDENT:
        return "an identifier"
    if kind == STRING:
        return "a string literal"
    if kind == BRACKET:
        return "a '[...]' expression"
    return f"'{kind}'"
