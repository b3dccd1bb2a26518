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

The readers of ``tagmodel`` and ``statechart`` build their patterns from the
pieces here (the skip that ``skip_for`` picks, ``_ID``, ``_STRING_BODY``).
``placer`` is the one offset-to-(line, col) counter, used by ``tokenize``,
both readers and ``read_source``; ``is_identifier`` and ``unescape_string``
are the one identifier rule and the one string decoder.
"""

from __future__ import annotations

import codecs
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

    One leading byte-order mark is dropped, as by ``utf-8-sig``; positions count from
    after it.  A byte sequence that is not UTF-8 raises :class:`ParseError` at its
    line and column: the file is unusable input, not a crash.
    """

    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        raise ParseError(f"not UTF-8 text: cannot decode byte 0x{data[exc.start]:02x}",
                         *placer(before)(len(before)), str(path)) from None
    return _universal_newlines(text)


def _universal_newlines(text: str) -> str:
    # What reading the file in text mode would give: ``\r\n`` and ``\r`` end lines.
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# Whitespace and comments.  A backtracking pattern that gives back part of
# it stops at whitespace or at a ``/``, where no token starts, or inside a
# ``//`` comment, which the lookahead forbids: so it has one extent wherever
# a token follows, and a pattern built on it reads the tokens ``tokenize``
# reads.  Whitespace runs are not repeated inside the loop, which would make
# a failing match try every split of a run.
_SKIP = r"[ \t\r\n]*(?:(?://[^\n]*(?![^\n])|/\*[^*]*\*+(?:[^*/][^*]*\*+)*/)[ \t\r\n]*)*"
# What ``_SKIP`` matches in text with no ``/``, where no comment can start.
_BLANKS = r"[ \t\r\n]*"

# One match skips whitespace and comments, then reads at most one token.
# The token group is optional, so a match never fails and never backtracks
# into the skipped part; where no token follows, ``tokenize`` is at the end
# of input or at an error.  The string and block-comment bodies are unrolled
# loops, so a missing closing quote or ``*/`` costs one pass over the rest
# of the text.  ``\w`` is exactly ``str.isalnum()`` or ``_``; an identifier
# must also start with a letter or ``_``, which ``is_identifier`` checks.
_STRING_BODY = r'[^"\\\n]*(?:\\["\\][^"\\\n]*)*'  # one line; only \" and \\ escapes
_SCAN = re.compile(
    r"""
    (?:%s)
    (?:
        (\w+)                          # 1: identifier
      | "(%s)"                         # 2: string body
      | (->|\.\.\.|[{};,=:.|+*?()\]])  # 3: punctuation
      | (\[)                           # 4: '[', raw capture or punctuation
    )?
    """
    % (_SKIP, _STRING_BODY),
    re.VERBOSE,
)
# An identifier whose first letter is ASCII, for the readers of ``tagmodel``
# and ``statechart``: they leave any other to the token parser.
_ID = r"[A-Za-z_]\w*\b"
_STRING_PREFIX = re.compile('"' + _STRING_BODY)
_UNSKIP = re.compile(_SKIP).sub
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


def skip_for(text: str) -> str:
    """The skip piece a reader of ``text`` builds on: ``_BLANKS`` if no comment can start in it.

    Both comment forms start with ``/``.  A pattern over ``_BLANKS`` compiles in
    a fraction of the time of one over ``_SKIP``, and matches a little faster.
    """

    return _SKIP if "/" in text else _BLANKS


def dotted(name: str) -> tuple[str, ...]:
    """The parts of a name that a reader matched as ``_ID`` joined by ``.``, with skips between."""

    return tuple(_UNSKIP("", name).split(".")) if "." in name else (name,)


def placer(text: str, start: Token | None = None):
    """(line, col) of offsets of ``text`` from ``start`` on, each placed at or past the last.

    Without ``start``, offsets count from the start of the text.
    """

    count, rindex = text.count, text.rindex
    line, line_start, seen = (1, 0, 0) if start is None else (
        start.line, start.start - start.col + 1, start.start)

    def place(offset: int) -> tuple[int, int]:
        nonlocal line, line_start, seen
        newlines = count("\n", seen, offset)
        if newlines:
            line += newlines
            line_start = rindex("\n", seen, offset) + 1
        seen = offset
        return line, offset - line_start + 1

    return place


def tokenize(text: str, *, raw_brackets: bool, filename: str | None = None) -> list[Token]:
    """Split ``text`` into tokens, ending with a single EOF token."""

    tokens: list[Token] = []
    new = tuple.__new__  # ``Token(...)`` without its Python-level ``__new__``: a tenth of the time
    place = placer(text)
    pos = 0
    while True:
        m = _SCAN.match(text, pos)
        group, pos = m.lastindex, m.end()
        start = pos if group is None else m.start(group)
        if group == 2:  # ``start`` is one past the opening quote
            value = unescape_string(m[2])
            tokens.append(new(Token, (STRING, value, *place(start - 1), start - 1, pos)))
        elif group == 4 and raw_brackets:
            where, depth = place(start), 1
            while depth:
                found = _BRACKETS.search(text, pos)
                if found is None:
                    raise ParseError("unterminated '[' expression", *where, filename)
                pos = found.end()
                depth += 1 if found.group() == "[" else -1
            tokens.append(new(Token, (BRACKET, text[start + 1 : pos - 1], *where, start, pos)))
        elif group is not None:
            value = m[group]
            if group == 1 and not is_identifier(value):
                raise ParseError(f"unexpected character {value[0]!r}", *place(start), filename)
            tokens.append(new(Token, (IDENT if group == 1 else value, value, *place(start), start, pos)))
        elif pos == len(text):
            tokens.append(Token(EOF, "", *place(pos), pos, pos))
            return tokens
        elif text.startswith("/*", pos):
            raise ParseError("unterminated block comment", *place(pos), filename)
        elif text[pos] == '"':
            stop = _STRING_PREFIX.match(text, pos).end()
            if stop < len(text) and text[stop] == "\\":
                raise ParseError("unsupported escape sequence (only \\\" and \\\\ are allowed)",
                                 *place(stop), filename)
            raise ParseError("unterminated string literal", *place(pos), filename)
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", *place(pos), filename)


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

    # The stream ends with EOF and nothing moves past it, so ``self._pos``
    # always indexes a token.

    def peek(self, ahead: int = 0) -> Token:
        """The current token, or the one ``ahead`` places on (EOF past the end)."""

        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == kind and (value is None or tok.value == value)

    def at_keyword(self, word: str) -> bool:
        return self.at(IDENT, word)

    def match(self, kind: str, value: str | None = None) -> Token | None:
        return self.advance() if self.at(kind, value) else None

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            want = f"'{value}'" if value is not None else _describe_kind(kind)
            raise self.error(f"expected {want}, found {_string_repr(self.peek())}")
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

    def package(self) -> str:
        """Parse ``package a.b;`` and return ``"a.b"``."""

        self.expect_keyword("package")
        parts, _ = self.qualified_name()
        self.expect(";")
        return ".".join(parts)

    def separated(self, read, *args, sep: str = ",") -> list:
        """Call ``read(self, *args)`` once, then once more after each ``sep``; return the list."""

        items = [read(self, *args)]
        while self.match(sep):
            items.append(read(self, *args))
        return items

    def expect_after_list(self, words: tuple[str, ...], kind: str, value: str | None = None) -> Token:
        """``expect(kind, value)``, naming the ``,`` of a list that ran on into one of ``words``."""

        try:
            return self.expect(kind, value)
        except ParseError:
            comma, last = self._tokens[self._pos - 2], self._tokens[self._pos - 1]
            if comma.kind == "," and last.kind == IDENT and last.value in words:
                raise self.error(f"stray ',' before '{last.value}'", comma) from None
            raise


def _describe_kind(kind: str) -> str:
    if kind == IDENT:
        return "an identifier"
    if kind == STRING:
        return "a string literal"
    if kind == BRACKET:
        return "a '[...]' expression"
    return f"'{kind}'"
