"""The shared tokenizer and token cursor: agreement with a character-loop oracle, on random
text and on the samples and workload files, positions, the position counter, linear time, and
the cursor's moves and messages."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagweaver import parse_statechart, parse_tag_model, parse_tag_schema
from tagweaver.errors import ParseError
from tagweaver.parsing import (
    BRACKET, EOF, IDENT, STRING, Token, TokenCursor, is_identifier, placer, read_source, tokenize,
)

from test_statement_reader import WORKLOADS
from util import load_workloads, oracle_tokenize

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


class TestReadSource:
    @pytest.mark.parametrize(
        "data", [b"a\nb\n", b"a\r\nb\r\n", b"a\rb\r", b"\r\r\n\n\r", "caf\u00e9\r\n".encode()]
    )
    def test_reads_like_text_mode(self, tmp_path, data):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        assert read_source(path) == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "data, line, col, byte",
        [
            (b"\xff", 1, 1, "0xff"),
            (b"a\r\nb\rc\n\xc3\xa9\xe2\x82", 4, 2, "0xe2"),  # truncated at the end
            (b"x = \"\xc3\xa9\x80\"", 1, 7, "0x80"),  # a stray continuation byte
        ],
    )
    def test_undecodable_bytes_raise_at_their_position(self, tmp_path, data, line, col, byte):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read_source(path)
        err = info.value
        assert (err.filename, err.line, err.col) == (str(path), line, col)
        assert err.message == f"not UTF-8 text: cannot decode byte {byte}"


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


# One token of each kind: (kind, value, line, col) and how a message names it.
_CURSOR_TEXT = 'state "s"\n  [a > b] { -> ...'
_FOUND = [
    (IDENT, "state", 1, 1, "'state'"),
    (STRING, "s", 1, 7, "string literal"),
    (BRACKET, "a > b", 2, 3, "'[a > b]'"),
    ("{", "{", 2, 11, "'{'"),
    ("->", "->", 2, 13, "'->'"),
    ("...", "...", 2, 16, "'...'"),
    (EOF, "", 2, 19, "end of input"),
]
# What ``expect`` is asked for, and how its message names it.
_WANTED = [
    ((IDENT,), "an identifier"),
    ((IDENT, "other"), "'other'"),
    ((STRING,), "a string literal"),
    ((BRACKET,), "a '[...]' expression"),
    (("{",), "'{'"),
    (("->",), "'->'"),
    (("[",), "'['"),
    ((EOF,), "'eof'"),
]
_MISMATCHES = [
    (index, wanted, want)
    for index, (kind, value, *_) in enumerate(_FOUND)
    for wanted, want in _WANTED
    if not (wanted[0] == kind and wanted[1:] in ((), (value,)))
]


class TestTokenCursor:
    def _cursor(self, skip: int = 0) -> TokenCursor:
        cur = TokenCursor(tokenize(_CURSOR_TEXT, raw_brackets=True), "f.sc")
        for _ in range(skip):
            cur.advance()
        return cur

    def test_the_stream_holds_one_token_of_each_kind(self):
        assert [tok[:4] for tok in tokenize(_CURSOR_TEXT, raw_brackets=True)] == [
            found[:4] for found in _FOUND
        ]

    @pytest.mark.parametrize("index, wanted, want", _MISMATCHES)
    def test_expect_names_both_tokens_at_the_found_one(self, index, wanted, want):
        kind, value, line, col, found = _FOUND[index]
        cur = self._cursor(index)
        with pytest.raises(ParseError) as info:
            cur.expect(*wanted)
        err = info.value
        assert (err.message, err.line, err.col, err.filename) == (
            f"expected {want}, found {found}", line, col, "f.sc"
        )
        assert cur.peek()[:4] == (kind, value, line, col)

    @pytest.mark.parametrize("index", range(len(_FOUND) - 1))
    def test_a_match_returns_the_token_and_moves_one_on(self, index):
        kind, value = _FOUND[index][:2]
        for wanted in [(kind,), (kind, value)]:
            for move in ("match", "expect"):
                cur = self._cursor(index)
                assert getattr(cur, move)(*wanted)[:2] == (kind, value)
                assert cur.peek()[:2] == _FOUND[index + 1][:2]

    @pytest.mark.parametrize("index", range(len(_FOUND)))
    def test_at_and_match_with_and_without_a_value(self, index):
        kind, value = _FOUND[index][:2]
        cur = self._cursor(index)
        assert cur.at(kind) and cur.at(kind, value)
        assert not cur.at(kind, value + "x")
        assert not cur.at("}") and not cur.at("}", "}")
        assert cur.match(kind, value + "x") is None
        assert cur.match("}") is None
        assert cur.peek()[:2] == (kind, value)
        assert cur.at_keyword("state") is (index == 0)

    def test_nothing_moves_past_eof(self):
        cur = self._cursor(len(_FOUND) - 1)
        eof = cur.peek()
        assert eof.kind == EOF
        assert cur.advance() is eof and cur.advance() is eof
        assert cur.match(EOF) is eof and cur.match(EOF, "") is eof
        assert cur.expect(EOF) is eof and cur.expect(EOF, "") is eof
        assert cur.peek() is eof and cur.at(EOF)

    @pytest.mark.parametrize("index", range(len(_FOUND)))
    def test_peek_looks_ahead_without_moving_and_stops_at_eof(self, index):
        cur = self._cursor(index)
        for ahead in range(len(_FOUND) + 2):
            assert cur.peek(ahead)[:2] == _FOUND[min(index + ahead, len(_FOUND) - 1)][:2]
        assert cur.peek()[:2] == _FOUND[index][:2]

    def test_expect_keyword_and_error_at_the_current_token(self):
        cur = self._cursor()
        assert cur.expect_keyword("state").value == "state"
        with pytest.raises(ParseError, match="^f.sc:1:7: expected 'state', found string literal$"):
            cur.expect_keyword("state")
        err = cur.error("boom")
        assert (err.message, err.line, err.col, err.filename) == ("boom", 1, 7, "f.sc")

    def test_punctuation_bracket_is_named_by_its_spelling(self):
        cur = TokenCursor(tokenize("x [", raw_brackets=False))
        cur.advance()
        with pytest.raises(ParseError, match=r"^<input>:1:3: expected an identifier, found '\['$"):
            cur.expect(IDENT)


class TestSharedReaders:
    """``package()`` and ``separated()``: what they read, and where they stop."""

    @staticmethod
    def _cursor(text: str, raw_brackets: bool = True) -> TokenCursor:
        return TokenCursor(tokenize(text, raw_brackets=raw_brackets), "f")

    def test_package_returns_the_dotted_name_and_stops_after_the_semicolon(self):
        cur = self._cursor("package a.b.c; tags")
        assert cur.package() == "a.b.c"
        assert cur.peek()[:2] == (IDENT, "tags")

    @pytest.mark.parametrize("text, read, args, sep, values, after", [
        ("a, b, c;", TokenCursor.expect, (IDENT,), ",", ["a", "b", "c"], ";"),
        ('"x"|"y"]', TokenCursor.expect, (STRING,), "|", ["x", "y"], "]"),
        ("a;", TokenCursor.expect, (IDENT,), ",", ["a"], ";"),
        ('"x", "y"]', TokenCursor.expect, (STRING,), "|", ["x"], ","),
    ])
    def test_separated_reads_one_item_then_one_after_each_separator(
        self, text, read, args, sep, values, after
    ):
        cur = self._cursor(text, raw_brackets=False)
        assert [tok.value for tok in cur.separated(read, *args, sep=sep)] == values
        assert cur.peek().kind == after

    def test_separated_passes_the_cursor_and_its_arguments_to_the_reader(self):
        cur = self._cursor("a.b, c with")
        names = cur.separated(TokenCursor.qualified_name)
        assert [parts for parts, _ in names] == [("a", "b"), ("c",)]
        assert [(first.line, first.col) for _, first in names] == [(1, 1), (1, 6)]
        assert cur.at_keyword("with")

    def test_a_keyword_after_a_trailing_separator_is_read_as_an_item(self):
        cur = self._cursor("A, with M;")
        assert [parts for parts, _ in cur.separated(TokenCursor.qualified_name)] == [
            ("A",), ("with",)
        ]
        with pytest.raises(ParseError) as info:
            cur.expect_after_list(("with",), IDENT, "with")
        err = info.value
        assert (err.message, err.line, err.col) == ("stray ',' before 'with'", 1, 2)

    def test_a_keyword_read_as_the_last_item_stays_a_name(self):
        cur = self._cursor("A, with with M;")
        assert [parts for parts, _ in cur.separated(TokenCursor.qualified_name)] == [
            ("A",), ("with",)
        ]
        assert cur.expect_after_list(("with",), IDENT, "with").col == 9
        cur = self._cursor("A, B M;")
        cur.separated(TokenCursor.qualified_name)
        with pytest.raises(ParseError, match="expected 'with', found 'M'$"):
            cur.expect_after_list(("with",), IDENT, "with")

    @pytest.mark.parametrize("text, args, sep, message, col", [
        ("State, ;", (IDENT,), ",", "expected an identifier, found ';'", 8),
        ('"a"|]', (STRING,), "|", "expected a string literal, found ']'", 5),
    ])
    def test_a_trailing_separator_is_an_error_at_the_token_after_it(
        self, text, args, sep, message, col
    ):
        cur = self._cursor(text, raw_brackets=False)
        with pytest.raises(ParseError) as info:
            cur.separated(TokenCursor.expect, *args, sep=sep)
        err = info.value
        assert (err.message, err.line, err.col, err.filename) == (message, 1, col, "f")


# Where each parser reads the shared syntax, a package header or a
# separated list, and the message a wrong token there draws.
_TAGS = "package p;\nconforms to s.S;\ntags T for M {\n%s\n}\n"
_SCHEMA = "package p;\ntagschema S {\n%s\n}\n"
_SHARED_SYNTAX_ERRORS = [
    # package headers, in each language
    ("sc", "pkg a;\nstatechart M {}\n", "expected 'package', found 'pkg'", 1, 1),
    ("sc", "package ;\nstatechart M {}\n", "expected an identifier, found ';'", 1, 9),
    ("sc", "package a.;\nstatechart M {}\n", "expected an identifier, found ';'", 1, 11),
    ("sc", "package a.b\nstatechart M {}\n", "expected ';', found 'statechart'", 2, 1),
    ("tag", "package a.b\nconforms to s.S;\n", "expected ';', found 'conforms'", 2, 1),
    ("schema", "tagschema S {}\n", "expected 'package', found 'tagschema'", 1, 1),
    ("schema", "package a b;\n", "expected ';', found 'b'", 1, 11),
    # a trailing separator, in each list
    ("tag", "package p;\nconforms to s.S, ;\ntags T for M {\n}\n",
     "expected an identifier, found ';'", 2, 18),
    ("tag", "package p;\nconforms to s.S,\ntags T for M {\n}\n", "stray ',' before 'tags'", 2, 16),
    ("tag", _TAGS % "tag A, with M;", "stray ',' before 'with'", 4, 6),
    ("tag", _TAGS % "tag A, ;", "expected an identifier, found ';'", 4, 8),
    ("tag", _TAGS % "tag A with M, ;", "expected an identifier, found ';'", 4, 15),
    ("tag", _TAGS % 'tag A with M { a = "x", ; };', "expected an identifier, found ';'", 4, 25),
    ("tag", _TAGS % 'tag A with M { a = "x", };', "expected an identifier, found '}'", 4, 25),
    ("schema", _SCHEMA % "tagtype A for State, ;", "expected an identifier, found ';'", 3, 22),
    ("schema", _SCHEMA % 'tagtype A:["a"|] ;', "expected a string literal, found ']'", 3, 16),
    ("schema", _SCHEMA % 'tagtype A:["a"|"b"|] ;', "expected a string literal, found ']'", 3, 20),
    ("schema", _SCHEMA % "tagtype A { a:String, ; }", "expected an identifier, found ';'", 3, 23),
    ("schema", _SCHEMA % "tagtype A { a:String, }", "expected an identifier, found '}'", 3, 23),
]


@pytest.mark.parametrize("language, text, message, line, col", _SHARED_SYNTAX_ERRORS)
def test_shared_syntax_errors_through_each_parser(profile, language, text, message, line, col):
    with pytest.raises(ParseError) as info:
        if language == "sc":
            parse_statechart(text, "f")
        elif language == "tag":
            parse_tag_model(text, profile, "f")
        else:
            parse_tag_schema(text, profile, "f")
    err = info.value
    assert (err.message, err.line, err.col, err.filename) == (message, line, col, "f")


@pytest.mark.parametrize("body, message, line, col", [
    ("tag A with M,\ntag B with N;", "stray ',' before 'tag'", 4, 13),
    ("tag A with M,\nwithin B { }", "stray ',' before 'within'", 4, 13),
])
def test_a_comma_before_a_keyword_is_named_where_the_list_runs_on(profile, body, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_tag_model(_TAGS % body, profile, "f")
    err = info.value
    assert (err.message, err.line, err.col) == (message, line, col)


@pytest.mark.parametrize("body, elements, tags", [
    ("tag A with M, tag;", [("A",)], ["M", "tag"]),
    ("tag with with within;", [("with",)], ["within"]),
])
def test_the_keywords_after_a_list_stay_names(profile, body, elements, tags):
    statement, = parse_tag_model(_TAGS % body, profile, "f").body
    assert [ref.path for ref in statement.element_refs] == elements
    assert [tag.name for tag in statement.tag_refs] == tags


def _naive_place(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# Line ends, carriage returns, tabs and letters of one and of several UTF-8 bytes.
_placer_texts = st.text(st.sampled_from("\n\r\t ab\u00e9\u00df\u03a9\u20ac"), max_size=40)


@st.composite
def _text_and_offsets(draw):
    text = draw(_placer_texts)
    offsets = draw(st.lists(st.integers(0, len(text)), max_size=12))
    return text, sorted(offsets + [len(text)])


class TestPlacer:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=_text_and_offsets())
    def test_from_the_start_of_the_text(self, case):
        text, offsets = case
        place = placer(text)
        assert [place(off) for off in offsets] == [_naive_place(text, off) for off in offsets]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(case=_text_and_offsets(), data=st.data())
    def test_from_a_start_token_in_the_middle(self, case, data):
        text, offsets = case
        first = data.draw(st.integers(0, len(text)))
        start = Token(IDENT, "x", *_naive_place(text, first), first, first)
        place = placer(text, start)
        later = [off for off in offsets if off >= first]
        assert [place(off) for off in later] == [_naive_place(text, off) for off in later]


def _assert_tokenizes_as_the_oracle_does(path):
    # A schema reads ``[`` as punctuation; every other file kind as a ``[...]`` capture.
    raw_brackets = path.suffix != ".tagschema"
    text = read_source(path)
    tokens = _lex(tokenize, text, raw_brackets)
    assert tokens == _lex(oracle_tokenize, text, raw_brackets)
    # A manifest has a line scanner of its own; every other file is made of tokens.
    assert path.suffix == ".glang" or tokens[-1][0] == EOF


def test_the_samples_tokenize_as_the_oracle_does(samples_dir):
    for path in sorted(samples_dir.glob("*")):
        if path.suffix != ".json":  # not a profile that ``derive`` wrote there
            _assert_tokenizes_as_the_oracle_does(path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_workload_files_tokenize_as_the_oracle_does(tmp_path, workload):
    generated = load_workloads().generate(workload, 4242, tmp_path, quick=True)
    for path in [generated.manifest, generated.model, generated.schema, *generated.tag_files]:
        _assert_tokenizes_as_the_oracle_does(path)
