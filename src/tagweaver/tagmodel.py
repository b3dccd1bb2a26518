"""Parser for tag models (``.tag`` files).

A tag model attaches extra information to elements of a separate DSL model
without touching that model's file::

    package mobile;
    conforms to loggingschema.StatechartTagSchema;

    tags StatechartTags for Mobile {
        tag Mobile with Method = "App.call()";
        within Active {
            tag Call, Busy with Monitored;
        }
        tag ConnectionProblems with Exception {
            type = "NetworkException",
            msg = "Problems connecting to the mobile network!";
        };
    }

The body is a sequence of ``within`` contexts (which nest arbitrarily and
prefix inner element references) and tag statements.  One statement may
tag several elements with several tags at once; it means exactly the same
as the corresponding single-element, single-tag statements.

Element references are either dotted qualified names or — when the
language profile of the target DSL declares bracketed identifier forms —
opaque ``[...]`` snippets such as ``[Start -> Active]``.  Tag values are
always string literals (``Name = "text"``); complex tags carry nested
subtags in braces.  A bare ``...`` in body position is accepted as an
elision marker and ignored.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Union

from .derivation import LanguageProfile
from .errors import ParseError
from .parsing import _ID, _STRING_BODY, BRACKET, ELLIPSIS, EOF, IDENT, MAX_NESTING, STRING
from .parsing import TokenCursor, dotted, escape_string, placer, skip_for, tokenize, unescape_string
from .records import field, record, replace

__all__ = [
    "ElementIdentifier",
    "TagValue",
    "TagUse",
    "TagStatement",
    "Context",
    "TagModel",
    "parse_tag_model",
    "pretty_print_tag_model",
    "qualify",
]


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@record
class ElementIdentifier:
    """A reference to a model element: a dotted name or a bracket snippet."""

    QUALIFIED = "qualified"
    BRACKET = "bracket"

    kind: str
    path: tuple[str, ...] = ()
    raw: str = ""
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    @property
    def is_bracket(self) -> bool:
        return self.kind == ElementIdentifier.BRACKET

    @property
    def text(self) -> str:
        if self.is_bracket:
            return f"[{self.raw}]"
        return ".".join(self.path)

    @classmethod
    def qualified(cls, *path: str, line: int = 0, col: int = 0) -> ElementIdentifier:
        return cls(cls.QUALIFIED, path, "", line, col)

    @classmethod
    def bracket(cls, raw: str, line: int = 0, col: int = 0) -> ElementIdentifier:
        return cls(cls.BRACKET, (), raw, line, col)


@record
class TagValue:
    """The value part of a tag use.

    ``simple`` carries nothing, ``valued`` carries the literal string
    content exactly as written (escape sequences already decoded), and
    ``complex`` carries nested subtags.
    """

    SIMPLE = "simple"
    VALUED = "valued"
    COMPLEX = "complex"

    kind: str
    raw: str | None = None
    subtags: tuple[TagUse, ...] = ()

    @staticmethod
    def simple() -> TagValue:
        """The one simple value: records are frozen, so every simple use shares it."""
        return _SIMPLE

    @classmethod
    def valued(cls, raw: str) -> TagValue:
        return cls(cls.VALUED, raw)

    @classmethod
    def complex_of(cls, *subtags: TagUse) -> TagValue:
        return cls(cls.COMPLEX, None, subtags)


_SIMPLE = TagValue(TagValue.SIMPLE)


@record
class TagUse:
    name: str
    value: TagValue
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class TagStatement:
    element_refs: tuple[ElementIdentifier, ...]
    tag_refs: tuple[TagUse, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class Context:
    identifier: ElementIdentifier
    body: tuple[BodyItem, ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


BodyItem = Union[Context, TagStatement]


@record
class TagModel:
    package: str
    conforms_to: tuple[str, ...]
    name: str
    target_model: str
    body: tuple[BodyItem, ...]
    source_name: str | None = field(default=None, compare=False)
    conforms_line: int = field(default=0, compare=False)
    conforms_col: int = field(default=0, compare=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}"


def qualify(ref: str, default_package: str) -> str:
    """Complete an unqualified name with the referencing file's package."""

    return ref if "." in ref else f"{default_package}.{ref}"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_tag_model(
    text: str, profile: LanguageProfile, filename: str | None = None
) -> TagModel:
    """Parse ``.tag`` source text against a language profile.

    Raises :class:`~tagweaver.errors.ParseError` on syntax errors, among
    them a missing ``conforms to`` clause and a bracketed identifier that
    matches no bracket rule of the profile: the profile's bracket forms
    are productions of the derived tag language.

    The statement reader reads ``within`` blocks and ``tag`` statements with
    simple, ``= "..."`` and complex values, nested to any depth up to
    ``MAX_NESTING`` blocks and values together; any other text goes whole
    to the token parser, so both give the same records and positions, and
    every error is the token parser's.
    """

    return _read_statements(text, profile, filename) or _parse_tokens(text, profile, filename)


# The statement reader.  Each match reads one piece of a body: ``item`` a
# keyword (``tag``, ``within``), ``}`` or ``...``; ``ref`` an element
# reference with the ``,``, ``with`` or ``{`` after it; ``use`` a tag use,
# simple or ``= "..."``, with the ``,``, ``;`` or ``{`` after it, a ``{``
# opening a complex value; ``end`` the ``}`` that closes one, with the ``,``
# or ``;`` after it.  Open ``within`` blocks and complex values count together
# against ``MAX_NESTING``, as the token parser's ``enter`` counts them.
# Identifiers start with an ASCII letter or ``_``, and bracket texts hold no
# ``[``.  The pieces are the tokenizer's, each of one extent (see
# ``parsing._SKIP``), so a match reads the tokens that ``tokenize`` reads, and
# the reader takes them as the token parser does.  The skip is written once in
# each pattern a piece needs: one pattern for a whole statement repeats it
# some thirty times and costs every process over 10 ms of ``re.compile``.  The
# patterns are built for the skip that ``parsing.skip_for`` picks for the text.
@cache
def _pieces(skip: str):
    """The matchers ``item``, ``ref``, ``use`` and ``end`` over the skip ``skip``."""

    item = re.compile(rf"{skip}(?:(tag\b)|(within\b)|(\}})|(\.\.\.))?{skip}")  # lastindex 1-4
    ref = re.compile(  # lastindex 3: ',', 4: 'with', 5: '{'
        rf"(?:\[([^\[\]]*)\]|({_ID}(?:{skip}\.{skip}{_ID})*))"
        rf"{skip}(?:(,)|(with\b)|(\{{)){skip}"
    )
    use = re.compile(  # lastindex 3: ',', 4: ';', 5: '{'
        rf'({_ID})(?:{skip}={skip}"({_STRING_BODY})")?{skip}(?:(,)|(;)|(\{{)){skip}'
    )
    end = re.compile(rf"\}}{skip}(?:(,)|(;)){skip}")  # lastindex 1: ',', 2: ';' (``use``'s, less 2)
    return item.match, ref.match, use.match, end.match


def _read_statements(text: str, profile: LanguageProfile, filename: str | None) -> TagModel | None:
    """The tag model of ``text`` if the statement reader reads all of it, else ``None``."""

    try:  # the header up to its '{', by the token parser's own code
        cur = TokenCursor(tokenize(text[: text.find("{") + 1], raw_brackets=True), filename)
        head = _parse_header(cur, filename)
        brace = cur.expect(EOF)
    except ParseError:
        return None
    item, next_ref, next_use, end = _pieces(skip_for(text))
    readings, place = profile.bracket_readings, placer(text, brace)

    def element(r) -> ElementIdentifier | None:
        # The reference ``r`` read; None at a bracket text that no form reads.
        raw, name = r.group(1, 2)
        where = place(r.start())
        if raw is None:
            return ElementIdentifier(ElementIdentifier.QUALIFIED, dotted(name), "", *where)
        raw = raw.strip()
        return ElementIdentifier(ElementIdentifier.BRACKET, (), raw, *where) if readings(raw) else None

    outer, items, pos = [], [], brace.start  # ``outer``: (context, place, enclosing items)
    while True:
        m = item(text, pos)
        pos, kind = m.end(), m.lastindex
        if kind == 1:
            at, refs, uses, sep = place(m.start(1)), [], [], 3
            while sep == 3:
                r = next_ref(text, pos)
                ref = r and element(r)
                if ref is None:
                    return None
                refs.append(ref)
                pos, sep = r.end(), r.lastindex
            if sep != 4:
                return None
            sep, values = 3, []  # ``values``: open complex values, (name, place, enclosing uses)
            while sep != 4 or values:
                e = sep != 3 and end(text, pos)  # after '{' an empty value, after ';' its '}'
                if e:
                    name, where, enclosing = values.pop()
                    value = TagValue(TagValue.COMPLEX, None, tuple(uses))
                    enclosing.append(TagUse(name, value, *where))
                    uses, pos, sep = enclosing, e.end(), e.lastindex + 2
                    continue
                u = sep != 4 and next_use(text, pos)
                if not u:
                    return None
                name, raw = u.group(1, 2)
                where, pos, sep = place(pos), u.end(), u.lastindex
                if sep != 5:
                    value = _SIMPLE if raw is None else TagValue(
                        TagValue.VALUED, unescape_string(raw) if "\\" in raw else raw)
                    uses.append(TagUse(name, value, *where))
                elif raw is not None or len(outer) + len(values) == MAX_NESTING:
                    return None
                else:
                    values.append((name, where, uses))
                    uses = []
            items.append(TagStatement(tuple(refs), tuple(uses), *at))
        elif kind == 2:
            at, r = place(m.start(2)), next_ref(text, pos)
            ref = r and element(r)
            if ref is None or r.lastindex != 5 or len(outer) == MAX_NESTING:
                return None
            outer.append((ref, at, items))
            items, pos = [], r.end()
        elif kind == 3 and outer:
            ref, at, enclosing = outer.pop()
            enclosing.append(Context(ref, tuple(items), *at))
            items = enclosing
        elif kind != 4:
            break
    rest = item(text, pos)
    if kind is None or rest.lastindex is not None or rest.end() < len(text):
        return None
    return replace(head, body=tuple(items))


def _parse_tokens(text: str, profile: LanguageProfile, filename: str | None) -> TagModel:
    """The token parser: the reference for every tag model, and the one that reports errors."""

    cur = TokenCursor(tokenize(text, raw_brackets=True, filename=filename), filename)
    head = _parse_header(cur, filename)
    body = _parse_body(cur, profile)
    cur.expect("}")
    cur.expect(EOF)
    return replace(head, body=body)


def _parse_header(cur: TokenCursor, filename: str | None) -> TagModel:
    """Read up to the body's ``{``; the model with an empty body."""

    package = cur.package()
    if not cur.at_keyword("conforms"):
        raise cur.error("expected 'conforms to <schema>;' after the package declaration")
    conforms_tok = cur.advance()
    cur.expect_keyword("to")
    conforms = cur.separated(TokenCursor.qualified_name)
    cur.expect_after_list(("tags",), ";")

    cur.expect_keyword("tags")
    name_tok = cur.expect(IDENT)
    cur.expect_keyword("for")
    target_parts, _ = cur.qualified_name()
    cur.expect("{")

    conforms_to = tuple(".".join(parts) for parts, _ in conforms)
    return TagModel(package, conforms_to, name_tok.value, ".".join(target_parts), (), filename,
                    conforms_tok.line, conforms_tok.col)


def _parse_body(cur: TokenCursor, profile: LanguageProfile) -> tuple[BodyItem, ...]:
    items: list[BodyItem] = []
    while not cur.at("}"):
        if cur.match(ELLIPSIS):
            continue
        if cur.at_keyword("within"):
            items.append(_parse_context(cur, profile))
        elif cur.at_keyword("tag"):
            items.append(_parse_statement(cur, profile))
        elif cur.at(EOF):
            raise cur.error("unexpected end of input: missing '}'")
        else:
            raise cur.error(
                f"expected 'within', 'tag', or '}}', found '{cur.peek().value}'"
            )
    return tuple(items)


def _parse_context(cur: TokenCursor, profile: LanguageProfile) -> Context:
    within_tok = cur.expect_keyword("within")
    ident = _parse_element_identifier(cur, profile)
    cur.enter(cur.expect("{"))
    body = _parse_body(cur, profile)
    cur.expect("}")
    cur.leave()
    return Context(ident, body, within_tok.line, within_tok.col)


def _parse_statement(cur: TokenCursor, profile: LanguageProfile) -> TagStatement:
    tag_tok = cur.expect_keyword("tag")
    elements = cur.separated(_parse_element_identifier, profile)
    cur.expect_after_list(("with",), IDENT, "with")
    tags = cur.separated(_parse_tag_use)
    cur.expect_after_list(("tag", "within"), ";")
    return TagStatement(tuple(elements), tuple(tags), tag_tok.line, tag_tok.col)


def _parse_element_identifier(cur: TokenCursor, profile: LanguageProfile) -> ElementIdentifier:
    if cur.at(BRACKET):
        tok = cur.advance()
        raw = tok.value.strip()
        if not profile.bracket_readings(raw):
            available = ", ".join(rule.nonterminal for rule in profile.bracket_rules())
            detail = (
                f"available bracket forms: {available}"
                if available
                else f"the '{profile.grammar_name}' profile declares no bracket identifier forms"
            )
            raise cur.error(f"'[{raw}]' matches no bracket identifier form ({detail})", tok)
        return ElementIdentifier(ElementIdentifier.BRACKET, (), raw, tok.line, tok.col)
    path, first = cur.qualified_name()
    return ElementIdentifier(ElementIdentifier.QUALIFIED, path, "", first.line, first.col)


def _parse_tag_use(cur: TokenCursor) -> TagUse:
    name_tok = cur.expect(IDENT)
    if cur.match("="):
        value_tok = cur.expect(STRING)
        value = TagValue(TagValue.VALUED, value_tok.value)
    elif cur.at("{"):
        cur.enter(cur.advance())
        subtags: list[TagUse] = []
        if not cur.at("}"):
            subtags = cur.separated(_parse_tag_use)
            cur.expect(";")
        cur.expect("}")
        cur.leave()
        value = TagValue(TagValue.COMPLEX, None, tuple(subtags))
    else:
        value = _SIMPLE
    return TagUse(name_tok.value, value, name_tok.line, name_tok.col)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def pretty_print_tag_model(model: TagModel) -> str:
    """Render a tag model back to canonical ``.tag`` text (round-trip safe)."""

    lines = [
        f"package {model.package};",
        f"conforms to {', '.join(model.conforms_to)};",
        "",
        f"tags {model.name} for {model.target_model} {{",
    ]
    _print_body(model.body, lines, depth=1)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _print_body(body: tuple[BodyItem, ...], lines: list[str], depth: int) -> None:
    pad = "    " * depth
    for item in body:
        if isinstance(item, Context):
            lines.append(f"{pad}within {item.identifier.text} {{")
            _print_body(item.body, lines, depth + 1)
            lines.append(f"{pad}}}")
        else:
            refs = ", ".join(ref.text for ref in item.element_refs)
            tags = ", ".join(_format_tag(tag, depth) for tag in item.tag_refs)
            lines.append(f"{pad}tag {refs} with {tags};")


def _format_tag(tag: TagUse, depth: int) -> str:
    if tag.value.kind == TagValue.VALUED:
        return f'{tag.name} = "{escape_string(tag.value.raw)}"'
    if tag.value.kind == TagValue.COMPLEX:
        if not tag.value.subtags:
            return f"{tag.name} {{}}"
        pad = "    " * depth
        inner = ",\n".join(
            f"{pad}    {_format_tag(sub, depth + 1)}" for sub in tag.value.subtags
        )
        return f"{tag.name} {{\n{inner};\n{pad}}}"
    return tag.name
