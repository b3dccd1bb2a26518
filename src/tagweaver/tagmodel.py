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

from typing import Union

from .derivation import LanguageProfile
from .parsing import BRACKET, ELLIPSIS, EOF, IDENT, STRING, TokenCursor, escape_string, tokenize
from .records import field, record

__all__ = [
    "ElementIdentifier",
    "TagValue",
    "TagUse",
    "TagStatement",
    "Context",
    "TagModel",
    "parse_tag_model",
    "pretty_print_tag_model",
    "escape_string",
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
    """

    cur = TokenCursor(tokenize(text, raw_brackets=True, filename=filename), filename)

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
    body = _parse_body(cur, profile)
    cur.expect("}")
    cur.expect(EOF)

    return TagModel(
        package=package,
        conforms_to=tuple(".".join(parts) for parts, _ in conforms),
        name=name_tok.value,
        target_model=".".join(target_parts),
        body=body,
        source_name=filename,
        conforms_line=conforms_tok.line,
        conforms_col=conforms_tok.col,
    )


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
