"""Parser and well-formedness checks for tag schemas (``.tagschema`` files).

A tag schema is the type system for tag models: it declares the admissible
tag types, what kinds of elements each may be attached to, and what values
each carries::

    package loggingschema;
    tagschema StatechartTagSchema {
        tagtype Monitored for State;
        tagtype Log:["timestamp"|"callerID"] for Transition;
        tagtype Method:String for Statechart;
        tagtype Exception for State {
            type:String,
            msg:String;
        }
    }

Tag type domains come in four forms: simple flags (no value), native
values (``int``, ``String``, ``Boolean``), closed string enumerations, and
complex types whose braces list named references with cardinality marks
(``?`` optional, ``*`` any number, ``+`` at least one, none = exactly
one).  Named references resolve to tag types of the same schema.  A scope
clause lists scope keywords from the target DSL's language profile, or
``for +`` to admit every element; omitting the clause means the same as
``for +``.  A nested keyword (``source``) names a part of an element, not
an element, so listing one only draws a warning: it admits nothing.
Types marked ``private`` may only be used as subtags of other types,
never directly on an element.

:func:`parse_tag_schema` is the one judge of a schema.  It raises syntax
errors as it meets them, then judges the tag types it has read once, at the
positions it read them, and keeps every finding as ``TagSchema.findings``.
To judge a schema built by hand, print it and parse the text.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import inf

from .derivation import LanguageProfile
from .diagnostics import Condition, Diagnostic, Severity, reporter
from .parsing import EOF, IDENT, STRING, TokenCursor, escape_string, tokenize
from .records import field, record

__all__ = [
    "NATIVE_KINDS",
    "Cardinality",
    "Reference",
    "ScopeSpec",
    "DomainSpec",
    "TagTypeDef",
    "TagSchema",
    "parse_tag_schema",
    "pretty_print_tag_schema",
]

NATIVE_KINDS = ("int", "String", "Boolean")


class Cardinality(str, Enum):
    # How many subtags of one name a complex value takes.  Each member is
    # (value, mark in schema text, fewest, most, phrase in a
    # CardinalityViolation message).  MANY admits every count, so its
    # phrase is never printed.
    REQUIRED = "required", "", 1, 1, "exactly one"
    OPTIONAL = "optional", "?", 0, 1, "at most one"
    MANY = "many", "*", 0, inf, "any number of"
    AT_LEAST_ONE = "atLeastOne", "+", 1, inf, "at least one"

    def __new__(cls, value: str, mark: str, fewest: int, most: float, phrase: str):
        member = str.__new__(cls, value)
        member._value_ = value
        member.mark, member.fewest, member.most, member.phrase = mark, fewest, most, phrase
        return member

    def admits(self, count: int) -> bool:
        return self.fewest <= count <= self.most


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@record
class Reference:
    """One named slot of a complex tag type."""

    name: str
    type_name: str  # a native kind or a tag type of the same schema
    is_native: bool
    cardinality: Cardinality = Cardinality.REQUIRED
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class ScopeSpec:
    """Which element types a tag type may be attached to (None = any)."""

    keywords: tuple[str, ...] | None = None
    # (line, col) of each keyword as parsed; empty when built by hand.
    positions: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    @property
    def is_any(self) -> bool:
        return self.keywords is None

    def admits(self, element_type: str) -> bool:
        return self.keywords is None or element_type in self.keywords

    @classmethod
    def any_scope(cls) -> ScopeSpec:
        return cls(None)

    @classmethod
    def listed(cls, *keywords: str) -> ScopeSpec:
        return cls(tuple(keywords))


@record
class DomainSpec:
    SIMPLE = "simple"
    NATIVE = "native"
    ENUM = "enum"
    COMPLEX = "complex"

    kind: str
    native: str | None = None
    values: tuple[str, ...] = ()
    references: tuple[Reference, ...] = ()
    # (line, col) of each enumeration value as parsed; empty when built by hand.
    value_positions: tuple[tuple[int, int], ...] = field(default=(), compare=False)

    @classmethod
    def simple(cls) -> DomainSpec:
        return cls(cls.SIMPLE)

    @classmethod
    def of_native(cls, kind: str) -> DomainSpec:
        return cls(cls.NATIVE, native=kind)

    @classmethod
    def enum_of(cls, *values: str) -> DomainSpec:
        return cls(cls.ENUM, values=tuple(values))

    @classmethod
    def complex_of(cls, *references: Reference) -> DomainSpec:
        return cls(cls.COMPLEX, references=tuple(references))

    def reference(self, name: str) -> Reference | None:
        for ref in self.references:
            if ref.name == name:
                return ref
        return None


@record
class TagTypeDef:
    name: str
    domain: DomainSpec
    scope: ScopeSpec = ScopeSpec.any_scope()
    is_private: bool = False
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class TagSchema:
    package: str
    name: str
    tag_types: tuple[TagTypeDef, ...]
    source_name: str | None = field(default=None, compare=False)
    # What parse_tag_schema found when it judged the text; empty when built by hand.
    findings: tuple[Diagnostic, ...] = field(default=(), compare=False)

    @property
    def qualified_name(self) -> str:
        return f"{self.package}.{self.name}"

    def tag_type(self, name: str) -> TagTypeDef | None:
        for tt in self.tag_types:
            if tt.name == name:
                return tt
        return None


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_tag_schema(
    text: str, profile: LanguageProfile, filename: str | None = None
) -> TagSchema:
    """Parse ``.tagschema`` source text against a language profile.

    Syntax errors raise :class:`~tagweaver.errors.ParseError` as they are
    met.  The tag types read are then judged once for well-formedness, and
    the schema is built with every diagnostic of the judgement as
    ``findings``.
    """

    cur = TokenCursor(tokenize(text, raw_brackets=False, filename=filename), filename)

    package = cur.package()
    cur.expect_keyword("tagschema")
    name_tok = cur.expect(IDENT)
    cur.expect("{")

    tag_types: list[TagTypeDef] = []
    while not cur.at("}"):
        tag_types.append(_parse_tag_type(cur))
    cur.expect("}")
    cur.expect(EOF)

    return TagSchema(
        package, name_tok.value, tuple(tag_types), filename, _judge(tag_types, profile, filename)
    )


def _parse_tag_type(cur: TokenCursor) -> TagTypeDef:
    is_private = cur.match(IDENT, "private") is not None
    cur.expect_keyword("tagtype")
    name_tok = cur.expect(IDENT)

    declared: DomainSpec | None = None
    if cur.match(":"):
        if cur.at("["):
            declared = _parse_enum_domain(cur)
        elif cur.peek().kind == IDENT and cur.peek().value in NATIVE_KINDS:
            declared = DomainSpec.of_native(cur.advance().value)
        else:
            raise cur.error(
                f"expected a native type ({', '.join(NATIVE_KINDS)}) or an '[' enumeration"
            )

    scope = ScopeSpec.any_scope()
    if cur.at_keyword("for"):
        scope = _parse_scope(cur)

    if cur.match(";"):
        domain = declared if declared is not None else DomainSpec.simple()
    elif cur.at("{"):
        if declared is not None:
            raise cur.error(
                f"tag type '{name_tok.value}' already has a value domain; "
                "a reference block is not allowed"
            )
        domain = _parse_complex_domain(cur)
    else:
        raise cur.error("expected ';' or a '{' reference block")

    return TagTypeDef(
        name=name_tok.value,
        domain=domain,
        scope=scope,
        is_private=is_private,
        line=name_tok.line,
        col=name_tok.col,
    )


def _parse_enum_domain(cur: TokenCursor) -> DomainSpec:
    cur.expect("[")
    values = cur.separated(TokenCursor.expect, STRING, sep="|")
    cur.expect("]")
    return DomainSpec(
        DomainSpec.ENUM,
        values=tuple(tok.value for tok in values),
        value_positions=tuple((tok.line, tok.col) for tok in values),
    )


def _parse_scope(cur: TokenCursor) -> ScopeSpec:
    cur.expect_keyword("for")
    if cur.match("+"):
        return ScopeSpec.any_scope()
    tokens = cur.separated(TokenCursor.expect, IDENT)
    return ScopeSpec(
        tuple(tok.value for tok in tokens), tuple((tok.line, tok.col) for tok in tokens)
    )


def _parse_complex_domain(cur: TokenCursor) -> DomainSpec:
    cur.expect("{")
    refs = cur.separated(_parse_reference)
    cur.expect(";")
    cur.expect("}")
    return DomainSpec.complex_of(*refs)


def _parse_reference(cur: TokenCursor) -> Reference:
    name_tok = cur.expect(IDENT)
    cur.expect(":")
    type_tok = cur.expect(IDENT)
    marked = (card for card in Cardinality if card.mark and cur.match(card.mark))
    return Reference(
        name=name_tok.value,
        type_name=type_tok.value,
        is_native=type_tok.value in NATIVE_KINDS,
        cardinality=next(marked, Cardinality.REQUIRED),
        line=name_tok.line,
        col=name_tok.col,
    )


# ---------------------------------------------------------------------------
# Well-formedness validation
# ---------------------------------------------------------------------------


def _judge(
    tag_types: list[TagTypeDef], profile: LanguageProfile, filename: str | None
) -> tuple[Diagnostic, ...]:
    """The well-formedness findings of the tag types of one parsed schema.

    Reports duplicate tag type names, duplicate enumeration values,
    unknown scope keywords, duplicate reference names and
    unresolved named references tag type by tag type, in source order,
    with a warning for each scope keyword that names no element kind
    (``ScopeAdmitsNoElement``: a nested keyword such as ``source``).
    Required-reference cycles (``RecursiveRequiredReference``: a cycle of
    named references whose every edge is required or at-least-one has no
    finite instances) follow.
    """

    diags: list[Diagnostic] = []
    keywords = profile.keyword_set()
    nested = {kw.keyword: kw for kw in profile.scope_keywords if kw.is_nested}
    type_names = {tt.name for tt in tag_types}
    first_lines: dict[str, int] = {}
    report = reporter(diags, filename)

    for tt in tag_types:
        if tt.name in first_lines:
            report(
                Condition.DUPLICATE_TAG_TYPE_NAME,
                f"tag type '{tt.name}' already defined on line {first_lines[tt.name]}",
                tt.line,
                tt.col,
            )
        else:
            first_lines[tt.name] = tt.line

        domain = tt.domain
        seen_values: set[str] = set()
        for value, (line, col) in zip(domain.values, domain.value_positions):
            if value in seen_values:
                report(
                    Condition.DUPLICATE_ENUM_VALUE,
                    f'duplicate enumeration value "{value}" in \'{tt.name}\'',
                    line,
                    col,
                )
            seen_values.add(value)

        for kw, (line, col) in zip(tt.scope.keywords or (), tt.scope.positions):
            if kw not in keywords:
                report(
                    Condition.UNKNOWN_SCOPE_KEYWORD,
                    f"'{kw}' is not a scope keyword of grammar '{profile.grammar_name}'",
                    line,
                    col,
                )
            elif kw in nested:
                part = nested[kw]
                report(
                    Condition.SCOPE_ADMITS_NO_ELEMENT,
                    f"'{kw}' names the {part.preceding_identifier} of a {part.production}, "
                    f"not an element, so tag type '{tt.name}' can never apply through it",
                    line,
                    col,
                    Severity.WARNING,
                )

        seen_refs: set[str] = set()
        for ref in domain.references:
            if ref.name in seen_refs:
                report(
                    Condition.DUPLICATE_REFERENCE_NAME,
                    f"duplicate reference name '{ref.name}' in '{tt.name}'",
                    ref.line,
                    ref.col,
                )
            seen_refs.add(ref.name)
            if not ref.is_native and ref.type_name not in type_names:
                report(
                    Condition.UNRESOLVED_NAMED_REFERENCE,
                    f"reference '{ref.name}' of '{tt.name}' points to unknown "
                    f"tag type '{ref.type_name}'",
                    ref.line,
                    ref.col,
                )

    _required_cycles(tag_types, report)
    return tuple(diags)


def _required_cycles(tag_types: list[TagTypeDef], report) -> None:
    """Report each cycle of references that need a subtag (no finite instances)."""

    types = {tt.name: tt for tt in tag_types}
    edges: dict[str, list[str]] = {
        name: [
            ref.type_name
            for ref in tt.domain.references
            if not ref.is_native and ref.type_name in types and ref.cardinality.fewest > 0
        ]
        for name, tt in types.items()
    }

    # Tarjan's strongly connected components over the mandatory-edge graph.
    # The depth-first walk keeps its own stack of (node, successor iterator)
    # so that a long chain of references cannot exhaust the recursion limit.
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    walk: list[tuple[str, Iterator[str]]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        walk.append((node, iter(edges[node])))

    for name in types:
        if name in index:
            continue
        visit(name)
        while walk:
            node, successors = walk[-1]
            for succ in successors:
                if succ not in index:
                    visit(succ)
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                walk.pop()
                if walk:
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in edges[node]:
                        members = sorted(component)
                        anchor = min((types[m] for m in members), key=lambda tt: (tt.line, tt.col))
                        cycle = " -> ".join(members + [members[0]])
                        report(Condition.RECURSIVE_REQUIRED_REFERENCE,
                               f"required references form a cycle with no finite instances: {cycle}",
                               anchor.line, anchor.col)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def pretty_print_tag_schema(schema: TagSchema) -> str:
    """Render a schema back to canonical ``.tagschema`` text (round-trip safe).

    A complex tag type with no references raises ``ValueError``: the grammar
    has no empty reference block, so its text would not re-parse.
    """

    lines = [f"package {schema.package};", "", f"tagschema {schema.name} {{"]
    for tt in schema.tag_types:
        private = "private " if tt.is_private else ""
        scope = ""
        if not tt.scope.is_any:
            scope = f" for {', '.join(tt.scope.keywords)}"
        head = f"    {private}tagtype {tt.name}"
        domain = tt.domain
        if domain.kind == DomainSpec.SIMPLE:
            lines.append(f"{head}{scope};")
        elif domain.kind == DomainSpec.NATIVE:
            lines.append(f"{head}:{domain.native}{scope};")
        elif domain.kind == DomainSpec.ENUM:
            values = "|".join(f'"{escape_string(v)}"' for v in domain.values)
            lines.append(f"{head}:[{values}]{scope};")
        elif not domain.references:
            raise ValueError(
                f"tag type '{tt.name}': a complex type with no references would not re-parse")
        else:
            lines.append(f"{head}{scope} {{")
            for i, ref in enumerate(domain.references):
                sep = ";" if i == len(domain.references) - 1 else ","
                lines.append(f"        {ref.name}:{ref.type_name}{ref.cardinality.mark}{sep}")
            lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"
