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
``for +``.  Types marked ``private`` may only be used as subtags of other
types, never directly on an element.

The parser only builds the schema and raises syntax errors.
:func:`validate_schema_well_formedness` alone decides whether a schema is
well-formed; :func:`parse_tag_schema` runs it and raises the first of its
diagnostics that the chosen ``strict`` mode raises, as the matching
:class:`~tagweaver.errors.ParseError` subclass.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

from .derivation import LanguageProfile
from .diagnostics import Diagnostic, Severity
from .errors import ParseError
from .parsing import EOF, IDENT, STRING, TokenCursor, tokenize
from .tagmodel import escape_string

__all__ = [
    "NATIVE_KINDS",
    "Cardinality",
    "Reference",
    "ScopeSpec",
    "DomainSpec",
    "TagTypeDef",
    "TagSchema",
    "DuplicateTagTypeName",
    "UnknownScopeKeyword",
    "UnresolvedNamedReference",
    "EmptyEnumDomain",
    "parse_tag_schema",
    "validate_schema_well_formedness",
    "pretty_print_tag_schema",
]

NATIVE_KINDS = ("int", "String", "Boolean")


class DuplicateTagTypeName(ParseError):
    """Two tag types in one schema share a name."""


class UnknownScopeKeyword(ParseError):
    """A scope clause names a keyword the language profile does not define."""


class UnresolvedNamedReference(ParseError):
    """A complex-type reference names no tag type of this schema."""


class EmptyEnumDomain(ParseError):
    """An enumeration domain has no usable values (e.g. duplicates)."""


class Cardinality(str, Enum):
    REQUIRED = "required"
    OPTIONAL = "optional"
    MANY = "many"
    AT_LEAST_ONE = "atLeastOne"

    @property
    def mark(self) -> str:
        return {"required": "", "optional": "?", "many": "*", "atLeastOne": "+"}[self.value]

    def admits(self, count: int) -> bool:
        if self is Cardinality.REQUIRED:
            return count == 1
        if self is Cardinality.OPTIONAL:
            return count <= 1
        if self is Cardinality.AT_LEAST_ONE:
            return count >= 1
        return True


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    """One named slot of a complex tag type."""

    name: str
    type_name: str  # a native kind or a tag type of the same schema
    is_native: bool
    cardinality: Cardinality = Cardinality.REQUIRED
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TagTypeDef:
    name: str
    domain: DomainSpec
    scope: ScopeSpec = ScopeSpec.any_scope()
    is_private: bool = False
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TagSchema:
    package: str
    name: str
    tag_types: tuple[TagTypeDef, ...]
    source_name: str | None = field(default=None, compare=False)

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
    text: str,
    profile: LanguageProfile,
    filename: str | None = None,
    *,
    strict: bool = True,
) -> TagSchema:
    """Parse ``.tagschema`` source text against a language profile.

    Syntax errors raise as they are met.  The parsed schema is then judged
    by :func:`validate_schema_well_formedness`, and the first of its
    diagnostics that this parse raises becomes a :class:`ParseError`
    subclass.  Structural problems (duplicate tag type names, duplicate
    enum values, duplicate reference names) always raise.  With
    ``strict=True`` (the default) unknown scope keywords and unresolved
    named references raise as well; with ``strict=False`` they are left
    for the caller's own validation to report as diagnostics.
    Required-reference cycles never raise here.
    """

    cur = TokenCursor(tokenize(text, raw_brackets=False, filename=filename), filename)

    cur.expect_keyword("package")
    package_parts, _ = cur.qualified_name()
    cur.expect(";")

    cur.expect_keyword("tagschema")
    name_tok = cur.expect(IDENT)
    cur.expect("{")

    tag_types: list[TagTypeDef] = []
    while not cur.at("}"):
        tag_types.append(_parse_tag_type(cur))
    cur.expect("}")
    cur.expect(EOF)

    schema = TagSchema(
        package=".".join(package_parts),
        name=name_tok.value,
        tag_types=tuple(tag_types),
        source_name=filename,
    )
    for diag in validate_schema_well_formedness(schema, profile):
        error_class, always = _RAISED_AS.get(diag.condition, (None, False))
        if error_class is not None and (strict or always):
            raise error_class(diag.message, diag.line, diag.col, filename)
    return schema


# The conditions ``parse_tag_schema`` raises: the exception class, and
# whether the condition raises under ``strict=False`` too.
_RAISED_AS: dict[str, tuple[type[ParseError], bool]] = {
    "DuplicateTagTypeName": (DuplicateTagTypeName, True),
    "EmptyEnumDomain": (EmptyEnumDomain, True),
    "DuplicateReferenceName": (ParseError, True),
    "UnknownScopeKeyword": (UnknownScopeKeyword, False),
    "UnresolvedNamedReference": (UnresolvedNamedReference, False),
}


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
                "expected a native type (int, String, Boolean) or an '[' enumeration"
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
    values = [cur.expect(STRING)]
    while cur.match("|"):
        values.append(cur.expect(STRING))
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
    tokens = [cur.expect(IDENT)]
    while cur.match(","):
        tokens.append(cur.expect(IDENT))
    return ScopeSpec(
        tuple(tok.value for tok in tokens), tuple((tok.line, tok.col) for tok in tokens)
    )


def _parse_complex_domain(cur: TokenCursor) -> DomainSpec:
    cur.expect("{")
    refs = [_parse_reference(cur)]
    while cur.match(","):
        refs.append(_parse_reference(cur))
    cur.expect(";")
    cur.expect("}")
    return DomainSpec.complex_of(*refs)


def _parse_reference(cur: TokenCursor) -> Reference:
    name_tok = cur.expect(IDENT)
    cur.expect(":")
    type_tok = cur.expect(IDENT)
    cardinality = Cardinality.REQUIRED
    if cur.match("?"):
        cardinality = Cardinality.OPTIONAL
    elif cur.match("*"):
        cardinality = Cardinality.MANY
    elif cur.match("+"):
        cardinality = Cardinality.AT_LEAST_ONE
    return Reference(
        name=name_tok.value,
        type_name=type_tok.value,
        is_native=type_tok.value in NATIVE_KINDS,
        cardinality=cardinality,
        line=name_tok.line,
        col=name_tok.col,
    )


# ---------------------------------------------------------------------------
# Well-formedness validation
# ---------------------------------------------------------------------------


def validate_schema_well_formedness(
    schema: TagSchema, profile: LanguageProfile
) -> list[Diagnostic]:
    """Full well-formedness sweep over a parsed (or constructed) schema.

    Reports duplicate tag type names, duplicated or empty enumeration
    domains, unknown scope keywords, duplicate reference names and
    unresolved named references tag type by tag type, in source order.
    Required-reference cycles (``RecursiveRequiredReference``: a cycle of
    named references whose every edge is required or at-least-one has no
    finite instances) follow.  An enumeration value or scope keyword of a
    constructed schema, which has no recorded position, is reported at
    its tag type.
    """

    diags: list[Diagnostic] = []
    keywords = profile.keyword_set()
    type_names = {tt.name for tt in schema.tag_types}
    first_lines: dict[str, int] = {}

    def report(condition: str, message: str, line: int, col: int) -> None:
        diags.append(
            Diagnostic(
                condition=condition,
                severity=Severity.ERROR,
                message=message,
                file=schema.source_name,
                line=line,
                col=col,
            )
        )

    for tt in schema.tag_types:
        if tt.name in first_lines:
            report(
                "DuplicateTagTypeName",
                f"tag type '{tt.name}' already defined on line {first_lines[tt.name]}",
                tt.line,
                tt.col,
            )
        else:
            first_lines[tt.name] = tt.line

        domain = tt.domain
        if domain.kind == DomainSpec.ENUM and not domain.values:
            report("EmptyEnumDomain", f"enumeration '{tt.name}' has no values", tt.line, tt.col)
        seen_values: set[str] = set()
        for value, (line, col) in zip(domain.values, _positions(domain.value_positions, tt)):
            if value in seen_values:
                report(
                    "EmptyEnumDomain",
                    f'duplicate enumeration value "{value}" in \'{tt.name}\'',
                    line,
                    col,
                )
            seen_values.add(value)

        for kw, (line, col) in zip(tt.scope.keywords or (), _positions(tt.scope.positions, tt)):
            if kw not in keywords:
                report(
                    "UnknownScopeKeyword",
                    f"'{kw}' is not a scope keyword of grammar '{profile.grammar_name}'",
                    line,
                    col,
                )

        seen_refs: set[str] = set()
        for ref in domain.references:
            if ref.name in seen_refs:
                report(
                    "DuplicateReferenceName",
                    f"duplicate reference name '{ref.name}' in '{tt.name}'",
                    ref.line,
                    ref.col,
                )
            seen_refs.add(ref.name)
            if not ref.is_native and ref.type_name not in type_names:
                report(
                    "UnresolvedNamedReference",
                    f"reference '{ref.name}' of '{tt.name}' points to unknown "
                    f"tag type '{ref.type_name}'",
                    ref.line,
                    ref.col,
                )

    diags.extend(_required_cycles(schema))
    return diags


def _positions(
    recorded: tuple[tuple[int, int], ...], tt: TagTypeDef
) -> Iterable[tuple[int, int]]:
    """The parser's recorded positions, else the tag type's, repeated."""

    return recorded or repeat((tt.line, tt.col))


def _required_cycles(schema: TagSchema) -> list[Diagnostic]:
    """Find cycles of Required/AtLeastOne references (no finite instances)."""

    mandatory = (Cardinality.REQUIRED, Cardinality.AT_LEAST_ONE)
    types = {tt.name: tt for tt in schema.tag_types}
    edges: dict[str, list[str]] = {
        name: [
            ref.type_name
            for ref in tt.domain.references
            if not ref.is_native and ref.type_name in types and ref.cardinality in mandatory
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
    sccs: list[list[str]] = []
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
                    sccs.append(component)

    diags: list[Diagnostic] = []
    for component in sccs:
        is_cycle = len(component) > 1 or component[0] in edges[component[0]]
        if is_cycle:
            members = sorted(component)
            anchor = min((types[m] for m in members), key=lambda tt: (tt.line, tt.col))
            diags.append(
                Diagnostic(
                    condition="RecursiveRequiredReference",
                    severity=Severity.ERROR,
                    message=(
                        "required references form a cycle with no finite instances: "
                        + " -> ".join(members + [members[0]])
                    ),
                    file=schema.source_name,
                    line=anchor.line,
                    col=anchor.col,
                )
            )
    return diags


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def pretty_print_tag_schema(schema: TagSchema) -> str:
    """Render a schema back to canonical ``.tagschema`` text (round-trip safe)."""

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
        else:
            lines.append(f"{head}{scope} {{")
            for i, ref in enumerate(domain.references):
                sep = ";" if i == len(domain.references) - 1 else ","
                lines.append(f"        {ref.name}:{ref.type_name}{ref.cardinality.mark}{sep}")
            lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"
