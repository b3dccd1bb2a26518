"""Parser for grammar manifests (``.glang`` files).

A grammar manifest is a compact, line-oriented description of the grammar
of some source DSL.  It records just enough structure to derive tagging
support for that DSL: which nonterminals exist, which of them are
identified by a name, and which preceding identifiers distinguish repeated
nonterminals on a right-hand side.

Format, one declaration per line, ``#`` comments::

    grammar Statechart

    external Name
    external Expression

    @named @alias Statechart production SCDefinition = Name State* Transition*
    @named production State = Name State* Invariant?
    @sketch "source -> target" production Transition = source:Name target:Name
    production Invariant = Expression
    @skip interface Element
    @skip production TransitionBody = ...

Annotations:

* ``@named``  -- the production's instances carry a name of their own.
* ``@skip``   -- keep the production in the manifest but exclude it from
  all derivation output (useful for mirroring a full grammar).
* ``@alias K``  -- use ``K`` instead of the production name as the derived
  scope keyword.
* ``@sketch "..."`` -- the production's bracket identifier form: a
  pattern a ``[...]`` reference must match, its non-identifier words the
  literals, and each run of words a slot whose value is the element's part
  that the words label (see
  :meth:`~tagweaver.derivation.IdentifierRule.slot_values`).

Right-hand sides list nonterminal references, each optionally prefixed
with a preceding identifier (``source:Name``) and optionally suffixed
with a cardinality mark (``?``, ``*``, ``+``) which is accepted and
ignored.  ``= ...`` marks a right-hand side as elided.  Every referenced
nonterminal must be defined as a production, declared as an ``interface``,
or declared ``external``, and no nonterminal may be declared twice.  A
nonterminal that occurs more than once on one right-hand side needs a
preceding identifier on every occurrence, and no preceding identifier may
occur twice there.  The parser keeps a breach of any of these rules as one
of ``GrammarManifest.findings``; a line it cannot read raises
:class:`~tagweaver.errors.ParseError`.
"""

from __future__ import annotations

import re
from collections import Counter

from .diagnostics import Condition, Diagnostic, reporter
from .errors import ParseError
from .parsing import EOF, STRING, Token, TokenCursor, escape_string, is_identifier, unescape_string
from .records import field, record

__all__ = [
    "RhsRef",
    "Production",
    "GrammarManifest",
    "parse_manifest",
    "pretty_print_manifest",
]


# ---------------------------------------------------------------------------
# Data model
# ---------------------------------------------------------------------------


@record
class RhsRef:
    """One nonterminal occurrence on a right-hand side."""

    nonterminal: str
    preceding_identifier: str | None = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@record
class Production:
    name: str
    name_identifiable: bool = False
    rhs_refs: tuple[RhsRef, ...] = ()
    concrete_syntax_sketch: str | None = None
    skipped: bool = False
    alias: str | None = None
    rhs_elided: bool = False
    line: int = field(default=0, compare=False)

    @property
    def keyword(self) -> str:
        """The scope keyword this production would contribute."""

        return self.alias if self.alias is not None else self.name


@record
class GrammarManifest:
    grammar_name: str
    productions: tuple[Production, ...]
    interfaces: tuple[str, ...] = ()
    externals: tuple[str, ...] = ()
    # The breaches of the declaration and right-hand-side rules; set by parse_manifest.
    findings: tuple[Diagnostic, ...] = field(default=(), compare=False)

    def production(self, name: str) -> Production | None:
        for prod in self.productions:
            if prod.name == name:
                return prod
        return None


# ---------------------------------------------------------------------------
# Line scanning
# ---------------------------------------------------------------------------

_CARDINALITY = "?*+"
WORD = "word"  # the token kinds are WORD, parsing.STRING, "=" and parsing.EOF

# One match reads one token of a line, or a ``#`` comment (group 4), or a
# lone ``"`` that opens no string (group 5).  Words run up to blank, ``#``,
# ``"`` or ``=``; strings end on the line and unescape only ``\"`` and
# ``\\``, a backslash before anything else standing for itself.
_TOKEN = re.compile(r'''([^ \t#"=]+)|"((?:[^"\\]|\\["\\]|\\(?!["\\]))*)"|(=)|(#)|(")''')


def _is_ident(text: str) -> bool:
    # Manifests stay ASCII-only; otherwise the model languages' rule.
    return text.isascii() and is_identifier(text)


def _scan_line(line: str, lineno: int, filename: str | None) -> list[Token]:
    """Split one line into ``word``, ``string`` and ``=`` tokens, then EOF."""

    tokens: list[Token] = []
    for m in _TOKEN.finditer(line):
        group, col = m.lastindex, m.start() + 1
        if group == 1:
            tokens.append(Token(WORD, m[1], lineno, col))
        elif group == 2:
            tokens.append(Token(STRING, unescape_string(m[2]), lineno, col))
        elif group == 3:
            tokens.append(Token("=", "=", lineno, col))
        elif group == 4:
            break
        else:
            raise ParseError("unterminated string", lineno, col, filename)
    tokens.append(Token(EOF, "", lineno, len(line) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_manifest(text: str, filename: str | None = None) -> GrammarManifest:
    """Parse manifest source text into a :class:`GrammarManifest`.

    Raises :class:`ParseError` for malformed lines.  A nonterminal declared
    twice, a right-hand side that mentions an undeclared nonterminal, a
    repeated nonterminal without a preceding identifier and a preceding
    identifier used twice in one right-hand side are kept as ``findings``.
    """

    grammar_name: str | None = None
    productions: list[Production] = []
    interfaces: list[str] = []
    externals: list[str] = []
    declared: dict[str, int] = {}  # nonterminal -> line of first declaration
    findings: list[Diagnostic] = []
    report = reporter(findings, filename)

    def declare(tok: Token) -> None:
        if tok.value in declared:
            report(
                Condition.DUPLICATE_PRODUCTION,
                f"nonterminal '{tok.value}' already declared on line {declared[tok.value]}",
                tok.line,
                tok.col,
            )
        else:
            declared[tok.value] = tok.line

    for lineno, line in enumerate(text.splitlines(), start=1):
        cur = TokenCursor(_scan_line(line, lineno, filename), filename)
        head = cur.peek()
        if head.kind == EOF:
            continue

        if grammar_name is None:
            keyword = cur.match(WORD, "grammar")
            name = cur.advance()
            if keyword is None or name.kind in (STRING, EOF):
                raise cur.error("expected 'grammar <Name>' as the first declaration", head)
            grammar_name = _ident(cur, name).value
            extra = cur.peek()
            if extra.kind != EOF:
                raise cur.error(f"unexpected '{_shown(extra)}' after the grammar name", extra)
        elif cur.at(WORD, "grammar"):
            raise cur.error("duplicate 'grammar' declaration", head)
        elif cur.match(WORD, "external"):
            if cur.at(EOF):
                raise cur.error("expected nonterminal name after 'external'", head)
            while not cur.at(EOF):
                name = _ident(cur, cur.advance())
                declare(name)
                externals.append(name.value)
        else:
            _parse_declaration(cur, declare, report, productions, interfaces)

    if grammar_name is None:
        raise ParseError("empty manifest: no 'grammar' declaration", 1, 1, filename)

    for prod in productions:
        for ref in prod.rhs_refs:
            if ref.nonterminal not in declared:
                report(
                    Condition.UNKNOWN_NONTERMINAL_REFERENCE,
                    f"reference to undeclared nonterminal '{ref.nonterminal}' "
                    "(declare it as a production, interface, or external)",
                    ref.line,
                    ref.col,
                )

    return GrammarManifest(
        grammar_name=grammar_name,
        productions=tuple(productions),
        interfaces=tuple(interfaces),
        externals=tuple(externals),
        findings=tuple(findings),
    )


def _parse_declaration(
    cur: TokenCursor,
    declare,
    report,
    productions: list[Production],
    interfaces: list[str],
) -> None:
    named = False
    skipped = False
    alias: str | None = None
    sketch: str | None = None
    seen: set[str] = set()

    while cur.at(WORD) and cur.peek().value.startswith("@"):
        ann = cur.advance()
        if ann.value in seen:
            raise cur.error(f"duplicate annotation '{ann.value}'", ann)
        seen.add(ann.value)
        if ann.value == "@named":
            named = True
        elif ann.value == "@skip":
            skipped = True
        elif ann.value == "@alias":
            if cur.at(EOF) or cur.at(STRING):
                raise cur.error("expected keyword after '@alias'", ann)
            alias = _ident(cur, cur.advance()).value
        elif ann.value == "@sketch":
            if not cur.at(STRING):
                raise cur.error("expected quoted text after '@sketch'", ann)
            sketch = cur.advance().value
        else:
            raise cur.error(f"unknown annotation '{ann.value}'", ann)

    if cur.at(EOF):
        raise cur.error("expected 'production' or 'interface' declaration")

    keyword = cur.advance()
    if keyword.kind == WORD and keyword.value == "interface":
        if alias is not None or sketch is not None or named:
            raise cur.error("only '@skip' may be applied to an interface", keyword)
        name = cur.advance()
        if name.kind == EOF or not cur.at(EOF):
            raise cur.error("expected exactly one interface name", keyword)
        declare(_ident(cur, name))
        interfaces.append(name.value)
        return

    if (keyword.kind, keyword.value) != (WORD, "production"):
        message = f"expected 'production', 'interface', or 'external', found '{_shown(keyword)}'"
        raise cur.error(message, keyword)

    if cur.at(EOF):
        raise cur.error("expected production name", keyword)
    name = _ident(cur, cur.advance())
    declare(name)

    rhs_refs: list[RhsRef] = []
    rhs_elided = False
    if not cur.at(EOF):
        if not cur.match("="):
            raise cur.error("expected '=' after production name")
        # ``...`` alone elides the right-hand side; anywhere else it is malformed.
        dots = cur.match(WORD, "...")
        if dots is not None and cur.at(EOF):
            rhs_elided = True
        elif dots is not None:
            raise cur.error("malformed reference '...'", dots)
        while not cur.at(EOF):
            rhs_refs.append(_parse_ref(cur))
        _check_rhs(name.value, rhs_refs, report)

    productions.append(
        Production(
            name=name.value,
            name_identifiable=named,
            rhs_refs=tuple(rhs_refs),
            concrete_syntax_sketch=sketch,
            skipped=skipped,
            alias=alias,
            rhs_elided=rhs_elided,
            line=name.line,
        )
    )


def _parse_ref(cur: TokenCursor) -> RhsRef:
    tok = cur.advance()
    if tok.kind == STRING:
        raise cur.error("unexpected string in right-hand side", tok)
    text = tok.value
    if text and text[-1] in _CARDINALITY:
        text = text[:-1]
    pi, colon, text = text.rpartition(":")
    if not _is_ident(text) or (colon and not _is_ident(pi)):
        raise cur.error(f"malformed reference '{tok.value}'", tok)
    return RhsRef(text, pi if colon else None, line=tok.line, col=tok.col)


def _check_rhs(prod_name: str, refs: list[RhsRef], report) -> None:
    counts = Counter(ref.nonterminal for ref in refs)
    pis: set[str] = set()
    for ref in refs:
        pi = ref.preceding_identifier
        if pi is None and counts[ref.nonterminal] > 1:
            report(
                Condition.UNLABELLED_REPEATED_NONTERMINAL,
                f"nonterminal '{ref.nonterminal}' occurs more than once in '{prod_name}' "
                "and needs a preceding identifier on every occurrence",
                ref.line,
                ref.col,
            )
        elif pi in pis:
            report(
                Condition.DUPLICATE_PRECEDING_IDENTIFIER,
                f"preceding identifier '{pi}' used twice in '{prod_name}'",
                ref.line,
                ref.col,
            )
        elif pi is not None:
            pis.add(pi)


def _shown(tok: Token) -> str:
    # A quoted word is a string, and shows as one.
    return f'"{escape_string(tok.value)}"' if tok.kind == STRING else tok.value


def _ident(cur: TokenCursor, tok: Token) -> Token:
    """``tok``, which must be an unquoted identifier."""

    if tok.kind != WORD or not _is_ident(tok.value):
        raise cur.error(f"invalid identifier '{tok.value}'", tok)
    return tok


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def pretty_print_manifest(manifest: GrammarManifest) -> str:
    """Render a manifest back to canonical ``.glang`` text.

    Parsing the result yields a manifest equal to the input (cardinality
    marks are not retained, and interfaces print without annotations).
    """

    lines = [f"grammar {manifest.grammar_name}", ""]
    for name in manifest.externals:
        lines.append(f"external {name}")
    for name in manifest.interfaces:
        lines.append(f"interface {name}")
    for prod in manifest.productions:
        parts: list[str] = []
        if prod.name_identifiable:
            parts.append("@named")
        if prod.skipped:
            parts.append("@skip")
        if prod.alias is not None:
            parts.append(f"@alias {prod.alias}")
        if prod.concrete_syntax_sketch is not None:
            parts.append(f'@sketch "{escape_string(prod.concrete_syntax_sketch)}"')
        parts.append(f"production {prod.name}")
        if prod.rhs_elided:
            parts.append("= ...")
        elif prod.rhs_refs:
            refs = " ".join(
                f"{ref.preceding_identifier}:{ref.nonterminal}"
                if ref.preceding_identifier is not None
                else ref.nonterminal
                for ref in prod.rhs_refs
            )
            parts.append(f"= {refs}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
