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
* ``@sketch "..."`` -- free-text sketch of the production's concrete
  syntax, used when documenting bracketed identifier forms.

Right-hand sides list nonterminal references, each optionally prefixed
with a preceding identifier (``source:Name``) and optionally suffixed
with a cardinality mark (``?``, ``*``, ``+``) which is accepted and
ignored.  ``= ...`` marks a right-hand side as elided.  Every referenced
nonterminal must be defined as a production, declared as an ``interface``,
or declared ``external``, and no nonterminal may be declared twice; the
parser keeps a breach of either rule as one of ``GrammarManifest.findings``.
"""

from __future__ import annotations

from .diagnostics import Condition, Diagnostic, reporter
from .errors import ParseError
from .parsing import escape_string, is_identifier
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
    # Duplicate declarations and undeclared references; set by parse_manifest.
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


def _is_ident(text: str) -> bool:
    # Manifests stay ASCII-only; otherwise the model languages' rule.
    return text.isascii() and is_identifier(text)


@record
class _Word:
    text: str
    col: int
    quoted: bool = False


def _scan_line(line: str, lineno: int, filename: str | None) -> list[_Word]:
    """Split one line into words, honouring quotes and ``#`` comments."""

    words: list[_Word] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch == '"':
            i += 1
            out: list[str] = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n and line[i + 1] in ('"', "\\"):
                    out.append(line[i + 1])
                    i += 2
                    continue
                out.append(line[i])
                i += 1
            if i >= n:
                raise ParseError("unterminated string", lineno, col, filename)
            i += 1
            words.append(_Word("".join(out), col, quoted=True))
            continue
        if ch == "=":
            words.append(_Word("=", col))
            i += 1
            continue
        start = i
        while i < n and line[i] not in ' \t#"' and line[i] != "=":
            i += 1
        words.append(_Word(line[start:i], col))
    return words


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_manifest(text: str, filename: str | None = None) -> GrammarManifest:
    """Parse manifest source text into a :class:`GrammarManifest`.

    Raises :class:`ParseError` for malformed lines.  A nonterminal declared
    twice and a right-hand side that mentions an undeclared nonterminal are
    kept as ``findings``.
    """

    grammar_name: str | None = None
    productions: list[Production] = []
    interfaces: list[str] = []
    externals: list[str] = []
    declared: dict[str, int] = {}  # nonterminal -> line of first declaration
    findings: list[Diagnostic] = []
    report = reporter(findings, filename)

    def declare(name: str, lineno: int, col: int) -> None:
        if name in declared:
            report(
                Condition.DUPLICATE_PRODUCTION,
                f"nonterminal '{name}' already declared on line {declared[name]}",
                lineno,
                col,
            )
        else:
            declared[name] = lineno

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        words = _scan_line(raw_line, lineno, filename)
        if not words:
            continue

        if grammar_name is None:
            if words[0].text != "grammar" or len(words) != 2 or words[1].quoted:
                raise ParseError(
                    "expected 'grammar <Name>' as the first declaration",
                    lineno,
                    words[0].col,
                    filename,
                )
            _require_ident(words[1], lineno, filename)
            grammar_name = words[1].text
            continue

        head = words[0]
        if head.text == "grammar":
            raise ParseError("duplicate 'grammar' declaration", lineno, head.col, filename)

        if head.text == "external":
            if len(words) < 2:
                raise ParseError("expected nonterminal name after 'external'", lineno, head.col, filename)
            for word in words[1:]:
                _require_ident(word, lineno, filename)
                declare(word.text, lineno, word.col)
                externals.append(word.text)
            continue

        _parse_declaration(words, lineno, filename, declare, productions, interfaces)

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
    words: list[_Word],
    lineno: int,
    filename: str | None,
    declare,
    productions: list[Production],
    interfaces: list[str],
) -> None:
    named = False
    skipped = False
    alias: str | None = None
    sketch: str | None = None
    seen: set[str] = set()

    i = 0
    while i < len(words) and words[i].text.startswith("@") and not words[i].quoted:
        ann = words[i]
        if ann.text in seen:
            raise ParseError(f"duplicate annotation '{ann.text}'", lineno, ann.col, filename)
        seen.add(ann.text)
        if ann.text == "@named":
            named = True
            i += 1
        elif ann.text == "@skip":
            skipped = True
            i += 1
        elif ann.text == "@alias":
            if i + 1 >= len(words) or words[i + 1].quoted:
                raise ParseError("expected keyword after '@alias'", lineno, ann.col, filename)
            _require_ident(words[i + 1], lineno, filename)
            alias = words[i + 1].text
            i += 2
        elif ann.text == "@sketch":
            if i + 1 >= len(words) or not words[i + 1].quoted:
                raise ParseError("expected quoted text after '@sketch'", lineno, ann.col, filename)
            sketch = words[i + 1].text
            i += 2
        else:
            raise ParseError(f"unknown annotation '{ann.text}'", lineno, ann.col, filename)

    if i >= len(words):
        raise ParseError("expected 'production' or 'interface' declaration", lineno, 1, filename)

    keyword = words[i]
    if keyword.text == "interface":
        if alias is not None or sketch is not None or named:
            raise ParseError(
                "only '@skip' may be applied to an interface", lineno, keyword.col, filename
            )
        if i + 1 >= len(words) or len(words) > i + 2:
            raise ParseError("expected exactly one interface name", lineno, keyword.col, filename)
        name_word = words[i + 1]
        _require_ident(name_word, lineno, filename)
        declare(name_word.text, lineno, name_word.col)
        interfaces.append(name_word.text)
        return

    if keyword.text != "production":
        raise ParseError(
            f"expected 'production', 'interface', or 'external', found '{keyword.text}'",
            lineno,
            keyword.col,
            filename,
        )

    if i + 1 >= len(words):
        raise ParseError("expected production name", lineno, keyword.col, filename)
    name_word = words[i + 1]
    _require_ident(name_word, lineno, filename)
    declare(name_word.text, lineno, name_word.col)

    rhs_refs: tuple[RhsRef, ...] = ()
    rhs_elided = False
    rest = words[i + 2 :]
    if rest:
        if rest[0].text != "=" or rest[0].quoted:
            raise ParseError("expected '=' after production name", lineno, rest[0].col, filename)
        body = rest[1:]
        if len(body) == 1 and body[0].text == "..." and not body[0].quoted:
            rhs_elided = True
        else:
            rhs_refs = tuple(_parse_ref(word, lineno, filename) for word in body)
            _check_rhs(name_word.text, rhs_refs, lineno, filename)

    productions.append(
        Production(
            name=name_word.text,
            name_identifiable=named,
            rhs_refs=rhs_refs,
            concrete_syntax_sketch=sketch,
            skipped=skipped,
            alias=alias,
            rhs_elided=rhs_elided,
            line=lineno,
        )
    )


def _parse_ref(word: _Word, lineno: int, filename: str | None) -> RhsRef:
    if word.quoted:
        raise ParseError("unexpected string in right-hand side", lineno, word.col, filename)
    text = word.text
    if text and text[-1] in _CARDINALITY:
        text = text[:-1]
    pi: str | None = None
    if ":" in text:
        pi_text, _, nt_text = text.partition(":")
        if not _is_ident(pi_text) or not _is_ident(nt_text):
            raise ParseError(f"malformed reference '{word.text}'", lineno, word.col, filename)
        pi = pi_text
        text = nt_text
    elif not _is_ident(text):
        raise ParseError(f"malformed reference '{word.text}'", lineno, word.col, filename)
    return RhsRef(nonterminal=text, preceding_identifier=pi, line=lineno, col=word.col)


def _check_rhs(
    prod_name: str, refs: tuple[RhsRef, ...], lineno: int, filename: str | None
) -> None:
    counts: dict[str, int] = {}
    for ref in refs:
        counts[ref.nonterminal] = counts.get(ref.nonterminal, 0) + 1
    pis: set[str] = set()
    for ref in refs:
        if counts[ref.nonterminal] > 1 and ref.preceding_identifier is None:
            raise ParseError(
                f"nonterminal '{ref.nonterminal}' occurs more than once in '{prod_name}' "
                "and needs a preceding identifier on every occurrence",
                ref.line,
                ref.col,
                filename,
            )
        if ref.preceding_identifier is not None:
            if ref.preceding_identifier in pis:
                raise ParseError(
                    f"preceding identifier '{ref.preceding_identifier}' used twice in '{prod_name}'",
                    ref.line,
                    ref.col,
                    filename,
                )
            pis.add(ref.preceding_identifier)


def _require_ident(word: _Word, lineno: int, filename: str | None) -> None:
    if word.quoted or not _is_ident(word.text):
        raise ParseError(f"invalid identifier '{word.text}'", lineno, word.col, filename)


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
