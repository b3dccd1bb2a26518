"""Derivation of a language profile from a grammar manifest.

Given a :class:`~tagweaver.manifest.GrammarManifest`, this module computes
everything the generic tag and schema parsers need to know about the
described DSL:

* an **identifier rule** per non-skipped production, stating how instances
  of that nonterminal are referenced from tag files — by qualified name
  when the production is name-identifiable, otherwise by a bracketed
  snippet of concrete syntax;
* a **scope keyword** per non-skipped production (its name, or its
  ``@alias``), usable in schema scope clauses;
* a **scope keyword per distinguishing preceding identifier**: whenever a
  nonterminal occurs more than once on a right-hand side, each of its
  preceding identifiers becomes addressable.  The bare identifier is used
  when it is globally unambiguous — unique among all preceding identifiers
  in the grammar and distinct from every production name and plain
  keyword — otherwise it is prefixed with the owning production's keyword
  (``Transition_source``).

The keyword count therefore always equals the number of non-skipped
productions plus the number of distinguishing preceding identifiers on
non-skipped productions.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from functools import cached_property
from itertools import chain, groupby

from .diagnostics import render_json
from .errors import TagweaverError
from .manifest import GrammarManifest, Production
from .parsing import is_identifier
from .records import record

__all__ = [
    "IdentifierKind",
    "IdentifierRule",
    "ScopeKeyword",
    "LanguageProfile",
    "DerivationError",
    "derive_profile",
    "render_derived_grammar",
    "profile_to_json",
]


class DerivationError(TagweaverError):
    """The manifest cannot be turned into a usable language profile."""


# A slot's value in a bracket reference: a dotted name, blanks around its dots.
_DOTTED_NAME = r"(\w+(?:\s*\.\s*\w+)*)"


class IdentifierKind(str, Enum):
    QUALIFIED_NAME = "QualifiedName"
    BRACKET_SYNTAX = "BracketSyntax"


# ---------------------------------------------------------------------------
# Profile data model
# ---------------------------------------------------------------------------


@record
class IdentifierRule:
    """How model elements produced by one nonterminal are identified."""

    nonterminal: str
    kind: IdentifierKind
    syntax_sketch: str | None = None

    @cached_property
    def _pieces(self) -> tuple[tuple[bool, str], ...]:
        """The sketch as (is a slot, text) pieces: a slot's text is its run of words."""

        pieces: list[tuple[bool, str]] = []
        for is_slot, tokens in groupby((self.syntax_sketch or "").split(), is_identifier):
            if is_slot:
                pieces.append((True, " ".join(tokens)))
            else:
                pieces.extend((False, tok) for tok in tokens)
        return tuple(pieces)

    @cached_property
    def _pattern(self) -> re.Pattern[str]:
        """The sketch as one pattern: blanks around each piece, each slot a dotted name.

        A slot ends at the first ``.`` after it, so one that a ``.`` literal
        follows holds a single word.  A sketch without literals reads any text.
        """

        if not self.sketch_literals():
            return re.compile(r"(?s:.*)")
        after = [text for _, text in self._pieces[1:]] + [""]
        parts = [
            re.escape(text) if not is_slot else r"(\w+)" if following == "." else _DOTTED_NAME
            for (is_slot, text), following in zip(self._pieces, after)
        ]
        return re.compile(r"\s*" + r"\s*".join(parts) + r"\s*")

    def sketch_literals(self) -> tuple[str, ...]:
        """Non-identifier tokens of the sketch, i.e. required literal text."""

        return tuple(text for is_slot, text in self._pieces if not is_slot)

    @cached_property
    def slot_labels(self) -> tuple[str, ...]:
        """The word in each slot of the sketch: the label of the part its value names."""

        return tuple(text for is_slot, text in self._pieces if is_slot)

    def slot_values(self, raw: str) -> tuple[tuple[str, ...], ...] | None:
        """The dotted path in each slot of ``raw``, or None when ``raw`` has another form.

        ``raw`` must match the sketch's pattern, and each part of a slot's
        path must be an identifier.
        """

        match = self._pattern.fullmatch(raw)
        if match is None:
            return None
        slots = tuple([tuple([part.strip() for part in path.split(".")]) for path in match.groups()])
        return slots if all(map(is_identifier, chain.from_iterable(slots))) else None

    def render_slots(self, slots: tuple[tuple[str, ...], ...]) -> str:
        """The slot values between the sketch's literals, one blank apart."""

        values = iter(slots)
        return " ".join(".".join(next(values)) if is_slot else text for is_slot, text in self._pieces)


@record
class ScopeKeyword:
    """One keyword admissible in a schema scope clause."""

    keyword: str
    production: str
    preceding_identifier: str | None = None

    @property
    def is_nested(self) -> bool:
        return self.preceding_identifier is not None


@record
class LanguageProfile:
    grammar_name: str
    identifier_rules: tuple[IdentifierRule, ...]
    scope_keywords: tuple[ScopeKeyword, ...]

    def keyword_set(self) -> frozenset[str]:
        return frozenset(kw.keyword for kw in self.scope_keywords)

    def identifier_rule(self, nonterminal: str) -> IdentifierRule | None:
        for rule in self.identifier_rules:
            if rule.nonterminal == nonterminal:
                return rule
        return None

    def bracket_rules(self) -> tuple[IdentifierRule, ...]:
        return tuple(
            rule
            for rule in self.identifier_rules
            if rule.kind is IdentifierKind.BRACKET_SYNTAX
        )

    @cached_property
    def _bracket_order(self) -> tuple[tuple[int, IdentifierRule], ...]:
        """(number of sketch literals, rule) of each bracket rule, most first, stably sorted."""

        counted = [(len(rule.sketch_literals()), rule) for rule in self.bracket_rules()]
        return tuple(sorted(counted, key=lambda pair: -pair[0]))

    @cached_property
    def _readings(self) -> dict[str, tuple[tuple[IdentifierRule, tuple[tuple[str, ...], ...]], ...]]:
        """:meth:`bracket_readings` by text, filled as texts are asked for."""
        return {}

    def bracket_readings(self, raw: str) -> tuple[tuple[IdentifierRule, tuple[tuple[str, ...], ...]], ...]:
        """The bracket forms that read ``raw``, each with its slot values.

        Of the forms that fit ``raw`` (see :meth:`IdentifierRule.slot_values`),
        those with the most sketch literals read it, all of them, in
        declaration order; ``()`` when no form fits.  The tag-model parser
        and the resolver both ask this one question, so the answer is kept
        per ``raw`` for the life of the profile: each text is read once.
        """

        readings = self._readings.get(raw)
        if readings is None:
            found = []
            most = 0
            for literals, rule in self._bracket_order:
                if literals < most:
                    break
                slots = rule.slot_values(raw)
                if slots is not None:
                    found.append((rule, slots))
                    most = literals
            readings = self._readings[raw] = tuple(found)
        return readings


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def derive_profile(manifest: GrammarManifest) -> LanguageProfile:
    """Compute the language profile for ``manifest``.

    Raises :class:`DerivationError` when no production survives ``@skip``,
    when keyword aliases collide, and when a keyword is the name of a
    skipped production, whose elements keep that name as their type.
    """

    active = [prod for prod in manifest.productions if not prod.skipped]
    if not active:
        raise DerivationError(
            f"grammar '{manifest.grammar_name}' has no productions left to derive from"
        )

    identifier_rules = tuple(
        IdentifierRule(prod.name, IdentifierKind.QUALIFIED_NAME)
        if prod.name_identifiable
        else IdentifierRule(prod.name, IdentifierKind.BRACKET_SYNTAX, _sketch_for(prod))
        for prod in active
    )

    keywords: list[ScopeKeyword] = []
    used: set[str] = set()
    skipped = {prod.name for prod in manifest.productions if prod.skipped}

    def emit(keyword: ScopeKeyword) -> None:
        if keyword.keyword in used:
            raise DerivationError(
                f"scope keyword '{keyword.keyword}' derived twice "
                f"(second origin: production '{keyword.production}')"
            )
        if keyword.keyword in skipped:
            raise DerivationError(
                f"scope keyword '{keyword.keyword}' of production '{keyword.production}' "
                "is the name of a skipped production, whose elements keep it as their type"
            )
        used.add(keyword.keyword)
        keywords.append(keyword)

    for prod in active:
        emit(ScopeKeyword(prod.keyword, prod.name))

    # Global ambiguity data for the bare-identifier shortcut.  Preceding
    # identifiers anywhere in the grammar count, including on skipped
    # productions: a keyword that would be ambiguous in the full grammar
    # stays prefixed.
    pi_counts = Counter(
        ref.preceding_identifier
        for prod in manifest.productions
        for ref in prod.rhs_refs
        if ref.preceding_identifier is not None
    )
    production_names = {prod.name for prod in manifest.productions}
    plain_keywords = {prod.keyword for prod in active}

    for prod in active:
        for pi in _distinguishing_identifiers(prod):
            bare_is_unambiguous = (
                pi_counts[pi] == 1
                and pi not in production_names
                and pi not in plain_keywords
            )
            name = pi if bare_is_unambiguous else f"{prod.keyword}_{pi}"
            emit(ScopeKeyword(name, prod.name, preceding_identifier=pi))

    return LanguageProfile(
        grammar_name=manifest.grammar_name,
        identifier_rules=identifier_rules,
        scope_keywords=tuple(keywords),
    )


def _distinguishing_identifiers(prod: Production) -> list[str]:
    """Preceding identifiers on nonterminals that repeat within ``prod``."""

    counts = Counter(ref.nonterminal for ref in prod.rhs_refs)
    return [
        ref.preceding_identifier
        for ref in prod.rhs_refs
        if ref.preceding_identifier is not None and counts[ref.nonterminal] > 1
    ]


def _sketch_for(prod: Production) -> str:
    if prod.concrete_syntax_sketch is not None:
        return prod.concrete_syntax_sketch
    if prod.rhs_refs:
        return " ".join(
            ref.preceding_identifier if ref.preceding_identifier is not None else ref.nonterminal
            for ref in prod.rhs_refs
        )
    return prod.name


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def render_derived_grammar(profile: LanguageProfile) -> str:
    """Render the derived identifier and scope rules as a stable report."""

    lines = [f"derived tagging support for grammar {profile.grammar_name}", ""]

    lines.append("model element identifiers:")
    for rule in profile.identifier_rules:
        if rule.kind is IdentifierKind.QUALIFIED_NAME:
            lines.append(f"  {rule.nonterminal}: qualified name (DefaultIdent)")
        else:
            lines.append(
                f'  I_{rule.nonterminal} implements ModelElementIdentifier = '
                f'"[" {rule.syntax_sketch} "]";'
            )

    lines.append("")
    lines.append("scope identifiers:")
    for kw in profile.scope_keywords:
        if not kw.is_nested:
            lines.append(f'  SI_{kw.production} implements ScopeIdentifier = "{kw.keyword}";')

    nested = [kw for kw in profile.scope_keywords if kw.is_nested]
    if nested:
        lines.append("")
        lines.append("nested scope identifiers:")
        for kw in nested:
            lines.append(
                f'  SI_{kw.keyword} implements ScopeIdentifier = "{kw.keyword}";'
                f"  # {kw.production}.{kw.preceding_identifier}"
            )

    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def profile_to_json(profile: LanguageProfile) -> str:
    """Serialize a profile to deterministic, human-readable JSON."""

    payload = {
        "grammarName": profile.grammar_name,
        "identifierRules": [
            {
                "nonterminal": rule.nonterminal,
                "kind": rule.kind.value,
                "syntaxSketch": rule.syntax_sketch,
            }
            for rule in profile.identifier_rules
        ],
        "scopeKeywords": [
            {
                "keyword": kw.keyword,
                "production": kw.production,
                "precedingIdentifier": kw.preceding_identifier,
            }
            for kw in profile.scope_keywords
        ],
    }
    return render_json(payload)
