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

import json
from enum import Enum
from functools import cached_property

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
    def _sketch(self) -> tuple[tuple[tuple[str, bool], ...], tuple[str, ...], tuple[str, ...]]:
        """The sketch's steps, its literals and the words of each slot.

        Each step is a literal ("" for the end of the text) and whether a
        slot, a run of words, comes before it.
        """

        steps: list[tuple[str, bool]] = []
        labels: list[str] = []
        in_slot = False
        for tok in (self.syntax_sketch or "").split():
            if not is_identifier(tok):
                steps.append((tok, in_slot))
                in_slot = False
            elif in_slot:
                labels[-1] += " " + tok
            else:
                labels.append(tok)
                in_slot = True
        literals = tuple(literal for literal, _ in steps)
        return (*steps, ("", in_slot)), literals, tuple(labels)

    def sketch_literals(self) -> tuple[str, ...]:
        """Non-identifier tokens of the sketch, i.e. required literal text."""

        return self._sketch[1]

    @property
    def slot_labels(self) -> tuple[str, ...]:
        """The word in each slot of the sketch: the label of the part its value names."""

        return self._sketch[2]

    def slot_values(self, raw: str) -> tuple[tuple[str, ...], ...] | None:
        """The dotted path in each slot of ``raw``, or None when ``raw`` has another form.

        ``raw`` is split at the sketch's literals, found in order.  A gap
        that the sketch fills with words is a slot and needs a dotted name;
        any other gap must be blank.  A sketch without literals reads any
        text, with no slots.
        """

        steps, literals, _ = self._sketch
        if not literals:
            return ()
        slots: list[tuple[str, ...]] = []
        pos = 0
        for literal, after_slot in steps:
            end = raw.find(literal, pos) if literal else len(raw)
            if end < 0:
                return None
            gap = raw[pos:end]
            if after_slot:
                path = tuple([part.strip() for part in gap.split(".")])
                if not all(map(is_identifier, path)):
                    return None
                slots.append(path)
            elif gap.strip():
                return None
            pos = end + len(literal)
        return tuple(slots)

    def render_slots(self, slots: tuple[tuple[str, ...], ...]) -> str:
        """The slot values between the sketch's literals, one blank apart."""

        values = iter(slots)
        words: list[str] = []
        for literal, after_slot in self._sketch[0]:
            if after_slot:
                words.append(".".join(next(values)))
            if literal:
                words.append(literal)
        return " ".join(words)


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
    def _bracket_tiers(self) -> tuple[tuple[IdentifierRule, ...], ...]:
        """The bracket rules grouped by their number of sketch literals, most first."""

        tiers: dict[int, list[IdentifierRule]] = {}
        for rule in self.bracket_rules():
            tiers.setdefault(len(rule.sketch_literals()), []).append(rule)
        return tuple(tuple(tiers[n]) for n in sorted(tiers, reverse=True))

    def bracket_readings(self, raw: str) -> list[tuple[IdentifierRule, tuple[tuple[str, ...], ...]]]:
        """The bracket forms that read ``raw``, each with its slot values.

        Of the forms that fit ``raw`` (see :meth:`IdentifierRule.slot_values`),
        those with the most sketch literals read it, all of them, in
        declaration order; [] when no form fits.  The tag-model parser and
        the resolver both ask this one question.
        """

        for tier in self._bracket_tiers:
            readings = []
            for rule in tier:
                slots = rule.slot_values(raw)
                if slots is not None:
                    readings.append((rule, slots))
            if readings:
                return readings
        return []


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def derive_profile(manifest: GrammarManifest) -> LanguageProfile:
    """Compute the language profile for ``manifest``.

    Raises :class:`DerivationError` when no production survives ``@skip``
    and when keyword aliases collide.
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

    def emit(keyword: ScopeKeyword) -> None:
        if keyword.keyword in used:
            raise DerivationError(
                f"scope keyword '{keyword.keyword}' derived twice "
                f"(second origin: production '{keyword.production}')"
            )
        used.add(keyword.keyword)
        keywords.append(keyword)

    for prod in active:
        emit(ScopeKeyword(prod.keyword, prod.name))

    # Global ambiguity data for the bare-identifier shortcut.  Preceding
    # identifiers anywhere in the grammar count, including on skipped
    # productions: a keyword that would be ambiguous in the full grammar
    # stays prefixed.
    pi_counts: dict[str, int] = {}
    for prod in manifest.productions:
        for ref in prod.rhs_refs:
            if ref.preceding_identifier is not None:
                pi_counts[ref.preceding_identifier] = pi_counts.get(ref.preceding_identifier, 0) + 1
    production_names = {prod.name for prod in manifest.productions}
    plain_keywords = {prod.keyword for prod in active}

    for prod in active:
        for st, pi in _distinguishing_identifiers(prod):
            bare_is_unambiguous = (
                pi_counts.get(pi, 0) == 1
                and pi not in production_names
                and pi not in plain_keywords
            )
            name = pi if bare_is_unambiguous else f"{prod.keyword}_{pi}"
            emit(ScopeKeyword(name, st, preceding_identifier=pi))

    return LanguageProfile(
        grammar_name=manifest.grammar_name,
        identifier_rules=identifier_rules,
        scope_keywords=tuple(keywords),
    )


def _distinguishing_identifiers(prod: Production) -> list[tuple[str, str]]:
    """Preceding identifiers on nonterminals that repeat within ``prod``."""

    counts: dict[str, int] = {}
    for ref in prod.rhs_refs:
        counts[ref.nonterminal] = counts.get(ref.nonterminal, 0) + 1
    return [
        (prod.name, ref.preceding_identifier)
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
    return json.dumps(payload, indent=2) + "\n"
