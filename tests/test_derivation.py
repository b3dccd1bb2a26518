"""Language-profile derivation: identifier rules, keywords, serialization."""

from __future__ import annotations

import json
import random

import pytest

from tagweaver import (
    DerivationError,
    IdentifierKind,
    IdentifierRule,
    LanguageProfile,
    ScopeKeyword,
    derive_profile,
    parse_manifest,
    profile_to_json,
    render_derived_grammar,
)
from util import (
    plan_keyword_count,
    plan_keywords,
    random_manifest_plan,
    render_manifest_plan,
)


def derive(text: str) -> LanguageProfile:
    return derive_profile(parse_manifest(text))


class TestGoldenProfile:
    def test_keywords_in_order(self, profile):
        assert [kw.keyword for kw in profile.scope_keywords] == [
            "Statechart",
            "State",
            "Transition",
            "Invariant",
            "source",
            "target",
        ]

    def test_keyword_origins(self, profile):
        by_name = {kw.keyword: kw for kw in profile.scope_keywords}
        assert by_name["Statechart"].production == "SCDefinition"
        assert not by_name["Statechart"].is_nested
        assert by_name["source"].production == "Transition"
        assert by_name["source"].preceding_identifier == "source"
        assert by_name["source"].is_nested

    def test_identifier_rules(self, profile):
        kinds = {r.nonterminal: r.kind for r in profile.identifier_rules}
        assert kinds == {
            "SCDefinition": IdentifierKind.QUALIFIED_NAME,
            "State": IdentifierKind.QUALIFIED_NAME,
            "Transition": IdentifierKind.BRACKET_SYNTAX,
            "Invariant": IdentifierKind.BRACKET_SYNTAX,
        }
        assert profile.identifier_rule("Transition").syntax_sketch == "source -> target"
        assert profile.identifier_rule("Invariant").syntax_sketch == "Expression"

    def test_skipped_production_absent(self, profile):
        assert profile.identifier_rule("TransitionBody") is None
        assert "TransitionBody" not in profile.keyword_set()

    def test_keyword_set(self, profile):
        assert profile.keyword_set() == {
            "Statechart",
            "State",
            "Transition",
            "Invariant",
            "source",
            "target",
        }


class TestDerivationRules:
    def test_named_production_gets_qualified_name(self):
        p = derive("grammar G\n@named production A\n")
        assert p.identifier_rule("A").kind is IdentifierKind.QUALIFIED_NAME

    def test_unnamed_production_gets_bracket_syntax(self):
        p = derive("grammar G\nproduction A\n")
        rule = p.identifier_rule("A")
        assert rule.kind is IdentifierKind.BRACKET_SYNTAX
        assert rule.syntax_sketch == "A"  # falls back to the production name

    def test_default_sketch_uses_rhs_shape(self):
        p = derive("grammar G\nexternal E\nexternal F\nproduction A = x:E F\n")
        assert p.identifier_rule("A").syntax_sketch == "x F"

    def test_explicit_sketch_wins(self):
        p = derive('grammar G\nexternal E\n@sketch "lhs := rhs" production A = E\n')
        assert p.identifier_rule("A").syntax_sketch == "lhs := rhs"

    def test_bare_pi_when_globally_unique(self):
        p = derive("grammar G\nexternal E\nproduction A = s:E t:E\n")
        assert [kw.keyword for kw in p.scope_keywords] == ["A", "s", "t"]

    def test_pi_on_unrepeated_nonterminal_is_not_a_keyword(self):
        p = derive("grammar G\nexternal E\nexternal F\nproduction A = s:E t:F\n")
        assert [kw.keyword for kw in p.scope_keywords] == ["A"]

    def test_pi_shared_across_productions_is_prefixed(self):
        p = derive(
            "grammar G\nexternal E\nexternal F\n"
            "production A = s:E t:E\n"
            "production B = s:F u:F\n"
        )
        assert [kw.keyword for kw in p.scope_keywords] == ["A", "B", "A_s", "t", "B_s", "u"]

    def test_pi_clashing_with_production_name_is_prefixed(self):
        p = derive("grammar G\nexternal E\nproduction A\nproduction B = A:E x:E\n")
        assert [kw.keyword for kw in p.scope_keywords] == ["A", "B", "B_A", "x"]

    def test_pi_clashing_with_alias_keyword_is_prefixed(self):
        p = derive("grammar G\nexternal E\n@alias K production A = K:E z:E\n")
        assert [kw.keyword for kw in p.scope_keywords] == ["K", "K_K", "z"]

    def test_pi_on_skipped_production_still_counts_for_ambiguity(self):
        p = derive(
            "grammar G\nexternal E\nexternal F\n"
            "@skip production S = p:E q:E\n"
            "production A = p:F r:F\n"
        )
        # 'p' also occurs on the skipped production, so it stays prefixed;
        # the skipped production itself contributes nothing.
        assert [kw.keyword for kw in p.scope_keywords] == ["A", "A_p", "r"]

    def test_alias_replaces_production_name(self):
        p = derive("grammar G\n@alias Chart production A\n")
        assert [kw.keyword for kw in p.scope_keywords] == ["Chart"]
        assert p.scope_keywords[0].production == "A"

    def test_interfaces_and_externals_contribute_nothing(self, profile):
        assert "Name" not in profile.keyword_set()
        assert "Element" not in profile.keyword_set()
        assert profile.identifier_rule("Name") is None


class TestDerivationErrors:
    def test_everything_skipped(self):
        with pytest.raises(DerivationError, match="^grammar 'G' has no productions left to derive from$"):
            derive("grammar G\n@skip production A\n@skip production B\n")

    def test_alias_collision(self):
        with pytest.raises(DerivationError, match="derived twice"):
            derive("grammar G\n@alias X production A\n@alias X production B\n")

    def test_alias_collides_with_production_name(self):
        with pytest.raises(DerivationError, match="derived twice"):
            derive("grammar G\nproduction A\n@alias A production B\n")

    def test_prefixed_pi_collides_with_production_keyword(self):
        with pytest.raises(DerivationError, match="derived twice"):
            derive(
                "grammar G\nexternal E\nexternal F\n"
                "production A_s\n"
                "production A = s:E s2:E\n"
                "production B = s:F s3:F\n"
            )


class TestCountingLaw:
    CASES = [
        ("grammar G\nproduction A\n", 1),
        ("grammar G\nexternal E\nproduction A = s:E t:E\n", 3),
        ("grammar G\nexternal E\nproduction A = s:E\n", 1),
        (
            "grammar G\nexternal E\n@skip production S = a:E b:E\nproduction A\n",
            1,
        ),
        (
            "grammar G\nexternal E\nexternal F\n"
            "production A = s:E t:E\nproduction B = s:F u:F v:E\n",
            6,  # A, B + A_s, t, B_s, u ('v' rides on an unrepeated E)
        ),
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_counts(self, text, expected):
        assert len(derive(text).scope_keywords) == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_random_manifests_match_plan_oracle(self, seed):
        rng = random.Random(seed)
        plan = random_manifest_plan(rng)
        profile = derive(render_manifest_plan(plan, rng))
        assert len(profile.scope_keywords) == plan_keyword_count(plan)
        assert [kw.keyword for kw in profile.scope_keywords] == plan_keywords(plan)


class TestBracketMatching:
    def test_arrow_sketch_literals(self):
        rule = IdentifierRule("T", IdentifierKind.BRACKET_SYNTAX, "source -> target")
        assert rule.sketch_literals() == ("->",)
        assert rule.slot_values("Start -> Active") is not None
        assert rule.slot_values("StartActive") is None

    def test_sketch_words_follow_the_tokenizer_identifier_rule(self):
        rule = IdentifierRule("T", IdentifierKind.BRACKET_SYNTAX, "a² -> b")
        assert rule.sketch_literals() == ("->",)

    def test_literal_free_sketch_matches_anything(self):
        rule = IdentifierRule("I", IdentifierKind.BRACKET_SYNTAX, "Expression")
        assert rule.sketch_literals() == ()
        assert rule.slot_values("status != isActive") is not None
        assert rule.slot_values("") is not None

    def test_multiple_literals_must_appear_in_order(self):
        rule = IdentifierRule("W", IdentifierKind.BRACKET_SYNTAX, "when ( cond )")
        assert rule.sketch_literals() == ("(", ")")
        assert rule.slot_values("when (x)") is not None
        assert rule.slot_values("when )x(") is None
        assert rule.slot_values("x") is None

    def test_slot_values_follow_the_sketch(self):
        rule = IdentifierRule("W", IdentifierKind.BRACKET_SYNTAX, "when ( cond )")
        assert rule.slot_values("when ( a . b )") == (("when",), ("a", "b"))
        assert rule.render_slots((("when",), ("a", "b"))) == "when ( a.b )"
        # A gap the sketch leaves empty must stay blank; a slot needs a dotted name.
        assert rule.slot_values("when (x) y") is None
        assert rule.slot_values("when (x > 1)") is None
        assert IdentifierRule("I", IdentifierKind.BRACKET_SYNTAX, "Expression").slot_values("x > 1") == ()

    def test_profile_level_matching(self, profile):
        # The form with more literals reads the text alone.
        readings = profile.bracket_readings("Start -> Active")
        assert [(r.nonterminal, slots) for r, slots in readings] == [
            ("Transition", (("Start",), ("Active",)))
        ]
        readings = profile.bracket_readings("status != isActive")
        assert [(r.nonterminal, slots) for r, slots in readings] == [("Invariant", ())]

    def test_bracket_rules_listing(self, profile):
        assert [r.nonterminal for r in profile.bracket_rules()] == [
            "Transition",
            "Invariant",
        ]


class TestRendering:
    def test_golden_report(self, profile):
        expected = (
            "derived tagging support for grammar Statechart\n"
            "\n"
            "model element identifiers:\n"
            "  SCDefinition: qualified name (DefaultIdent)\n"
            "  State: qualified name (DefaultIdent)\n"
            '  I_Transition implements ModelElementIdentifier = "[" source -> target "]";\n'
            '  I_Invariant implements ModelElementIdentifier = "[" Expression "]";\n'
            "\n"
            "scope identifiers:\n"
            '  SI_SCDefinition implements ScopeIdentifier = "Statechart";\n'
            '  SI_State implements ScopeIdentifier = "State";\n'
            '  SI_Transition implements ScopeIdentifier = "Transition";\n'
            '  SI_Invariant implements ScopeIdentifier = "Invariant";\n'
            "\n"
            "nested scope identifiers:\n"
            '  SI_source implements ScopeIdentifier = "source";  # Transition.source\n'
            '  SI_target implements ScopeIdentifier = "target";  # Transition.target\n'
        )
        assert render_derived_grammar(profile) == expected

    def test_report_without_nested_section(self):
        report = render_derived_grammar(derive("grammar G\nproduction A\n"))
        assert "nested scope identifiers" not in report


def _profile_as_dict(profile) -> dict:
    """Every field of the profile, as ``profile_to_json`` is expected to write it."""

    return {
        "grammarName": profile.grammar_name,
        "identifierRules": [
            {"nonterminal": rule.nonterminal, "kind": rule.kind.value,
             "syntaxSketch": rule.syntax_sketch}
            for rule in profile.identifier_rules
        ],
        "scopeKeywords": [
            {"keyword": kw.keyword, "production": kw.production,
             "precedingIdentifier": kw.preceding_identifier}
            for kw in profile.scope_keywords
        ],
    }


class TestProfileJson:
    def test_round_trip(self, profile):
        assert json.loads(profile_to_json(profile)) == _profile_as_dict(profile)

    def test_serialization_is_deterministic(self, profile):
        assert profile_to_json(profile) == profile_to_json(profile)

    def test_json_shape(self, profile):
        payload = json.loads(profile_to_json(profile))
        assert payload["grammarName"] == "Statechart"
        assert payload["identifierRules"][0] == {
            "nonterminal": "SCDefinition",
            "kind": "QualifiedName",
            "syntaxSketch": None,
        }
        assert payload["scopeKeywords"][4] == {
            "keyword": "source",
            "production": "Transition",
            "precedingIdentifier": "source",
        }

    @pytest.mark.parametrize("seed", range(10))
    def test_random_profiles_round_trip(self, seed):
        rng = random.Random(seed)
        profile = derive(render_manifest_plan(random_manifest_plan(rng), rng))
        assert json.loads(profile_to_json(profile)) == _profile_as_dict(profile)


def test_scope_keyword_nested_flag():
    assert not ScopeKeyword("A", "A").is_nested
    assert ScopeKeyword("s", "T", preceding_identifier="s").is_nested
