"""Language-profile derivation: identifier rules, keywords, serialization."""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagweaver import (
    CheckInput,
    DerivationError,
    IdentifierKind,
    IdentifierRule,
    LanguageProfile,
    ScopeKeyword,
    Workspace,
    check,
    check_workspace,
    derive_profile,
    load_workspace,
    parse_manifest,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
    profile_to_json,
    render_derived_grammar,
)
from tagweaver.cli import run_cli
from util import (
    oracle_render_slots,
    oracle_slot_values,
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

    def test_alias_names_a_skipped_production(self):
        with pytest.raises(DerivationError) as raised:
            derive("grammar G\n@skip production S\nproduction A\n@alias S production B\n")
        assert str(raised.value) == (
            "scope keyword 'S' of production 'B' is the name of a skipped production, "
            "whose elements keep it as their type"
        )

    def test_prefixed_pi_names_a_skipped_production(self):
        with pytest.raises(DerivationError, match="'A_s' of production 'A' is the name of a skipped"):
            derive(
                "grammar G\nexternal E\nexternal F\n"
                "@skip production A_s\n"
                "production A = s:E s2:E\n"
                "production B = s:F s3:F\n"
            )

    def test_alias_of_a_skipped_state_is_refused_by_every_command(self, tmp_path, capsys):
        manifest = tmp_path / "skip.glang"
        manifest.write_text(
            "grammar Statechart\nexternal Name\nexternal Expression\n"
            "@named @alias Statechart production SCDefinition = Name State* Transition*\n"
            "@skip @named production State = Name State* Invariant?\n"
            '@alias State @sketch "source -> target" '
            "production Transition = source:Name target:Name\n"
            "production Invariant = Expression\n"
        )
        files = {
            "m.sc": "package p;\nstatechart M {\n state A;\n state B;\n A -> B;\n}\n",
            "s.tagschema": "package p;\ntagschema S {\n tagtype T for State;\n}\n",
            "t.tag": "package p;\nconforms to p.S;\ntags TT for M {\n"
            " tag A with T;\n tag [A -> B] with T;\n}\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        inputs = ["--model", str(tmp_path / "m.sc"), "--schema", str(tmp_path / "s.tagschema"),
                  "--tags", str(tmp_path / "t.tag")]
        for argv in (
            ["derive", "--manifest", str(manifest), "--out", str(tmp_path / "out")],
            ["check", "--manifest", str(manifest), *inputs],
            ["export", "--manifest", str(manifest), *inputs],
        ):
            assert run_cli(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "error: scope keyword 'State' of production 'Transition' is the name of a "
                "skipped production, whose elements keep it as their type\n"
            )
        assert not (tmp_path / "out").exists()

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


# Sketch words and literals without word characters, and the pieces of
# texts to read by them.
_SKETCH_WORDS = ["a", "b", "src", "é", "a²"]
_SKETCH_LITERALS = ["->", "=>", "<-", "(", ")", "/", ".", ".."]
_TEXT_PIECES = ["a", "x1", "é", "a²", "_b", "1", "42", ".", " ", "\n", "->", "=>", "<-", "(", ")", "/"]


@st.composite
def _sketch_and_text(draw) -> tuple[str, str]:
    tokens = draw(st.lists(st.sampled_from(_SKETCH_WORDS + _SKETCH_LITERALS), min_size=1, max_size=5))
    pieces = st.lists(st.sampled_from(_TEXT_PIECES), max_size=4).map("".join)
    paths = st.lists(st.sampled_from(["a", "x1", "é", "a²", "1"]), min_size=1, max_size=3)
    if draw(st.booleans()):
        # A text that follows the sketch: each literal kept, each word a
        # dotted path or other pieces.
        fill = st.one_of(paths.map(".".join), paths.map(" . ".join), pieces)
        parts = [tok if tok in _SKETCH_LITERALS else draw(fill) for tok in tokens]
        text = "".join(draw(st.sampled_from(["", " ", "\n"])) + part for part in parts)
    else:
        text = "".join(draw(st.lists(pieces, max_size=4)))
    return " ".join(tokens), text


class TestReadingAgreesWithTheScanner:
    """The sketch's pattern reads what the first-occurrence scanner of ``util`` reads."""

    @settings(derandomize=True, deadline=None, max_examples=1500)
    @given(case=_sketch_and_text())
    @example(case=("a . ( b )", "x . y . ( z )"))
    @example(case=("a . b", "x.y.z"))
    @example(case=("a .", "a.a."))
    @example(case=("a -> b", "x -> y -> z"))
    @example(case=("src", "x > 1"))
    def test_slot_values_and_render_slots(self, case):
        sketch, raw = case
        rule = IdentifierRule("T", IdentifierKind.BRACKET_SYNTAX, sketch)
        slots = rule.slot_values(raw)
        assert slots == oracle_slot_values(sketch, raw)
        if slots is not None and rule.sketch_literals():
            assert rule.render_slots(slots) == oracle_render_slots(sketch, slots)

    def test_a_run_of_words_is_one_slot(self):
        rule = IdentifierRule("T", IdentifierKind.BRACKET_SYNTAX, "a b -> c")
        assert rule.slot_labels == ("a b", "c")
        assert rule.slot_values("x -> y") == (("x",), ("y",))


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


class TestReadingsAreKept:
    """``bracket_readings`` reads each text once per profile: the parser's reading serves the resolver."""

    @pytest.fixture
    def reads(self, monkeypatch) -> Counter:
        """Count the calls of ``IdentifierRule.slot_values``, by (rule instance, text)."""
        counted: Counter = Counter()
        slot_values = IdentifierRule.slot_values

        def counting(rule, raw):
            counted[id(rule), raw] += 1
            return slot_values(rule, raw)

        monkeypatch.setattr(IdentifierRule, "slot_values", counting)
        return counted

    def test_parse_and_check_of_the_samples_read_each_text_once(self, reads, samples_dir, manifest_text):
        profile = derive(manifest_text)
        chart = parse_statechart((samples_dir / "mobile.sc").read_text())
        schema = parse_tag_schema((samples_dir / "logging_schema.tagschema").read_text(), profile)
        for name in ("mobile_tags.tag", "mobile_tags_full.tag"):
            tags = parse_tag_model((samples_dir / name).read_text(), profile)
            diags, resolved = check(CheckInput(tags, chart, (schema,), profile))
            assert resolved is not None, diags
        # The samples' one bracket reference, read by the transition form alone.
        assert list(reads.values()) == [1] and [raw for _, raw in reads] == ["Start -> Active"]

    def test_a_flat_brackets_workspace_reads_each_text_once(self, reads, tmp_path):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        generated = workloads.generate("flat-brackets", 4242, tmp_path, quick=True)
        loaded = load_workspace(Workspace(
            manifest_file=generated.manifest,
            model_files=(generated.model,),
            schema_files=(generated.schema,),
            tag_files=tuple(generated.tag_files),
        ))
        diags, resolved = check_workspace(loaded)
        assert sum(len(r.attachments) for r in resolved) == generated.expected.pairs, diags
        texts = {raw for _, raw in reads}
        assert len(texts) > 10 and any("->" in raw for raw in texts)
        assert set(reads.values()) == {1}

    def test_a_kept_reading_is_the_one_a_fresh_profile_makes(self, reads, manifest_text):
        profile = derive(manifest_text)
        first = profile.bracket_readings("Start -> Active")
        assert isinstance(first, tuple) and profile.bracket_readings("Start -> Active") is first
        assert first == derive(manifest_text).bracket_readings("Start -> Active")

    def test_a_text_that_no_form_reads_is_kept_as_empty(self, reads):
        rule = IdentifierRule("T", IdentifierKind.BRACKET_SYNTAX, "source -> target")
        profile = LanguageProfile("G", (rule,), ())
        assert profile.bracket_readings("Start ->") == ()
        assert reads == {(id(rule), "Start ->"): 1}
        assert profile.bracket_readings("Start ->") == ()
        assert reads == {(id(rule), "Start ->"): 1}
