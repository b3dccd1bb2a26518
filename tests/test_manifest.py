"""Grammar manifest parsing: structure, errors, and round-trips."""

from __future__ import annotations

import random

import pytest

from tagweaver import (
    DuplicateProduction,
    ParseError,
    Production,
    RhsRef,
    UnknownNonterminalReference,
    parse_manifest,
    pretty_print_manifest,
)
from util import random_manifest_plan, render_manifest_plan


class TestGoldenManifest:
    def test_header(self, manifest):
        assert manifest.grammar_name == "Statechart"
        assert manifest.externals == ("Name", "Expression")
        assert manifest.interfaces == ("Element",)

    def test_production_order(self, manifest):
        names = [p.name for p in manifest.productions]
        assert names == [
            "SCDefinition",
            "State",
            "Transition",
            "Invariant",
            "TransitionBody",
        ]

    def test_root_production(self, manifest):
        root = manifest.production("SCDefinition")
        assert root.name_identifiable
        assert root.alias == "Statechart"
        assert root.keyword == "Statechart"
        assert [r.nonterminal for r in root.rhs_refs] == ["Name", "State", "Transition"]

    def test_state_production(self, manifest):
        state = manifest.production("State")
        assert state.name_identifiable
        assert state.alias is None
        assert state.keyword == "State"
        assert [r.nonterminal for r in state.rhs_refs] == ["Name", "State", "Invariant"]
        assert all(r.preceding_identifier is None for r in state.rhs_refs)

    def test_transition_production(self, manifest):
        tr = manifest.production("Transition")
        assert not tr.name_identifiable
        assert tr.concrete_syntax_sketch == "source -> target"
        assert [(r.preceding_identifier, r.nonterminal) for r in tr.rhs_refs] == [
            ("source", "Name"),
            ("target", "Name"),
        ]

    def test_skipped_elided_production(self, manifest):
        tb = manifest.production("TransitionBody")
        assert tb.skipped
        assert tb.rhs_elided
        assert tb.rhs_refs == ()

    def test_missing_production_lookup(self, manifest):
        assert manifest.production("NoSuchThing") is None


class TestParsing:
    def test_cardinality_marks_dropped(self):
        m = parse_manifest(
            "grammar G\nexternal A\nexternal B\nexternal C\nproduction P = A* B? C+\n"
        )
        assert [r.nonterminal for r in m.production("P").rhs_refs] == ["A", "B", "C"]

    def test_annotations_in_any_order(self):
        m = parse_manifest('grammar G\n@skip @sketch "s" @named production P\n')
        p = m.production("P")
        assert p.skipped and p.name_identifiable and p.concrete_syntax_sketch == "s"

    def test_alias_annotation(self):
        m = parse_manifest("grammar G\n@alias Chart production P\n")
        assert m.production("P").keyword == "Chart"

    def test_comments_and_blank_lines(self):
        text = "# header\n\ngrammar G  # trailing\n\n# more\nproduction P\n"
        assert parse_manifest(text).grammar_name == "G"

    def test_hash_inside_sketch_is_not_a_comment(self):
        m = parse_manifest('grammar G\n@sketch "a # b" production P\n')
        assert m.production("P").concrete_syntax_sketch == "a # b"

    def test_escapes_in_sketch(self):
        m = parse_manifest('grammar G\n@sketch "say \\"hi\\" \\\\ more" production P\n')
        assert m.production("P").concrete_syntax_sketch == 'say "hi" \\ more'

    def test_multiple_externals_on_one_line(self):
        m = parse_manifest("grammar G\nexternal A B\nproduction P = A B\n")
        assert m.externals == ("A", "B")

    def test_skip_interface_accepted(self):
        m = parse_manifest("grammar G\n@skip interface I\nproduction P = I\n")
        assert m.interfaces == ("I",)

    def test_pi_on_repeated_nonterminal(self):
        m = parse_manifest("grammar G\nexternal N\nproduction P = a:N b:N\n")
        refs = m.production("P").rhs_refs
        assert refs == (RhsRef("N", "a"), RhsRef("N", "b"))

    def test_equals_sign_needs_no_spaces(self):
        m = parse_manifest("grammar G\nexternal N\nproduction P =N\n")
        assert m.production("P").rhs_refs == (RhsRef("N"),)


ERROR_CASES = [
    ("production P\n", ParseError, "expected 'grammar"),
    ("grammar G\ngrammar H\n", ParseError, "duplicate 'grammar'"),
    ("grammar G\nproduction P\nproduction P\n", DuplicateProduction, "already declared"),
    ("grammar G\nproduction P\ninterface P\n", DuplicateProduction, "already declared"),
    ("grammar G\nexternal N\nexternal N\n", DuplicateProduction, "already declared"),
    ("grammar G\nproduction P = Ghost\n", UnknownNonterminalReference, "undeclared"),
    (
        "grammar G\nexternal N\nproduction P = N N\n",
        ParseError,
        "needs a preceding identifier",
    ),
    ("grammar G\nexternal N\nproduction P = a:N a:N\n", ParseError, "used twice"),
    ("grammar G\n@alias K interface I\n", ParseError, "only '@skip'"),
    ("grammar G\n@named interface I\n", ParseError, "only '@skip'"),
    ("grammar G\n@wat production P\n", ParseError, "unknown annotation"),
    ("grammar G\n@named @named production P\n", ParseError, "duplicate annotation"),
    ("grammar G\n@alias\n", ParseError, "expected keyword after '@alias'"),
    ("grammar G\n@alias \"K\" production P\n", ParseError, "expected keyword after '@alias'"),
    ("grammar G\n@sketch production P\n", ParseError, "expected quoted text"),
    ("grammar G\nexternal N\nproduction P = a:b:c\n", ParseError, "malformed reference"),
    ("grammar G\nproduction 9x\n", ParseError, "invalid identifier"),
    ("grammar G\nproduction Straße\n", ParseError, "invalid identifier"),
    ('grammar G\n@sketch "oops production P\n', ParseError, "unterminated string"),
    ("grammar G\ninterface A B\n", ParseError, "exactly one interface name"),
    ("grammar G\nproduction P Name\n", ParseError, "expected '='"),
    ("grammar G\nwidget P\n", ParseError, "expected 'production'"),
    ("# nothing here\n\n", ParseError, "empty manifest"),
    ("grammar G\nexternal\n", ParseError, "expected nonterminal name"),
    ("grammar G\n@named\n", ParseError, "expected 'production' or 'interface'"),
]


@pytest.mark.parametrize("text,exc,fragment", ERROR_CASES)
def test_parse_errors(text, exc, fragment):
    with pytest.raises(exc) as info:
        parse_manifest(text)
    assert fragment in str(info.value)


def test_error_location_formatting():
    with pytest.raises(ParseError) as info:
        parse_manifest("grammar G\nproduction P = Ghost\n", filename="g.glang")
    err = info.value
    assert err.line == 2
    assert str(err).startswith("g.glang:2:16:")


class TestRoundTrip:
    def test_golden_round_trip(self, manifest):
        printed = pretty_print_manifest(manifest)
        assert parse_manifest(printed) == manifest

    def test_printed_text_is_stable(self, manifest):
        printed = pretty_print_manifest(manifest)
        assert pretty_print_manifest(parse_manifest(printed)) == printed

    @pytest.mark.parametrize("seed", range(50))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        text = render_manifest_plan(random_manifest_plan(rng), rng)
        manifest = parse_manifest(text)
        assert parse_manifest(pretty_print_manifest(manifest)) == manifest


def test_production_equality_ignores_line_numbers():
    a = Production(name="P", line=1)
    b = Production(name="P", line=99)
    assert a == b
