"""Tag model parsing against a language profile."""

from __future__ import annotations

import random

import pytest

from tagweaver import (
    Context,
    ElementIdentifier,
    ParseError,
    TagStatement,
    TagValue,
    derive_profile,
    parse_manifest,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
    pretty_print_tag_model,
)
from util import random_statechart_text, random_schema_text, random_tag_model

HEADER = 'package m;\nconforms to s.Types;\n\ntags T for Chart {\n'


def parse(body: str, profile) -> object:
    return parse_tag_model(HEADER + body + "}\n", profile)


class TestGoldenTagModel:
    def test_header(self, golden_tags):
        assert golden_tags.package == "mobile"
        assert golden_tags.conforms_to == ("loggingschema.StatechartTagSchema",)
        assert golden_tags.name == "StatechartTags"
        assert golden_tags.target_model == "Mobile"
        assert golden_tags.qualified_name == "mobile.StatechartTags"

    def test_body_shape(self, golden_tags):
        kinds = [type(item).__name__ for item in golden_tags.body]
        assert kinds == ["TagStatement", "Context", "TagStatement", "TagStatement"]

    def test_first_statement(self, golden_tags):
        stmt = golden_tags.body[0]
        assert [ref.text for ref in stmt.element_refs] == ["Mobile"]
        (tag,) = stmt.tag_refs
        assert tag.name == "Method"
        assert tag.value == TagValue.valued("App.call()")

    def test_context_statement(self, golden_tags):
        ctx = golden_tags.body[1]
        assert ctx.identifier.text == "Active"
        (stmt,) = ctx.body
        assert [ref.text for ref in stmt.element_refs] == ["Call", "Busy"]
        assert [tag.name for tag in stmt.tag_refs] == ["Monitored"]
        assert stmt.tag_refs[0].value == TagValue.simple()

    def test_complex_statement(self, golden_tags):
        stmt = golden_tags.body[3]
        (tag,) = stmt.tag_refs
        assert tag.name == "Exception"
        assert tag.value.kind == TagValue.COMPLEX
        assert [(s.name, s.value.raw) for s in tag.value.subtags] == [
            ("type", "NetworkException"),
            ("msg", "Problems connecting to the mobile network!"),
        ]

    def test_trailing_ellipsis_is_dropped(self, golden_tags):
        assert len(golden_tags.body) == 4

    def test_source_locations(self, golden_tags):
        stmt = golden_tags.body[0]
        assert (stmt.line, stmt.col) == (6, 5)

    def test_full_variant_adds_transition_tag(self, full_tags):
        stmt = full_tags.body[-1]
        (ref,) = stmt.element_refs
        assert ref.is_bracket
        assert ref.raw == "Start -> Active"
        assert ref.text == "[Start -> Active]"
        assert stmt.tag_refs[0].name == "Log"


class TestParsing:
    def test_multiple_conforms_clauses(self, profile):
        m = parse_tag_model(
            "package m;\nconforms to a.B, c.D;\ntags T for X { }\n", profile
        )
        assert m.conforms_to == ("a.B", "c.D")

    def test_missing_conforms(self, profile):
        with pytest.raises(
            ParseError, match=r"^<input>:2:1: expected 'conforms to <schema>;' after the package declaration$"
        ):
            parse_tag_model("package m;\ntags T for X { }\n", profile)

    def test_multi_tag_statement(self, profile):
        m = parse(' tag A with T1, T2 = "x";\n', profile)
        (stmt,) = m.body
        assert [t.name for t in stmt.tag_refs] == ["T1", "T2"]
        assert stmt.tag_refs[1].value == TagValue.valued("x")

    def test_string_escapes(self, profile):
        m = parse(' tag A with T = "say \\"hi\\" \\\\ done";\n', profile)
        assert m.body[0].tag_refs[0].value.raw == 'say "hi" \\ done'

    def test_empty_complex_value(self, profile):
        m = parse(" tag A with T {};\n", profile)
        assert m.body[0].tag_refs[0].value == TagValue(TagValue.COMPLEX, subtags=())

    def test_nested_complex_value(self, profile):
        m = parse(' tag A with T { a = "1", b { c = "2"; }; };\n', profile)
        (tag,) = m.body[0].tag_refs
        a, b = tag.value.subtags
        assert a.value == TagValue.valued("1")
        assert b.value.subtags[0].value == TagValue.valued("2")

    def test_flag_subtag(self, profile):
        m = parse(' tag A with T { flagchild, x = "1"; };\n', profile)
        flag, x = m.body[0].tag_refs[0].value.subtags
        assert flag.value == TagValue.simple()

    def test_dotted_element_reference(self, profile):
        m = parse(" tag Active.Call with T;\n", profile)
        assert m.body[0].element_refs[0].path == ("Active", "Call")

    def test_nested_contexts(self, profile):
        m = parse(" within A { within B { tag C with T; } }\n", profile)
        outer = m.body[0]
        inner = outer.body[0]
        assert isinstance(inner, Context)
        assert inner.identifier.text == "B"

    def test_ellipsis_inside_context(self, profile):
        m = parse(" within A { ... }\n", profile)
        assert m.body[0].body == ()

    def test_bracket_context_identifier(self, profile):
        m = parse(" within [Start -> Active] { tag A with T; }\n", profile)
        assert m.body[0].identifier.is_bracket

    def test_comments_are_skipped(self, profile):
        m = parse(" // line comment\n /* block\n comment */ tag A with T;\n", profile)
        assert len(m.body) == 1


class TestBracketAcceptance:
    def test_transition_shape_accepted(self, profile):
        m = parse(" tag [Start -> Active] with T;\n", profile)
        assert m.body[0].element_refs[0].raw == "Start -> Active"

    def test_expression_shape_accepted(self, profile):
        m = parse(" tag [status!=isActive] with T;\n", profile)
        assert m.body[0].element_refs[0].raw == "status!=isActive"

    def test_profile_without_bracket_rules_rejects_brackets(self):
        named_only = derive_profile(
            parse_manifest("grammar G\nexternal N\n@named production A = N\n")
        )
        with pytest.raises(
            ParseError,
            match=r"^<input>:5:6: '\[anything\]' matches no bracket identifier form "
            r"\(the 'G' profile declares no bracket identifier forms\)$",
        ):
            parse(" tag [anything] with T;\n", named_only)

    def test_unmatched_bracket_text_rejected(self):
        arrow_only = derive_profile(
            parse_manifest(
                'grammar G\nexternal N\n@named production A = N\n'
                '@sketch "a -> b" production T = x:N y:N\n'
            )
        )
        with pytest.raises(
            ParseError,
            match=r"^<input>:5:6: '\[no arrow here\]' matches no bracket identifier form "
            r"\(available bracket forms: T\)$",
        ):
            parse(" tag [no arrow here] with X;\n", arrow_only)
        m = parse(" tag [A -> B] with X;\n", arrow_only)
        assert m.body[0].element_refs[0].raw == "A -> B"


PARSE_ERRORS = [
    (" tag A T;\n", "expected 'with'"),
    (" tag A with T\n", "expected ';'"),
    (" tag with T;\n", "expected 'with', found 'T'"),
    (" oops;\n", "expected 'within', 'tag', or '}'"),
    (' tag A with T = "unterminated;\n}\n', "unterminated string"),
    (" within A tag B with T;\n", "expected '{'"),
    (' tag A with T { a = "1" b = "2"; };\n', "expected"),
]


@pytest.mark.parametrize("body,fragment", PARSE_ERRORS)
def test_parse_errors(body, fragment, profile):
    with pytest.raises(ParseError) as info:
        parse(body, profile)
    assert fragment in str(info.value)


class TestRoundTrip:
    def test_golden_round_trip(self, golden_tags, profile):
        printed = pretty_print_tag_model(golden_tags)
        assert parse_tag_model(printed, profile) == golden_tags

    def test_full_variant_round_trip(self, full_tags, profile):
        printed = pretty_print_tag_model(full_tags)
        assert parse_tag_model(printed, profile) == full_tags

    def test_golden_canonical_text(self, golden_tags):
        assert pretty_print_tag_model(golden_tags) == (
            "package mobile;\n"
            "conforms to loggingschema.StatechartTagSchema;\n"
            "\n"
            "tags StatechartTags for Mobile {\n"
            '    tag Mobile with Method = "App.call()";\n'
            "    within Active {\n"
            "        tag Call, Busy with Monitored;\n"
            "    }\n"
            "    tag Active with Monitored;\n"
            "    tag ConnectionProblems with Exception {\n"
            '        type = "NetworkException",\n'
            '        msg = "Problems connecting to the mobile network!";\n'
            "    };\n"
            "}\n"
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_random_round_trip(self, seed, profile):
        rng = random.Random(seed)
        target = parse_statechart(random_statechart_text(rng))
        schema = parse_tag_schema(random_schema_text(rng), profile)
        model = random_tag_model(rng, target, (schema,))
        printed = pretty_print_tag_model(model)
        assert parse_tag_model(printed, profile) == model


def test_element_identifier_text():
    assert ElementIdentifier.qualified("A", "B").text == "A.B"
    assert ElementIdentifier.bracket("x > 1").text == "[x > 1]"
