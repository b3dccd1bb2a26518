"""Tag schema parsing, well-formedness validation, and round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagweaver import (
    Cardinality,
    DomainSpec,
    ParseError,
    Reference,
    ScopeSpec,
    TagSchema,
    TagTypeDef,
    Workspace,
    WorkspaceError,
    load_workspace,
    parse_tag_schema,
    pretty_print_tag_schema,
)
from util import random_schema_text, required_chain_schema_text

HEADER = "package s;\ntagschema Types {\n"


def parse(body: str, profile) -> TagSchema:
    return parse_tag_schema(HEADER + body + "}\n", profile)


def findings(body: str, profile) -> list[tuple]:
    return [(d.condition, d.message, d.line, d.col) for d in parse(body, profile).findings]


def printed(schema: TagSchema, profile) -> TagSchema:
    # How a schema built (or changed) by hand is judged: print it, then parse the text.
    return parse_tag_schema(pretty_print_tag_schema(schema), profile)


class TestGoldenSchema:
    def test_header(self, schema):
        assert schema.package == "loggingschema"
        assert schema.name == "StatechartTagSchema"
        assert schema.qualified_name == "loggingschema.StatechartTagSchema"

    def test_type_names(self, schema):
        assert [tt.name for tt in schema.tag_types] == [
            "Monitored",
            "Log",
            "Method",
            "Exception",
        ]
        assert not any(tt.is_private for tt in schema.tag_types)

    def test_simple_type(self, schema):
        tt = schema.tag_type("Monitored")
        assert tt.domain == DomainSpec.simple()
        assert tt.scope == ScopeSpec.listed("State")

    def test_enum_type(self, schema):
        tt = schema.tag_type("Log")
        assert tt.domain == DomainSpec.enum_of("timestamp", "callerID")
        assert tt.scope == ScopeSpec.listed("Transition")

    def test_native_type(self, schema):
        tt = schema.tag_type("Method")
        assert tt.domain == DomainSpec.of_native("String")
        assert tt.scope == ScopeSpec.listed("Statechart")

    def test_complex_type(self, schema):
        tt = schema.tag_type("Exception")
        assert tt.domain.kind == DomainSpec.COMPLEX
        assert tt.domain.references == (
            Reference("type", "String", is_native=True),
            Reference("msg", "String", is_native=True),
        )

    def test_lookup_miss(self, schema):
        assert schema.tag_type("Nope") is None

    def test_validates_clean(self, schema, profile):
        assert schema.findings == ()


class TestParsing:
    def test_omitted_scope_means_any(self, profile):
        tt = parse(" tagtype T;\n", profile).tag_type("T")
        assert tt.scope.is_any
        assert tt.scope.admits("State") and tt.scope.admits("Anything")

    def test_plus_scope_means_any(self, profile):
        tt = parse(" tagtype T for +;\n", profile).tag_type("T")
        assert tt.scope.is_any

    def test_multi_keyword_scope(self, profile):
        tt = parse(" tagtype T for State, Transition;\n", profile).tag_type("T")
        assert tt.scope == ScopeSpec.listed("State", "Transition")
        assert tt.scope.admits("State")
        assert not tt.scope.admits("Invariant")

    def test_private_flag(self, profile):
        tt = parse(" private tagtype T;\n", profile).tag_type("T")
        assert tt.is_private

    def test_all_native_kinds(self, profile):
        s = parse(
            " tagtype A:int;\n tagtype B:String;\n tagtype C:Boolean;\n", profile
        )
        assert s.tag_type("A").domain == DomainSpec.of_native("int")
        assert s.tag_type("B").domain == DomainSpec.of_native("String")
        assert s.tag_type("C").domain == DomainSpec.of_native("Boolean")

    def test_single_value_enum(self, profile):
        tt = parse(' tagtype T:["only"];\n', profile).tag_type("T")
        assert tt.domain == DomainSpec.enum_of("only")

    def test_all_cardinalities(self, profile):
        s = parse(
            " tagtype T { a:int, b:int?, c:int*, d:int+; }\n", profile
        )
        cards = [r.cardinality for r in s.tag_type("T").domain.references]
        assert cards == [
            Cardinality.REQUIRED,
            Cardinality.OPTIONAL,
            Cardinality.MANY,
            Cardinality.AT_LEAST_ONE,
        ]

    def test_named_reference(self, profile):
        s = parse(" tagtype T { other:U; }\n tagtype U;\n", profile)
        ref = s.tag_type("T").domain.references[0]
        assert not ref.is_native
        assert ref.type_name == "U"

    def test_forward_reference_is_fine(self, profile):
        s = parse(" tagtype A { b:B; }\n tagtype B;\n", profile)
        assert s.tag_type("A").domain.reference("b").type_name == "B"

    def test_scope_and_references_combined(self, profile):
        tt = parse(" tagtype T for State { a:int; }\n", profile).tag_type("T")
        assert tt.scope == ScopeSpec.listed("State")
        assert tt.domain.kind == DomainSpec.COMPLEX


class TestParseErrors:
    def test_declared_domain_plus_reference_block(self, profile):
        with pytest.raises(ParseError, match="already has a value domain"):
            parse(" tagtype T:int { a:int; }\n", profile)

    def test_unknown_native_kind(self, profile):
        with pytest.raises(ParseError, match="expected a native type"):
            parse(" tagtype T:Floaty;\n", profile)

    def test_unknown_native_kind_message(self, profile):
        with pytest.raises(ParseError) as raised:
            parse(" tagtype T:Floaty;\n", profile)
        assert str(raised.value) == (
            "<input>:3:12: expected a native type (int, String, Boolean) or an '[' enumeration"
        )

    def test_a_word_where_the_terminator_belongs(self, profile):
        with pytest.raises(ParseError) as raised:
            parse(" tagtype T:int State;\n", profile)
        assert str(raised.value) == "<input>:3:16: expected ';' or a '{' reference block"

    def test_empty_reference_block(self, profile):
        with pytest.raises(ParseError):
            parse(" tagtype T { }\n", profile)

    def test_semicolon_after_reference_block(self, profile):
        with pytest.raises(ParseError, match="tagtype"):
            parse(" tagtype T { a:int; };\n", profile)

    def test_duplicate_tag_type_names_are_a_finding(self, profile):
        assert findings(" tagtype T;\n tagtype T;\n", profile) == [
            ("DuplicateTagTypeName", "tag type 'T' already defined on line 3", 4, 10)
        ]

    def test_duplicate_enum_values_are_a_finding(self, profile):
        assert findings(' tagtype T:["a"|"a"];\n', profile) == [
            ("DuplicateEnumValue", 'duplicate enumeration value "a" in \'T\'', 3, 17)
        ]

    def test_duplicate_reference_names_are_a_finding(self, profile):
        assert findings(" tagtype T { a:int, a:String; }\n", profile) == [
            ("DuplicateReferenceName", "duplicate reference name 'a' in 'T'", 3, 21)
        ]

    def test_unknown_scope_keyword_is_a_finding(self, profile):
        assert findings(" tagtype Log for Transation;\n", profile) == [
            ("UnknownScopeKeyword", "'Transation' is not a scope keyword of grammar 'Statechart'", 3, 18)
        ]

    def test_unresolved_named_reference_is_a_finding(self, profile):
        assert findings(" tagtype T { g:Ghost; }\n", profile) == [
            ("UnresolvedNamedReference", "reference 'g' of 'T' points to unknown tag type 'Ghost'", 3, 14)
        ]

    def test_missing_package(self, profile):
        with pytest.raises(ParseError, match="package"):
            parse_tag_schema("tagschema X { }\n", profile)


class TestFindingsMatchTheValidator:
    def test_unknown_scope_keyword_becomes_diagnostic(self, profile):
        diags = parse(" tagtype Log for Transation;\n", profile).findings
        assert [d.condition for d in diags] == ["UnknownScopeKeyword"]
        assert "'Transation'" in diags[0].message
        assert diags[0].severity.value == "error"

    def test_unresolved_reference_becomes_diagnostic(self, profile):
        diags = parse(" tagtype T { g:Ghost; }\n", profile).findings
        assert [d.condition for d in diags] == ["UnresolvedNamedReference"]


# One case per schema error condition: the body (from line 3), and the
# condition, message and position of its one finding.
SINGLE_PROBLEMS = [
    pytest.param(
        " tagtype T;\n tagtype T;\n",
        "DuplicateTagTypeName", "tag type 'T' already defined on line 3", 4, 10,
        id="duplicate-tag-type",
    ),
    pytest.param(
        ' tagtype T:["a"|"b"|"a"];\n',
        "DuplicateEnumValue", 'duplicate enumeration value "a" in \'T\'', 3, 21,
        id="duplicate-enum-value",
    ),
    pytest.param(
        " tagtype T { a:int, a:String; }\n",
        "DuplicateReferenceName", "duplicate reference name 'a' in 'T'", 3, 21,
        id="duplicate-reference-name",
    ),
    pytest.param(
        " tagtype Log for State, Transation;\n",
        "UnknownScopeKeyword", "'Transation' is not a scope keyword of grammar 'Statechart'", 3, 25,
        id="unknown-scope-keyword",
    ),
    pytest.param(
        " tagtype T { g:Ghost; }\n",
        "UnresolvedNamedReference", "reference 'g' of 'T' points to unknown tag type 'Ghost'", 3, 14,
        id="unresolved-named-reference",
    ),
]
PROBLEM_ARGS = "body, condition, message, line, col"


class TestOneValidationPath:
    @pytest.mark.parametrize(PROBLEM_ARGS, SINGLE_PROBLEMS)
    def test_parse_keeps_the_condition(self, profile, body, condition, message, line, col):
        assert findings(body, profile) == [(condition, message, line, col)]

    @pytest.mark.parametrize(PROBLEM_ARGS, SINGLE_PROBLEMS)
    def test_validator_reports_the_same(self, profile, body, condition, message, line, col):
        diags = parse(body, profile).findings
        assert [(d.condition, d.message, d.line, d.col) for d in diags] == [
            (condition, message, line, col)
        ]

    @pytest.mark.parametrize(PROBLEM_ARGS, SINGLE_PROBLEMS)
    def test_workspace_reports_the_same(
        self, profile, samples_dir, tmp_path, body, condition, message, line, col
    ):
        path = tmp_path / "bad.tagschema"
        path.write_text(HEADER + body + "}\n")
        ws = Workspace(
            manifest_file=samples_dir / "statechart.glang",
            model_files=(samples_dir / "mobile.sc",),
            schema_files=(path,),
        )
        with pytest.raises(WorkspaceError, match=r"^schema 's\.Types' is not well-formed$") as info:
            load_workspace(ws)
        assert [
            (d.condition, d.message, d.file, d.line, d.col)
            for d in info.value.diagnostics
        ] == [(condition, message, str(path), line, col)]

    @pytest.mark.parametrize(
        "body, conditions",
        [
            (" tagtype Log for Transation;\n tagtype T { g:Ghost; }\n",
             ["UnknownScopeKeyword", "UnresolvedNamedReference"]),
            (" tagtype Ends for source;\n tagtype T { t:T; }\n",
             ["ScopeAdmitsNoElement", "RecursiveRequiredReference"]),
            (" tagtype T;\n", []),
        ],
    )
    def test_parse_keeps_what_the_validator_found(self, profile, body, conditions):
        schema = parse(body, profile)

        def found(diags):
            # The printed text lays the tag types out anew, so positions differ.
            return [(d.condition, d.severity, d.message) for d in diags]

        assert [d.condition for d in schema.findings] == conditions
        assert found(schema.findings) == found(printed(schema, profile).findings)
        assert schema == TagSchema(schema.package, schema.name, schema.tag_types)

    def test_validator_reports_tag_type_by_tag_type(self, profile):
        body = (
            " tagtype C { c:C; }\n"
            " tagtype A for Nodee { g:Ghost, g:int; }\n"
            ' tagtype A:["x"|"x"];\n'
        )
        assert [(c, line, col) for c, _, line, col in findings(body, profile)] == [
            ("UnknownScopeKeyword", 4, 16),
            ("UnresolvedNamedReference", 4, 24),
            ("DuplicateReferenceName", 4, 33),
            ("DuplicateTagTypeName", 5, 10),
            ("DuplicateEnumValue", 5, 17),
            ("RecursiveRequiredReference", 3, 10),  # cycles come last
        ]

    @pytest.mark.parametrize(
        "body, expected",
        [
            # Every problem is kept, tag type by tag type in source order.
            pytest.param(
                " tagtype A for Nodee { g:Ghost, g:int; }\n",
                [("UnknownScopeKeyword", 3, 16), ("UnresolvedNamedReference", 3, 24),
                 ("DuplicateReferenceName", 3, 33)],
                id="scope-keyword-before-references",
            ),
            pytest.param(
                ' tagtype T;\n tagtype T:["a"|"a"];\n',
                [("DuplicateTagTypeName", 4, 10), ("DuplicateEnumValue", 4, 17)],
                id="type-name-before-its-enum-values",
            ),
            pytest.param(
                ' tagtype A:["x"|"x"];\n tagtype B for Nodee;\n tagtype A;\n',
                [("DuplicateEnumValue", 3, 17), ("UnknownScopeKeyword", 4, 16),
                 ("DuplicateTagTypeName", 5, 10)],
                id="every-tag-type-in-turn",
            ),
        ],
    )
    def test_several_problems_are_all_kept(self, profile, body, expected):
        assert [(c, line, col) for c, _, line, col in findings(body, profile)] == expected

    def test_a_syntax_error_anywhere_raises(self, profile):
        with pytest.raises(ParseError) as info:
            parse(" tagtype T;\n tagtype T;\n tagtype U:Floaty;\n", profile)
        assert (type(info.value), info.value.line, info.value.col) == (ParseError, 5, 12)


class TestValidation:
    def test_duplicate_names_on_constructed_schema(self, profile):
        s = TagSchema(
            package="p",
            name="S",
            tag_types=(
                TagTypeDef("A", DomainSpec.simple()),
                TagTypeDef("A", DomainSpec.simple()),
            ),
        )
        assert [d.condition for d in printed(s, profile).findings] == [
            "DuplicateTagTypeName"
        ]

    def test_an_empty_enumeration_cannot_be_parsed(self, profile):
        # So the validator has no empty-domain condition to report.
        with pytest.raises(ParseError, match=r"^<input>:3:13: expected a string literal, found '\]'$"):
            parse(" tagtype T:[];\n", profile)

    def test_duplicated_enum_values_on_constructed_schema(self, profile):
        s = TagSchema(
            package="p",
            name="S",
            tag_types=(TagTypeDef("A", DomainSpec.enum_of("x", "x")),),
        )
        assert [d.condition for d in printed(s, profile).findings] == [
            "DuplicateEnumValue"
        ]

    def test_duplicate_reference_names_on_constructed_schema(self, profile):
        refs = (
            Reference("a", "int", is_native=True),
            Reference("a", "String", is_native=True),
        )
        s = TagSchema(
            package="p",
            name="S",
            tag_types=(TagTypeDef("A", DomainSpec.complex_of(*refs)),),
        )
        assert [d.condition for d in printed(s, profile).findings] == [
            "DuplicateReferenceName"
        ]


class TestRequiredCycles:
    def validate(self, body: str, profile) -> list[str]:
        return [d.condition for d in parse(body, profile).findings]

    def test_self_loop(self, profile):
        assert self.validate(" tagtype A { again:A; }\n", profile) == [
            "RecursiveRequiredReference"
        ]

    def test_two_cycle(self, profile):
        conditions = self.validate(
            " tagtype A { b:B; }\n tagtype B { a:A; }\n", profile
        )
        assert conditions == ["RecursiveRequiredReference"]

    def test_at_least_one_counts_as_mandatory(self, profile):
        assert self.validate(
            " tagtype A { b:B+; }\n tagtype B { a:A; }\n", profile
        ) == ["RecursiveRequiredReference"]

    def test_optional_breaks_the_cycle(self, profile):
        assert self.validate(
            " tagtype A { b:B?; }\n tagtype B { a:A; }\n", profile
        ) == []

    def test_many_breaks_the_cycle(self, profile):
        assert self.validate(
            " tagtype A { b:B*; }\n tagtype B { a:A; }\n", profile
        ) == []

    def test_three_cycle_message(self, profile):
        s = parse(
            " tagtype A { b:B; }\n tagtype B { c:C; }\n tagtype C { a:A; }\n",
            profile,
        )
        (diag,) = s.findings
        assert diag.condition == "RecursiveRequiredReference"
        assert "A -> B -> C -> A" in diag.message
        assert diag.line == 3  # anchored at the first member by position

    def test_two_separate_cycles(self, profile):
        conditions = self.validate(
            " tagtype A { a:A; }\n tagtype B { b:B; }\n", profile
        )
        assert conditions == ["RecursiveRequiredReference"] * 2

    def test_unresolved_target_does_not_crash_cycle_detection(self, profile):
        conditions = self.validate(" tagtype A { g:Ghost; }\n", profile)
        assert conditions == ["UnresolvedNamedReference"]

    def test_acyclic_chain_is_clean(self, profile):
        assert self.validate(
            " tagtype A { b:B; }\n tagtype B { c:int; }\n", profile
        ) == []

    def test_long_required_chain_is_clean(self, profile):
        schema = parse_tag_schema(required_chain_schema_text(1200), profile)
        assert len(schema.tag_types) == 1201
        assert schema.findings == ()

    def test_long_required_cycle_is_one_diagnostic(self, profile):
        text = required_chain_schema_text(1200, closed=True)
        schema = parse_tag_schema(text, profile)
        (diag,) = schema.findings
        assert diag.condition == "RecursiveRequiredReference"
        assert (diag.line, diag.col) == (3, 13)  # T0, the lowest position
        assert diag.message.count(" -> ") == 1201

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        size=st.integers(1, 7),
        refs=st.lists(
            st.tuples(
                st.integers(0, 7), st.integers(0, 7), st.sampled_from(list(Cardinality))
            ),
            max_size=14,
        ),
    )
    def test_cycles_match_mutual_reachability(self, profile, size, refs):
        names = [f"N{i}" for i in range(size)]
        # Index ``size`` names a type the schema does not define.
        targets = names + ["Ghost"]
        refs_of = [
            [
                Reference(f"r{k}", targets[min(dst, size)], False, card)
                for k, (src, dst, card) in enumerate(refs)
                if src % size == i
            ]
            for i in range(size)
        ]
        # Printed in reverse source order, so the anchor is not the first
        # name.  A type with no references prints only as a simple one.
        tag_types = tuple(
            TagTypeDef(names[i], DomainSpec.complex_of(*refs_of[i]) if refs_of[i] else DomainSpec.simple())
            for i in reversed(range(size))
        )
        schema = printed(TagSchema("p", "S", tag_types), profile)
        diags = [d for d in schema.findings if d.condition == "RecursiveRequiredReference"]
        reported = [frozenset(d.message.split(": ")[1].split(" -> ")) for d in diags]

        # Oracle: i and j share a cycle when each reaches the other along
        # required or at-least-one references (one or more steps).
        mandatory = (Cardinality.REQUIRED, Cardinality.AT_LEAST_ONE)
        reach = [[False] * size for _ in range(size)]
        for src, dst, card in refs:
            if dst < size and card in mandatory:
                reach[src % size][dst] = True
        for k in range(size):
            for i in range(size):
                for j in range(size):
                    reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
        expected = {
            frozenset(names[j] for j in range(size) if reach[i][j] and reach[j][i])
            for i in range(size)
            if reach[i][i]
        }
        assert len(reported) == len(set(reported))
        assert set(reported) == expected
        for diag, members in zip(diags, reported):
            assert diag.line == min(schema.tag_type(m).line for m in members)


class TestCardinality:
    def test_marks(self):
        assert Cardinality.REQUIRED.mark == ""
        assert Cardinality.OPTIONAL.mark == "?"
        assert Cardinality.MANY.mark == "*"
        assert Cardinality.AT_LEAST_ONE.mark == "+"

    @pytest.mark.parametrize(
        "card,admitted,rejected",
        [
            (Cardinality.REQUIRED, [1], [0, 2, 5]),
            (Cardinality.OPTIONAL, [0, 1], [2, 3]),
            (Cardinality.MANY, [0, 1, 2, 10], []),
            (Cardinality.AT_LEAST_ONE, [1, 2, 10], [0]),
        ],
    )
    def test_admits(self, card, admitted, rejected):
        assert all(card.admits(n) for n in admitted)
        assert not any(card.admits(n) for n in rejected)


class TestRoundTrip:
    def test_golden_round_trip(self, schema, profile):
        printed = pretty_print_tag_schema(schema)
        assert parse_tag_schema(printed, profile) == schema

    def test_golden_canonical_text(self, schema):
        assert pretty_print_tag_schema(schema) == (
            "package loggingschema;\n"
            "\n"
            "tagschema StatechartTagSchema {\n"
            "    tagtype Monitored for State;\n"
            '    tagtype Log:["timestamp"|"callerID"] for Transition;\n'
            "    tagtype Method:String for Statechart;\n"
            "    tagtype Exception for State {\n"
            "        type:String,\n"
            "        msg:String;\n"
            "    }\n"
            "}\n"
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_random_round_trip(self, seed, profile):
        text = random_schema_text(random.Random(seed))
        schema = parse_tag_schema(text, profile)
        assert parse_tag_schema(pretty_print_tag_schema(schema), profile) == schema
