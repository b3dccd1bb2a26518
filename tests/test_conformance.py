"""Conformance checking: conditions, suppression, value domains, results."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagweaver import (
    Attachment,
    CheckInput,
    Condition,
    ElementHandle,
    ElementIdentifier,
    NormalizedValue,
    Severity,
    TagModel,
    TagStatement,
    TagValue,
    TagUse,
    check,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
)
from tagweaver import conformance
from tagweaver.cli import run_cli
from tagweaver.conformance import INT64_MAX, INT64_MIN
from tagweaver.tagschema import DomainSpec, Reference, TagSchema, TagTypeDef

GOLDEN_HEADER = (
    "package mobile;\n"
    "conforms to loggingschema.StatechartTagSchema;\n"
    "tags T for Mobile {\n"
)


def run(body: str, chart, schemas, profile, header: str = GOLDEN_HEADER):
    model = parse_tag_model(header + body + "}\n", profile)
    return check(CheckInput(model, chart, schemas, profile))


def check_one(schema, type_name, value, chart, profile):
    """(diagnostics, normalized value or None) of ``check`` on a hand-built
    model whose one statement tags ``chart``'s root with ``value``.  The
    schemas used here scope no tag type and make none private, so every
    diagnostic is one of the value check's."""
    statement = TagStatement((ElementIdentifier.qualified(chart.name),), (TagUse(type_name, value),))
    model = TagModel(chart.package, (schema.qualified_name,), "One", chart.name, (statement,))
    diags, resolved = check(CheckInput(model, chart, (schema,), profile))
    return diags, resolved.attachments[0].value if resolved else None


def conditions(diags) -> list[str]:
    return [d.condition for d in diags]


@pytest.fixture(scope="module")
def small_chart():
    return parse_statechart(
        "package m;\nstatechart Chart {\n state A;\n state B;\n A -> B;\n}\n"
    )


@pytest.fixture(scope="module")
def aux_schema(profile):
    return parse_tag_schema(
        "package aux;\ntagschema Aux {\n"
        " private tagtype Secret for State;\n"
        " tagtype Wrapper for State { s:Secret; }\n"
        "}\n",
        profile,
    )


class TestGoldenCheck:
    def test_clean(self, golden_tags, chart, schema, profile):
        diags, resolved = check(CheckInput(golden_tags, chart, (schema,), profile))
        assert diags == []
        assert resolved is not None
        assert resolved.target == "mobile.Mobile"

    def test_attachments_in_statement_order(self, golden_tags, chart, schema, profile):
        _, resolved = check(CheckInput(golden_tags, chart, (schema,), profile))
        s = "loggingschema.StatechartTagSchema"
        assert resolved.attachments == (
            Attachment(
                ElementHandle("Mobile", "Statechart"),
                "Method",
                s,
                NormalizedValue.of_string("App.call()"),
            ),
            Attachment(
                ElementHandle("Active.Call", "State"), "Monitored", s, NormalizedValue.flag()
            ),
            Attachment(
                ElementHandle("Active.Busy", "State"), "Monitored", s, NormalizedValue.flag()
            ),
            Attachment(
                ElementHandle("Active", "State"), "Monitored", s, NormalizedValue.flag()
            ),
            Attachment(
                ElementHandle("ConnectionProblems", "State"),
                "Exception",
                s,
                NormalizedValue.of_children(
                    (
                        ("type", NormalizedValue.of_string("NetworkException")),
                        ("msg", NormalizedValue.of_string("Problems connecting to the mobile network!")),
                    )
                ),
            ),
        )

    def test_full_variant_adds_transition_attachment(self, full_tags, chart, schema, profile):
        diags, resolved = check(CheckInput(full_tags, chart, (schema,), profile))
        assert diags == []
        assert resolved.attachments[-1] == Attachment(
            ElementHandle("[Start -> Active]", "Transition"),
            "Log",
            "loggingschema.StatechartTagSchema",
            NormalizedValue.of_enum("timestamp"),
        )


class TestConditions:
    def test_e1_unknown_element(self, chart, schema, profile):
        diags, resolved = run(" tag Ghost with Monitored;\n", chart, (schema,), profile)
        assert conditions(diags) == ["E1"]
        assert resolved is None

    def test_e1_location_points_at_element(self, chart, schema, profile):
        diags, _ = run(" tag Ghost with Monitored;\n", chart, (schema,), profile)
        assert (diags[0].line, diags[0].col) == (4, 6)

    def test_e3_1_unknown_tag_type(self, chart, schema, profile):
        diags, _ = run(" tag Active with Mystery;\n", chart, (schema,), profile)
        assert conditions(diags) == ["E3_1"]
        assert "known: Exception, Log, Method, Monitored" in diags[0].message

    def test_e3_2_scope_mismatch(self, chart, schema, profile):
        diags, _ = run(' tag Start with Log = "timestamp";\n', chart, (schema,), profile)
        assert conditions(diags) == ["E3_2"]
        assert "'Start' is a State" in diags[0].message

    def test_e3_3_enum_value(self, chart, schema, profile):
        diags, _ = run(
            ' tag [Start -> Active] with Log = "nonsense";\n', chart, (schema,), profile
        )
        assert conditions(diags) == ["E3_3"]

    def test_e3_3_flag_with_value(self, chart, schema, profile):
        diags, _ = run(' tag Active with Monitored = "x";\n', chart, (schema,), profile)
        assert conditions(diags) == ["E3_3"]
        assert "simple flag" in diags[0].message

    def test_e3_3_native_without_value(self, chart, schema, profile):
        diags, _ = run(" tag Mobile with Method;\n", chart, (schema,), profile)
        assert conditions(diags) == ["E3_3"]
        assert "needs a String value" in diags[0].message

    def test_cardinality_violation(self, chart, schema, profile):
        diags, _ = run(
            ' tag ConnectionProblems with Exception { type = "X"; };\n',
            chart,
            (schema,),
            profile,
        )
        assert conditions(diags) == ["CardinalityViolation"]
        assert "exactly one 'msg' subtag, found 0" in diags[0].message

    def test_unknown_subtag(self, chart, schema, profile):
        diags, _ = run(
            ' tag ConnectionProblems with Exception {'
            ' type = "X", msg = "y", severity = "high"; };\n',
            chart,
            (schema,),
            profile,
        )
        assert conditions(diags) == ["UnknownSubtagName"]
        assert "declared: type, msg" in diags[0].message

    def test_private_top_level_use(self, chart, aux_schema, profile):
        diags, _ = run(
            " tag Start with Secret;\n",
            chart,
            (aux_schema,),
            profile,
            header="package mobile;\nconforms to aux.Aux;\ntags T for Mobile {\n",
        )
        assert conditions(diags) == ["PrivateTopLevelUse"]

    def test_private_as_subtag_is_fine(self, chart, aux_schema, profile):
        diags, resolved = run(
            " tag Start with Wrapper { s; };\n",
            chart,
            (aux_schema,),
            profile,
            header="package mobile;\nconforms to aux.Aux;\ntags T for Mobile {\n",
        )
        assert diags == []
        assert resolved.attachments[0].value == NormalizedValue.of_children(
            (("s", NormalizedValue.flag()),)
        )

    def test_duplicate_tag_warning(self, chart, schema, profile):
        diags, resolved = run(
            " tag Active with Monitored;\n tag Active with Monitored;\n",
            chart,
            (schema,),
            profile,
        )
        assert conditions(diags) == ["DuplicateTagWarning"]
        assert diags[0].severity is Severity.WARNING
        # A warning does not block resolution; both attachments are kept.
        assert resolved is not None
        assert len(resolved.attachments) == 2

    def test_duplicate_detection_uses_normalized_values(self, small_chart, profile):
        schema = parse_tag_schema(
            "package s;\ntagschema S { tagtype N:int for State; }\n", profile
        )
        diags, _ = run(
            ' tag A with N = "3";\n tag A with N = "-0";\n tag A with N = "0";\n',
            small_chart,
            (schema,),
            profile,
            header="package m;\nconforms to s.S;\ntags T for Chart {\n",
        )
        # "-0" and "0" normalize to the same integer; "3" differs.
        assert conditions(diags) == ["DuplicateTagWarning"]

    def test_e2_duplicate_type_across_schemas(self, small_chart, profile):
        s1 = parse_tag_schema("package a;\ntagschema S1 { tagtype Dual; }\n", profile)
        s2 = parse_tag_schema("package b;\ntagschema S2 { tagtype Dual:int; }\n", profile)
        diags, resolved = run(
            " tag A with Dual;\n",
            small_chart,
            (s1, s2),
            profile,
            header="package m;\nconforms to a.S1, b.S2;\ntags T for Chart {\n",
        )
        assert conditions(diags) == ["E2"]
        assert "'a.S1' and 'b.S2'" in diags[0].message
        assert resolved is None

    def test_e2_resolution_is_first_wins(self, small_chart, profile):
        s1 = parse_tag_schema("package a;\ntagschema S1 { tagtype Dual; }\n", profile)
        s2 = parse_tag_schema("package b;\ntagschema S2 { tagtype Dual:int; }\n", profile)
        # With S1 first the bare use fits (flag); the valued use breaks.
        diags, _ = run(
            ' tag A with Dual = "3";\n',
            small_chart,
            (s1, s2),
            profile,
            header="package m;\nconforms to a.S1, b.S2;\ntags T for Chart {\n",
        )
        assert sorted(conditions(diags)) == ["E2", "E3_3"]
        # With S2 first the valued use fits instead.
        diags, _ = run(
            ' tag A with Dual = "3";\n',
            small_chart,
            (s2, s1),
            profile,
            header="package m;\nconforms to b.S2, a.S1;\ntags T for Chart {\n",
        )
        assert conditions(diags) == ["E2"]

    def test_a_schema_listed_twice_is_taken_once(self, small_chart, profile):
        s = parse_tag_schema("package m;\ntagschema S { tagtype Dual; }\n", profile)
        diags, resolved = run(
            " tag A with Dual;\n",
            small_chart,
            (s, s),
            profile,
            header="package m;\nconforms to S, m.S;\ntags T for Chart {\n",
        )
        assert diags == []
        assert [att.schema for att in resolved.attachments] == ["m.S"]


class TestSuppression:
    def test_e1_suppresses_type_checks(self, chart, schema, profile):
        diags, _ = run(" tag Ghost with Mystery;\n", chart, (schema,), profile)
        assert conditions(diags) == ["E1"]

    def test_e3_1_suppresses_scope_and_domain(self, chart, schema, profile):
        diags, _ = run(' tag Start with Mystery = "x";\n', chart, (schema,), profile)
        assert conditions(diags) == ["E3_1"]

    def test_scope_mismatch_does_not_suppress_domain(self, chart, schema, profile):
        diags, _ = run(' tag Start with Log = "bad";\n', chart, (schema,), profile)
        assert sorted(conditions(diags)) == ["E3_2", "E3_3"]

    def test_private_and_scope_both_fire(self, small_chart, aux_schema, profile):
        diags, _ = run(
            " tag [A -> B] with Secret;\n",
            small_chart,
            (aux_schema,),
            profile,
            header="package m;\nconforms to aux.Aux;\ntags T for Chart {\n",
        )
        assert sorted(conditions(diags)) == ["E3_2", "PrivateTopLevelUse"]

    def test_context_failure_reports_once_and_skips_body(self, chart, schema, profile):
        diags, _ = run(
            " within Ghost {\n"
            "  tag Active with Monitored;\n"
            "  tag Mystery with Mystery;\n"
            " }\n",
            chart,
            (schema,),
            profile,
        )
        assert conditions(diags) == ["E1"]


class TestExpansion:
    def test_cross_product_diagnostics(self, chart, schema, profile):
        diags, _ = run(
            " tag Ghost, Phantom with Mystery, Monitored;\n", chart, (schema,), profile
        )
        # Both elements fail to resolve, once per tag in the statement.
        assert conditions(diags) == ["E1", "E1", "E1", "E1"]

    def test_context_prefixes_inner_references(self, chart, schema, profile):
        diags, resolved = run(
            " within Active { tag Call with Monitored; }\n", chart, (schema,), profile
        )
        assert diags == []
        assert resolved.attachments[0].element == ElementHandle("Active.Call", "State")

    def test_nested_contexts(self, chart, schema, profile):
        diags, resolved = run(
            " within Active { within Call { tag Mobile with Method = \"x\"; } }\n",
            chart,
            (schema,),
            profile,
        )
        assert diags == []
        assert resolved.attachments[0].element == ElementHandle("Mobile", "Statechart")

    def test_invariant_resolved_inside_context(self, chart, profile):
        schema = parse_tag_schema(
            "package s;\ntagschema S { tagtype Note:String for Invariant; }\n", profile
        )
        diags, resolved = run(
            ' within Active { tag [status!=isActive] with Note = "ok"; }\n',
            chart,
            (schema,),
            profile,
            header="package mobile;\nconforms to s.S;\ntags T for Mobile {\n",
        )
        assert diags == []
        assert resolved.attachments[0].element == ElementHandle(
            "Active.Call.[status!=isActive]", "Invariant"
        )


class TestSourceOrder:
    """A ``within`` is resolved where it stands, so diagnostics follow the text."""

    TAGS = (
        GOLDEN_HEADER
        + "    tag Ghost with Monitored;\n"
        + "    within Nowhere { tag Call with Monitored; }\n"
        + "    within Active {\n"
        + "        within Phantom { tag Call with Monitored; }\n"
        + "        tag Spectre with Monitored;\n"
        + "    }\n"
        + "}\n"
    )
    EXPECTED = [(4, 9, "Ghost"), (5, 12, "Nowhere"), (7, 16, "Phantom"), (8, 13, "Spectre")]

    def test_check(self, chart, schema, profile):
        model = parse_tag_model(self.TAGS, profile)
        diags, resolved = check(CheckInput(model, chart, (schema,), profile))
        assert resolved is None
        assert conditions(diags) == ["E1"] * 4
        assert [(d.line, d.col, d.message.split("'")[1]) for d in diags] == self.EXPECTED

    def test_cli_text(self, samples_dir, tmp_path, capsys):
        tags = tmp_path / "order.tag"
        tags.write_text(self.TAGS)
        argv = [
            "check",
            "--manifest", str(samples_dir / "statechart.glang"),
            "--model", str(samples_dir / "mobile.sc"),
            "--schema", str(samples_dir / "logging_schema.tagschema"),
            "--tags", str(tags),
        ]
        assert run_cli(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{tags}:{line}:{col}: error[E1]: '{name}' does not name an element of 'Mobile'"
            + (" (context 'Active')" if line > 6 else "")
            for line, col, name in self.EXPECTED
        ]


class TestResolutionMemo:
    BODY = (
        " tag Missing with Monitored, Mystery;\n"
        " tag Call, [nope] with Monitored;\n"
        "   tag [nope] with Monitored;\n"
        " tag Active with Monitored, Monitored;\n"
        " tag Active with Monitored;\n"
    )

    def test_unresolved_reference_reported_at_every_pair(self, chart, schema, profile):
        diags, resolved = run(self.BODY, chart, (schema,), profile)
        assert resolved is None
        assert [(d.line, d.col, d.message) for d in diags if d.condition == "E1"] == [
            (4, 6, "'Missing' does not name an element of 'Mobile'"),
            (4, 6, "'Missing' does not name an element of 'Mobile'"),
            (5, 6, "'Call' does not name an element of 'Mobile'"),
            (5, 12, "no invariant '[nope]' in 'Mobile'"),
            (6, 8, "no invariant '[nope]' in 'Mobile'"),
        ]

    def test_duplicate_warnings_fire_per_pair(self, chart, schema, profile):
        diags, _ = run(self.BODY, chart, (schema,), profile)
        warnings = [d for d in diags if d.condition == "DuplicateTagWarning"]
        assert [(d.line, d.col) for d in warnings] == [(7, 29), (8, 18)]

    def test_each_reference_resolves_once_per_context(self, chart, schema, profile, monkeypatch):
        calls = []
        resolve = conformance.resolve_element

        def counting(model, ident, context=None, *, profile):
            calls.append((ident.text, context.path if context else ""))
            return resolve(model, ident, context, profile=profile)

        monkeypatch.setattr(conformance, "resolve_element", counting)
        body = self.BODY + " within Active { tag Call, Call with Monitored; }\n"
        run(body, chart, (schema,), profile)
        assert sorted(calls) == [
            ("Active", ""), ("Call", ""), ("Call", "Active"), ("Missing", ""), ("[nope]", "")
        ]


class TestValueMemo:
    BODY = (
        " tag Start, Active, Done with Monitored = \"x\", Monitored;\n"
        " within Active { tag Call, Busy with Exception { type = \"t\"; }; }\n"
    )

    def test_out_of_domain_value_reported_at_every_pair(self, chart, schema, profile):
        diags, resolved = run(self.BODY, chart, (schema,), profile)
        assert resolved is None
        assert [(d.condition, d.line, d.col) for d in diags] == [
            ("E3_3", 4, 31), ("E3_3", 4, 31), ("E3_3", 4, 31),
            ("CardinalityViolation", 5, 38), ("CardinalityViolation", 5, 38),
        ]

    def test_each_tag_use_is_checked_once(self, chart, schema, profile, monkeypatch):
        calls = []
        check_value = conformance._check_value

        def counting(use, tag_type, tag_schema, file):
            calls.append((use.name, use.line, use.col))
            return check_value(use, tag_type, tag_schema, file)

        monkeypatch.setattr(conformance, "_check_value", counting)
        run(self.BODY, chart, (schema,), profile)
        assert calls == [("Monitored", 4, 31), ("Monitored", 4, 48), ("Exception", 5, 38)]


class TestInputContract:
    def test_no_schemas(self, golden_tags, chart, profile):
        with pytest.raises(ValueError, match="at least one schema"):
            check(CheckInput(golden_tags, chart, (), profile))

    def test_conforms_entry_without_schema(self, golden_tags, chart, profile, schema):
        other = parse_tag_schema("package x;\ntagschema Y { tagtype T; }\n", profile)
        with pytest.raises(ValueError, match="matches no supplied schema"):
            check(CheckInput(golden_tags, chart, (other,), profile))

    def test_target_mismatch(self, golden_tags, schema, profile):
        wrong = parse_statechart("package other;\nstatechart Elsewhere { state A; }\n")
        with pytest.raises(ValueError, match="targets 'mobile.Mobile'"):
            check(CheckInput(golden_tags, wrong, (schema,), profile))

    def test_unqualified_names_default_to_model_package(self, small_chart, profile):
        schema = parse_tag_schema("package m;\ntagschema S { tagtype T; }\n", profile)
        model = parse_tag_model(
            "package m;\nconforms to S;\ntags T for Chart { tag A with T; }\n", profile
        )
        diags, resolved = check(CheckInput(model, small_chart, (schema,), profile))
        assert diags == []
        assert len(resolved.attachments) == 1


@pytest.fixture(scope="module")
def value_schema(profile):
    return parse_tag_schema(
        "package v;\ntagschema V {\n"
        " tagtype Flag;\n"
        " tagtype Count:int;\n"
        " tagtype Toggle:Boolean;\n"
        " tagtype Text:String;\n"
        ' tagtype Level:["low"|"high"];\n'
        " tagtype Node { label:String, child:Node?, weight:int*; }\n"
        " tagtype Pair { a:int, b:int+; }\n"
        "}\n",
        profile,
    )


class TestValueDomains:
    @pytest.fixture(autouse=True)
    def _target(self, small_chart, profile):
        self.chart, self.profile = small_chart, profile

    def value(self, value_schema, type_name, value):
        return check_one(value_schema, type_name, value, self.chart, self.profile)

    def test_flag_accepts_bare_use(self, value_schema):
        diags, norm = self.value(value_schema, "Flag", TagValue.simple())
        assert diags == [] and norm == NormalizedValue.flag()

    def test_flag_rejects_value(self, value_schema):
        diags, norm = self.value(value_schema, "Flag", TagValue.valued("x"))
        assert conditions(diags) == ["E3_3"] and norm is None

    @pytest.mark.parametrize(
        "raw,expected",
        [("0", 0), ("42", 42), ("-7", -7), (str(INT64_MAX), INT64_MAX), (str(INT64_MIN), INT64_MIN)],
    )
    def test_int_accepts(self, value_schema, raw, expected):
        diags, norm = self.value(value_schema, "Count", TagValue.valued(raw))
        assert diags == [] and norm == NormalizedValue.of_int(expected)

    @pytest.mark.parametrize(
        "raw",
        [
            "abc",
            "",
            "-",
            "1.5",
            "+3",
            "1e3",
            " 3",
            "3 ",
            "0x10",
            str(INT64_MAX + 1),
            str(INT64_MIN - 1),
            "١٢٣",  # non-ASCII digits
        ],
    )
    def test_int_rejects(self, value_schema, raw):
        diags, norm = self.value(value_schema, "Count", TagValue.valued(raw))
        assert conditions(diags) == ["E3_3"] and norm is None

    def test_bool_accepts_exactly_true_false(self, value_schema):
        assert self.value(value_schema, "Toggle", TagValue.valued("true"))[1] == NormalizedValue.of_bool(True)
        assert self.value(value_schema, "Toggle", TagValue.valued("false"))[1] == NormalizedValue.of_bool(False)

    @pytest.mark.parametrize("raw", ["True", "FALSE", "1", "yes", ""])
    def test_bool_rejects(self, value_schema, raw):
        diags, norm = self.value(value_schema, "Toggle", TagValue.valued(raw))
        assert conditions(diags) == ["E3_3"] and norm is None

    def test_string_accepts_anything(self, value_schema):
        for raw in ["", "hello", "line\nbreak", "true"]:
            diags, norm = self.value(value_schema, "Text", TagValue.valued(raw))
            assert diags == [] and norm == NormalizedValue.of_string(raw)

    def test_enum_is_byte_exact(self, value_schema):
        assert self.value(value_schema, "Level", TagValue.valued("low"))[1] == NormalizedValue.of_enum("low")
        diags, norm = self.value(value_schema, "Level", TagValue.valued("Low"))
        assert conditions(diags) == ["E3_3"] and norm is None

    def test_complex_accepts_nested_value(self, value_schema):
        value = TagValue.complex_of(
            TagUse("label", TagValue.valued("root")),
            TagUse("child", TagValue.complex_of(TagUse("label", TagValue.valued("leaf")))),
            TagUse("weight", TagValue.valued("1")),
            TagUse("weight", TagValue.valued("2")),
        )
        diags, norm = self.value(value_schema, "Node", value)
        assert diags == []
        assert norm == NormalizedValue.of_children(
            (
                ("label", NormalizedValue.of_string("root")),
                (
                    "child",
                    NormalizedValue.of_children((("label", NormalizedValue.of_string("leaf")),)),
                ),
                ("weight", NormalizedValue.of_int(1)),
                ("weight", NormalizedValue.of_int(2)),
            )
        )

    def test_complex_rejects_non_complex_value(self, value_schema):
        diags, norm = self.value(value_schema, "Node", TagValue.valued("x"))
        assert conditions(diags) == ["E3_3"] and norm is None

    def test_missing_required_subtag(self, value_schema):
        diags, norm = self.value(value_schema, "Node", TagValue.complex_of())
        assert conditions(diags) == ["CardinalityViolation"] and norm is None

    def test_repeated_required_subtag(self, value_schema):
        value = TagValue.complex_of(
            TagUse("label", TagValue.valued("a")), TagUse("label", TagValue.valued("b"))
        )
        diags, _ = self.value(value_schema, "Node", value)
        assert conditions(diags) == ["CardinalityViolation"]
        assert "found 2" in diags[0].message

    def test_at_least_one_needs_one(self, value_schema):
        value = TagValue.complex_of(TagUse("a", TagValue.valued("1")))
        diags, _ = self.value(value_schema, "Pair", value)
        assert conditions(diags) == ["CardinalityViolation"]
        assert "at least one 'b'" in diags[0].message

    def test_optional_allows_at_most_one(self, value_schema):
        base = [TagUse("label", TagValue.valued("x"))]
        twice = base + [
            TagUse("child", TagValue.complex_of(TagUse("label", TagValue.valued("a")))),
            TagUse("child", TagValue.complex_of(TagUse("label", TagValue.valued("b")))),
        ]
        diags, _ = self.value(value_schema, "Node", TagValue.complex_of(*twice))
        assert conditions(diags) == ["CardinalityViolation"]

    def test_unknown_subtag_rejected(self, value_schema):
        value = TagValue.complex_of(
            TagUse("label", TagValue.valued("x")), TagUse("bogus", TagValue.valued("y"))
        )
        diags, norm = self.value(value_schema, "Node", value)
        assert conditions(diags) == ["UnknownSubtagName"] and norm is None

    def test_independent_problems_all_reported(self, value_schema):
        value = TagValue.complex_of(TagUse("bogus", TagValue.simple()))
        diags, _ = self.value(value_schema, "Node", value)
        assert sorted(conditions(diags)) == ["CardinalityViolation", "UnknownSubtagName"]

    def test_bad_nested_value_bubbles_up(self, value_schema):
        value = TagValue.complex_of(
            TagUse("label", TagValue.valued("x")),
            TagUse("weight", TagValue.valued("heavy")),
        )
        diags, norm = self.value(value_schema, "Node", value)
        assert conditions(diags) == ["E3_3"] and norm is None

    def test_subtag_value_shape_mismatch(self, value_schema):
        value = TagValue.complex_of(
            TagUse("label", TagValue.simple()),
        )
        diags, _ = self.value(value_schema, "Node", value)
        assert "needs a String value" in diags[0].message


@pytest.fixture(scope="module")
def kind_schema(profile):
    return parse_tag_schema(
        "package k;\ntagschema K {\n"
        " tagtype Flag;\n"
        " tagtype Count:int;\n"
        ' tagtype Level:["low"|"high"];\n'
        " tagtype Box { n:int; }\n"
        " tagtype Holder { f:Flag?, c:Count?, l:Level?, b:Box?, n:int?; }\n"
        " tagtype Card { one:int, opt:int?, some:int+, any:int*; }\n"
        "}\n",
        profile,
    )


# One value of each shape: simple, valued, complex.
SIMPLE = TagValue.simple()
VALUED = TagValue.valued("x")
COMPLEX = TagValue.complex_of()

# The message for a value of the wrong shape, by tag type.
WRONG_KIND = {
    "Flag": "tag type 'Flag' is a simple flag and takes no value",
    "Count": "tag type 'Count' needs a int value",
    "Level": "tag type 'Level' needs one of its enumeration values",
    "Box": "tag type 'Box' is complex and needs a '{...}' value",
}
WRONG_SHAPES = [
    ("Flag", VALUED), ("Flag", COMPLEX),
    ("Count", SIMPLE), ("Count", COMPLEX),
    ("Level", SIMPLE), ("Level", COMPLEX),
    ("Box", SIMPLE), ("Box", VALUED),
]


def found(diags) -> list[tuple]:
    return [(d.condition, d.message, d.line, d.col) for d in diags]


class TestValueMessages:
    """The domain and cardinality messages, verbatim."""

    @pytest.mark.parametrize("type_name,value", WRONG_SHAPES)
    def test_wrong_kind_on_the_tag_type(self, kind_schema, type_name, value, small_chart, profile):
        diags, norm = check_one(kind_schema, type_name, value, small_chart, profile)
        assert found(diags) == [("E3_3", WRONG_KIND[type_name], 0, 0)] and norm is None

    @pytest.mark.parametrize("type_name,value", WRONG_SHAPES)
    def test_wrong_kind_through_a_named_reference(
        self, kind_schema, type_name, value, small_chart, profile
    ):
        slot = {"Flag": "f", "Count": "c", "Level": "l", "Box": "b"}[type_name]
        holder = TagValue.complex_of(TagUse(slot, value, 3, 7))
        diags, norm = check_one(kind_schema, "Holder", holder, small_chart, profile)
        assert found(diags) == [("E3_3", WRONG_KIND[type_name], 3, 7)] and norm is None

    @pytest.mark.parametrize("value", [SIMPLE, COMPLEX])
    def test_wrong_kind_on_a_native_subtag(self, kind_schema, value, small_chart, profile):
        holder = TagValue.complex_of(TagUse("n", value, 2, 4))
        diags, norm = check_one(kind_schema, "Holder", holder, small_chart, profile)
        assert found(diags) == [("E3_3", "subtag 'n' of 'Holder' needs a int value", 2, 4)]
        assert norm is None

    def test_cardinality_phrases(self, kind_schema, small_chart, profile):
        one = TagUse("one", TagValue.valued("1"))
        opt = TagUse("opt", TagValue.valued("1"))
        some = TagUse("some", TagValue.valued("1"))
        cases = [
            ((opt, some), "'Card' needs exactly one 'one' subtag, found 0"),
            ((one, one, some), "'Card' needs exactly one 'one' subtag, found 2"),
            ((one, opt, opt, some), "'Card' needs at most one 'opt' subtag, found 2"),
            ((one, opt), "'Card' needs at least one 'some' subtag, found 0"),
        ]
        for subtags, message in cases:
            use = TagValue.complex_of(*subtags)
            diags, norm = check_one(kind_schema, "Card", use, small_chart, profile)
            assert found(diags) == [("CardinalityViolation", message, 0, 0)] and norm is None

    def test_a_subtag_of_an_unknown_tag_type(self, small_chart, profile):
        # A workspace refuses this schema; check itself reports the use site.
        schema = parse_tag_schema(
            "package g;\ntagschema G {\n tagtype T for State { g:Ghost; }\n}\n", profile
        )
        assert [d.condition for d in schema.findings] == ["UnresolvedNamedReference"]
        diags, resolved = run(
            " tag A with T { g = \"x\"; };\n", small_chart, (schema,), profile,
            header="package m;\nconforms to g.G;\ntags X for Chart {\n",
        )
        assert found(diags) == [("E3_3", "subtag 'g' references unknown tag type 'Ghost'", 4, 17)]
        assert resolved is None


class TestNativeKinds:
    """A hand-built record may name a native kind that ``parse_tag_schema``
    never reads as one; ``check`` refuses it before it checks a value."""

    REFUSAL = "tag type '{}' names native kind 'Float', which is none of int, String, Boolean"

    @pytest.mark.parametrize("value", [VALUED, TagValue.valued("1"), SIMPLE])
    def test_a_native_tag_type(self, value, small_chart, profile):
        schema = TagSchema("h", "H", (TagTypeDef("F", DomainSpec.of_native("Float")),))
        with pytest.raises(ValueError, match=self.REFUSAL.format("F")):
            check_one(schema, "F", value, small_chart, profile)

    @pytest.mark.parametrize("value", [VALUED, TagValue.valued("1"), SIMPLE])
    def test_a_native_subtag(self, value, small_chart, profile):
        holder = TagTypeDef("H", DomainSpec.complex_of(Reference("x", "Float", True)))
        schema = TagSchema("h", "H", (holder,))
        with pytest.raises(ValueError, match=self.REFUSAL.format("H")):
            check_one(schema, "H", TagValue.complex_of(TagUse("x", value)), small_chart, profile)


# Raw texts for every native and enumeration rule; subtag names that the
# two schemas declare, and one (``zz``) that neither does.
RAWS = ("true", "false", "-1", "0", "9223372036854775808", "low", "high", "x", "")
SUBTAG_NAMES = ("label", "child", "weight", "a", "b", "f", "c", "l", "n", "one", "opt", "some", "zz")


def tag_values(depth: int):
    leaf = st.just(TagValue.simple()) | st.sampled_from(RAWS).map(TagValue.valued)
    if depth == 0:
        return leaf
    subtag = st.builds(TagUse, st.sampled_from(SUBTAG_NAMES), tag_values(depth - 1))
    return leaf | st.lists(subtag, max_size=3).map(lambda subs: TagValue.complex_of(*subs))


class TestValueRule:
    """A value check reports only errors, and returns a value exactly when
    it reports nothing."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(value=tag_values(3))
    @example(value=TagValue.complex_of(  # a Node two levels deep
        TagUse("label", TagValue.valued("x")),
        TagUse("child", TagValue.complex_of(TagUse("label", TagValue.valued("")))),
        TagUse("weight", TagValue.valued("-1")),
    ))
    @example(value=TagValue.complex_of(  # a Holder
        TagUse("n", TagValue.valued("0")), TagUse("l", TagValue.valued("low"))
    ))
    def test_a_value_comes_back_exactly_without_a_diagnostic(
        self, kind_schema, value_schema, value
    ):
        for schema in (kind_schema, value_schema):
            for tt in schema.tag_types:
                diags, norm = conformance._check_value(TagUse(tt.name, value), tt, schema, None)
                assert (norm is None) == bool(diags)
                assert all(d.severity is Severity.ERROR for d in diags)


class TestNormalizedValues:
    def test_hashable_and_comparable(self):
        assert NormalizedValue.of_int(3) == NormalizedValue.of_int(3)
        assert NormalizedValue.of_int(3) != NormalizedValue.of_string("3")
        assert len({NormalizedValue.of_int(3), NormalizedValue.of_int(3)}) == 1

    def test_condition_identifiers(self):
        assert Condition.E1_UNRESOLVED_ELEMENT.value == "E1"
        assert Condition.E2_DUPLICATE_TAG_TYPE_NAME.value == "E2"
        assert Condition.E3_1_UNKNOWN_TAG_TYPE.value == "E3_1"
        assert Condition.E3_2_SCOPE_MISMATCH.value == "E3_2"
        assert Condition.E3_3_DOMAIN_MISMATCH.value == "E3_3"
