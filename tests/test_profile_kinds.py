"""Element kinds come from the derived language profile.

The statechart model reports the grammar production of each element; the
checker names it with the scope keyword the profile derives for that
production.  These tests pin that keyword through ``@alias`` and
``@skip``, the warning for nested keywords, which name no element,
element identity as (type, path) when a state shares the chart's name,
and the bracket form a reference takes from the production's ``@sketch``.
"""

from __future__ import annotations

import json
import random

import pytest

from tagweaver import (
    Severity,
    Workspace,
    build_export_report,
    check_workspace,
    ElementIdentifier,
    ResolutionError,
    derive_profile,
    load_workspace,
    parse_manifest,
    parse_statechart,
    parse_tag_schema,
    render_export_report,
    resolve_element,
)
from tagweaver.cli import run_cli
from util import addressable_refs, bogus_refs, random_statechart_text, transition_counts

# Every production of the sample manifest aliased, and the sample schema's
# scope keywords renamed to match.
ALIASES = {"State": "Node", "Transition": "Edge", "Invariant": "Cond"}


def aliased_manifest(text: str) -> str:
    for production, alias in ALIASES.items():
        head = f"production {production} ="
        text = text.replace(head, f"@alias {alias} {head}")
    return text


def aliased_schema(text: str) -> str:
    for production, alias in ALIASES.items():
        text = text.replace(f" for {production};", f" for {alias};")
        text = text.replace(f" for {production} ", f" for {alias} ")
    return text


def workspace(directory, manifest: str, model: str, schema: str, tags: str) -> Workspace:
    directory.mkdir(exist_ok=True)
    files = {"g.glang": manifest, "m.sc": model, "s.tagschema": schema, "t.tag": tags}
    for name, text in files.items():
        (directory / name).write_text(text)
    return Workspace(
        manifest_file=directory / "g.glang",
        model_files=(directory / "m.sc",),
        schema_files=(directory / "s.tagschema",),
        tag_files=(directory / "t.tag",),
    )


def export_text(ws: Workspace) -> tuple[list, str | None]:
    diags, report = build_export_report(load_workspace(ws))
    return diags, None if report is None else render_export_report(report)


def read(samples_dir, name: str) -> str:
    return (samples_dir / name).read_text()


class TestAlias:
    def test_aliased_manifest_renames_every_keyword(self, manifest_text):
        profile = derive_profile(parse_manifest(aliased_manifest(manifest_text)))
        keywords = {kw.production: kw.keyword for kw in profile.scope_keywords if not kw.is_nested}
        assert keywords == {"SCDefinition": "Statechart", **ALIASES}

    @pytest.mark.parametrize("tags", ["mobile_tags.tag", "mobile_tags_full.tag"])
    def test_verdict_and_export_equal_the_unaliased_run(self, samples_dir, tmp_path, tags):
        plain = workspace(
            tmp_path / "plain",
            read(samples_dir, "statechart.glang"),
            read(samples_dir, "mobile.sc"),
            read(samples_dir, "logging_schema.tagschema"),
            read(samples_dir, tags),
        )
        aliased = workspace(
            tmp_path / "aliased",
            aliased_manifest(read(samples_dir, "statechart.glang")),
            read(samples_dir, "mobile.sc"),
            aliased_schema(read(samples_dir, "logging_schema.tagschema")),
            read(samples_dir, tags),
        )
        plain_diags, plain_text = export_text(plain)
        aliased_diags, aliased_text = export_text(aliased)
        assert aliased_diags == plain_diags == []

        expected = plain_text
        for production, alias in ALIASES.items():
            expected = expected.replace(
                f'"elementType": "{production}"', f'"elementType": "{alias}"'
            )
        assert '"elementType": "Node"' in expected
        assert aliased_text == expected

    def test_check_cli_is_clean_under_the_alias(self, samples_dir, tmp_path, capsys):
        (tmp_path / "g.glang").write_text(aliased_manifest(read(samples_dir, "statechart.glang")))
        (tmp_path / "s.tagschema").write_text(
            aliased_schema(read(samples_dir, "logging_schema.tagschema"))
        )
        argv = [
            "check",
            "--manifest", str(tmp_path / "g.glang"),
            "--model", str(samples_dir / "mobile.sc"),
            "--schema", str(tmp_path / "s.tagschema"),
            "--tags", str(samples_dir / "mobile_tags.tag"),
        ]
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == ""

    def test_scope_mismatch_names_the_alias(self, samples_dir, tmp_path):
        ws = workspace(
            tmp_path,
            aliased_manifest(read(samples_dir, "statechart.glang")),
            read(samples_dir, "mobile.sc"),
            "package s;\ntagschema S { tagtype Watched for Node; }\n",
            "package mobile;\nconforms to s.S;\ntags T for Mobile {\n"
            " tag [Start -> Active] with Watched;\n}\n",
        )
        diags, _ = check_workspace(load_workspace(ws))
        assert [(d.condition, d.message) for d in diags] == [
            ("E3_2", "'[Start -> Active]' is an Edge, but tag type 'Watched' only applies to: Node")
        ]


@pytest.mark.parametrize(
    "ref, named",
    [
        ("[status=isActive]", "'Active.Busy.[status=isActive]' is an Invariant"),
        ("Active", "'Active' is a State"),
    ],
)
def test_scope_mismatch_article_follows_the_keyword(samples_dir, tmp_path, ref, named):
    ws = workspace(
        tmp_path,
        read(samples_dir, "statechart.glang"),
        read(samples_dir, "mobile.sc"),
        "package s;\ntagschema S { tagtype Watched for Transition; }\n",
        f"package mobile;\nconforms to s.S;\ntags T for Mobile {{\n tag {ref} with Watched;\n}}\n",
    )
    diags, _ = check_workspace(load_workspace(ws))
    assert [(d.condition, d.message) for d in diags] == [
        ("E3_2", f"{named}, but tag type 'Watched' only applies to: Transition")
    ]


def test_skipped_production_keeps_its_name(samples_dir, tmp_path):
    manifest = read(samples_dir, "statechart.glang").replace(
        "@named production State", "@skip @named production State"
    )
    ws = workspace(
        tmp_path,
        manifest,
        read(samples_dir, "mobile.sc"),
        "package s;\ntagschema S { tagtype Seen; }\n",
        "package mobile;\nconforms to s.S;\ntags T for Mobile {\n"
        " tag Active, Mobile with Seen;\n}\n",
    )
    diags, text = export_text(ws)
    assert diags == []
    types = [(a["elementPath"], a["elementType"]) for a in json.loads(text)["attachments"]]
    assert types == [("Active", "State"), ("Mobile", "Statechart")]


class TestNestedKeywords:
    SCHEMA = (
        "package s;\n"
        "tagschema S {\n"
        "    tagtype Ends for source, Transition;\n"
        "    tagtype Src for source;\n"
        "}\n"
    )

    def test_nested_keyword_warns(self, profile):
        diags = parse_tag_schema(self.SCHEMA, profile).findings
        assert [(d.condition, d.severity, d.line, d.col) for d in diags] == [
            ("ScopeAdmitsNoElement", Severity.WARNING, 3, 22),
            ("ScopeAdmitsNoElement", Severity.WARNING, 4, 21),
        ]
        assert diags[0].message == (
            "'source' names the source of a Transition, not an element, "
            "so tag type 'Ends' can never apply through it"
        )

    def test_check_and_export_print_the_warning_and_exit_zero(
        self, samples_dir, tmp_path, capsys
    ):
        ws = workspace(
            tmp_path,
            read(samples_dir, "statechart.glang"),
            read(samples_dir, "mobile.sc"),
            self.SCHEMA,
            "package mobile;\nconforms to s.S;\ntags T for Mobile {\n"
            " tag [Start -> Active] with Ends;\n}\n",
        )
        diags, resolved = check_workspace(load_workspace(ws))
        assert [d.condition for d in diags] == ["ScopeAdmitsNoElement"] * 2
        assert len(resolved) == 1

        argv = [
            "--manifest", str(ws.manifest_file),
            "--model", str(ws.model_files[0]),
            "--schema", str(ws.schema_files[0]),
            "--tags", str(ws.tag_files[0]),
        ]
        assert run_cli(["check", *argv]) == 0
        assert capsys.readouterr().out.count("warning[ScopeAdmitsNoElement]") == 2
        assert run_cli(["export", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("warning[ScopeAdmitsNoElement]") == 2
        assert [a["elementType"] for a in json.loads(captured.out)["attachments"]] == [
            "Transition"
        ]

    def test_a_nested_keyword_alone_admits_nothing(self, samples_dir, tmp_path):
        ws = workspace(
            tmp_path,
            read(samples_dir, "statechart.glang"),
            read(samples_dir, "mobile.sc"),
            self.SCHEMA,
            "package mobile;\nconforms to s.S;\ntags T for Mobile {\n"
            " tag Start, [Start -> Active] with Src;\n}\n",
        )
        diags, _ = check_workspace(load_workspace(ws))
        errors = [d.condition for d in diags if d.severity is Severity.ERROR]
        assert errors == ["E3_2", "E3_2"]


class TestChartAndStateShareAName:
    MODEL = "package p;\nstatechart A {\n    state A { state B; }\n}\n"
    SCHEMA = "package s;\ntagschema S { tagtype M; }\n"

    def run(self, samples_dir, tmp_path, body: str):
        tags = f"package p;\nconforms to s.S;\ntags T for A {{\n{body}}}\n"
        manifest = read(samples_dir, "statechart.glang")
        ws = workspace(tmp_path, manifest, self.MODEL, self.SCHEMA, tags)
        diags, text = export_text(ws)
        records = json.loads(text)["attachments"] if text is not None else None
        return [(d.condition, d.message) for d in diags], records

    def test_chart_and_state_are_distinct_elements(self, samples_dir, tmp_path):
        diags, records = self.run(samples_dir, tmp_path, " tag A with M;\n tag A.A with M;\n")
        assert diags == []
        assert [(r["elementPath"], r["elementType"]) for r in records] == [
            ("A", "Statechart"),
            ("A", "State"),
        ]

    def test_same_element_twice_still_warns(self, samples_dir, tmp_path):
        diags, _ = self.run(samples_dir, tmp_path, " tag A.A with M;\n tag A.A with M;\n")
        assert diags == [("DuplicateTagWarning", "State 'A' is already tagged with an identical 'M'")]

    def test_within_the_same_named_state(self, samples_dir, tmp_path):
        diags, records = self.run(samples_dir, tmp_path, " within A.A { tag B with M; }\n")
        assert diags == []
        assert [(r["elementPath"], r["elementType"]) for r in records] == [("A.B", "State")]

    def test_within_the_chart_name_is_the_root(self, samples_dir, tmp_path):
        diags, _ = self.run(samples_dir, tmp_path, " within A { tag B with M; }\n")
        assert diags == [("E1", "'B' does not name an element of 'A' (context 'A')")]


def double_arrow_manifest(text: str) -> str:
    return text.replace('@sketch "source -> target"', '@sketch "source => target"')


class TestSketchDecidesTheBracketForm:
    SCHEMA = "package s;\ntagschema S { tagtype Seen; }\n"

    def run(self, samples_dir, tmp_path, ref: str):
        ws = workspace(
            tmp_path,
            double_arrow_manifest(read(samples_dir, "statechart.glang")),
            read(samples_dir, "mobile.sc"),
            self.SCHEMA,
            f"package mobile;\nconforms to s.S;\ntags T for Mobile {{\n tag {ref} with Seen;\n}}\n",
        )
        diags, text = export_text(ws)
        records = json.loads(text)["attachments"] if text is not None else None
        return [(d.condition, d.message) for d in diags], records

    def test_the_sketched_form_names_the_transition(self, samples_dir, tmp_path):
        diags, records = self.run(samples_dir, tmp_path, "[Start => Active]")
        assert diags == []
        assert [(r["elementPath"], r["elementType"]) for r in records] == [
            ("[Start -> Active]", "Transition")
        ]

    def test_the_old_form_is_an_expression(self, samples_dir, tmp_path):
        diags, records = self.run(samples_dir, tmp_path, "[Start -> Active]")
        assert diags == [("E1", "no invariant '[Start -> Active]' in 'Mobile'")]
        assert records is None


def test_the_form_with_more_literals_is_tried_first(manifest_text, chart):
    invariant = "production Invariant = Expression\n"
    first = manifest_text.replace(invariant, "").replace("@sketch", invariant + "@sketch")
    profile = derive_profile(parse_manifest(first))
    assert [rule.nonterminal for rule in profile.bracket_rules()] == ["Invariant", "Transition"]
    handle = resolve_element(chart, ElementIdentifier.bracket("Start -> Active"), profile=profile)
    assert (handle.path, handle.element_type) == ("[Start -> Active]", "Transition")


def resolve(chart, profile, raw: str) -> tuple[str, str]:
    handle = resolve_element(chart, ElementIdentifier.bracket(raw), profile=profile)
    return handle.path, handle.element_type


def unsketched_manifest(text: str) -> str:
    return text.replace('@sketch "source -> target" ', "")


class TestFormsWithoutLiteralsReadTogether:
    """Forms with equally many sketch literals pool what they find."""

    def test_an_unsketched_transition_is_read_by_its_text(self, manifest_text, chart):
        profile = derive_profile(parse_manifest(unsketched_manifest(manifest_text)))
        assert [rule.syntax_sketch for rule in profile.bracket_rules()] == [
            "source target",
            "Expression",
        ]
        assert resolve(chart, profile, "Start -> Active") == ("[Start -> Active]", "Transition")
        assert resolve(chart, profile, "status!=isActive") == (
            "Active.Call.[status!=isActive]",
            "Invariant",
        )
        with pytest.raises(ResolutionError) as exc:
            resolve(chart, profile, "Start -> Done")
        assert str(exc.value) == "no transition or invariant '[Start -> Done]' in 'Mobile'"

    def test_a_text_both_forms_find_is_ambiguous(self, manifest_text):
        profile = derive_profile(parse_manifest(unsketched_manifest(manifest_text)))
        chart = parse_statechart(
            "package p;\nstatechart C {\n state A { [A -> B]; }\n state B;\n A -> B;\n}\n"
        )
        with pytest.raises(ResolutionError) as exc:
            resolve(chart, profile, "A -> B")
        assert str(exc.value) == "2 transitions or invariants match '[A -> B]' in 'C'"

    def test_an_expression_production_before_invariant_leaves_invariants_readable(
        self, manifest_text, chart
    ):
        invariant = "production Invariant = Expression\n"
        text = manifest_text.replace(invariant, "production Guard = Expression\n" + invariant)
        profile = derive_profile(parse_manifest(text))
        assert [rule.nonterminal for rule in profile.bracket_rules()] == [
            "Transition",
            "Guard",
            "Invariant",
        ]
        assert resolve(chart, profile, "status!=isActive") == (
            "Active.Call.[status!=isActive]",
            "Invariant",
        )


def test_each_sketch_word_names_the_part_its_slot_holds(manifest_text):
    profile = derive_profile(
        parse_manifest(manifest_text.replace('"source -> target"', '"target <- source"'))
    )
    chart = parse_statechart(
        "package p;\nstatechart C {\n state A;\n state B;\n A -> B;\n B -> A;\n}\n"
    )
    assert resolve(chart, profile, "B <- A") == ("[A -> B]", "Transition")
    assert resolve(chart, profile, "A <- B") == ("[B -> A]", "Transition")
    # A slot whose word labels no part leaves the reference naming nothing.
    profile = derive_profile(
        parse_manifest(manifest_text.replace('"source -> target"', '"source -> target / via"'))
    )
    with pytest.raises(ResolutionError) as exc:
        resolve(chart, profile, "A -> B / A")
    assert str(exc.value) == "no transition A -> B / A in 'C'"


# Variants of the sample profile; under some, references match no bracket form.
PROFILE_VARIANTS = {
    "sample": lambda text: text,
    "double-arrow": double_arrow_manifest,
    "no-invariant": lambda text: text.replace(
        "production Invariant", "@skip production Invariant"
    ),
    "no-sketch": unsketched_manifest,
}
ODD_BRACKETS = ["S00 => S00", "S00 ->", "-> S00", "S00 -> S00 -> S00", "x -> 1", "S00 . S00 -> S00"]


@pytest.mark.parametrize("seed", range(200))
def test_the_tag_parser_and_the_resolver_agree_on_bracket_forms(manifest_text, seed):
    model = parse_statechart(
        random_statechart_text(random.Random(seed), max_extra_elements=12, unique_invariants=False)
    )
    raws = [ref.raw for ref, _ in addressable_refs(model) if ref.is_bracket]
    raws += [ref.raw for ref in bogus_refs(model) if ref.is_bracket]
    raws += [key[1:-1] for key in transition_counts(model)] + ODD_BRACKETS
    for variant in PROFILE_VARIANTS.values():
        profile = derive_profile(parse_manifest(variant(manifest_text)))
        for raw in raws:
            try:
                resolve_element(model, ElementIdentifier.bracket(raw), profile=profile)
                found_a_form = True
            except ResolutionError as exc:
                found_a_form = "matches no bracket identifier form" not in str(exc)
            assert bool(profile.bracket_readings(raw)) == found_a_form, raw
