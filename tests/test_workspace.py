"""Workspace loading, cross-file lookup, and export report assembly."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagweaver import (
    LoadedWorkspace,
    NormalizedValue,
    Workspace,
    WorkspaceError,
    build_export_report,
    check_workspace,
    load_workspace,
    render_export_report,
)
from tagweaver import records
from tagweaver.workspace import qualify, value_to_json


@pytest.fixture()
def golden_workspace(samples_dir):
    return Workspace(
        manifest_file=samples_dir / "statechart.glang",
        model_files=(samples_dir / "mobile.sc",),
        schema_files=(samples_dir / "logging_schema.tagschema",),
        tag_files=(samples_dir / "mobile_tags.tag",),
    )


def write(directory, name: str, text: str):
    path = directory / name
    path.write_text(text)
    return path


EXTRA_TAGS = (
    "package mobile;\n"
    "conforms to loggingschema.StatechartTagSchema;\n"
    "tags MoreTags for Mobile {\n"
    "    tag Done with Monitored;\n"
    "    tag Start with Monitored;\n"
    "}\n"
)

FAULTY_TAGS = (
    "package mobile;\n"
    "conforms to loggingschema.StatechartTagSchema;\n"
    "tags BadTags for Mobile {\n"
    "    tag Ghost with Monitored;\n"
    "}\n"
)


class TestLoading:
    def test_golden_workspace_loads(self, golden_workspace):
        loaded = load_workspace(golden_workspace)
        assert loaded.manifest.grammar_name == "Statechart"
        assert [m.qualified_name for m in loaded.models] == ["mobile.Mobile"]
        assert [s.qualified_name for s in loaded.schemas] == [
            "loggingschema.StatechartTagSchema"
        ]
        assert [t.qualified_name for t in loaded.tag_models] == [
            "mobile.StatechartTags"
        ]

    def test_ill_formed_schema_reports_diagnostics(self, golden_workspace, tmp_path):
        bad = write(
            tmp_path,
            "bad.tagschema",
            "package s;\ntagschema Bad { tagtype Log for Transation; }\n",
        )
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files,
            schema_files=(bad,),
            tag_files=(),
        )
        with pytest.raises(WorkspaceError, match="not well-formed") as info:
            load_workspace(ws)
        assert [d.condition for d in info.value.diagnostics] == ["UnknownScopeKeyword"]

    def test_duplicate_schema_names_rejected(self, golden_workspace, tmp_path, schema_text):
        copy = write(tmp_path, "copy.tagschema", schema_text)
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files,
            schema_files=golden_workspace.schema_files + (copy,),
            tag_files=(),
        )
        with pytest.raises(WorkspaceError, match="defined by both"):
            load_workspace(ws)

    def test_duplicate_model_names_rejected(self, golden_workspace, tmp_path, chart_text):
        copy = write(tmp_path, "copy.sc", chart_text)
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files + (copy,),
            schema_files=golden_workspace.schema_files,
            tag_files=(),
        )
        with pytest.raises(WorkspaceError, match="defined by both"):
            load_workspace(ws)

    def test_each_schema_is_validated_once(self, golden_workspace, tmp_path, monkeypatch):
        from tagweaver import tagschema, workspace

        calls = []
        original = tagschema.validate_schema_well_formedness

        def counting(schema, profile):
            calls.append(schema.qualified_name)
            return original(schema, profile)

        # Patch every module that binds the validator, wherever it calls it from.
        for module in (tagschema, workspace):
            if hasattr(module, "validate_schema_well_formedness"):
                monkeypatch.setattr(module, "validate_schema_well_formedness", counting)
        warned = write(
            tmp_path, "warned.tagschema",
            "package s;\ntagschema S {\n    tagtype Ends for source;\n}\n",
        )
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files,
            schema_files=golden_workspace.schema_files + (warned,),
            tag_files=golden_workspace.tag_files,
        )
        loaded = load_workspace(ws)
        assert calls == ["loggingschema.StatechartTagSchema", "s.S"]
        assert [d.condition for d in loaded.schemas[1].findings] == ["ScopeAdmitsNoElement"]

    def test_loaded_workspace_keeps_no_copy_of_schema_findings(self):
        assert set(records.fields(LoadedWorkspace)) == {"manifest", "profile", "models", "schemas", "tag_models"}

    def test_find_model_miss_lists_available(self, golden_workspace):
        loaded = load_workspace(golden_workspace)
        with pytest.raises(WorkspaceError, match="available: mobile.Mobile"):
            loaded.find_model("other.Thing", "mobile")

    def test_find_schema_miss_lists_available(self, golden_workspace):
        loaded = load_workspace(golden_workspace)
        with pytest.raises(WorkspaceError, match="available: loggingschema"):
            loaded.find_schema("Nope", "mobile")

    def test_qualify(self):
        assert qualify("Name", "pkg") == "pkg.Name"
        assert qualify("other.Name", "pkg") == "other.Name"


class TestChecking:
    def test_golden_checks_clean(self, golden_workspace):
        diags, resolved = check_workspace(load_workspace(golden_workspace))
        assert diags == []
        assert len(resolved) == 1
        assert len(resolved[0].attachments) == 5

    def test_multiple_tag_files_accumulate(self, golden_workspace, tmp_path):
        extra = write(tmp_path, "more.tag", EXTRA_TAGS)
        faulty = write(tmp_path, "bad.tag", FAULTY_TAGS)
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files,
            schema_files=golden_workspace.schema_files,
            tag_files=golden_workspace.tag_files + (extra, faulty),
        )
        diags, resolved = check_workspace(load_workspace(ws))
        assert [d.condition for d in diags] == ["E1"]
        # The two clean models still resolve; the faulty one is withheld.
        assert len(resolved) == 2


    def test_model_then_schema_then_check_findings(self, golden_workspace, tmp_path):
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=(write(
                tmp_path, "m.sc",
                "package mobile;\nstatechart Mobile {\n    state A;\n    state B;\n"
                "    A -> B : go;\n    A -> B : go;\n}\n",
            ),),
            schema_files=(write(
                tmp_path, "s.tagschema",
                "package s;\ntagschema S {\n    tagtype Ends for source, Transition;\n"
                "    tagtype M;\n}\n",
            ),),
            tag_files=(write(
                tmp_path, "t.tag",
                "package mobile;\nconforms to s.S;\ntags T for Mobile {\n"
                "    tag A with M;\n    tag A with M;\n}\n",
            ),),
        )
        diags, resolved = check_workspace(load_workspace(ws))
        assert [(d.file, d.condition, d.line, d.col) for d in diags] == [
            (str(tmp_path / "m.sc"), "DuplicateTransition", 6, 5),
            (str(tmp_path / "s.tagschema"), "ScopeAdmitsNoElement", 3, 22),
            (str(tmp_path / "t.tag"), "DuplicateTagWarning", 5, 16),
        ]
        assert len(resolved) == 1


class TestExport:
    def test_golden_report(self, golden_workspace):
        diags, report = build_export_report(load_workspace(golden_workspace))
        assert diags == []
        assert report["targetModel"] == "mobile.Mobile"
        assert [a["elementPath"] for a in report["attachments"]] == [
            "Active",
            "Active.Busy",
            "Active.Call",
            "ConnectionProblems",
            "Mobile",
        ]
        assert report["attachments"][0] == {
            "elementPath": "Active",
            "elementType": "State",
            "tagType": "Monitored",
            "schema": "loggingschema.StatechartTagSchema",
            "value": {"kind": "flag"},
        }

    def test_refused_on_errors(self, golden_workspace, tmp_path):
        faulty = write(tmp_path, "bad.tag", FAULTY_TAGS)
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files,
            schema_files=golden_workspace.schema_files,
            tag_files=(faulty,),
        )
        diags, report = build_export_report(load_workspace(ws))
        assert report is None
        assert [d.condition for d in diags] == ["E1"]

    def test_multiple_targets_rejected(self, golden_workspace, tmp_path):
        other_model = write(
            tmp_path, "other.sc", "package p;\nstatechart Other { state A; }\n"
        )
        other_tags = write(
            tmp_path,
            "other.tag",
            "package p;\nconforms to loggingschema.StatechartTagSchema;\n"
            "tags T for Other { tag A with Monitored; }\n",
        )
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files + (other_model,),
            schema_files=golden_workspace.schema_files,
            tag_files=golden_workspace.tag_files + (other_tags,),
        )
        with pytest.raises(WorkspaceError, match="single target model"):
            build_export_report(load_workspace(ws))

    def test_merged_export_equals_resorted_concatenation(
        self, golden_workspace, tmp_path
    ):
        extra = write(tmp_path, "more.tag", EXTRA_TAGS)

        def attachments(tag_files):
            ws = Workspace(
                manifest_file=golden_workspace.manifest_file,
                model_files=golden_workspace.model_files,
                schema_files=golden_workspace.schema_files,
                tag_files=tag_files,
            )
            _, report = build_export_report(load_workspace(ws))
            return report["attachments"]

        merged = attachments(golden_workspace.tag_files + (extra,))
        separate = attachments(golden_workspace.tag_files) + attachments((extra,))
        assert merged == sorted(
            separate, key=lambda a: (a["elementPath"], a["tagType"], a["schema"])
        )

    def test_render_is_deterministic_with_trailing_newline(self, golden_workspace):
        loaded = load_workspace(golden_workspace)
        _, report = build_export_report(loaded)
        text = render_export_report(report)
        assert text == render_export_report(report)
        assert text.endswith("}\n")


EDGE_SCHEMA = r"""package edge;
tagschema EdgeSchema {
    tagtype Note:String for State;
    tagtype Level:["say \"hi\""|"back\\slash"|"naïve ✓ 𝄞"] for State;
    tagtype Options for State {
        note:String?;
    }
    tagtype Outer for State {
        middle:Middle;
    }
    private tagtype Middle {
        inner:Inner,
        count:int?;
    }
    private tagtype Inner {
        text:String;
    }
}
"""

EDGE_TAGS = r"""package mobile;
conforms to edge.EdgeSchema;
tags EdgeTags for Mobile {
    tag Active with Note = "a \"quoted\" C:\\path — naïve ✓ 𝄞";
    tag Active.Call with Level = "say \"hi\"";
    tag Active.Busy with Level = "back\\slash";
    tag Done with Level = "naïve ✓ 𝄞";
    tag Start with Options {};
    tag ConnectionProblems with Outer { middle { inner { text = "deep"; }, count = "7"; }; };
}
"""

EMPTY_TAGS = "package mobile;\nconforms to edge.EdgeSchema;\ntags NoTags for Mobile {\n}\n"


class TestRender:
    """The export text is byte for byte ``json.dumps(report, indent=2)``."""

    def edge_report(self, golden_workspace, tmp_path, tags: str) -> dict:
        ws = Workspace(
            manifest_file=golden_workspace.manifest_file,
            model_files=golden_workspace.model_files,
            schema_files=(write(tmp_path, "edge.tagschema", EDGE_SCHEMA),),
            tag_files=(write(tmp_path, "edge.tag", tags),),
        )
        diags, report = build_export_report(load_workspace(ws))
        assert diags == []
        return report

    def test_report_without_attachments(self, golden_workspace, tmp_path):
        report = self.edge_report(golden_workspace, tmp_path, EMPTY_TAGS)
        text = render_export_report(report)
        assert text == json.dumps(report, indent=2) + "\n"
        assert text == '{\n  "targetModel": "mobile.Mobile",\n  "attachments": []\n}\n'

    def test_escapes_empty_subtags_and_nested_complex_values(
        self, golden_workspace, tmp_path
    ):
        report = self.edge_report(golden_workspace, tmp_path, EDGE_TAGS)
        values = {a["elementPath"]: a["value"] for a in report["attachments"]}
        assert values["Active"]["value"] == 'a "quoted" C:\\path — naïve ✓ 𝄞'
        assert values["Active.Call"]["value"] == 'say "hi"'
        assert values["Active.Busy"]["value"] == "back\\slash"
        assert values["Start"] == {"kind": "complex", "subtags": []}
        middle = values["ConnectionProblems"]["subtags"][0]["value"]
        assert middle["subtags"][0]["value"]["kind"] == "complex"
        text = render_export_report(report)
        assert text == json.dumps(report, indent=2) + "\n"
        assert (
            '"value": "a \\"quoted\\" C:\\\\path \\u2014 na\\u00efve \\u2713 \\ud834\\udd1e"'
            in text
        )
        assert '"subtags": []' in text

    @pytest.mark.parametrize(
        "report", [{"values": {1, 2}}, {1.5: "x"}, {"value": 1.5}]
    )
    def test_unsupported_types_raise(self, report):
        with pytest.raises(TypeError):
            render_export_report(report)


_CHARACTERS = (
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", "✓", "\U0001d11e"])
    | st.characters(exclude_categories=())
    | st.characters(categories=["Cs"])
)
_STRINGS = st.text(_CHARACTERS, max_size=8)
_SCALARS = (
    _STRINGS
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.booleans()
    | st.none()
)
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, children, max_size=4),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tree=_TREES)
def test_render_matches_json_dumps(tree):
    assert render_export_report(tree) == json.dumps(tree, indent=2) + "\n"


class TestValueToJson:
    def test_scalar_forms(self):
        assert value_to_json(NormalizedValue.flag()) == {"kind": "flag"}
        assert value_to_json(NormalizedValue.of_int(3)) == {"kind": "int", "value": 3}
        assert value_to_json(NormalizedValue.of_string("s")) == {
            "kind": "string",
            "value": "s",
        }
        assert value_to_json(NormalizedValue.of_bool(True)) == {
            "kind": "bool",
            "value": True,
        }
        assert value_to_json(NormalizedValue.of_enum("low")) == {
            "kind": "enum",
            "value": "low",
        }

    def test_complex_form(self):
        value = NormalizedValue.of_children(
            (("a", NormalizedValue.of_int(1)), ("b", NormalizedValue.flag()))
        )
        assert value_to_json(value) == {
            "kind": "complex",
            "subtags": [
                {"name": "a", "value": {"kind": "int", "value": 1}},
                {"name": "b", "value": {"kind": "flag"}},
            ],
        }
