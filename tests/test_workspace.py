"""Workspace loading, cross-file lookup, and export report assembly."""

from __future__ import annotations

import gc
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagweaver import (
    LoadedWorkspace,
    NormalizedValue,
    Workspace,
    ParseError,
    WorkspaceError,
    build_export_report,
    check_workspace,
    load_workspace,
    parse_tag_model,
    parse_tag_schema,
    render_export_report,
)
from tagweaver import records
from tagweaver.conformance import INT64_MAX, INT64_MIN
from tagweaver.diagnostics import render_json
from tagweaver import workspace as workspace_module
from tagweaver.workspace import _ValueForms, qualify, value_to_json

GOLDEN_EXPORT = Path(__file__).resolve().parent / "golden_export.json"


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
        from tagweaver import tagschema

        calls = []
        original = tagschema._judge

        def counting(tag_types, profile, filename):
            calls.append(Path(filename).name)
            return original(tag_types, profile, filename)

        monkeypatch.setattr(tagschema, "_judge", counting)
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
        assert calls == ["logging_schema.tagschema", "warned.tagschema"]
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


# Trees that hold one container object in several places: in several items
# of one list, inside tuples, at different depths (so at different
# indents), and inside another container that is itself reused.
_SMALL_TREES = st.recursive(
    _SCALARS, lambda children: st.lists(children, max_size=3), max_leaves=4
)
_CONTAINERS = (
    st.lists(_SMALL_TREES, max_size=3)
    | st.lists(_SMALL_TREES, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, _SMALL_TREES, max_size=3)
)


@st.composite
def _shared_trees(draw):
    inner = draw(_CONTAINERS)
    outer = draw(st.sampled_from([{"inner": inner}, [inner, inner], (inner, 1)]))
    reused = st.sampled_from([inner, outer])
    items = st.dictionaries(_STRINGS, reused | _SCALARS, min_size=1, max_size=3) | reused
    return draw(st.recursive(
        items,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_STRINGS, children, max_size=4),
        max_leaves=12,
    ))


_SHARED = {"kind": "complex", "subtags": [{"name": "n", "value": {"kind": "flag"}}]}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(tree=_shared_trees())
@example(tree=[{"value": _SHARED}, {"value": _SHARED}, {"value": _SHARED}])
@example(tree=({"v": _SHARED}, [{"v": _SHARED}, ({"v": _SHARED},)], {"v": [_SHARED]}))
@example(tree=[{"outer": {"in": _SHARED}}, {"outer": {"in": _SHARED}, "in": _SHARED}])
def test_render_of_shared_containers_matches_json_dumps(tree):
    assert render_json(tree) == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("bad", [1.5, {1, 2}, object()])
def test_render_of_shared_containers_refuses_unsupported_members(bad):
    shared = {"bad": bad}
    with pytest.raises(TypeError):
        render_json([{"value": {"ok": 1}}, {"value": shared}, {"value": shared}])
    with pytest.raises(TypeError):
        render_json([{"value": [shared]}, {"value": [shared]}])


# Reports of the export's own shape: ``value_to_json`` forms (flag, scalar,
# complex with any nesting) shared by identity between attachments.  Dicts
# are built by ``_ordered`` so that their keys keep the export's order.
def _ordered(*keys: str):
    return lambda *members: dict(zip(keys, members))


_EXPORT_VALUES = st.recursive(
    st.just("flag").map(_ordered("kind"))
    | st.builds(_ordered("kind", "value"), _STRINGS, _STRINGS | st.integers() | st.booleans()),
    lambda children: st.builds(_ordered("kind", "subtags"), st.just("complex"), st.lists(
        st.builds(_ordered("name", "value"), _STRINGS, children), max_size=3)),
    max_leaves=12,
)


@st.composite
def _export_reports(draw, min_attachments=0):
    pool = draw(st.lists(_EXPORT_VALUES, min_size=1, max_size=4))
    attachments = draw(st.lists(st.builds(
        _ordered("elementPath", "elementType", "tagType", "schema", "value"),
        _STRINGS, _STRINGS, _STRINGS, _STRINGS, st.sampled_from(pool),
    ), min_size=min_attachments, max_size=6))
    return {"targetModel": draw(_STRINGS), "attachments": attachments}


def _nested(depth: int) -> dict:
    value = {"kind": "complex", "subtags": []}
    for i in range(depth):
        value = {"kind": "complex", "subtags": [{"name": f"n{i}", "value": value},
                                                {"name": "\ud800", "value": {"kind": "bool", "value": True}}]}
    return value


_DEEP = _nested(5)
_INT = {"kind": "int", "value": -(2**70)}


def _attachment(value, path='say "hi" \\ \x00\x1f na\u00efve \U0001d11e'):
    return {"elementPath": path, "elementType": "State", "tagType": "T\udfff", "schema": "s.S",
            "value": value}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(report=_export_reports())
@example(report={"targetModel": "m.M", "attachments": []})
@example(report={"targetModel": "", "attachments": [_attachment(_DEEP), _attachment(_INT, "x"),
                                                    _attachment(_DEEP, ""), _attachment(_INT)]})
@example(report={"targetModel": "m", "attachments": [_attachment({"kind": "complex", "subtags": []})] * 2})
def test_export_shaped_reports_render_as_json_dumps(report):
    assert render_export_report(report) == json.dumps(report, indent=2) + "\n"


class _Dict(dict):
    pass


def _outcome(render, report):
    try:
        return render(report)
    except TypeError as exc:
        return f"TypeError: {exc}"


def _slots(report) -> list:
    """Each place that holds a dict or a list in ``report``: (container, key), once per place."""

    slots, stack = [], [report]
    while stack:
        node = stack.pop()
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(child, (dict, list)):
                slots.append((node, key))
                stack.append(child)
    return slots


@st.composite
def _near_misses(draw):
    """An export-shaped report with one thing changed: in place (so in every sharer) or in one place."""

    report = draw(_export_reports(min_attachments=1))
    slots = _slots(report)
    how = draw(st.sampled_from(["reorder", "rename", "extra", "missing", "field", "float", "set", "tuple",
                                "subclass"]))
    if how == "tuple":
        container, key = draw(st.sampled_from([(c, k) for c, k in slots if isinstance(c[k], list)]))
        container[key] = tuple(container[key])
        return report
    dicts = [(c, k) for c, k in slots if isinstance(c[k], dict)]
    container, key = draw(st.sampled_from([(None, None)] + dicts))
    target = report if container is None else container[key]
    if how == "subclass":
        if container is None:
            return _Dict(report)
        container[key] = _Dict(target)
    elif how in ("reorder", "rename"):
        items = list(target.items())
        if how == "reorder":
            items = draw(st.permutations(items))
        else:
            i = draw(st.integers(0, len(items) - 1))
            items[i] = (draw(_STRINGS), items[i][1])
        target.clear()
        target.update(items)
    elif how == "extra":
        target[draw(_STRINGS)] = draw(_SCALARS)
    elif how == "missing":
        del target[draw(st.sampled_from(list(target)))]
    else:
        member = {"float": 1.5, "set": {1}}.get(how) or draw(
            st.integers() | st.none() | st.booleans() | st.lists(st.integers(), max_size=2))
        target[draw(st.sampled_from(list(target)))] = member
    return report


@settings(derandomize=True, deadline=None, max_examples=200)
@given(report=_near_misses())
@example(report={"attachments": [], "targetModel": "m"})
@example(report={"targetModel": 1, "attachments": [_attachment(_INT)], "extra": None})
@example(report={"targetModel": "m", "attachments": [{**_attachment(_INT), "tagType": 7}, _attachment(_INT)]})
@example(report={"targetModel": "m", "attachments": [_attachment({"kind": "int", "value": 1.5})]})
@example(report={"targetModel": "m",
                 "attachments": [_attachment({"kind": "c", "subtags": ({"name": "n", "value": _INT},)})]})
@example(report={"targetModel": "m",
                 "attachments": [_attachment(_Dict(_INT)), _attachment({"kind": "x", "value": {1}})]})
def test_near_miss_reports_render_or_raise_as_render_json(report):
    expected = _outcome(render_json, report)
    assert _outcome(render_export_report, report) == expected
    if not expected.startswith("TypeError"):
        assert expected == json.dumps(report, indent=2) + "\n"


# Members the shape checks must send to ``render_json``: empty containers that are
# not lists (iterating them writes nothing) and payloads the scalar table lacks.
@pytest.mark.parametrize("report", [
    *({"targetModel": "m", "attachments": empty} for empty in ("", {}, set(), ())),
    *({"targetModel": "m", "attachments": [_attachment({"kind": "k", "value": payload})]}
      for payload in (None, [1], {"a": 1}, _Dict())),
    *({"targetModel": "m", "attachments": [_attachment({"kind": "complex", "subtags": empty})]}
      for empty in ("", {}, set(), ())),
])
def test_unexpected_containers_render_or_raise_as_render_json(report):
    expected = _outcome(render_json, report)
    assert _outcome(render_export_report, report) == expected
    if not expected.startswith("TypeError"):
        assert expected == json.dumps(report, indent=2) + "\n"


_SCALAR_VALUES = (
    st.just(NormalizedValue.flag())
    | st.sampled_from([0, 1, INT64_MIN, INT64_MAX]).map(NormalizedValue.of_int)
    | st.integers(min_value=INT64_MIN, max_value=INT64_MAX).map(NormalizedValue.of_int)
    | st.booleans().map(NormalizedValue.of_bool)
    | _STRINGS.map(NormalizedValue.of_string)
    | st.sampled_from(["low", "naïve ✓", "𝄞"]).map(NormalizedValue.of_enum)
)
_VALUES = st.recursive(
    _SCALAR_VALUES,
    lambda children: st.lists(st.tuples(_STRINGS, children), max_size=3).map(
        lambda subtags: NormalizedValue.of_children(tuple(subtags))
    ),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(values=st.lists(_VALUES, max_size=6))
def test_each_distinct_value_is_serialized_as_on_its_own(values):
    """The export's value memo gives each value the dict and sort string it would get alone.

    Equal copies (hashed afresh) and bools beside equal ints go through one
    memo, and a copy finds its value's entry.  The sort string is made from
    the memo's dict, as ``build_export_report`` makes it for tied records.
    """

    forms = _ValueForms()
    for value in values:
        as_json = forms[value]
        assert as_json == value_to_json(value)
        assert json.dumps(as_json, sort_keys=True) == json.dumps(value_to_json(value), sort_keys=True)
        assert forms[records.replace(value)] is as_json
    assert len(forms) == len(set(values))


# A schema whose values tie records that share element, tag type and
# schema: an int, whose canonical text orders "10" before "2", and a complex
# value whose records differ only in a nested subtag.
_TIE_SCHEMA = (
    "package s;\n"
    "tagschema S {\n"
    "    tagtype Priority:int for State;\n"
    "    tagtype Note for State, Transition {\n"
    "        level:int,\n"
    "        detail:Detail;\n"
    "    }\n"
    "    private tagtype Detail {\n"
    "        code:int;\n"
    "    }\n"
    "    tagtype Seen;\n"
    "}\n"
)
_TIE_TAGS = "package mobile;\nconforms to s.S;\ntags T for Mobile {\n%s}\n"


def _note(code: str) -> str:
    return f'Note {{ level = "1", detail {{ code = "{code}"; }}; }}'


def _tied_workspace(manifest, profile, chart, *files: tuple[str, list[str]]) -> LoadedWorkspace:
    return LoadedWorkspace(
        manifest=manifest,
        profile=profile,
        models=(chart,),
        schemas=(parse_tag_schema(_TIE_SCHEMA, profile, filename="s.tagschema"),),
        tag_models=tuple(
            parse_tag_model(_TIE_TAGS % "".join(f"    {s}\n" for s in statements), profile,
                            filename=name)
            for name, statements in files
        ),
    )


def _sorted_by_the_seven_fields(loaded: LoadedWorkspace) -> list[dict]:
    _, resolved = check_workspace(loaded)
    attachments = [att for tagging in resolved for att in tagging.attachments]
    attachments.sort(key=lambda att: (
        att.element.path, att.tag_type, att.schema,
        json.dumps(value_to_json(att.value), sort_keys=True),
        att.file or "", att.line, att.col,
    ))
    return [
        {
            "elementPath": att.element.path,
            "elementType": att.element.element_type,
            "tagType": att.tag_type,
            "schema": att.schema,
            "value": value_to_json(att.value),
        }
        for att in attachments
    ]


def test_tied_records_with_different_values_sort_by_their_canonical_text(manifest, profile, chart):
    """Records tied on element, tag type and schema order by value text, then by position."""

    loaded = _tied_workspace(
        manifest, profile, chart,
        ("b.tag", ['tag Start with Priority = "2";', f"tag Done with {_note('7')};",
                   'tag Start with Priority = "10";']),
        ("a.tag", [f"tag Done with {_note('7')};", f"tag Done with {_note('12')};",
                   'tag Start with Priority = "2";', "tag Active with Seen;"]),
    )
    diags, report = build_export_report(loaded)
    assert report is not None, diags
    order = [(a["elementPath"], a["tagType"], json.dumps(a["value"], separators=(",", ":")))
             for a in report["attachments"]]
    note = '{"kind":"complex","subtags":[{"name":"level","value":{"kind":"int","value":1}},' \
           '{"name":"detail","value":{"kind":"complex","subtags":' \
           '[{"name":"code","value":{"kind":"int","value":%s}}]}}]}'
    assert order == [
        ("Active", "Seen", '{"kind":"flag"}'),
        ("Done", "Note", note % 12),
        ("Done", "Note", note % 7),
        ("Done", "Note", note % 7),
        ("Start", "Priority", '{"kind":"int","value":10}'),
        ("Start", "Priority", '{"kind":"int","value":2}'),
        ("Start", "Priority", '{"kind":"int","value":2}'),
    ]
    assert report["attachments"] == _sorted_by_the_seven_fields(loaded)
    assert render_export_report(report) == json.dumps(report, indent=2) + "\n"


def test_records_tied_on_the_whole_key_keep_the_order_of_the_tag_files(samples_dir, tmp_path):
    """A chart and a state share a path; their equal records follow the files as given."""

    def tags(name: str, ref: str):
        return write(tmp_path, name, f"package p;\nconforms to s.S;\ntags {name[0].upper()} for A "
                                     f"{{ tag {ref} with M; }}\n")

    ws = Workspace(
        manifest_file=samples_dir / "statechart.glang",
        model_files=(write(tmp_path, "m.sc", "package p;\nstatechart A { state A; }\n"),),
        schema_files=(write(tmp_path, "s.tagschema", "package s;\ntagschema S { tagtype M; }\n"),),
        tag_files=(tags("z.tag", "A"), tags("a.tag", "A.A")),
    )
    for tag_files, types in ((ws.tag_files, ["Statechart", "State"]),
                             (ws.tag_files[::-1], ["State", "Statechart"])):
        diags, report = build_export_report(load_workspace(records.replace(ws, tag_files=tag_files)))
        assert diags == []
        assert [(a["elementPath"], a["elementType"]) for a in report["attachments"]] == [
            ("A", t) for t in types
        ]


_TIE_ELEMENTS = ["Start", "Active", "Active.Call", "Done"]
_TIE_USES = (
    [f'Priority = "{n}"' for n in ("2", "10", "-1")]
    + [_note(code) for code in ("7", "12", "007")]
    + ["Seen"]
)
_TIE_STATEMENTS = st.builds(
    lambda elements, uses: f"tag {', '.join(elements)} with {', '.join(uses)};",
    st.lists(st.sampled_from(_TIE_ELEMENTS), min_size=1, max_size=3),
    st.lists(st.sampled_from(_TIE_USES), min_size=1, max_size=3),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(files=st.lists(st.lists(_TIE_STATEMENTS, min_size=1, max_size=5), min_size=1, max_size=3))
def test_export_order_and_bytes_of_random_tag_models(manifest, profile, chart, files):
    """The attachments follow the seven-field key, and render as ``json.dumps`` does."""

    loaded = _tied_workspace(
        manifest, profile, chart, *((f"t{len(files) - i}.tag", s) for i, s in enumerate(files))
    )
    diags, report = build_export_report(loaded)
    assert report is not None, diags
    assert report["attachments"] == _sorted_by_the_seven_fields(loaded)
    assert render_export_report(report) == json.dumps(report, indent=2) + "\n"


class TestExportOfBothSampleTagModels:
    @pytest.fixture()
    def loaded(self, golden_workspace, samples_dir):
        return load_workspace(records.replace(
            golden_workspace,
            tag_files=golden_workspace.tag_files + (samples_dir / "mobile_tags_full.tag",),
        ))

    def test_bytes_equal_the_golden_file(self, loaded):
        _, report = build_export_report(loaded)
        assert render_export_report(report).encode("utf-8") == GOLDEN_EXPORT.read_bytes()

    def test_order_is_the_content_then_position_key(self, loaded):
        """The attachments sort by path, tag type, schema, canonical value, file, line, col."""

        _, resolved = check_workspace(loaded)
        attachments = [att for tagging in resolved for att in tagging.attachments]
        attachments.sort(key=lambda att: (
            att.element.path, att.tag_type, att.schema,
            json.dumps(value_to_json(att.value), sort_keys=True),
            att.file or "", att.line, att.col,
        ))
        _, report = build_export_report(loaded)
        assert report["attachments"] == [
            {
                "elementPath": att.element.path,
                "elementType": att.element.element_type,
                "tagType": att.tag_type,
                "schema": att.schema,
                "value": value_to_json(att.value),
            }
            for att in attachments
        ]
        assert len(attachments) > len({att.value for att in attachments})

    def test_equal_values_share_one_dict(self, loaded):
        _, report = build_export_report(loaded)
        values = [a["value"] for a in report["attachments"]]
        assert len({id(v) for v in values}) == len({json.dumps(v, sort_keys=True) for v in values})


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


# ---------------------------------------------------------------------------
# The batch entry points run without cyclic collections
# ---------------------------------------------------------------------------


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def nested_workspace(tmp_path_factory) -> Workspace:
    generated = _load_workloads().generate(
        "nested-contexts", 4242, tmp_path_factory.mktemp("nested"), quick=True
    )
    return Workspace(
        manifest_file=generated.manifest,
        model_files=(generated.model,),
        schema_files=(generated.schema,),
        tag_files=tuple(generated.tag_files),
    )


@pytest.mark.parametrize("workload", ["flat-brackets", "nested-contexts", "merged-export"])
def test_the_export_of_each_workload_renders_as_json_dumps(workload, tmp_path):
    generated = _load_workloads().generate(workload, 4242, tmp_path, quick=True)
    diags, report = build_export_report(load_workspace(Workspace(
        generated.manifest, (generated.model,), tuple(generated.tag_files), (generated.schema,))))
    assert report is not None, diags
    assert render_export_report(report) == json.dumps(report, indent=2) + "\n"


def _collections_during(call, *args) -> list[int]:
    """Call ``call(*args)``; return the generations of the collections started inside it."""

    started, inside = [], [False]

    def hook(phase, info):
        if phase == "start" and inside[0]:
            started.append(info["generation"])

    gc.collect()  # a fresh count: nothing is due before the call starts
    gc.callbacks.append(hook)
    try:
        inside[0] = True
        call(*args)
        inside[0] = False
    finally:
        gc.callbacks.remove(hook)
    return started


def _each_entry_point(ws: Workspace):
    loaded = load_workspace(ws)
    return [(load_workspace, ws), (check_workspace, loaded), (build_export_report, loaded)]


class TestCollectorPause:
    @pytest.mark.parametrize("name", ["golden_workspace", "nested_workspace"])
    def test_no_collection_starts_inside_an_entry_point(self, name, request):
        for call, arg in _each_entry_point(request.getfixturevalue(name)):
            assert _collections_during(call, arg) == [], call.__name__
            assert gc.isenabled()

    def test_the_same_calls_collect_unpaused(self, nested_workspace):
        # The hook sees the collections that the pause prevents.
        assert _collections_during(load_workspace.__wrapped__, nested_workspace)
        loaded = load_workspace(nested_workspace)
        assert _collections_during(check_workspace.__wrapped__, loaded)

    def test_restored_after_a_parse_error(self, golden_workspace, tmp_path):
        bad = write(tmp_path, "bad.tag", "package mobile;\ntags {\n")
        with pytest.raises(ParseError):
            load_workspace(records.replace(golden_workspace, tag_files=(bad,)))
        assert gc.isenabled()

    def test_restored_after_a_workspace_error(self, golden_workspace):
        twice = golden_workspace.model_files * 2
        with pytest.raises(WorkspaceError, match="defined by both"):
            load_workspace(records.replace(golden_workspace, model_files=twice))
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, golden_workspace):
        gc.disable()
        try:
            for call, arg in _each_entry_point(golden_workspace):
                call(arg)
                assert not gc.isenabled(), call.__name__
            with pytest.raises(WorkspaceError, match="defined by both"):
                load_workspace(records.replace(
                    golden_workspace, model_files=golden_workspace.model_files * 2
                ))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_the_nested_check_leaves_the_export_paused(self, golden_workspace, monkeypatch):
        # ``has_errors`` is the export's first call after ``check_workspace``.
        seen = []
        real = workspace_module.has_errors

        def has_errors(diags):
            seen.append(gc.isenabled())
            return real(diags)

        monkeypatch.setattr(workspace_module, "has_errors", has_errors)
        _, report = build_export_report(load_workspace(golden_workspace))
        assert report is not None
        assert seen == [False]
        assert gc.isenabled()
