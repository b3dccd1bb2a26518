"""Bounded nesting: every parser returns or raises ``ParseError``, at any depth.

State bodies, ``within`` blocks and complex values all nest with ``{``.
Up to ``MAX_NESTING`` levels, ``check`` and ``export`` work as usual; one
level more is a parse error at the opening ``{`` of that level, so the CLI
exits 2 with one line instead of exhausting the recursion limit.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagweaver import (
    parse_manifest,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
    pretty_print_statechart,
    pretty_print_tag_model,
)
from tagweaver.cli import run_cli
from tagweaver.errors import ParseError
from tagweaver.parsing import MAX_NESTING, tokenize

SCHEMA = "package s;\ntagschema S {\n    tagtype M;\n    tagtype Node { child:Node?; }\n}\n"
FLAT_CHART = "package p;\nstatechart C {\n    state A;\n}\n"


def tag_file(body: str) -> str:
    return f"package p;\nconforms to s.S;\ntags T for C {{\n{body}}}\n"


def nested_chart(depth: int) -> tuple[str, str]:
    chart = (
        "package p;\nstatechart C {\n"
        + "".join(f"state D{i} {{\n" for i in range(depth))
        + "}\n" * depth
        + "}\n"
    )
    return chart, tag_file("tag D0 with M;\n")


def nested_contexts(depth: int) -> tuple[str, str]:
    body = "within A {\n" * depth + "tag A with M;\n" + "}\n" * depth
    return FLAT_CHART, tag_file(body)


def nested_value(depth: int) -> tuple[str, str]:
    value = "Node " + "{ child " * (depth - 1) + "{}" + "; }" * (depth - 1)
    return FLAT_CHART, tag_file(f"tag A with {value};\n")


KINDS = {"chart": nested_chart, "within": nested_contexts, "value": nested_value}


def opening_brace(text: str, level: int) -> tuple[int, int]:
    """Line and column of the ``{`` that opens ``level``; the file's own
    top-level ``{`` is level 0."""

    offset = -1
    for _ in range(level + 1):
        offset = text.index("{", offset + 1)
    line = text.count("\n", 0, offset) + 1
    return line, offset - text.rfind("\n", 0, offset)


def run(tmp_path, samples_dir, command: str, chart: str, tags: str) -> int:
    files = {"m.sc": chart, "s.tagschema": SCHEMA, "t.tag": tags}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return run_cli([
        command,
        "--manifest", str(samples_dir / "statechart.glang"),
        "--model", str(tmp_path / "m.sc"),
        "--schema", str(tmp_path / "s.tagschema"),
        "--tags", str(tmp_path / "t.tag"),
    ])


@pytest.mark.parametrize("command", ["check", "export"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_deepest_allowed_nesting_passes(tmp_path, samples_dir, capsys, kind, command):
    assert run(tmp_path, samples_dir, command, *KINDS[kind](MAX_NESTING)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "export":
        (attachment,) = json.loads(captured.out)["attachments"]
        assert attachment["tagType"] == ("Node" if kind == "value" else "M")
    else:
        assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "export"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_one_level_more_exits_two_at_its_brace(tmp_path, samples_dir, capsys, kind, command):
    chart, tags = KINDS[kind](MAX_NESTING + 1)
    assert run(tmp_path, samples_dir, command, chart, tags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name, text = ("m.sc", chart) if kind == "chart" else ("t.tag", tags)
    line, col = opening_brace(text, MAX_NESTING + 1)
    assert captured.err == (
        f"error: {tmp_path / name}:{line}:{col}: "
        f"blocks nest deeper than {MAX_NESTING} levels\n"
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_the_deepest_allowed_nesting_round_trips(profile, kind):
    chart_text, tags_text = KINDS[kind](MAX_NESTING)
    chart = parse_statechart(chart_text)
    assert parse_statechart(pretty_print_statechart(chart)) == chart
    tags = parse_tag_model(tags_text, profile)
    assert parse_tag_model(pretty_print_tag_model(tags), profile) == tags


def test_levels_of_different_kinds_add_up(profile):
    def contexts_around(value: str) -> str:
        depth = MAX_NESTING - 1
        return tag_file("within A {\n" * depth + f"tag A with {value};\n" + "}\n" * depth)

    parse_tag_model(contexts_around("Node {}"), profile)
    with pytest.raises(ParseError, match="deeper than"):
        parse_tag_model(contexts_around("Node { child {}; }"), profile)


def test_sibling_blocks_do_not_add_up(tmp_path, samples_dir, capsys):
    count = MAX_NESTING + 1
    states = "".join(f"state D{i} {{ }}\n" for i in range(count))
    chart = f"package p;\nstatechart C {{\nstate A {{ state B; }}\n{states}}}\n"
    tags = tag_file("within A { tag B with Node {}; }\n" * count)
    assert run(tmp_path, samples_dir, "check", chart, tags) == 0
    assert capsys.readouterr().out.count("warning[DuplicateTagWarning]") == count - 1


# ---------------------------------------------------------------------------
# Every parser returns or raises ParseError
# ---------------------------------------------------------------------------

# Fragments of the four languages, and the ways they nest: a lead, then one
# opener repeated up to 1 500 times, far past the limit, then the fragments.
FRAGMENTS = [
    "state S {", "initial state S;", "state S;", "[x > 1];", "S -> S : go;", "...",
    "within S {", "within [S -> S] {", "tag S with M;", "tag S with Node {", "child {",
    "M = \"v\"", "{", "}", ";", ",", "}}", "tagtype M;", "tagtype N { c:N?; }",
    "tagtype E:[\"a\"|\"b\"] for State;", "production P = Q", "@named", "\n", "\"", "/*",
]
NESTINGS = [("", "state S {"), ("", "within S {"), ("tag S with Node {", "child {"), ("", "{")]
HEADERS = {
    parse_statechart: "package p;\nstatechart C {\n",
    parse_tag_model: "package p;\nconforms to s.S;\ntags T for C {\n",
    parse_tag_schema: "package s;\ntagschema S {\n",
    parse_manifest: "grammar G\n",
}

soups = st.lists(st.sampled_from(FRAGMENTS), max_size=8).map(" ".join)


@settings(max_examples=60, deadline=None)
@example(soup="", nesting=NESTINGS[0], depth=1500, closing=1500)
@example(soup="tag S with M;", nesting=NESTINGS[1], depth=1500, closing=1500)
@example(soup="", nesting=NESTINGS[2], depth=1500, closing=1500)
@given(
    soup=soups,
    nesting=st.sampled_from(NESTINGS),
    depth=st.integers(0, 1500),
    closing=st.integers(0, 1600),
)
def test_every_parser_returns_or_raises_parse_error(profile, soup, nesting, depth, closing):
    lead, opener = nesting
    body = lead + f" {opener}" * depth + f" {soup}" + " }" * closing
    for parser, header in HEADERS.items():
        args = (header + body,)
        if parser in (parse_tag_model, parse_tag_schema):
            args += (profile,)
        try:
            parser(*args)
        except ParseError:
            pass
    try:
        tokenize(body, raw_brackets=True)
    except ParseError:
        pass
