"""The chart reader reads a statechart exactly as the token parser does.

``statechart._read_chart`` reads the common case of a ``.sc`` file from its
text, item by item: states with their modifiers, invariants and nested
bodies up to ``MAX_NESTING`` deep, ``...`` and transitions whose event is
identifiers, ``->`` and ``(),.`` on one line.  ``statechart._parse_tokens``
is the token parser, the reference.  Where the reader reads a file, both
give the same records with the same ``line`` and ``col`` everywhere, the
same findings and the same element table.  Where it does not,
``parse_statechart`` returns or raises exactly what the token parser does.
Either reader's findings are those that ``tests/util.oracle_chart_findings``
derives from the records on its own.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tagweaver import parse_statechart, pretty_print_statechart, statechart
from tagweaver.errors import ParseError
from tagweaver.parsing import MAX_NESTING, read_source
from test_statement_reader import FILLERS, WORKLOADS, splice
from util import load_workloads, mutate, mutations, oracle_chart_findings, random_statechart_text

HEADER = "package m;\nstatechart C {\n"
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def outcome(parse, text: str):
    """What ``parse`` gives for ``text``: the model, its findings and element table, or the error."""

    try:
        model = parse(text, "t.sc")
    except ParseError as exc:
        return type(exc), str(exc)
    table = model.element_table
    return repr(model), repr(model.findings), repr(table.handles), repr(table.named), repr(table.index)


def agree(text: str) -> bool:
    """Check the reader against the token parser on ``text``; return whether the reader read it."""

    read = statechart._read_chart(text, "t.sc")
    reference = outcome(statechart._parse_tokens, text)
    assert outcome(parse_statechart, text) == reference
    if read is not None:
        assert outcome(lambda *_: read, text) == reference
    return read is not None


def workload_chart(workload: str, root: Path, quick: bool) -> str:
    """The chart text of ``workload`` at seed 4242."""

    return read_source(load_workloads().generate(workload, 4242, root, quick=quick).model)


@pytest.fixture(scope="module")
def flat_chart(tmp_path_factory):
    return workload_chart("flat-brackets", tmp_path_factory.mktemp("flat"), True)


@SETTINGS
@given(
    seed=st.integers(0, 1 << 30),
    fillers=st.lists(st.tuples(st.integers(0, 1 << 20), st.sampled_from(FILLERS)), max_size=12),
)
def test_random_charts_read_alike(seed, fillers):
    text = random_statechart_text(random.Random(seed), max_extra_elements=12)
    # Every item of a printed chart is of the reader's kind.
    assert agree(pretty_print_statechart(parse_statechart(text)))
    agree(splice(text, fillers))


@SETTINGS
@given(edits=mutations())
def test_mutated_sample_charts_read_alike(chart_text, edits):
    agree(mutate(chart_text, edits))


@SETTINGS
@given(edits=mutations())
def test_mutated_workload_charts_read_alike(flat_chart, edits):
    agree(mutate(flat_chart, edits))


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_reader_reads_the_workloads(tmp_path, workload, quick):
    assert agree(workload_chart(workload, tmp_path, quick))


def test_the_reader_reads_the_sample(chart_text):
    assert agree(chart_text)


def nested(depth: int) -> str:
    return " state A {\n" * depth + " state B;\n" + " }\n" * depth


# One case for each kind of text the reader leaves to the token parser.
FALLBACKS = {
    "unknown word": " oops;\n",
    "missing ';'": " state A;\n A -> A\n",
    "missing '}'": " state A {\n",
    "missing state name": " state;\n",
    "'...' and a dot": " ....\n",
    "a comment inside an event": " state A;\n A -> A : go /* c */ ();\n",
    "a comment before an event": " state A;\n A -> A : /* c */ go();\n",
    "a string inside an event": ' state A;\n A -> A : go("x");\n',
    "a newline inside an event": " state A;\n A -> A : go\n ();\n",
    "'[' inside an event": " state A;\n A -> A : [x];\n",
    "'{' inside an event": " state A;\n A -> A : {};\n",
    "an empty event": " state A;\n A -> A : ;\n",
    "an event identifier with a digit first": " state A;\n A -> A : 1abc;\n",
    "two modifiers": " initial final state A;\n",
    "one modifier twice": " initial initial state A;\n",
    "a transition inside a state body": " state A {\n A -> A;\n }\n",
    "a state word before '->' in a state body": " state A {\n state -> A;\n }\n",
    "an invariant in the chart body": " state A;\n [x > 1];\n",
    "a nested bracket": " state A {\n [a[0] > 1];\n }\n",
    "a non-ASCII first letter of a state": " state Étoile;\n",
    "a non-ASCII first letter of an endpoint": " state A;\n A -> Étoile;\n",
    "deeper than MAX_NESTING": nested(MAX_NESTING + 1),
}


@pytest.mark.parametrize("body", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_text_the_reader_leaves_is_the_token_parsers(body):
    text = HEADER + body + "}\n"
    assert statechart._read_chart(text, "t.sc") is None
    agree(text)


def test_an_event_identifier_with_a_digit_first_is_a_parse_error():
    with pytest.raises(ParseError, match="unexpected character '1'"):
        parse_statechart(HEADER + FALLBACKS["an event identifier with a digit first"] + "}\n")


@pytest.mark.parametrize("tail", ["...", "state A;", "}", "/* open", "\ufeff"])
def test_text_after_the_last_brace_is_the_token_parsers(tail):
    text = HEADER + " state A;\n} " + tail
    assert statechart._read_chart(text, "t.sc") is None
    agree(text)


@pytest.mark.parametrize("header", [
    "package m; statechart C /* { */ {",
    "package m; statechart C",
    "package m; statechart {",
    "statechart C {",
    "\ufeffpackage m; statechart C {",
])
def test_a_header_the_reader_leaves_is_the_token_parsers(header):
    text = header + "\n state A;\n}\n"
    assert statechart._read_chart(text, "t.sc") is None
    agree(text)


READ = {
    "nested to MAX_NESTING": nested(MAX_NESTING),
    "an empty chart": "",
    "empty state bodies": " state A { }\n initial state B {}\n",
    "comments and blanks everywhere": (
        " initial /* a */ state // b\n A /**/ { [ x\n> 1 ] /* ; */ ; ... state B ; }\n"
        " ... A . /* c */ B // d\n -> A : go ( ) /* e */ ;\n"
    ),
    "an event after a newline": " state A;\n A -> A :\n\t go();\n",
    "an event of arrows, dots and commas": " state A;\n A -> A : a.b(c, d) -> e\t... , f ;\n",
    "state words as names": (
        " state state; state initial; final state final { state A; }\n"
        " state -> initial : state;\n final.A -> state;\n initial . x -> final;\n"
    ),
    "duplicates": " state A; state A { state B; state B; }\n A -> A : e;\n A -> A : e;\n A -> B;\n",
    "siblings after a body": " state A { state B; }\n state B;\n state A;\n",
    "carriage returns": " state A {\r\n [x > 1];\r\n }\r\n A -> A : go();\r\n",
    "a '/' in an invariant but no comment": " state A {\n [x / 2 > 1];\n }\n",
}


@pytest.mark.parametrize("body", READ.values(), ids=READ.keys())
def test_the_reader_reads_what_the_token_parser_reads(body):
    assert agree(HEADER + body + "}\n")


def test_a_header_with_comments_and_blanks_is_read():
    assert agree("// leading\npackage a . /* b */ b ;\nstatechart\n C // c\n{ state A; }\n// end")


# Endpoints of planted transitions; the oracle decides which name a state.
ENDPOINTS = ("S00", "S01", "S00.S10", "S01.S11", "S00.S10.S20", "Ghost", "S00.Ghost", "Ghost.S00")
EVENTS = ("", " : go()", " : tick")


def plant_faults(text: str, rng: random.Random) -> str:
    """Plant one to five faults in a chart of ``random_statechart_text``.

    A fault is a state line or a whole state block repeated in its own body,
    before or after itself; a transition between paths that may name no
    state; or a transition repeated.  A repeated block repeats its
    children's names, and a later fault may repeat a state inside an
    earlier copy.
    """

    lines = text.splitlines()
    for _ in range(rng.randint(1, 5)):
        fault = rng.choice(("state", "state", "state", "endpoint", "transition"))
        arrows = [line for line in lines if " -> " in line]
        if fault == "state":
            first = rng.choice([i for i, line in enumerate(lines) if line.lstrip().startswith("state ")])
            last = first
            if lines[first].endswith("{"):  # the block ends at the '}' under its first letter
                last = lines.index(lines[first][: lines[first].index("s")] + "}", first)
            at = rng.choice((first, last + 1))
            lines[at:at] = lines[first : last + 1]
        elif fault == "endpoint" or not arrows:
            lines.insert(-1, f"    {rng.choice(ENDPOINTS)} -> {rng.choice(ENDPOINTS)}{rng.choice(EVENTS)};")
        else:
            lines.insert(-1, rng.choice(arrows))
    return "\n".join(lines) + "\n"


def findings_of(model) -> list[tuple]:
    assert {d.file for d in model.findings} <= {"t.sc"}
    return [(d.condition, d.severity.value, d.message, d.line, d.col) for d in model.findings]


def judged_alike(text: str) -> bool:
    """Check both readers' findings against the oracle's; return whether the reader read ``text``."""

    reference = statechart._parse_tokens(text, "t.sc")
    expected = oracle_chart_findings(reference)
    assert findings_of(reference) == expected
    read = statechart._read_chart(text, "t.sc")
    if read is not None:
        assert findings_of(read) == expected
    return read is not None


@SETTINGS
@given(
    seed=st.integers(0, 1 << 30),
    fillers=st.lists(st.tuples(st.integers(0, 1 << 20), st.sampled_from(FILLERS)), max_size=12),
)
def test_planted_faults_are_found_as_the_oracle_finds_them(seed, fillers):
    rng = random.Random(seed)
    text = plant_faults(random_statechart_text(rng, max_extra_elements=12), rng)
    assert judged_alike(text)
    judged_alike(splice(text, fillers))


# Nested duplicates, read by the reader and, after a non-ASCII state, by the token parser.
DUPLICATES = {
    "a repeated block whose children repeat names": " state A { state B; state C { state D; } }\n"
                                                    " state A { state B; state C { state D; } }\n",
    "a duplicate inside a duplicate": " state A { state B; }\n state A { state B; state B { } }\n",
    "a duplicate 100 levels deep": nested(MAX_NESTING - 1).replace(" state B;", " state B; state B;"),
}


@pytest.mark.parametrize("lead", ["", " state \u00c9toile;\n"], ids=["reader", "token parser"])
@pytest.mark.parametrize("body", DUPLICATES.values(), ids=DUPLICATES.keys())
def test_nested_duplicates_are_found_as_the_oracle_finds_them(lead, body):
    text = HEADER + lead + body + " A -> A;\n A -> Ghost;\n A -> A;\n}\n"
    assert judged_alike(text) == (lead == "")
    assert statechart._parse_tokens(text, "t.sc").findings
