"""Statechart parsing, element enumeration, and identifier resolution."""

from __future__ import annotations

import random
import re

import pytest

from tagweaver import (
    ElementHandle,
    ElementIdentifier,
    ParseError,
    ResolutionError,
    enumerate_elements,
    normalize_expression,
    parse_statechart,
    pretty_print_statechart,
    resolve_element,
)
from util import (
    addressable_refs,
    bogus_refs,
    flat_elements,
    oracle_resolve,
    random_statechart_text,
    transition_counts,
)
from tagweaver.statechart import StateDef, StatechartModel, TransitionDef

Q = ElementIdentifier.qualified
B = ElementIdentifier.bracket


class TestGoldenChart:
    def test_header(self, chart):
        assert chart.package == "mobile"
        assert chart.name == "Mobile"
        assert chart.qualified_name == "mobile.Mobile"

    def test_top_level_states(self, chart):
        assert [st.name for st in chart.states] == [
            "Start",
            "Active",
            "ConnectionProblems",
            "Done",
        ]
        assert chart.states[0].initial
        assert chart.states[3].final
        assert chart.states[0].modifiers == frozenset({"initial"})
        assert chart.states[1].modifiers == frozenset()
        assert chart.states[3].modifiers == frozenset({"final"})

    def test_nested_states_and_invariants(self, chart):
        active = chart.states[1]
        assert [st.name for st in active.substates] == ["Call", "Busy"]
        assert active.substates[0].invariants_src == ("status!=isActive",)
        assert active.substates[1].invariants_src == ("status=isActive",)

    def test_transition(self, chart):
        (tr,) = chart.transitions
        assert tr.source == ("Start",)
        assert tr.target == ("Active",)
        assert tr.event == "dial()"

    def test_no_findings(self, chart):
        assert chart.findings == ()

    def test_enumeration_order(self, chart):
        assert enumerate_elements(chart) == (
            ElementHandle("Mobile", "SCDefinition"),
            ElementHandle("Start", "State"),
            ElementHandle("Active", "State"),
            ElementHandle("Active.Call", "State"),
            ElementHandle("Active.Call.[status!=isActive]", "Invariant"),
            ElementHandle("Active.Busy", "State"),
            ElementHandle("Active.Busy.[status=isActive]", "Invariant"),
            ElementHandle("ConnectionProblems", "State"),
            ElementHandle("Done", "State"),
            ElementHandle("[Start -> Active]", "Transition"),
        )


class TestResolution:
    def test_chart_by_its_own_name(self, chart, profile):
        assert resolve_element(chart, Q("Mobile"), profile=profile) == ElementHandle("Mobile", "SCDefinition")

    def test_top_level_state(self, chart, profile):
        assert resolve_element(chart, Q("Start"), profile=profile) == ElementHandle("Start", "State")

    def test_dotted_path(self, chart, profile):
        handle = resolve_element(chart, Q("Active", "Call"), profile=profile)
        assert handle == ElementHandle("Active.Call", "State")

    def test_nested_state_needs_full_path_from_root(self, chart, profile):
        with pytest.raises(ResolutionError, match=r"^'Call' does not name an element of 'Mobile'$"):
            resolve_element(chart, Q("Call"), profile=profile)

    def test_context_relative_lookup(self, chart, profile):
        handle = resolve_element(chart, Q("Call"), ElementHandle("Active", "State"), profile=profile)
        assert handle == ElementHandle("Active.Call", "State")

    def test_context_falls_back_to_root(self, chart, profile):
        handle = resolve_element(chart, Q("Start"), ElementHandle("Active", "State"), profile=profile)
        assert handle == ElementHandle("Start", "State")

    def test_chart_name_resolves_inside_context(self, chart, profile):
        handle = resolve_element(chart, Q("Mobile"), ElementHandle("Active", "State"), profile=profile)
        assert handle == ElementHandle("Mobile", "SCDefinition")

    def test_chart_name_as_leading_segment(self, chart, profile):
        handle = resolve_element(chart, Q("Mobile", "Active", "Call"), profile=profile)
        assert handle == ElementHandle("Active.Call", "State")

    def test_unknown_context_path_means_root_lookup(self, chart, profile):
        transition = ElementHandle("[Start -> Active]", "Transition")
        handle = resolve_element(chart, Q("Start"), transition, profile=profile)
        assert handle == ElementHandle("Start", "State")

    def test_transition_by_endpoints(self, chart, profile):
        handle = resolve_element(chart, B("Start -> Active"), profile=profile)
        assert handle == ElementHandle("[Start -> Active]", "Transition")

    def test_transition_endpoint_spacing_is_normalized(self, chart, profile):
        handle = resolve_element(chart, B("Start->Active"), profile=profile)
        assert handle == ElementHandle("[Start -> Active]", "Transition")

    def test_missing_transition(self, chart, profile):
        with pytest.raises(ResolutionError, match=r"^no transition Active -> Done in 'Mobile'$"):
            resolve_element(chart, B("Active -> Done"), profile=profile)

    def test_transition_with_unknown_endpoint(self, chart, profile):
        with pytest.raises(
            ResolutionError, match=r"^'\[Start -> Ghost\]' endpoints do not name states of 'Mobile'$"
        ):
            resolve_element(chart, B("Start -> Ghost"), profile=profile)

    def test_invariant_by_expression(self, chart, profile):
        handle = resolve_element(chart, B("status!=isActive"), profile=profile)
        assert handle == ElementHandle("Active.Call.[status!=isActive]", "Invariant")

    def test_invariant_whitespace_is_normalized(self, chart, profile):
        handle = resolve_element(chart, B("  status!=isActive  "), profile=profile)
        assert handle == ElementHandle("Active.Call.[status!=isActive]", "Invariant")

    def test_unknown_invariant(self, chart, profile):
        with pytest.raises(ResolutionError, match=r"^no invariant '\[no_such_invariant\]' in 'Mobile'$"):
            resolve_element(chart, B("no_such_invariant"), profile=profile)

    def test_unknown_name(self, chart, profile):
        with pytest.raises(ResolutionError, match=r"^'Ghost' does not name an element of 'Mobile'$"):
            resolve_element(chart, Q("Ghost"), profile=profile)


class TestResolutionCornerCases:
    def test_chart_name_beats_same_named_top_state(self, profile):
        model = parse_statechart("package p;\nstatechart X {\n state X;\n}\n")
        assert resolve_element(model, Q("X"), profile=profile) == ElementHandle("X", "SCDefinition")
        assert resolve_element(model, Q("X", "X"), profile=profile) == ElementHandle("X", "State")

    def test_dotted_transition_endpoints(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state P { state C; }\n state Q;\n"
            " P.C -> Q;\n}\n"
        )
        handle = resolve_element(model, B("P.C -> Q"), profile=profile)
        assert handle == ElementHandle("[P.C -> Q]", "Transition")

    def test_transition_endpoint_named_like_any_identifier(self, profile):
        model = parse_statechart("package p;\nstatechart X {\n state a²;\n state B;\n a² -> B;\n}\n")
        assert resolve_element(model, B("a² -> B"), profile=profile) == ElementHandle("[a² -> B]", "Transition")

    def test_ambiguous_transition(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : first;\n A -> B : second;\n}\n"
        )
        with pytest.raises(ResolutionError, match=r"^2 transitions match A -> B in 'X'$"):
            resolve_element(model, B("A -> B"), profile=profile)

    def test_ambiguous_invariant(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; }\n state B { [busy]; }\n}\n"
        )
        with pytest.raises(ResolutionError, match=r"^2 invariants match '\[busy\]' in 'X'$"):
            resolve_element(model, B("busy"), profile=profile)

    def test_context_disambiguates_invariant(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; }\n state B { [busy]; }\n}\n"
        )
        handle = resolve_element(model, B("busy"), ElementHandle("A", "State"), profile=profile)
        assert handle == ElementHandle("A.[busy]", "Invariant")

    def test_context_subtree_invariant_beats_outside_one(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { state Inner { [busy]; } }\n state B { [busy]; }\n}\n"
        )
        handle = resolve_element(model, B("busy"), ElementHandle("A", "State"), profile=profile)
        assert handle == ElementHandle("A.Inner.[busy]", "Invariant")

    def test_two_matches_inside_context_are_still_ambiguous(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; state Inner { [busy]; } }\n}\n"
        )
        with pytest.raises(ResolutionError, match=r"^2 invariants match '\[busy\]' in 'X'$"):
            resolve_element(model, B("busy"), ElementHandle("A", "State"), profile=profile)

    def test_same_state_name_in_different_branches(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { state Leaf; }\n state B { state Leaf; }\n}\n"
        )
        assert resolve_element(model, Q("A", "Leaf"), profile=profile).path == "A.Leaf"
        assert resolve_element(model, Q("Leaf"), ElementHandle("B", "State"), profile=profile).path == "B.Leaf"
        with pytest.raises(ResolutionError, match=r"^'Leaf' does not name an element of 'X'$"):
            resolve_element(model, Q("Leaf"), profile=profile)


class TestIndexedResolution:
    def test_identical_invariants_in_one_state_are_ambiguous(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A { [busy]; [ busy ]; }\n}\n"
        )
        with pytest.raises(ResolutionError, match=r"^2 invariants match '\[busy\]' in 'X'$"):
            resolve_element(model, B("busy"), profile=profile)
        # Inside that state's own context the repeated text counts once.
        handle = resolve_element(model, B("busy"), ElementHandle("A", "State"), profile=profile)
        assert handle == ElementHandle("A.[busy]", "Invariant")

    def test_duplicate_transitions_are_ambiguous_in_any_context(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B;\n A -> B : again;\n}\n"
        )
        contexts = (None, ElementHandle("X", "SCDefinition"), ElementHandle("A", "State"))
        for context in contexts:
            with pytest.raises(ResolutionError, match=r"^2 transitions match A -> B in 'X'$"):
                resolve_element(model, B("A -> B"), context, profile=profile)

    def test_a_transition_to_no_state_is_not_addressable(self, profile):
        model = parse_statechart("package p;\nstatechart X {\n state A;\n A -> Ghost;\n}\n")
        with pytest.raises(
            ResolutionError, match=r"^'\[A -> Ghost\]' endpoints do not name states of 'X'$"
        ):
            resolve_element(model, B("A -> Ghost"), profile=profile)

    def test_transition_endpoints_resolve_from_the_root(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state P { state A; state B; }\n state A;\n state B;\n"
            " P.A -> P.B;\n}\n"
        )
        with pytest.raises(ResolutionError, match=r"^no transition A -> B in 'X'$"):
            resolve_element(model, B("A -> B"), ElementHandle("P", "State"), profile=profile)
        handle = resolve_element(model, B("P.A -> P.B"), ElementHandle("P", "State"), profile=profile)
        assert handle == ElementHandle("[P.A -> P.B]", "Transition")

    @pytest.mark.parametrize(
        "context", ["[Start -> Active]", "Active.Call.[status!=isActive]", "Ghost"]
    )
    def test_context_naming_no_state_falls_back_to_root(self, chart, context, profile):
        production = {"[": "Transition", "A": "Invariant", "G": "State"}[context[0]]
        handle = ElementHandle(context, production)
        assert resolve_element(chart, Q("Active"), handle, profile=profile) == ElementHandle("Active", "State")
        assert resolve_element(chart, B("status=isActive"), handle, profile=profile) == ElementHandle(
            "Active.Busy.[status=isActive]", "Invariant"
        )
        with pytest.raises(
            ResolutionError, match=rf"^'Call' does not name an element of 'Mobile' \(context '{re.escape(context)}'\)$"
        ):
            resolve_element(chart, Q("Call"), handle, profile=profile)

    def test_context_subtree_shadows_same_text_elsewhere(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; }\n state B { state C { [ busy ]; } }\n"
            " state BB { state D { [busy]; } }\n}\n"
        )
        expected = ElementHandle("B.C.[busy]", "Invariant")
        assert resolve_element(model, B("busy"), ElementHandle("B", "State"), profile=profile) == expected
        assert resolve_element(model, B("busy"), ElementHandle("B.C", "State"), profile=profile) == expected
        with pytest.raises(ResolutionError, match=r"^3 invariants match '\[busy\]' in 'X'$"):
            resolve_element(model, B("busy"), profile=profile)

    def test_chart_name_prefix_resolves_to_state(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A { state B; }\n state C;\n}\n"
        )
        assert resolve_element(model, Q("X", "A", "B"), profile=profile) == ElementHandle("A.B", "State")
        a = ElementHandle("A", "State")
        assert resolve_element(model, Q("X", "C"), a, profile=profile) == ElementHandle("C", "State")
        with pytest.raises(ResolutionError, match=r"^'X\.B' does not name an element of 'X' \(context 'A'\)$"):
            resolve_element(model, Q("X", "B"), a, profile=profile)

    def test_chart_name_context_means_root_even_with_a_same_named_state(self, profile):
        model = parse_statechart(
            "package p;\nstatechart X {\n state X { state Y; }\n state Y;\n}\n"
        )
        chart = ElementHandle("X", "SCDefinition")
        assert resolve_element(model, Q("Y"), chart, profile=profile) == ElementHandle("Y", "State")
        # The same-named state is a context of its own.
        state = ElementHandle("X", "State")
        assert resolve_element(model, Q("Y"), state, profile=profile) == ElementHandle("X.Y", "State")

    @pytest.mark.parametrize("seed", range(200))
    def test_agrees_with_string_path_oracle(self, seed, profile):
        rng = random.Random(seed)
        model = parse_statechart(
            random_statechart_text(rng, max_extra_elements=12, unique_invariants=False)
        )
        assert_agrees_with_oracle(model, profile)

    @pytest.mark.parametrize("seed", range(200))
    def test_agrees_with_oracle_when_the_chart_is_named_after_a_state(self, seed, profile):
        rng = random.Random(seed)
        text = random_statechart_text(rng, max_extra_elements=12, unique_invariants=False)
        name = rng.choice(parse_statechart(text).states).name
        model = parse_statechart(text.replace("statechart Chart {", f"statechart {name} {{"))
        assert model.name == name
        assert_agrees_with_oracle(model, profile)


def assert_agrees_with_oracle(model, profile):
    """Every reference, under every context, resolves as the oracle says."""

    elements, transitions = flat_elements(model), transition_counts(model)
    refs = [ref for ref, _ in addressable_refs(model)] + bogus_refs(model)
    refs += [B(key[1:-1]) for key in transitions]  # duplicates too
    # Relative names: every proper suffix of a nested state's path.
    refs += [
        Q(*segments[i:])
        for segments in (path.split(".") for path, kind in elements if kind == "State")
        for i in range(1, len(segments))
    ]
    contexts = [None, (model.name, "SCDefinition")]
    contexts += [element for element in elements if element[1] == "State"]
    contexts += [(key, "Transition") for key in list(transitions)[:1]]
    for context in contexts:
        handle = ElementHandle(*context) if context else None
        for ref in refs:
            try:
                found = resolve_element(model, ref, handle, profile=profile)
                got = (found.path, found.element_type)
            except ResolutionError:
                got = None
            expected = oracle_resolve(ref, context, model, elements, transitions)
            assert got == expected, (ref.text, context)


PARSE_ERRORS = [
    (
        "package p;\nstatechart X {\n initial final state A;\n}\n",
        ParseError,
        "cannot be both",
    ),
    (
        "package p;\nstatechart X {\n initial initial state A;\n}\n",
        ParseError,
        "duplicate 'initial'",
    ),
    ("package p;\nstatechart X {\n [oops];\n}\n", ParseError, "inside a state"),
    ("package p;\nstatechart X {\n state A;\n", ParseError, "missing '}'"),
    (
        "package p;\nstatechart X {\n state A;\n state B;\n A -> B : go()\n",
        ParseError,
        "unterminated transition",
    ),
    ("package p;\nstatechart X {\n + ;\n}\n", ParseError, "unexpected '+'"),
    (
        "package p;\nstatechart X {\n state A;\n ;\n}\n",
        ParseError,
        "4:2: unexpected ';' in statechart body",
    ),
    (
        "package p;\nstatechart X {\n state A { state final; final -> A; }\n}\n",
        ParseError,
        "3:25: unexpected 'final' in state body",
    ),
    (
        "package p;\nstatechart X {\n state A { state -> A; }\n}\n",
        ParseError,
        "3:12: unexpected 'state' in state body",
    ),
    (
        "package p;\nstatechart X {\n state A { initial.x; }\n}\n",
        ParseError,
        "3:12: unexpected 'initial' in state body",
    ),
    ("statechart X {}\n", ParseError, "package"),
]


@pytest.mark.parametrize("text,exc,fragment", PARSE_ERRORS)
def test_parse_errors(text, exc, fragment):
    with pytest.raises(exc) as info:
        parse_statechart(text)
    assert fragment in str(info.value)


# Problems the parser reads past: (condition, message, line, col) of each finding.
FINDINGS = [
    (
        "package p;\nstatechart X {\n state A;\n state A;\n}\n",
        [("DuplicateSiblingState", "duplicate sibling state 'A'", 4, 8)],
    ),
    (
        "package p;\nstatechart X {\n state A;\n A -> Ghost;\n}\n",
        [("UnresolvedTransitionEndpoint", "transition target 'Ghost' does not name a state", 4, 2)],
    ),
    (
        "package p;\nstatechart X {\n state A { state B; state B; }\n"
        " Ghost -> A.Nope;\n A -> A;\n A -> A;\n}\n",
        [
            ("DuplicateSiblingState", "duplicate sibling state 'B'", 3, 27),
            ("UnresolvedTransitionEndpoint", "transition source 'Ghost' does not name a state", 4, 2),
            ("UnresolvedTransitionEndpoint", "transition target 'A.Nope' does not name a state", 4, 2),
            ("DuplicateTransition", "duplicate transition A -> A (lines 5 and 6)", 6, 2),
        ],
    ),
]


@pytest.mark.parametrize("text,expected", FINDINGS)
def test_findings(text, expected):
    model = parse_statechart(text, filename="x.sc")
    assert [(d.condition, d.message, d.line, d.col) for d in model.findings] == expected
    assert {d.file for d in model.findings} == {"x.sc"}


def test_sibling_duplicates_allowed_in_different_parents():
    model = parse_statechart(
        "package p;\nstatechart X {\n state A { state L; }\n state B { state L; }\n}\n"
    )
    assert [st.name for st in model.states] == ["A", "B"]


class TestEvents:
    def test_event_text_is_verbatim(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : e1, weird stuff [x] ;\n}\n"
        )
        assert model.transitions[0].event == "e1, weird stuff [x]"

    def test_transition_without_event(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n A -> B;\n}\n"
        )
        assert model.transitions[0].event is None

    @pytest.mark.parametrize("source, event", [
        ("go // note\n", "go"),
        ("go /* note */ ", "go"),
        ("// c\n", ""),
        ("/* lead */ go // inner\n stop // tail\n", "/* lead */ go // inner\n stop"),
    ])
    def test_an_event_ends_at_its_last_token_and_round_trips(self, source, event):
        model = parse_statechart(
            f"package p;\nstatechart X {{\n state A;\n state B;\n A -> B : {source};\n}}\n"
        )
        assert model.transitions[0].event == event
        assert parse_statechart(pretty_print_statechart(model)) == model


class TestDuplicateTransitionWarnings:
    def test_identical_transitions_warn(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : go;\n A -> B : go;\n}\n"
        )
        assert len(model.findings) == 1
        assert "duplicate transition A -> B : go" in model.findings[0].message

    def test_a_trailing_comment_does_not_make_an_event_differ(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : go // first\n;\n A -> B : go;\n}\n"
        )
        assert [d.message for d in model.findings] == [
            "duplicate transition A -> B : go (lines 5 and 7)"
        ]

    def test_differing_events_do_not_warn(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : go;\n A -> B : stop;\n}\n"
        )
        assert model.findings == ()

    def test_enumeration_keeps_both_duplicates(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B;\n A -> B;\n}\n"
        )
        transitions = [h for h in enumerate_elements(model) if h.element_type == "Transition"]
        assert len(transitions) == 2


class TestRoundTrip:
    def test_golden_round_trip(self, chart):
        assert parse_statechart(pretty_print_statechart(chart)) == chart

    def test_golden_canonical_text(self, chart):
        assert pretty_print_statechart(chart) == (
            "package mobile;\n"
            "\n"
            "statechart Mobile {\n"
            "    initial state Start;\n"
            "    state Active {\n"
            "        state Call {\n"
            "            [status!=isActive];\n"
            "        }\n"
            "        state Busy {\n"
            "            [status=isActive];\n"
            "        }\n"
            "    }\n"
            "    state ConnectionProblems;\n"
            "    final state Done;\n"
            "\n"
            "    Start -> Active : dial();\n"
            "}\n"
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_random_round_trip(self, seed):
        text = random_statechart_text(random.Random(seed))
        model = parse_statechart(text)
        assert parse_statechart(pretty_print_statechart(model)) == model


class TestStatesNamedByAKeyword:
    """A state may be named ``state``, ``initial`` or ``final``, and lead a transition."""

    @pytest.mark.parametrize("word", ["state", "initial", "final"])
    @pytest.mark.parametrize("dotted", [False, True])
    def test_the_word_before_an_arrow_or_a_dot_is_a_source(self, word, dotted):
        source = f"{word}.a" if dotted else word
        model = parse_statechart(
            f"package p;\nstatechart X {{\n state {word} {{ state a; }}\n state B;\n"
            f" {source} -> B;\n B -> {source};\n}}\n"
        )
        assert [st.name for st in model.states] == [word, "B"]
        path = tuple(source.split("."))
        assert [(tr.source, tr.target) for tr in model.transitions] == [
            (path, ("B",)),
            (("B",), path),
        ]
        assert model.findings == ()
        assert parse_statechart(pretty_print_statechart(model)) == model

    @pytest.mark.parametrize("word", ["state", "initial", "final"])
    def test_a_printed_model_re_parses(self, word):
        model = StatechartModel(
            package="p",
            name="X",
            states=(StateDef(word, substates=(StateDef("a"),)), StateDef("B", final=True)),
            transitions=(
                TransitionDef((word,), ("B",)),
                TransitionDef((word, "a"), ("B",), event="go()"),
            ),
        )
        assert parse_statechart(pretty_print_statechart(model)) == model


class TestPrinterRefusesTextThatDoesNotReParse:
    """A hand-built record whose text the parser would read otherwise is refused by name."""

    def test_an_event_holding_a_semicolon(self):
        model = StatechartModel(
            package="p", name="X", states=(StateDef("A"),),
            transitions=(TransitionDef(("A",), ("A",), event="go; stop"),),
        )
        with pytest.raises(ValueError, match=r"^transition A -> A: event 'go; stop' would not re-parse$"):
            pretty_print_statechart(model)

    def test_an_invariant_holding_a_closing_bracket(self):
        model = StatechartModel(
            package="p", name="X",
            states=(StateDef("A", substates=(StateDef("B", invariants_src=("x ] y",)),)),),
            transitions=(),
        )
        with pytest.raises(ValueError, match=r"^state 'A\.B': invariant 'x \] y' would not re-parse$"):
            pretty_print_statechart(model)

    @pytest.mark.parametrize("event", ["go // later", 'say "hi', "open [door"])
    def test_other_events_that_swallow_the_semicolon(self, event):
        model = StatechartModel(
            package="p", name="X", states=(StateDef("A"),),
            transitions=(TransitionDef(("A",), ("A",), event=event),),
        )
        with pytest.raises(ValueError, match="^transition A -> A: event"):
            pretty_print_statechart(model)

    def test_semicolons_and_brackets_that_re_parse_are_kept(self):
        model = StatechartModel(
            package="p", name="X",
            states=(StateDef("A", invariants_src=("a [b] c", "[x;y]")),),
            transitions=(
                TransitionDef(("A",), ("A",), event='send("a;b") [c;d]'),
                TransitionDef(("A",), ("A",), event=""),
            ),
        )
        assert parse_statechart(pretty_print_statechart(model)) == model


def test_normalize_expression():
    assert normalize_expression("  a   >\tb ") == "a > b"
    assert normalize_expression("untouched") == "untouched"
