"""Statechart parsing, element enumeration, and identifier resolution."""

from __future__ import annotations

import random
import re

import pytest

from tagweaver import (
    AmbiguousElement,
    AmbiguousTransition,
    DuplicateSiblingState,
    ElementHandle,
    ElementIdentifier,
    ParseError,
    UnresolvedElement,
    UnresolvedTransitionEndpoint,
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

    def test_no_warnings(self, chart):
        assert chart.warnings == ()

    def test_enumeration_order(self, chart):
        assert enumerate_elements(chart) == (
            ElementHandle("Mobile", "Statechart"),
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
    def test_chart_by_its_own_name(self, chart):
        assert resolve_element(chart, Q("Mobile")) == ElementHandle("Mobile", "Statechart")

    def test_top_level_state(self, chart):
        assert resolve_element(chart, Q("Start")) == ElementHandle("Start", "State")

    def test_dotted_path(self, chart):
        handle = resolve_element(chart, Q("Active", "Call"))
        assert handle == ElementHandle("Active.Call", "State")

    def test_nested_state_needs_full_path_from_root(self, chart):
        with pytest.raises(UnresolvedElement):
            resolve_element(chart, Q("Call"))

    def test_context_relative_lookup(self, chart):
        handle = resolve_element(chart, Q("Call"), context_path="Active")
        assert handle == ElementHandle("Active.Call", "State")

    def test_context_falls_back_to_root(self, chart):
        handle = resolve_element(chart, Q("Start"), context_path="Active")
        assert handle == ElementHandle("Start", "State")

    def test_chart_name_resolves_inside_context(self, chart):
        handle = resolve_element(chart, Q("Mobile"), context_path="Active")
        assert handle == ElementHandle("Mobile", "Statechart")

    def test_chart_name_as_leading_segment(self, chart):
        handle = resolve_element(chart, Q("Mobile", "Active", "Call"))
        assert handle == ElementHandle("Active.Call", "State")

    def test_unknown_context_path_means_root_lookup(self, chart):
        handle = resolve_element(chart, Q("Start"), context_path="[Start -> Active]")
        assert handle == ElementHandle("Start", "State")

    def test_transition_by_endpoints(self, chart):
        handle = resolve_element(chart, B("Start -> Active"))
        assert handle == ElementHandle("[Start -> Active]", "Transition")

    def test_transition_endpoint_spacing_is_normalized(self, chart):
        handle = resolve_element(chart, B("Start->Active"))
        assert handle == ElementHandle("[Start -> Active]", "Transition")

    def test_missing_transition(self, chart):
        with pytest.raises(UnresolvedElement):
            resolve_element(chart, B("Active -> Done"))

    def test_transition_with_unknown_endpoint(self, chart):
        with pytest.raises(UnresolvedElement):
            resolve_element(chart, B("Start -> Ghost"))

    def test_invariant_by_expression(self, chart):
        handle = resolve_element(chart, B("status!=isActive"))
        assert handle == ElementHandle("Active.Call.[status!=isActive]", "Invariant")

    def test_invariant_whitespace_is_normalized(self, chart):
        handle = resolve_element(chart, B("  status!=isActive  "))
        assert handle == ElementHandle("Active.Call.[status!=isActive]", "Invariant")

    def test_unknown_invariant(self, chart):
        with pytest.raises(UnresolvedElement):
            resolve_element(chart, B("no_such_invariant"))

    def test_unknown_name(self, chart):
        with pytest.raises(UnresolvedElement):
            resolve_element(chart, Q("Ghost"))


class TestResolutionCornerCases:
    def test_chart_name_beats_same_named_top_state(self):
        model = parse_statechart("package p;\nstatechart X {\n state X;\n}\n")
        assert resolve_element(model, Q("X")) == ElementHandle("X", "Statechart")
        assert resolve_element(model, Q("X", "X")) == ElementHandle("X", "State")

    def test_dotted_transition_endpoints(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state P { state C; }\n state Q;\n"
            " P.C -> Q;\n}\n"
        )
        handle = resolve_element(model, B("P.C -> Q"))
        assert handle == ElementHandle("[P.C -> Q]", "Transition")

    def test_transition_endpoint_named_like_any_identifier(self):
        model = parse_statechart("package p;\nstatechart X {\n state a²;\n state B;\n a² -> B;\n}\n")
        assert resolve_element(model, B("a² -> B")) == ElementHandle("[a² -> B]", "Transition")

    def test_ambiguous_transition(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : first;\n A -> B : second;\n}\n"
        )
        with pytest.raises(AmbiguousTransition):
            resolve_element(model, B("A -> B"))

    def test_ambiguous_invariant(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; }\n state B { [busy]; }\n}\n"
        )
        with pytest.raises(AmbiguousElement):
            resolve_element(model, B("busy"))

    def test_context_disambiguates_invariant(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; }\n state B { [busy]; }\n}\n"
        )
        handle = resolve_element(model, B("busy"), context_path="A")
        assert handle == ElementHandle("A.[busy]", "Invariant")

    def test_context_subtree_invariant_beats_outside_one(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { state Inner { [busy]; } }\n state B { [busy]; }\n}\n"
        )
        handle = resolve_element(model, B("busy"), context_path="A")
        assert handle == ElementHandle("A.Inner.[busy]", "Invariant")

    def test_two_matches_inside_context_are_still_ambiguous(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; state Inner { [busy]; } }\n}\n"
        )
        with pytest.raises(AmbiguousElement):
            resolve_element(model, B("busy"), context_path="A")

    def test_same_state_name_in_different_branches(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { state Leaf; }\n state B { state Leaf; }\n}\n"
        )
        assert resolve_element(model, Q("A", "Leaf")).path == "A.Leaf"
        assert resolve_element(model, Q("Leaf"), context_path="B").path == "B.Leaf"
        with pytest.raises(UnresolvedElement):
            resolve_element(model, Q("Leaf"))


class TestIndexedResolution:
    def test_identical_invariants_in_one_state_are_ambiguous(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A { [busy]; [ busy ]; }\n}\n"
        )
        with pytest.raises(AmbiguousElement, match=r"^2 invariants match '\[busy\]' in 'X'$"):
            resolve_element(model, B("busy"))
        # Inside that state's own context the repeated text counts once.
        handle = resolve_element(model, B("busy"), context_path="A")
        assert handle == ElementHandle("A.[busy]", "Invariant")

    def test_duplicate_transitions_are_ambiguous_in_any_context(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B;\n A -> B : again;\n}\n"
        )
        for context in ("", "X", "A"):
            with pytest.raises(AmbiguousTransition, match=r"^2 transitions match A -> B in 'X'$"):
                resolve_element(model, B("A -> B"), context_path=context)

    def test_transition_endpoints_resolve_from_the_root(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state P { state A; state B; }\n state A;\n state B;\n"
            " P.A -> P.B;\n}\n"
        )
        with pytest.raises(UnresolvedElement, match=r"^no transition A -> B in 'X'$"):
            resolve_element(model, B("A -> B"), context_path="P")
        handle = resolve_element(model, B("P.A -> P.B"), context_path="P")
        assert handle == ElementHandle("[P.A -> P.B]", "Transition")

    @pytest.mark.parametrize(
        "context", ["[Start -> Active]", "Active.Call.[status!=isActive]", "Ghost"]
    )
    def test_context_naming_no_state_falls_back_to_root(self, chart, context):
        assert resolve_element(chart, Q("Active"), context) == ElementHandle("Active", "State")
        assert resolve_element(chart, B("status=isActive"), context) == ElementHandle(
            "Active.Busy.[status=isActive]", "Invariant"
        )
        with pytest.raises(UnresolvedElement, match=rf"\(context '{re.escape(context)}'\)$"):
            resolve_element(chart, Q("Call"), context)

    def test_context_subtree_shadows_same_text_elsewhere(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n"
            " state A { [busy]; }\n state B { state C { [ busy ]; } }\n"
            " state BB { state D { [busy]; } }\n}\n"
        )
        expected = ElementHandle("B.C.[busy]", "Invariant")
        assert resolve_element(model, B("busy"), context_path="B") == expected
        assert resolve_element(model, B("busy"), context_path="B.C") == expected
        with pytest.raises(AmbiguousElement, match=r"^3 invariants match"):
            resolve_element(model, B("busy"))

    def test_chart_name_prefix_resolves_to_state(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A { state B; }\n state C;\n}\n"
        )
        assert resolve_element(model, Q("X", "A", "B")) == ElementHandle("A.B", "State")
        assert resolve_element(model, Q("X", "C"), context_path="A") == ElementHandle("C", "State")
        with pytest.raises(UnresolvedElement, match=r"^'X.B' does not name an element"):
            resolve_element(model, Q("X", "B"), context_path="A")

    def test_chart_name_context_means_root_even_with_a_same_named_state(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state X { state Y; }\n state Y;\n}\n"
        )
        assert resolve_element(model, Q("Y"), context_path="X") == ElementHandle("Y", "State")

    @pytest.mark.parametrize("seed", range(200))
    def test_agrees_with_string_path_oracle(self, seed):
        rng = random.Random(seed)
        model = parse_statechart(
            random_statechart_text(rng, max_extra_elements=12, unique_invariants=False)
        )
        elements, transitions = flat_elements(model), transition_counts(model)
        refs = [ref for ref, _ in addressable_refs(model)] + bogus_refs(model)
        refs += [B(key[1:-1]) for key in transitions]  # duplicates too
        contexts = ["", model.name] + [p for p, kind in elements.items() if kind == "State"]
        contexts += list(transitions)[:1]
        for context in contexts:
            for ref in refs:
                try:
                    handle = resolve_element(model, ref, context)
                    got = (handle.path, handle.element_type)
                except (UnresolvedElement, AmbiguousElement):
                    got = None
                expected = oracle_resolve(ref, context, model, elements, transitions)
                assert got == expected, (ref.text, context)


PARSE_ERRORS = [
    (
        "package p;\nstatechart X {\n state A;\n state A;\n}\n",
        DuplicateSiblingState,
        "duplicate sibling state",
    ),
    (
        "package p;\nstatechart X {\n state A;\n A -> Ghost;\n}\n",
        UnresolvedTransitionEndpoint,
        "does not name a state",
    ),
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
    ("statechart X {}\n", ParseError, "package"),
]


@pytest.mark.parametrize("text,exc,fragment", PARSE_ERRORS)
def test_parse_errors(text, exc, fragment):
    with pytest.raises(exc) as info:
        parse_statechart(text)
    assert fragment in str(info.value)


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


class TestDuplicateTransitionWarnings:
    def test_identical_transitions_warn(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : go;\n A -> B : go;\n}\n"
        )
        assert len(model.warnings) == 1
        assert "duplicate transition A -> B : go" in model.warnings[0]

    def test_differing_events_do_not_warn(self):
        model = parse_statechart(
            "package p;\nstatechart X {\n state A;\n state B;\n"
            " A -> B : go;\n A -> B : stop;\n}\n"
        )
        assert model.warnings == ()

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


def test_normalize_expression():
    assert normalize_expression("  a   >\tb ") == "a > b"
    assert normalize_expression("untouched") == "untouched"
