"""Grammar manifest parsing: structure, errors, and round-trips."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagweaver import (
    ParseError,
    Production,
    RhsRef,
    format_diagnostic,
    parse_manifest,
    pretty_print_manifest,
)
from tagweaver.manifest import _scan_line
from util import oracle_scan_manifest_line, random_manifest_plan, render_manifest_plan


class TestGoldenManifest:
    def test_header(self, manifest):
        assert manifest.grammar_name == "Statechart"
        assert manifest.externals == ("Name", "Expression")
        assert manifest.interfaces == ("Element",)

    def test_production_order(self, manifest):
        names = [p.name for p in manifest.productions]
        assert names == [
            "SCDefinition",
            "State",
            "Transition",
            "Invariant",
            "TransitionBody",
        ]

    def test_root_production(self, manifest):
        root = manifest.production("SCDefinition")
        assert root.name_identifiable
        assert root.alias == "Statechart"
        assert root.keyword == "Statechart"
        assert [r.nonterminal for r in root.rhs_refs] == ["Name", "State", "Transition"]

    def test_state_production(self, manifest):
        state = manifest.production("State")
        assert state.name_identifiable
        assert state.alias is None
        assert state.keyword == "State"
        assert [r.nonterminal for r in state.rhs_refs] == ["Name", "State", "Invariant"]
        assert all(r.preceding_identifier is None for r in state.rhs_refs)

    def test_transition_production(self, manifest):
        tr = manifest.production("Transition")
        assert not tr.name_identifiable
        assert tr.concrete_syntax_sketch == "source -> target"
        assert [(r.preceding_identifier, r.nonterminal) for r in tr.rhs_refs] == [
            ("source", "Name"),
            ("target", "Name"),
        ]

    def test_skipped_elided_production(self, manifest):
        tb = manifest.production("TransitionBody")
        assert tb.skipped
        assert tb.rhs_elided
        assert tb.rhs_refs == ()

    def test_missing_production_lookup(self, manifest):
        assert manifest.production("NoSuchThing") is None


class TestParsing:
    def test_cardinality_marks_dropped(self):
        m = parse_manifest(
            "grammar G\nexternal A\nexternal B\nexternal C\nproduction P = A* B? C+\n"
        )
        assert [r.nonterminal for r in m.production("P").rhs_refs] == ["A", "B", "C"]

    def test_annotations_in_any_order(self):
        m = parse_manifest('grammar G\n@skip @sketch "s" @named production P\n')
        p = m.production("P")
        assert p.skipped and p.name_identifiable and p.concrete_syntax_sketch == "s"

    def test_alias_annotation(self):
        m = parse_manifest("grammar G\n@alias Chart production P\n")
        assert m.production("P").keyword == "Chart"

    def test_comments_and_blank_lines(self):
        text = "# header\n\ngrammar G  # trailing\n\n# more\nproduction P\n"
        assert parse_manifest(text).grammar_name == "G"

    def test_hash_inside_sketch_is_not_a_comment(self):
        m = parse_manifest('grammar G\n@sketch "a # b" production P\n')
        assert m.production("P").concrete_syntax_sketch == "a # b"

    def test_escapes_in_sketch(self):
        m = parse_manifest('grammar G\n@sketch "say \\"hi\\" \\\\ more" production P\n')
        assert m.production("P").concrete_syntax_sketch == 'say "hi" \\ more'

    def test_multiple_externals_on_one_line(self):
        m = parse_manifest("grammar G\nexternal A B\nproduction P = A B\n")
        assert m.externals == ("A", "B")

    def test_skip_interface_accepted(self):
        m = parse_manifest("grammar G\n@skip interface I\nproduction P = I\n")
        assert m.interfaces == ("I",)

    def test_pi_on_repeated_nonterminal(self):
        m = parse_manifest("grammar G\nexternal N\nproduction P = a:N b:N\n")
        refs = m.production("P").rhs_refs
        assert refs == (RhsRef("N", "a"), RhsRef("N", "b"))

    def test_equals_sign_needs_no_spaces(self):
        m = parse_manifest("grammar G\nexternal N\nproduction P =N\n")
        assert m.production("P").rhs_refs == (RhsRef("N"),)


# Malformed manifests: the full ``file:line:col: message`` of each ParseError.
ERROR_CASES = [
    ("production P\n", "g.glang:1:1: expected 'grammar <Name>' as the first declaration"),
    ('grammar "G"\n', "g.glang:1:1: expected 'grammar <Name>' as the first declaration"),
    ("grammar G H\n", "g.glang:1:11: unexpected 'H' after the grammar name"),
    ("grammar G @\n", "g.glang:1:11: unexpected '@' after the grammar name"),
    ("  grammar G x\n", "g.glang:1:13: unexpected 'x' after the grammar name"),
    ('grammar G "x y"\n', "g.glang:1:11: unexpected '\"x y\"' after the grammar name"),
    ("grammar =\n", "g.glang:1:9: invalid identifier '='"),
    ("grammar G\ngrammar H\n", "g.glang:2:1: duplicate 'grammar' declaration"),
    ("grammar G\n@alias K interface I\n", "g.glang:2:10: only '@skip' may be applied to an interface"),
    ("grammar G\n@named interface I\n", "g.glang:2:8: only '@skip' may be applied to an interface"),
    ("grammar G\n@wat production P\n", "g.glang:2:1: unknown annotation '@wat'"),
    ("grammar G\n@named @named production P\n", "g.glang:2:8: duplicate annotation '@named'"),
    ("grammar G\n@alias\n", "g.glang:2:1: expected keyword after '@alias'"),
    ('grammar G\n@alias "K" production P\n', "g.glang:2:1: expected keyword after '@alias'"),
    ("grammar G\n@alias = production P\n", "g.glang:2:8: invalid identifier '='"),
    ("grammar G\n@sketch production P\n", "g.glang:2:1: expected quoted text after '@sketch'"),
    ("grammar G\nexternal N\nproduction P = a:b:c\n", "g.glang:3:16: malformed reference 'a:b:c'"),
    ("grammar G\nexternal N\nproduction P = ... N\n", "g.glang:3:16: malformed reference '...'"),
    ("grammar G\nexternal N\nproduction P = N ...\n", "g.glang:3:18: malformed reference '...'"),
    ('grammar G\nproduction P = "N"\n', "g.glang:2:16: unexpected string in right-hand side"),
    ("grammar G\nproduction 9x\n", "g.glang:2:12: invalid identifier '9x'"),
    ("grammar G\nproduction Straße\n", "g.glang:2:12: invalid identifier 'Straße'"),
    ('grammar G\n@sketch "oops production P\n', "g.glang:2:9: unterminated string"),
    ('grammar G\n@sketch "oops\\" production P\n', "g.glang:2:9: unterminated string"),
    ("grammar G\ninterface A B\n", "g.glang:2:1: expected exactly one interface name"),
    ("grammar G\ninterface 9x B\n", "g.glang:2:1: expected exactly one interface name"),
    ("grammar G\n  interface\n", "g.glang:2:3: expected exactly one interface name"),
    ("grammar G\nproduction P Name\n", "g.glang:2:14: expected '=' after production name"),
    ("grammar G\nproduction P\"=\" N\n", "g.glang:2:13: expected '=' after production name"),
    ("grammar G\n  production\n", "g.glang:2:3: expected production name"),
    ("grammar G\nwidget P\n", "g.glang:2:1: expected 'production', 'interface', or 'external', found 'widget'"),
    ("# nothing here\n\n", "g.glang:1:1: empty manifest: no 'grammar' declaration"),
    ("grammar G\n  external\n", "g.glang:2:3: expected nonterminal name after 'external'"),
    ("grammar G\nexternal N 9x\n", "g.glang:2:12: invalid identifier '9x'"),
    ("grammar G\n  @named\n", "g.glang:2:9: expected 'production' or 'interface' declaration"),
    ('"grammar" G\n', "g.glang:1:1: expected 'grammar <Name>' as the first declaration"),
    (
        'grammar G\n"external" N\n',
        "g.glang:2:1: expected 'production', 'interface', or 'external', found '\"external\"'",
    ),
    (
        'grammar G\nexternal N\n  "production" P = N\n',
        "g.glang:3:3: expected 'production', 'interface', or 'external', found '\"production\"'",
    ),
    (
        'grammar G\n@skip "interface" I\n',
        "g.glang:2:7: expected 'production', 'interface', or 'external', found '\"interface\"'",
    ),
]


@pytest.mark.parametrize("text,expected", ERROR_CASES)
def test_parse_errors(text, expected):
    with pytest.raises(ParseError) as info:
        parse_manifest(text, filename="g.glang")
    assert str(info.value) == expected


GHOST = "reference to undeclared nonterminal 'Ghost' (declare it as a production, interface, or external)"
REPEATED = "nonterminal 'N' occurs more than once in '{}' and needs a preceding identifier on every occurrence"

# Problems the parser reads past: (condition, message, line, col) of each finding.
FINDING_CASES = [
    ("grammar G\nproduction P\nproduction P\n",
     [("DuplicateProduction", "nonterminal 'P' already declared on line 2", 3, 12)]),
    ("grammar G\nproduction P\ninterface P\n",
     [("DuplicateProduction", "nonterminal 'P' already declared on line 2", 3, 11)]),
    ("grammar G\nexternal N\nexternal N\n",
     [("DuplicateProduction", "nonterminal 'N' already declared on line 2", 3, 10)]),
    ("grammar G\nproduction P = Ghost\n", [("UnknownNonterminalReference", GHOST, 2, 16)]),
    (
        "grammar G\nexternal N\nproduction P = Ghost N\nproduction P = N Ghost\n",
        [
            ("DuplicateProduction", "nonterminal 'P' already declared on line 3", 4, 12),
            ("UnknownNonterminalReference", GHOST, 3, 16),
            ("UnknownNonterminalReference", GHOST, 4, 18),
        ],
    ),
    ("grammar G\nexternal N\nproduction P = N N\n",
     [("UnlabelledRepeatedNonterminal", REPEATED.format("P"), 3, 16),
      ("UnlabelledRepeatedNonterminal", REPEATED.format("P"), 3, 18)]),
    ("grammar G\nexternal N\nproduction P = a:N a:N\n",
     [("DuplicatePrecedingIdentifier", "preceding identifier 'a' used twice in 'P'", 3, 20)]),
    (
        "grammar G\nexternal N\nproduction P = N N\nproduction Q = a:N a:N\n",
        [
            ("UnlabelledRepeatedNonterminal", REPEATED.format("P"), 3, 16),
            ("UnlabelledRepeatedNonterminal", REPEATED.format("P"), 3, 18),
            ("DuplicatePrecedingIdentifier", "preceding identifier 'a' used twice in 'Q'", 4, 20),
        ],
    ),
    (
        # Only the bare occurrences need a label; each reuse of one is reported.
        "grammar G\nexternal N M\nproduction P = a:N N a:M a:N\n",
        [
            ("UnlabelledRepeatedNonterminal", REPEATED.format("P"), 3, 20),
            ("DuplicatePrecedingIdentifier", "preceding identifier 'a' used twice in 'P'", 3, 22),
            ("DuplicatePrecedingIdentifier", "preceding identifier 'a' used twice in 'P'", 3, 26),
        ],
    ),
]


@pytest.mark.parametrize("text,expected", FINDING_CASES)
def test_findings(text, expected):
    manifest = parse_manifest(text)
    assert [(d.condition, d.message, d.line, d.col) for d in manifest.findings] == expected
    assert all(d.severity.value == "error" for d in manifest.findings)


def test_well_formed_manifest_has_no_findings(manifest):
    assert manifest.findings == ()


def test_error_location_formatting():
    (finding,) = parse_manifest("grammar G\nproduction P = Ghost\n", filename="g.glang").findings
    assert (finding.file, finding.line) == ("g.glang", 2)
    assert format_diagnostic(finding).startswith("g.glang:2:16:")


# Pieces of manifest lines, whole tokens and troublemakers alike.
_PIECES = [
    "grammar", "production", "@named", "@alias", "N", "a:N", "N*", "9x", "é", "...", ":",
    '"s"', '""', '"a b # c"', '"q\\"uote"', '"back\\\\slash"', '"\\q"', '"\\\\\\""',
    "=", "==", "a=b", "#", "# note", "a#b", 'a"b"', '"', '"open', '"tail\\', "\\",
    " ", "  ", "\t", "\r", "\x0c", "\u00a0",
]


class TestScannerAgainstOracle:
    """The line scanner agrees with a character-at-a-time oracle."""

    @staticmethod
    def _scan(scanner, line):
        try:
            return [tuple(tok)[:4] for tok in scanner(line, 7, None)]
        except ParseError as exc:
            return ("error", exc.message, exc.line, exc.col)

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(line=st.one_of(
        st.lists(st.sampled_from(_PIECES), max_size=10).map("".join),
        st.text(alphabet=' \t"\\#=@:.*aN9é', max_size=20),
    ))
    def test_same_tokens_or_same_error(self, line):
        assert self._scan(_scan_line, line) == self._scan(oracle_scan_manifest_line, line)

    def test_hand_picked_lines(self):
        line = '@sketch "say \\"hi\\" \\\\ \\n" production P=a:N* # done'
        tokens = self._scan(_scan_line, line)
        assert tokens == self._scan(oracle_scan_manifest_line, line)
        assert [tok[:2] for tok in tokens] == [
            ("word", "@sketch"), ("string", 'say "hi" \\ \\n'), ("word", "production"),
            ("word", "P"), ("=", "="), ("word", "a:N*"), ("eof", ""),
        ]


class TestRoundTrip:
    def test_golden_round_trip(self, manifest):
        printed = pretty_print_manifest(manifest)
        assert parse_manifest(printed) == manifest

    def test_printed_text_is_stable(self, manifest):
        printed = pretty_print_manifest(manifest)
        assert pretty_print_manifest(parse_manifest(printed)) == printed

    @pytest.mark.parametrize("seed", range(50))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        text = render_manifest_plan(random_manifest_plan(rng), rng)
        manifest = parse_manifest(text)
        assert parse_manifest(pretty_print_manifest(manifest)) == manifest


def test_production_equality_ignores_line_numbers():
    a = Production(name="P", line=1)
    b = Production(name="P", line=99)
    assert a == b
