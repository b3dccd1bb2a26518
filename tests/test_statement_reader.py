"""The statement reader reads a tag model exactly as the token parser does.

``tagmodel._read_statements`` reads the common case of a tag model from its
text, item by item: ``within`` blocks and ``tag`` statements with simple,
``= "..."`` and complex values, nested to any depth up to ``MAX_NESTING``
blocks and values together.  ``tagmodel._parse_tokens`` is the token parser,
the reference.  Where the reader reads a file, both give the same records
with the same ``line`` and ``col`` everywhere: ``repr`` shows them, where
``==`` ignores them.  Where it does not, ``parse_tag_model`` returns or
raises exactly what the token parser does.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tagweaver import (
    derive_profile,
    parse_manifest,
    parse_statechart,
    parse_tag_model,
    parse_tag_schema,
    pretty_print_tag_model,
)
from tagweaver import tagmodel
from tagweaver.errors import ParseError
from tagweaver.parsing import MAX_NESTING, read_source, tokenize
from util import (
    load_workloads, mutate, mutations, random_schema_text, random_statechart_text, random_tag_model,
)

ROOT = Path(__file__).resolve().parent.parent
HEADER = "package m;\nconforms to s.Types;\n\ntags T for Chart {\n"
# What may stand between two tokens.
FILLERS = (" ", "\t", "\n", "\r\n", "\n\n    ", "// note\n", "//\n", "/* note */", "/**/",
           "/* two\nlines */", "/* // */", "// /* \n")
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def outcome(parse, text: str, profile):
    """What ``parse`` gives for ``text``: the records' ``repr``, or the error's type and text."""

    try:
        return repr(parse(text, profile, "t.tag"))
    except ParseError as exc:
        return type(exc), str(exc)


def agree(text: str, profile) -> bool:
    """Check the reader against the token parser on ``text``; return whether the reader read it."""

    read = tagmodel._read_statements(text, profile, "t.tag")
    reference = outcome(tagmodel._parse_tokens, text, profile)
    assert outcome(parse_tag_model, text, profile) == reference
    if read is not None:
        assert repr(read) == reference
    return read is not None


WORKLOADS = ("flat-brackets", "nested-contexts", "merged-export")


def workload_tag_files(workload: str, root: Path, quick: bool):
    """The tag file texts of ``workload`` at seed 4242, and its profile."""

    generated = load_workloads().generate(workload, 4242, root, quick=quick)
    profile = derive_profile(parse_manifest(read_source(generated.manifest)))
    return [read_source(path) for path in generated.tag_files], profile


@pytest.fixture(scope="module")
def flat_quick(tmp_path_factory):
    texts, profile = workload_tag_files("flat-brackets", tmp_path_factory.mktemp("flat"), True)
    return texts[0], profile


@pytest.fixture(scope="module")
def nested_quick(tmp_path_factory):
    texts, profile = workload_tag_files("nested-contexts", tmp_path_factory.mktemp("nested"), True)
    return texts[0], profile


def splice(text: str, fillers: list[tuple[int, str]]) -> str:
    """Insert each filler at a token boundary of ``text``, chosen by its index."""

    ends = [token.end for token in tokenize(text, raw_brackets=True)]
    for at, filler in sorted(((ends[i % len(ends)], f) for i, f in fillers), reverse=True):
        text = text[:at] + filler + text[at:]
    return text


@SETTINGS
@given(
    seed=st.integers(0, 1 << 30),
    fillers=st.lists(st.tuples(st.integers(0, 1 << 20), st.sampled_from(FILLERS)), max_size=12),
)
def test_printed_random_models_read_alike(profile, seed, fillers):
    rng = random.Random(seed)
    target = parse_statechart(random_statechart_text(rng))
    schema = parse_tag_schema(random_schema_text(rng), profile)
    model = random_tag_model(rng, target, (schema,))
    # Every item of a printed model is of the reader's kind.
    assert agree(splice(pretty_print_tag_model(model), fillers), profile)


@SETTINGS
@given(edits=mutations())
def test_mutated_flat_brackets_files_read_alike(flat_quick, edits):
    text, profile = flat_quick
    agree(mutate(text, edits), profile)


@SETTINGS
@given(edits=mutations())
def test_mutated_nested_contexts_files_read_alike(nested_quick, edits):
    text, profile = nested_quick
    agree(mutate(text, edits), profile)


@SETTINGS
@given(edits=mutations())
def test_mutated_sample_files_read_alike(samples_dir, profile, edits):
    agree(mutate(read_source(samples_dir / "mobile_tags_full.tag"), edits), profile)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_reader_reads_the_workloads(tmp_path, workload, quick):
    texts, profile = workload_tag_files(workload, tmp_path, quick)
    assert all(agree(text, profile) for text in texts)


def arrow_only():
    return derive_profile(parse_manifest(
        'grammar G\nexternal N\n@named production A = N\n@sketch "a -> b" production T = x:N y:N\n'
    ))


def nested(depth: int, use: str = "T") -> str:
    return "within A {\n" * depth + f"tag B with {use};\n" + "}\n" * depth


# One case for each kind of text the reader leaves to the token parser.
FALLBACKS = {
    "nested bracket": " tag [a[0] > 1] with T;\n",
    "non-ASCII identifier": " tag Étoile with T;\n",
    "identifier with a digit first": " tag 9a with T;\n",
    "deeper than MAX_NESTING": nested(MAX_NESTING + 1),
    "a value deeper than MAX_NESTING": nested(MAX_NESTING - 1, "T { a { b; }; }"),
    "'{' after a string": ' tag A with T = "x" { a; };\n',
    "missing ';' in a value": " tag A with T { a };\n",
    "missing '}' of a value": " tag A with T { a; ;\n",
    "stray ',' in a value": " tag A with T { a, ; };\n",
    "a use after ';' in a value": " tag A with T { a; b; };\n",
    "missing ';'": " tag A with T\n",
    "'with' inside a '//' comment": " tag A // with T;\n",
    "a name that runs into 'with'": " tag Awith T;\n",
    "'with' that runs into a name": " tag A withT;\n",
    "'{' where 'with' belongs": " tag A { T;\n",
    "',' where '{' belongs": " within A, tag B with T; }\n",
    "stray ','": " tag A, with T;\n",
    "'=' without a string": " tag A with T = B;\n",
    "unterminated comment": " tag A with T; /* open\n",
    "'[' not closed": " tag [a > 1 with T;\n",
    "unknown keyword": " oops;\n",
    "missing '}'": " within A { tag B with T;\n",
    "text after the last '}'": " tag A with T;\n} tag",
}


@pytest.mark.parametrize("body", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_text_the_reader_leaves_is_the_token_parsers(profile, body):
    text = HEADER + body + "}\n"
    assert tagmodel._read_statements(text, profile, "t.tag") is None
    agree(text, profile)


@pytest.mark.parametrize("tail", ["...", "tag", "}", "/* open"])
def test_an_item_after_the_last_brace_is_the_token_parsers(profile, tail):
    text = HEADER + " tag A with T;\n} " + tail
    assert tagmodel._read_statements(text, profile, "t.tag") is None
    agree(text, profile)


@pytest.mark.parametrize("header", [
    "package m; conforms to s.T; tags T for C /* { */ {",
    "package m; conforms to s.T, u.V; tags T for C.D",
    "package m; conforms to s.T,; tags T for C {",
    "package m; tags T for C {",
])
def test_a_header_the_reader_leaves_is_the_token_parsers(profile, header):
    text = header + "\n tag A with T;\n}\n"
    assert tagmodel._read_statements(text, profile, "t.tag") is None
    agree(text, profile)


def test_a_bracket_text_no_form_reads_is_the_token_parsers():
    text = HEADER + " tag [A -> B], [no arrow here] with X;\n}\n"
    assert tagmodel._read_statements(text, arrow_only(), "t.tag") is None
    assert outcome(parse_tag_model, text, arrow_only())[1] == (
        "t.tag:5:16: '[no arrow here]' matches no bracket identifier form "
        "(available bracket forms: T)"
    )
    agree(text, arrow_only())


READ = {
    "nested to MAX_NESTING": nested(MAX_NESTING),
    "a value that reaches MAX_NESTING": nested(MAX_NESTING - 1, "T { a; }"),
    "complex value": ' tag A with T { a = "1"; };\n',
    "empty complex value": " tag A with T {};\n",
    "nested complex values": (
        ' tag A with T /* { */ { a { b, c {} ; } , d = "}" ; } // ;\n, U { e; } ;\n'
    ),
    "carriage returns": " tag A,\r\n [x > 1]\r\n with T;\r\n",
    "comments and blanks everywhere": (
        ' tag /* a */ A . /* b */ B // c\n , [ x\n> 1 ] with\n\n T /**/ = "v\\"w" , U ;\n'
        " ... within [S -> R] { } ...\n"
    ),
    "keywords as names": " tag tag, with, within . within with with, tag;\n",
    "a '/' in a string but no comment": ' tag A with T = "a/b";\n',
}


@pytest.mark.parametrize("body", READ.values(), ids=READ.keys())
def test_the_reader_reads_what_the_token_parser_reads(profile, body):
    assert agree(HEADER + body + "}\n", profile)


def test_a_header_with_comments_and_blanks_is_read(profile):
    text = ("// leading\npackage a . b ; /* c */ conforms to s.T , u /**/ . V ;\n"
            "tags T for C . D\n{ tag A with T; }\n")
    assert agree(text, profile)


def test_text_with_no_slash_compiles_only_the_blank_skip_patterns(tmp_path):
    """A ``/``-free workload is read through the patterns built on ``_BLANKS`` alone.

    In a fresh process, a ``check`` of ``flat-brackets``, whose files hold no
    ``/``, builds one set of patterns for each reader, over ``_BLANKS``; a text
    with a comment then builds the set over ``_SKIP``.
    """

    generated = load_workloads().generate("flat-brackets", 4242, tmp_path, quick=True)
    assert not any("/" in read_source(path) for path in [generated.model, *generated.tag_files])
    code = f"""
import contextlib, io
from tagweaver import cli, statechart, tagmodel
from tagweaver.parsing import _BLANKS
with contextlib.redirect_stdout(io.StringIO()):
    cli.run_cli({[str(arg) for arg in generated.cli_args()]!r})
builders = (tagmodel._pieces, statechart._body)
print([builder.cache_info().currsize for builder in builders])
for builder in builders:
    misses = builder.cache_info().misses
    builder(_BLANKS)
    assert builder.cache_info().misses == misses, builder
statechart.parse_statechart("package m; statechart C {{ state A; // a comment\\n }}")
print([builder.cache_info().currsize for builder in builders])
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.stdout, done.stderr) == ("[1, 1]\n[1, 2]\n", "")
