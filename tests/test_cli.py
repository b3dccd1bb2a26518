"""Command-line behavior: exit codes, output routing, and file side effects."""

from __future__ import annotations

import codecs
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tagweaver
from tagweaver import derive_profile, parse_manifest, profile_to_json, render_derived_grammar
from tagweaver.cli import build_arg_parser, main, run_cli
from util import required_chain_schema_text

FAULTY_TAGS = (
    "package mobile;\n"
    "conforms to loggingschema.StatechartTagSchema;\n"
    "tags BadTags for Mobile {\n"
    "    tag Ghost with Monitored;\n"
    "}\n"
)

DUPLICATE_TAGS = (
    "package mobile;\n"
    "conforms to loggingschema.StatechartTagSchema;\n"
    "tags DupTags for Mobile {\n"
    "    tag Done with Monitored;\n"
    "    tag Done with Monitored;\n"
    "}\n"
)


@pytest.fixture()
def collector_restored():
    """``main`` turns the cyclic collector off for the rest of its process."""
    yield
    gc.enable()


@pytest.fixture()
def golden_argv(samples_dir):
    return [
        "--manifest", str(samples_dir / "statechart.glang"),
        "--model", str(samples_dir / "mobile.sc"),
        "--schema", str(samples_dir / "logging_schema.tagschema"),
        "--tags", str(samples_dir / "mobile_tags.tag"),
    ]


@pytest.fixture()
def warned_argv(golden_argv, tmp_path):
    """The golden workspace with a chart that repeats ``A -> B : go`` on line 6."""
    chart = tmp_path / "warned.sc"
    chart.write_text(
        "package mobile;\n"
        "statechart Mobile {\n"
        "    state A;\n"
        "    state B;\n"
        "    A -> B : go;\n"
        "    A -> B : go;\n"
        "}\n"
    )
    argv = list(golden_argv)
    argv[argv.index("--model") + 1] = str(chart)
    tags = tmp_path / "warned.tag"
    tags.write_text(
        "package mobile;\n"
        "conforms to loggingschema.StatechartTagSchema;\n"
        "tags T for Mobile { tag A with Monitored; }\n"
    )
    return swap_tags(argv, tags)


def swap(argv: list[str], flag: str, path) -> list[str]:
    out = list(argv)
    out[out.index(flag) + 1] = str(path)
    return out


def swap_tags(argv: list[str], tag_file) -> list[str]:
    return swap(argv, "--tags", tag_file)


class TestCheck:
    def test_clean_workspace_exits_zero_silently(self, golden_argv, capsys):
        assert run_cli(["check", *golden_argv]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    @pytest.mark.parametrize("closed, code", [(False, 0), (True, 2)])
    def test_long_required_chain_schema(self, golden_argv, tmp_path, capsys, closed, code):
        chain = tmp_path / "chain.tagschema"
        chain.write_text(required_chain_schema_text(1200, closed=closed))
        assert run_cli(["check", *golden_argv, "--schema", str(chain)]) == code
        err = capsys.readouterr().err
        assert ("error[RecursiveRequiredReference]" in err) is closed
        assert "Traceback" not in err

    def test_error_diagnostics_go_to_stdout_with_exit_one(
        self, golden_argv, tmp_path, capsys
    ):
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        assert run_cli(["check", *swap_tags(golden_argv, bad)]) == 1
        captured = capsys.readouterr()
        assert "error[E1]" in captured.out
        assert "bad.tag:4:9:" in captured.out
        assert captured.err == ""

    def test_warnings_alone_keep_exit_zero(self, golden_argv, tmp_path, capsys):
        dup = tmp_path / "dup.tag"
        dup.write_text(DUPLICATE_TAGS)
        assert run_cli(["check", *swap_tags(golden_argv, dup)]) == 0
        captured = capsys.readouterr()
        assert "warning[DuplicateTagWarning]" in captured.out

    def test_json_format_payload(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        code = run_cli(["check", *swap_tags(golden_argv, bad), "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["warnings"] == 0
        (diag,) = payload["diagnostics"]
        assert diag["condition"] == "E1"
        assert diag["severity"] == "error"
        assert diag["line"] == 4
        assert diag["file"].endswith("bad.tag")

    def test_json_format_on_a_syntax_error_prints_no_payload(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "bad.tag"
        bad.write_text("package m;\nconforms to s.T;\ntags T for C {\n tag A with;\n}\n")
        assert run_cli(["check", *swap_tags(golden_argv, bad), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")

    def test_json_format_clean(self, golden_argv, capsys):
        assert run_cli(["check", *golden_argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"diagnostics": [], "errors": 0, "warnings": 0}

    def test_model_warnings_go_to_stdout(self, warned_argv, capsys):
        assert run_cli(["check", *warned_argv]) == 0
        captured = capsys.readouterr()
        assert (
            "warned.sc:6:5: warning[DuplicateTransition]: duplicate transition A -> B : go"
            in captured.out
        )
        assert captured.err == ""

    def test_model_warnings_in_the_json_payload(self, warned_argv, capsys):
        assert run_cli(["check", *warned_argv, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert (payload["errors"], payload["warnings"]) == (0, 1)
        (diag,) = payload["diagnostics"]
        assert diag["file"].endswith("warned.sc")
        assert (diag["line"], diag["col"]) == (6, 5)
        assert (diag["severity"], diag["condition"]) == ("warning", "DuplicateTransition")
        assert diag["message"].startswith("duplicate transition A -> B : go")

    def test_a_schema_listed_twice_is_one_schema(self, samples_dir, tmp_path, capsys):
        files = {
            "c.sc": "package pkg;\nstatechart C {\n    state A;\n}\n",
            "s.tagschema": "package pkg;\ntagschema S {\n    tagtype M for State;\n}\n",
            "t.tag": "package pkg;\nconforms to S, pkg.S;\ntags T for C {\n    tag A with M;\n}\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [
            "check",
            "--manifest", str(samples_dir / "statechart.glang"),
            "--model", str(tmp_path / "c.sc"),
            "--schema", str(tmp_path / "s.tagschema"),
            "--tags", str(tmp_path / "t.tag"),
        ]
        assert run_cli(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""

    def test_multiple_tag_files(self, golden_argv, tmp_path, capsys):
        dup = tmp_path / "dup.tag"
        dup.write_text(DUPLICATE_TAGS)
        assert run_cli(["check", *golden_argv, "--tags", str(dup)]) == 0
        assert "DuplicateTagWarning" in capsys.readouterr().out


class TestColor:
    def test_forced_on(self, golden_argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TAGWEAVER_COLOR", "1")
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        run_cli(["check", *swap_tags(golden_argv, bad)])
        assert "\x1b[" in capsys.readouterr().out

    def test_forced_off(self, golden_argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TAGWEAVER_COLOR", "0")
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        run_cli(["check", *swap_tags(golden_argv, bad)])
        assert "\x1b[" not in capsys.readouterr().out

    def test_default_no_tty_no_color(self, golden_argv, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TAGWEAVER_COLOR", raising=False)
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        run_cli(["check", *swap_tags(golden_argv, bad)])
        assert "\x1b[" not in capsys.readouterr().out


class TestDerive:
    def test_writes_profile_and_report(self, samples_dir, tmp_path, capsys):
        manifest_path = samples_dir / "statechart.glang"
        code = run_cli(
            ["derive", "--manifest", str(manifest_path), "--out", str(tmp_path / "gen")]
        )
        assert code == 0
        captured = capsys.readouterr()
        profile = derive_profile(parse_manifest(manifest_path.read_text()))
        assert captured.out == render_derived_grammar(profile)
        profile_path = tmp_path / "gen" / "Statechart.profile.json"
        assert f"wrote {profile_path}" in captured.err
        assert profile_path.read_text() == profile_to_json(profile)

    def test_profile_bytes_equal_the_golden_file(self, samples_dir, tmp_path, capsys):
        argv = ["derive", "--manifest", str(samples_dir / "statechart.glang"), "--out", str(tmp_path)]
        assert run_cli(argv) == 0
        golden = Path(__file__).resolve().parent / "golden_profile.json"
        assert (tmp_path / "Statechart.profile.json").read_bytes() == golden.read_bytes()

    def test_default_out_is_next_to_manifest(self, manifest_text, tmp_path, capsys):
        manifest_path = tmp_path / "g.glang"
        manifest_path.write_text(manifest_text)
        assert run_cli(["derive", "--manifest", str(manifest_path)]) == 0
        assert (tmp_path / "Statechart.profile.json").exists()

    def test_repeat_runs_are_byte_identical(self, samples_dir, tmp_path, capsys):
        argv = [
            "derive",
            "--manifest", str(samples_dir / "statechart.glang"),
            "--out", str(tmp_path),
        ]
        run_cli(argv)
        first_out = capsys.readouterr().out
        first_file = (tmp_path / "Statechart.profile.json").read_bytes()
        run_cli(argv)
        assert capsys.readouterr().out == first_out
        assert (tmp_path / "Statechart.profile.json").read_bytes() == first_file

    def test_underivable_manifest_exits_two(self, tmp_path, capsys):
        path = tmp_path / "g.glang"
        path.write_text("grammar G\n@skip production A = ...\n")
        assert run_cli(["derive", "--manifest", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestExport:
    def test_golden_export_to_stdout(self, golden_argv, capsys):
        assert run_cli(["export", *golden_argv]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["targetModel"] == "mobile.Mobile"
        assert len(report["attachments"]) == 5
        assert captured.err == ""

    def test_out_file_keeps_stdout_empty(self, golden_argv, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["export", *golden_argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["targetModel"] == "mobile.Mobile"

    def test_repeat_runs_are_byte_identical(self, golden_argv, capsys):
        run_cli(["export", *golden_argv])
        first = capsys.readouterr().out
        run_cli(["export", *golden_argv])
        assert capsys.readouterr().out == first

    def test_refused_when_workspace_has_errors(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        assert run_cli(["export", *swap_tags(golden_argv, bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error[E1]" in captured.err
        assert "export refused: the workspace has errors" in captured.err

    def test_warnings_do_not_refuse_export(self, golden_argv, tmp_path, capsys):
        dup = tmp_path / "dup.tag"
        dup.write_text(DUPLICATE_TAGS)
        assert run_cli(["export", *swap_tags(golden_argv, dup)]) == 0
        captured = capsys.readouterr()
        assert "warning[DuplicateTagWarning]" in captured.err
        report = json.loads(captured.out)
        # Both duplicate uses still land in the report.
        assert [a["elementPath"] for a in report["attachments"]] == ["Done", "Done"]

    def test_json_diagnostics_on_stderr(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "bad.tag"
        bad.write_text(FAULTY_TAGS)
        code = run_cli(["export", *swap_tags(golden_argv, bad), "--format", "json"])
        assert code == 1
        captured = capsys.readouterr()
        # stderr carries the JSON payload and then the refusal line.
        payload = json.loads(captured.err[: captured.err.rindex("}") + 1])
        assert payload["errors"] == 1
        assert captured.err.rstrip().endswith("export refused: the workspace has errors")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_model_warnings_go_to_stderr(self, warned_argv, capsys, fmt):
        assert run_cli(["export", *warned_argv, "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert [a["elementPath"] for a in json.loads(captured.out)["attachments"]] == ["A"]
        if fmt == "json":
            assert json.loads(captured.err)["warnings"] == 1
        assert "duplicate transition A -> B : go" in captured.err

    def test_multi_target_workspace_exits_two(self, golden_argv, tmp_path, capsys):
        other_model = tmp_path / "other.sc"
        other_model.write_text("package p;\nstatechart Other { state A; }\n")
        other_tags = tmp_path / "other.tag"
        other_tags.write_text(
            "package p;\nconforms to loggingschema.StatechartTagSchema;\n"
            "tags T for Other { tag A with Monitored; }\n"
        )
        argv = [
            "export", *golden_argv,
            "--model", str(other_model),
            "--tags", str(other_tags),
        ]
        assert run_cli(argv) == 2
        assert "single target model" in capsys.readouterr().err


class TestFailureModes:
    def test_manifest_parse_error(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "bad.glang"
        bad.write_text("grammar\n")
        argv = list(golden_argv)
        argv[argv.index("--manifest") + 1] = str(bad)
        assert run_cli(["check", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad.glang:1:" in err

    def test_missing_file(self, golden_argv, tmp_path, capsys):
        argv = list(golden_argv)
        argv[argv.index("--model") + 1] = str(tmp_path / "nope.sc")
        assert run_cli(["check", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_ill_formed_schema_prints_its_diagnostics(
        self, golden_argv, tmp_path, capsys
    ):
        bad = tmp_path / "bad.tagschema"
        bad.write_text("package s;\ntagschema Bad { tagtype Log for Transation; }\n")
        argv = list(golden_argv)
        argv[argv.index("--schema") + 1] = str(bad)
        assert run_cli(["check", *argv]) == 2
        err = capsys.readouterr().err
        assert "not well-formed" in err
        assert "error[UnknownScopeKeyword]" in err

    def test_unknown_target_model_reference(self, golden_argv, tmp_path, capsys):
        orphan = tmp_path / "orphan.tag"
        orphan.write_text(
            "package mobile;\n"
            "conforms to loggingschema.StatechartTagSchema;\n"
            "tags T for Ghost { tag A with Monitored; }\n"
        )
        assert run_cli(["check", *swap_tags(golden_argv, orphan)]) == 2
        assert "no model named 'mobile.Ghost'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--manifest", "--model", "--schema", "--tags"])
    def test_undecodable_input_exits_two_with_one_line(
        self, golden_argv, tmp_path, capsys, flag
    ):
        # Line 2 reads "  é " and then the byte 0xff, which starts no UTF-8 sequence.
        bad = tmp_path / "bad.input"
        bad.write_bytes("café\n  é ".encode() + b"\xff\n")
        argv = list(golden_argv)
        argv[argv.index(flag) + 1] = str(bad)
        assert run_cli(["check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:2:5: not UTF-8 text: cannot decode byte 0xff\n"

    def test_undecodable_manifest_for_derive_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.glang"
        bad.write_bytes(b"grammar G\n\xc3(\n")
        assert run_cli(["derive", "--manifest", str(bad), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:2:1: not UTF-8 text: cannot decode byte 0xc3\n"

    @pytest.mark.parametrize(
        "old, new, misfit",
        [
            ("Invariant", "Guard", "it declares no production 'Invariant'"),
            ('"source -> target"', '"from -> to"',
             "the sketch of 'Transition' labels 'from', 'to', but its parts are 'source', 'target'"),
            ('"source -> target"', '"->"',
             "the sketch of 'Transition' labels none, but its parts are 'source', 'target'"),
            ("production Invariant", '@sketch "( )" production Invariant',
             "the sketch of 'Invariant' has literals '(', ')', but its elements have no parts "
             "and are named by their text"),
        ],
    )
    def test_a_manifest_that_does_not_fit_the_statechart_parser(
        self, golden_argv, manifest_text, tmp_path, capsys, old, new, misfit
    ):
        manifest = tmp_path / "misfit.glang"
        manifest.write_text(manifest_text.replace(old, new))
        assert run_cli(["check", *swap(golden_argv, "--manifest", manifest)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: manifest 'Statechart' does not fit the statechart parser: {misfit}\n"
        )

    def test_every_misfit_is_listed(self, golden_argv, manifest_text, tmp_path, capsys):
        manifest = tmp_path / "misfit.glang"
        manifest.write_text(
            manifest_text.replace("@named production State", "production State")
            .replace("production Invariant", "@named production Invariant")
            .replace('"source -> target"', '"source -> source"')
            .replace("@named @alias Statechart production SCDefinition", "@skip production SCDefinition")
        )
        assert run_cli(["check", *swap(golden_argv, "--manifest", manifest)]) == 2
        assert capsys.readouterr().err == (
            "error: manifest 'Statechart' does not fit the statechart parser: "
            "production 'State' is not @named; the sketch of 'Transition' labels 'source', "
            "'source', but its parts are 'source', 'target'; production 'Invariant' is @named\n"
        )

    def test_a_literal_sketch_on_a_production_without_parts_is_listed_with_the_others(
        self, golden_argv, manifest_text, tmp_path, capsys
    ):
        manifest = tmp_path / "misfit.glang"
        manifest.write_text(
            manifest_text.replace("production Invariant", '@sketch "not ( x )" production Invariant')
            .replace("@named production State", "production State")
        )
        assert run_cli(["check", *swap(golden_argv, "--manifest", manifest)]) == 2
        assert capsys.readouterr().err == (
            "error: manifest 'Statechart' does not fit the statechart parser: "
            "production 'State' is not @named; the sketch of 'Invariant' has literals '(', ')', "
            "but its elements have no parts and are named by their text\n"
        )

    @pytest.mark.parametrize(
        "old, new, chart_keyword",
        [
            ("production Invariant", "@skip production Invariant", "Statechart"),
            ("@alias Statechart", "@alias Chart", "Chart"),
            ('@sketch "source -> target" ', "", "Statechart"),
            ('"source -> target"', '"source => target"', "Statechart"),
            ('"source -> target"', '"target <- source"', "Statechart"),
        ],
    )
    def test_a_manifest_that_fits_loads(
        self, golden_argv, manifest_text, schema_text, tmp_path, capsys, old, new, chart_keyword
    ):
        manifest, schema = tmp_path / "fits.glang", tmp_path / "fits.tagschema"
        manifest.write_text(manifest_text.replace(old, new))
        schema.write_text(schema_text.replace("for Statechart;", f"for {chart_keyword};"))
        argv = swap(swap(golden_argv, "--manifest", manifest), "--schema", schema)
        assert run_cli(["check", *argv]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_schema_reference(self, golden_argv, tmp_path, capsys):
        orphan = tmp_path / "orphan.tag"
        orphan.write_text(
            "package mobile;\nconforms to nowhere.Nothing;\n"
            "tags T for Mobile { tag Active with Monitored; }\n"
        )
        assert run_cli(["check", *swap_tags(golden_argv, orphan)]) == 2
        assert "no schema named 'nowhere.Nothing'" in capsys.readouterr().err


# Files a parser reads past: each is refused with all of its findings.
DUP_SCHEMA = (
    "package loggingschema;\n"
    "tagschema StatechartTagSchema {\n"
    "    tagtype Monitored for State;\n"
    "    tagtype Monitored for State;\n"
    '    tagtype Log:["a"|"a"] for Transition;\n'
    "}\n"
)
DUP_CHART = (
    "package mobile;\n"
    "statechart Mobile {\n"
    "    state A;\n"
    "    state A;\n"
    "    A -> Ghost;\n"
    "    Nowhere -> A;\n"
    "}\n"
)
DUP_MANIFEST = "grammar G\nproduction P = Ghost\nproduction P = Phantom\n"
RHS_MANIFEST = "grammar G\nexternal N\nproduction P = N N\nproduction Q = a:N a:N\n"


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark is dropped, and every position stays as without it."""

    FLAGS = ["--manifest", "--model", "--schema", "--tags"]
    # A first line that each file kind refuses, at a column past the mark.
    BROKEN = {"--manifest": "grammar 9\n", "--model": "package mobile; @\n",
              "--schema": "package p; tagschema @\n", "--tags": "package mobile; ]\n"}

    def run_both(self, argv, flag, data: bytes, tmp_path, capsys, command="check"):
        """The exit code, stdout and stderr with ``data`` under ``flag``, without and with a mark."""

        outcomes = []
        for name, content in (("plain", data), ("marked", codecs.BOM_UTF8 + data)):
            path = tmp_path / name / Path(argv[argv.index(flag) + 1]).name
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(content)
            code = run_cli([command, *swap(argv, flag, path)])
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err.replace(str(path.parent), "<dir>")))
        return outcomes

    @pytest.mark.parametrize("flag", FLAGS)
    def test_a_marked_sample_checks_and_exports_as_the_sample(self, golden_argv, tmp_path, capsys, flag):
        data = Path(golden_argv[golden_argv.index(flag) + 1]).read_bytes()
        assert self.run_both(golden_argv, flag, data, tmp_path, capsys) == [(0, "", "")] * 2
        plain, marked = self.run_both(golden_argv, flag, data, tmp_path, capsys, command="export")
        assert marked == plain
        assert marked[0] == 0 and json.loads(marked[1])["targetModel"] == "mobile.Mobile"

    def test_a_marked_manifest_derives_the_golden_profile(self, samples_dir, tmp_path, capsys):
        marked = tmp_path / "statechart.glang"
        marked.write_bytes(codecs.BOM_UTF8 + (samples_dir / "statechart.glang").read_bytes())
        assert run_cli(["derive", "--manifest", str(marked), "--out", str(tmp_path)]) == 0
        golden = Path(__file__).resolve().parent / "golden_profile.json"
        assert (tmp_path / "Statechart.profile.json").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("flag", FLAGS)
    def test_errors_on_the_first_line_keep_their_positions(self, golden_argv, tmp_path, capsys, flag):
        name = Path(golden_argv[golden_argv.index(flag) + 1]).name
        for data in (self.BROKEN[flag].encode(), "café".encode() + b"\xff\n"):
            plain, marked = self.run_both(golden_argv, flag, data, tmp_path, capsys)
            assert marked == plain
            assert marked[0] == 2 and marked[2].startswith(f"error: <dir>/{name}:1:")
        assert marked[2].endswith(":1:5: not UTF-8 text: cannot decode byte 0xff\n")

    @pytest.mark.parametrize("flag", FLAGS)
    def test_a_mark_anywhere_else_is_an_error(self, golden_argv, tmp_path, capsys, flag):
        data = Path(golden_argv[golden_argv.index(flag) + 1]).read_bytes()
        first, rest = data.split(b"\n", 1)
        for position, content in (("1:1", codecs.BOM_UTF8 * 2 + data),
                                  ("2:1", first + b"\n" + codecs.BOM_UTF8 + rest)):
            bad = tmp_path / f"bad{Path(golden_argv[golden_argv.index(flag) + 1]).suffix}"
            bad.write_bytes(content)
            assert run_cli(["check", *swap(golden_argv, flag, bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            reason = ("expected 'grammar <Name>' as the first declaration" if flag == "--manifest"
                      else "unexpected character '\\ufeff'")
            assert captured.err == f"error: {bad}:{position}: {reason}\n"


class TestIllFormedFiles:
    @pytest.fixture(autouse=True)
    def _no_color(self, monkeypatch):
        monkeypatch.setenv("TAGWEAVER_COLOR", "0")

    def test_schema_prints_every_finding(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "dup.tagschema"
        bad.write_text(DUP_SCHEMA)
        assert run_cli(["check", *swap(golden_argv, "--schema", bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: schema 'loggingschema.StatechartTagSchema' is not well-formed\n"
            f"{bad}:4:13: error[DuplicateTagTypeName]: tag type 'Monitored' already defined on line 3\n"
            f'{bad}:5:22: error[DuplicateEnumValue]: duplicate enumeration value "a" in \'Log\'\n'
        )

    def test_model_prints_every_finding(self, golden_argv, tmp_path, capsys):
        bad = tmp_path / "dup.sc"
        bad.write_text(DUP_CHART)
        assert run_cli(["check", *swap(golden_argv, "--model", bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: model 'mobile.Mobile' is not well-formed\n"
            f"{bad}:4:11: error[DuplicateSiblingState]: duplicate sibling state 'A'\n"
            f"{bad}:5:5: error[UnresolvedTransitionEndpoint]: transition target 'Ghost' does not name a state\n"
            f"{bad}:6:5: error[UnresolvedTransitionEndpoint]: transition source 'Nowhere' does not name a state\n"
        )

    @pytest.mark.parametrize("command", ["derive", "check"])
    def test_manifest_prints_every_finding(self, golden_argv, tmp_path, capsys, command):
        bad = tmp_path / "dup.glang"
        bad.write_text(DUP_MANIFEST)
        argv = (
            ["derive", "--manifest", str(bad), "--out", str(tmp_path)] if command == "derive"
            else ["check", *swap(golden_argv, "--manifest", bad)]
        )
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        undeclared = "(declare it as a production, interface, or external)"
        assert captured.err == (
            "error: manifest 'G' is not well-formed\n"
            f"{bad}:3:12: error[DuplicateProduction]: nonterminal 'P' already declared on line 2\n"
            f"{bad}:2:16: error[UnknownNonterminalReference]: "
            f"reference to undeclared nonterminal 'Ghost' {undeclared}\n"
            f"{bad}:3:16: error[UnknownNonterminalReference]: "
            f"reference to undeclared nonterminal 'Phantom' {undeclared}\n"
        )
        assert not (tmp_path / "G.profile.json").exists()

    def test_manifest_right_hand_side_findings(self, tmp_path, capsys):
        bad = tmp_path / "rhs.glang"
        bad.write_text(RHS_MANIFEST)
        assert run_cli(["derive", "--manifest", str(bad), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        needs = "occurs more than once in 'P' and needs a preceding identifier on every occurrence"
        assert captured.err == (
            "error: manifest 'G' is not well-formed\n"
            f"{bad}:3:16: error[UnlabelledRepeatedNonterminal]: nonterminal 'N' {needs}\n"
            f"{bad}:3:18: error[UnlabelledRepeatedNonterminal]: nonterminal 'N' {needs}\n"
            f"{bad}:4:20: error[DuplicatePrecedingIdentifier]: "
            "preceding identifier 'a' used twice in 'Q'\n"
        )
        assert not (tmp_path / "G.profile.json").exists()

    @staticmethod
    def _ill_formed_model_and_schema(golden_argv, tmp_path) -> tuple[list[str], Path, Path]:
        model, schema = tmp_path / "dup.sc", tmp_path / "dup.tagschema"
        model.write_text(DUP_CHART)
        schema.write_text(DUP_SCHEMA)
        return swap(swap(golden_argv, "--model", model), "--schema", schema), model, schema

    def test_every_ill_formed_file_is_refused_at_once(self, golden_argv, tmp_path, capsys):
        argv, model, schema = self._ill_formed_model_and_schema(golden_argv, tmp_path)
        other = tmp_path / "other.tagschema"
        other.write_text("package other;\ntagschema S { tagtype T for Stat; }\n")
        assert run_cli(["check", *argv, "--schema", str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: model 'mobile.Mobile', schema 'loggingschema.StatechartTagSchema' "
            "and schema 'other.S' are not well-formed\n"
            f"{model}:4:11: error[DuplicateSiblingState]: duplicate sibling state 'A'\n"
            f"{model}:5:5: error[UnresolvedTransitionEndpoint]: transition target 'Ghost' does not name a state\n"
            f"{model}:6:5: error[UnresolvedTransitionEndpoint]: transition source 'Nowhere' does not name a state\n"
            f"{schema}:4:13: error[DuplicateTagTypeName]: tag type 'Monitored' already defined on line 3\n"
            f'{schema}:5:22: error[DuplicateEnumValue]: duplicate enumeration value "a" in \'Log\'\n'
            f"{other}:2:29: error[UnknownScopeKeyword]: "
            "'Stat' is not a scope keyword of grammar 'Statechart'\n"
        )

    def test_sample_files_with_a_repeated_declaration(self, samples_dir, golden_argv, tmp_path, capsys):
        model, schema = tmp_path / "mobile.sc", tmp_path / "logging_schema.tagschema"
        line = "    state ConnectionProblems;\n"
        model.write_text((samples_dir / "mobile.sc").read_text().replace(line, line * 2))
        line = "    tagtype Monitored for State;\n"
        schema.write_text((samples_dir / "logging_schema.tagschema").read_text().replace(line, line * 2))
        argv = swap(swap(golden_argv, "--model", model), "--schema", schema)
        assert run_cli(["check", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: model 'mobile.Mobile' and schema 'loggingschema.StatechartTagSchema' "
            "are not well-formed\n"
            f"{model}:16:11: error[DuplicateSiblingState]: duplicate sibling state 'ConnectionProblems'\n"
            f"{schema}:5:13: error[DuplicateTagTypeName]: tag type 'Monitored' already defined on line 4\n"
        )

    @pytest.mark.parametrize("command", ["check", "export"])
    def test_json_lists_every_ill_formed_file(self, golden_argv, tmp_path, capsys, command):
        argv, model, schema = self._ill_formed_model_and_schema(golden_argv, tmp_path)
        assert run_cli([command, *argv, "--format", "json"]) == 2
        captured = capsys.readouterr()
        header = (
            "error: model 'mobile.Mobile' and schema 'loggingschema.StatechartTagSchema' "
            "are not well-formed\n"
        )
        if command == "check":
            assert captured.err == header
            payload = json.loads(captured.out)
        else:
            assert captured.out == ""
            assert captured.err.startswith(header)
            payload = json.loads(captured.err[len(header):])
        assert [(d["file"], d["condition"], d["line"], d["col"]) for d in payload["diagnostics"]] == [
            (str(model), "DuplicateSiblingState", 4, 11),
            (str(model), "UnresolvedTransitionEndpoint", 5, 5),
            (str(model), "UnresolvedTransitionEndpoint", 6, 5),
            (str(schema), "DuplicateTagTypeName", 4, 13),
            (str(schema), "DuplicateEnumValue", 5, 22),
        ]
        assert (payload["errors"], payload["warnings"]) == (5, 0)

    @pytest.mark.parametrize("command", ["check", "export"])
    def test_json_format_holds_for_a_refused_schema(self, golden_argv, tmp_path, capsys, command):
        bad = tmp_path / "bad.tagschema"
        bad.write_text(
            "package loggingschema;\n"
            "tagschema StatechartTagSchema { tagtype Log for Transation; tagtype T { g:Ghost; } }\n"
        )
        argv = [command, *swap(golden_argv, "--schema", bad), "--format", "json"]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        header = "error: schema 'loggingschema.StatechartTagSchema' is not well-formed\n"
        if command == "check":
            assert captured.err == header
            payload = json.loads(captured.out)
        else:
            assert captured.out == ""
            assert captured.err.startswith(header)
            payload = json.loads(captured.err[len(header):])
        assert [(d["condition"], d["line"], d["col"]) for d in payload["diagnostics"]] == [
            ("UnknownScopeKeyword", 2, 49),
            ("UnresolvedNamedReference", 2, 73),
        ]
        assert (payload["errors"], payload["warnings"]) == (2, 0)


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["check"],
            ["check", "--manifest", "g.glang"],
            ["derive"],
        ],
    )
    def test_bad_usage_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == 2

    def test_help_mentions_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for name in ("check", "derive", "export"):
            assert name in out

    def test_parser_prog_name(self):
        assert build_arg_parser().prog == "tagweaver"

    def test_main_returns_int(self, golden_argv, capsys, collector_restored):
        assert main(["check", *golden_argv]) == 0


class TestInternalErrors:
    """An unexpected exception exits 3 with one line, never 1 with a traceback."""

    def test_unexpected_exception_exits_three(self, golden_argv, monkeypatch, capsys):
        def broken(loaded):
            raise RuntimeError("checker fell over")

        monkeypatch.setattr("tagweaver.workspace.check_workspace", broken)
        assert run_cli(["check", *golden_argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: checker fell over\n"

    def test_deeply_nested_chart_exits_two_with_one_line(self, golden_argv, tmp_path):
        depth = 1500
        deep = tmp_path / "deep.sc"
        deep.write_text(
            "package deep;\nstatechart DeepChart {\n"
            + "".join(f"state D{i} {{\n" for i in range(depth - 1))
            + f"state D{depth - 1};\n"
            + "}\n" * depth
        )
        argv = list(golden_argv)
        argv[argv.index("--model") + 1] = str(deep)
        result = subprocess.run(
            [sys.executable, "-m", "tagweaver.cli", "check", *argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr == f"error: {deep}:103:12: blocks nest deeper than 100 levels\n"


class TestOneShotProcess:
    """``main`` serves a process that exits when it returns; ``run_cli`` does not."""

    def test_run_cli_leaves_the_collector_on(self, golden_argv, capsys):
        assert gc.isenabled()
        assert run_cli(["check", *golden_argv]) == 0
        assert gc.isenabled()

    def test_main_turns_the_collector_off(self, golden_argv, capsys, collector_restored):
        assert main(["check", *golden_argv]) == 0
        assert not gc.isenabled()

    def test_derive_loads_no_workspace_module(self, samples_dir, tmp_path):
        modules = tmp_path / "modules.json"
        script = (
            "import json, sys\n"
            "from tagweaver.cli import main\n"
            f"code = main(['derive', '--manifest', {str(samples_dir / 'statechart.glang')!r},"
            f" '--out', {str(tmp_path)!r}])\n"
            f"open({str(modules)!r}, 'w').write(json.dumps(sorted(sys.modules)))\n"
            "sys.exit(code)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        loaded = set(json.loads(modules.read_text()))
        assert "tagweaver.derivation" in loaded
        unused = {"statechart", "tagmodel", "tagschema", "conformance", "workspace"}
        assert {f"tagweaver.{name}" for name in unused} & loaded == set()


    def test_derive_loads_no_json_package(self, samples_dir, tmp_path):
        # The profile is written by ``diagnostics.render_json``, which needs
        # only the C string escaper of ``json``.
        script = (
            "import sys\n"
            "from tagweaver.cli import run_cli\n"
            f"code = run_cli(['derive', '--manifest', {str(samples_dir / 'statechart.glang')!r},"
            f" '--out', {str(tmp_path)!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'json'), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tagweaver.__file__).resolve().parent.parent)}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.splitlines()[-1] == "[]"


    def test_derive_and_check_load_neither_dataclasses_nor_inspect(self, golden_argv, samples_dir, tmp_path):
        # ``-S`` keeps site-packages hooks from importing either module first.
        modules = tmp_path / "modules.json"
        script = (
            "import json, sys\n"
            "from tagweaver.cli import run_cli\n"
            f"codes = [run_cli(['derive', '--manifest', {str(samples_dir / 'statechart.glang')!r},"
            f" '--out', {str(tmp_path)!r}]), run_cli(['check', *{golden_argv!r}])]\n"
            f"open({str(modules)!r}, 'w').write(json.dumps(sorted(sys.modules)))\n"
            "sys.exit(max(codes))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(tagweaver.__file__).resolve().parent.parent)}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        loaded = set(json.loads(modules.read_text()))
        assert "tagweaver.conformance" in loaded
        assert {"dataclasses", "inspect"} & loaded == set()

class TestModuleInvocation:
    def test_runs_as_module(self, golden_argv):
        result = subprocess.run(
            [sys.executable, "-m", "tagweaver.cli", "check", *golden_argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == ""
