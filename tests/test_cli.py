"""Command-line behavior: exit codes, output routing, and file side effects."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

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
def golden_argv(samples_dir):
    return [
        "--manifest", str(samples_dir / "statechart.glang"),
        "--model", str(samples_dir / "mobile.sc"),
        "--schema", str(samples_dir / "logging_schema.tagschema"),
        "--tags", str(samples_dir / "mobile_tags.tag"),
    ]


def swap_tags(argv: list[str], tag_file) -> list[str]:
    out = list(argv)
    out[out.index("--tags") + 1] = str(tag_file)
    return out


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

    def test_json_format_clean(self, golden_argv, capsys):
        assert run_cli(["check", *golden_argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"diagnostics": [], "errors": 0, "warnings": 0}

    def test_model_warnings_go_to_stderr(self, golden_argv, tmp_path, capsys):
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
        empty = tmp_path / "empty.tag"
        empty.write_text(
            "package mobile;\n"
            "conforms to loggingschema.StatechartTagSchema;\n"
            "tags T for Mobile { tag A with Monitored; }\n"
        )
        assert run_cli(["check", *swap_tags(argv, empty)]) == 0
        captured = capsys.readouterr()
        assert "warned.sc: warning: duplicate transition A -> B : go" in captured.err
        assert captured.out == ""

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

    def test_unknown_schema_reference(self, golden_argv, tmp_path, capsys):
        orphan = tmp_path / "orphan.tag"
        orphan.write_text(
            "package mobile;\nconforms to nowhere.Nothing;\n"
            "tags T for Mobile { tag Active with Monitored; }\n"
        )
        assert run_cli(["check", *swap_tags(golden_argv, orphan)]) == 2
        assert "no schema named 'nowhere.Nothing'" in capsys.readouterr().err


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

    def test_main_returns_int(self, golden_argv, capsys):
        assert main(["check", *golden_argv]) == 0


class TestInternalErrors:
    """An unexpected exception exits 3 with one line, never 1 with a traceback."""

    def test_unexpected_exception_exits_three(self, golden_argv, monkeypatch, capsys):
        def broken(loaded):
            raise RuntimeError("checker fell over")

        monkeypatch.setattr("tagweaver.cli.check_workspace", broken)
        assert run_cli(["check", *golden_argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: checker fell over\n"

    def test_deeply_nested_chart_exits_three_without_traceback(
        self, golden_argv, tmp_path
    ):
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
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: internal error: RecursionError: ")
        assert len(result.stderr.splitlines()) == 1


class TestModuleInvocation:
    def test_runs_as_module(self, golden_argv):
        result = subprocess.run(
            [sys.executable, "-m", "tagweaver.cli", "check", *golden_argv],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == ""
