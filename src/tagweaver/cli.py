"""Command-line interface.

Three subcommands::

    tagweaver check  --manifest G.glang --model M.sc --schema S.tagschema --tags T.tag
    tagweaver derive --manifest G.glang [--out DIR]
    tagweaver export --manifest G.glang --model M.sc --schema S.tagschema \\
                     --tags T.tag [--out FILE]

Exit codes: 0 when checking found no errors (warnings are fine), 1 when
at least one error diagnostic was reported (or an export was refused
because of one), 2 for unusable input — unreadable or non-UTF-8 files,
parse errors, an ill-formed manifest, model or schema, unresolvable
references, bad usage — and 3 for an internal error: any other
exception, reported as one ``error: internal error:`` line on stderr
without a traceback, so that a crash never reads as a verdict.  An
ill-formed file is refused with one ``error: <kind> '<name>' is not
well-formed`` line on stderr, followed by every finding of that file;
ill-formed models and schemas are named together in one such line
(``model 'a' and schema 'b' are not well-formed``).

``--format json`` switches diagnostic output to a machine-readable JSON
document, also for the findings of a refused file.  The
``TAGWEAVER_COLOR`` environment variable forces ANSI colors on (``1``)
or off (``0``); the default follows whether stdout is a terminal.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .derivation import DerivationError, derive_profile, profile_to_json, render_derived_grammar
from .diagnostics import Diagnostic, Severity, format_diagnostic, has_errors, require_well_formed
from .errors import ParseError, WorkspaceError
from .manifest import parse_manifest
from .parsing import read_source

# ``check`` and ``export`` import the workspace pipeline when they run, so
# that ``derive`` loads none of it.
if TYPE_CHECKING:
    from .workspace import LoadedWorkspace

__all__ = ["build_arg_parser", "run_cli", "main"]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagweaver",
        description="Check, derive, and export tag models for DSL models.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_workspace_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--manifest", required=True, type=Path,
                         help="grammar manifest (.glang) of the target DSL")
        sub.add_argument("--model", action="append", required=True, type=Path,
                         help="model file (.sc); repeatable")
        sub.add_argument("--schema", action="append", required=True, type=Path,
                         help="tag schema file (.tagschema); repeatable")
        sub.add_argument("--tags", action="append", required=True, type=Path,
                         help="tag model file (.tag); repeatable")

    check_cmd = subparsers.add_parser("check", help="check tag models for conformance")
    add_workspace_flags(check_cmd)
    check_cmd.add_argument("--format", choices=("text", "json"), default="text",
                           help="diagnostic output format (default: text)")
    check_cmd.set_defaults(handler=_cmd_check)

    derive_cmd = subparsers.add_parser(
        "derive", help="derive tagging support from a grammar manifest"
    )
    derive_cmd.add_argument("--manifest", required=True, type=Path,
                            help="grammar manifest (.glang)")
    derive_cmd.add_argument("--out", type=Path, default=None,
                            help="directory for the .profile.json (default: next to the manifest)")
    derive_cmd.set_defaults(handler=_cmd_derive)

    export_cmd = subparsers.add_parser(
        "export", help="export resolved attachments as JSON"
    )
    add_workspace_flags(export_cmd)
    export_cmd.add_argument("--out", type=Path, default=None,
                            help="output file (default: stdout)")
    export_cmd.add_argument("--format", choices=("text", "json"), default="text",
                            help="diagnostic output format (default: text)")
    export_cmd.set_defaults(handler=_cmd_export)

    return parser


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _use_color(stream) -> bool:
    env = os.environ.get("TAGWEAVER_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return bool(getattr(stream, "isatty", lambda: False)())


def _emit_diagnostics(diags: list[Diagnostic], fmt: str, stream) -> None:
    if fmt == "json":
        payload = {
            "diagnostics": [
                {
                    "file": d.file,
                    "line": d.line,
                    "col": d.col,
                    "severity": d.severity.value,
                    "condition": d.condition,
                    "message": d.message,
                }
                for d in diags
            ],
            "errors": sum(1 for d in diags if d.severity is Severity.ERROR),
            "warnings": sum(1 for d in diags if d.severity is Severity.WARNING),
        }
        print(json.dumps(payload, indent=2), file=stream)
        return
    color = _use_color(stream)
    for diag in diags:
        print(format_diagnostic(diag, color=color), file=stream)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_workspace(args: argparse.Namespace) -> LoadedWorkspace:
    from .workspace import Workspace, load_workspace

    return load_workspace(Workspace(
        manifest_file=args.manifest,
        model_files=tuple(args.model),
        schema_files=tuple(args.schema),
        tag_files=tuple(args.tags),
    ))


def _cmd_check(args: argparse.Namespace) -> int:
    from .workspace import check_workspace

    diags, _ = check_workspace(_load_workspace(args))
    _emit_diagnostics(diags, args.format, sys.stdout)
    return 1 if has_errors(diags) else 0


def _cmd_derive(args: argparse.Namespace) -> int:
    manifest = parse_manifest(read_source(args.manifest), filename=str(args.manifest))
    require_well_formed(("manifest", manifest.grammar_name, manifest.findings))
    profile = derive_profile(manifest)
    out_dir = args.out if args.out is not None else args.manifest.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    profile_path = out_dir / f"{manifest.grammar_name}.profile.json"
    profile_path.write_text(profile_to_json(profile), encoding="utf-8")
    sys.stdout.write(render_derived_grammar(profile))
    print(f"wrote {profile_path}", file=sys.stderr)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .workspace import build_export_report, render_export_report

    diags, report = build_export_report(_load_workspace(args))
    # Diagnostics go to stderr so stdout stays valid JSON.
    _emit_diagnostics(diags, args.format, sys.stderr)
    if report is None:
        print("export refused: the workspace has errors", file=sys.stderr)
        return 1
    text = render_export_report(report)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except WorkspaceError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        if exc.diagnostics:
            # Text stays under the header; a JSON payload goes where the
            # subcommand prints its diagnostics, so stdout stays one format.
            fmt = getattr(args, "format", "text")
            stream = sys.stdout if fmt == "json" and args.command == "check" else sys.stderr
            _emit_diagnostics(exc.diagnostics, fmt, stream)
        return 2
    except (ParseError, DerivationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    # A one-shot process keeps everything it builds until exit, so cyclic
    # collection would only walk live objects.  ``run_cli`` leaves the
    # collector alone for library and in-process callers.
    gc.disable()
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
