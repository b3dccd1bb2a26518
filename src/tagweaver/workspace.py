"""Multi-file workspaces: loading, cross-file lookup, and export reports.

A workspace bundles the files one checking or export run works on: one
grammar manifest, plus any number of model, tag, and schema files.
References between files use qualified names — ``loggingschema.Schema``
finds the schema file whose package is ``loggingschema`` and whose
declared name is ``Schema``.  Unqualified references default to the
referencing file's own package.

The export report is a JSON document listing every resolved attachment::

    {
      "targetModel": "mobile.Mobile",
      "attachments": [
        {
          "elementPath": "Active",
          "elementType": "State",
          "tagType": "Monitored",
          "schema": "loggingschema.StatechartTagSchema",
          "value": {"kind": "flag"}
        }
      ]
    }

Attachments are ordered by element path, then tag type, then the
remaining record content, then source position, so identical inputs
produce byte-identical reports and exporting several tag models together
equals concatenating their separate exports and re-sorting.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

from .conformance import Attachment, CheckInput, NormalizedValue, ResolvedTagging, check
from .derivation import LanguageProfile, derive_profile
from .diagnostics import Diagnostic, has_errors, require_well_formed
from .errors import WorkspaceError
from .manifest import GrammarManifest, parse_manifest
from .parsing import read_source
from .records import record
from .statechart import StatechartModel, parse_statechart
from .tagmodel import TagModel, parse_tag_model, qualify
from .tagschema import TagSchema, parse_tag_schema

__all__ = [
    "Workspace",
    "LoadedWorkspace",
    "WorkspaceError",
    "load_workspace",
    "check_workspace",
    "build_export_report",
    "render_export_report",
    "value_to_json",
]


@record
class Workspace:
    manifest_file: Path
    model_files: tuple[Path, ...] = ()
    tag_files: tuple[Path, ...] = ()
    schema_files: tuple[Path, ...] = ()


@record
class LoadedWorkspace:
    manifest: GrammarManifest
    profile: LanguageProfile
    models: tuple[StatechartModel, ...]
    schemas: tuple[TagSchema, ...]
    tag_models: tuple[TagModel, ...]

    def find_model(self, ref: str, default_package: str) -> StatechartModel:
        return _find_named("model", self.models, qualify(ref, default_package))

    def find_schema(self, ref: str, default_package: str) -> TagSchema:
        return _find_named("schema", self.schemas, qualify(ref, default_package))


def _find_named(kind: str, candidates: tuple, qualified: str):
    for candidate in candidates:
        if candidate.qualified_name == qualified:
            return candidate
    available = ", ".join(c.qualified_name for c in candidates) or "none"
    raise WorkspaceError(
        f"no {kind} named '{qualified}' in the workspace (available: {available})"
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def load_workspace(ws: Workspace) -> LoadedWorkspace:
    """Read and parse every file of the workspace.

    Raises :class:`~tagweaver.errors.ParseError` on malformed files,
    :class:`WorkspaceError` when the manifest has an error finding, when
    models or schemas do (one refusal names all of them, after every model
    and schema is parsed) or when two files share a qualified name, and
    propagates ``OSError`` for unreadable paths.  Models and schemas keep
    their warnings as ``findings`` for :func:`check_workspace`.
    """

    manifest = parse_manifest(read_source(ws.manifest_file), filename=str(ws.manifest_file))
    # Refused before derivation, which would report a duplicate production
    # again as a scope keyword derived twice.
    require_well_formed(("manifest", manifest.grammar_name, manifest.findings))
    profile = derive_profile(manifest)

    models = tuple(
        parse_statechart(read_source(path), filename=str(path)) for path in ws.model_files
    )
    schemas = tuple(
        parse_tag_schema(read_source(path), profile, filename=str(path)) for path in ws.schema_files
    )
    _require_sound([("model", m) for m in models] + [("schema", s) for s in schemas])
    tag_models = tuple(
        parse_tag_model(read_source(path), profile, filename=str(path)) for path in ws.tag_files
    )

    return LoadedWorkspace(
        manifest=manifest,
        profile=profile,
        models=models,
        schemas=schemas,
        tag_models=tag_models,
    )


def _require_sound(files: list[tuple[str, StatechartModel | TagSchema]]) -> None:
    """Refuse every ill-formed model and schema at once, then a name taken twice."""

    require_well_formed(*((kind, item.qualified_name, item.findings) for kind, item in files))
    seen: dict[tuple[str, str], str | None] = {}
    for kind, item in files:
        key = (kind, item.qualified_name)
        if key in seen:
            raise WorkspaceError(
                f"{kind} '{key[1]}' is defined by both {seen[key]} and {item.source_name}"
            )
        seen[key] = item.source_name


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_workspace(
    loaded: LoadedWorkspace,
) -> tuple[list[Diagnostic], list[ResolvedTagging]]:
    """Check every tag model against its own target, after the model and schema findings."""

    diags = [finding for model in loaded.models for finding in model.findings]
    diags.extend(finding for schema in loaded.schemas for finding in schema.findings)
    resolved: list[ResolvedTagging] = []
    for tag_model in loaded.tag_models:
        target = loaded.find_model(tag_model.target_model, tag_model.package)
        schemas = tuple(
            loaded.find_schema(ref, tag_model.package) for ref in tag_model.conforms_to
        )
        model_diags, tagging = check(
            CheckInput(tag_model=tag_model, target=target, schemas=schemas, profile=loaded.profile)
        )
        diags.extend(model_diags)
        if tagging is not None:
            resolved.append(tagging)
    return diags, resolved


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def build_export_report(loaded: LoadedWorkspace) -> tuple[list[Diagnostic], dict | None]:
    """Check the workspace and assemble the export payload.

    Returns the diagnostics plus the JSON-ready report, or ``None`` in
    place of the report when any check produced an error.  All tag models
    must share one target model.
    """

    targets = {
        qualify(tm.target_model, tm.package) for tm in loaded.tag_models
    }
    if len(targets) > 1:
        raise WorkspaceError(
            "export needs a single target model, but the tag models reference: "
            + ", ".join(sorted(targets))
        )

    diags, resolved = check_workspace(loaded)
    if has_errors(diags):
        return diags, None

    # Each value is serialized once, for both the sort key and the report.
    records: list[tuple[tuple, Attachment, dict]] = []
    for tagging in resolved:
        for att in tagging.attachments:
            value = value_to_json(att.value)
            records.append((_attachment_sort_key(att, value), att, value))
    records.sort(key=itemgetter(0))

    target_name = next(iter(targets)) if targets else ""
    report = {
        "targetModel": target_name,
        "attachments": [
            {
                "elementPath": att.element.path,
                "elementType": att.element.element_type,
                "tagType": att.tag_type,
                "schema": att.schema,
                "value": value,
            }
            for _, att, value in records
        ],
    }
    return diags, report


def _attachment_sort_key(att: Attachment, value: dict) -> tuple:
    # Content first so that merged exports equal re-sorted concatenations;
    # source position only breaks ties between truly identical records.
    return (
        att.element.path,
        att.tag_type,
        att.schema,
        json.dumps(value, sort_keys=True),
        att.file or "",
        att.line,
        att.col,
    )


def value_to_json(value: NormalizedValue) -> dict:
    """Serialize a normalized value with its ``kind`` discriminator."""

    if value.kind == "flag":
        return {"kind": "flag"}
    if value.kind == "complex":
        return {
            "kind": "complex",
            "subtags": [
                {"name": name, "value": value_to_json(child)}
                for name, child in value.children
            ],
        }
    return {"kind": value.kind, "value": value.value}


def render_export_report(report: dict) -> str:
    """Serialize the report deterministically (stable order, 2-space indent).

    The text is byte for byte that of ``json.dumps(report, indent=2)`` plus
    a final newline.  With ``indent`` set, ``json`` falls back to its
    pure-Python encoder, which yields every token separately; the writer
    below joins each container once instead.
    """

    return _render_json(report, "\n") + "\n"


def _render_json(obj, indent: str) -> str:
    # ``indent`` is the newline plus the indentation of ``obj``'s own line.
    # Strings go through the C escaper that ``json.dumps`` itself uses.
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        members = [
            encode_basestring_ascii(key) + ": " + _render_json(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_render_json(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
