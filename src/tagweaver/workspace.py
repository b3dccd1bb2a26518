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

Attachments are ordered by element path, tag type, schema and the value's
canonical text; full ties keep the order of the tag models as given.  So equal
inputs give byte-identical reports, and exporting several tag models equals
concatenating their separate exports, in that order, and re-sorting stably.
:func:`render_export_report` writes it as ``json.dumps(report, indent=2)``
does: one templated block per attachment, each distinct value's text once;
a report not of that shape goes to ``render_json`` whole.
"""

from __future__ import annotations

import gc
import json
from functools import wraps
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .conformance import CheckInput, NormalizedValue, ResolvedTagging, check
from .derivation import LanguageProfile, derive_profile
from .diagnostics import Diagnostic, has_errors, render_json, require_well_formed
from .errors import WorkspaceError
from .manifest import GrammarManifest, parse_manifest
from .parsing import read_source
from .records import record
from .statechart import PRODUCTIONS, StatechartModel, parse_statechart
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


def _gc_paused(fn):
    # Runs ``fn`` with the cyclic collector paused, then leaves it as the caller
    # had it: a batch call keeps what it builds until it returns, so a
    # collection during it would only walk live objects.
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


@_gc_paused
def load_workspace(ws: Workspace) -> LoadedWorkspace:
    """Read and parse every file of the workspace.

    Raises :class:`~tagweaver.errors.ParseError` on malformed files,
    :class:`WorkspaceError` when the manifest has an error finding or does
    not fit the statechart parser, when models or schemas do (one refusal
    names all of them, after every model and schema is parsed) or when two
    files share a qualified name, and propagates ``OSError`` for unreadable
    paths.  Models and schemas keep their warnings as ``findings`` for
    :func:`check_workspace`.
    """

    manifest = parse_manifest(read_source(ws.manifest_file), filename=str(ws.manifest_file))
    # Refused before derivation, which would report a duplicate production
    # again as a scope keyword derived twice.
    require_well_formed(("manifest", manifest.grammar_name, manifest.findings))
    profile = derive_profile(manifest)
    _require_fit(manifest, profile)

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


def _require_fit(manifest: GrammarManifest, profile: LanguageProfile) -> None:
    """Refuse a manifest that does not declare what the statechart parser files, as it files it."""

    misfits = []
    for name, labels in PRODUCTIONS.items():
        prod, rule = manifest.production(name), profile.identifier_rule(name)
        if prod is None:
            misfits.append(f"it declares no production '{name}'")
        elif prod.skipped:
            continue
        elif prod.name_identifiable != (labels is None):
            misfits.append(f"production '{name}' is {'' if prod.name_identifiable else 'not '}@named")
        elif rule.sketch_literals() and labels == ():
            literals = ", ".join(map(repr, rule.sketch_literals()))
            misfits.append(f"the sketch of '{name}' has literals {literals}, but its elements have "
                           "no parts and are named by their text")
        elif rule.sketch_literals() and sorted(rule.slot_labels) != sorted(labels):
            words = ", ".join(map(repr, rule.slot_labels)) or "none"
            parts = ", ".join(map(repr, labels)) or "none"
            misfits.append(f"the sketch of '{name}' labels {words}, but its parts are {parts}")
    if misfits:
        grammar = manifest.grammar_name
        raise WorkspaceError(f"manifest '{grammar}' does not fit the statechart parser: " + "; ".join(misfits))


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


@_gc_paused
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


@_gc_paused
def build_export_report(loaded: LoadedWorkspace) -> tuple[list[Diagnostic], dict | None]:
    """Check the workspace and assemble the export payload.

    Returns the diagnostics plus the JSON-ready report, or ``None`` in
    place of the report when any check produced an error.  All tag models
    must share one target model.  Attachments with equal values share one
    ``value`` dict, so a caller copies a value before it mutates it.

    Attachments sort by element path, tag type, schema and the value's canonical text
    (made only for records tied on the first three), full ties in checking order.
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

    # Equal values (their hash is cached) are serialized once.  The key puts
    # content first so that merged exports equal re-sorted concatenations.
    # One tuple per record sorts on path, tag type and schema, then on the
    # attachment's index (which keeps the records themselves out of the
    # comparison); then each run tied on the first three is re-sorted,
    # stably, by its values' canonical text.
    forms = _ValueForms()
    records = sorted(
        (att.element.path, att.tag_type, att.schema, i, att, forms[att.value])
        for i, att in enumerate(att for tagging in resolved for att in tagging.attachments)
    )
    start = 0
    for end in range(1, len(records) + 1):
        if end == len(records) or records[end][:3] != records[start][:3]:
            if end - start > 1:
                records[start:end] = sorted(records[start:end],
                                            key=lambda r: json.dumps(r[-1], sort_keys=True))
            start = end

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
            for *_, att, value in records
        ],
    }
    return diags, report


class _ValueForms(dict):
    """Each distinct value's JSON dict, made on its first lookup (its canonical text is not)."""

    def __missing__(self, value: NormalizedValue) -> dict:
        self[value] = as_json = value_to_json(value)
        return as_json


def value_to_json(value: NormalizedValue) -> dict:
    """Serialize a normalized value with its ``kind`` discriminator, in the forms the export writer knows."""

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


_BLOCK = ('%s{\n      "elementPath": %s,\n      "elementType": %s,\n      "tagType": %s,'
          '\n      "schema": %s,\n      "value": ')
_FIELDS = ["elementPath", "elementType", "tagType", "schema", "value"]
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: lambda b: "true" if b else "false"}


def render_export_report(report) -> str:
    """``json.dumps(report, indent=2)`` and a newline, written from the shape of an export report.

    Each attachment is one block at its fixed indent; each distinct value dict (by ``id``) is
    one piece, written once.  At the first member not of that shape (a ``TypeError``, as the
    encoder raises for a field that is not a string), the whole report goes to ``render_json``,
    so any input renders, or raises ``TypeError``, as it would.
    """

    try:
        if report.__class__ is not dict or list(report) != ["targetModel", "attachments"]:
            raise TypeError
        attachments = report["attachments"]
        if attachments.__class__ is not list:
            raise TypeError
        out = ['{\n  "targetModel": ', encode_basestring_ascii(report["targetModel"])]
        texts: dict[int, str] = {}
        sep = ',\n  "attachments": [\n    '
        for att in attachments:
            if att.__class__ is not dict or list(att) != _FIELDS:
                raise TypeError
            path, element_type, tag_type, schema, value = att.values()
            out.append(_BLOCK % (sep, encode_basestring_ascii(path), encode_basestring_ascii(element_type),
                                 encode_basestring_ascii(tag_type), encode_basestring_ascii(schema)))
            if id(value) not in texts:
                texts[id(value)] = _value_text(value, "\n      ")
            out += (texts[id(value)], "\n    }")
            sep = ",\n    "
    except TypeError:
        return render_json(report)
    out.append("\n  ]\n}\n" if attachments else ',\n  "attachments": []\n}\n')
    return "".join(out)


def _value_text(value, indent: str) -> str:
    # ``value`` at ``indent`` as ``render_json`` writes it, from the forms of
    # ``value_to_json``; ``TypeError`` for any other object.
    keys = list(value) if value.__class__ is dict else None
    if not keys or keys[0] != "kind":
        raise TypeError
    inner = indent + "  "
    head = f'{{{inner}"kind": {encode_basestring_ascii(value["kind"])}'
    if keys == ["kind"]:
        return f"{head}{indent}}}"
    payload = value[keys[1]]
    if keys == ["kind", "value"] and payload.__class__ in _SCALARS:
        return f'{head},{inner}"value": {_SCALARS[payload.__class__](payload)}{indent}}}'
    if keys != ["kind", "subtags"] or payload.__class__ is not list:
        raise TypeError
    item, member = inner + "  ", inner + "    "
    subtags = []
    for sub in payload:
        if sub.__class__ is not dict or list(sub) != ["name", "value"]:
            raise TypeError
        subtags.append(f'{item}{{{member}"name": {encode_basestring_ascii(sub["name"])},'
                       f'{member}"value": {_value_text(sub["value"], member)}{item}}}')
    body = f'{",".join(subtags)}{inner}]' if subtags else "]"
    return f'{head},{inner}"subtags": [{body}{indent}}}'
