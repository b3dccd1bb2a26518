"""tagweaver: tag models, tag schemas, and conformance checking for DSLs.

The package turns a compact grammar manifest of some DSL into the
language support needed to tag that DSL's models externally: identifier
forms for referencing model elements, scope keywords for schemas, parsers
for tag and schema files, a conformance checker, and a JSON exporter.

The public names below are loaded on first use (PEP 562), so importing
the package, or running one CLI subcommand, loads only the modules that
are actually used.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "conformance": (
        "Attachment",
        "CheckInput",
        "NormalizedValue",
        "check",
        "check_value_domain",
    ),
    "derivation": (
        "DerivationError",
        "IdentifierKind",
        "IdentifierRule",
        "LanguageProfile",
        "ScopeKeyword",
        "derive_profile",
        "profile_to_json",
        "render_derived_grammar",
    ),
    "diagnostics": ("Condition", "Diagnostic", "Severity", "format_diagnostic", "has_errors"),
    "elements": ("ElementHandle", "normalize_expression", "resolve_element"),
    "errors": ("ParseError", "ResolutionError", "TagweaverError", "WorkspaceError"),
    "manifest": (
        "GrammarManifest",
        "Production",
        "RhsRef",
        "parse_manifest",
        "pretty_print_manifest",
    ),
    "statechart": (
        "StatechartModel",
        "enumerate_elements",
        "parse_statechart",
        "pretty_print_statechart",
    ),
    "tagmodel": (
        "Context",
        "ElementIdentifier",
        "TagModel",
        "TagStatement",
        "TagUse",
        "TagValue",
        "parse_tag_model",
        "pretty_print_tag_model",
    ),
    "tagschema": (
        "Cardinality",
        "DomainSpec",
        "Reference",
        "ScopeSpec",
        "TagSchema",
        "TagTypeDef",
        "parse_tag_schema",
        "pretty_print_tag_schema",
        "validate_schema_well_formedness",
    ),
    "workspace": (
        "LoadedWorkspace",
        "Workspace",
        "build_export_report",
        "check_workspace",
        "load_workspace",
        "render_export_report",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
