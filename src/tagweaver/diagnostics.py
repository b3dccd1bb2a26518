"""Diagnostic records produced by the checking and validation passes."""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum

# The C string escaper of ``json.dumps`` (CPython's accelerator module):
# importing it alone keeps the ``json`` package, and its import time, out
# of a process that needs nothing else of it, such as ``derive``.
from _json import encode_basestring_ascii

from .errors import WorkspaceError
from .records import field, record

__all__ = ["Condition", "Severity", "Diagnostic", "has_errors", "require_well_formed",
           "reporter", "format_diagnostic", "render_json"]


class Condition(str, Enum):
    """Identifiers for everything the checker and the validators can report."""

    # Conformance of a tag model (``conformance.check``).
    E1_UNRESOLVED_ELEMENT = "E1"
    E2_DUPLICATE_TAG_TYPE_NAME = "E2"
    E3_1_UNKNOWN_TAG_TYPE = "E3_1"
    E3_2_SCOPE_MISMATCH = "E3_2"
    E3_3_DOMAIN_MISMATCH = "E3_3"
    PRIVATE_TOP_LEVEL_USE = "PrivateTopLevelUse"
    CARDINALITY_VIOLATION = "CardinalityViolation"
    UNKNOWN_SUBTAG_NAME = "UnknownSubtagName"
    DUPLICATE_TAG_WARNING = "DuplicateTagWarning"
    # Well-formedness of a grammar manifest (``manifest``).
    DUPLICATE_PRODUCTION = "DuplicateProduction"
    UNKNOWN_NONTERMINAL_REFERENCE = "UnknownNonterminalReference"
    UNLABELLED_REPEATED_NONTERMINAL = "UnlabelledRepeatedNonterminal"
    DUPLICATE_PRECEDING_IDENTIFIER = "DuplicatePrecedingIdentifier"
    # Well-formedness of a tag schema (``tagschema``).
    DUPLICATE_TAG_TYPE_NAME = "DuplicateTagTypeName"
    DUPLICATE_ENUM_VALUE = "DuplicateEnumValue"
    DUPLICATE_REFERENCE_NAME = "DuplicateReferenceName"
    UNKNOWN_SCOPE_KEYWORD = "UnknownScopeKeyword"
    SCOPE_ADMITS_NO_ELEMENT = "ScopeAdmitsNoElement"
    UNRESOLVED_NAMED_REFERENCE = "UnresolvedNamedReference"
    RECURSIVE_REQUIRED_REFERENCE = "RecursiveRequiredReference"
    # Well-formedness of a model (``statechart``).
    DUPLICATE_SIBLING_STATE = "DuplicateSiblingState"
    UNRESOLVED_TRANSITION_ENDPOINT = "UnresolvedTransitionEndpoint"
    DUPLICATE_TRANSITION = "DuplicateTransition"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@record
class Diagnostic:
    """One finding, tied to a condition identifier and a source location.

    ``condition`` is the plain string value of a :class:`Condition`.
    """

    condition: str
    severity: Severity
    message: str
    file: str | None = field(default=None, compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def require_well_formed(*files: tuple[str, str, tuple[Diagnostic, ...]]) -> None:
    """Refuse the ``(kind, name, findings)`` files whose findings hold an error.

    One refusal names each such file and lists all their findings, file by file.
    """

    refused = [(kind, name, findings) for kind, name, findings in files if has_errors(findings)]
    if refused:
        names = [f"{kind} '{name}'" for kind, name, _ in refused]
        if len(names) == 1:
            header = f"{names[0]} is not well-formed"
        else:
            header = f"{', '.join(names[:-1])} and {names[-1]} are not well-formed"
        raise WorkspaceError(header, [d for *_, findings in refused for d in findings])


def reporter(diags: list[Diagnostic], file: str | None) -> Callable[..., None]:
    """Return ``report(condition, message, line, col, severity=ERROR)``.

    Each call appends one :class:`Diagnostic` in ``file`` to ``diags``.
    """

    def report(condition: Condition, message: str, line: int, col: int,
               severity: Severity = Severity.ERROR) -> None:
        diags.append(Diagnostic(condition.value, severity, message, file, line, col))

    return report


_COLORS = {Severity.ERROR: "\x1b[31m", Severity.WARNING: "\x1b[33m"}
_RESET = "\x1b[0m"


def format_diagnostic(diag: Diagnostic, color: bool = False) -> str:
    """Render ``file:line:col: severity[condition]: message``."""

    prefix = diag.file if diag.file is not None else "<input>"
    label = f"{diag.severity.value}[{diag.condition}]"
    if color:
        label = f"{_COLORS[diag.severity]}{label}{_RESET}"
    return f"{prefix}:{diag.line}:{diag.col}: {label}: {diag.message}"


def render_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` and a newline, byte for byte, from one list joined once.

    Every container appends its pieces to that list, so no level copies the
    text below it.  A container met twice is written twice: the export, whose
    attachments share value dicts, is written by ``workspace.render_export_report``,
    which keeps each shared value's text and hands a report not of the export's
    shape to this function whole.
    """

    out = _render_json(obj, "\n", [])
    out.append("\n")
    return "".join(out)


def _render_json(obj, indent: str, out: list[str]) -> list[str]:
    # ``indent`` is the newline plus the indentation of ``obj``'s own line.  Returns ``out``.
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        inner = indent + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if value.__class__ is str:
                out.append(sep + encode_basestring_ascii(key) + ": " + encode_basestring_ascii(value))
            else:
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _render_json(value, inner, out)
            sep = "," + inner
        out.append(indent + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = indent + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _render_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return out
