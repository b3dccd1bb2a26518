"""Diagnostic records produced by the checking and validation passes."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Severity", "Diagnostic", "has_errors", "reporter", "format_diagnostic"]


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding, tied to a condition identifier and a source location."""

    condition: str
    severity: Severity
    message: str
    file: str | None = field(default=None, compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def reporter(diags: list[Diagnostic], file: str | None) -> Callable[..., None]:
    """Return ``report(condition, message, line, col, severity=ERROR)``.

    Each call appends one :class:`Diagnostic` in ``file`` to ``diags``.  An
    ``Enum`` condition is stored as its plain string value.
    """

    def report(condition: str | Enum, message: str, line: int, col: int,
               severity: Severity = Severity.ERROR) -> None:
        if isinstance(condition, Enum):
            condition = condition.value
        diags.append(Diagnostic(condition, severity, message, file, line, col))

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
