"""Common error types shared across the tagweaver parsers and tools."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .diagnostics import Diagnostic


class TagweaverError(Exception):
    """Base class for every error raised by this package."""


class ParseError(TagweaverError):
    """A syntactic or structural problem in an input file.

    Carries a 1-based line/column pair and an optional file name so the
    message can be rendered in the usual ``file:line:col: message`` shape.
    """

    def __init__(self, message: str, line: int, col: int, filename: str | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename

    def __str__(self) -> str:
        prefix = self.filename if self.filename is not None else "<input>"
        return f"{prefix}:{self.line}:{self.col}: {self.message}"


class ResolutionError(TagweaverError):
    """An identifier that does not denote a unique model element."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class WorkspaceError(TagweaverError):
    """A workspace-level problem: an ill-formed file, a missing reference, etc.

    ``diagnostics`` holds every finding of each refused file.  Defined here
    rather than in :mod:`tagweaver.workspace`, which re-exports it, so that
    the CLI can catch it without loading the workspace pipeline.
    """

    def __init__(self, message: str, diagnostics: list[Diagnostic] | None = None):
        super().__init__(message)
        self.message = message
        self.diagnostics = diagnostics or []
