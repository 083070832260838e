"""Source positions and compiler diagnostics.

All user-facing problems are reported as ``Diagnostic`` records rendered as
``<file>:<line>:<col>: <severity>[<code>]: <message>``.  Frontend failures
(lexing, parsing) abort via ``CompileError``; semantic analysis collects
diagnostics without aborting so one pass reports everything.  ``Span`` and
``Diagnostic`` are immutable by convention, like the syntax tree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    """Half-open source region, 1-based line/column, end column exclusive."""

    line: int
    col: int
    end_line: int
    end_col: int

    @staticmethod
    def point(line: int, col: int) -> "Span":
        return Span(line, col, line, col + 1)

    def to(self, other: "Span") -> "Span":
        """Smallest span covering self through other."""
        return Span(self.line, self.col, other.end_line, other.end_col)


ERROR = "error"
WARNING = "warning"


@dataclass(slots=True)
class Diagnostic:
    severity: str
    code: str
    message: str
    span: Span
    filename: str = "<string>"

    def render(self) -> str:
        return (f"{self.filename}:{self.span.line}:{self.span.col}: "
                f"{self.severity}[{self.code}]: {self.message}")


class CompileError(Exception):
    """Aborting frontend failure carrying a single diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic
