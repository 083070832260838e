"""Source positions and compiler diagnostics.

All user-facing problems are reported as ``Diagnostic`` records rendered as
``<file>:<line>:<col>: <severity>[<code>]: <message>``.  Frontend failures
(lexing, parsing) abort via ``CompileError``; semantic analysis collects
diagnostics without aborting so one pass reports everything.  ``Span`` and
``Diagnostic`` are immutable by convention, like the syntax tree.
``collector_paused`` runs a compiler stage without Python's cyclic garbage
collector.
"""

from __future__ import annotations

import functools
import gc
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


def collector_paused(stage):
    """Wrap a compiler stage so that it runs with Python's cyclic garbage
    collector paused, and the caller's collector state is restored on exit.

    Checking and lowering allocate tens of thousands of small objects that
    form no reference cycle, so a collection during them frees nothing, yet
    the older generations' collections walk every live container, scenarios
    compiled earlier included.  A compiled scenario holds no cycle either,
    so dropping it frees it at once.

    On exit the stage runs the one collection that the collector would
    start next: that of the oldest generation whose count exceeds its
    threshold, counting each young collection the pause skipped toward the
    middle generation, or else that of the youngest.  Left to the
    collector, it would land in the first tick; skipped, the older
    generations would seldom be collected in a process that allocates
    mostly inside stages, and the caller's own cyclic garbage would wait
    there.  What the pause saves is the many collections in between, the
    full ones above all.  (CPython also postpones a due full collection
    while few objects wait for one, a figure Python does not expose.)

    A caller that disabled the collector finds it still disabled, and a
    paused stage called from another one leaves both to the outer one.
    """
    @functools.wraps(stage)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return stage(*args, **kwargs)
        gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            count, threshold = gc.get_count(), gc.get_threshold()
            young = count[0] // (threshold[0] + 1)  # collections skipped
            gc.collect(2 if count[2] > threshold[2] else
                       1 if count[1] + young > threshold[1] else 0)
            gc.enable()
    return paused
