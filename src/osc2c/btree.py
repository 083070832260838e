"""Behavior-tree execution substrate.

Trees are ticked once per simulation step in depth-first, left-to-right
order; same-tick event visibility follows that traversal order.  A node
that returns Success or Failure latches: re-ticking returns the same
status with no side effects.  OneOf halts losing siblings, and a failing
Parallel its unfinished children, so they stop mutating the blackboard or
world.

Timers convert durations to whole ticks with ``required_ticks`` so
threshold comparisons never depend on float round-off at the boundary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .diagnostics import Span


class Status(enum.Enum):
    RUNNING = "Running"
    SUCCESS = "Success"
    FAILURE = "Failure"


RUNNING = Status.RUNNING
SUCCESS = Status.SUCCESS
FAILURE = Status.FAILURE


class ArbitrationFault(RuntimeError):
    """Two leaves commanded one actor's motion in the same tick."""


class Blackboard:
    """Latched event store plus per-tick motion arbitration slots."""

    def __init__(self):
        self.events: dict[str, int] = {}  # name -> first-emission tick
        self.emissions: list[tuple[str, bool]] = []  # this tick's emits
        # actor -> (tick, claimant token) of the last motion claim
        self._claims: dict[str, tuple[int, object]] = {}

    def begin_tick(self, now: int) -> None:
        self.emissions.clear()

    def emit(self, name: str, now: int) -> None:
        first = name not in self.events
        if first:
            self.events[name] = now
        self.emissions.append((name, first))

    def has(self, name: str) -> bool:
        return name in self.events

    def claim_motion(self, actor: str, claimant: object, now: int) -> None:
        """Claim an actor's motion for tick `now`.

        `claimant` is a token that identifies the commander by identity.
        The table keeps it, so it must not be the commander itself: a
        commander that holds this blackboard would then close a reference
        cycle, and only a full collection could free the tree.
        """
        held = self._claims.get(actor)
        if held is not None and held[0] == now and held[1] is not claimant:
            raise ArbitrationFault(
                f"motion of actor '{actor}' commanded by two behaviors "
                f"in tick {now}")
        self._claims[actor] = (now, claimant)

    def release_motion(self, actor: str, claimant: object) -> None:
        """Drop a claim when its holder finishes or is halted, so a successor
        behavior may command the same actor within the same tick."""
        held = self._claims.get(actor)
        if held is not None and held[1] is claimant:
            del self._claims[actor]


@dataclass
class TickContext:
    """Minimal context a bare tree needs; the runtime supplies a richer one."""

    blackboard: Blackboard = field(default_factory=Blackboard)
    now: int = 0
    dt: float = 0.05


def required_ticks(duration: float, dt: float) -> int:
    """Whole ticks needed for `duration` of simulated time at step dt."""
    return max(0, math.ceil(duration / dt - 1e-9))


class BtNode:
    def __init__(self, label: str | None = None, span: Span | None = None):
        self.label = label
        self.span = span
        self._status: Status | None = None
        self._halted = False

    @property
    def status(self) -> Status | None:
        return self._status

    @property
    def halted(self) -> bool:
        return self._halted

    def tick(self, ctx) -> Status:
        status = self._status
        if self._halted:
            return status if status is not None else RUNNING
        if status is SUCCESS or status is FAILURE:
            return status
        status = self._tick(ctx)
        self._status = status
        return status

    def _tick(self, ctx) -> Status:
        raise NotImplementedError

    def children(self) -> tuple["BtNode", ...]:
        return ()

    def halt(self) -> None:
        self._halted = True
        for child in self.children():
            child.halt()


class Sequence(BtNode):
    """Children in order; advances to the next child within the same tick."""

    def __init__(self, children, **kw):
        super().__init__(**kw)
        self._children = tuple(children)
        self.cursor = 0

    def children(self):
        return self._children

    def _tick(self, ctx) -> Status:
        children = self._children
        cursor = self.cursor
        while cursor < len(children):
            status = children[cursor].tick(ctx)
            if status is not SUCCESS:
                return status
            cursor = self.cursor = cursor + 1
        return SUCCESS


class Parallel(BtNode):
    """All children must succeed; any failure fails the composite."""

    def __init__(self, children, **kw):
        super().__init__(**kw)
        self._children = tuple(children)

    def children(self):
        return self._children

    def _tick(self, ctx) -> Status:
        failed = False
        done = True
        for child in self._children:
            if child._status is SUCCESS:
                continue
            status = child.tick(ctx)
            if status is FAILURE:
                failed = True
            elif status is RUNNING:
                done = False
        if failed:
            for child in self._children:
                if child._status is not SUCCESS:
                    child.halt()
            return FAILURE
        return SUCCESS if done else RUNNING


class OneOf(BtNode):
    """First child to succeed wins; the running siblings are halted."""

    def __init__(self, children, **kw):
        super().__init__(**kw)
        self._children = tuple(children)

    def children(self):
        return self._children

    def _tick(self, ctx) -> Status:
        for child in self._children:
            status = child.tick(ctx)
            if status is SUCCESS:
                self._halt_others(child)
                return SUCCESS
            if status is FAILURE:
                self._halt_others(child)
                return FAILURE
        return RUNNING

    def _halt_others(self, winner: BtNode) -> None:
        for child in self._children:
            if child is not winner:
                child.halt()


class Condition(BtNode):
    """Level-triggered: Success whenever the predicate currently holds."""

    def __init__(self, predicate, **kw):
        super().__init__(**kw)
        self.predicate = predicate

    def _tick(self, ctx) -> Status:
        return SUCCESS if self.predicate(ctx) else RUNNING


class EdgeCondition(BtNode):
    """Fires on an observed transition; the first sample only arms it."""

    def __init__(self, kind: str, predicate, **kw):
        if kind not in ("rise", "fall"):
            raise ValueError(f"bad edge kind {kind!r}")
        super().__init__(**kw)
        self.kind = kind
        self.predicate = predicate
        self.armed = False
        self.prev = False

    def _tick(self, ctx) -> Status:
        current = bool(self.predicate(ctx))
        if not self.armed:
            self.armed = True
            self.prev = current
            return RUNNING
        if self.kind == "rise":
            fired = not self.prev and current
        else:
            fired = self.prev and not current
        self.prev = current
        return SUCCESS if fired else RUNNING


class Timer(BtNode):
    """Success once the latched start is `duration` of simulated time ago."""

    def __init__(self, duration: float, **kw):
        super().__init__(**kw)
        self.duration = duration
        self.start: int | None = None
        self.ticks = 0  # the duration in whole ticks, set with the start

    def _tick(self, ctx) -> Status:
        if self.start is None:
            self.start = ctx.now
            self.ticks = required_ticks(self.duration, ctx.dt)
        if ctx.now - self.start >= self.ticks:
            return SUCCESS
        return RUNNING


class EventWait(BtNode):
    def __init__(self, event: str, **kw):
        super().__init__(**kw)
        self.event = event

    def _tick(self, ctx) -> Status:
        return SUCCESS if ctx.blackboard.has(self.event) else RUNNING


class EventEmit(BtNode):
    def __init__(self, event: str, **kw):
        super().__init__(**kw)
        self.event = event

    def _tick(self, ctx) -> Status:
        ctx.blackboard.emit(self.event, ctx.now)
        return SUCCESS


class ActionLeaf(BtNode):
    """Base for leaves that drive the world; subclasses live in the runtime."""


def dump_tree(node: BtNode, indent: int = 0) -> str:
    """Indented text rendering with node variants and source spans."""
    parts = [type(node).__name__]
    if node.label:
        parts.append(f"({node.label})")
    if node.span is not None:
        parts.append(f" @{node.span.line}:{node.span.col}")
    line = "  " * indent + "".join(parts)
    lines = [line]
    for child in node.children():
        lines.append(dump_tree(child, indent + 1))
    return "\n".join(lines)
