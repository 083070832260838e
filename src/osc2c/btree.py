"""Behavior-tree execution substrate.

Trees are ticked once per simulation step in depth-first, left-to-right
order; same-tick event visibility follows that traversal order.  A node
that returns Success or Failure latches: re-ticking returns the same
status with no side effects.  OneOf halts losing siblings, and a failing
Parallel its unfinished children, so they stop mutating the blackboard or
world.  A node is halted only by its halted parent, by a OneOf that then
returns Success or Failure, or by a Parallel that then returns Failure; each
of those latches, so nothing ticks a halted node again and ``tick`` does not
check for one.

A running node may be quiescent: its ``due`` is the next tick at which
ticking it can change anything, and the composites skip a child that is
not due yet, then take the earliest ``due`` among their running children
as their own.  The nodes that are ticked are visited in the same order as
when every node is ticked on every tick, and a skipped node would have
done nothing, so skipping changes no result.  A node is due on every tick
unless it says otherwise: a Timer is due at its deadline, and a leaf with
nothing left to do may set ``NEVER``.

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


# the ``due`` of a node that no later tick can change
NEVER = math.inf


class ArbitrationFault(RuntimeError):
    """A leaf claimed an actor's motion while another leaf held it."""


class Blackboard:
    """Latched event store plus motion claims.

    A commander claims an actor's motion on its first tick and holds the
    claim until it releases it, when it finishes or is halted.  Another
    commander that claims the actor in the meantime is a fault, whatever
    their order in the tree: the holder is still running, even when it is
    quiescent and not ticked.
    """

    def __init__(self):
        self.events: dict[str, int] = {}  # name -> first-emission tick
        self.emissions: list[tuple[str, bool]] = []  # this tick's emits
        # actor -> the claimant token that holds its motion
        self._claims: dict[str, object] = {}

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
        """Claim an actor's motion until ``release_motion``; `now` is the
        tick a conflict is reported in.

        `claimant` is a token that identifies the commander by identity.
        The table keeps it, so it must not be the commander itself: a
        commander that holds this blackboard would then close a reference
        cycle, and only a full collection could free the tree.
        """
        if self._claims.setdefault(actor, claimant) is not claimant:
            raise ArbitrationFault(
                f"motion of actor '{actor}' commanded by two behaviors "
                f"in tick {now}")

    def release_motion(self, actor: str, claimant: object) -> None:
        """Drop a claim when its holder finishes or is halted, so a successor
        behavior may command the same actor within the same tick."""
        if self._claims.get(actor) is claimant:
            del self._claims[actor]


@dataclass
class TickContext:
    """What a tick reads; ``CompiledScenario`` keeps one and sets ``now``."""

    blackboard: Blackboard = field(default_factory=Blackboard)
    now: int = 0
    dt: float = 0.05


def required_ticks(duration: float, dt: float) -> int:
    """Whole ticks needed for `duration` of simulated time at step dt."""
    return max(0, math.ceil(duration / dt - 1e-9))


class BtNode:
    # the next tick at which ticking this running node can change anything
    due: float = 0

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


class Composite(BtNode):
    """A node over a fixed tuple of children."""

    def __init__(self, children, **kw):
        super().__init__(**kw)
        self._children = tuple(children)

    def children(self):
        return self._children


class Sequence(Composite):
    """Children in order; advances to the next child within the same tick."""

    def __init__(self, children, **kw):
        super().__init__(children, **kw)
        self.cursor = 0  # the child that ticks next

    def _tick(self, ctx) -> Status:
        children = self._children
        cursor = self.cursor
        while cursor < len(children):
            child = children[cursor]
            status = child.tick(ctx) if child.due <= ctx.now else RUNNING
            if status is not SUCCESS:
                self.due = child.due
                return status
            cursor = self.cursor = cursor + 1
        return SUCCESS


class Parallel(Composite):
    """All children must succeed; any failure fails the composite."""

    def _tick(self, ctx) -> Status:
        now = ctx.now
        failed = False
        done = True
        due = NEVER
        for child in self._children:
            if child._status is SUCCESS:
                continue
            if child.due <= now:
                status = child.tick(ctx)
                if status is SUCCESS:
                    continue
                if status is FAILURE:
                    failed = True
                    continue
            done = False
            if child.due < due:
                due = child.due
        if failed:
            for child in self._children:
                if child._status is not SUCCESS:
                    child.halt()
            return FAILURE
        self.due = due
        return SUCCESS if done else RUNNING


class OneOf(Composite):
    """First child to succeed wins; the running siblings are halted."""

    def _tick(self, ctx) -> Status:
        now = ctx.now
        due = NEVER
        for child in self._children:
            if child.due <= now:
                status = child.tick(ctx)
                if status is not RUNNING:
                    for other in self._children:
                        if other is not child:
                            other.halt()
                    return status
            if child.due < due:
                due = child.due
        self.due = due
        return RUNNING


class Condition(BtNode):
    """Level-triggered: Success whenever the predicate currently holds."""

    def __init__(self, predicate, **kw):
        super().__init__(**kw)
        self.predicate = predicate

    def _tick(self, ctx) -> Status:
        return SUCCESS if self.predicate(ctx) else RUNNING


class EdgeCondition(BtNode):
    """Fires on a `kind` "rise" or "fall"; the first sample only arms it."""

    def __init__(self, kind: str, predicate, **kw):
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
        self.deadline = 0  # the tick it succeeds in, set with the start

    def _tick(self, ctx) -> Status:
        if self.start is None:
            self.start = ctx.now
            self.deadline = ctx.now + required_ticks(self.duration, ctx.dt)
        if ctx.now >= self.deadline:
            return SUCCESS
        self.due = self.deadline
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
