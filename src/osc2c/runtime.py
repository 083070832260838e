"""Lowering and execution: action dispatch, expression evaluation, placement.

This module turns a resolved scenario into something that runs: a
MethodRegistry maps (actor type, action) pairs to behavior factories and
signatures (the builtin one maps each prelude action to its leaf class) and
gives the checker its action table, a ScenarioInitializer places the actors
for tick 0 from their `at: start` constraints and the map's spawns, with a
start fault or a lane placement without a spawn an E002 CompileError, a
BehaviorTreeBuilder lowers the composition tree, and CompiledScenario.run
is the one tick loop.  The loop jumps over a stretch of ticks in which no
node is due and the world is at rest, as each of them would repeat the last
tick, and reports the stretch to its caller in one call.  The checker's
evaluators take the run's World, which factories, leaves and placements
hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import ast
from .btree import (
    ArbitrationFault,
    Blackboard,
    BtNode,
    Condition,
    EdgeCondition,
    EventEmit,
    EventWait,
    FAILURE,
    NEVER,
    OneOf,
    Parallel,
    RUNNING,
    SUCCESS,
    Sequence,
    ActionLeaf,
    Status,
    TickContext,
    Timer,
)
from .diagnostics import (CompileError, Diagnostic, ERROR, Span,
                          collector_paused)
from .prelude import ACTOR_TYPES, ActionTable, Signature, inheritance_chain
from .semantics import (Analysis, EvalError, Evaluator, Invocation,
                        Modifiers, ScenarioInfo, anchor_fault, check,
                        constant_value, live_actor, unsupported_action)
from .units import UnitsError
from .world import (Actor, RoadMap, SimFault, SweepList,
                    TopologicalUnreachable, World, load_map)

GO_SIGNAL = "go_signal"

# A change_speed leaf reports Success inside this band around its target.
SPEED_TOLERANCE = 0.01


class BuildError(RuntimeError):
    """A behavior factory cannot lower the invocation it was given."""


class UnsupportedAction(CompileError):
    """The grammar accepts this action but the backend cannot execute it."""


# ---------------------------------------------------------------------------
# method registry


class MethodRegistry:
    """Maps (actor type, action) to a factory building the action's leaf,
    and to the signature the checker binds the action's arguments to.

    Lookup walks the actor type's inheritance chain, so an action registered
    on `traffic_participant` dispatches for `vehicle` receivers. Factories
    take (receiver name, args, modifiers, world) and return a BtNode.
    """

    def __init__(self):
        # type -> action -> (factory, signature)
        self._actions: dict[str, dict[str, tuple[object, Signature]]] = {}

    def register(self, type_name: str, action: str, factory,
                 signature: Signature) -> None:
        if not inheritance_chain(type_name):
            raise ValueError(f"unknown actor type '{type_name}'")
        actions = self._actions.setdefault(type_name, {})
        if action in actions:
            raise ValueError(
                f"action '{action}' is already registered for '{type_name}'")
        actions[action] = (factory, signature)

    def lookup(self, type_name: str, action: str):
        """The factory of an action, or None."""
        for ancestor in inheritance_chain(type_name):
            entry = self._actions.get(ancestor, {}).get(action)
            if entry is not None:
                return entry[0]
        return None

    def action_table(self) -> ActionTable:
        """The signature of each registered action by type, the table the
        semantic checker binds actions against."""
        return {name: {action: signature
                       for action, (_, signature) in actions.items()}
                for name, actions in self._actions.items()}


# ---------------------------------------------------------------------------
# action leaves


class _Leaf(ActionLeaf):
    """An action leaf; each leaf class is the factory of its action.

    The checker has bound every argument to the action's signature in the
    registry, so a leaf reads its evaluators by name and trusts their kinds:
    a quantity is its magnitude in the SI unit of the declared dimension.
    """

    def __init__(self, receiver: str, args: dict[str, Evaluator],
                 modifiers: Modifiers, world: World):
        super().__init__()
        self.actor_name = receiver
        self.args = args
        self.modifiers = modifiers
        self.world = world

    def value(self, name: str):
        """The value of an argument, read from the live world."""
        return self.args[name](self.world)


class _MotionLeaf(_Leaf):
    """Base for leaves that command an actor's motion.

    The leaf claims its actor on the blackboard on its first tick and holds
    the claim until it finishes or is halted, so a successor behavior may
    take over within the same tick; another commander that claims the actor
    in the meantime raises ArbitrationFault.
    """

    _board: Blackboard | None = None
    _actor: Actor | None = None

    def __init__(self, receiver, args, modifiers, world):
        super().__init__(receiver, args, modifiers, world)
        # the leaf's claimant token on the blackboard, which must not hold
        # the leaf (see Blackboard.claim_motion)
        self._token = object()

    @property
    def actor(self) -> Actor:
        """The receiver's live actor, looked up on the first tick that
        needs it."""
        if self._actor is None:
            self._actor = live_actor(self.actor_name, self.world)
        return self._actor

    def _claim(self, ctx) -> None:
        if self._board is None:
            ctx.blackboard.claim_motion(self.actor_name, self._token, ctx.now)
            self._board = ctx.blackboard

    def _release(self) -> None:
        if self._board is not None:
            self._board.release_motion(self.actor_name, self._token)
            self._board = None

    def halt(self) -> None:
        super().halt()
        self._release()


class DriveLeaf(_MotionLeaf):
    """Holds the lane and tracks a possibly dynamic target speed, forever.

    A drive that ``settles`` has nothing left to do after its first tick:
    its target is constant or absent, and no leaf but a motion commander,
    which would conflict with it, writes its actor's target.  It is then
    never due again.  The tree builder clears ``settles`` for the drives of
    an actor that another leaf may retarget.
    """

    def __init__(self, receiver, args, modifiers, world):
        super().__init__(receiver, args, modifiers, world)
        speed = modifiers.get("speed", {})
        self.speed_fn = speed.get("speed")
        self.target = constant_value(self.speed_fn)
        self.profile = constant_value(speed.get("rate_profile")) or "asap"
        self.settles = self.speed_fn is None or self.target is not None

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        if self.speed_fn is not None:
            target = self.target
            if target is None:
                target = self.speed_fn(self.world)
            actor = self.actor
            actor.target_speed = target
            actor.profile = self.profile
        if self.settles:
            self.due = NEVER
        return RUNNING


class ChangeSpeedLeaf(_MotionLeaf):
    """Commands a new target speed; Success once the actor has reached it."""

    def __init__(self, receiver, args, modifiers, world):
        super().__init__(receiver, args, modifiers, world)
        self.target = constant_value(args["target"])
        self.profile = constant_value(args.get("rate_profile")) or "asap"

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        target = self.target
        if target is None:
            target = self.value("target")
        actor = self.actor
        actor.target_speed = target
        actor.profile = self.profile
        if abs(actor.speed - target) < SPEED_TOLERANCE:
            self._release()
            return SUCCESS
        return RUNNING


class ChangeLaneLeaf(_MotionLeaf):
    """Starts a lane change on the first tick, Success once it has cleared."""

    started = False

    def __init__(self, receiver, args, modifiers, world):
        super().__init__(receiver, args, modifiers, world)
        # the checker fixed it to a whole number
        self.lanes = int(constant_value(args["num_of_lanes"]))

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        actor = self.actor
        if not self.started:
            self.started = True
            moving = self.world.begin_lane_change(actor, self.lanes,
                                                  self.value("side"))
            if moving:
                return RUNNING
            self._release()
            return SUCCESS
        if actor.lane_change is None:
            self._release()
            return SUCCESS
        return RUNNING


class SetLightsLeaf(_Leaf):
    """Applies a light mode immediately."""

    def _tick(self, ctx) -> Status:
        mode = self.value("mode")
        self.world.set_lights(live_actor(self.actor_name, self.world), mode)
        return SUCCESS


class AssignOrientationLeaf(_Leaf):
    """Writes the actor's heading immediately."""

    def _tick(self, ctx) -> Status:
        heading = self.value("h")
        live_actor(self.actor_name, self.world).heading = heading
        return SUCCESS


class AssignPositionLeaf(_Leaf):
    """Teleports the actor according to its placement modifiers."""

    def _tick(self, ctx) -> Status:
        place_actor(self.world, live_actor(self.actor_name, self.world),
                    self.modifiers)
        return SUCCESS


class CelestialLeaf(_Leaf):
    """Positions the sun; the auto light rule reads it every world step."""

    def _tick(self, ctx) -> Status:
        self.world.set_sun(self.value("azimuth"), self.value("elevation"))
        return SUCCESS


class FollowPathLeaf(_MotionLeaf):
    """Advances a set distance along the lane; Success at the end point.

    The grammar subset has no list literals, so a path degenerates to a
    straight run of the given length from wherever the actor starts.
    """

    goal: float | None = None

    def __init__(self, receiver, args, modifiers, world):
        super().__init__(receiver, args, modifiers, world)
        self.speed = constant_value(args.get("speed"))

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        actor = self.actor
        if self.goal is None:
            self.goal = actor.s + self.value("distance")
        if "speed" in self.args:
            speed = self.speed
            if speed is None:
                speed = self.value("speed")
            actor.target_speed = speed
        if actor.s >= self.goal - 1e-9:
            self._release()
            return SUCCESS
        return RUNNING


# the leaf that executes each prelude action; `walk` has none
_LEAVES = {
    "drive": DriveLeaf,
    "change_speed": ChangeSpeedLeaf,
    "change_lane": ChangeLaneLeaf,
    "assign_position": AssignPositionLeaf,
    "assign_orientation": AssignOrientationLeaf,
    "set_lights": SetLightsLeaf,
    "follow_path": FollowPathLeaf,
    "assign_celestial_position": CelestialLeaf,
}


def builtin_registry() -> MethodRegistry:
    """A registry holding the leaf of every prelude action that has one,
    with the prelude's signature."""
    registry = MethodRegistry()
    for type_name, actor_type in ACTOR_TYPES.items():
        for action, signature in actor_type.actions.items():
            if action in _LEAVES:
                registry.register(type_name, action, _LEAVES[action],
                                  signature)
    return registry


# ---------------------------------------------------------------------------
# placement


def place_actor(world: World, actor: Actor, modifiers: Modifiers) -> bool:
    """Apply placement modifiers to one actor; True if a pose was set.

    The checker chose the paradigm: a lane's spawn, which the initializer
    found, a pose relative to one already placed anchor, an absolute
    Cartesian pose that takes the actor off the road network, or none.
    """
    lane_args = modifiers.get("lane", {})
    position_args = modifiers.get("position", {})
    if modifiers.paradigm == "lane":
        lane_index = int(constant_value(lane_args["lane"]))
        world.place_on_lane(actor, lane_index,
                            world.road.spawn_on_lane(lane_index))
    elif modifiers.paradigm == "relative":
        anchor = live_actor(modifiers.anchor, world)
        if anchor.lane is None:
            raise TopologicalUnreachable(anchor_fault(
                actor.name, anchor.name, "not on the road network"))
        side = constant_value(lane_args.get("side"))
        lane_index = anchor.lane + {"right": 1, "left": -1}.get(side, 0)
        sign = 1.0 if "ahead_of" in position_args else -1.0
        distance = position_args.get("distance")
        distance = 0.0 if distance is None else distance(world)
        world.place_on_lane(actor, lane_index, anchor.s + sign * distance)
    elif modifiers.paradigm == "absolute":
        def coord(key):
            evaluate = position_args.get(key)
            return 0.0 if evaluate is None else evaluate(world)
        world.place_absolute(actor, coord("x"), coord("y"), coord("h"))

    speed_fn = modifiers.get("speed", {}).get("speed")
    if speed_fn is not None:
        speed = speed_fn(world)
        actor.speed = speed
        actor.target_speed = speed
    return modifiers.paradigm is not None


class ScenarioInitializer:
    """Places a scenario's actors for tick 0: the start placements in tree
    order, then free default spawns.  A placement that fails, or two actors
    that overlap, raise an E002 CompileError at the placement that put the
    actor there last, or at the field of an actor left without a spawn.
    So does a lane placement after tick 0 whose lane has no spawn."""

    def __init__(self, scenario: ScenarioInfo, filename: str = "<string>"):
        self.scenario = scenario
        self.filename = filename
        # the span of each actor's latest start placement, the latest last
        self.placed: dict[str, Span] = {}

    def _fail(self, message: str, span: Span):
        raise CompileError(Diagnostic(ERROR, "E002", message, span,
                                      self.filename))

    def run(self, road: RoadMap | str | None = None,
            dt: float = 0.05) -> World:
        """A world on ``road`` holding the scenario's actors, placed;
        ``road`` is a road map, a map spec for ``load_map`` (``builtin:<name>``
        or a JSON file), or None for the map the scenario binds, else town06.
        """
        scenario, placed = self.scenario, self.placed
        if road is None:
            road = f"builtin:{scenario.map_name or 'town06'}"
        if isinstance(road, str):
            road = load_map(road)
        world = self.world = World(road, dt)
        for name, type_name in scenario.fields.items():
            kind = ACTOR_TYPES[type_name].world
            if kind == "vehicle":
                world.add_vehicle(name)
            elif kind == "prop":
                world.add_prop(name)
        for invocation in scenario.invocations.values():
            node, modifiers = invocation.node, invocation.modifiers
            if modifiers.paradigm == "lane":
                lane = int(constant_value(modifiers["lane"]["lane"]))
                if road.spawn_on_lane(lane) is None:
                    self._fail(f"no default spawn point on lane {lane} "
                               f"for actor '{node.actor}'", node.span)
            if not invocation.at_start:
                continue
            anchor = modifiers.anchor
            if anchor is not None and anchor not in placed:
                self._fail(anchor_fault(node.actor, anchor, "not placed yet"),
                           node.span)
            try:
                if place_actor(world, world.actors[node.actor], modifiers):
                    placed.pop(node.actor, None)
                    placed[node.actor] = node.span
            except (SimFault, UnitsError) as fault:
                self._fail(str(fault), node.span)
        pairs = self._place_remaining().pairs()
        if pairs:
            # only start placements can overlap: a spawn is taken if free
            names = list(world.actors)  # indexed by rank
            a, b = (names[rank] for rank in min(pairs))
            self._fail(f"actors '{a}' and '{b}' overlap at start",
                       placed[max(a, b, key=list(placed).index)])
        return world

    def _place_remaining(self) -> SweepList:
        """Put actors without start constraints on free default spawns, and
        return the broad phase that holds every actor.

        Each takes the first spawn in map order whose box overlaps no placed
        actor.  Placed actors never move here, so a spawn that is blocked
        for one box size stays blocked for the next actor of that size: each
        size's search resumes where the previous actor of that size landed.
        """
        world = self.world
        spawns = world.road.spawns
        obstacles = SweepList()
        for name in self.placed:
            obstacles.add(world.actors[name])
        resume: dict[tuple[float, float], int] = {}
        for name, actor in world.actors.items():
            if name in self.placed:
                continue
            size = (actor.half_length, actor.half_width)
            for k in range(resume.get(size, 0), len(spawns)):
                world.place_on_lane(actor, *spawns[k])
                if not obstacles.hits(actor):
                    break
            else:
                self._fail(f"no free default spawn point for actor '{name}'",
                           next(member.span for member in
                                self.scenario.decl.members
                                if isinstance(member, ast.FieldDecl)
                                and member.name == name))
            resume[size] = k
            obstacles.add(actor)
        return obstacles


# ---------------------------------------------------------------------------
# tree builder


class BehaviorTreeBuilder:
    """Lowers a resolved scenario body to a behavior tree.

    A wait reads the evaluator of its condition in the scenario's
    ``conditions``.  The invocations that carry an `at: start` modifier
    are left to the initializer.  A drive settles unless a leaf that holds
    no motion claim may write its actor's target speed: a tick-time
    `assign_position` with `speed`, or any leaf of a factory other than the
    builtin ones, which may write any actor.
    """

    def __init__(self, scenario: ScenarioInfo, registry: MethodRegistry,
                 world: World, filename: str = "<string>"):
        self.scenario = scenario
        self.registry = registry
        self.world = world
        self.filename = filename
        self._drives: list[DriveLeaf] = []
        # the actors whose target speed a leaf that holds no motion claim
        # may write; a custom leaf may write any actor's
        self._retargeted: set[str] = set()
        self._custom = False

    def build(self) -> BtNode:
        body = self.scenario.decl.body
        if body is None:
            return Sequence((), label="serial")
        root = self._composition(body.root)
        for drive in self._drives:
            if self._custom or drive.actor_name in self._retargeted:
                drive.settles = False
        return root

    def _composition(self, node: ast.Composition) -> BtNode:
        children = []
        for child in node.children:
            built = self._statement(child)
            if built is not None:
                children.append(built)
        composite = {"serial": Sequence, "parallel": Parallel,
                     "one_of": OneOf}[node.kind]
        return composite(children, label=node.kind, span=node.span)

    def _statement(self, node: ast.Node) -> BtNode | None:
        if isinstance(node, ast.Composition):
            return self._composition(node)
        if isinstance(node, ast.WaitStatement):
            return self._wait(node)
        if isinstance(node, ast.EmitStatement):
            return EventEmit(node.event, label=f"emit {node.event}",
                             span=node.span)
        # an action invocation: the parser puts nothing else in a composition
        bound = self.scenario.invocations[id(node)]
        return None if bound.at_start else self._invocation(bound)

    def _wait(self, node: ast.WaitStatement) -> BtNode:
        cond = node.condition
        if isinstance(cond, ast.EventRef):
            return EventWait(cond.name, label=f"wait @{cond.name}",
                             span=node.span)
        if isinstance(cond, ast.ElapsedCondition):
            # the checker folded the duration to a constant
            seconds = constant_value(
                self.scenario.conditions[id(cond.duration)])
            return Timer(seconds, label="wait elapsed", span=node.span)
        # a rise, fall or bool condition: the parser makes no other kind
        holds, world = self.scenario.conditions[id(cond.expr)], self.world
        predicate = lambda _: holds(world)
        if isinstance(cond, ast.BoolCondition):
            return Condition(predicate, label="wait", span=node.span)
        kind = "rise" if isinstance(cond, ast.RiseCondition) else "fall"
        return EdgeCondition(kind, predicate, label=f"wait {kind}",
                             span=node.span)

    def _invocation(self, bound: Invocation) -> BtNode:
        node = bound.node
        type_name = self.scenario.fields[node.actor]
        factory = self.registry.lookup(type_name, node.action)
        if factory is None:
            # checked against another table than this registry's
            raise UnsupportedAction(Diagnostic(
                ERROR, "E007", unsupported_action(node.action, type_name),
                node.span, self.filename))
        leaf = factory(node.actor, bound.args, bound.modifiers, self.world)
        if factory not in _LEAVES.values():
            self._custom = True
        elif factory is DriveLeaf:
            self._drives.append(leaf)
        elif factory is AssignPositionLeaf and "speed" in bound.modifiers:
            self._retargeted.add(node.actor)
        if leaf.label is None:
            leaf.label = f"{node.actor}.{node.action}"
        if leaf.span is None:
            leaf.span = node.span
        return leaf


# ---------------------------------------------------------------------------
# compiled scenario


# what ends a run as a fault: the world, placement included, arbitration
# and evaluation
FAULTS = (SimFault, ArbitrationFault, EvalError)

_OUTCOMES = {SUCCESS: "success", FAILURE: "failure"}


@dataclass
class CompiledScenario:
    """A lowered scenario bound to a live world, ready to tick."""

    scenario: ScenarioInfo
    root: BtNode
    world: World
    blackboard: Blackboard
    tick_ctx: TickContext = field(init=False)
    next_tick: int = 0

    def __post_init__(self):
        self.tick_ctx = TickContext(self.blackboard, 0, self.world.dt)

    @property
    def dt(self) -> float:
        return self.world.dt

    @property
    def status(self) -> Status | None:
        return self.root.status

    def step_tick(self) -> Status:
        """One full tick: behaviors first, then world physics; it may raise
        a ``UnitsError``."""
        now = self.next_tick
        self.next_tick += 1
        self.blackboard.begin_tick(now)
        self.tick_ctx.now = now
        if now == 0:
            self.blackboard.emit(GO_SIGNAL, now)
        root = self.root
        status = root.tick(self.tick_ctx) if root.due <= now else RUNNING
        self.world.step()
        return status

    def run(self, max_ticks: int, after_tick=None
            ) -> tuple[str, int, Exception | None]:
        """Tick until the tree settles, one of ``FAULTS`` ends the run, or
        ``max_ticks`` ticks are done, calling ``after_tick(first, stop)``
        once ticks ``first`` to ``stop - 1`` have completed.

        A tick comes on its own, as ``(now, now + 1)``, except in a stretch.
        When the world has just stepped, no node is due and the world is at
        rest, each tick up to the next one a node is due in, or to the end
        of the budget, is a copy of the last with no emissions.  The loop
        then neither ticks the tree nor steps the world for those ticks, and
        reports them in one call.

        Returns the outcome ("success", "failure", "fault" or "timeout"),
        the ticks completed and the fault or None.  A ``UnitsError`` from an
        evaluator ends the run as an ``EvalError`` fault.
        """
        root, world = self.root, self.world
        ticks = 0
        try:
            while ticks < max_ticks:
                first = self.next_tick
                if ticks and root.due > first and world.at_rest():
                    stop = first + max_ticks - ticks
                    if root.due < stop:
                        stop = math.ceil(root.due)
                    self.blackboard.begin_tick(first)
                    self.next_tick = stop
                    status = RUNNING
                else:
                    status = self.step_tick()
                if after_tick is not None:
                    after_tick(first, self.next_tick)
                ticks += self.next_tick - first
                if status is not RUNNING:
                    return _OUTCOMES[status], ticks, None
        except FAULTS as fault:
            return "fault", ticks, fault
        except UnitsError as exc:
            return "fault", ticks, EvalError(str(exc))
        return "timeout", ticks, None


@collector_paused
def compile_scenario(analysis: Analysis, *,
                     registry: MethodRegistry | None = None,
                     road: RoadMap | str | None = None,
                     dt: float = 0.05,
                     filename: str = "<string>") -> CompiledScenario:
    """Lower a clean analysis into a runnable scenario whose actors
    ``ScenarioInitializer.run(road, dt)`` placed, or raise CompileError."""
    if not analysis.ok:
        raise ValueError("cannot compile a program with semantic errors")
    scenario = analysis.scenarios[0]
    if registry is None:
        registry = builtin_registry()
    world = ScenarioInitializer(scenario, filename).run(road, dt)
    root = BehaviorTreeBuilder(scenario, registry, world, filename).build()
    return CompiledScenario(scenario, root, world, Blackboard())


def compile_source(source: str, filename: str = "<string>", *,
                   registry: MethodRegistry | None = None,
                   road: RoadMap | str | None = None,
                   dt: float = 0.05) -> CompiledScenario:
    """Check source text against the registry's action table and compile
    it as ``compile_scenario`` does; raises CompileError on the first error.
    """
    if registry is None:
        registry = builtin_registry()
    analysis = check(source, filename, extra_actions=registry.action_table())
    if not analysis.ok:
        raise CompileError(analysis.errors[0])
    return compile_scenario(analysis, registry=registry, road=road, dt=dt,
                            filename=filename)
