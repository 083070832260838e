"""Lowering and execution: action dispatch, expression evaluation, placement.

This module turns a resolved scenario into something that runs: a
MethodRegistry maps (actor type, action) pairs to behavior factories, an
ExecutionContext runs the expression closures the checker lowered against
the live world, a BehaviorTreeBuilder lowers the composition tree, and a
ScenarioInitializer places actors from their `at: start` constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .btree import (
    Blackboard,
    BtNode,
    Condition,
    EdgeCondition,
    EventEmit,
    EventWait,
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
from .diagnostics import CompileError, Diagnostic, ERROR, Span
from .prelude import inheritance_chain
from .semantics import Analysis, EvalError, Evaluator, ScenarioInfo, check
from .units import (ANGLE, DIMENSIONLESS, DURATION, LENGTH, SPEED, Quantity,
                    UnitsError, dimension_name)
from .world import Actor, RoadMap, TOWN06, World, load_map, overlaps

GO_SIGNAL = "go_signal"

# A change_speed leaf reports Success inside this band around its target.
SPEED_TOLERANCE = 0.01


class BuildError(RuntimeError):
    """An invocation is missing or misusing an argument the backend needs."""


class InitConflict(RuntimeError):
    """An actor's start constraints are contradictory or unresolvable."""


class SpawnCollision(RuntimeError):
    """Two actors' bounding boxes overlap at their initial placements."""


class UnsupportedAction(CompileError):
    """The grammar accepts this action but the backend cannot execute it."""


# ---------------------------------------------------------------------------
# method registry


class MethodRegistry:
    """Maps (actor type, action) to a factory building the action's leaf.

    Lookup walks the actor type's inheritance chain, so an action registered
    on `traffic_participant` dispatches for `vehicle` receivers. Factories
    take (receiver name, args, modifiers, context) and return a BtNode.
    """

    def __init__(self):
        self._factories: dict[tuple[str, str], object] = {}

    def register(self, type_name: str, action: str, factory) -> None:
        if not inheritance_chain(type_name):
            raise ValueError(f"unknown actor type '{type_name}'")
        key = (type_name, action)
        if key in self._factories:
            raise ValueError(
                f"action '{action}' is already registered for '{type_name}'")
        self._factories[key] = factory

    def lookup(self, type_name: str, action: str):
        for ancestor in inheritance_chain(type_name):
            factory = self._factories.get((ancestor, action))
            if factory is not None:
                return factory
        return None

    def action_table(self) -> dict[str, frozenset[str]]:
        """Registered actions grouped by type, for the semantic checker."""
        table: dict[str, set[str]] = {}
        for type_name, action in self._factories:
            table.setdefault(type_name, set()).add(action)
        return {name: frozenset(actions) for name, actions in table.items()}


# ---------------------------------------------------------------------------
# execution context


class ExecutionContext:
    """Live actor handles, lazily evaluated variables, expression evaluation.

    Expressions run as the closures the checker lowered them to; each takes
    this context as its ``env``.
    """

    def __init__(self, world: World, scenario: ScenarioInfo,
                 evaluators: dict[int, Evaluator | None]):
        self.world = world
        self.actors: dict[str, Actor] = {}
        self.attributes = scenario.constraints
        self._var_decls = scenario.variables
        self._var_values: dict[str, object] = {}
        self._in_progress: set[str] = set()
        self._evaluators = evaluators

    def bind_actor(self, name: str, actor: Actor) -> None:
        self.actors[name] = actor

    def actor(self, name: str) -> Actor:
        try:
            return self.actors[name]
        except KeyError:
            raise EvalError(f"no live actor named '{name}'") from None

    # variables

    def evaluate_variables(self) -> None:
        """Force every var initializer once, in declaration order."""
        for name in self._var_decls:
            self.var(name)

    def var(self, name: str):
        if name in self._var_values:
            return self._var_values[name]
        decl = self._var_decls.get(name)
        if decl is None:
            raise EvalError(f"unknown variable '{name}'")
        if name in self._in_progress:
            raise EvalError(f"initializer of '{name}' depends on itself")
        self._in_progress.add(name)
        try:
            value = self.eval(decl)
        finally:
            self._in_progress.discard(name)
        self._var_values[name] = value
        return value

    # expressions

    def eval(self, expr: ast.Node):
        """Evaluate an expression (or var declaration) that was checked."""
        evaluate = self._evaluators.get(id(expr))
        if evaluate is None:
            raise EvalError(
                f"cannot evaluate an unchecked {type(expr).__name__}")
        try:
            return evaluate(self)
        except UnitsError as exc:
            raise EvalError(str(exc)) from exc


def _magnitude(value, dim, what: str) -> float:
    """Numeric payload of a quantity, letting bare numbers stand in."""
    if not isinstance(value, Quantity):
        raise EvalError(f"{what} must be a quantity")
    if value.dim != dim and value.dim != DIMENSIONLESS:
        raise EvalError(
            f"{what} has dimension {dimension_name(value.dim)}, "
            f"expected {dimension_name(dim)}")
    return value.value


# ---------------------------------------------------------------------------
# action leaves


class _MotionLeaf(ActionLeaf):
    """Base for leaves that command an actor's motion.

    Each tick the leaf claims its actor on the blackboard; two concurrently
    running commanders of one actor raise ArbitrationFault. The claim is
    released when the leaf finishes or is halted, so a successor behavior
    may take over within the same tick.
    """

    def __init__(self, context: ExecutionContext, actor_name: str, **kw):
        super().__init__(**kw)
        self.context = context
        self.actor_name = actor_name
        self._board: Blackboard | None = None

    @property
    def actor(self) -> Actor:
        return self.context.actor(self.actor_name)

    def _claim(self, ctx) -> None:
        ctx.blackboard.claim_motion(self.actor_name, self, ctx.now)
        self._board = ctx.blackboard

    def _release(self) -> None:
        if self._board is not None:
            self._board.release_motion(self.actor_name, self)
            self._board = None

    def halt(self) -> None:
        super().halt()
        self._release()


class DriveLeaf(_MotionLeaf):
    """Holds the lane and tracks a possibly dynamic target speed, forever."""

    def __init__(self, context, actor_name, speed_expr=None,
                 profile="asap", **kw):
        super().__init__(context, actor_name, **kw)
        self.speed_expr = speed_expr
        self.profile = profile

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        if self.speed_expr is not None:
            target = _magnitude(
                self.context.eval(self.speed_expr), SPEED, "drive speed")
            actor = self.actor
            actor.target_speed = target
            actor.profile = self.profile
        return RUNNING


class ChangeSpeedLeaf(_MotionLeaf):
    """Commands a new target speed; Success once the actor has reached it."""

    def __init__(self, context, actor_name, target_expr,
                 profile="asap", **kw):
        super().__init__(context, actor_name, **kw)
        self.target_expr = target_expr
        self.profile = profile

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        target = _magnitude(
            self.context.eval(self.target_expr), SPEED, "change_speed target")
        actor = self.actor
        actor.target_speed = target
        actor.profile = self.profile
        if abs(actor.speed - target) < SPEED_TOLERANCE:
            self._release()
            return SUCCESS
        return RUNNING


class ChangeLaneLeaf(_MotionLeaf):
    """Starts a lane change on the first tick, Success once it has cleared."""

    def __init__(self, context, actor_name, lanes_expr, side, **kw):
        super().__init__(context, actor_name, **kw)
        self.lanes_expr = lanes_expr
        self.side = side
        self.started = False

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        actor = self.actor
        if not self.started:
            self.started = True
            lanes = int(round(_magnitude(
                self.context.eval(self.lanes_expr), DIMENSIONLESS,
                "change_lane num_of_lanes")))
            moving = self.context.world.begin_lane_change(
                actor, lanes, self.side)
            if moving:
                return RUNNING
            self._release()
            return SUCCESS
        if actor.lane_change is None:
            self._release()
            return SUCCESS
        return RUNNING

    def _reset(self):
        self.started = False

    def local_state(self):
        return (self.started,)


class SetLightsLeaf(ActionLeaf):
    """Applies a light mode immediately."""

    def __init__(self, context, actor_name, mode_expr, **kw):
        super().__init__(**kw)
        self.context = context
        self.actor_name = actor_name
        self.mode_expr = mode_expr

    def _tick(self, ctx) -> Status:
        mode = self.context.eval(self.mode_expr)
        if not isinstance(mode, str):
            raise EvalError("set_lights mode must be a string")
        self.context.world.set_lights(self.context.actor(self.actor_name), mode)
        return SUCCESS


class AssignOrientationLeaf(ActionLeaf):
    """Writes the actor's heading immediately."""

    def __init__(self, context, actor_name, heading_expr, **kw):
        super().__init__(**kw)
        self.context = context
        self.actor_name = actor_name
        self.heading_expr = heading_expr

    def _tick(self, ctx) -> Status:
        heading = _magnitude(
            self.context.eval(self.heading_expr), ANGLE, "orientation")
        self.context.actor(self.actor_name).heading = heading
        return SUCCESS


class AssignPositionLeaf(ActionLeaf):
    """Teleports the actor according to its placement modifiers."""

    def __init__(self, context, actor_name, modifiers, **kw):
        super().__init__(**kw)
        self.context = context
        self.actor_name = actor_name
        self.modifiers = modifiers

    def _tick(self, ctx) -> Status:
        place_actor(self.context, self.context.actor(self.actor_name),
                    self.modifiers)
        return SUCCESS


class CelestialLeaf(ActionLeaf):
    """Positions the sun; the auto light rule reads it every world step."""

    def __init__(self, context, azimuth_expr, elevation_expr, **kw):
        super().__init__(**kw)
        self.context = context
        self.azimuth_expr = azimuth_expr
        self.elevation_expr = elevation_expr

    def _tick(self, ctx) -> Status:
        azimuth = _magnitude(
            self.context.eval(self.azimuth_expr), ANGLE, "azimuth")
        elevation = _magnitude(
            self.context.eval(self.elevation_expr), ANGLE, "elevation")
        self.context.world.set_sun(azimuth, elevation)
        return SUCCESS


class FollowPathLeaf(_MotionLeaf):
    """Advances a set distance along the lane; Success at the end point.

    The grammar subset has no list literals, so a path degenerates to a
    straight run of the given length from wherever the actor starts.
    """

    def __init__(self, context, actor_name, distance_expr,
                 speed_expr=None, **kw):
        super().__init__(context, actor_name, **kw)
        self.distance_expr = distance_expr
        self.speed_expr = speed_expr
        self.goal: float | None = None

    def _tick(self, ctx) -> Status:
        self._claim(ctx)
        actor = self.actor
        if self.goal is None:
            self.goal = actor.s + _magnitude(
                self.context.eval(self.distance_expr), LENGTH,
                "follow_path distance")
        if self.speed_expr is not None:
            actor.target_speed = _magnitude(
                self.context.eval(self.speed_expr), SPEED, "follow_path speed")
        if actor.s >= self.goal - 1e-9:
            self._release()
            return SUCCESS
        return RUNNING

    def _reset(self):
        self.goal = None

    def local_state(self):
        return (self.goal,)


# ---------------------------------------------------------------------------
# builtin factories


def _positional(container, index: int):
    """The index-th unnamed argument of a modifier, or None."""
    unnamed = [arg.value for arg in container.args if arg.name is None]
    return unnamed[index] if index < len(unnamed) else None


def _named(container, name: str):
    for arg in container.args:
        if arg.name == name:
            return arg.value
    return None


def _word(node, what: str) -> str:
    if isinstance(node, ast.Identifier):
        return node.name
    raise BuildError(f"{what} must be a plain word")


def _profile_word(node) -> str:
    word = _word(node, "rate_profile")
    if word not in ("asap", "smooth"):
        raise BuildError(f"unknown rate profile '{word}'")
    return word


def _drive_factory(receiver, args, modifiers, context):
    speed_expr = None
    profile = "asap"
    for mod in modifiers:
        if mod.name == "speed":
            speed_expr = _positional(mod, 0) or _named(mod, "speed")
            profile_node = _named(mod, "rate_profile")
            if profile_node is not None:
                profile = _profile_word(profile_node)
    return DriveLeaf(context, receiver, speed_expr, profile)


def _change_speed_factory(receiver, args, modifiers, context):
    target = args.get("target")
    if target is None:
        raise BuildError("change_speed needs a 'target' argument")
    profile = "asap"
    profile_node = args.get("rate_profile")
    if profile_node is not None:
        profile = _profile_word(profile_node)
    return ChangeSpeedLeaf(context, receiver, target, profile)


def _change_lane_factory(receiver, args, modifiers, context):
    lanes = args.get("num_of_lanes")
    if lanes is None:
        raise BuildError("change_lane needs a 'num_of_lanes' argument")
    side_node = args.get("side")
    if side_node is None:
        raise BuildError("change_lane needs a 'side' argument")
    side = _word(side_node, "side")
    if side not in ("left", "right"):
        raise BuildError(f"unknown lane change side '{side}'")
    return ChangeLaneLeaf(context, receiver, lanes, side)


def _set_lights_factory(receiver, args, modifiers, context):
    mode = args.get("mode")
    if mode is None:
        raise BuildError("set_lights needs a 'mode' argument")
    return SetLightsLeaf(context, receiver, mode)


def _assign_position_factory(receiver, args, modifiers, context):
    return AssignPositionLeaf(context, receiver, modifiers)


def _assign_orientation_factory(receiver, args, modifiers, context):
    heading = args.get("h") or args.get("heading")
    if heading is None:
        raise BuildError("assign_orientation needs an 'h' argument")
    return AssignOrientationLeaf(context, receiver, heading)


def _celestial_factory(receiver, args, modifiers, context):
    azimuth = args.get("azimuth")
    elevation = args.get("elevation")
    if azimuth is None or elevation is None:
        raise BuildError(
            "assign_celestial_position needs 'azimuth' and 'elevation'")
    return CelestialLeaf(context, azimuth, elevation)


def _follow_path_factory(receiver, args, modifiers, context):
    distance = args.get("distance")
    if distance is None:
        raise BuildError("follow_path needs a 'distance' argument")
    return FollowPathLeaf(context, receiver, distance, args.get("speed"))


def builtin_registry() -> MethodRegistry:
    registry = MethodRegistry()
    registry.register("vehicle", "drive", _drive_factory)
    registry.register("vehicle", "change_speed", _change_speed_factory)
    registry.register("vehicle", "change_lane", _change_lane_factory)
    registry.register("vehicle", "assign_position", _assign_position_factory)
    registry.register("vehicle", "assign_orientation",
                      _assign_orientation_factory)
    registry.register("vehicle", "set_lights", _set_lights_factory)
    registry.register("vehicle", "follow_path", _follow_path_factory)
    registry.register("stationary_object", "assign_position",
                      _assign_position_factory)
    registry.register("environment", "assign_celestial_position",
                      _celestial_factory)
    return registry


# ---------------------------------------------------------------------------
# placement


def _modifier_args(mod: ast.ModifierApplication) -> dict:
    """Modifier arguments keyed by name (unnamed ones by index), minus `at`."""
    out = {}
    index = 0
    for arg in mod.args:
        if arg.name == "at":
            continue
        if arg.name is None:
            out[index] = arg.value
            index += 1
        else:
            out[arg.name] = arg.value
    return out


def place_actor(context: ExecutionContext, actor: Actor, modifiers,
                placed: set[str] | None = None) -> bool:
    """Apply placement modifiers to one actor; True if a pose was set.

    Exactly one of three paradigms applies: a default spawn on a numbered
    lane, a pose relative to an already placed anchor, or an absolute
    Cartesian pose that takes the actor off the road network.
    """
    world = context.world
    lane_args = position_args = None
    speed_node = None
    for mod in modifiers:
        if mod.name == "lane":
            lane_args = _modifier_args(mod)
        elif mod.name == "position":
            position_args = _modifier_args(mod)
        elif mod.name == "speed":
            speed_node = _modifier_args(mod).get(0)

    default_map = lane_args is not None and 0 in lane_args
    relative = ((lane_args is not None
                 and ("side_of" in lane_args or "side" in lane_args))
                or (position_args is not None
                    and ("behind" in position_args
                         or "ahead_of" in position_args)))
    absolute = position_args is not None and (
        "x" in position_args or "y" in position_args)
    if default_map + relative + absolute > 1:
        raise InitConflict(
            f"actor '{actor.name}' mixes start placement paradigms")

    did_place = False
    if default_map:
        lane_index = int(round(_magnitude(
            context.eval(lane_args[0]), DIMENSIONLESS, "lane")))
        s = world.road.spawn_on_lane(lane_index)
        if s is None:
            raise InitConflict(
                f"no default spawn point on lane {lane_index} "
                f"for actor '{actor.name}'")
        world.place_on_lane(actor, lane_index, s)
        did_place = True
    elif relative:
        anchor_name = None
        side = None
        if lane_args is not None:
            side_node = lane_args.get("side")
            if side_node is not None:
                side = _word(side_node, "side")
            anchor_node = lane_args.get("side_of")
            if anchor_node is not None:
                anchor_name = _word(anchor_node, "side_of")
        distance = 0.0
        sign = -1.0
        if position_args is not None:
            for key, ahead in (("behind", False), ("ahead_of", True)):
                node = position_args.get(key)
                if node is None:
                    continue
                name = _word(node, key)
                if anchor_name is not None and name != anchor_name:
                    raise InitConflict(
                        f"actor '{actor.name}' names two different anchors")
                anchor_name = name
                sign = 1.0 if ahead else -1.0
            node = position_args.get("distance")
            if node is not None:
                distance = _magnitude(
                    context.eval(node), LENGTH, "placement distance")
        if anchor_name is None:
            raise InitConflict(
                f"actor '{actor.name}' has a relative placement "
                f"without an anchor")
        if placed is not None and anchor_name not in placed:
            raise InitConflict(
                f"actor '{actor.name}' is anchored to '{anchor_name}', "
                f"which is not placed yet")
        anchor = context.actor(anchor_name)
        if anchor.lane is None:
            raise InitConflict(
                f"anchor '{anchor_name}' is not on the road network")
        lane_index = anchor.lane
        if side == "right":
            lane_index += 1
        elif side == "left":
            lane_index -= 1
        elif side is not None:
            raise InitConflict(f"unknown placement side '{side}'")
        world.place_on_lane(actor, lane_index, anchor.s + sign * distance)
        did_place = True
    elif absolute:
        def coord(key):
            node = position_args.get(key)
            if node is None:
                return 0.0
            return _magnitude(context.eval(node), LENGTH, key)
        x = coord("x")
        y = coord("y")
        heading = 0.0
        node = position_args.get("h")
        if node is not None:
            heading = _magnitude(context.eval(node), ANGLE, "h")
        world.place_absolute(actor, x, y, heading)
        did_place = True

    if speed_node is not None:
        speed = _magnitude(context.eval(speed_node), SPEED, "start speed")
        actor.speed = speed
        actor.target_speed = speed
    return did_place


class ScenarioInitializer:
    """Places every actor before the first tick from `at: start` constraints."""

    def __init__(self, context: ExecutionContext):
        self.context = context
        self.placed: set[str] = set()

    def run(self, plan: list[ast.ActionInvocation]) -> None:
        for invocation in plan:
            actor = self.context.actor(invocation.actor)
            if place_actor(self.context, actor, invocation.modifiers,
                           placed=self.placed):
                self.placed.add(invocation.actor)
        self._place_remaining()
        self._check_overlap()

    def _place_remaining(self) -> None:
        """Put actors without start constraints on free default spawns."""
        world = self.context.world
        for name, actor in self.context.actors.items():
            if name in self.placed:
                continue
            for lane_index, s in world.road.spawns:
                world.place_on_lane(actor, lane_index, s)
                others = [a for a in world.actors.values() if a is not actor]
                if not any(overlaps(actor, other) for other in others):
                    break
            else:
                raise InitConflict(
                    f"no free default spawn point for actor '{name}'")
            self.placed.add(name)

    def _check_overlap(self) -> None:
        actors = list(self.context.world.actors.values())
        for i, a in enumerate(actors):
            for b in actors[i + 1:]:
                if overlaps(a, b):
                    raise SpawnCollision(
                        f"actors '{a.name}' and '{b.name}' overlap at start")


# ---------------------------------------------------------------------------
# tree builder


def _has_start_modifier(invocation: ast.ActionInvocation) -> bool:
    for mod in invocation.modifiers:
        for arg in mod.args:
            if (arg.name == "at" and isinstance(arg.value, ast.Identifier)
                    and arg.value.name == "start"):
                return True
    return False


class BehaviorTreeBuilder:
    """Lowers a resolved scenario body to a behavior tree.

    Invocations carrying an `at: start` modifier are collected into the
    placement plan instead of becoming tree nodes.
    """

    def __init__(self, scenario: ScenarioInfo, registry: MethodRegistry,
                 context: ExecutionContext, filename: str = "<string>"):
        self.scenario = scenario
        self.registry = registry
        self.context = context
        self.filename = filename
        self.plan: list[ast.ActionInvocation] = []

    def build(self) -> BtNode:
        body = self.scenario.decl.body
        if body is None:
            return Sequence((), label="serial")
        return self._composition(body.root)

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
        if isinstance(node, ast.ActionInvocation):
            if _has_start_modifier(node):
                self.plan.append(node)
                return None
            return self._invocation(node)
        raise BuildError(
            f"cannot lower a {type(node).__name__} inside a composition")

    def _wait(self, node: ast.WaitStatement) -> BtNode:
        cond = node.condition
        if isinstance(cond, ast.EventRef):
            return EventWait(cond.name, label=f"wait @{cond.name}",
                             span=node.span)
        if isinstance(cond, ast.RiseCondition):
            return EdgeCondition("rise", lambda _: self.context.eval(cond.expr),
                                 label="wait rise", span=node.span)
        if isinstance(cond, ast.FallCondition):
            return EdgeCondition("fall", lambda _: self.context.eval(cond.expr),
                                 label="wait fall", span=node.span)
        if isinstance(cond, ast.ElapsedCondition):
            seconds = _magnitude(self.context.eval(cond.duration),
                                 DURATION, "elapsed duration")
            return Timer(seconds, label="wait elapsed", span=node.span)
        if isinstance(cond, ast.BoolCondition):
            return Condition(lambda _: self.context.eval(cond.expr), label="wait",
                             span=node.span)
        raise BuildError(f"cannot lower a {type(cond).__name__} wait")

    def _invocation(self, node: ast.ActionInvocation) -> BtNode:
        type_name = self.scenario.fields.get(node.actor)
        factory = None
        if type_name is not None:
            factory = self.registry.lookup(type_name, node.action)
        if factory is None:
            diagnostic = Diagnostic(
                ERROR, "E007",
                f"action '{node.action}' is not supported by the execution "
                f"backend for type '{type_name}'",
                node.span, self.filename)
            raise UnsupportedAction(diagnostic)
        args = {}
        index = 0
        for arg in node.args:
            if arg.name is None:
                args[index] = arg.value
                index += 1
            else:
                args[arg.name] = arg.value
        leaf = factory(node.actor, args, node.modifiers, self.context)
        if leaf.label is None:
            leaf.label = f"{node.actor}.{node.action}"
        if leaf.span is None:
            leaf.span = node.span
        return leaf


# ---------------------------------------------------------------------------
# compiled scenario


_WORLD_KINDS = {
    "vehicle": "vehicle",
    "traffic_participant": "vehicle",
    "person": "prop",
    "stationary_object": "prop",
}


@dataclass
class CompiledScenario:
    """A lowered scenario bound to a live world, ready to tick."""

    scenario: ScenarioInfo
    root: BtNode
    world: World
    context: ExecutionContext
    blackboard: Blackboard
    plan: list[ast.ActionInvocation]
    filename: str = "<string>"
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
        """One full tick: behaviors first, then world physics."""
        now = self.next_tick
        self.next_tick += 1
        self.blackboard.begin_tick(now)
        self.tick_ctx.now = now
        if now == 0:
            self.blackboard.emit(GO_SIGNAL, now)
        status = self.root.tick(self.tick_ctx)
        self.world.step()
        return status

    def run(self, max_ticks: int) -> Status | None:
        """Tick until the tree settles; None if the budget runs out first."""
        for _ in range(max_ticks):
            status = self.step_tick()
            if status is not RUNNING:
                return status
        return None


def compile_scenario(analysis: Analysis, *,
                     registry: MethodRegistry | None = None,
                     road: RoadMap | None = None,
                     dt: float = 0.05,
                     filename: str = "<string>",
                     initialize: bool = True) -> CompiledScenario:
    """Lower a clean analysis into an initialized, runnable scenario.

    With `initialize=False` the tree is built but no actor is placed,
    which is enough for structural inspection.
    """
    if not analysis.ok:
        raise ValueError("cannot compile a program with semantic errors")
    if not analysis.scenarios:
        raise ValueError("no scenario to compile")
    scenario = analysis.scenarios[0]

    if registry is None:
        registry = builtin_registry()
    if road is None:
        if scenario.map_name is not None:
            road = load_map(f"builtin:{scenario.map_name}")
        else:
            road = TOWN06

    world = World(road, dt)
    context = ExecutionContext(world, scenario, analysis.evaluators)
    for name, type_name in scenario.fields.items():
        kind = _WORLD_KINDS.get(type_name)
        if kind == "vehicle":
            context.bind_actor(name, world.add_vehicle(name))
        elif kind == "prop":
            context.bind_actor(name, world.add_prop(name))

    context.evaluate_variables()
    builder = BehaviorTreeBuilder(scenario, registry, context, filename)
    root = builder.build()
    if initialize:
        ScenarioInitializer(context).run(builder.plan)
    return CompiledScenario(scenario, root, world, context,
                            Blackboard(), builder.plan, filename)


def compile_source(source: str, filename: str = "<string>", *,
                   registry: MethodRegistry | None = None,
                   road: RoadMap | None = None,
                   dt: float = 0.05) -> CompiledScenario:
    """Check and compile source text; raises CompileError on the first error."""
    if registry is None:
        registry = builtin_registry()
    analysis = check(source, filename, extra_actions=registry.action_table())
    if not analysis.ok:
        raise CompileError(analysis.errors[0])
    return compile_scenario(analysis, registry=registry, road=road, dt=dt,
                            filename=filename)
