"""Two-pass semantic analysis and expression lowering.

The definition pass builds each scenario's scope and registers every declared
symbol (fields, vars, and event names harvested from emit/wait sites) so
forward references are legal by construction.  The resolution pass then
binds references, walks actor inheritance chains, checks dimensions, binds
the arguments of actions to their signatures in an action table (a
backend's, or else the prelude's) and those of modifiers and queries to
theirs in the prelude, and binds the scenario to a builtin map.  It also
rejects cyclic ``var`` initializers, reads of actor state where no actor is
placed yet (``var`` initializers, ``elapsed`` durations and lane
numbers), start placements that contradict each other, and reads of
attributes that no ``keep`` sets.
Diagnostics accumulate in source order; errors never abort the pass, so one
run reports everything.

While it types an expression, the resolution pass also lowers it to an
evaluator ``fn(world)`` that returns a float, a bool or a str.  A quantity
is its SI magnitude: its dimension is known here, in its ``QuantityType``,
and is not checked again at run time.  ``ScenarioInfo.invocations`` keeps
each action invocation as bound, and ``Analysis.evaluators`` maps the ``id``
of every wait condition to its evaluator; ``world`` is the run's
``World``, and ``live_actor`` looks an actor up in it.  The vars are
evaluated once, here, and every reference to one is its value.  Literals,
var references, attribute reads and every operator whose operands are
constants are folded, so a constant that cannot be computed (``1m / 0``) is
a diagnostic; only the live world is read at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from . import ast, prelude, units
from .diagnostics import (ERROR, WARNING, CompileError, Diagnostic, Span,
                          collector_paused)
from .parser import parse
from .units import (DIMENSIONLESS, DURATION, LENGTH, SPEED, Dimension,
                    dimension_name)
from .world import BUILTIN_MAPS

# a lowered expression: fn(world) -> float | bool | str; None where the
# expression has errors
Evaluator = Callable[[Any], Any]


class EvalError(RuntimeError):
    """Runtime expression evaluation failed."""


# static expression types

class ExprType:
    pass


@dataclass(frozen=True, slots=True)
class QuantityType(ExprType):
    dim: Dimension


@dataclass(frozen=True, slots=True)
class ActorRef(ExprType):
    type_name: str
    instance: str


@dataclass(frozen=True, slots=True)
class PositionType(ExprType):
    instance: str


@dataclass(frozen=True, slots=True)
class EnumWord(ExprType):
    word: str


# compared with ``is``
STRING = ExprType()
BOOL = ExprType()
UNKNOWN = ExprType()

AT_START = EnumWord("start")

# the type of a number, of each unit's literals and of each physical type's
# vars, made once: a frozen dataclass is slow to build
NUMBER = QuantityType(DIMENSIONLESS)
_UNIT_TYPES = {unit: QuantityType(dim)
               for unit, (_, dim) in units.UNITS.items()}
_VAR_TYPES = {name: QuantityType(dim)
              for name, dim in prelude.PHYSICAL_TYPES.items()}


@dataclass
class Symbol:
    name: str
    kind: str  # actor-instance | variable | event
    declared_type: str | None = None
    span: Span | None = None


class Scope:
    """The symbols a scenario declares; the prelude's names are not in it."""

    def __init__(self):
        self.symbols: dict[tuple[str, str], Symbol] = {}

    def define(self, symbol: Symbol) -> Symbol | None:
        """Add a symbol; returns the existing one on a same-kind collision."""
        key = (symbol.name, symbol.kind)
        existing = self.symbols.get(key)
        if existing is not None:
            return existing
        self.symbols[key] = symbol
        return None

    def lookup(self, name: str, kinds: tuple[str, ...]) -> Symbol | None:
        for kind in kinds:
            symbol = self.symbols.get((name, kind))
            if symbol is not None:
                return symbol
        return None


class Modifiers(dict):
    """The arguments of the modifiers the backend reads, as ``{modifier:
    {parameter: evaluator}}``, and for an assign_position the ``paradigm``
    that places its actor ("lane", "relative", "absolute" or None) and the
    ``anchor`` of a relative placement."""

    paradigm: str | None = None
    anchor: str | None = None


@dataclass(slots=True)
class Invocation:
    """An action invocation with its arguments bound by parameter name."""
    node: ast.ActionInvocation
    args: dict[str, Evaluator]
    modifiers: Modifiers


@dataclass
class ScenarioInfo:
    decl: ast.ScenarioDecl
    scope: Scope
    map_name: str | None = None
    fields: dict[str, str] = field(default_factory=dict)
    constraints: dict[str, dict[str, str]] = field(default_factory=dict)
    variables: dict[str, ast.VarDecl] = field(default_factory=dict)
    # the value of each var whose initializer could be computed
    var_values: dict[str, float] = field(default_factory=dict)
    # each action invocation by the id of its node
    invocations: dict[int, Invocation] = field(default_factory=dict)
    # the invocations with an `at: start` modifier, in tree order
    plan: list[Invocation] = field(default_factory=list)
    events: list[str] = field(default_factory=list)


@dataclass
class Analysis:
    diagnostics: list[Diagnostic]
    program: ast.Program | None = None
    scenarios: list[ScenarioInfo] = field(default_factory=list)
    # the evaluator of each wait condition by the id of its expression
    evaluators: dict[int, Evaluator | None] = field(default_factory=dict)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors


# each var's reads of other vars, the diagnostic count after its own, and
# its initializer's evaluator (None on an error)
_VarReads = dict[str, tuple[list[str], int, Evaluator | None]]


def unsupported_action(action: str, type_name: str) -> str:
    """The E007 message: a declared action that no backend runs."""
    return (f"action '{action}' is not supported by the execution backend "
            f"for type '{type_name}'")


class Analyzer:
    def __init__(self, filename: str,
                 actions: prelude.ActionTable | None = None):
        self.filename = filename
        self.actions = prelude.ACTIONS if actions is None else actions
        self.diagnostics: list[Diagnostic] = []
        self.evaluators: dict[int, Evaluator | None] = {}
        self._names: dict[tuple[str, str], Evaluator] = {}
        self._reads: list[str] | None = None  # vars the initializer reads
        # (what, why) while an expression is computed before any actor is
        # placed: a var initializer, an elapsed duration or a lane number
        self._fixed: tuple[str, str] | None = None
        # each var reference's constant evaluator, once the vars have values
        self._constants: dict[str, Evaluator] = {}
        # the scenario whose body is resolved, its keep constraints known,
        # and the paradigm of the latest start placement of each actor its
        # start placements have placed so far (None after an error)
        self._info: ScenarioInfo | None = None
        self._placed: dict[str, str | None] = {}
        # the actors an absolute placement has taken off the road network
        # before the statement resolved, in run order; the actors with a
        # lane or relative placement, or one with an error, anywhere in the
        # body; and the relative placements made after tick 0 to an actor
        # of the first set, as (actor, anchor, span)
        self._off: set[str] = set()
        self._on: set[str] = set()
        self._later: list[tuple[str, str, Span]] = []

    def report(self, severity: str, code: str, message: str, span: Span) -> None:
        self.diagnostics.append(
            Diagnostic(severity, code, message, span, self.filename))

    def error(self, code: str, message: str, span: Span) -> None:
        self.report(ERROR, code, message, span)

    # definition pass

    def definition_pass(self, program: ast.Program) -> list[ScenarioInfo]:
        infos = []
        for scen in program.scenarios[1:]:
            self.error("E002", f"a file declares one scenario; "
                       f"'{scen.name}' is a second", scen.span)
        for scen in program.scenarios:
            scope = Scope()
            info = ScenarioInfo(scen, scope)
            for member in scen.members:
                if isinstance(member, ast.FieldDecl):
                    self._define(scope, Symbol(member.name, "actor-instance",
                                               member.type_name, member.span))
                elif isinstance(member, ast.VarDecl):
                    self._define(scope, Symbol(member.name, "variable",
                                               member.type_name, member.span))
            if scen.body is not None:
                self._define_events(scen.body.root, scope)
            info.events = sorted(name for (name, kind) in scope.symbols
                                 if kind == "event")
            infos.append(info)
        return infos

    def _define(self, scope: Scope, symbol: Symbol) -> None:
        existing = scope.define(symbol)
        if existing is not None:
            self.error("E005", f"duplicate definition of '{symbol.name}'",
                       symbol.span)

    def _define_events(self, node: ast.Node, scope: Scope) -> None:
        # events are open-world: any emit or wait site declares the name
        if isinstance(node, ast.EmitStatement):
            scope.define(Symbol(node.event, "event", span=node.span))
        elif isinstance(node, ast.WaitStatement) \
                and isinstance(node.condition, ast.EventRef):
            scope.define(Symbol(node.condition.name, "event",
                                span=node.condition.span))
        elif isinstance(node, ast.Composition):
            for child in node.children:
                self._define_events(child, scope)

    # resolution pass

    def resolution_pass(self, infos: list[ScenarioInfo]) -> None:
        for info in infos:
            reads: _VarReads = {}
            for member in info.decl.members:
                if isinstance(member, ast.FieldDecl):
                    self._resolve_field(member, info)
                else:
                    self._resolve_var(member, info, reads)
            self._evaluate_vars(info, reads)
            if info.decl.body is not None:
                # A var initializer cannot hold an attribute read without
                # an error, so only the body's reads are checked.
                self._info = info
                self._constants = {name: partial(_constant, value)
                                   for name, value in info.var_values.items()}
                self._placed, self._later = {}, []
                self._off, self._on = set(), set()
                self._resolve_behavior(info.decl.body.root, info.scope)
                self._info = None
                for actor, anchor, span in self._later:
                    if anchor not in self._on:
                        self._off_road(actor, anchor, span)

    def _resolve_field(self, decl: ast.FieldDecl, info: ScenarioInfo) -> None:
        if decl.type_name not in prelude.ACTOR_TYPES:
            self.error("E001", f"undefined type '{decl.type_name}'", decl.span)
            return
        info.fields[decl.name] = decl.type_name
        for keep in decl.constraints:
            self._resolve_keep(keep, decl, info)

    def _resolve_keep(self, keep: ast.KeepConstraint, decl: ast.FieldDecl,
                      info: ScenarioInfo) -> None:
        expr = keep.expr
        shape_ok = (isinstance(expr, ast.Binary) and expr.op == "=="
                    and isinstance(expr.lhs, ast.MemberAccess)
                    and isinstance(expr.lhs.receiver, ast.Identifier)
                    and expr.lhs.receiver.name == "it")
        if not shape_ok:
            self.error("E002",
                       "keep constraint must have the form it.<attribute> == <value>",
                       keep.span)
            return
        attr = expr.lhs.member
        if not prelude.has_attribute(decl.type_name, attr):
            self.error("E001",
                       f"type '{decl.type_name}' has no attribute '{attr}'",
                       expr.lhs.span)
            return
        if not isinstance(expr.rhs, ast.StringLiteral):
            self.error("E002", f"attribute '{attr}' expects a string value",
                       expr.rhs.span)
            return
        value = expr.rhs.value
        info.constraints.setdefault(decl.name, {})[attr] = value
        if decl.type_name == "map" and attr == "map_file":
            if value.lower() not in BUILTIN_MAPS:
                self.error("E006", f"unknown map '{value}'", expr.rhs.span)
            else:
                info.map_name = value.lower()

    def _resolve_var(self, decl: ast.VarDecl, info: ScenarioInfo,
                     reads: _VarReads) -> None:
        declared = prelude.PHYSICAL_TYPES.get(decl.type_name)
        if declared is None:
            if decl.type_name in prelude.ACTOR_TYPES:
                self.error("E002",
                           f"'{decl.type_name}' is not a physical type",
                           decl.span)
            else:
                self.error("E001", f"undefined type '{decl.type_name}'",
                           decl.span)
            return
        info.variables[decl.name] = decl
        self._reads = []
        self._fixed = ("a var initializer", "vars are evaluated")
        evaluator = self._check_initializer(decl, declared, info.scope)
        reads[decl.name] = (self._reads, len(self.diagnostics), evaluator)
        self._reads = self._fixed = None

    def _evaluate_vars(self, info: ScenarioInfo, reads: _VarReads) -> None:
        """Evaluate each var once, after every var its initializer reads;
        a var on a cycle, with an error, or reading a var without a value
        gets none.  Each cycle is reported once, at its var declared first,
        and each initializer that cannot be computed at itself; either
        diagnostic follows that var's own."""
        declared = {name: i for i, name in enumerate(reads)}
        found = []
        # a var that reads none is on no cycle and may go first
        graph = {name: names for name, (names, *_) in reads.items() if names}
        order = [name for name in reads if name not in graph]
        for component in _components(graph):
            order.extend(component)
            if len(component) > 1 or component[0] in graph[component[0]]:
                first = min(component, key=declared.__getitem__)
                found.append((reads[first][1], declared[first],
                              f"initializer of '{first}' depends on itself",
                              info.variables[first].span))
        values = info.var_values
        for name in order:
            names, at, evaluator = reads[name]
            if evaluator is None or not all(read in values for read in names):
                continue
            try:
                values[name] = evaluator(values)
            except units.UnitsError as exc:
                found.append((at, declared[name], str(exc),
                              info.variables[name].init.span))
        found.sort(key=lambda fault: fault[:2], reverse=True)
        for at, _, message, span in found:
            self.diagnostics.insert(at, Diagnostic(ERROR, "E002", message,
                                                   span, self.filename))

    def _check_initializer(self, decl: ast.VarDecl, declared: Dimension,
                           scope: Scope) -> Evaluator | None:
        """Type and lower a var initializer; returns its evaluator, None if
        the initializer has an error."""
        init = decl.init
        if isinstance(init, ast.Binary) and init.op == "*":
            # a product may only work if the right factor is read as a scalar
            lhs = self.resolve_expr(init.lhs, scope)
            rhs = self.resolve_expr(init.rhs, scope)
            lhs_type, rhs_type = lhs[0], rhs[0]
            coerced = (isinstance(lhs_type, QuantityType)
                       and isinstance(rhs_type, QuantityType)
                       and units.coercible_product(lhs_type.dim,
                                                   rhs_type.dim, declared))
            if coerced:
                self.report(
                    WARNING, "W001",
                    f"dimensional coercion applied in initializer of "
                    f"'{decl.name}': {dimension_name(rhs_type.dim)} operand "
                    f"reinterpreted as a dimensionless scalar",
                    init.span)
            result, evaluator = self._binary(init, lhs, rhs)
            if coerced:
                # the same product of magnitudes, typed as declared
                return evaluator
        else:
            result, evaluator = self.resolve_expr(init, scope)
        if result is UNKNOWN:
            return None
        if not isinstance(result, QuantityType):
            self.error("E002", f"initializer of '{decl.name}' is not a quantity",
                       init.span)
            return None
        if result.dim != declared:
            self.error("E003",
                       f"initializer of '{decl.name}' has dimension "
                       f"{dimension_name(result.dim)}, expected "
                       f"{dimension_name(declared)}", init.span)
            return None
        return evaluator

    def _resolve_behavior(self, node: ast.Node, scope: Scope) -> None:
        if isinstance(node, ast.Composition):
            # a branch of a parallel or one_of may run before its siblings'
            # placements, or without them
            before = self._off
            for child in node.children:
                if node.kind != "serial":
                    self._off = set(before)
                self._resolve_behavior(child, scope)
            if node.kind != "serial":
                self._off = before
        elif isinstance(node, ast.ActionInvocation):
            self._resolve_invocation(node, scope)
        elif isinstance(node, ast.WaitStatement):
            self._resolve_condition(node.condition, scope)

    def _resolve_invocation(self, node: ast.ActionInvocation, scope: Scope) -> None:
        # signature None: the actor or the action is undefined (typed only)
        signature = receiver = None
        actor_sym = scope.lookup(node.actor, ("actor-instance",))
        if actor_sym is None:
            self.error("E001", f"undefined actor '{node.actor}'", node.span)
        else:
            type_name = actor_sym.declared_type
            receiver = ActorRef(type_name, node.actor)
            signature = prelude.find_action(type_name, node.action,
                                            self.actions)
            declared = prelude.find_action(type_name, node.action) is not None
            if signature is None and declared:
                self.error("E007", unsupported_action(node.action, type_name),
                           node.span)
            elif signature is None:
                self.error("E004",
                           f"action '{node.action}' is not defined for actor "
                           f"type '{type_name}' or its ancestors", node.span)
        args = self._arguments(node.action, signature, node.args, node.span,
                               scope)[1]
        # the bound arguments of the modifiers read; None on an error
        modifiers: Modifiers | None = Modifiers()
        at_start = False
        for modifier in node.modifiers:
            if modifier.name not in prelude.MODIFIERS:
                self.error("E004", f"unknown modifier '{modifier.name}'",
                           modifier.span)
            signature = prelude.MODIFIERS.get(modifier.name)
            typed, bound = self._arguments(modifier.name, signature,
                                           modifier.args, modifier.span, scope)
            if signature is not None:
                if bound is None:
                    modifiers = None
                elif modifiers is not None:
                    modifiers.setdefault(modifier.name, {}).update(bound)
            if receiver is not None:
                for arg, (arg_type, _) in zip(modifier.args, typed):
                    if arg.name == "at" and arg_type == AT_START:
                        # the initializer places the receiver before tick 0
                        at_start = True
                        self._in_world(receiver, arg.span)
                        if node.action != "assign_position":
                            self.error("E002", "'at: start' places an actor "
                                       "only in assign_position, not in "
                                       f"'{node.action}'", arg.span)
        if node.action == "assign_position" and receiver is not None:
            self._check_placement(node, modifiers, at_start)
        invocation = self._info.invocations[id(node)] = Invocation(
            node, args or {}, modifiers or Modifiers())
        if at_start:
            self._info.plan.append(invocation)

    def _check_placement(self, node: ast.ActionInvocation,
                         modifiers: Modifiers | None, at_start: bool) -> None:
        """Check that an assign_position places its actor in at most one
        way, relative to exactly one anchor, and, before tick 0, only
        relative to an actor that an earlier start placement puts on the
        road network.  After tick 0, the anchor must not be one that an
        absolute placement run before has taken off the road network and
        that no placement in the body puts back on it; `resolution_pass`
        checks that once the body is resolved.

        ``modifiers`` holds the bound arguments of its modifiers, or None
        if one has an error; the actor then counts as placed.  The way and
        the anchor are recorded in it.
        """
        actor = node.actor
        if modifiers is None:
            self._on.add(actor)
            if at_start:
                self._placed[actor] = None
            return
        lane = modifiers.get("lane", {})
        position = modifiers.get("position", {})
        # an actor argument's evaluator is partial(live_actor, name)
        anchors = {evaluator.args[0]
                   for evaluator in (lane.get("side_of"), position.get("behind"),
                                     position.get("ahead_of")) if evaluator}
        relative = bool(anchors) or "side" in lane
        places = [paradigm for paradigm, used in (
            ("lane", "lane" in lane), ("relative", relative),
            ("absolute", "x" in position or "y" in position)) if used]
        if len(places) > 1:
            self.error("E002",
                       f"actor '{actor}' mixes start placement paradigms",
                       node.span)
        elif relative and len(anchors) != 1:
            self.error("E002", f"actor '{actor}' names two different anchors"
                       if anchors else f"actor '{actor}' has a relative "
                       f"placement without an anchor", node.span)
        elif at_start and relative:
            anchor = min(anchors)
            if anchor not in self._placed:
                self.error("E002", f"actor '{actor}' is anchored to "
                           f"'{anchor}', which is not placed yet", node.span)
            elif self._placed[anchor] == "absolute":
                self._off_road(actor, anchor, node.span)
        elif relative and min(anchors) in self._off:
            self._later.append((actor, min(anchors), node.span))
        if places:
            (self._off if places[0] == "absolute" else self._on).add(actor)
            modifiers.paradigm = places[0]
            modifiers.anchor = min(anchors, default=None)
        if at_start and places:
            self._placed[actor] = places[0]

    def _off_road(self, actor: str, anchor: str, span: Span) -> None:
        self.error("E002", f"actor '{actor}' is anchored to '{anchor}', "
                   f"which is not on the road network", span)

    def _arguments(self, callee: str, signature: prelude.Signature | None,
                   args: list[ast.Argument], span: Span, scope: Scope):
        """The typed arguments of an action or a modifier, and what ``_bind``
        returns (None with no signature); a ``LANES`` one is fixed before
        any actor is placed."""
        if signature is None:
            return [self.resolve_expr(arg.value, scope) for arg in args], None
        pairs = signature.bind(args)
        typed = []
        for name, arg in pairs:
            if signature.params.get(name) == prelude.LANES:
                self._fixed = (f"'{callee}' argument '{name}'",
                               "its value is fixed")
            typed.append(self.resolve_expr(arg.value, scope))
            self._fixed = None
        return typed, self._bind(callee, signature, pairs, typed, span)

    def _bind(self, callee: str, signature: prelude.Signature, pairs: list,
              typed: list, span: Span):
        """Match typed arguments, paired with their parameter names by
        ``signature.bind``, to the signature, reporting each mismatch.

        Names, kinds and words that do not fit are E002, a quantity of the
        wrong dimension is E003.  Returns the evaluators of the arguments by
        parameter name, or None if one was reported or is of unknown type.
        """
        reported = len(self.diagnostics)
        bound = {}
        for (name, arg), arg_typed in zip(pairs, typed):
            kind = signature.params.get(name)
            if kind is None:
                self.error("E002",
                           f"unexpected unnamed argument to '{callee}'"
                           if name is None else
                           f"'{callee}' has no parameter '{name}'", arg.span)
            elif name in bound:
                self.error("E002",
                           f"'{callee}' argument '{name}' is given twice",
                           arg.span)
            else:
                bound[name] = arg_typed[1]
                self._check_kind(kind, arg_typed,
                                 f"'{callee}' argument '{name}'", arg.span)
        for name in signature.required:
            if name not in bound:
                self.error("E002", f"'{callee}' is missing its '{name}' argument",
                           span)
        if len(self.diagnostics) > reported or any(
                arg_type is UNKNOWN for arg_type, _ in typed):
            return None
        return bound

    def _check_kind(self, kind: prelude.Kind, typed, what: str,
                    span: Span) -> None:
        arg_type, evaluator = typed
        if arg_type is UNKNOWN:
            return
        dim = (kind.dim if isinstance(kind, prelude.NonNegative) else
               DIMENSIONLESS if kind == prelude.LANES else kind)
        if isinstance(dim, Dimension):
            if not isinstance(arg_type, QuantityType):
                self.error("E002",
                           f"{what} must be a {dimension_name(dim)} quantity",
                           span)
            elif arg_type.dim not in (dim, DIMENSIONLESS):
                self.error("E003",
                           f"{what} has dimension "
                           f"{dimension_name(arg_type.dim)}, expected "
                           f"{dimension_name(dim)}", span)
            elif kind == prelude.LANES:
                # it reads no actor: a constant, or None after an error
                value = constant_value(evaluator)
                if value is not None and not (value >= 0
                                              and value.is_integer()):
                    self.error("E002", f"{what} must be {kind}", span)
            elif isinstance(kind, prelude.NonNegative):
                value = constant_value(evaluator)
                if value is not None and value < 0:
                    self.error("E002", f"{what} must not be negative", span)
        elif isinstance(kind, frozenset):
            if not (isinstance(arg_type, EnumWord) and arg_type.word in kind):
                self.error("E002", f"{what} must be one of "
                                   f"{', '.join(sorted(kind))}", span)
        elif isinstance(kind, tuple):
            if arg_type is not STRING:
                self.error("E002", f"{what} must be {prelude.STRING}", span)
            # a string is always a constant: a literal or a keep's value
            elif constant_value(evaluator) not in kind:
                self.error("E002", f"{what} must be one of "
                                   f"{', '.join(sorted(kind))}", span)
        elif kind == prelude.ACTOR and isinstance(arg_type, ActorRef):
            self._in_world(arg_type, span)
        elif not (kind == prelude.STRING and arg_type is STRING):
            self.error("E002", f"{what} must be {kind}", span)

    def _in_world(self, actor: ActorRef, span: Span) -> bool:
        """Whether the actor exists in the world; reports E002 if not."""
        actor_type = prelude.ACTOR_TYPES.get(actor.type_name)
        if actor_type is None or actor_type.world is not None:
            return True  # an undefined type is reported where it is declared
        self.error("E002", f"actor '{actor.instance}' of type "
                           f"'{actor.type_name}' is not in the world", span)
        return False

    def _resolve_condition(self, cond: ast.Node, scope: Scope) -> None:
        if isinstance(cond, (ast.RiseCondition, ast.FallCondition)):
            result = self._resolve_root(cond.expr, scope)[0]
            if result not in (BOOL, UNKNOWN):
                kind = "rise" if isinstance(cond, ast.RiseCondition) else "fall"
                self.error("E002", f"{kind}() requires a boolean condition",
                           cond.span)
        elif isinstance(cond, ast.ElapsedCondition):
            # the tree builder reads the duration once
            self._fixed = ("elapsed()", "its duration is fixed")
            result, evaluator = self._resolve_root(cond.duration, scope)
            self._fixed = None
            if result is not UNKNOWN and \
                    (not isinstance(result, QuantityType) or result.dim != DURATION):
                self.error("E003", "elapsed() requires a time duration",
                           cond.span)
            elif result is not UNKNOWN:
                # fixed: a constant, or None after an error
                value = constant_value(evaluator)
                if value is not None and value < 0:
                    self.error("E002", "elapsed() duration must not be "
                                       "negative", cond.span)
        elif isinstance(cond, ast.BoolCondition):
            result = self._resolve_root(cond.expr, scope)[0]
            if result not in (BOOL, UNKNOWN):
                self.error("E002", "wait requires a boolean condition", cond.span)

    # expression typing and lowering

    def _resolve_root(self, expr: ast.Node,
                      scope: Scope) -> tuple[ExprType, Evaluator | None]:
        """Type and lower a wait condition, keeping its evaluator."""
        typed = self.resolve_expr(expr, scope)
        self.evaluators[id(expr)] = typed[1]
        return typed

    def resolve_expr(self, expr: ast.Node,
                     scope: Scope) -> tuple[ExprType, Evaluator | None]:
        """Type an expression and lower it to its evaluator (None on error)."""
        # the eight expression nodes the parser builds, most frequent first
        if isinstance(expr, ast.Identifier):
            return self._resolve_name(expr, scope)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, self.resolve_expr(expr.lhs, scope),
                                self.resolve_expr(expr.rhs, scope))
        if isinstance(expr, ast.QuantityLiteral):
            value = units.from_literal(expr.value, expr.unit)
            return _UNIT_TYPES[expr.unit], partial(_constant, value)
        if isinstance(expr, ast.NumberLiteral):
            return NUMBER, partial(_constant, expr.value)
        if isinstance(expr, ast.MethodCall):
            return self._resolve_call(expr, scope)
        if isinstance(expr, ast.MemberAccess):
            return self._resolve_member(expr, scope)
        if isinstance(expr, ast.StringLiteral):
            return STRING, partial(_constant, expr.value)
        return self._resolve_unary(expr, scope)  # an ast.Unary

    def _resolve_name(self, expr: ast.Identifier, scope: Scope):
        name = expr.name
        symbol = scope.lookup(name, ("variable", "actor-instance"))
        if symbol is not None:
            if symbol.kind == "variable":
                result = _VAR_TYPES.get(symbol.declared_type)
                if result is None:
                    return UNKNOWN, None
                if self._reads is None:
                    # None if the var has no value, which is reported
                    return result, self._constants.get(name)
                self._reads.append(name)
                return result, self._name_evaluator("variable", name)
            return (ActorRef(symbol.declared_type, name),
                    self._name_evaluator("actor-instance", name))
        if name in prelude.ENUM_WORDS:
            return EnumWord(name), self._name_evaluator("enum-word", name)
        self.error("E001", f"undefined name '{name}'", expr.span)
        return UNKNOWN, None

    def _name_evaluator(self, kind: str, name: str) -> Evaluator:
        """The evaluator of a name, shared by every reference to it."""
        key = (kind, name)
        evaluator = self._names.get(key)
        if evaluator is None:
            evaluator = self._names[key] = partial(_NAME_EVALUATORS[kind], name)
        return evaluator

    def _reads_actors(self, what: str, span: Span) -> bool:
        """Whether a read of actor state is in an expression computed
        before any actor is placed; reports E002 if it is."""
        if self._fixed is None:
            return False
        subject, reason = self._fixed
        self.error("E002", f"{subject} cannot {what}: {reason} before any "
                   f"actor is placed", span)
        return True

    def _folded(self, result: ExprType, evaluator: Evaluator, span: Span):
        """``(result, evaluator)`` for an evaluator of constant operands,
        folded to a constant.

        The fold runs ``evaluator`` once, so a constant is computed by the
        same operations in the same order as at run time.  If that fails,
        the failure is E002 here and the type is unknown.
        """
        try:
            return result, partial(_constant, evaluator(None))
        except units.UnitsError as exc:
            self.error("E002", str(exc), span)
            return UNKNOWN, None

    def _resolve_unary(self, expr: ast.Unary, scope: Scope):
        operand, fn = self.resolve_expr(expr.operand, scope)
        if expr.op == "-":
            if not (operand is UNKNOWN or isinstance(operand, QuantityType)):
                self.error("E002", "negation requires a quantity", expr.span)
                return UNKNOWN, None
            result, evaluator = operand, lambda env: -fn(env)
        elif operand in (BOOL, UNKNOWN):
            result, evaluator = BOOL, lambda env: not fn(env)
        else:
            self.error("E002", "'not' requires a boolean", expr.span)
            return UNKNOWN, None
        if _is_constant(fn):
            return self._folded(result, evaluator, expr.span)
        return result, evaluator

    def _binary(self, expr: ast.Binary, lhs_typed, rhs_typed):
        """Type and lower ``expr`` from its typed and lowered operands."""
        (lhs, lhs_fn), (rhs, rhs_fn) = lhs_typed, rhs_typed
        op = expr.op
        if lhs is UNKNOWN or rhs is UNKNOWN:
            return (UNKNOWN if op in units.ARITHMETIC else BOOL), None
        if op in ("and", "or"):
            if not (lhs is BOOL and rhs is BOOL):
                self.error("E002", f"'{op}' requires boolean operands",
                           expr.span)
                return UNKNOWN, None
            result = BOOL
            if op == "and":
                evaluator = lambda env: lhs_fn(env) and rhs_fn(env)
            else:
                evaluator = lambda env: lhs_fn(env) or rhs_fn(env)
        elif op in units.ARITHMETIC:
            if not (isinstance(lhs, QuantityType)
                    and isinstance(rhs, QuantityType)):
                self.error("E002", "arithmetic requires quantity operands",
                           expr.span)
                return UNKNOWN, None
            if op in ("+", "-"):
                if lhs.dim != rhs.dim:
                    self.error("E003",
                               f"cannot apply '{op}' to "
                               f"{dimension_name(lhs.dim)} and "
                               f"{dimension_name(rhs.dim)}", expr.span)
                    return UNKNOWN, None
                result = lhs
            elif op == "*":
                result = QuantityType(lhs.dim * rhs.dim)
            else:
                result = QuantityType(lhs.dim / rhs.dim)
            evaluator = partial(_arithmetic, units.ARITHMETIC[op], lhs_fn,
                                rhs_fn)
        else:  # a comparison, of quantities or of strings
            quantities = (isinstance(lhs, QuantityType)
                          and isinstance(rhs, QuantityType))
            if quantities and lhs.dim != rhs.dim:
                self.error("E003",
                           f"cannot compare {dimension_name(lhs.dim)} with "
                           f"{dimension_name(rhs.dim)}", expr.span)
                return BOOL, None
            if not (quantities or lhs is STRING and rhs is STRING
                    and op in ("==", "!=")):
                self.error("E002", "incomparable operand types", expr.span)
                return BOOL, None
            result = BOOL
            evaluator = partial(_compare, units.COMPARISONS[op], lhs_fn,
                                rhs_fn)
        if _is_constant(lhs_fn) and _is_constant(rhs_fn):
            return self._folded(result, evaluator, expr.span)
        return result, evaluator

    def _resolve_member(self, expr: ast.MemberAccess, scope: Scope):
        receiver = self.resolve_expr(expr.receiver, scope)[0]
        if receiver is UNKNOWN:
            return UNKNOWN, None
        member = expr.member
        if isinstance(receiver, ActorRef):
            if member in ("speed", "position") \
                    and not self._in_world(receiver, expr.span):
                return UNKNOWN, None
            if member == "speed":
                if self._reads_actors(f"read '{receiver.instance}.speed'",
                                      expr.span):
                    return UNKNOWN, None
                return QuantityType(SPEED), partial(_speed,
                                                    receiver.instance)
            if member == "position":
                # only an ahead_of receiver, which is not evaluated itself
                return PositionType(receiver.instance), None
            if prelude.has_attribute(receiver.type_name, member):
                if self._info is None:
                    return STRING, None
                value = self._info.constraints.get(
                    receiver.instance, {}).get(member)
                if value is None:
                    self.error("E002", f"attribute '{member}' of "
                               f"'{receiver.instance}' is not set by a keep "
                               f"constraint", expr.span)
                    return UNKNOWN, None
                return STRING, partial(_constant, value)
            self.error("E001",
                       f"actor type '{receiver.type_name}' has no member "
                       f"'{member}'", expr.span)
            return UNKNOWN, None
        self.error("E002", f"cannot access member '{member}' here", expr.span)
        return UNKNOWN, None

    def _resolve_call(self, expr: ast.MethodCall, scope: Scope):
        receiver, receiver_fn = self.resolve_expr(expr.receiver, scope)
        args = [self.resolve_expr(a.value, scope) for a in expr.args]
        if receiver is UNKNOWN:
            return UNKNOWN, None
        if isinstance(receiver, PositionType):
            if expr.method != "ahead_of":
                self.error("E001",
                           f"position query has no method '{expr.method}'",
                           expr.span)
                return UNKNOWN, None
            bound = self._bind(expr.method, prelude.AHEAD_OF,
                               prelude.AHEAD_OF.bind(expr.args), args,
                               expr.span)
            if bound is None or self._reads_actors("call 'ahead_of'",
                                                   expr.span):
                return UNKNOWN, None
            subject = self._name_evaluator("actor-instance", receiver.instance)
            return QuantityType(LENGTH), partial(_ahead_of, subject,
                                                 bound["actor"])
        if isinstance(receiver, ActorRef):
            if expr.method != "object_distance":
                self.error("E001",
                           f"actor type '{receiver.type_name}' has no method "
                           f"'{expr.method}'", expr.span)
                return UNKNOWN, None
            in_world = self._in_world(receiver, expr.receiver.span)
            bound = self._bind(expr.method, prelude.OBJECT_DISTANCE,
                               prelude.OBJECT_DISTANCE.bind(expr.args), args,
                               expr.span)
            if bound is None or not in_world or self._reads_actors(
                    "call 'object_distance'", expr.span):
                return UNKNOWN, None
            word = constant_value(bound.get("direction")) or "euclidean"
            return QuantityType(LENGTH), partial(
                _object_distance, receiver_fn, bound["reference"], word)
        self.error("E002", f"cannot call method '{expr.method}' here", expr.span)
        return UNKNOWN, None


# The common evaluators are partials of the functions below, which take the
# world ``env`` last: a partial is about half the size of a closure, and an
# analysis keeps one evaluator per expression node.  Every quantity read from
# the world or computed by arithmetic is checked with ``units.finite``.  Any
# evaluator may raise units.UnitsError; a run reports it as EvalError.

def _constant(value, env):
    return value


def _variable(name: str, values):
    """A var read in an initializer, evaluated with the vars' values."""
    return values[name]


def live_actor(name: str, world):
    """The actor named ``name`` in the world; EvalError if it has none."""
    actor = world.actors.get(name)
    if actor is None:
        raise EvalError(f"no live actor named '{name}'")
    return actor


_NAME_EVALUATORS = {"variable": _variable, "actor-instance": live_actor,
                    "enum-word": _constant}


def _is_constant(evaluator: Evaluator | None) -> bool:
    return type(evaluator) is partial and evaluator.func is _constant


def constant_value(evaluator: Evaluator | None):
    """The value of a folded evaluator, which reads no live state, or None."""
    return evaluator.args[0] if _is_constant(evaluator) else None


def _components(reads: dict[str, list[str]]) -> list[list[str]]:
    """The strongly connected components of the var graph, each after
    every component it reads; ``reads`` maps each var to the vars its
    initializer reads.

    Tarjan's algorithm, with an explicit stack so that a long chain of vars
    cannot exhaust Python's recursion limit.  A var whose component is
    found gets an index above every other, so the vars still on the stack
    are those with an index below it.
    """
    done = len(reads)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    found = []
    for root in reads:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(reads[root]))]  # (var, successors not yet seen)
        while work:
            name, successors = work[-1]
            for successor in successors:
                if successor not in reads:
                    continue  # it reads no var, or its type is undefined
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    work.append((successor, iter(reads[successor])))
                    break
                if index[successor] < low[name]:
                    low[name] = index[successor]
            else:
                work.pop()
                if work and low[name] < low[work[-1][0]]:
                    low[work[-1][0]] = low[name]
                if low[name] == index[name]:
                    component = []
                    member = None
                    while member != name:
                        member = stack.pop()
                        index[member] = done
                        component.append(member)
                    found.append(component)
    return found


def _arithmetic(fn, lhs: Evaluator, rhs: Evaluator, env):
    return units.finite(fn(lhs(env), rhs(env)))


def _compare(fn, lhs: Evaluator, rhs: Evaluator, env):
    return fn(lhs(env), rhs(env))


def _speed(name: str, env):
    return units.finite(live_actor(name, env).speed)


# The spatial queries are looked up on the world at each call, so a wrapper
# installed on ``World`` after the check still sees every query.

def _ahead_of(subject: Evaluator, other: Evaluator, env):
    return units.finite(env.ahead_of(subject(env), other(env)))


def _object_distance(subject: Evaluator, reference: Evaluator,
                     direction: str, env):
    return units.finite(env.object_distance(subject(env), reference(env),
                                            direction))


def analyze(program: ast.Program, filename: str = "<string>",
            extra_actions: prelude.ActionTable | None = None) -> Analysis:
    """Run both passes over a parsed program, binding actions against the
    action table ``extra_actions``, or the prelude's if it is None."""
    analyzer = Analyzer(filename, extra_actions)
    infos = analyzer.definition_pass(program)
    analyzer.resolution_pass(infos)
    return Analysis(analyzer.diagnostics, program, infos,
                    analyzer.evaluators)


@collector_paused
def check(source: str, filename: str = "<string>",
          extra_actions: prelude.ActionTable | None = None) -> Analysis:
    """Full frontend: lex, parse, analyze.  Frontend aborts become diagnostics.

    ``extra_actions`` is the action table to bind actions against, such as
    ``MethodRegistry.action_table()``; None binds them against the prelude.
    """
    try:
        program = parse(source, filename)
    except CompileError as exc:
        return Analysis([exc.diagnostic])
    return analyze(program, filename, extra_actions)
