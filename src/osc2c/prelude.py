"""Embedded standard library: actor types, their actions, modifiers, queries.

This is the domain model every scenario compiles against, and the one place
that says what each action, modifier and query accepts.  Actor types form a
single-inheritance hierarchy rooted at ``traffic_participant``; attribute
and action lookup walks the chain.  Each action maps to a ``Signature``:
its parameters by name with their kinds, the required ones, and the names
unnamed arguments bind to, in order.  A kind is a ``Dimension`` (a bare
number stands in for any), a ``NonNegative`` quantity, ``STRING``,
``ACTOR`` (an actor that exists in the world), ``LANES``, a set of
enumeration words or a tuple of string values.  The checker binds every
argument to its signature, so the runtime reads arguments by name and
trusts their kinds.  ``person`` deliberately
carries a declared action with no execution backend so the
unsupported-action path stays exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .units import ACCELERATION, ANGLE, DURATION, LENGTH, SPEED, Dimension

# parameter kinds besides a Dimension, a set of words and a tuple of strings
STRING = "a string"
ACTOR = "an actor in the world"
# a lane number or count, which may not read actor state
LANES = "a whole number of at least 0"


@dataclass(frozen=True, slots=True)
class NonNegative:
    """A quantity of one dimension that may not be negative.  The checker
    rejects a negative constant; a value that reads actor state is not
    checked, and the world stops a negative speed at 0."""
    dim: Dimension


SPEED_AT_LEAST_0 = NonNegative(SPEED)
LENGTH_AT_LEAST_0 = NonNegative(LENGTH)

PROFILE = frozenset({"asap", "smooth"})
SIDE = frozenset({"left", "right"})
DIRECTION = frozenset({"euclidean", "topological"})
START = frozenset({"start"})
LIGHT_MODES = ("off", "auto", "drl", "low_beam", "high_beam")

Kind = Dimension | NonNegative | str | frozenset | tuple[str, ...]


@dataclass(frozen=True, slots=True)
class Signature:
    """Parameter kinds by name, the required names, the unnamed order."""
    params: dict[str, Kind] = field(default_factory=dict)
    required: tuple[str, ...] = ()
    positional: tuple[str, ...] = ()

    def bind(self, args) -> list[tuple[str | None, object]]:
        """Pair each argument with its parameter name.

        Unnamed arguments take the positional names in order, and None
        once those run out.
        """
        unnamed = iter(self.positional)
        return [(arg.name if arg.name is not None else next(unnamed, None),
                 arg) for arg in args]


@dataclass(frozen=True, slots=True)
class ActorType:
    name: str
    base: str | None
    attributes: frozenset[str]
    actions: dict[str, Signature]
    world: str | None  # vehicle, prop, or None: not in the world


ACTOR_TYPES: dict[str, ActorType] = {
    t.name: t for t in (
        ActorType("traffic_participant", None, frozenset(), {}, "vehicle"),
        ActorType("vehicle", "traffic_participant",
                  frozenset({"model", "name", "color"}), {
                      "drive": Signature(),
                      "change_speed": Signature(
                          {"target": SPEED_AT_LEAST_0,
                           "rate_profile": PROFILE},
                          ("target",)),
                      "change_lane": Signature(
                          {"num_of_lanes": LANES, "side": SIDE},
                          ("num_of_lanes", "side")),
                      "assign_position": Signature(),
                      "assign_orientation": Signature({"h": ANGLE}, ("h",)),
                      "set_lights": Signature({"mode": LIGHT_MODES}, ("mode",)),
                      "follow_path": Signature(
                          {"distance": LENGTH_AT_LEAST_0,
                           "speed": SPEED_AT_LEAST_0},
                          ("distance",)),
                  }, "vehicle"),
        ActorType("person", "traffic_participant",
                  frozenset({"model", "name"}), {"walk": Signature()},
                  "prop"),
        ActorType("stationary_object", None, frozenset({"name", "model"}),
                  {"assign_position": Signature()}, "prop"),
        ActorType("environment", None, frozenset(), {
            "assign_celestial_position": Signature(
                {"azimuth": ANGLE, "elevation": ANGLE},
                ("azimuth", "elevation")),
        }, None),
        ActorType("map", None, frozenset({"map_file"}), {}, None),
    )
}

# the signature of each action by type; the prelude's own table is the one
# `check` binds actions against when it is given no backend's table
ActionTable = dict[str, dict[str, Signature]]
ACTIONS: ActionTable = {
    name: actor_type.actions for name, actor_type in ACTOR_TYPES.items()}

PHYSICAL_TYPES: dict[str, Dimension] = {
    "speed": SPEED,
    "length": LENGTH,
    "time": DURATION,
    "angle": ANGLE,
    "acceleration": ACCELERATION,
}

# The backend reads speed, lane and position; the others are accepted and
# their arguments only typed, so they have no signature.
MODIFIERS: dict[str, Signature | None] = {
    "speed": Signature({"speed": SPEED_AT_LEAST_0, "rate_profile": PROFILE,
                        "at": START}, ("speed",), ("speed",)),
    "lane": Signature({"lane": LANES, "side": SIDE,
                       "side_of": ACTOR, "at": START}, positional=("lane",)),
    "position": Signature({"distance": LENGTH_AT_LEAST_0, "behind": ACTOR,
                           "ahead_of": ACTOR, "x": LENGTH, "y": LENGTH,
                           "z": LENGTH, "h": ANGLE, "at": START}),
    "change_speed": None, "acceleration": None, "keep_lane": None,
    "change_lane": None, "orientation": None, "at": None,
}

# the queries: <actor>.object_distance(...), <actor>.position.ahead_of(...)
OBJECT_DISTANCE = Signature({"reference": ACTOR, "direction": DIRECTION},
                            ("reference",))
AHEAD_OF = Signature({"actor": ACTOR}, ("actor",), ("actor",))

# bare identifiers that act as enumeration words in argument position
ENUM_WORDS = PROFILE | SIDE | DIRECTION | START


def inheritance_chain(type_name: str) -> list[str]:
    """Type name followed by its ancestors, most derived first."""
    chain = []
    cursor: str | None = type_name
    while cursor is not None:
        actor = ACTOR_TYPES.get(cursor)
        if actor is None:
            break
        chain.append(cursor)
        cursor = actor.base
    return chain


def find_action(type_name: str, action: str,
                table: ActionTable = ACTIONS) -> Signature | None:
    """The signature of an action on a type or its ancestors in an action
    table, the prelude's own by default, or None."""
    for name in inheritance_chain(type_name):
        signature = table.get(name, {}).get(action)
        if signature is not None:
            return signature
    return None


def has_attribute(type_name: str, attribute: str) -> bool:
    return any(attribute in ACTOR_TYPES[name].attributes
               for name in inheritance_chain(type_name))
