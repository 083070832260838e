"""Deterministic 2D kinematic traffic world.

A straight multi-lane road along +x.  Lane i is centered at
y = -lane_width * i, so "right" of lane i is lane i+1.  Vehicles advance
under one of two longitudinal profiles each step and may run one lateral
lane-change maneuver at a time (smoothstep over 3 s of simulated time),
which a placement ends.  Static props never move; off-network actors
(absolute placements, with no lane) keep their pose verbatim and are
excluded from topological queries.

Collisions come from a banded sort-and-sweep broad phase (`SweepList`;
Cohen et al., "I-COLLIDE", 1995).  Actors are kept in bands of y two box
widths tall, so a lane's actors share a band, and within each band in
order of centre x from one step to the next.  Each actor is tested only
against the actors to its right, in its own band and the band above, whose
centres are near enough in x; the test is `overlaps`, so the pairs are
exactly those an all-pairs test finds.  A band and the band above it are
not swept against each other at all when their nearest actors are too far
apart in y to touch.  An actor changes band only when its y changes, at a
placement or during a lane change.  A hit is the pair of declaration ranks
(`Actor.rank`) of its two actors, and sorting these int pairs gives the
order of an all-pairs loop.  The initializer's spawn search builds its own
`SweepList`, and the start-overlap check reads its pairs.  A lane placement,
like a step, keeps the actor on the stations 0 <= s <= length, or faults.

Everything is scalar float arithmetic at fixed dt; stepping the same
initial state twice produces bit-identical trajectories.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from operator import attrgetter

from .btree import required_ticks
from .prelude import LIGHT_MODES

ASAP_ACCEL_LIMIT = 8.0    # m/s^2
SMOOTH_GAIN = 0.5         # 1/s
SMOOTH_ACCEL_LIMIT = 2.5  # m/s^2
LANE_CHANGE_DURATION = 3.0  # s

VEHICLE_HALF_LENGTH = 2.5
VEHICLE_HALF_WIDTH = 1.0
PROP_HALF_LENGTH = 1.0
PROP_HALF_WIDTH = 1.0

LOW_SUN_ELEVATION = math.radians(15.0)

class SimFault(RuntimeError):
    """Base class for faults that abort a run."""


class OffMapFault(SimFault):
    pass


class LaneOutOfBounds(SimFault):
    pass


class TopologicalUnreachable(SimFault):
    pass


class UnknownLightMode(SimFault):
    pass


@dataclass(frozen=True, slots=True)
class RoadMap:
    name: str
    lane_count: int
    lane_width: float
    length: float
    spawns: tuple[tuple[int, float], ...]

    def lane_center(self, lane: int) -> float:
        return -self.lane_width * lane

    def spawn_on_lane(self, lane: int) -> float | None:
        for spawn_lane, s in self.spawns:
            if spawn_lane == lane:
                return s
        return None


TOWN06 = RoadMap("town06", lane_count=5, lane_width=3.5, length=600.0,
                 spawns=((1, 50.0), (2, 50.0), (3, 50.0), (4, 50.0)))

BUILTIN_MAPS = {"town06": TOWN06}


def load_map(spec: str) -> RoadMap:
    """Resolve ``builtin:<name>``, or load and validate a JSON map file."""
    if spec.startswith("builtin:"):
        name = spec.split(":", 1)[1]
        road = BUILTIN_MAPS.get(name)
        if road is None:
            raise ValueError(f"unknown builtin map '{name}'")
        return road
    try:
        with open(spec, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data["name"], str):
            raise ValueError(f"name must be a string, got {data['name']!r}")
        road = RoadMap(
            name=data["name"],
            lane_count=_whole(data["lane_count"], "lane_count"),
            lane_width=_real(data["lane_width"], "lane_width"),
            length=_real(data["length"], "length"),
            spawns=tuple((_whole(lane, "a spawn lane"),
                          _real(s, "a spawn station"))
                         for lane, s in data["spawns"]),
        )
        if road.lane_count < 1:
            raise ValueError("lane_count must be at least 1")
        if not (0 < road.lane_width < math.inf and 0 < road.length < math.inf):
            raise ValueError("lane_width and length must be finite and positive")
        if road.lane_width * (road.lane_count - 1) == math.inf:
            raise ValueError("the outermost lane centre must be finite")
        for lane, s in road.spawns:
            if not (0 <= lane < road.lane_count and 0 <= s <= road.length):
                raise ValueError(f"spawn [{lane}, {s}] is not on the road")
        return road
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ValueError(f"bad map file {spec!r}: {exc}") from exc


def _real(value, what: str) -> float:
    """A JSON number of a map file; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _whole(value, what: str) -> int:
    number = int(_real(value, what))
    if number != float(value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return number


@dataclass(slots=True)
class LaneChangeState:
    from_lane: int
    to_lane: int
    total_steps: int  # whole-tick count so completion never drifts
    steps: int = 0


@dataclass(slots=True)
class Actor:
    name: str
    kind: str  # vehicle | static-prop
    s: float = 0.0
    lane: int | None = None
    lateral_offset: float = 0.0
    x: float = 0.0
    y: float = 0.0
    heading: float = 0.0
    speed: float = 0.0
    target_speed: float = 0.0
    profile: str = "asap"
    light_mode: str = "off"
    lights: str = "off"
    half_length: float = VEHICLE_HALF_LENGTH
    half_width: float = VEHICLE_HALF_WIDTH
    lane_change: LaneChangeState | None = None
    rank: int = 0  # declaration order; `World` sets it when it adds the actor


@dataclass(slots=True)
class EnvironmentState:
    azimuth: float = 0.0
    elevation: float = math.pi / 2  # overhead sun: auto lights stay off


def clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


def speed_controller(current: float, target: float, profile: str,
                     dt: float) -> float:
    """One controller step; exact landing for asap, first-order lag for smooth."""
    if profile == "asap":
        limit = ASAP_ACCEL_LIMIT * dt
        gap = target - current
        if abs(gap) <= limit:
            return target
        return current + (limit if gap > 0 else -limit)
    if profile == "smooth":
        accel = clamp(SMOOTH_GAIN * (target - current),
                      -SMOOTH_ACCEL_LIMIT, SMOOTH_ACCEL_LIMIT)
        return current + accel * dt
    raise ValueError(f"unknown rate profile {profile!r}")


def smoothstep(u: float) -> float:
    u = clamp(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def overlaps(a: Actor, b: Actor) -> bool:
    """Axis-aligned bounding box intersection test between two actors."""
    return (abs(a.x - b.x) < a.half_length + b.half_length
            and abs(a.y - b.y) < a.half_width + b.half_width)


_centre_x = attrgetter("x")
_centre_y = attrgetter("y")


class SweepList:
    """Actors in bands of y, each band in ascending order of centre x: the
    broad phase.

    Actor ``a`` lies in band ``floor(a.y / cell)``, where ``cell`` is the
    least power of two that is at least 1 and at least ``2 *
    max_half_width``.  A band is swept on its own and against the band
    above it, and no other pair of bands is looked at.  This is exact.  If
    two boxes overlap, ``abs(a.y - b.y) < a.half_width + b.half_width <=
    cell`` holds in floats, and rounding is monotonic, so the real
    difference of the two y values is below ``cell`` too.  Dividing by a
    power of two is exact (below 2**-1022 it rounds, monotonically, and the
    bands there are -1 and 0), so the two quotients also differ by less
    than 1, and their floors by at most 1.  A cell of ``2 *
    max_half_width`` that is not a power of two would round each quotient
    on its own, which can put two such floors 2 apart.  A cell of at least
    1 keeps the quotient of a huge y finite.

    Two adjacent bands are not swept against each other when the least y
    of the upper band less the greatest y of the lower band is at least
    ``2 * max_half_width``.  This is exact too.  Division and floor are
    monotonic, so every y of the upper band is greater than every y of the
    lower band.  For ``a`` below and ``b`` above, monotonic rounding then
    makes ``b.y - a.y`` at least that gap, and ``a.half_width +
    b.half_width`` at most ``2 * max_half_width``, so the boxes cannot
    overlap.  Lanes further apart than a box width can still fall into
    adjacent bands (on town06, y -10.5 and -14 fall into bands -6 and -7).

    Within and across bands, two boxes can overlap only while the distance
    between their centres in x is below ``a.half_length +
    max_half_length``.  The cut-off takes the same difference of centres
    that `overlaps` takes, and rounding is monotonic, so once one actor is
    past the cut-off, every actor further out is too.  (A cut-off on the
    box ends, ``x - half_length`` against ``x + half_length``, rounds
    differently and can disagree with `overlaps` on boxes that just touch.)

    Bands persist from step to step.  Only a change of y moves an actor to
    another band, so whoever changes an actor's y calls `move`; the next
    sweep moves the actors noted since the last one, all at once.

    `pairs` names each hit by the ranks of its two actors, which the
    actors' world must have set.
    """

    def __init__(self) -> None:
        self.bands: dict[int, list[Actor]] = {}
        self._band_of: dict[int, int] = {}  # id(actor) -> its band
        # id(actor) -> (actor, the band whose list still holds it)
        self._moved: dict[int, tuple[Actor, int]] = {}
        # the bands that hold two actors or more, and each band with the
        # band above it; `_neighbours` is None once an actor came or changed
        # band, until `pairs` lists both anew
        self._crowded: list[list[Actor]] = []
        self._neighbours: list[tuple[list[Actor], list[Actor]]] | None = []
        self.max_half_length = 0.0
        self.max_half_width = 0.0
        self.cell = 1.0

    def _band(self, actor: Actor) -> int:
        return math.floor(actor.y / self.cell)

    def add(self, actor: Actor) -> None:
        if actor.half_length > self.max_half_length:
            self.max_half_length = actor.half_length
        cell = self.cell
        while cell < 2.0 * actor.half_width:
            cell *= 2.0
        if actor.half_width > self.max_half_width:
            self.max_half_width = actor.half_width
        if cell != self.cell:
            self.cell = cell
            listed = [a for members in self.bands.values() for a in members]
            self.bands.clear()
            self._band_of.clear()
            self._moved.clear()
            for a in listed:
                self._insert(a)
        self._insert(actor)

    def _insert(self, actor: Actor) -> None:
        band = self._band_of[id(actor)] = self._band(actor)
        bisect.insort(self.bands.setdefault(band, []), actor, key=_centre_x)
        self._neighbours = None

    def move(self, actor: Actor) -> None:
        """Note a listed actor whose y may have changed."""
        key = id(actor)
        band = self._band(actor)
        held = self._band_of[key]
        if band != held:
            self._band_of[key] = band
            self._moved.setdefault(key, (actor, held))

    def _settle(self) -> None:
        """Move each actor noted by `move` into the list of its band."""
        moved = self._moved
        bands = self.bands
        for held in {held for _, held in moved.values()}:
            kept = [a for a in bands[held] if id(a) not in moved]
            if kept:
                bands[held] = kept
            else:
                del bands[held]
        for key, (actor, _) in moved.items():
            bands.setdefault(self._band_of[key], []).append(actor)
        moved.clear()
        self._neighbours = None

    def pairs(self) -> list[tuple[int, int]]:
        """Re-sort each band by x, then return the ranks ``(i, j)``, i < j,
        of every overlapping pair.

        When no band holds two actors and no two bands are adjacent, no pair
        can overlap, and it returns at once.  Actors move little per step,
        so each band is nearly sorted and its re-sort takes about linear
        time.  Each pair comes once, in no particular order.  The test of a
        candidate ``c`` right of ``a`` is `overlaps`, inline: ``c.x - a.x``
        is ``abs(a.x - c.x)`` there, as rounding is symmetric.  Most actors
        have no neighbour ``b`` within reach in x, so an actor's y and half
        width are read only once ``b`` is near enough to hit.
        """
        if self._moved:
            self._settle()
        bands = self.bands
        if self._neighbours is None:
            self._crowded = [members for members in bands.values()
                             if len(members) > 1]
            self._neighbours = [(members, bands[band + 1])
                                for band, members in bands.items()
                                if band + 1 in bands]
        if not (self._crowded or self._neighbours):
            return []
        reach = self.max_half_length
        found = []
        for members in self._crowded:
            n = len(members)
            members.sort(key=_centre_x)
            b = members[0]
            for i in range(1, n):
                a = b
                b = members[i]
                x = a.x
                limit = a.half_length + reach
                dx = b.x - x
                if dx >= limit:
                    continue
                y, rank = a.y, a.rank
                half_length, half_width = a.half_length, a.half_width
                c, j = b, i
                while True:
                    if dx < half_length + c.half_length \
                            and abs(c.y - y) < half_width + c.half_width:
                        found.append((rank, c.rank) if rank < c.rank
                                     else (c.rank, rank))
                    j += 1
                    if j == n:
                        break
                    c = members[j]
                    dx = c.x - x
                    if dx >= limit:
                        break
        apart = 2.0 * self.max_half_width
        for lower, upper in self._neighbours:
            if min(map(_centre_y, upper)) - max(map(_centre_y, lower)) < apart:
                _across(lower, upper, reach, found)
        return found

    def hits(self, actor: Actor) -> bool:
        """Whether ``actor``, which is not listed, overlaps a listed actor.

        The listed actors must not have moved since they were added.
        """
        x = actor.x
        limit = actor.half_length + self.max_half_length
        # as in `pairs`, but ``actor`` may be wider than the listed ones
        band = self._band(actor)
        span = math.ceil((actor.half_width + self.max_half_width) / self.cell)
        for k in range(band - span, band + span + 1):
            members = self.bands.get(k)
            if members is None:
                continue
            start = bisect.bisect_left(members, x, key=_centre_x)
            for i in range(start, len(members)):
                b = members[i]
                if b.x - x >= limit:
                    break
                if overlaps(actor, b):
                    return True
            for i in range(start - 1, -1, -1):
                b = members[i]
                if x - b.x >= limit:
                    break
                if overlaps(actor, b):
                    return True
        return False


def _across(lower: list[Actor], upper: list[Actor], reach: float,
            found: list) -> None:
    """Add the rank pairs of the overlapping actors of two x-sorted bands
    to ``found``.

    Each actor of one band is tested against the actors of the other band
    that lie to its right, up to the cut-off; a pair level in x is taken
    from ``lower``, so no pair is found twice.
    """
    for ours, theirs, level in ((lower, upper, True), (upper, lower, False)):
        m = len(theirs)
        start = 0
        for a in ours:
            x, y, rank = a.x, a.y, a.rank
            half_length, half_width = a.half_length, a.half_width
            while start < m and (theirs[start].x < x if level
                                 else theirs[start].x <= x):
                start += 1
            limit = half_length + reach
            for j in range(start, m):
                b = theirs[j]
                dx = b.x - x
                if dx >= limit:
                    break
                if dx < half_length + b.half_length \
                        and abs(b.y - y) < half_width + b.half_width:
                    found.append((rank, b.rank) if rank < b.rank
                                 else (b.rank, rank))


class World:
    def __init__(self, road: RoadMap, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.road = road
        self.dt = dt
        self.actors: dict[str, Actor] = {}
        self.environment = EnvironmentState()
        self.collisions: list[tuple[str, str]] = []
        self._sweep = SweepList()

    # population

    def add_vehicle(self, name: str) -> Actor:
        return self._add(Actor(name, "vehicle"))

    def add_prop(self, name: str) -> Actor:
        return self._add(Actor(name, "static-prop",
                               half_length=PROP_HALF_LENGTH,
                               half_width=PROP_HALF_WIDTH))

    def _add(self, actor: Actor) -> Actor:
        if actor.name in self.actors:
            raise ValueError(f"duplicate actor name '{actor.name}'")
        actor.rank = len(self.actors)
        self.actors[actor.name] = actor
        self._sweep.add(actor)
        return actor

    def place_on_lane(self, actor: Actor, lane: int, s: float) -> None:
        if not 0 <= lane < self.road.lane_count:
            raise LaneOutOfBounds(
                f"lane {lane} outside [0, {self.road.lane_count})")
        if not 0.0 <= s <= self.road.length:
            raise OffMapFault(
                f"actor '{actor.name}' is placed off the road at s={s:.2f}")
        actor.lane = lane
        actor.s = s
        actor.lane_change = None
        actor.lateral_offset = 0.0
        actor.heading = 0.0
        actor.x = s
        actor.y = self.road.lane_center(lane) + actor.lateral_offset
        self._sweep.move(actor)

    def place_absolute(self, actor: Actor, x: float, y: float,
                       heading: float) -> None:
        actor.lane = actor.lane_change = None
        actor.x = x
        actor.y = y
        actor.heading = heading
        self._sweep.move(actor)

    def set_sun(self, azimuth: float, elevation: float) -> None:
        self.environment.azimuth = azimuth % (2.0 * math.pi)
        self.environment.elevation = clamp(elevation, -math.pi / 2, math.pi / 2)

    def set_lights(self, actor: Actor, mode: str) -> None:
        if mode not in LIGHT_MODES:
            raise UnknownLightMode(f"unknown light mode {mode!r}")
        actor.light_mode = mode
        actor.lights = self._effective_lights(actor)

    def begin_lane_change(self, actor: Actor, num_of_lanes: int,
                          side: str) -> bool:
        """Start a lateral maneuver; returns False for the 0-lane no-op."""
        if num_of_lanes == 0:
            return False
        if actor.lane is None:
            raise LaneOutOfBounds(
                f"actor '{actor.name}' is off the lane network")
        delta = num_of_lanes if side == "right" else -num_of_lanes
        target = actor.lane + delta
        if not 0 <= target < self.road.lane_count:
            raise LaneOutOfBounds(
                f"lane change to {target} outside [0, {self.road.lane_count})")
        total = max(1, required_ticks(LANE_CHANGE_DURATION, self.dt))
        actor.lane_change = LaneChangeState(actor.lane, target, total)
        return True

    # stepping

    def at_rest(self) -> bool:
        """Whether every vehicle on the lane network is stopped, with a
        target speed of zero and no lane change.

        Right after a step, that is when the next step can change nothing.
        A step leaves a stopped vehicle's speed and station at +0.0, which
        the next one keeps, and it never moves a prop or an off-network
        actor.  Auto lights follow only the sun, which a step does not move.
        With no actor moved, the pairs that overlap stay those the last step
        found.
        """
        for actor in self.actors.values():
            if (actor.kind == "vehicle" and actor.lane is not None
                    and (actor.speed != 0.0 or actor.target_speed != 0.0
                         or actor.lane_change is not None)):
                return False
        return True

    def step(self) -> None:
        """Advance every actor by dt, then record the overlapping pairs.

        An on-network vehicle's x follows its station s; its y changes only
        during a lane change, and then the broad phase re-bands it.
        """
        dt = self.dt
        length = self.road.length
        limit = ASAP_ACCEL_LIMIT * dt
        for actor in self.actors.values():
            if actor.kind == "static-prop":
                actor.speed = 0.0  # zero-velocity kinematic lock
                continue
            if actor.lane is not None:
                speed = actor.speed
                target = actor.target_speed
                if speed != target:  # else either profile holds it
                    if actor.profile != "asap":
                        speed = speed_controller(speed, target,
                                                 actor.profile, dt)
                    else:  # `speed_controller`'s asap step, NaN included
                        gap = target - speed
                        if gap > limit:
                            speed += limit
                        elif gap >= -limit:
                            speed = target
                        else:
                            speed -= limit
                speed = actor.speed = speed if speed > 0.0 else 0.0
                s = actor.s = actor.s + speed * dt
                if not 0.0 <= s <= length:
                    raise OffMapFault(
                        f"actor '{actor.name}' left the road at s={s:.2f}")
                if actor.lane_change is not None:
                    self._advance_lane_change(actor)
                    actor.y = (self.road.lane_center(actor.lane)
                               + actor.lateral_offset)
                    self._sweep.move(actor)
                actor.x = s
            if actor.light_mode == "auto":
                actor.lights = self._effective_lights(actor)
        self._detect_collisions()

    def _advance_lane_change(self, actor: Actor) -> None:
        maneuver = actor.lane_change
        maneuver.steps += 1
        u = maneuver.steps / maneuver.total_steps
        shift = (self.road.lane_center(maneuver.to_lane)
                 - self.road.lane_center(maneuver.from_lane))
        previous = actor.lateral_offset
        actor.lateral_offset = shift * smoothstep(u)
        lateral_rate = (actor.lateral_offset - previous) / self.dt
        if u >= 1.0:
            actor.lane = maneuver.to_lane
            actor.lateral_offset = 0.0
            actor.heading = 0.0
            actor.lane_change = None
        else:
            actor.heading = math.atan2(lateral_rate, actor.speed)

    def _effective_lights(self, actor: Actor) -> str:
        if actor.light_mode != "auto":
            return actor.light_mode
        if self.environment.elevation < LOW_SUN_ELEVATION:
            return "low_beam"
        return "off"

    def _detect_collisions(self) -> None:
        hits = self._sweep.pairs()
        collisions = self.collisions = []
        if hits:
            names = list(self.actors)  # indexed by rank
            for i, j in sorted(hits):
                a, b = names[i], names[j]
                collisions.append((a, b) if a < b else (b, a))

    # spatial queries

    def ahead_of(self, a: Actor, b: Actor) -> float:
        if a.lane is None or b.lane is None:
            raise TopologicalUnreachable(
                "ahead_of requires both actors on the lane network")
        return a.s - b.s

    def object_distance(self, a: Actor, reference: Actor,
                        direction: str = "euclidean") -> float:
        if direction == "euclidean":
            return math.hypot(a.x - reference.x, a.y - reference.y)
        if direction == "topological":
            if a.lane is None or reference.lane is None:
                raise TopologicalUnreachable(
                    f"'{reference.name if reference.lane is None else a.name}' "
                    f"is off the routable network")
            return abs(a.s - reference.s)
        raise ValueError(f"unknown direction {direction!r}")
