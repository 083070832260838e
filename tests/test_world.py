"""Kinematic world tests: controllers, lane changes, queries, lights, faults."""

import json
import math
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from osc2c.world import (
    ASAP_ACCEL_LIMIT,
    Actor,
    SMOOTH_ACCEL_LIMIT,
    TOWN06,
    LaneOutOfBounds,
    OffMapFault,
    RoadMap,
    TopologicalUnreachable,
    UnknownLightMode,
    World,
    load_map,
    overlaps,
    smoothstep,
    speed_controller,
)

DT = 0.05
SPEEDS = st.floats(-40.0, 40.0) | st.sampled_from((0.0, -0.0, math.nan))


def make_world():
    return World(TOWN06, DT)


class TestRoadMap:
    def test_town06_geometry(self):
        assert TOWN06.lane_count == 5
        assert TOWN06.lane_width == 3.5
        assert TOWN06.length == 600.0
        assert TOWN06.lane_center(0) == 0.0
        assert TOWN06.lane_center(4) == -14.0
        assert TOWN06.spawns == ((1, 50.0), (2, 50.0), (3, 50.0), (4, 50.0))

    def test_spawn_lookup(self):
        assert TOWN06.spawn_on_lane(2) == 50.0
        assert TOWN06.spawn_on_lane(0) is None

    def test_load_builtin(self):
        assert load_map("builtin:town06") is TOWN06
        with pytest.raises(ValueError):
            load_map("builtin:atlantis")

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "oval.json"
        path.write_text(
            '{"name": "oval", "lane_count": 2, "lane_width": 3.0,'
            ' "length": 100.0, "spawns": [[0, 10], [1, 10]]}')
        road = load_map(str(path))
        assert road == RoadMap("oval", 2, 3.0, 100.0, ((0, 10.0), (1, 10.0)))

    def test_load_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ValueError):
            load_map(str(path))
        with pytest.raises(OSError):
            load_map(str(tmp_path / "missing.json"))

    @pytest.mark.parametrize("fields, problem", [
        ({"lane_count": 0, "lane_width": -3.0, "length": -1.0},
         "lane_count must be at least 1"),
        ({"lane_width": 0.0}, "lane_width and length must be"),
        ({"length": float("inf")}, "lane_width and length must be"),
        ({"lane_width": float("nan")}, "lane_width and length must be"),
        ({"spawns": [[5, 10]]}, "spawn [5, 10.0] is not on the road"),
        ({"spawns": [[0, -1]]}, "spawn [0, -1.0] is not on the road"),
        ({"spawns": [[1, 100.5]]}, "spawn [1, 100.5] is not on the road"),
        ({"lane_count": float("inf")},
         "cannot convert float infinity to integer"),
        ({"spawns": [[float("inf"), 10]]},
         "cannot convert float infinity to integer"),
        ({"lane_count": 2.9}, "lane_count must be a whole number, got 2.9"),
        ({"spawns": [[1.7, 10]]},
         "a spawn lane must be a whole number, got 1.7"),
    ], ids=["no-lanes", "zero-width", "infinite-length", "nan-width",
            "spawn-lane", "spawn-before-start", "spawn-past-end",
            "infinite-lane-count", "infinite-spawn-lane",
            "fractional-lane-count", "fractional-spawn-lane"])
    def test_load_rejects_impossible_road(self, tmp_path, fields, problem):
        data = {"name": "oval", "lane_count": 2, "lane_width": 3.0,
                "length": 100.0, "spawns": [[0, 10], [1, 100]]}
        data.update(fields)
        path = tmp_path / "oval.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(problem)):
            load_map(str(path))


class TestSpeedController:
    def test_asap_example(self):
        assert speed_controller(2.0, 0.0, "asap", DT) == 1.6

    def test_asap_constant_decrement_then_exact_landing(self):
        v = 9.7222
        seen = []
        for _ in range(10):
            v = speed_controller(v, 6.9444, "asap", DT)
            seen.append(v)
        deltas = [round(a - b, 12) for a, b in zip(seen, [9.7222] + seen)]
        assert all(d == -0.4 for d in deltas[:6])
        assert seen[-1] == 6.9444  # lands exactly, no overshoot

    def test_smooth_fixed_point(self):
        assert speed_controller(6.94, 6.94, "smooth", DT) == 6.94

    def test_smooth_accel_clamp_binds(self):
        assert speed_controller(0.0, 9.7222, "smooth", DT) == 0.125

    def test_smooth_unclamped_gain(self):
        # gap 2 m/s: accel 1.0 below the 2.5 clamp
        assert speed_controller(5.0, 7.0, "smooth", DT) == pytest.approx(5.05)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            speed_controller(0.0, 1.0, "turbo", DT)

    @given(v0=st.floats(0, 40), target=st.floats(0, 40),
           profile=st.sampled_from(["asap", "smooth"]))
    def test_convergence_no_overshoot(self, v0, target, profile):
        limit = ASAP_ACCEL_LIMIT if profile == "asap" else SMOOTH_ACCEL_LIMIT
        v = v0
        sign0 = math.copysign(1.0, target - v0) if target != v0 else 0.0
        for _ in range(2000):
            nxt = speed_controller(v, target, profile, DT)
            accel = abs(nxt - v) / DT
            assert accel <= limit + 1e-9
            if nxt != target:
                assert math.copysign(1.0, target - nxt) == sign0 or sign0 == 0.0
            v = nxt
            if abs(v - target) < 0.01:
                return
        pytest.fail(f"no convergence: v0={v0} target={target} {profile}")


class TestStepping:
    def test_position_integration(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 0.0)
        hero.speed = hero.target_speed = 10.0
        world.step()
        assert hero.s == 0.5
        assert hero.x == 0.5
        assert hero.y == -3.5

    def test_fixed_point_speed(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 10.0)
        hero.speed = hero.target_speed = 7.0
        world.step()
        assert hero.speed == 7.0

    def test_duplicate_actor_name(self):
        world = make_world()
        world.add_vehicle("hero")
        with pytest.raises(ValueError, match="duplicate actor name 'hero'"):
            world.add_prop("hero")

    def test_off_map_fault(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 599.9)
        hero.speed = hero.target_speed = 10.0
        with pytest.raises(OffMapFault):
            world.step()

    def test_static_prop_locked(self):
        world = make_world()
        prop = world.add_prop("cone")
        world.place_on_lane(prop, 2, 100.0)
        prop.speed = 5.0  # even a bogus write cannot make it move
        world.step()
        assert prop.speed == 0.0
        assert prop.s == 100.0

    @pytest.mark.parametrize("speed, target, lanes", [
        (5.0, 5.0, 0),  # moving
        (0.0, 2.0, 0),  # stopped, about to move
        (0.0, 0.0, 1),  # stopped in a lane change
        (math.nan, 0.0, 0),
    ])
    def test_not_at_rest(self, speed, target, lanes):
        """A vehicle that a step can move keeps the world from rest; a
        parked one, a prop and an off-network vehicle do not."""
        world = make_world()
        parked = world.add_vehicle("parked")
        world.place_on_lane(parked, 2, 10.0)
        world.place_on_lane(world.add_prop("cone"), 3, 10.0)
        loose = world.add_vehicle("loose")
        world.place_absolute(loose, 50.0, 0.0, 0.0)
        loose.speed = loose.target_speed = 9.0
        world.step()
        assert world.at_rest()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 100.0)
        hero.speed, hero.target_speed = speed, target
        world.begin_lane_change(hero, lanes, "right")
        assert not world.at_rest()

    def test_speed_never_negative(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 10.0)
        hero.speed = 0.1
        hero.target_speed = 0.0
        for _ in range(10):
            world.step()
        assert hero.speed == 0.0

    def test_determinism(self):
        def trajectory():
            world = make_world()
            hero = world.add_vehicle("hero")
            world.place_on_lane(hero, 1, 50.0)
            hero.target_speed = 13.0
            hero.profile = "smooth"
            world.begin_lane_change(hero, 1, "right")
            out = []
            for _ in range(500):
                world.step()
                out.append((hero.s, hero.y, hero.speed, hero.heading))
            return out

        assert trajectory() == trajectory()

    # A case is (speed, target, profile).  A target (sign, ulps) lies one
    # asap step of ASAP_ACCEL_LIMIT * dt from the speed, moved by ulps.
    @settings(max_examples=200, deadline=None)
    @example(cases=[(-1.0, -1.0, "asap"), (-1.0, -1.0, "smooth"),
                    (-0.0, -0.0, "asap"), (-0.0, 0.0, "smooth"),
                    (0.0, -0.0, "asap"), (-0.0, 5.0, "asap")], dt=DT)
    @example(cases=[(0.0, (1.0, 0), "asap"), (0.0, (1.0, 1), "asap"),
                    (0.0, (1.0, -1), "asap"), (0.8, (-1.0, 0), "asap"),
                    (0.4, (1.0, 0), "smooth"), (3.0, (-1.0, 1), "asap")],
             dt=DT)
    @example(cases=[(4.0, (1.0, 0), "asap"), (8.0, (-1.0, 0), "asap"),
                    (8.0, (-1.0, -1), "asap"), (math.nan, 1.0, "asap"),
                    (1.0, math.nan, "asap"), (1.0, math.nan, "smooth")],
             dt=0.5)
    @given(cases=st.lists(
               st.tuples(SPEEDS, SPEEDS | st.tuples(st.sampled_from((-1.0, 1.0)),
                                                    st.integers(-1, 1)),
                         st.sampled_from(("asap", "smooth"))),
               min_size=1, max_size=8),
           dt=st.sampled_from((DT, 0.5)))
    def test_step_speed_is_the_controller_step(self, cases, dt):
        """`World.step` sets each vehicle's speed to `speed_controller`'s
        step, clamped at 0, bit for bit: also when the speed already equals
        a negative target, for -0.0 and NaN, and at one asap step."""
        limit = ASAP_ACCEL_LIMIT * dt
        world = World(TOWN06, dt)
        expected = []
        for index, (speed, target, profile) in enumerate(cases):
            if isinstance(target, tuple):
                sign, ulps = target
                target = nudged(speed + sign * limit, ulps)
            hero = world.add_vehicle(f"v{index}")
            world.place_on_lane(hero, 1, 100.0 + 50.0 * index)
            hero.speed, hero.target_speed, hero.profile = speed, target, profile
            stepped = speed_controller(speed, target, profile, dt)
            expected.append((stepped if stepped > 0.0 else 0.0).hex())
        world.step()
        assert [a.speed.hex() for a in world.actors.values()] == expected


class TestLaneChange:
    def test_completes_in_sixty_ticks(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        hero.speed = hero.target_speed = 10.0
        assert world.begin_lane_change(hero, 1, "right")
        for i in range(59):
            world.step()
            assert hero.lane == 1
            assert hero.lane_change is not None
        world.step()
        assert hero.lane == 2
        assert hero.lane_change is None
        assert hero.lateral_offset == 0.0
        assert hero.y == -7.0
        assert hero.heading == 0.0

    def test_lateral_profile_is_smoothstep(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        hero.speed = hero.target_speed = 10.0
        world.begin_lane_change(hero, 1, "right")
        ys = []
        for _ in range(60):
            world.step()
            ys.append(hero.y)
        for k, y in enumerate(ys[:-1], start=1):
            expected = -3.5 - 3.5 * smoothstep(k / 60)
            assert y == pytest.approx(expected, abs=1e-12)
        assert ys == sorted(ys, reverse=True)  # monotone toward the right

    def test_longitudinal_progress_conserved(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        hero.speed = hero.target_speed = 10.0
        world.begin_lane_change(hero, 1, "right")
        for _ in range(60):
            world.step()
        assert hero.s == pytest.approx(50.0 + 10.0 * DT * 60, rel=1e-12)

    def test_heading_tracks_lateral_rate(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        hero.speed = hero.target_speed = 10.0
        world.begin_lane_change(hero, 1, "left")
        prev_y = hero.y
        world.step()
        rate = (hero.y - prev_y) / DT
        assert hero.heading == pytest.approx(math.atan2(rate, hero.speed), abs=1e-12)
        assert hero.heading > 0  # moving left is +y

    def test_zero_lanes_noop(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        assert world.begin_lane_change(hero, 0, "right") is False
        assert hero.lane_change is None

    def test_out_of_bounds(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 0, 50.0)
        with pytest.raises(LaneOutOfBounds):
            world.begin_lane_change(hero, 1, "left")
        world.place_on_lane(hero, 4, 50.0)
        with pytest.raises(LaneOutOfBounds):
            world.begin_lane_change(hero, 1, "right")

    def test_multi_lane_change(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        hero.speed = hero.target_speed = 10.0
        world.begin_lane_change(hero, 2, "right")
        for _ in range(60):
            world.step()
        assert hero.lane == 3
        assert hero.y == -10.5


class TestSpatialQueries:
    def _pair(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        npc = world.add_vehicle("npc")
        world.place_on_lane(hero, 1, 50.0)
        world.place_on_lane(npc, 2, 45.0)
        return world, hero, npc

    def test_ahead_of_signed(self):
        world, hero, npc = self._pair()
        assert world.ahead_of(npc, hero) == -5.0
        assert world.ahead_of(hero, npc) == 5.0
        assert world.ahead_of(hero, hero) == 0.0

    def test_ahead_of_off_network_errors(self):
        world, hero, _ = self._pair()
        prop = world.add_prop("obstacle")
        world.place_absolute(prop, 478.93, -14.07, -1.57)
        with pytest.raises(TopologicalUnreachable):
            world.ahead_of(hero, prop)

    def test_euclidean_distance(self):
        world, hero, npc = self._pair()
        prop = world.add_prop("obstacle")
        world.place_absolute(prop, 478.93, -14.07, -1.57)
        world.place_on_lane(npc, 4, 430.0)
        expected = math.hypot(478.93 - 430.0, -14.07 - (-14.0))
        assert world.object_distance(npc, prop) == pytest.approx(expected, abs=1e-12)

    def test_topological_distance(self):
        world, hero, npc = self._pair()
        assert world.object_distance(npc, hero, "topological") == 5.0

    def test_topological_off_network_errors(self):
        world, hero, _ = self._pair()
        prop = world.add_prop("obstacle")
        world.place_absolute(prop, 478.93, -14.07, -1.57)
        with pytest.raises(TopologicalUnreachable) as exc:
            world.object_distance(hero, prop, "topological")
        assert "obstacle" in str(exc.value)

    def test_unknown_direction(self):
        world, hero, npc = self._pair()
        with pytest.raises(ValueError):
            world.object_distance(hero, npc, "manhattan")

    @given(sa=st.floats(0, 600), sb=st.floats(0, 600),
           la=st.integers(0, 4), lb=st.integers(0, 4))
    def test_ahead_of_antisymmetry(self, sa, sb, la, lb):
        world = make_world()
        a = world.add_vehicle("a")
        b = world.add_vehicle("b")
        world.place_on_lane(a, la, sa)
        world.place_on_lane(b, lb, sb)
        assert world.ahead_of(a, b) == -world.ahead_of(b, a)

    @given(coords=st.lists(
        st.tuples(st.floats(0, 600), st.integers(0, 4)),
        min_size=3, max_size=3))
    def test_euclidean_metric_properties(self, coords):
        world = make_world()
        actors = []
        for i, (s, lane) in enumerate(coords):
            actor = world.add_vehicle(f"v{i}")
            world.place_on_lane(actor, lane, s)
            actors.append(actor)
        a, b, c = actors
        ab = world.object_distance(a, b)
        ba = world.object_distance(b, a)
        ac = world.object_distance(a, c)
        cb = world.object_distance(c, b)
        assert ab == ba
        assert ab <= ac + cb + 1e-9


class TestLights:
    def _lit_world(self, elevation_deg):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        world.set_sun(math.radians(270), math.radians(elevation_deg))
        return world, hero

    def test_auto_low_sun(self):
        world, hero = self._lit_world(12)
        world.set_lights(hero, "auto")
        assert hero.lights == "low_beam"

    def test_auto_high_sun(self):
        world, hero = self._lit_world(45)
        world.set_lights(hero, "auto")
        assert hero.lights == "off"

    def test_explicit_modes_stick(self):
        world, hero = self._lit_world(45)
        for mode in ("high_beam", "low_beam", "drl", "off"):
            world.set_lights(hero, mode)
            world.step()
            assert hero.lights == mode

    def test_auto_reevaluated_each_tick(self):
        world, hero = self._lit_world(45)
        world.set_lights(hero, "auto")
        world.step()
        assert hero.lights == "off"
        world.set_sun(math.radians(270), math.radians(10))
        world.step()
        assert hero.lights == "low_beam"

    def test_unknown_mode(self):
        world, hero = self._lit_world(45)
        with pytest.raises(UnknownLightMode):
            world.set_lights(hero, "disco")

    def test_sun_normalization(self):
        world = make_world()
        world.set_sun(math.radians(450), math.radians(120))
        assert world.environment.azimuth == pytest.approx(math.radians(90))
        assert world.environment.elevation == math.pi / 2


class TestCollisions:
    def test_overlap_recorded_sorted(self):
        world = make_world()
        a = world.add_vehicle("zeta")
        b = world.add_vehicle("alpha")
        world.place_on_lane(a, 1, 100.0)
        world.place_on_lane(b, 1, 103.0)
        world.step()
        assert world.collisions == [("alpha", "zeta")]

    def test_lateral_separation_no_collision(self):
        world = make_world()
        a = world.add_vehicle("a")
        b = world.add_vehicle("b")
        world.place_on_lane(a, 1, 100.0)
        world.place_on_lane(b, 2, 100.0)  # 3.5 m apart > 2.0 m width sum
        world.step()
        assert world.collisions == []

    def test_touching_boxes_near_a_power_of_two(self):
        # The centres are 5 m less one ulp apart, so the boxes overlap; their
        # ends, 256.5 and 256.5, round to equal values.
        world = make_world()
        a = world.add_vehicle("a")
        b = world.add_vehicle("b")
        world.place_on_lane(a, 1, math.nextafter(254.0, math.inf))
        world.place_on_lane(b, 1, 259.0)
        world.step()
        assert world.collisions == [("a", "b")]

    def test_wide_prop_rebands_the_listed_actors(self):
        # The prop is wider than a band, so adding it re-bands the vehicle
        # placed before it.
        world = make_world()
        a = world.add_vehicle("a")
        b = world.add_vehicle("b")
        world.place_on_lane(a, 1, 100.0)
        world.place_on_lane(b, 2, 130.0)
        wide = world._add(Actor("wide", "static-prop", half_length=0.5,
                                half_width=5.0))
        world.place_absolute(wide, 101.0, a.y + 4.0, 0.0)
        world.step()
        assert world.collisions == all_pairs_collisions(world) == [
            ("a", "wide")]

    def test_collision_does_not_halt(self):
        world = make_world()
        a = world.add_vehicle("a")
        b = world.add_vehicle("b")
        world.place_on_lane(a, 1, 100.0)
        world.place_on_lane(b, 1, 102.0)
        for _ in range(3):
            world.step()  # no exception, just records
        assert world.collisions


# Each actor sits at an x offset from the one declared before it: a tie, a
# sum of two half lengths (vehicle 2.5, prop 1.0) exactly or 1e-13 off, or
# anything, then moved by up to two ulps.  Near a power of two, where the
# spacing of floats changes, rounding can make a test of box ends disagree
# with `overlaps`.  An actor stands at its lane centre, or off the network at
# a y offset from it, at a multiple of a band cell (2 m for vehicles and
# props, more for wide boxes) or one ulp either side of it, or at a huge
# finite y.  A wide box is a static box broader than it is long, so the band
# cell follows the widest half width, not the longest half length; one that
# arrives late makes the broad phase re-band every actor.
HALF_SUMS = (2.0, 3.5, 5.0)
EDGE_OFFSETS = st.one_of(
    st.just(0.0),
    st.builds(lambda h, sign, nudge: sign * h + nudge,
              st.sampled_from(HALF_SUMS), st.sampled_from((-1.0, 1.0)),
              st.sampled_from((0.0, 1e-13, -1e-13))),
    st.floats(-8.0, 8.0))
BAND_EDGES = st.builds(lambda k, cell, ulps: nudged(k * cell, ulps),
                       st.integers(-9, 2),
                       st.sampled_from((2.0, 4.0, 8.0, 16.0)),
                       st.integers(-1, 1))
HUGE_Y = st.sampled_from((1e300, -1e300, 2.0 ** 1000, sys.float_info.max,
                          -sys.float_info.max))
ACTOR_SPECS = st.fixed_dictionaries({
    "kind": st.sampled_from(("vehicle", "vehicle", "prop", "wide")),
    "half_width": st.sampled_from((1.5, 5.0, 12.0)),
    "dx": EDGE_OFFSETS,
    "ulps": st.integers(-2, 2),
    "lane": st.integers(0, 2),
    "place": st.sampled_from(("lane", "lane", "offset", "edge", "huge")),
    "dy": EDGE_OFFSETS,
    "edge": BAND_EDGES,
    "huge": HUGE_Y,
    "speed": st.sampled_from((0.0, 0.0, 10.0)) | st.floats(0.0, 40.0),
    "change": st.sampled_from((None, None, "left", "right")),
})


def make_spec(**drawn):
    """An actor spec as ACTOR_SPECS draws it: a vehicle at its lane centre."""
    return {"kind": "vehicle", "half_width": 1.5, "dx": 0.0, "ulps": 0,
            "lane": 1, "place": "lane", "dy": 0.0, "edge": 0.0, "huge": 1e300,
            "speed": 0.0, "change": None, **drawn}


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def next_x(x, spec):
    return nudged(x + spec["dx"], spec["ulps"])


def add_drawn_actor(world, index, spec, x):
    name = f"{spec['kind'][0]}{index}"
    if spec["kind"] == "wide":
        actor = world._add(Actor(name, "static-prop", half_length=0.5,
                                 half_width=spec["half_width"]))
    elif spec["kind"] == "prop":
        actor = world.add_prop(name)
    else:
        actor = world.add_vehicle(name)
    place = spec["place"]
    if place != "lane":
        y = {"offset": TOWN06.lane_center(spec["lane"]) + spec["dy"],
             "edge": spec["edge"], "huge": spec["huge"]}[place]
        world.place_absolute(actor, x, y, 0.0)
        return
    world.place_on_lane(actor, spec["lane"], x)
    if spec["kind"] == "vehicle":
        actor.speed = actor.target_speed = spec["speed"]
        target = spec["lane"] + (1 if spec["change"] == "right" else -1)
        if spec["change"] and 0 <= target < TOWN06.lane_count:
            world.begin_lane_change(actor, 1, spec["change"])


def all_pairs_collisions(world):
    actors = list(world.actors.values())
    return [tuple(sorted((a.name, b.name)))
            for i, a in enumerate(actors) for b in actors[i + 1:]
            if overlaps(a, b)]


@settings(max_examples=200, deadline=None)
# A box reaches across the band boundary at y = -4 into the band below.
@example(base=200.0,
         specs=[make_spec(kind="prop", place="edge", edge=nudged(-4.0, 1)),
                make_spec(kind="prop", place="edge", edge=nudged(-4.0, -1))],
         late=make_spec(lane=0), late_step=5, dt=DT)
# A lane change from lane 1 to lane 2 ends on top of a vehicle in lane 2.
@example(base=200.0, specs=[make_spec(change="right"), make_spec(lane=2)],
         late=make_spec(lane=0), late_step=5, dt=0.5)
# A wide box reaches two lanes and more; its y is 12.5 m below a vehicle.
@example(base=200.0,
         specs=[make_spec(lane=0),
                make_spec(kind="wide", half_width=12.0, place="offset",
                          lane=2, dy=-5.5)],
         late=make_spec(lane=0), late_step=5, dt=DT)
# Two props at one x in the adjacent bands -2 and -1 are 2 * max_half_width
# apart in y, so the broad phase skips the band pair; one ulp closer, they
# overlap and it must not.
@example(base=200.0,
         specs=[make_spec(kind="prop", place="edge",
                          edge=nudged(-2.0, -1)),
                make_spec(kind="prop", place="edge", edge=-2.0 ** -51)],
         late=make_spec(lane=0), late_step=5, dt=DT)
@example(base=200.0,
         specs=[make_spec(kind="prop", place="edge",
                          edge=nudged(-2.0, -1)),
                make_spec(kind="prop", place="edge", edge=-3 * 2.0 ** -52)],
         late=make_spec(lane=0), late_step=5, dt=DT)
@given(base=st.builds(lambda power, dx: power + dx,
                      st.sampled_from((128.0, 256.0)),
                      st.sampled_from((-2.5, -1.0)) | st.floats(-6.0, 6.0))
       | st.floats(150.0, 300.0),
       specs=st.lists(ACTOR_SPECS, min_size=1, max_size=12),
       late=ACTOR_SPECS, late_step=st.integers(1, 5),
       dt=st.sampled_from((DT, 0.5)))
def test_collisions_match_all_pairs_reference(base, specs, late, late_step,
                                              dt):
    """The broad phase finds the pairs an all-pairs test finds, in its order.

    At dt 0.5 a lane change ends within the six steps, crossing the band
    between two lanes.
    """
    world = World(TOWN06, dt)
    x = base
    for index, spec in enumerate(specs):
        x = next_x(x, spec)
        add_drawn_actor(world, index, spec, x)
    for step in range(6):
        if step == late_step:
            add_drawn_actor(world, len(specs), late, next_x(x, late))
        world.step()
        assert world.collisions == all_pairs_collisions(world)


class TestPoseAgreement:
    @given(s=st.floats(0, 600), lane=st.integers(0, 4))
    def test_pose_derives_from_lane_frame(self, s, lane):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, lane, s)
        assert hero.x == hero.s
        assert abs(hero.y - TOWN06.lane_center(lane)) <= 1e-9

    def test_agreement_through_motion(self):
        world = make_world()
        hero = world.add_vehicle("hero")
        world.place_on_lane(hero, 1, 50.0)
        hero.target_speed = 12.0
        world.begin_lane_change(hero, 1, "right")
        for _ in range(200):
            world.step()
            base = TOWN06.lane_center(hero.lane)
            assert abs(hero.y - (base + hero.lateral_offset)) <= 1e-9
            assert abs(hero.x - hero.s) <= 1e-9
