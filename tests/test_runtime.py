"""Runtime tests: lowering, dispatch, evaluation, and actor placement."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from osc2c import prelude
from osc2c.btree import (
    ActionLeaf,
    ArbitrationFault,
    Condition,
    EdgeCondition,
    EventEmit,
    EventWait,
    OneOf,
    Parallel,
    RUNNING,
    SUCCESS,
    Sequence,
    Timer,
    dump_tree,
)
from osc2c.cli import main
from osc2c.diagnostics import CompileError
from osc2c.runtime import (
    ChangeLaneLeaf,
    ChangeSpeedLeaf,
    CelestialLeaf,
    DriveLeaf,
    EvalError,
    FollowPathLeaf,
    MethodRegistry,
    SetLightsLeaf,
    UnsupportedAction,
    builtin_registry,
    compile_scenario,
    compile_source,
)
from osc2c.semantics import check
from osc2c.units import (ACCELERATION, ANGLE, DIMENSIONLESS, DURATION, LENGTH,
                         SPEED, from_literal)
from osc2c.world import LaneOutOfBounds, RoadMap, SimFault, UnknownLightMode

FLAGSHIP = Path(__file__).resolve().parent.parent / "scenarios" / "cut_in_and_evade.osc"


def wrap(body, members="  a: vehicle\n  b: vehicle\n"):
    return "scenario test_case:\n" + members + "  do serial:\n" + body


def compile_body(body, members="  a: vehicle\n  b: vehicle\n", **kw):
    return compile_source(wrap(body, members), "t.osc", **kw)


@pytest.fixture(scope="module")
def flagship_source():
    return FLAGSHIP.read_text()


class TestTreeShapes:
    def test_minimal_sequence_timer(self):
        cs = compile_body("    wait elapsed(1s)\n")
        assert isinstance(cs.root, Sequence)
        (timer,) = cs.root.children()
        assert isinstance(timer, Timer)
        assert timer.duration == 1.0

    def test_flagship_phase_shapes(self, flagship_source):
        cs = compile_source(flagship_source, "flagship.osc")
        root = cs.root
        assert isinstance(root, Sequence)
        celestial, lights, phases = root.children()
        assert isinstance(celestial, CelestialLeaf)
        assert isinstance(lights, SetLightsLeaf)
        assert isinstance(phases, Parallel)
        hero_branch, npc_branch = phases.children()

        assert isinstance(hero_branch.children()[0], EventWait)
        phase1 = hero_branch.children()[1]
        assert isinstance(phase1, OneOf)
        drive, edge = phase1.children()
        assert isinstance(drive, DriveLeaf)
        assert isinstance(edge, EdgeCondition) and edge.kind == "fall"

        phase2 = hero_branch.children()[2]
        assert isinstance(phase2, Parallel)
        task_a, task_b = phase2.children()
        assert [type(n) for n in task_a.children()] == [ChangeLaneLeaf, EventEmit]
        assert [type(n) for n in task_b.children()] == \
            [SetLightsLeaf, Timer, SetLightsLeaf]
        assert task_b.children()[1].duration == 0.5

    def test_start_invocations_stay_out_of_tree(self, flagship_source):
        cs = compile_source(flagship_source, "flagship.osc")
        leaves = []
        stack = [cs.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if isinstance(node, ActionLeaf):
                leaves.append(node)
        started = [inv for inv in cs.scenario.invocations.values()
                   if inv.at_start]
        assert len(started) == 3
        assert all(inv.node.action == "assign_position" for inv in started)
        labels = {leaf.label for leaf in leaves}
        assert not any("assign_position" in label for label in labels)

    def test_build_is_deterministic(self, flagship_source, tmp_path):
        first = compile_source(flagship_source, "flagship.osc")
        second = compile_source(flagship_source, "flagship.osc")
        assert dump_tree(first.root) == dump_tree(second.root)
        traces = [tmp_path / "first.ndjson", tmp_path / "second.ndjson"]
        for trace in traces:
            assert main(["run", str(FLAGSHIP), "--trace", str(trace)]) == 0
        assert traces[0].read_bytes() == traces[1].read_bytes()


class TestDispatch:
    def test_unknown_action_is_e007(self):
        source = ("scenario s:\n  ped: person\n  do serial:\n"
                  "    ped.walk()\n")
        # the checker finds it in the prelude but not in the action table
        with pytest.raises(CompileError) as exc:
            compile_source(source, "ped.osc")
        diag = exc.value.diagnostic
        assert (diag.code, diag.span.line, diag.filename) == ("E007", 4,
                                                              "ped.osc")
        assert diag.message == ("action 'walk' is not supported by the "
                                "execution backend for type 'person'")
        # checked against the prelude, it is lowering that fails
        with pytest.raises(UnsupportedAction) as exc:
            compile_scenario(check(source, "ped.osc"), filename="ped.osc")
        assert exc.value.diagnostic == diag

    def test_registry_extension_via_inheritance(self):
        registry = builtin_registry()
        calls = []

        class HonkLeaf(ActionLeaf):
            def _tick(self, ctx):
                calls.append(ctx.now)
                return SUCCESS

        registry.register("traffic_participant", "honk",
                          lambda receiver, args, modifiers, world: HonkLeaf(),
                          prelude.Signature())
        cs = compile_body("    a.honk()\n", registry=registry)
        assert cs.step_tick() is SUCCESS
        assert calls == [0]

    @pytest.mark.parametrize("signature, call, expected", [
        (prelude.Signature(), "a.honk(loud: 5m)",
         [("E002", "'honk' has no parameter 'loud'")]),
        (prelude.Signature(), "a.honk(loud: 5m, 3kph)",
         [("E002", "'honk' has no parameter 'loud'"),
          ("E002", "unexpected unnamed argument to 'honk'")]),
        (prelude.Signature({"loud": LENGTH}), "a.honk(loud: 5kph)",
         [("E003", "'honk' argument 'loud' has dimension speed, "
                   "expected length")]),
        (prelude.Signature({"loud": LENGTH}, ("loud",)), "a.honk()",
         [("E002", "'honk' is missing its 'loud' argument")]),
    ])
    def test_registered_signature_is_enforced(self, signature, call,
                                              expected):
        registry = builtin_registry()
        registry.register("vehicle", "honk", lambda *a: EventEmit("HONK"),
                          signature)
        analysis = check(wrap(f"    {call}\n"),
                         extra_actions=registry.action_table())
        assert [(d.code, d.message)
                for d in analysis.diagnostics] == expected

    def test_factory_gets_arguments_by_parameter_name(self):
        registry = builtin_registry()
        seen = []

        def factory(receiver, args, modifiers, world):
            seen.append(({name: evaluate(world)
                          for name, evaluate in args.items()},
                         {name: {param: evaluate(world)
                                 for param, evaluate in bound.items()}
                          for name, bound in modifiers.items()}))
            return EventEmit("HONK")

        registry.register("vehicle", "honk", factory, prelude.Signature(
            {"loud": LENGTH, "pitch": DIMENSIONLESS}, positional=("loud",)))
        # a repeated modifier adds its arguments to the earlier one's
        compile_body("    a.honk(5m, pitch: 2) with:\n      speed(10kph)\n"
                     "      speed(20kph, rate_profile: smooth)\n",
                     registry=registry)
        assert seen == [({"loud": 5.0, "pitch": 2.0},
                         {"speed": {"speed": from_literal(20.0, "kph"),
                                    "rate_profile": "smooth"}})]

    def test_duplicate_registration_rejected(self):
        registry = builtin_registry()
        with pytest.raises(ValueError):
            registry.register("vehicle", "drive", lambda *a: None,
                              prelude.Signature())

    def test_unknown_type_registration_rejected(self):
        registry = MethodRegistry()
        with pytest.raises(ValueError):
            registry.register("submarine", "dive", lambda *a: None,
                              prelude.Signature())

    def test_builtin_actions_are_in_the_prelude(self):
        # each builtin action is checked against the prelude's signature
        table = builtin_registry().action_table()
        assert table
        for type_name, actions in table.items():
            declared = prelude.ACTOR_TYPES[type_name].actions
            for action, signature in actions.items():
                assert signature is declared[action]

    def test_semantic_error_raises_compile_error(self):
        with pytest.raises(CompileError) as exc:
            compile_body("    wait ghost.speed > 1kph\n")
        assert exc.value.diagnostic.code == "E001"
        with pytest.raises(ValueError, match="cannot compile a program "
                                             "with semantic errors"):
            compile_scenario(check(wrap("    wait ghost.speed > 1kph\n")))

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            compile_body("    wait elapsed(1s)\n", dt=0)


class TestLeaves:
    def test_drive_runs_forever_and_sets_target(self):
        cs = compile_body(
            "    a.drive() with:\n      speed(36kph)\n")
        for _ in range(5):
            assert cs.step_tick() is RUNNING
        assert cs.world.actors["a"].target_speed == pytest.approx(10.0)

    def test_drive_reevaluates_dynamic_target(self):
        cs = compile_body(
            "    parallel:\n"
            "      b.drive() with:\n"
            "        speed(a.speed)\n"
            "      c.follow_path(distance: 100m, speed: a.speed)\n"
            "      wait elapsed(100s)\n",
            members="  a: vehicle\n  b: vehicle\n  c: vehicle\n")
        a, b, c = (cs.world.actors[name] for name in "abc")
        cs.step_tick()
        assert b.target_speed == c.target_speed == 0.0
        a.speed = 5.0
        a.target_speed = 5.0
        cs.step_tick()
        assert b.target_speed == c.target_speed == 5.0

    def test_change_speed_follows_a_live_target(self):
        cs = compile_body(
            "    parallel:\n"
            "      npc.drive() with:\n"
            "        speed(36kph)\n"
            "      hero.change_speed(target: npc.speed + 1kph)\n",
            members="  hero: vehicle\n  npc: vehicle\n")
        hero, npc = cs.world.actors["hero"], cs.world.actors["npc"]
        assert cs.root.children()[0].children()[1].target is None
        targets = []
        for _ in range(5):
            speed = npc.speed
            assert cs.step_tick() is RUNNING
            assert hero.target_speed == pytest.approx(speed + 1 / 3.6,
                                                      rel=1e-12)
            targets.append(hero.target_speed)
        assert targets == sorted(set(targets))  # a new target every tick

    def test_constant_arguments_are_read_once(self):
        cs = compile_body(
            "    parallel:\n"
            "      a.drive() with:\n"
            "        speed(30kph + 5kph)\n"
            "      b.drive() with:\n"
            "        speed(a.speed)\n"
            "      c.change_speed(target: cruise)\n"
            "      d.follow_path(distance: 5m, speed: 72kph)\n",
            members=("  a: vehicle\n  b: vehicle\n  c: vehicle\n"
                     "  d: vehicle\n  var cruise: speed = 36kph\n"))
        drive_a, drive_b, change, follow = cs.root.children()[0].children()
        assert drive_a.target == pytest.approx(35 / 3.6)
        assert drive_b.target is None  # a.speed is read every tick
        assert change.target == pytest.approx(10.0)
        assert follow.speed == pytest.approx(20.0)
        cs.step_tick()
        assert cs.world.actors["a"].target_speed == drive_a.target
        assert cs.world.actors["d"].target_speed == follow.speed

    @pytest.mark.parametrize("body, faults", [
        ("    env.drive() with:\n      speed(5kph)\n", True),
        ("    env.change_speed(target: 5kph)\n", True),
        ("    env.drive()\n", False),  # a bare drive never reads its actor
    ])
    def test_missing_actor_faults_on_its_first_tick(self, body, faults):
        registry = MethodRegistry()
        for action, leaf in (("drive", DriveLeaf),
                             ("change_speed", ChangeSpeedLeaf)):
            registry.register("environment", action, leaf,
                              prelude.find_action("vehicle", action))
        cs = compile_body("    wait elapsed(0.1s)\n" + body,
                          members="  env: environment\n", registry=registry)
        cs.step_tick()
        cs.step_tick()
        if faults:
            with pytest.raises(EvalError, match="no live actor named 'env'"):
                cs.step_tick()
        else:
            assert cs.step_tick() is RUNNING

    def test_change_speed_reaches_target(self):
        cs = compile_body(
            "    a.change_speed(target: 18kph, rate_profile: asap)\n")
        assert cs.run(max_ticks=100)[0] == "success"
        assert abs(cs.world.actors["a"].speed - 5.0) < 0.01

    def test_change_lane_completes(self):
        cs = compile_body(
            "    a.change_lane(num_of_lanes: 1, side: right)\n")
        a = cs.world.actors["a"]
        start_lane = a.lane
        assert cs.run(max_ticks=100)[0] == "success"
        assert a.lane == start_lane + 1
        assert a.lane_change is None

    def test_set_lights_instant(self):
        cs = compile_body('    a.set_lights(mode: "high_beam")\n')
        assert cs.step_tick() is SUCCESS
        assert cs.world.actors["a"].lights == "high_beam"

    def test_celestial_drives_auto_lights(self):
        cs = compile_body(
            '    e.assign_celestial_position(azimuth: 180deg, elevation: 5deg)\n'
            '    a.set_lights(mode: "auto")\n'
            "    wait elapsed(0.2s)\n",
            members="  a: vehicle\n  e: environment\n")
        cs.step_tick()
        assert cs.world.actors["a"].lights == "low_beam"

    def test_assign_orientation(self):
        cs = compile_body("    a.assign_orientation(h: 0.5rad)\n")
        assert cs.step_tick() is SUCCESS
        # the heading holds until a lane change maneuver rewrites it
        assert cs.world.actors["a"].heading == 0.5

    def test_follow_path_covers_distance(self):
        cs = compile_body(
            "    a.follow_path(distance: 3m, speed: 10kph)\n")
        a = cs.world.actors["a"]
        start = a.s
        assert cs.run(max_ticks=200)[0] == "success"
        assert a.s >= start + 3.0 - 1e-9

    def test_concurrent_commanders_fault(self):
        cs = compile_body(
            "    parallel:\n"
            "      a.drive() with:\n"
            "        speed(5kph)\n"
            "      a.drive() with:\n"
            "        speed(10kph)\n")
        with pytest.raises(ArbitrationFault):
            cs.step_tick()

    def test_same_tick_handoff_allowed(self):
        cs = compile_body(
            "    one_of:\n"
            "      a.drive() with:\n"
            "        speed(5kph)\n"
            "      wait elapsed(0.2s)\n"
            "    a.change_speed(target: 0kph, rate_profile: asap)\n")
        assert cs.run(max_ticks=50)[0] == "success"

    def test_distinct_actors_no_fault(self):
        cs = compile_body(
            "    parallel:\n"
            "      a.drive() with:\n"
            "        speed(5kph)\n"
            "      b.drive() with:\n"
            "        speed(10kph)\n")
        assert cs.step_tick() is RUNNING


def conflict(tick):
    return tick, ("motion of actor 'a' commanded by two behaviors "
                  f"in tick {tick}")


# Motion arbitration of one actor: the tick and message of each fault, or the
# tick at which the scenario succeeds when every handover is clean.  A leaf
# that finishes or is halted releases its claim in that tick, so its
# successor may take over within the same tick.
ARBITRATION = {
    "overlapping-drives": (
        "    parallel:\n"
        "      serial:\n"
        "        wait elapsed(0.5s)\n"
        "        a.drive() with:\n"
        "          speed(5kph)\n"
        "      a.drive() with:\n"
        "        speed(10kph)\n", conflict(10)),
    "change-speed-under-drive": (
        "    parallel:\n"
        "      a.drive() with:\n"
        "        speed(5kph)\n"
        "      serial:\n"
        "        wait elapsed(0.2s)\n"
        "        a.change_speed(target: 0kph)\n", conflict(4)),
    "drive-under-follow-path": (
        "    parallel:\n"
        "      serial:\n"
        "        wait elapsed(0.1s)\n"
        "        a.drive() with:\n"
        "          speed(5kph)\n"
        "      a.follow_path(distance: 50m, speed: 20kph)\n", conflict(2)),
    "overlapping-lane-changes": (
        "    parallel:\n"
        "      a.change_lane(num_of_lanes: 1, side: right)\n"
        "      serial:\n"
        "        wait elapsed(1s)\n"
        "        a.change_lane(num_of_lanes: 1, side: left)\n", conflict(20)),
    # a change of no lanes finishes in the tick it claims, and releases
    "no-lane-change-then-change-speed": (
        "    a.change_lane(num_of_lanes: 0, side: right)\n"
        "    a.change_speed(target: 0kph)\n", (0, "Success")),
    "sequential": (
        "    a.change_speed(target: 18kph)\n"
        "    a.follow_path(distance: 2m)\n"
        "    a.change_lane(num_of_lanes: 1, side: right)\n"
        "    a.change_speed(target: 0kph, rate_profile: smooth)\n",
        (327, "Success")),
    "one-of-halted-drive": (
        "    one_of:\n"
        "      a.drive() with:\n"
        "        speed(5kph)\n"
        "      wait elapsed(0.2s)\n"
        "    a.change_speed(target: 0kph)\n", (8, "Success")),
    # the drive is halted earlier in the tick than its successor claims
    "handover-after-halt": (
        "    parallel:\n"
        "      one_of:\n"
        "        a.drive() with:\n"
        "          speed(20kph)\n"
        "        wait elapsed(0.2s)\n"
        "      serial:\n"
        "        wait elapsed(0.2s)\n"
        "        a.change_speed(target: 0kph)\n", (8, "Success")),
    # the successor claims before the drive's last tick: still a conflict
    "claim-before-halt": (
        "    parallel:\n"
        "      serial:\n"
        "        wait elapsed(0.2s)\n"
        "        a.change_speed(target: 0kph)\n"
        "      one_of:\n"
        "        a.drive() with:\n"
        "          speed(20kph)\n"
        "        wait elapsed(0.2s)\n", conflict(4)),
    # a claim is held while its leaf runs, so a successor that finishes
    # within the tick it claims in conflicts in either order
    "one-tick-claim-after-holder": (
        "    parallel:\n"
        "      a.drive() with:\n"
        "        speed(10kph)\n"
        "      serial:\n"
        "        wait elapsed(0.2s)\n"
        "        a.change_lane(num_of_lanes: 0, side: left)\n", conflict(4)),
    "one-tick-claim-before-holder": (
        "    parallel:\n"
        "      serial:\n"
        "        wait elapsed(0.2s)\n"
        "        a.change_lane(num_of_lanes: 0, side: left)\n"
        "      a.drive() with:\n"
        "        speed(10kph)\n", conflict(4)),
    # the holder is halted later in the tick than its successor claims
    "claim-before-later-halt": (
        "    parallel:\n"
        "      serial:\n"
        "        wait elapsed(0.2s)\n"
        "        a.change_speed(target: 0kph)\n"
        "      one_of:\n"
        "        wait elapsed(0.2s)\n"
        "        a.drive() with:\n"
        "          speed(20kph)\n", conflict(4)),
}


@pytest.mark.parametrize("body, outcome", ARBITRATION.values(),
                         ids=ARBITRATION.keys())
def test_motion_arbitration(body, outcome):
    cs = compile_body(body)
    for tick in range(400):
        try:
            status = cs.step_tick()
        except ArbitrationFault as exc:
            assert (tick, str(exc)) == outcome
            return
        if status is not RUNNING:
            assert (tick, status.value) == outcome
            return
    pytest.fail("the scenario neither settled nor faulted")


def drive_settles(cs):
    """Whether each drive of a compiled tree settles, by its actor."""
    settles, stack = {}, [cs.root]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if isinstance(node, DriveLeaf):
            settles[node.actor_name] = node.settles
    return settles


class Brake(ActionLeaf):
    """A custom leaf that writes its actor's target speed and holds no
    motion claim."""

    def __init__(self, receiver, args, modifiers, world):
        super().__init__()
        self.actor = receiver
        self.world = world

    def _tick(self, ctx):
        self.world.actors[self.actor].target_speed = 0.0
        return SUCCESS


RETARGET = ("    parallel:\n"
            "      a.drive() with:\n        speed(36kph)\n"
            "      b.drive()\n"
            "      serial:\n        wait elapsed(0.1s)\n")


class TestQuiescence:
    @pytest.mark.parametrize("body, settles", [
        ("", {"a": True, "b": True}),
        ("        a.assign_position() with:\n          lane(2)\n",
         {"a": True, "b": True}),
        ("        a.assign_position() with:\n          speed(5kph)\n",
         {"a": False, "b": True}),
        ("        b.assign_position() with:\n          lane(2)\n"
         "          speed(5kph)\n", {"a": True, "b": False}),
        ("        b.assign_position() with:\n          speed(5kph, at: start)\n",
         {"a": True, "b": True}),
    ], ids=["none", "lane-only", "speed", "other-actor", "at-start"])
    def test_drive_settles_unless_retargeted(self, body, settles):
        assert drive_settles(compile_body(RETARGET + body)) == settles

    def test_live_speed_never_settles(self):
        cs = compile_body("    a.drive() with:\n      speed(b.speed + 1kph)\n")
        assert drive_settles(cs) == {"a": False}

    def test_custom_leaf_retargets_every_actor(self):
        registry = builtin_registry()
        registry.register("vehicle", "brake", Brake,
                          prelude.Signature())
        cs = compile_body(RETARGET + "        a.brake()\n",
                          registry=registry)
        assert drive_settles(cs) == {"a": False, "b": False}
        a = cs.world.actors["a"]
        for _ in range(3):
            cs.step_tick()
        assert a.target_speed == 0.0  # braked in tick 2, after the drive
        cs.step_tick()
        assert a.target_speed == 10.0


# Faults that only the map shows: the placement or lane change asks for a
# lane the road lacks, or a lane change starts off the lane network.  Town06
# has lanes 0 to 4 and spawns on lanes 1 to 4.  A start placement's fault
# is a CompileError, with no tick run (None); the others end a run.
MAP_FAULTS = {
    "relative-lane-off-the-road": (
        "    a.assign_position() with:\n      lane(4, at: start)\n"
        "    b.assign_position() with:\n"
        "      lane(side: right, side_of: a, at: start)\n"
        "      position(distance: 8m, behind: a, at: start)\n",
        None, CompileError, "lane 5 outside [0, 5)"),
    "no-spawn-on-lane": (
        "    a.assign_position() with:\n      lane(0, at: start)\n",
        None, CompileError, "no default spawn point on lane 0 for actor 'a'"),
    "lane-change-off-the-road": (
        "    a.assign_position() with:\n      lane(4, at: start)\n"
        "    wait elapsed(0.1s)\n"
        "    a.change_lane(num_of_lanes: 1, side: right)\n",
        2, LaneOutOfBounds, "lane change to 5 outside [0, 5)"),
    "lane-change-off-network": (
        "    a.assign_position() with:\n"
        "      position(x: 10m, y: 3m, at: start)\n"
        "    a.change_lane(num_of_lanes: 1, side: left)\n",
        0, LaneOutOfBounds, "actor 'a' is off the lane network"),
}


@pytest.mark.parametrize("body, ticks, error, message", MAP_FAULTS.values(),
                         ids=MAP_FAULTS.keys())
def test_map_fault(body, ticks, error, message):
    if ticks is None:
        with pytest.raises(error) as fault:
            compile_scenario(check(wrap(body), "t.osc"))
        assert fault.value.diagnostic.message == message
        return
    cs = compile_scenario(check(wrap(body), "t.osc"))
    outcome, completed, fault = cs.run(max_ticks=50)
    assert (outcome, completed, type(fault), str(fault)) == \
        ("fault", ticks, error, message)


class TestEvaluation:
    def test_variables_evaluated_at_start(self, flagship_source):
        cs = compile_source(flagship_source, "flagship.osc")
        var = cs.scenario.var_values.get
        assert var("v_hero") == pytest.approx(9.722222222222221, rel=1e-12)
        assert var("v_npc_fast") == pytest.approx(15.274459022222221, rel=1e-12)
        assert var("v_npc_slow") == pytest.approx(6.944444444444445, rel=1e-12)
        assert var("v_npc_catchup") == pytest.approx(27.006172839506172, rel=1e-12)
        assert var("lag") == 5.0
        assert var("gap") == 15.0
        assert var("safety_gap") == 12.0

    def test_forward_variable_reference(self):
        cs = compile_body(
            "    wait elapsed(0.05s)\n",
            members=("  a: vehicle\n"
                     "  var double: length = base * 2\n"
                     "  var base: length = 3m\n"))
        assert cs.scenario.var_values["double"] == 6.0

    def test_cyclic_variables_rejected(self):
        with pytest.raises(CompileError,
                           match="initializer of 'x' depends on itself"):
            compile_body(
                "    wait elapsed(0.05s)\n",
                members=("  a: vehicle\n"
                         "  var x: length = y + 1m\n"
                         "  var y: length = x + 1m\n"))

    def test_member_speed_and_comparison(self):
        cs = compile_body(
            "    wait a.speed < 0.1kph\n"
            "    a.set_lights(mode: \"off\")\n")
        assert cs.step_tick() is SUCCESS  # actor starts stopped

    def test_self_ahead_of_is_zero(self):
        cs = compile_body("    a.follow_path(distance: a.position.ahead_of(a))\n")
        (follow,) = cs.root.children()
        assert follow.args["distance"](cs.world) == 0.0

    def test_quantity_not_equal_condition(self):
        # `!=` on quantities used to pass check and then fault at tick 0
        cs = compile_body("    wait a.speed != 1kph\n")
        assert cs.step_tick() is SUCCESS


class TestInitializer:
    def test_flagship_placements(self, flagship_source):
        cs = compile_source(flagship_source, "flagship.osc")
        hero = cs.world.actors["hero"]
        npc = cs.world.actors["npc"]
        obstacle = cs.world.actors["obstacle"]
        assert (hero.lane, hero.s) == (1, 50.0)
        assert (npc.lane, npc.s) == (2, 45.0)
        assert npc.speed == 0.0 and npc.target_speed == 0.0
        assert obstacle.off_network
        assert (obstacle.x, obstacle.y) == (478.93, -14.07)
        assert obstacle.heading == -1.57

    def test_default_spawns_for_unplaced_actors(self):
        cs = compile_body("    wait elapsed(0.05s)\n")
        a = cs.world.actors["a"]
        b = cs.world.actors["b"]
        assert (a.lane, a.s) == (1, 50.0)
        assert (b.lane, b.s) == (2, 50.0)

    def test_spawn_collision(self):
        body = ("    a.assign_position() with:\n"
                "      lane(1, at: start)\n"
                "    b.assign_position() with:\n"
                "      lane(1, at: start)\n")
        with pytest.raises(CompileError,
                           match="actors 'a' and 'b' overlap at start"):
            compile_body(body)

    def test_spawn_collision_names_first_pair_in_declaration_order(self):
        body = "".join(f"    {name}.assign_position() with:\n"
                       f"      lane(1, at: start)\n" for name in "cba")
        with pytest.raises(CompileError,
                           match="actors 'a' and 'b' overlap at start"):
            compile_body(body, members="  a: vehicle\n  b: vehicle\n"
                                       "  c: vehicle\n")

    def test_unplaced_actors_do_not_block_spawns(self):
        # Before placement every actor sits at the origin, on the first spawn.
        road = RoadMap("origin", 2, 3.5, 200.0, ((0, 0.0), (1, 50.0)))
        cs = compile_body("    wait elapsed(0.05s)\n", road=road,
                          members="  v0: vehicle\n  v1: vehicle\n")
        v0, v1 = cs.world.actors["v0"], cs.world.actors["v1"]
        assert (v0.lane, v0.s) == (0, 0.0)
        assert (v1.lane, v1.s) == (1, 50.0)

    @pytest.mark.parametrize("order", [1, -1])
    def test_spawn_blocked_by_one_ulp(self, order):
        # Centres 5 m less one ulp apart overlap, though their box ends
        # round to the same 256.5.
        close = ((0, math.nextafter(254.0, math.inf)), (0, 259.0))[::order]
        road = RoadMap("ulp", 2, 3.5, 400.0, close + ((1, 50.0),))
        cs = compile_body("    wait elapsed(0.05s)\n", road=road,
                          members="  v0: vehicle\n  v1: vehicle\n")
        v1 = cs.world.actors["v1"]
        assert (v1.lane, v1.s) == (1, 50.0)

    def test_default_spawns_are_first_fit_in_map_order(self):
        # The first spawn is 4 m ahead of the wreck: too close for a vehicle,
        # free for a prop.
        rng = random.Random(4)
        wreck_x = 500.0
        spawns = ((1, wreck_x + 4.0),) + tuple(
            (rng.randrange(4), round(rng.uniform(20.0, 900.0), 2))
            for _ in range(160))
        road = RoadMap("first_fit", 4, 3.5, 1000.0, spawns)
        anchor_s = road.spawn_on_lane(2)
        vehicles = [f"v{i:02d}" for i in range(64)]
        kinds = dict.fromkeys(vehicles[:20], "vehicle")
        kinds.update(cone="stationary_object", anchor="vehicle")
        kinds.update(dict.fromkeys(vehicles[20:], "vehicle"))
        kinds["wreck"] = "vehicle"
        members = "".join(f"  {name}: {kind}\n" for name, kind in kinds.items())
        body = ("    wreck.assign_position() with:\n"
                f"      position(x: {wreck_x}m, y: -3.5m, at: start)\n"
                "    anchor.assign_position() with:\n"
                "      lane(2, at: start)\n")
        cs = compile_body(body, members=members, road=road)

        def first_fit(half_length, half_width, boxes):
            for lane, s in spawns:
                y = road.lane_center(lane)
                if all(abs(s - x) >= half_length + hl
                       or abs(y - oy) >= half_width + hw
                       for x, oy, hl, hw in boxes):
                    return lane, s
            return None

        boxes = [(wreck_x, -3.5, 2.5, 1.0),
                 (anchor_s, road.lane_center(2), 2.5, 1.0)]
        expected = {"anchor": (2, anchor_s)}
        for name, kind in kinds.items():
            if name in ("anchor", "wreck"):
                continue
            half = (1.0, 1.0) if kind == "stationary_object" else (2.5, 1.0)
            expected[name] = first_fit(*half, boxes)
            lane, s = expected[name]
            boxes.append((s, road.lane_center(lane), *half))
        placed = {name: (cs.world.actors[name].lane, cs.world.actors[name].s)
                  for name in expected}
        assert placed == expected
        assert expected["cone"] == spawns[0]
        assert cs.world.actors["wreck"].off_network

    def test_go_signal_present_at_tick_zero(self):
        cs = compile_body("    wait @go_signal\n", members="  a: vehicle\n")
        assert cs.step_tick() is SUCCESS
        assert cs.blackboard.events["go_signal"] == 0

    def test_no_do_block_succeeds_in_one_tick(self):
        cs = compile_source("scenario s:\n  a: vehicle\n")
        assert cs.status is None
        assert cs.run(max_ticks=10) == ("success", 1, None)
        assert cs.status is SUCCESS

    def test_run_budget_exhaustion_returns_none(self):
        cs = compile_body("    wait elapsed(100s)\n", members="  a: vehicle\n")
        assert cs.run(max_ticks=3) == ("timeout", 3, None)


# Programs of one action with a backend and perhaps one modifier.  Each
# parameter of their signatures is given or left out, and a stray name may
# join them; a value mostly fits the parameter's kind, else is any in the pool.
RECEIVERS = {"vehicle": "hero", "stationary_object": "cone",
             "environment": "env"}
BACKED_ACTIONS = sorted((type_name, action) for type_name, actions
                        in builtin_registry().action_table().items()
                        for action in actions)
READ_MODIFIERS = sorted(name for name, signature in prelude.MODIFIERS.items()
                        if signature is not None)
QUANTITIES = {SPEED: "10kph", LENGTH: "5m", DURATION: "1s", ANGLE: "1rad",
              ACCELERATION: "2m / 1s / 1s"}
NUMBERS = ("1", "1.5", "-1")
STRINGS = ('"high_beam"', '"dusk"')
ACTORS = ("npc", "env")
ARGUMENT_VALUES = (*QUANTITIES.values(), *NUMBERS, *STRINGS, *ACTORS,
                   "hero.position", *sorted(prelude.ENUM_WORDS))


def fitting_values(kind):
    if isinstance(kind, prelude.NonNegative):
        kind = kind.dim
    if kind == prelude.LANES:
        return NUMBERS
    if kind == prelude.STRING or isinstance(kind, tuple):
        return STRINGS
    if kind == prelude.ACTOR:
        return ACTORS
    if kind in QUANTITIES:
        return (QUANTITIES[kind], "1")
    return tuple(sorted(kind))


def draw_arguments(draw, signature):
    args = []
    for name, kind in signature.params.items():
        present = (draw(st.integers(0, 9)) > 0 if name in signature.required
                   else draw(st.booleans()))
        if present:
            pool = fitting_values(kind) if draw(st.integers(0, 3)) \
                else ARGUMENT_VALUES
            value = draw(st.sampled_from(pool))
            args.append(f"{name}: {value}")
    if draw(st.integers(0, 9)) == 0:
        args.append(f"stray: {draw(st.sampled_from(ARGUMENT_VALUES))}")
    return ", ".join(args)


@st.composite
def argument_programs(draw):
    type_name, action = draw(st.sampled_from(BACKED_ACTIONS))
    signature = prelude.find_action(type_name, action)
    line = (f"    {RECEIVERS[type_name]}.{action}"
            f"({draw_arguments(draw, signature)})")
    if draw(st.booleans()):
        modifier = draw(st.sampled_from(READ_MODIFIERS))
        line += (f" with:\n      {modifier}"
                 f"({draw_arguments(draw, prelude.MODIFIERS[modifier])})")
    return ("scenario prop:\n  hero: vehicle\n  npc: vehicle\n"
            "  cone: stationary_object\n  env: environment\n"
            "  do serial:\n" + line + "\n")


@settings(max_examples=200, deadline=None)
@given(source=argument_programs())
def test_check_clean_arguments_never_fail_to_build_or_tick(source):
    """A BuildError, EvalError, UnitsError or UnknownLightMode here is an
    argument fault check missed."""
    analysis = check(source)
    if not analysis.ok:
        return
    try:
        cs = compile_scenario(analysis)
        for _ in range(3):
            cs.step_tick()
    except (CompileError, ArbitrationFault, SimFault) as fault:
        # faults of placement and of the world, not of arguments
        assert not isinstance(fault, UnknownLightMode)
