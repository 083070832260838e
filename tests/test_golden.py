"""Golden outputs that must not change across refactors.

The trace hashes pin every byte `osc2c run` writes for the shipped
scenarios, and the tree hashes every byte of their syntax tree, spans
included; the fault records pin the exact error of check-clean programs
that can only fail once they run, the check-time faults pin the diagnostic
of programs whose fault the checker can know, and the frontend failures
pin what `osc2c check` prints when lexing or parsing fails.
"""

import hashlib
import importlib.util
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from osc2c import ast
from osc2c.cli import main
from osc2c.diagnostics import CompileError
from osc2c.parser import parse
from osc2c.runtime import compile_scenario, compile_source
from osc2c.semantics import check

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

GOLDEN_TRACES = {
    "cut_in_and_evade": "16d21b53dc50d396",
    "handshake_phases": "c47d0ec478ecf366",
    "minimal_wait": "f2f0ca472a615295",
}

GOLDEN_TREES = {
    "cut_in_and_evade": "fce9c4533030d6f8",
    "handshake_phases": "a93ff40f53c1e090",
    "minimal_wait": "005838bd08cadcf9",
}

MEMBERS = "scenario probe:\n  hero: vehicle\n  npc: vehicle\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_scenario_trace_hash(name, tmp_path):
    trace = tmp_path / "trace.ndjson"
    assert main(["run", str(SCENARIOS / f"{name}.osc"),
                 "--trace", str(trace)]) == 0
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    assert digest == GOLDEN_TRACES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_scenario_stdout_hash(name, capsysbinary):
    """`run` without --trace writes the same bytes to stdout."""
    assert main(["run", str(SCENARIOS / f"{name}.osc")]) == 0
    digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()[:16]
    assert digest == GOLDEN_TRACES[name]


# A tick-time assign_position with speed() writes the target speed under a
# running constant drive, and the drive writes its own back on the next tick.
PIT = """\
scenario pit:
  a: vehicle

  do parallel:
    a.drive() with:
      speed(36kph)
    serial:
      wait elapsed(1s)
      a.assign_position() with:
        lane(2)
        speed(5kph)
      wait elapsed(1s)
"""


def test_retargeted_drive_trace_hash(tmp_path):
    source = tmp_path / "pit.osc"
    source.write_text(PIT)
    trace = tmp_path / "trace.ndjson"
    assert main(["run", str(source), "--max-time", "3",
                 "--trace", str(trace)]) == 3
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    assert digest == "2bd47cdba235fef1"


@pytest.mark.parametrize("name", sorted(GOLDEN_TREES))
def test_scenario_tree_hash(name):
    tree = parse((SCENARIOS / f"{name}.osc").read_text())
    digest = hashlib.sha256(ast.dump_json(tree).encode()).hexdigest()[:16]
    assert digest == GOLDEN_TREES[name]


def load_perfbench_generator():
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def all_pairs_collisions(world):
    boxes = [(a.name, a.x, a.y, a.half_length, a.half_width)
             for a in world.actors.values()]
    return [(name_a, name_b) if name_a < name_b else (name_b, name_a)
            for (name_a, xa, ya, la, wa), (name_b, xb, yb, lb, wb)
            in itertools.combinations(boxes, 2)
            if abs(xa - xb) < la + lb and abs(ya - yb) < wa + wb]


@pytest.mark.parametrize("seed", [0, 1])
def test_crowd_collisions_and_final_poses(seed, tmp_path):
    """The benchmark's 256-vehicle crowd: on every tick the collisions are
    those of an all-pairs box test, in its order, and the final poses hash
    to the digest pinned in ``perfbench/golden.json``."""
    gen = load_perfbench_generator()
    path, map_path = gen.write_crowd(random.Random(seed), str(tmp_path))
    analysis = check(Path(path).read_text(encoding="utf-8"), path)
    cs = compile_scenario(analysis, road=map_path, filename=path)
    for _ in range(60):
        cs.step_tick()
        assert cs.world.collisions == all_pairs_collisions(cs.world)
    poses = [(a.name, a.x, a.y, a.heading, a.lane, a.speed)
             for a in cs.world.actors.values()]
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    assert hashlib.sha256(repr(poses).encode()).hexdigest()[:16] \
        == golden["crowd_256_final_poses"][str(seed)]


@pytest.mark.parametrize("body, position, message", [
    ("  do serial:\n      wait elapsed(1s)\n    emit DONE\n", "6:1",
     "error[L001]: unindent does not match any outer indentation level"),
    ("  var d: length = 35parsecs\n", "4:21",
     "error[L001]: unknown unit suffix 'parsecs'"),
    ('  obstacle: vehicle with:\n    keep(it.name == "cone)\n', "5:21",
     "error[L001]: unterminated string literal"),
    ("  do serial:\n    wait $now\n", "5:10",
     "error[L001]: unexpected character '$'"),
    ("  var d: length = " + "9" * 400 + "m\n", "4:19",
     "error[L001]: number literal is out of range"),
    ("  var x: speed = " + "(" * 65 + "1kph" + ")" * 65 + "\n", "4:83",
     "error[P001]: expected shallower nesting (limit exceeded), "
     "found literal '1kph'"),
    ("  do serial:\n    wait elapsed(1s)\n  do serial:\n    emit DONE\n",
     "6:3", "error[P001]: expected at most one 'do' block per scenario, "
     "found keyword 'do'"),
], ids=["bad-unindent", "unknown-unit", "unterminated-string",
        "unexpected-character", "out-of-range", "nesting-limit", "second-do"])
def test_frontend_failure(body, position, message, tmp_path, capsys):
    source = tmp_path / "probe.osc"
    source.write_text(MEMBERS + body)
    assert main(["check", str(source)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{source}:{position}: {message}"]


def test_trace_number_text(tmp_path):
    """A number that rounds to zero keeps its sign; a small one is 1e-05."""
    source = tmp_path / "probe.osc"
    source.write_text("scenario probe:\n  hero: vehicle\n  do serial:\n"
                      "    hero.assign_position() with:\n"
                      "      position(x: -0.0000001m, y: 0.00001m, at: start)\n"
                      "    wait elapsed(0.05s)\n")
    trace = tmp_path / "trace.ndjson"
    assert main(["run", str(source), "--trace", str(trace)]) == 0
    assert trace.read_text().splitlines()[1] == (
        '{"record":"tick","tick":0,"t":0.0,"actors":[{"name":"hero",'
        '"x":-0.0,"y":1e-05,"heading":0.0,"lane":null,"speed":0.0,'
        '"lights":"off"}],"events":[{"name":"go_signal","first":true}],'
        '"collisions":[]}')


@pytest.mark.parametrize("members, body, record", [
    ("", "    wait npc.position.ahead_of(hero) / hero.speed > 1s\n",
     '{"record":"fault","tick":0,"error":"EvalError",'
     '"message":"division by a zero-valued quantity"}'),
    ("", "    hero.assign_position() with:\n"
         "      position(x: 10m, y: 3m, at: start)\n"
         "    wait rise(hero.position.ahead_of(npc) > 1m)\n",
     '{"record":"fault","tick":0,"error":"TopologicalUnreachable",'
     '"message":"ahead_of requires both actors on the lane network"}'),
    # town06 has four spawn points, so a fifth actor finds them all taken;
    # the actors are placed while compiling, so check and run report it
    ("  a: vehicle\n  b: vehicle\n  c: vehicle\n", "    wait elapsed(1s)\n",
     "6:3: error[E002]: no free default spawn point for actor 'c'"),
    # hero's later lane placement leaves it to the run to find hero off
    # the road network when npc is placed
    ("", "    hero.assign_position() with:\n      position(x: 10m, y: 0m)\n"
         "    npc.assign_position() with:\n"
         "      position(distance: 5m, behind: hero)\n"
         "    hero.assign_position() with:\n      lane(1)\n",
     '{"record":"fault","tick":0,"error":"TopologicalUnreachable",'
     '"message":"actor \'npc\' is anchored to \'hero\', which is not on '
     'the road network"}'),
    # a placement off the road's stations faults at once, although the
    # next step would carry npc back on
    ("", "    hero.assign_position() with:\n      lane(1, at: start)\n"
         "    npc.assign_position() with:\n"
         "      position(distance: 50.1m, behind: hero)\n      speed(10kph)\n",
     '{"record":"fault","tick":0,"error":"OffMapFault",'
     '"message":"actor \'npc\' is placed off the road at s=-0.10"}'),
], ids=["query-div-zero", "off-network-ahead-of", "no-free-spawn-point",
        "anchor-off-network-while-running", "placed-just-off-the-road"])
def test_runtime_fault_record(members, body, record, tmp_path, capsys):
    source = tmp_path / "probe.osc"
    source.write_text(MEMBERS + members + "  do serial:\n" + body)
    trace = tmp_path / "trace.ndjson"
    if "error[" in record:  # a diagnostic, not a fault record
        assert main(["check", str(source)]) == 1
        assert main(["run", str(source), "--trace", str(trace)]) == 1
        assert capsys.readouterr().err == f"{source}:{record}\n" * 2
        assert not trace.exists()
        return
    assert main(["check", str(source)]) == 0
    assert main(["run", str(source), "--trace", str(trace)]) == 4
    faults = [line for line in trace.read_text().splitlines()
              if line.startswith('{"record":"fault"')]
    assert faults == [record]


WORLDLESS = "  env: environment\n  my_map: map\n"


@pytest.mark.parametrize("members, body, expected", [
    ("", "    hero.change_speed(rate_profile: asap)\n",
     [("E002", "'change_speed' is missing its 'target' argument")]),
    ("", "    hero.change_speed(target: 5m)\n",
     [("E003", "'change_speed' argument 'target' has dimension length, "
              "expected speed")]),
    ("", "    hero.follow_path(distance: 5kph)\n",
     [("E003", "'follow_path' argument 'distance' has dimension speed, "
              "expected length")]),
    ("", "    hero.change_lane(num_of_lanes: 1, side: start)\n",
     [("E002", "'change_lane' argument 'side' must be one of left, right")]),
    ("", "    hero.change_speed(target: 5kph, rate_profile: left)\n",
     [("E002", "'change_speed' argument 'rate_profile' must be one of "
              "asap, smooth")]),
    ("", "    hero.set_lights(mode: 5m)\n",
     [("E002", "'set_lights' argument 'mode' must be a string")]),
    (WORLDLESS, "    env.assign_celestial_position(azimuth: 1rad)\n",
     [("E002", "'assign_celestial_position' is missing its "
              "'elevation' argument")]),
    ("", "    hero.change_speed(5kph)\n",
     [("E002", "unexpected unnamed argument to 'change_speed'"),
      ("E002", "'change_speed' is missing its 'target' argument")]),
    ("", "    npc.assign_position() with:\n"
         "      position(distance: 5m, behind: 3m, at: start)\n",
     [("E002", "'position' argument 'behind' must be an actor in the world")]),
    ("", "    npc.assign_position() with:\n"
         "      lane(side: start, side_of: hero, at: start)\n",
     [("E002", "'lane' argument 'side' must be one of left, right")]),
    ("", "    wait hero.object_distance(reference: npc, foo: 1m) > 1m\n",
     [("E002", "'object_distance' has no parameter 'foo'")]),
    ("", "    hero.drive(foo: 1m)\n",
     [("E002", "'drive' has no parameter 'foo'")]),
    ("", "    hero.change_speed(target: hero.position)\n",
     [("E002", "'change_speed' argument 'target' must be a speed quantity")]),
    (WORLDLESS, "    wait env.speed > 1kph\n",
     [("E002", "actor 'env' of type 'environment' is not in the world")]),
    (WORLDLESS, "    wait env.position.ahead_of(hero) > 1m\n",
     [("E002", "actor 'env' of type 'environment' is not in the world")]),
    (WORLDLESS, "    wait rise(hero.position.ahead_of(env) > 1m)\n",
     [("E002", "actor 'env' of type 'environment' is not in the world")]),
    ("  var d: length = 1m / 0\n", "    wait elapsed(1s)\n",
     [("E002", "division by a zero-valued quantity")]),
    ("", '    wait hero.color == "red"\n',
     [("E002", "attribute 'color' of 'hero' is not set by a keep "
               "constraint")]),
    ("  var a: length = b + 1m\n  var b: length = a * 2\n",
     "    wait elapsed(1s)\n",
     [("E002", "initializer of 'a' depends on itself")]),
    ("  var t: time = 1m / hero.speed\n", "    wait elapsed(1s)\n",
     [("E002", "a var initializer cannot read 'hero.speed': vars are "
               "evaluated before any actor is placed")]),
    ("  var d: length = hero.object_distance(reference: npc)\n",
     "    wait elapsed(1s)\n",
     [("E002", "a var initializer cannot call 'object_distance': vars are "
               "evaluated before any actor is placed")]),
    (WORLDLESS, "    wait hero.object_distance(reference: my_map) < 1m\n",
     [("E002", "actor 'my_map' of type 'map' is not in the world")]),
    (WORLDLESS, "    env.assign_celestial_position(azimuth: 1rad, "
                "elevation: 1rad) with:\n      speed(1kph, at: start)\n",
     [("E002", "actor 'env' of type 'environment' is not in the world"),
      ("E002", "'at: start' places an actor only in assign_position, "
               "not in 'assign_celestial_position'")]),
    ("", "    hero.drive() with:\n      speed(10kph, at: start)\n",
     [("E002", "'at: start' places an actor only in assign_position, "
               "not in 'drive'")]),
    ("", '    hero.set_lights(mode: "high_beam") with:\n'
         "      lane(1, at: start)\n",
     [("E002", "'at: start' places an actor only in assign_position, "
               "not in 'set_lights'")]),
    ("  var z: time = 0s\n  var a: speed = 1m / z\n", "    wait elapsed(1s)\n",
     [("E002", "division by a zero-valued quantity")]),
    ("  var z: time = 0s\n", "    hero.drive() with:\n      speed(1m / z)\n",
     [("E002", "division by a zero-valued quantity")]),
    ("", "    wait elapsed(1m / hero.speed)\n",
     [("E002", "elapsed() cannot read 'hero.speed': its duration is fixed "
               "before any actor is placed")]),
    ("", "    hero.assign_position() with:\n      lane(1, at: start)\n"
         "      position(x: 10, y: 0, at: start)\n",
     [("E002", "actor 'hero' mixes start placement paradigms")]),
    ("", "    hero.assign_position() with:\n"
         "      lane(side: right, side_of: npc, at: start)\n"
         "      position(distance: 5m, behind: npc, at: start)\n"
         "    npc.assign_position() with:\n      lane(1, at: start)\n",
     [("E002", "actor 'hero' is anchored to 'npc', which is not placed yet")]),
    ("", "    hero.assign_position() with:\n"
         "      lane(side: right, at: start)\n",
     [("E002", "actor 'hero' has a relative placement without an anchor")]),
    ("  car: vehicle\n", "    npc.assign_position() with:\n"
         "      lane(1, at: start)\n"
         "    car.assign_position() with:\n      lane(2, at: start)\n"
         "    hero.assign_position() with:\n"
         "      lane(side: left, side_of: npc, at: start)\n"
         "      position(distance: 5m, behind: car, at: start)\n",
     [("E002", "actor 'hero' names two different anchors")]),
    ("", "    hero.assign_position() with:\n"
         "      position(distance: 5m, ahead_of: npc, at: start)\n",
     [("E002", "actor 'hero' is anchored to 'npc', which is not placed yet")]),
    ("", "    hero.assign_position() with:\n"
         "      position(x: 10m, y: 0m, at: start)\n"
         "    npc.assign_position() with:\n"
         "      lane(side: right, side_of: hero, at: start)\n"
         "      position(distance: 5m, behind: hero, at: start)\n",
     [("E002", "actor 'npc' is anchored to 'hero', which is not on the "
               "road network")]),
    ("", "    hero.assign_position() with:\n"
         "      position(x: 10m, y: 0m)\n"
         "    npc.assign_position() with:\n"
         "      position(distance: 5m, behind: hero)\n",
     [("E002", "actor 'npc' is anchored to 'hero', which is not on the "
               "road network")]),
    ("", "    hero.assign_position() with:\n      lane(1)\n"
         "      position(x: 10m)\n",
     [("E002", "actor 'hero' mixes start placement paradigms")]),
    ("", "    hero.assign_position() with:\n      lane(1.6, at: start)\n",
     [("E002", "'lane' argument 'lane' must be a whole number of at least "
               "0")]),
    ("", "    hero.change_lane(num_of_lanes: 0.4, side: left)\n",
     [("E002", "'change_lane' argument 'num_of_lanes' must be a whole "
               "number of at least 0")]),
    ("", "    hero.change_lane(num_of_lanes: -1, side: left)\n",
     [("E002", "'change_lane' argument 'num_of_lanes' must be a whole "
               "number of at least 0")]),
    ("", "    hero.change_lane(num_of_lanes: hero.speed / 1mps, side: left)\n",
     [("E002", "'change_lane' argument 'num_of_lanes' cannot read "
               "'hero.speed': its value is fixed before any actor is "
               "placed")]),
    ("", '    hero.set_lights(mode: "purple")\n',
     [("E002", "'set_lights' argument 'mode' must be one of auto, drl, "
               "high_beam, low_beam, off")]),
    ("", "    hero.change_speed(target: -1kph)\n",
     [("E002", "'change_speed' argument 'target' must not be negative")]),
    ("", "    hero.follow_path(distance: 5m, speed: -3kph)\n",
     [("E002", "'follow_path' argument 'speed' must not be negative")]),
    ("", "    hero.follow_path(distance: -5m)\n",
     [("E002", "'follow_path' argument 'distance' must not be negative")]),
    ("", "    hero.drive() with:\n      speed(-10kph)\n",
     [("E002", "'speed' argument 'speed' must not be negative")]),
    ("", "    npc.assign_position() with:\n      lane(1, at: start)\n"
         "    hero.assign_position() with:\n"
         "      position(distance: 0m - 5m, behind: npc, at: start)\n",
     [("E002", "'position' argument 'distance' must not be negative")]),
    ("", "    wait elapsed(-1s)\n",
     [("E002", "elapsed() duration must not be negative")]),
    ("", "    wait -(1m < 2m)\n",
     [("E002", "negation requires a quantity")]),
    ("", "    wait not hero.speed\n",
     [("E002", "'not' requires a boolean")]),
    ("", "    wait (1m < 2m) + 1m > 1m\n",
     [("E002", "arithmetic requires quantity operands")]),
    ("", '    wait "a" < "b"\n',
     [("E002", "incomparable operand types")]),
    ("", "    wait hero.foo > 1m\n",
     [("E001", "actor type 'vehicle' has no member 'foo'")]),
    ("  var d: length = 1m\n", "    wait d.speed > 1m\n",
     [("E002", "cannot access member 'speed' here")]),
    ("", "    wait hero.position.foo(npc) > 1m\n",
     [("E001", "position query has no method 'foo'")]),
    ("", "    wait hero.foo(npc) > 1m\n",
     [("E001", "actor type 'vehicle' has no method 'foo'")]),
    ("  var d: length = 1m\n", "    wait d.foo(npc) > 1m\n",
     [("E002", "cannot call method 'foo' here")]),
    ("  ghost: spaceship\n", "    wait elapsed(1s)\n",
     [("E001", "undefined type 'spaceship'")]),
    ("  var v: furlong = 1m\n", "    wait elapsed(1s)\n",
     [("E001", "undefined type 'furlong'")]),
    ("  var v: furlong = 1m\n", "    wait v > 1m\n",
     [("E001", "undefined type 'furlong'")]),
    ("  env: environment with:\n    keep(1m == 1m)\n", "    wait elapsed(1s)\n",
     [("E002", "keep constraint must have the form it.<attribute> == "
               "<value>")]),
    ("  var v: vehicle = 1m\n", "    wait elapsed(1s)\n",
     [("E002", "'vehicle' is not a physical type")]),
    ("", "    hero.change_speed(target: 5kph, target: 6kph)\n",
     [("E002", "'change_speed' argument 'target' is given twice")]),
    ("", "    wait 1m\n",
     [("E002", "wait requires a boolean condition")]),
], ids=["missing-target", "target-length", "distance-speed", "side-start",
        "profile-left", "mode-length", "missing-elevation", "unnamed-target",
        "behind-length", "lane-side-start", "distance-stray-argument",
        "drive-stray-argument", "position-value", "environment-speed",
        "environment-position", "ahead-of-environment", "var-div-zero",
        "missing-attribute", "cyclic-vars", "var-reads-world",
        "var-object-distance", "map-reference",
        "environment-at-start", "drive-at-start", "set-lights-at-start",
        "var-reads-zero-var", "body-reads-zero-var", "elapsed-reads-world",
        "mixed-paradigms", "forward-anchor", "missing-anchor", "two-anchors",
        "anchor-placed-by-spawn", "anchor-off-network",
        "anchor-off-network-while-running",
        "mixed-paradigms-while-running",
        "fractional-lane", "fractional-lane-count", "negative-lane-count",
        "live-lane-count", "unknown-light-mode", "negative-target-speed",
        "negative-path-speed", "negative-path-distance",
        "negative-drive-speed", "negative-placement-distance",
        "negative-elapsed", "negate-boolean", "not-quantity",
        "add-boolean", "order-strings", "no-member", "member-of-quantity",
        "position-no-method", "actor-no-method", "method-of-quantity",
        "undefined-field-type", "undefined-var-type",
        "read-of-undefined-var-type", "keep-form",
        "var-of-actor-type", "argument-twice", "wait-not-boolean"])
def test_check_time_fault(members, body, expected, tmp_path):
    """Faults that once ended a run at tick 0, or were skipped without a
    word, are now diagnostics: the checker's, or else the one compiling
    reports for a start placement."""
    text = MEMBERS + members + "  do serial:\n" + body
    analysis = check(text)
    found = analysis.diagnostics
    if analysis.ok:
        with pytest.raises(CompileError) as error:
            compile_scenario(analysis)
        found = [error.value.diagnostic]
    assert [(d.code, d.message) for d in found] == expected
    source = tmp_path / "probe.osc"
    source.write_text(text)
    trace = tmp_path / "trace.ndjson"
    assert main(["run", str(source), "--trace", str(trace)]) == 1
    assert not trace.exists()


PLACE = "    {}.assign_position() with:\n      {}\n"

# Start placements that fail on town06.  The actors are placed while
# compiling, so `check` reports what `run` would, at the placement that put
# the actor there last, or at the field of an actor left without a spawn.
# So is a placement after tick 0 on a lane without a spawn, or anchored to
# an actor that starts off the road network or surely leaves it.
START_FAULTS = {
    "p1": (PLACE.format("hero", "lane(7, at: start)"),
           "5:5: error[E002]: no default spawn point on lane 7 for actor "
           "'hero'"),
    "p2": (PLACE.format("hero", "lane(0, at: start)"),
           "5:5: error[E002]: no default spawn point on lane 0 for actor "
           "'hero'"),
    "p3": (PLACE.format("hero", "lane(1, at: start)")
           + PLACE.format("npc", "position(distance: 1m, behind: hero, "
                                 "at: start)"),
           "7:5: error[E002]: actors 'hero' and 'npc' overlap at start"),
    # a later start placement replaces an earlier one
    "p4": (PLACE.format("hero", "lane(1, at: start)")
           + PLACE.format("npc", "lane(side: right, side_of: hero, "
                                 "at: start)")
           + PLACE.format("npc", "position(distance: 0m, behind: hero, "
                                 "at: start)"),
           "9:5: error[E002]: actors 'hero' and 'npc' overlap at start"),
    "p5": ("scenario probe:\n" + "".join(f"  {name}: vehicle\n"
                                         for name in "abcde")
           + "  do serial:\n    wait elapsed(1s)\n",
           "6:3: error[E002]: no free default spawn point for actor 'e'"),
    "p6": (PLACE.format("hero", "lane(4, at: start)")
           + PLACE.format("npc", "lane(side: right, side_of: hero, "
                                 "at: start)"),
           "7:5: error[E002]: lane 5 outside [0, 5)"),
    # a distance that cannot be computed where the actors stand at start
    "distance-div-zero": (
        PLACE.format("hero", "lane(1, at: start)")
        + PLACE.format("npc", "position(distance: 1m / (hero.speed / 1mps), "
                              "behind: hero, at: start)"),
        "7:5: error[E002]: division by a zero-valued quantity"),
    "lane-7-while-running": (PLACE.format("hero", "lane(7)"),
                             "5:5: error[E002]: no default spawn point on "
                             "lane 7 for actor 'hero'"),
    "behind-the-road-start": (
        PLACE.format("hero", "lane(1, at: start)")
        + PLACE.format("npc", "position(distance: 100m, behind: hero, "
                              "at: start)"),
        "7:5: error[E002]: actor 'npc' is placed off the road at s=-50.00"),
    # start placements run before tick 0, whatever their place in the tree
    "anchor-starts-off-network": (
        PLACE.format("npc", "position(distance: 5m, behind: hero)")
        + PLACE.format("hero", "position(x: 10m, y: 0m, at: start)"),
        "5:5: error[E002]: actor 'npc' is anchored to 'hero', which is not "
        "on the road network"),
    "anchor-leaves-network-after-start": (
        PLACE.format("hero", "lane(1, at: start)")
        + PLACE.format("hero", "position(x: 10m, y: 0m)")
        + PLACE.format("npc", "position(distance: 5m, behind: hero)"),
        "9:5: error[E002]: actor 'npc' is anchored to 'hero', which is not "
        "on the road network"),
}


@pytest.mark.parametrize("name", START_FAULTS)
def test_start_fault(name, tmp_path, capsys):
    """`check`, `run` and `compile_source` report a failed start placement
    as the same diagnostic, and no trace is written."""
    body, line = START_FAULTS[name]
    text = body if body.startswith("scenario") else (
        MEMBERS + "  do serial:\n" + body)
    source = tmp_path / f"{name}.osc"
    source.write_text(text)
    trace = tmp_path / "trace.ndjson"
    assert main(["check", str(source)]) == 1
    assert main(["run", str(source), "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == f"{source}:{line}\n" * 2
    assert not trace.exists()
    with pytest.raises(CompileError) as error:
        compile_source(text, str(source))
    assert error.value.diagnostic.render() == f"{source}:{line}"


def test_start_fault_depends_on_the_map(tmp_path, capsys):
    """p1 runs on a map with a spawn on lane 7; `check` still places the
    actors on the scenario's own map, town06, which has none."""
    source = tmp_path / "p1.osc"
    source.write_text(MEMBERS + "  do serial:\n" + START_FAULTS["p1"][0])
    road = tmp_path / "eight.json"
    road.write_text(json.dumps({
        "name": "eight", "lane_count": 8, "lane_width": 3.5, "length": 600.0,
        "spawns": [[7, 50.0], [1, 50.0]]}))
    trace = tmp_path / "trace.ndjson"
    assert main(["run", str(source), "--map", str(road),
                 "--trace", str(trace)]) == 0
    assert json.loads(trace.read_text().splitlines()[-1])["outcome"] == \
        "success"
    assert main(["check", str(source)]) == 1
    assert capsys.readouterr().err == f"{source}:{START_FAULTS['p1'][1]}\n"


@pytest.mark.parametrize("source, expected", [
    ("scenario s:\n  hero: vehicle\n  hero: person\n  do serial:\n"
     "    hero.walk()\n",
     ["3:3: error[E005]: duplicate definition of 'hero'",
      "5:5: error[E004]: action 'walk' is not defined for actor type "
      "'vehicle' or its ancestors"]),
    ("scenario s:\n  hero: vehicle\n  ghost: spaceship\n  ghost: vehicle\n"
     "  do serial:\n    ghost.drive()\n    wait ghost.speed > 1kph\n"
     "    wait hero.object_distance(reference: ghost) > 1m\n",
     ["4:3: error[E005]: duplicate definition of 'ghost'",
      "3:3: error[E001]: undefined type 'spaceship'",
      "6:5: error[E004]: action 'drive' is not defined for actor type "
      "'spaceship' or its ancestors"]),
    ("scenario s:\n  hero: vehicle\n  var hero: speed = 1kph\n  do serial:\n"
     "    hero.drive()\n    wait hero.speed > 1kph\n    wait hero > 1kph\n",
     ["6:10: error[E002]: cannot access member 'speed' here"]),
    ("scenario s:\n  hero: vehicle\n  var a: speed = 1kph\n"
     "  var a: speed = a + 1kph\n  do serial:\n    wait hero.speed > a\n",
     ["4:3: error[E005]: duplicate definition of 'a'",
      "4:3: error[E002]: initializer of 'a' depends on itself"]),
    ("scenario s:\n  hero: vehicle\n  var v: furlong = 1m\n"
     "  var v: length = 2m\n  var w: length = v + 1m\n  do serial:\n"
     "    wait hero.speed > v\n",
     ["4:3: error[E005]: duplicate definition of 'v'",
      "3:3: error[E001]: undefined type 'furlong'"]),
    ("scenario s:\n  hero: vehicle\n  var v: vehicle = 1m\n"
     "  var v: length = 2m\n  do serial:\n    wait v > 1m\n",
     ["4:3: error[E005]: duplicate definition of 'v'",
      "3:3: error[E002]: 'vehicle' is not a physical type"]),
    ("scenario s:\n  hero: vehicle with:\n    keep(it.name == \"h\")\n"
     "  var n: speed = hero.name\n  do serial:\n    wait elapsed(1s)\n",
     ["4:18: error[E002]: initializer of 'n' is not a quantity"]),
    ("scenario s:\n  hero: vehicle\n  smooth: vehicle\n"
     "  var left: length = 1m\n  do serial:\n"
     "    hero.change_speed(target: 10kph, rate_profile: smooth)\n"
     "    hero.change_lane(num_of_lanes: 1, side: left)\n",
     ["6:38: error[E002]: 'change_speed' argument 'rate_profile' must be "
      "one of asap, smooth",
      "7:39: error[E002]: 'change_lane' argument 'side' must be one of "
      "left, right"]),
    ("scenario a:\n  hero: vehicle\n  var x: speed = 1kph\n  do serial:\n"
     "    hero.drive()\nscenario b:\n  npc: vehicle\n  npc: person\n"
     "  var x: speed = x + 1kph\n  do serial:\n    hero.drive()\n"
     "    wait npc.speed > x\n",
     ["6:1: error[E002]: a file declares one scenario; 'b' is a second",
      "8:3: error[E005]: duplicate definition of 'npc'",
      "9:3: error[E002]: initializer of 'x' depends on itself",
      "11:5: error[E001]: undefined actor 'hero'"]),
], ids=["field-twice", "undefined-type-field-twice", "var-shadows-field",
        "var-twice-reads-itself", "var-twice-undefined-type-first",
        "var-twice-actor-type-first", "var-reads-attribute",
        "names-shadow-enum-words", "second-scenario-is-its-own"])
def test_name_resolution(source, expected):
    """Which declaration a name resolves to, when two share it, and where
    each resulting diagnostic is reported."""
    assert [d.render() for d in check(source, "n.osc").diagnostics] == [
        f"n.osc:{line}" for line in expected]


def _frontend_record(source: str, filename: str) -> str:
    """The syntax tree, or the frontend error, and every check diagnostic
    of one source, each diagnostic rendered with its full span."""
    try:
        tree = ast.dump_json(parse(source, filename))
    except CompileError as exc:
        tree = exc.diagnostic.render()
    diagnostics = [f"{d.render()} {d.span.line}:{d.span.col}-"
                   f"{d.span.end_line}:{d.span.end_col}"
                   for d in check(source, filename).diagnostics]
    return "\n".join([filename, tree, *diagnostics])


def test_frontend_digest(tmp_path):
    """Trees, spans and diagnostics of the shipped scenarios and of the
    seed-0 crowd and corpus from the benchmark's generator."""
    gen = load_perfbench_generator()
    crowd, _ = gen.write_crowd(random.Random(0), str(tmp_path))
    corpus = [f.path for f in gen.write_corpus(random.Random(0), str(tmp_path))]
    paths = [*sorted(SCENARIOS.glob("*.osc")), Path(crowd), *map(Path, corpus)]
    digest = hashlib.sha256()
    for path in paths:
        record = _frontend_record(path.read_text(encoding="utf-8"), path.name)
        digest.update(record.encode())
    assert digest.hexdigest()[:16] == "4855c80ff59574f7"
