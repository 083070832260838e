"""Acceptance suite: one test per shipped guarantee.

Each test prints a single "criterion NN PASS/FAIL" verdict (visible with
pytest -s or -rA) in addition to the usual pytest outcome.  The flagship
scenario is exercised through the real CLI so the checks cover the whole
pipeline: lexer, parser, semantics, lowering, execution, trace writer.
"""

import functools
import json
import math
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from osc2c import units
from osc2c import world as sim
from osc2c.btree import (FAILURE, RUNNING, SUCCESS, ActionLeaf, Blackboard,
                         Condition, EdgeCondition, EventEmit, EventWait, OneOf,
                         Parallel, Sequence, TickContext, Timer)
from osc2c.cli import main
from osc2c.runtime import compile_source
from osc2c.semantics import check

DT = 0.05
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FLAGSHIP = str(SCENARIOS / "cut_in_and_evade.osc")


def verdict(label):
    """Print one pass/fail line per criterion, then defer to pytest."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return decorate


def actor_state(record, name):
    for actor in record["actors"]:
        if actor["name"] == name:
            return actor
    raise KeyError(name)


@pytest.fixture(scope="module")
def flagship(tmp_path_factory):
    """One full CLI run of the flagship scenario, shared by the trace checks."""
    path = tmp_path_factory.mktemp("acceptance") / "flagship.ndjson"
    started = time.perf_counter()
    code = main(["run", FLAGSHIP, "--trace", str(path)])
    wall = time.perf_counter() - started
    assert code == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    ticks = [r for r in records if r["record"] == "tick"]
    summary = records[-1]
    return SimpleNamespace(
        path=path, ticks=ticks, summary=summary, wall=wall,
        events={e["name"]: e["tick"] for e in summary["events"]})


@verdict("criterion 01 flagship check clean under one second")
def test_criterion_01_flagship_check(capsys):
    started = time.perf_counter()
    code = main(["check", FLAGSHIP])
    wall = time.perf_counter() - started
    lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
    assert code == 0
    assert len(lines) == 1
    assert "warning[W001]" in lines[0]
    assert "v_npc_catchup" in lines[0]
    assert wall < 1.0


@verdict("criterion 02 flagship event ordering and success")
def test_criterion_02_phases(flagship):
    assert flagship.summary["outcome"] == "success"
    assert flagship.events["go_signal"] == 0
    assert 0 < flagship.events["CRASH_AVOIDED"]
    assert flagship.events["CRASH_AVOIDED"] < flagship.events["OBSTACLE_DETECTED"]
    assert flagship.events["OBSTACLE_DETECTED"] < flagship.ticks[-1]["tick"]
    assert flagship.summary["ticks"] * DT < 300.0
    assert flagship.wall < 10.0


@verdict("criterion 03 flagship terminal state")
def test_criterion_03_terminal_state(flagship):
    def npc_obstacle_distance(record):
        npc = actor_state(record, "npc")
        obstacle = actor_state(record, "obstacle")
        return math.hypot(npc["x"] - obstacle["x"], npc["y"] - obstacle["y"])

    final = flagship.ticks[-1]
    stopped = 0.1 * 1000.0 / 3600.0
    assert actor_state(final, "hero")["speed"] < stopped
    assert actor_state(final, "npc")["speed"] < stopped

    # Walk back from the terminal standstill through the strictly
    # decreasing braking run.  The walk stops on the record whose state
    # triggered the stop, so that record must already be inside the 45 m
    # detection radius and the one before it still outside (the detector
    # is edge-triggered).
    speeds = [actor_state(r, "npc")["speed"] for r in flagship.ticks]
    stop = len(speeds) - 1
    while stop > 0 and speeds[stop - 1] == 0.0:
        stop -= 1
    trigger = stop
    while trigger > 0 and speeds[trigger - 1] > speeds[trigger]:
        trigger -= 1
    assert 1 < trigger < len(speeds)
    assert npc_obstacle_distance(flagship.ticks[trigger]) < 45.0
    assert npc_obstacle_distance(flagship.ticks[trigger - 1]) >= 45.0

    assert npc_obstacle_distance(final) > 0.0
    assert all(not r["collisions"] for r in flagship.ticks)


@verdict("criterion 04 high beam flash window")
def test_criterion_04_high_beams(flagship):
    beam = [r["tick"] for r in flagship.ticks
            if actor_state(r, "hero")["lights"] == "high_beam"]
    assert beam
    assert beam == list(range(beam[0], beam[-1] + 1))
    assert abs(len(beam) - round(0.5 / DT)) <= 1

    # Concurrency: the window lies within the hero's lateral motion span.
    ys = [actor_state(r, "hero")["y"] for r in flagship.ticks]
    moving = [flagship.ticks[i]["tick"]
              for i in range(1, len(ys)) if ys[i] != ys[i - 1]]
    assert moving
    assert moving[0] <= beam[0] and beam[-1] <= moving[-1]


@verdict("criterion 05 lane geometry of both maneuvers")
def test_criterion_05_lane_geometry(flagship):
    first = flagship.ticks[0]
    hero_start = actor_state(first, "hero")["lane"]
    npc_start = actor_state(first, "npc")["lane"]
    at_emit = flagship.ticks[flagship.events["CRASH_AVOIDED"]]
    assert actor_state(at_emit, "hero")["lane"] == hero_start + 1
    assert actor_state(flagship.ticks[-1], "npc")["lane"] == npc_start - 1


@verdict("criterion 06 unit conversions and derived speeds")
def test_criterion_06_units():
    factors = {"kph": 1000.0 / 3600.0, "mph": 0.44704, "deg": math.pi / 180.0}
    rng = random.Random(0xACCE9706)
    for _ in range(1000):
        unit = rng.choice(sorted(factors))
        magnitude = rng.uniform(-1000.0, 1000.0) * 10.0 ** rng.randint(-3, 3)
        value = units.from_literal(magnitude, unit)
        expected = magnitude * factors[unit]
        if expected == 0.0:
            assert value == 0.0
        else:
            assert abs(value - expected) <= 1e-12 * abs(expected)

    compiled = compile_source(Path(FLAGSHIP).read_text(), FLAGSHIP)
    var = compiled.scenario.var_values.get
    assert var("gap") == 15.0
    assert var("safety_gap") == 12.0
    assert var("v_npc_fast") == pytest.approx(15.27446, rel=1e-6)
    assert var("v_npc_slow") == pytest.approx(6.94444, rel=1e-6)


@verdict("criterion 07 behavior tree semantics oracles")
def test_criterion_07_btree_oracles():
    def run_script(root, expected, board=None):
        ctx = TickContext(blackboard=board or Blackboard(), dt=DT)
        observed = []
        for _ in expected:
            ctx.blackboard.begin_tick(ctx.now)
            observed.append(root.tick(ctx))
            ctx.now += 1
        assert observed == expected

    # Sequence advances past an instant child within the same tick.
    run_script(Sequence([Condition(lambda ctx: True), Timer(0.1)]),
               [RUNNING, RUNNING, SUCCESS])

    # Parallel succeeds only when every child has succeeded.
    run_script(Parallel([Timer(0.05), Timer(0.1)]),
               [RUNNING, RUNNING, SUCCESS])

    # Parallel fails as soon as one child fails, halting the rest.  No
    # builtin node fails; a custom leaf like this one may.
    class Doomed(ActionLeaf):
        def _tick(self, ctx):
            return FAILURE if ctx.now >= 1 else RUNNING

    survivor = Timer(10.0)
    run_script(Parallel([Doomed(), survivor]), [RUNNING, FAILURE])
    assert survivor.halted

    # OneOf takes the first success and halts the losing sibling.
    loser, winner = Timer(0.1), Timer(0.05)
    run_script(OneOf([loser, winner]), [RUNNING, SUCCESS])
    assert loser.halted and not winner.halted

    # A rising edge needs an observed transition; an initially true
    # predicate only arms the detector.
    levels = [True, True, False, True]
    run_script(EdgeCondition("rise", lambda ctx: levels[ctx.now]),
               [RUNNING, RUNNING, RUNNING, SUCCESS])
    drops = [False, True, False]
    run_script(EdgeCondition("fall", lambda ctx: drops[ctx.now]),
               [RUNNING, RUNNING, SUCCESS])

    # Timer counts whole ticks of simulated time from its first tick.
    run_script(Timer(0.2), [RUNNING, RUNNING, RUNNING, RUNNING, SUCCESS])

    # An emitted event is visible to later siblings in the same tick.
    run_script(Sequence([EventEmit("ping"), EventWait("ping")]), [SUCCESS])


@verdict("criterion 08 byte-identical reruns")
def test_criterion_08_determinism(flagship, tmp_path):
    rerun = tmp_path / "rerun.ndjson"
    assert main(["run", FLAGSHIP, "--trace", str(rerun)]) == 0
    assert rerun.read_bytes() == flagship.path.read_bytes()


@verdict("criterion 09 forward references and declaration order")
def test_criterion_09_two_pass():
    forward = ("scenario fwd:\n"
               "  var doubled: speed = base * 2\n"
               "  var base: speed = 5kph\n"
               "  do serial:\n"
               "    wait elapsed(1s)\n")
    analysis = check(forward, "fwd.osc")
    assert analysis.ok and not analysis.diagnostics
    compiled = compile_source(forward, "fwd.osc")
    values = compiled.scenario.var_values
    base = values["base"]
    assert base == pytest.approx(5000.0 / 3600.0, rel=1e-12)
    assert values["doubled"] == pytest.approx(
        2 * base, rel=1e-12)

    # Swapping two independent declarations leaves diagnostics untouched.
    tail = ("  var v: speed = 10kph\n"
            "  var odd: speed = v * 10kph\n"
            "  do serial:\n"
            "    wait elapsed(1s)\n")
    orders = ("  ego: vehicle\n  truck: vehicle\n",
              "  truck: vehicle\n  ego: vehicle\n")
    reports = []
    for head in orders:
        analysis = check("scenario perm:\n" + head + tail, "perm.osc")
        assert analysis.ok
        reports.append([d.render() for d in analysis.diagnostics])
    assert reports[0] == reports[1]
    assert len(reports[0]) == 1 and "W001" in reports[0][0]


@verdict("criterion 10 speed controller convergence")
def test_criterion_10_controller():
    limits = {"asap": sim.ASAP_ACCEL_LIMIT, "smooth": sim.SMOOTH_ACCEL_LIMIT}
    rng = random.Random(0xC0107)
    for profile, limit in sorted(limits.items()):
        for _ in range(100):
            v = rng.uniform(0.0, 40.0)
            target = rng.uniform(0.0, 40.0)
            rising = target >= v
            for _ in range(3000):
                after = sim.speed_controller(v, target, profile, DT)
                assert abs(after - v) / DT <= limit + 1e-9
                if rising:
                    assert after <= target + 1e-9
                else:
                    assert after >= target - 1e-9
                v = after
                if abs(v - target) <= 0.01:
                    break
            assert abs(v - target) <= 0.01


@verdict("criterion 11 spatial query oracles")
def test_criterion_11_spatial_queries():
    road = sim.load_map("builtin:town06")
    world = sim.World(road, DT)
    a = world.add_vehicle("a")
    b = world.add_vehicle("b")
    marker = world.add_prop("marker")
    world.place_absolute(marker, 320.0, 12.5, 0.0)
    rng = random.Random(0x0FF60AD)
    for _ in range(100):
        world.place_on_lane(a, rng.randrange(road.lane_count),
                            rng.uniform(5.0, 595.0))
        world.place_on_lane(b, rng.randrange(road.lane_count),
                            rng.uniform(5.0, 595.0))
        assert world.ahead_of(a, b) == -world.ahead_of(b, a)
        expected = math.hypot(a.x - b.x, a.y - b.y)
        assert abs(world.object_distance(a, b) - expected) <= 1e-9
    with pytest.raises(sim.TopologicalUnreachable):
        world.object_distance(a, marker, direction="topological")
