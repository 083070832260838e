"""The cyclic garbage collector around compilation.

`check` and `compile_scenario` run with Python's cyclic collector paused.
That defers no garbage only because a compiled scenario holds no reference
cycle, which the first test pins; the others pin that the pause always
hands the caller back the collector state it had.
"""

import gc
from pathlib import Path

import pytest

from osc2c import runtime, semantics
from osc2c.btree import RUNNING, ArbitrationFault
from osc2c.diagnostics import collector_paused
from osc2c.prelude import Signature
from osc2c.runtime import (BuildError, InitConflict, builtin_registry,
                           compile_scenario)
from osc2c.semantics import check
from osc2c.world import RoadMap

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# 32 vehicles that wait and then drive, on a strip with a spawn for each:
# the shape of the crowd benchmark, an eighth of its size
CROWD_VEHICLES = 32
CROWD_ROAD = RoadMap("strip", lane_count=4, lane_width=3.5, length=5000.0,
                     spawns=tuple((lane, 20.0 + slot * 7.0)
                                  for slot in range(8) for lane in range(4)))


def crowd_source() -> str:
    lines = ["scenario crowd:"]
    lines += [f"  v{i:02d}: vehicle" for i in range(CROWD_VEHICLES)]
    lines.append("  do parallel:")
    for i in range(CROWD_VEHICLES):
        lines += ["    serial:",
                  f"      wait elapsed({i % 7 * 0.05:.2f}s)",
                  f"      v{i:02d}.drive() with:",
                  f"        speed({20 + i}kph)"]
    return "\n".join(lines) + "\n"


ARBITRATION_FAULT = """\
scenario clash:
  hero: vehicle
  do parallel:
    hero.drive() with:
      speed(5kph)
    serial:
      wait elapsed(0.2s)
      hero.change_speed(target: 0kph)
"""

PROGRAMS = {
    **{path.stem: (path.read_text(), None)
       for path in sorted(SCENARIOS.glob("*.osc"))},
    "crowd_32": (crowd_source(), CROWD_ROAD),
    "arbitration_fault": (ARBITRATION_FAULT, None),
}


def run_and_drop(source: str, road) -> str:
    """Check, compile and tick a program until it settles or faults, or for
    the CLI's default budget of 300 s; the compiled scenario is dropped on
    return."""
    cs = compile_scenario(check(source), road=road)
    for _ in range(6000):
        try:
            status = cs.step_tick()
        except ArbitrationFault:
            return "fault"
        if status is not RUNNING:
            return status.value
    return "running"


@pytest.mark.parametrize("name", PROGRAMS)
def test_a_run_leaves_no_cyclic_garbage(name):
    """Nothing that check, compile_scenario or the tick loop builds is on a
    reference cycle, so dropping a compiled scenario frees all of it.

    The cycle this guards against ran from a motion leaf to the blackboard
    it claims on and back: `_MotionLeaf._board` -> `Blackboard._claims` ->
    (tick, leaf).  After a scenario's first motion claim, only a full
    collection could free its world, tree, evaluators and syntax tree.
    """
    source, road = PROGRAMS[name]
    gc.collect()
    gc.disable()
    try:
        outcome = run_and_drop(source, road)
        assert gc.collect() == 0
    finally:
        gc.enable()
    expected = {"arbitration_fault": "fault", "crowd_32": "running"}
    assert outcome == expected.get(name, "Success")


CLEAN = (SCENARIOS / "minimal_wait.osc").read_text()

# town06 has no lane 7
PLACEMENT_CONFLICT = """\
scenario conflict:
  hero: vehicle
  do serial:
    hero.assign_position() with:
      lane(7, at: start)
"""


def honk_registry():
    """A registry whose `honk` action cannot be lowered."""
    def factory(actor, args, modifiers, context):
        raise BuildError("honk cannot be lowered")
    registry = builtin_registry()
    registry.register("vehicle", "honk", factory, Signature())
    return registry


def check_clean():
    assert check(CLEAN).ok


def check_lex_error():
    assert [d.code for d in check("scenario s:\n  $\n").diagnostics] == ["L001"]


def check_parse_error():
    assert [d.code for d in check("scenario s\n").diagnostics] == ["P001"]


def compile_init_conflict():
    with pytest.raises(InitConflict):
        compile_scenario(check(PLACEMENT_CONFLICT))


def compile_build_error():
    registry = honk_registry()
    source = "scenario s:\n  hero: vehicle\n  do serial:\n    hero.honk()\n"
    analysis = check(source, extra_actions=registry.action_table())
    with pytest.raises(BuildError):
        compile_scenario(analysis, registry=registry)


STAGES = {f.__name__: f for f in (check_clean, check_lex_error,
                                  check_parse_error, compile_init_conflict,
                                  compile_build_error)}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("stage", STAGES.values(), ids=STAGES.keys())
def test_the_pause_restores_the_collector(stage, enabled):
    """After a stage returns or raises, the collector is enabled exactly if
    the caller had it enabled."""
    if not enabled:
        gc.disable()
    try:
        stage()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_nested_pauses_restore_the_outer_state():
    seen = []

    @collector_paused
    def outer(fail):
        check_clean()
        seen.append(gc.isenabled())
        if fail:
            compile_init_conflict()
            raise RuntimeError("after the inner stage")
        return "done"

    assert outer(False) == "done"
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        outer(True)
    assert gc.isenabled()
    assert seen == [False, False]


def test_stages_run_with_the_collector_paused(monkeypatch):
    """Both stages run with the collector disabled, and each runs a
    collection on exit, so that the first allocation after it does not walk
    the thousands of objects the stage made."""
    seen = []

    def spy(stage, fn):
        def observed(*args):
            seen.append((stage, gc.isenabled()))
            return fn(*args)
        return observed
    monkeypatch.setattr(semantics, "parse", spy("check", semantics.parse))
    monkeypatch.setattr(runtime.BehaviorTreeBuilder, "build", spy(
        "compile_scenario", runtime.BehaviorTreeBuilder.build))
    source, road = PROGRAMS["crowd_32"]
    analysis = check(source)
    assert gc.get_count()[0] < 100
    compile_scenario(analysis, road=road)
    assert gc.get_count()[0] < 100
    assert seen == [("check", False), ("compile_scenario", False)]


@pytest.mark.parametrize("thresholds, stage, generations", [
    # no young collection is skipped; a threshold of 0 makes a generation
    # due after one collection of the generation below it
    ((10 ** 6, 0, 0), check_clean, [0, 1, 2]),
    # checking the crowd skips a young collection, so the middle generation
    # is due at once
    ((700, 0, 10 ** 6), lambda: check(PROGRAMS["crowd_32"][0]), [1]),
], ids=["counted-exits", "skipped-young-collections"])
def test_exit_collects_the_oldest_due_generation(thresholds, stage,
                                                 generations):
    """Each stage exit runs the collection the collector would start next:
    the oldest generation whose count, with the young collections the pause
    skipped counted toward the middle one, exceeds its threshold."""
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(*thresholds)
    gc.callbacks.append(record)
    try:
        for _ in generations:
            stage()
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*threshold)
    assert collections == generations
