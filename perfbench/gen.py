"""Seeded input generators for the crowd_256 and frontend_corpus workloads.

Every generator takes a ``random.Random`` and writes plain files; the
program under test only ever sees those files.  The *shape* of each input
(actor count, lane count, spawn count, file sizes, which files carry an
error) is fixed, and only values inside it are drawn from the seed, so the
amount of work per iteration is the same for every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# --- crowd_256 -------------------------------------------------------------

CROWD_VEHICLES = 256
CROWD_LANES = 8
CROWD_SLOTS_PER_LANE = 34      # 272 spawn slots for 256 vehicles
CROWD_SLOT_SPACING = 7.0       # m; vehicles are 5 m long, so slots never overlap
CROWD_ROAD_LENGTH = 4000.0
CROWD_LANE_WIDTH = 3.5


def crowd_names() -> list[str]:
    return [f"v{i:03d}" for i in range(CROWD_VEHICLES)]


def write_crowd(rng: random.Random, directory: str) -> tuple[str, str]:
    """Write the crowd scenario and its road map; return both paths.

    No vehicle carries a start placement, so the initializer hands every
    one of them a spawn slot.  Slots are listed station by station across
    the lanes, with a seeded jitter that keeps same-lane slots at least
    ``CROWD_SLOT_SPACING - 1`` m apart.
    """
    spawns = []
    for slot in range(CROWD_SLOTS_PER_LANE):
        for lane in range(CROWD_LANES):
            s = 20.0 + slot * CROWD_SLOT_SPACING + rng.uniform(0.0, 1.0)
            spawns.append([lane, round(s, 3)])
    road = {"name": "crowd_strip", "lane_count": CROWD_LANES,
            "lane_width": CROWD_LANE_WIDTH, "length": CROWD_ROAD_LENGTH,
            "spawns": spawns}
    map_path = os.path.join(directory, "crowd_strip.json")
    with open(map_path, "w", encoding="utf-8") as handle:
        json.dump(road, handle)

    lines = ["scenario crowd_256:"]
    for name in crowd_names():
        lines.append(f"  {name}: vehicle")
    lines.append("")
    lines.append("  do parallel:")
    for name in crowd_names():
        wait_s = rng.uniform(0.0, 1.5)
        speed_kph = rng.uniform(20.0, 70.0)
        lines.append("    serial:")
        lines.append(f"      wait elapsed({wait_s:.3f}s)")
        lines.append(f"      {name}.drive() with:")
        lines.append(f"        speed({speed_kph:.2f}kph)")
    source_path = os.path.join(directory, "crowd_256.osc")
    with open(source_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return source_path, map_path


# --- frontend_corpus -------------------------------------------------------

# Fixed file sizes (target line counts) from ~20 to ~2,000 lines; the fixed
# branch openings make the smallest files come out at about 40.  Files at
# the indices in CORPUS_ERROR_FILES carry one injected error (one in five).
# They are small ones: a lex error skips the parse and analysis of its file,
# so an error in a large file would make the work depend on the seed.
CORPUS_SIZES = (20, 30, 60, 120, 250, 500, 800, 1100, 1500, 2000)
CORPUS_ERROR_FILES = frozenset({1, 3})
CORPUS_ACTORS = ("a0", "a1", "a2", "a3")   # town06 has four spawn slots
ERROR_KINDS = ("E001", "E002", "E003", "E004", "E005", "P001", "L001")

KPH = 1.0 / 3.6
SPEED_RANGE = (2.0, 15.0)      # m/s, so nothing leaves the 600 m road
LENGTH_RANGE = (1.0, 60.0)     # m
TIME_RANGE = (0.05, 4.0)       # s
GROUP = 8                      # a var refers only to later vars in its group
OPENING_GAP = "500m"           # never reached within 30 s at <= 15 m/s


@dataclass
class CorpusFile:
    path: str
    lines: int
    expected_exit: int
    expected_codes: frozenset[str]
    runnable: bool


@dataclass
class _Var:
    name: str
    kind: str      # speed | length | time
    value: float   # SI


@dataclass
class _Body:
    shape: random.Random   # statement kinds and nesting: fixed per file
    rng: random.Random     # values inside that shape: drawn from the seed
    variables: dict[str, list[_Var]]
    lines: list[str] = field(default_factory=list)
    events: list[str] = field(default_factory=list)


def _literal(kind: str, value: float) -> str:
    if kind == "speed":
        return f"{value / KPH:.3f}kph"
    return f"{value:.3f}{'m' if kind == 'length' else 's'}"


def _in_range(kind: str, value: float) -> bool:
    low, high = {"speed": SPEED_RANGE, "length": LENGTH_RANGE,
                 "time": TIME_RANGE}[kind]
    return low <= value <= high


def _var_section(shape: random.Random, rng: random.Random,
                 count: int) -> tuple[list[str], dict]:
    """Forward-referencing var chains with dimensional arithmetic.

    Var i may refer only to vars declared after it in the same group of
    ``GROUP``, so chains are acyclic and at most ``GROUP`` deep.  ``shape``
    draws each var's kind; ``rng`` draws the expressions and values.
    """
    kinds = [shape.choice(("speed", "length", "time")) for _ in range(count)]
    made: list[_Var | None] = [None] * count
    text: list[str | None] = [None] * count
    for i in reversed(range(count)):
        kind = kinds[i]
        name = f"{kind[0]}_{i}"
        end = min(count, (i // GROUP + 1) * GROUP)
        later = [v for v in made[i + 1:end] if v is not None]
        by_kind = {k: [v for v in later if v.kind == k]
                   for k in ("speed", "length", "time")}
        options = []
        if by_kind[kind]:
            a = rng.choice(by_kind[kind])
            delta = rng.uniform(0.1, 1.0) * (
                KPH * 3 if kind == "speed" else 0.5)
            options.append((f"{a.name} + {_literal(kind, delta)}",
                            a.value + delta))
            b = rng.choice(by_kind[kind])
            options.append((f"({a.name} + {b.name}) / 2",
                            (a.value + b.value) / 2))
        if kind == "speed" and by_kind["length"] and by_kind["time"]:
            a, b = rng.choice(by_kind["length"]), rng.choice(by_kind["time"])
            options.append((f"{a.name} / {b.name}", a.value / b.value))
        if kind == "length" and by_kind["speed"] and by_kind["time"]:
            a, b = rng.choice(by_kind["speed"]), rng.choice(by_kind["time"])
            lit = rng.uniform(0.5, 3.0)
            options.append((f"{a.name} * {b.name} + {_literal(kind, lit)}",
                            a.value * b.value + lit))
        if kind == "time" and by_kind["length"] and by_kind["speed"]:
            a, b = rng.choice(by_kind["length"]), rng.choice(by_kind["speed"])
            lit = rng.uniform(0.05, 0.5)
            options.append((f"{a.name} / {b.name} + {_literal(kind, lit)}",
                            a.value / b.value + lit))
        options = [(expr, value) for expr, value in options
                   if _in_range(kind, value)]
        if options:
            expr, value = rng.choice(options)
        else:
            low, high = {"speed": SPEED_RANGE, "length": LENGTH_RANGE,
                         "time": TIME_RANGE}[kind]
            value = rng.uniform(low, (low + high) / 2)
            expr = _literal(kind, value)
        made[i] = _Var(name, kind, value)
        text[i] = f"  var {name}: {kind} = {expr}"
    variables = {k: [v for v in made if v.kind == k]
                 for k in ("speed", "length", "time")}
    return text, variables


def _pick(body: _Body, kind: str) -> str:
    pool = body.variables[kind]
    if pool and body.shape.random() < 0.8:
        return body.rng.choice(pool).name
    low, high = {"speed": SPEED_RANGE, "length": LENGTH_RANGE,
                 "time": TIME_RANGE}[kind]
    return _literal(kind, body.rng.uniform(low, high))


def _statement(body: _Body, actor: str, indent: int, motion: bool,
               depth: int) -> None:
    """Append one behavior statement for ``actor``.

    ``motion`` says whether this statement may command the actor's motion:
    concurrent children of parallel/one_of get it at most once, so no two
    running behaviors ever claim the same actor.
    """
    rng, shape = body.rng, body.shape
    pad = " " * indent
    choices = ["wait_elapsed", "lights", "emit", "wait_rise"]
    if motion:
        choices += ["drive_until", "change_speed", "drive_until"]
    if depth < 3:
        choices += ["serial", "parallel", "one_of"]
    kind = shape.choice(choices)
    other = rng.choice([a for a in CORPUS_ACTORS if a != actor])
    if kind == "wait_elapsed":
        body.lines.append(f"{pad}wait elapsed({_pick(body, 'time')})")
    elif kind == "lights":
        mode = rng.choice(("auto", "low_beam", "high_beam", "off"))
        body.lines.append(f'{pad}{actor}.set_lights(mode: "{mode}")')
    elif kind == "emit":
        event = f"EV_{actor.upper()}_{len(body.events)}"
        body.events.append(event)
        body.lines.append(f"{pad}emit {event}")
    elif kind == "wait_rise":
        op = rng.choice((">", ">=", "<"))
        body.lines.append(
            f"{pad}wait rise({actor}.position.ahead_of({other}) {op} "
            f"{_pick(body, 'length')} - 1m)")
    elif kind == "drive_until":
        body.lines.append(f"{pad}one_of:")
        body.lines.append(f"{pad}  {actor}.drive() with:")
        body.lines.append(f"{pad}    speed({_pick(body, 'speed')})")
        if shape.random() < 0.5:
            body.lines.append(f"{pad}  wait elapsed({_pick(body, 'time')})")
        else:
            body.lines.append(
                f"{pad}  wait {actor}.object_distance(reference: {other}, "
                f"direction: euclidean) > {_pick(body, 'length')}")
    elif kind == "change_speed":
        profile = rng.choice(("asap", "smooth"))
        body.lines.append(
            f"{pad}{actor}.change_speed(target: {_pick(body, 'speed')}, "
            f"rate_profile: {profile})")
    else:
        body.lines.append(f"{pad}{kind}:")
        count = shape.randint(2, 4)
        mover = shape.randrange(count) if kind != "serial" else None
        for child in range(count):
            child_motion = motion and (mover is None or child == mover)
            _statement(body, actor, indent + 2, child_motion, depth + 1)


def _clean_source(shape: random.Random, rng: random.Random, name: str,
                  target: int) -> list[str]:
    header = [f"scenario {name}:"]
    for actor in CORPUS_ACTORS:
        header.append(f"  {actor}: vehicle with:")
        header.append(f'    keep(it.name == "{actor}")')
    var_count = max(2, int(target * 0.35))
    var_lines, variables = _var_section(shape, rng, var_count)
    body = _Body(shape, rng, variables)
    body.lines.append("  do parallel:")
    remaining = target - len(header) - len(var_lines) - 1
    per_actor = max(3, remaining // len(CORPUS_ACTORS))
    for i, actor in enumerate(CORPUS_ACTORS):
        other = CORPUS_ACTORS[(i + 1) % len(CORPUS_ACTORS)]
        start = len(body.lines)
        body.lines.append("    serial:")
        body.lines.append("      wait @go_signal")
        # A fixed opening that outlasts any run of the benchmark: the ticked
        # work per tick is then the same for every seed, and the random
        # statements below only cost frontend time.
        body.lines.append("      one_of:")
        body.lines.append(f"        {actor}.drive() with:")
        body.lines.append(f"          speed({_pick(body, 'speed')})")
        body.lines.append(f"        wait rise({actor}.position.ahead_of({other})"
                          f" > {OPENING_GAP})")
        while len(body.lines) - start < per_actor:
            _statement(body, actor, 6, True, 1)
    return header + var_lines + body.lines


def _inject(rng: random.Random, lines: list[str], kind: str) -> None:
    """Insert one error of ``kind`` that yields exactly that diagnostic code."""
    var_at = 1 + 2 * len(CORPUS_ACTORS)      # first var line
    if kind == "P001" or kind == "L001":
        # late in the body, so the aborted parse does about the same work
        # whatever the seed
        where = len(lines) - 1 - rng.randrange(max(1, len(lines) // 10))
        where = max(where, var_at + 1)
        indent = " " * (len(lines[where]) - len(lines[where].lstrip()))
        bad = (f"{indent}wait elapsed(2s" if kind == "P001"
               else f"{indent}wait elapsed(2qq)")
        lines.insert(where, bad)
        return
    if kind == "E004":
        opening = next(i for i, line in enumerate(lines)
                       if line.strip() == "wait @go_signal")
        lines.insert(opening + 1, f"      {CORPUS_ACTORS[0]}.teleport()")
        return
    bad = {
        "E001": "  var broken_e001: speed = missing_name + 1kph",
        "E002": '  var broken_e002: length = 3m + "far"',
        "E003": "  var broken_e003: length = 10kph + 2m",
        # a second field with the name of an existing one
        "E005": f"  {CORPUS_ACTORS[1]}: vehicle",
    }[kind]
    lines.insert(var_at + rng.randrange(4), bad)


def write_corpus(rng: random.Random, directory: str) -> list[CorpusFile]:
    """Write the frontend corpus and return each file's expected verdict.

    Each file's shape (var kinds, statement kinds, nesting) comes from a
    generator seeded by the file's index, so every seed yields the same
    statements with other values, names and injected errors.
    """
    files = []
    for index, target in enumerate(CORPUS_SIZES):
        shape = random.Random(f"frontend_corpus/{index}")
        lines = _clean_source(shape, rng, f"corpus_{index:02d}", target)
        if index in CORPUS_ERROR_FILES:
            kind = rng.choice(ERROR_KINDS)
            _inject(rng, lines, kind)
            expected = (1, frozenset({kind}), False)
        else:
            expected = (0, frozenset(), True)
        path = os.path.join(directory, f"corpus_{index:02d}.osc")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        files.append(CorpusFile(path, len(lines), *expected))
    return files
