"""Command line entry point: check a scenario, run it, or dump its stages.

Exit codes: 0 success, 1 error diagnostics, 2 I/O or configuration failure
(a trace or a dump that cannot be written included), 3 simulated-time budget
exhausted, 4 root Failure or a runtime fault.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import ast
from .btree import dump_tree, required_ticks
from .diagnostics import CompileError, Diagnostic
from .parser import parse
from .runtime import CompiledScenario, builtin_registry, compile_scenario
from .semantics import check

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_IO = 2
EXIT_TIMEOUT = 3
EXIT_FAULT = 4

_OUTCOME_EXITS = {"success": EXIT_OK, "failure": EXIT_FAULT,
                  "fault": EXIT_FAULT, "timeout": EXIT_TIMEOUT}

_SEVERITY_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}
_RESET = "\x1b[0m"


def _use_color(stream) -> bool:
    mode = os.environ.get("OSC2C_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _print_diagnostics(diagnostics: list[Diagnostic], stream=None) -> None:
    stream = stream if stream is not None else sys.stderr
    color = _use_color(stream)
    for diagnostic in diagnostics:
        line = diagnostic.render()
        if color:
            tint = _SEVERITY_COLORS.get(diagnostic.severity, "")
            line = f"{tint}{line}{_RESET}"
        print(line, file=stream)


def _fail_io(message: str) -> int:
    print(f"osc2c: {message}", file=sys.stderr)
    return EXIT_IO


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().replace("\r\n", "\n")


def _round6(value: float) -> float:
    return round(float(value), 6)


def _write_record(stream, record: dict) -> None:
    stream.write(json.dumps(record, separators=(",", ":")) + "\n")


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value) -> str:
    """The JSON text of a trace number, as json.dumps writes `_round6(value)`.

    From 1e-4 up to 1e9, and at a signed zero, that is the six-decimal fixed
    notation with its trailing zeros dropped but one.  Both texts round
    correctly, `repr` writes these magnitudes in fixed notation, and a text
    of at most 15 significant digits is the shortest that reads back as the
    rounded double.
    """
    value = float(value)
    if 1e-4 <= abs(value) < 1e9 or value == 0.0:
        text = ("%.6f" % value).rstrip("0")
        return text + "0" if text[-1] == "." else text
    text = repr(round(value, 6))
    return _NON_FINITE.get(text, text)


class _TickEncoder:
    """Writes each tick record as one JSON line.

    The bytes are those of `_write_record` on the record
    {"record": "tick", "tick", "t", "actors": [{"name", "x", "y",
    "heading", "lane", "speed", "lights"}, ...], "events": [{"name",
    "first"}, ...], "collisions": [[a, b], ...]}, with every number rounded
    by `_round6`.  An actor whose numbers, lane and lights are unchanged
    since the previous tick reuses its previous text; one that changed
    re-rounds only the numbers that changed, and only then are the actors'
    texts joined anew.  Each line goes straight to the stream, whose own
    buffer is the only one.
    """

    def __init__(self, cs: CompiledScenario, stream):
        self._cs = cs
        self._write = stream.write
        self._string = functools.cache(json.dumps)  # names, lights, events
        # one slot per actor, in the world's order, which is fixed once
        # compiled: [actor, numbers, their texts, lane, lights, JSON object]
        self._slots = [[actor, (None,) * 4, (None,) * 4, None, None, None]
                       for actor in cs.world.actors.values()]
        self._actors = None  # the actors' JSON objects, joined; None if stale

    def _tail(self, events: str = "", pairs: str = "") -> str:
        """A tick line from its "actors" field on."""
        return (f'"actors":[{self._actors}],"events":[{events}],'
                f'"collisions":[{pairs}]}}\n')

    def write_tick(self, now: int) -> None:
        for slot in self._slots:
            actor, (x0, y0, h0, s0), (xt, yt, ht, st), lane, lights, _ = slot
            numbers = x, y, h, s = actor.x, actor.y, actor.heading, actor.speed
            same = actor.lane == lane and actor.lights == lights
            # The same object, or an equal non-zero number, keeps its text; an
            # equal zero may have changed sign, and NaN equals nothing.
            if not (x is x0 or x == x0 and x):
                xt, same = _number(x), False
            if not (y is y0 or y == y0 and y):
                yt, same = _number(y), False
            if not (h is h0 or h == h0 and h):
                ht, same = _number(h), False
            if not (s is s0 or s == s0 and s):
                st, same = _number(s), False
            if same:
                continue
            lane, lights = actor.lane, actor.lights
            slot[1:] = numbers, (xt, yt, ht, st), lane, lights, (
                f'{{"name":{self._string(actor.name)},"x":{xt},"y":{yt},'
                f'"heading":{ht},"lane":{"null" if lane is None else lane},'
                f'"speed":{st},"lights":{self._string(lights)}}}')
            self._actors = None
        if self._actors is None:
            self._actors = ",".join([slot[5] for slot in self._slots])
            self._quiet = self._tail()  # on a tick with no event or collision
        cs = self._cs
        t = now * cs.dt  # as `_number` writes it, its fixed notation inline
        t = ("%.6f" % t).rstrip("0") if 1e-4 <= t < 1e9 else _number(t)
        if t[-1] == ".":
            t += "0"
        emissions, collisions = cs.blackboard.emissions, cs.world.collisions
        tail = self._quiet
        if emissions or collisions:
            string = self._string
            tail = self._tail(",".join(
                f'{{"name":{string(name)},'
                f'"first":{"true" if first else "false"}}}'
                for name, first in emissions), ",".join(
                f"[{string(a)},{string(b)}]" for a, b in collisions))
        self._write(f'{{"record":"tick","tick":{now},"t":{t},{tail}')


def _check(path: str, registry):
    """Read a scenario file and check it against the registry's action
    table, printing its diagnostics; returns the analysis if it is clean,
    else an exit code."""
    try:
        source = _read_source(path)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail_io(str(exc))
    analysis = check(source, path, extra_actions=registry.action_table())
    _print_diagnostics(analysis.diagnostics)
    return analysis if analysis.ok else EXIT_DIAGNOSTICS


def cmd_check(args) -> int:
    analysis = _check(args.file, builtin_registry())
    return analysis if isinstance(analysis, int) else EXIT_OK


def _compile(path: str, road: str | None = None, dt: float = 0.05):
    """Read, check and lower a scenario file, printing its diagnostics;
    returns an exit code, or the compiled scenario with no actor placed."""
    registry = builtin_registry()
    analysis = _check(path, registry)
    if isinstance(analysis, int):
        return analysis
    try:
        return compile_scenario(analysis, registry=registry, road=road, dt=dt,
                                filename=path, initialize=False)
    except (OSError, ValueError) as exc:  # the road map
        return _fail_io(str(exc))


def cmd_run(args) -> int:
    if not 0 < args.dt < math.inf:
        return _fail_io(f"--dt must be finite and positive, got {args.dt}")
    if not 0 <= args.max_time < math.inf:
        return _fail_io(
            f"--max-time must be finite and not negative, got {args.max_time}")
    cs = _compile(args.file, args.map, args.dt)
    if isinstance(cs, int):
        return cs

    try:
        stream = (sys.stdout if args.trace is None
                  else open(args.trace, "w", encoding="utf-8"))
    except OSError as exc:
        return _fail_io(str(exc))
    try:
        _write_record(stream, {
            "record": "header",
            "scenario": cs.scenario.decl.name,
            "map": cs.world.road.name,
            "dt": _round6(args.dt),
        })
        outcome, ticks, fault = cs.run(required_ticks(args.max_time, cs.dt),
                                       _TickEncoder(cs, stream).write_tick)
        if fault is not None:
            _write_record(stream, {
                "record": "fault", "tick": ticks,
                "error": type(fault).__name__, "message": str(fault),
            })
        events = sorted(cs.blackboard.events.items(),
                        key=lambda item: (item[1], item[0]))
        _write_record(stream, {
            "record": "summary", "outcome": outcome, "ticks": ticks,
            "events": [{"name": name, "tick": tick} for name, tick in events]})
        return _OUTCOME_EXITS[outcome]
    finally:
        if stream is not sys.stdout:
            stream.close()


def cmd_dump(args) -> int:
    if args.what == "bt":
        cs = _compile(args.file)
        if isinstance(cs, int):
            return cs
        print(dump_tree(cs.root))
        return EXIT_OK

    try:
        source = _read_source(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        return _fail_io(str(exc))
    try:
        program = parse(source, args.file)
    except CompileError as exc:
        _print_diagnostics([exc.diagnostic])
        return EXIT_DIAGNOSTICS
    print(ast.dump_json(program))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osc2c",
        description="Compile and execute scenario files on the built-in "
                    "kinematic traffic world.")
    sub = parser.add_subparsers(dest="command", required=True)

    check_parser = sub.add_parser(
        "check", help="parse and semantically check a scenario file")
    check_parser.add_argument("file", help="scenario source file")

    run_parser = sub.add_parser(
        "run", help="execute a scenario and write a tick-by-tick trace")
    run_parser.add_argument("file", help="scenario source file")
    run_parser.add_argument(
        "--map", default=None,
        help="road map, builtin:<name> or a JSON file "
             "(default: the map bound in the scenario)")
    run_parser.add_argument(
        "--dt", type=float, default=0.05,
        help="simulation step in seconds (default 0.05)")
    run_parser.add_argument(
        "--max-time", type=float, default=300.0, dest="max_time",
        help="simulated time budget in seconds (default 300)")
    run_parser.add_argument(
        "--trace", default=None,
        help="trace output file (default: stdout)")

    dump_parser = sub.add_parser(
        "dump", help="print the AST or the lowered behavior tree")
    dump_parser.add_argument("file", help="scenario source file")
    dump_parser.add_argument(
        "--what", choices=("ast", "bt"), required=True,
        help="which stage to dump")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"check": cmd_check, "run": cmd_run, "dump": cmd_dump}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except OSError as exc:  # a trace or a dump that cannot be written
        if getattr(args, "trace", None) is None:
            # stdout: the interpreter's last flush of it would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return _fail_io(f"cannot write the output: {exc}")


if __name__ == "__main__":
    sys.exit(main())
