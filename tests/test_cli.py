"""CLI tests: exit codes, diagnostics output, trace format, dumps."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from osc2c import cli
from osc2c.btree import FAILURE, ActionLeaf, required_ticks
from osc2c.cli import _TickEncoder, _number, main
from osc2c.parser import MAX_DEPTH
from osc2c.prelude import Signature
from osc2c.runtime import builtin_registry, compile_scenario, compile_source
from osc2c.semantics import check
from osc2c.world import LIGHT_MODES, Actor

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FLAGSHIP = str(SCENARIOS / "cut_in_and_evade.osc")
HANDSHAKE = str(SCENARIOS / "handshake_phases.osc")
MINIMAL = str(SCENARIOS / "minimal_wait.osc")
SRC = str(Path(__file__).resolve().parent.parent / "src")
BROKEN_PIPE = "osc2c: cannot write the output: [Errno 32] Broken pipe"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_trace(path):
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    assert records, "empty trace"
    return records


class TestCheck:
    def test_flagship_one_warning(self, capsys):
        assert main(["check", FLAGSHIP]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert "warning[W001]" in lines[0]

    def test_undefined_reference(self, tmp_path, capsys):
        path = write(tmp_path, "bad.osc",
                     "scenario s:\n  do serial:\n    wait ghost.speed > 1kph\n")
        assert main(["check", path]) == 1
        assert "error[E001]" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.osc"]) == 2

    def test_out_of_range_literal(self, tmp_path, capsys):
        # used to pass check and end `run` in a traceback
        path = write(tmp_path, "huge.osc",
                     "scenario s:\n  var d: length = " + "9" * 400 + "m\n"
                     "  do serial:\n    wait elapsed(1s)\n")
        assert main(["check", path]) == 1
        assert "error[L001]: number literal is out of range" in \
            capsys.readouterr().err

    def test_color_forced(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OSC2C_COLOR", "always")
        assert main(["check", FLAGSHIP]) == 0
        assert "\x1b[33m" in capsys.readouterr().err

    def test_color_suppressed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OSC2C_COLOR", "never")
        assert main(["check", FLAGSHIP]) == 0
        assert "\x1b[" not in capsys.readouterr().err

    def test_second_scenario_is_an_error(self, tmp_path, capsys):
        # used to be ignored, with exit 0
        path = write(tmp_path, "two.osc",
                     "scenario a:\n  do serial:\n    wait elapsed(1s)\n"
                     "scenario b:\n  hero: vehicle\n")
        assert main(["check", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:4:1: error[E002]: a file declares one scenario; "
            "'b' is a second"]

    def test_deep_nesting_is_p001(self, tmp_path, capsys):
        # used to end in a RecursionError traceback
        path = write(tmp_path, "deep.osc",
                     "scenario s:\n  var x: speed = " + "(" * 3000 + "1kph"
                     + ")" * 3000 + "\n")
        assert main(["check", path]) == 1
        err = capsys.readouterr().err
        assert "error[P001]: expected shallower nesting" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("expr", [
        "1kph" + " + 1kph" * 1999,
        " and ".join(["x > 0kph"] * 2000),
        "hero" + ".speed" * 2000,
    ], ids=["additions", "conjunctions", "member-reads"])
    def test_long_chain_is_p001(self, expr, tmp_path, capsys):
        # used to end in a RecursionError traceback in the checker or in
        # ast.to_dict: the parser builds a chain in a loop
        path = write(tmp_path, "chain.osc",
                     "scenario s:\n  hero: vehicle\n  var x: speed = 1kph\n"
                     f"  var y: speed = {expr}\n"
                     "  do serial:\n    wait hero.speed > y\n")
        trace = str(tmp_path / "trace.ndjson")
        for argv in (["check", path], ["dump", path, "--what", "ast"],
                     ["run", path, "--trace", trace]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert "error[P001]: expected shallower nesting" in err
            assert "Traceback" not in err

    def test_non_ascii_digit_is_l001(self, tmp_path, capsys):
        # "²" used to end in a ValueError traceback, exit 1
        path = write(tmp_path, "digit.osc",
                     "scenario s:\n  var x: length = \u00b2m\n")
        assert main(["check", path]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:2:19: error[L001]: unexpected character '\u00b2'"]


def nested(form, depth):
    """A scenario whose deepest construct is `depth` levels of `form`."""
    text = "scenario s:\n  hero: vehicle\n"
    if form == "parentheses":
        return (text + "  var x: speed = " + "(" * depth + "1kph"
                + ")" * depth + "\n  do serial:\n    wait hero.speed > x\n")
    if form == "negations":
        return (text + "  var x: speed = " + "-" * depth + "1kph\n"
                "  do serial:\n    wait hero.speed > x\n")
    if form == "nots":  # inside the one composition
        return (text + "  do serial:\n    wait " + "not " * (depth - 1)
                + "hero.speed > 1kph\n")
    if form == "additions":  # each operator of a chain is one level
        return (text + "  var x: speed = 1kph" + " + 1kph" * depth
                + "\n  do serial:\n    wait hero.speed > x\n")
    if form == "conjunctions":  # of operands with no operator level
        return (text + "  var x: speed = 1kph\n  do serial:\n    wait "
                + " and ".join(["x > 0kph"] * (depth + 1)) + "\n")
    return (text + "  do serial:\n"
            + "".join("  " * level + "serial:\n"
                      for level in range(2, depth + 1))
            + "  " * (depth + 1) + "wait elapsed(1s)\n")


@pytest.mark.parametrize("form", ["parentheses", "negations", "nots",
                                  "compositions", "additions",
                                  "conjunctions"])
def test_deepest_accepted_nesting_runs(form, tmp_path, capsys):
    """The nesting limit, not Python's recursion limit, bounds each stage."""
    path = write(tmp_path, "deep.osc", nested(form, MAX_DEPTH))
    assert main(["check", path]) == 0
    assert main(["dump", path, "--what", "ast"]) == 0
    assert main(["dump", path, "--what", "bt"]) == 0
    trace = str(tmp_path / "trace.ndjson")
    assert main(["run", path, "--max-time", "0.1", "--trace", trace]) in (0, 3)
    capsys.readouterr()
    path = write(tmp_path, "deeper.osc", nested(form, MAX_DEPTH + 1))
    assert main(["check", path]) == 1
    assert "expected shallower nesting" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check"], ["run"],
                                     ["dump", "--what", "ast"],
                                     ["dump", "--what", "bt"]],
                         ids=["check", "run", "dump-ast", "dump-bt"])
def test_non_utf8_source_is_an_io_failure(command, tmp_path, capsys):
    """A source file that is not UTF-8 exits 2, as an unreadable one does;
    it used to end in a UnicodeDecodeError traceback."""
    path = tmp_path / "utf16.osc"
    path.write_bytes(b"\xff\xfe" + "scenario s:\n".encode("utf-16-le"))
    trace = tmp_path / "trace.ndjson"
    argv = [command[0], str(path), *command[1:]]
    if command == ["run"]:
        argv += ["--trace", str(trace)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("osc2c: 'utf-8' codec can't "
                                              "decode byte 0xff")
    assert not trace.exists()


@pytest.mark.parametrize("argv", [["run", FLAGSHIP], ["run", MINIMAL],
                                  ["dump", FLAGSHIP, "--what", "ast"],
                                  ["dump", MINIMAL, "--what", "bt"]],
                         ids=["run", "run-small", "dump-ast", "dump-bt"])
def test_reader_that_stops_early_exits_2(argv):
    """`osc2c ... | head -c 100` exits 2 with one line on stderr; it used
    to end in a BrokenPipeError traceback with exit 1.  Here the reader is
    gone before the start.  A small output waits in stdout's buffer until
    the last flush, which must fail inside `main` and not at exit."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)  # stdout is block-buffered, as usual
    reader, writer = os.pipe()
    os.close(reader)
    try:
        result = subprocess.run([sys.executable, "-m", "osc2c", *argv],
                                stdout=writer, stderr=subprocess.PIPE,
                                env=env)
    finally:
        os.close(writer)
    err = result.stderr.decode()
    assert result.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.splitlines()[-1] == BROKEN_PIPE


class ClosedPipe:
    """A stdout whose reader goes away after the first write."""

    def __init__(self, fd: int):
        self.fd = fd
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def fileno(self) -> int:
        return self.fd


@pytest.mark.parametrize("argv", [["run", FLAGSHIP],
                                  ["dump", FLAGSHIP, "--what", "ast"]],
                         ids=["run", "dump-ast"])
def test_stdout_write_failure_exits_2(argv, tmp_path, capsys):
    """A failed write to stdout, in the tick loop or after it, is one
    `osc2c:` line and exit 2, and stdout's descriptor is pointed at the
    null device so that the interpreter's last flush cannot fail."""
    with open(tmp_path / "stdout", "wb") as target:
        pipe = ClosedPipe(target.fileno())
        with contextlib.redirect_stdout(pipe):
            assert main(argv) == 2
        os.write(target.fileno(), b"lost")
    assert (tmp_path / "stdout").read_bytes() == b""
    assert capsys.readouterr().err.splitlines()[-1] == BROKEN_PIPE
    if argv[0] == "run":  # the header, then one failed tick line
        assert pipe.writes == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_trace_on_a_full_device_exits_2(capsys):
    assert main(["run", MINIMAL, "--trace", "/dev/full"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "osc2c: cannot write the output: [Errno 28] No space left on device"]


class TestRun:
    def test_flagship_trace_contract(self, tmp_path):
        trace = str(tmp_path / "trace.ndjson")
        assert main(["run", FLAGSHIP, "--trace", trace]) == 0
        records = read_trace(trace)

        header = records[0]
        assert header["record"] == "header"
        assert header["dt"] == 0.05
        assert header["map"] == "town06"

        ticks = [r for r in records if r["record"] == "tick"]
        summary = records[-1]
        assert summary["record"] == "summary"
        assert summary["outcome"] == "success"
        assert summary["ticks"] == len(ticks)

        for i, record in enumerate(ticks):
            assert record["tick"] == i
            assert record["t"] == round(i * 0.05, 6)
        names = [a["name"] for a in ticks[0]["actors"]]
        assert names == ["hero", "npc", "obstacle"]

        timeline = {e["name"]: e["tick"] for e in summary["events"]}
        assert timeline["go_signal"] == 0
        assert 0 < timeline["CRASH_AVOIDED"] < timeline["OBSTACLE_DETECTED"]
        assert timeline["OBSTACLE_DETECTED"] < summary["ticks"]

        # each event carries first=true exactly once across the run
        firsts = {}
        for record in ticks:
            for event in record["events"]:
                if event["first"]:
                    firsts[event["name"]] = firsts.get(event["name"], 0) + 1
        assert firsts == {"go_signal": 1, "CRASH_AVOIDED": 1,
                          "OBSTACLE_DETECTED": 1}
        assert all(not r["collisions"] for r in ticks)

    def test_reruns_byte_identical(self, tmp_path):
        first = tmp_path / "a.ndjson"
        second = tmp_path / "b.ndjson"
        assert main(["run", FLAGSHIP, "--trace", str(first)]) == 0
        assert main(["run", FLAGSHIP, "--trace", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_timeout_exit_three(self, tmp_path):
        path = write(tmp_path, "stuck.osc",
                     "scenario stuck:\n  do serial:\n    wait @never\n")
        trace = str(tmp_path / "trace.ndjson")
        code = main(["run", path, "--trace", trace, "--max-time", "1"])
        assert code == 3
        records = read_trace(trace)
        assert records[-1]["outcome"] == "timeout"
        assert records[-1]["ticks"] == 20

    def test_off_map_fault_exit_four(self, tmp_path):
        path = write(tmp_path, "runaway.osc",
                     "scenario runaway:\n  a: vehicle\n  do serial:\n"
                     "    a.drive() with:\n      speed(200kph)\n")
        trace = str(tmp_path / "trace.ndjson")
        assert main(["run", path, "--trace", trace]) == 4
        records = read_trace(trace)
        faults = [r for r in records if r["record"] == "fault"]
        assert len(faults) == 1
        assert faults[0]["error"] == "OffMapFault"
        assert records[-1]["outcome"] == "fault"

    def test_placement_fault_during_run(self, tmp_path):
        # assign_position without `at: start` places the actor when ticked
        path = write(tmp_path, "lane7.osc",
                     "scenario lane7:\n  a: vehicle\n  do serial:\n"
                     "    a.assign_position() with:\n      lane(7)\n")
        trace = str(tmp_path / "trace.ndjson")
        assert main(["run", path, "--trace", trace]) == 4
        fault = read_trace(trace)[1]
        assert (fault["tick"], fault["error"]) == (0, "InitConflict")
        assert fault["message"] == "no default spawn point on lane 7 for actor 'a'"

    def test_spawn_collision_fault(self, tmp_path):
        path = write(
            tmp_path, "pileup.osc",
            "scenario pileup:\n  a: vehicle\n  b: vehicle\n  do serial:\n"
            "    a.assign_position() with:\n      lane(1, at: start)\n"
            "    b.assign_position() with:\n      lane(1, at: start)\n"
            "    wait elapsed(1s)\n")
        trace = str(tmp_path / "trace.ndjson")
        assert main(["run", path, "--trace", trace]) == 4
        records = read_trace(trace)
        assert records[1]["record"] == "fault"
        assert records[1]["error"] == "SpawnCollision"

    def test_unsupported_action_exit_one(self, tmp_path, capsys):
        # `check` knows the action has no backend, so `run` never starts
        path = write(tmp_path, "ped.osc",
                     "scenario s:\n  p: person\n  do serial:\n    p.walk()\n")
        e007 = (f"{path}:4:5: error[E007]: action 'walk' is not supported "
                f"by the execution backend for type 'person'")
        assert main(["check", path]) == 1
        assert capsys.readouterr().err.splitlines() == [e007]
        assert main(["run", path, "--trace", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err.splitlines() == [e007]
        assert not (tmp_path / "t").exists()

    def test_unknown_builtin_map(self, tmp_path):
        code = main(["run", MINIMAL, "--map", "builtin:atlantis",
                     "--trace", str(tmp_path / "t")])
        assert code == 2

    def test_warnings_come_before_a_map_error(self, tmp_path, capsys):
        code = main(["run", FLAGSHIP, "--map", "builtin:atlantis",
                     "--trace", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in err] == [
            "warning[W001]", "unknown builtin map 'atlantis'"]

    def test_custom_map_file(self, tmp_path):
        road = write(tmp_path, "strip.json", json.dumps({
            "name": "strip", "lane_count": 3, "lane_width": 4.0,
            "length": 2000.0, "spawns": [[0, 5], [1, 5], [2, 5]]}))
        trace = str(tmp_path / "trace.ndjson")
        assert main(["run", MINIMAL, "--map", road, "--trace", trace]) == 0
        assert read_trace(trace)[0]["map"] == "strip"

    def test_unwritable_trace(self):
        assert main(["run", MINIMAL, "--trace", "/no/such/dir/t.ndjson"]) == 2

    def test_bad_dt(self, tmp_path):
        assert main(["run", MINIMAL, "--dt", "0",
                     "--trace", str(tmp_path / "t")]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--dt", "nan"), ("--dt", "inf"), ("--max-time", "nan"),
        ("--max-time", "-1")])
    def test_flag_not_finite_or_negative(self, flag, value, tmp_path, capsys):
        trace = tmp_path / "t.ndjson"
        assert main(["run", MINIMAL, flag, value, "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith(f"osc2c: {flag} must be")
        assert not trace.exists()

    def test_invalid_map_file(self, tmp_path, capsys):
        road = write(tmp_path, "strip.json", json.dumps({
            "name": "strip", "lane_count": 2, "lane_width": 4.0,
            "length": 100.0, "spawns": [[5, 5]]}))
        trace = tmp_path / "t.ndjson"
        assert main(["run", MINIMAL, "--map", road, "--trace", str(trace)]) == 2
        assert "is not on the road" in capsys.readouterr().err
        assert not trace.exists()

    def test_overflowing_map_file(self, tmp_path, capsys):
        road = write(tmp_path, "strip.json",
                     '{"name": "strip", "lane_count": 1e400, "lane_width": 4.0,'
                     ' "length": 100.0, "spawns": [[0, 5]]}')
        trace = tmp_path / "t.ndjson"
        assert main(["run", MINIMAL, "--map", road, "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            f"osc2c: bad map file {road!r}: cannot convert float infinity "
            f"to integer\n")
        assert not trace.exists()

    @pytest.mark.parametrize("text, problem", [
        ('{"name": "strip", "lane_count": 2.9, "lane_width": 4.0,'
         ' "length": 100.0, "spawns": [[1.7, 5]]}',
         "lane_count must be a whole number, got 2.9"),
        ('{"name": "strip", "lane_count": 2, "lane_width": 4.0,'
         ' "length": 100.0, "spawns": [[1.7, 5]]}',
         "a spawn lane must be a whole number, got 1.7"),
        ('{"name": "strip", "lane_count": ',
         "Expecting value: line 1 column 33 (char 32)"),
        ("[" * 200_000, "maximum recursion depth exceeded"),
        # values of the wrong JSON type used to be coerced
        ('{"name": ["a"], "lane_count": 2, "lane_width": 4.0,'
         ' "length": 100.0, "spawns": [[1, 5]]}',
         "name must be a string, got ['a']"),
        ('{"name": "strip", "lane_count": "2", "lane_width": 4.0,'
         ' "length": 100.0, "spawns": [[1, 5]]}',
         "lane_count must be a number, got '2'"),
        ('{"name": "strip", "lane_count": 2, "lane_width": "3.5",'
         ' "length": 100.0, "spawns": [[1, 5]]}',
         "lane_width must be a number, got '3.5'"),
        ('{"name": "strip", "lane_count": 2, "lane_width": 4.0,'
         ' "length": 100.0, "spawns": [[true, 5]]}',
         "a spawn lane must be a number, got True"),
        ('{"name": "strip", "lane_count": 2, "lane_width": 4.0,'
         ' "length": 100.0, "spawns": [[1, null]]}',
         "a spawn station must be a number, got None"),
    ], ids=["fractional-lane-count", "fractional-spawn-lane",
            "malformed", "deeply-nested", "list-name", "string-lane-count",
            "string-lane-width", "boolean-spawn-lane", "null-spawn-station"])
    def test_bad_map_file(self, tmp_path, capsys, text, problem):
        road = write(tmp_path, "strip.json", text)
        trace = tmp_path / "t.ndjson"
        assert main(["run", MINIMAL, "--map", road, "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.startswith(
            f"osc2c: bad map file {road!r}: {problem}")
        assert not trace.exists()

    def test_seed_less_rejected(self, tmp_path, capsys):
        # a no-op flag until it was removed
        trace = tmp_path / "trace.ndjson"
        with pytest.raises(SystemExit) as exc:
            main(["run", MINIMAL, "--seed-less", "--trace", str(trace)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed-less" in capsys.readouterr().err
        assert not trace.exists()


class TestDump:
    def test_ast_minimal(self, capsys):
        assert main(["dump", MINIMAL, "--what", "ast"]) == 0
        out = capsys.readouterr().out
        elapsed = []
        stack = [json.loads(out)]
        while stack:
            value = stack.pop()
            if isinstance(value, dict):
                if value.get("node") == "ElapsedCondition":
                    elapsed.append(value)
                stack.extend(value.values())
            elif isinstance(value, list):
                stack.extend(value)
        assert len(elapsed) == 1

    def test_ast_dump_stable(self, capsys):
        assert main(["dump", FLAGSHIP, "--what", "ast"]) == 0
        first = capsys.readouterr().out
        assert main(["dump", FLAGSHIP, "--what", "ast"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_ast_parse_error(self, tmp_path, capsys):
        path = write(tmp_path, "broken.osc", "scenario s\n")
        assert main(["dump", path, "--what", "ast"]) == 1
        assert "error[P001]" in capsys.readouterr().err

    def test_bt_minimal(self, capsys):
        assert main(["dump", MINIMAL, "--what", "bt"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Sequence")
        assert lines[1].lstrip().startswith("Timer")
        assert len(lines) == 2

    def test_bt_top_level_parallel(self, capsys):
        assert main(["dump", HANDSHAKE, "--what", "bt"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("Parallel")
        branches = [line for line in lines
                    if line.startswith("  ") and not line.startswith("   ")]
        assert [b.strip().split("(")[0] for b in branches] == \
            ["Sequence", "Sequence"]

    def test_bt_dump_stable(self, capsys):
        assert main(["dump", HANDSHAKE, "--what", "bt"]) == 0
        first = capsys.readouterr().out
        assert main(["dump", HANDSHAKE, "--what", "bt"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_bt_semantic_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.osc",
                     "scenario s:\n  do serial:\n    wait ghost.speed > 1kph\n")
        assert main(["dump", path, "--what", "bt"]) == 1
        assert "error[E001]" in capsys.readouterr().err

    def test_bt_unsupported_action(self, tmp_path, capsys):
        path = write(tmp_path, "ped.osc",
                     "scenario s:\n  p: person\n  do serial:\n    p.walk()\n")
        assert main(["dump", path, "--what", "bt"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:4:5: error[E007]: action 'walk' is not supported by the "
            f"execution backend for type 'person'"]
        assert main(["check", path]) == 1


# One program per way a run ends, with its outcome and fault type: the
# shipped scenarios succeed, and each probe faults in its own way or runs
# out of time.
RUN_PROBES = {
    **{path.stem: (path.read_text(), "success", None)
       for path in sorted(SCENARIOS.glob("*.osc"))},
    "off-map": ("scenario p:\n  a: vehicle\n  do serial:\n"
                "    a.drive() with:\n      speed(200kph)\n",
                "fault", "OffMapFault"),
    "arbitration": ("scenario p:\n  a: vehicle\n  do parallel:\n"
                    "    a.drive() with:\n      speed(5kph)\n"
                    "    serial:\n      wait elapsed(0.2s)\n"
                    "      a.change_speed(target: 0kph)\n",
                    "fault", "ArbitrationFault"),
    "eval-error": ("scenario p:\n  a: vehicle\n  b: vehicle\n  do serial:\n"
                   "    wait b.position.ahead_of(a) / a.speed > 1s\n",
                   "fault", "EvalError"),
    "placement-at-start": ("scenario p:\n  a: vehicle\n  do serial:\n"
                           "    a.assign_position() with:\n"
                           "      lane(7, at: start)\n",
                           "fault", "InitConflict"),
    "placement-while-running": ("scenario p:\n  a: vehicle\n  do serial:\n"
                                "    wait elapsed(0.1s)\n"
                                "    a.assign_position() with:\n"
                                "      lane(7)\n",
                                "fault", "InitConflict"),
    "spawn-collision": ("scenario p:\n  a: vehicle\n  b: vehicle\n"
                        "  do serial:\n    a.assign_position() with:\n"
                        "      lane(1, at: start)\n"
                        "    b.assign_position() with:\n"
                        "      lane(1, at: start)\n",
                        "fault", "SpawnCollision"),
    # a's later lane placement leaves it to the run to find a off the
    # road network; with no such placement it is a check-time E002
    "anchor-off-network-while-running": (
        "scenario p:\n  a: vehicle\n  b: vehicle\n  do serial:\n"
        "    a.assign_position() with:\n      position(x: 10m, y: 0m)\n"
        "    b.assign_position() with:\n"
        "      position(distance: 5m, behind: a)\n"
        "    a.assign_position() with:\n      lane(1)\n",
        "fault", "InitConflict"),
    "or-wait": ("scenario p:\n  a: vehicle\n  do serial:\n"
                "    wait a.speed > 1kph or 1m < 2m\n",
                "success", None),
    "timeout": ("scenario p:\n  do serial:\n    wait @never\n",
                "timeout", None),
}


@pytest.mark.parametrize("name", RUN_PROBES)
def test_library_and_cli_runs_agree(name, tmp_path):
    """`CompiledScenario.run` and `osc2c run` end each run alike: the same
    outcome, tick count and fault type, and the exit code of the outcome."""
    source, expected_outcome, expected_fault = RUN_PROBES[name]
    path = write(tmp_path, f"{name}.osc", source)
    trace = tmp_path / "trace.ndjson"
    code = main(["run", path, "--trace", str(trace)])
    records = read_trace(trace)
    faults = [r["error"] for r in records if r["record"] == "fault"]
    cs = compile_scenario(check(source, path), initialize=False)
    outcome, ticks, fault = cs.run(required_ticks(300.0, cs.dt))
    assert (outcome, None if fault is None else type(fault).__name__) == (
        expected_outcome, expected_fault)
    assert (records[-1]["outcome"], records[-1]["ticks"], faults) == (
        outcome, ticks, [] if fault is None else [expected_fault])
    assert code == {"success": 0, "fault": 4, "timeout": 3}[outcome]


class GiveUpLeaf(ActionLeaf):
    """Fails when ticked: a custom leaf may fail, no builtin node does."""

    def _tick(self, ctx):
        return FAILURE


def give_up_registry():
    """The builtin registry plus `vehicle.give_up()`, whose leaf fails."""
    registry = builtin_registry()
    registry.register("vehicle", "give_up",
                      lambda receiver, args, modifiers, world: GiveUpLeaf(),
                      Signature())
    return registry


GIVE_UP = ("scenario p:\n  a: vehicle\n  b: vehicle\n  do parallel:\n"
           "    a.drive() with:\n      speed(10kph)\n"
           "    one_of:\n      b.drive()\n"
           "      serial:\n        wait elapsed(0.1s)\n        b.give_up()\n")


def test_custom_failing_leaf_fails_the_run(tmp_path, monkeypatch):
    """A registered leaf that fails ends the run with the outcome failure
    and exit 4, and halts the running siblings in one_of and parallel."""
    cs = compile_source(GIVE_UP, registry=give_up_registry())
    assert cs.run(required_ticks(300.0, cs.dt)) == ("failure", 3, None)
    drive_a, one_of = cs.root.children()
    drive_b, _ = one_of.children()
    assert drive_a.halted and drive_b.halted

    monkeypatch.setattr(cli, "builtin_registry", give_up_registry)
    path = write(tmp_path, "give_up.osc", GIVE_UP)
    trace = tmp_path / "trace.ndjson"
    assert main(["check", path]) == 0
    assert main(["run", path, "--trace", str(trace)]) == 4
    records = read_trace(trace)
    assert [r["record"] for r in records] == ["header"] + ["tick"] * 3 + [
        "summary"]
    assert trace.read_text().splitlines()[-1] == (
        '{"record":"summary","outcome":"failure","ticks":3,'
        '"events":[{"name":"go_signal","tick":0}]}')


def test_trace_longer_than_a_chunk_ends_in_a_fault(tmp_path):
    """Tick lines of a long run come in order, each one valid JSON, and the
    fault record follows the last of them."""
    path = write(tmp_path, "off_map.osc",
                 "scenario p:\n  a: vehicle\n  do serial:\n"
                 "    a.drive() with:\n      speed(120kph)\n")
    trace = tmp_path / "trace.ndjson"
    assert main(["run", path, "--trace", str(trace)]) == 4
    records = read_trace(trace)
    ticks = len(records) - 3
    assert [r["record"] for r in records] == (
        ["header"] + ["tick"] * ticks + ["fault", "summary"])
    assert [r["tick"] for r in records[1:-2]] == list(range(ticks))
    assert records[-2] == {"record": "fault", "tick": ticks,
                           "error": "OffMapFault",
                           "message": "actor 'a' left the road at s=601.39"}
    assert records[-1]["ticks"] == ticks


class InterruptLeaf(ActionLeaf):
    """Raises KeyboardInterrupt when ticked, as Ctrl-C can mid-tick."""

    def _tick(self, ctx):
        raise KeyboardInterrupt(ctx.now)


def test_interrupted_run_keeps_every_completed_tick(tmp_path, monkeypatch):
    """The trace of a run interrupted in tick k holds the header and the
    lines of ticks 0 to k - 1."""
    def registry():
        registry = builtin_registry()
        registry.register("vehicle", "interrupt",
                          lambda receiver, args, modifiers, world:
                          InterruptLeaf(), Signature())
        return registry

    monkeypatch.setattr(cli, "builtin_registry", registry)
    path = write(tmp_path, "interrupt.osc",
                 "scenario p:\n  a: vehicle\n  do serial:\n"
                 "    wait elapsed(15s)\n    a.interrupt()\n")
    trace = tmp_path / "trace.ndjson"
    with pytest.raises(KeyboardInterrupt) as interrupt:
        main(["run", path, "--trace", str(trace)])
    k = interrupt.value.args[0]
    records = read_trace(trace)
    assert [r["record"] for r in records] == ["header"] + ["tick"] * k
    assert [r["tick"] for r in records[1:]] == list(range(k))


def reference_tick_record(cs, now):
    """The tick record as a dict, as `json.dumps` gets it (the reference)."""
    def round6(value):
        return round(float(value), 6)
    actors = []
    for actor in cs.world.actors.values():
        actors.append({
            "name": actor.name,
            "x": round6(actor.x),
            "y": round6(actor.y),
            "heading": round6(actor.heading),
            "lane": actor.lane,
            "speed": round6(actor.speed),
            "lights": actor.lights,
        })
    return {
        "record": "tick",
        "tick": now,
        "t": round6(now * cs.dt),
        "actors": actors,
        "events": [{"name": name, "first": first}
                   for name, first in cs.blackboard.emissions],
        "collisions": [list(pair) for pair in cs.world.collisions],
    }


# Signed zeros, values that round to -0.0 or sit on a half-way point,
# exponent forms, large magnitudes, ints and non-finite values.
TRACE_NUMBERS = (0.0, -0.0, -1e-7, 1e-7, -4e-7, 5e-07, -5e-07, 1.5e-06,
                 1e-05, -1e-05, 0.1 + 0.2, 2.0000005, 1e16, 1e22, -1e22,
                 0, 1, -3, 2 ** 53 + 1, math.nan, math.inf, -math.inf)
SAME = None  # a field that keeps its previous tick's value
OFF_NETWORK = object()  # a lane of None

trace_number = (st.sampled_from(TRACE_NUMBERS) | st.floats()
                | st.integers(-2 ** 62, 2 ** 62))
trace_name = st.text(max_size=4) | st.sampled_from(("hero", "npc", "é", "車"))
FLIP = {"x": 0.0, "y": -0.0, "heading": 0.0, "speed": -0.0,
        "lane": OFF_NETWORK, "lights": SAME}
FLOP = {"x": -0.0, "y": 0.0, "heading": -0.0, "speed": 0.0,
        "lane": SAME, "lights": SAME}


@st.composite
def tick_inputs(draw):
    """Actor names and four or five ticks of actor fields, events and
    collisions.  Numbers come from a small pool that always holds 0.0 and
    -0.0, so fields repeat, change and flip sign from tick to tick."""
    names = draw(st.lists(trace_name, min_size=1, max_size=3, unique=True))
    pool = [SAME, 0.0, -0.0] + draw(st.lists(trace_number, max_size=4))
    number = st.sampled_from(pool)
    state = st.fixed_dictionaries({
        "x": number, "y": number, "heading": number, "speed": number,
        "lane": st.sampled_from((SAME, OFF_NETWORK, 0, 1, 4)),
        "lights": st.sampled_from((SAME,) + LIGHT_MODES + ("é",)),
    })
    label = st.sampled_from(names + ["go_signal", "évite"])
    ticks = draw(st.lists(st.tuples(
        st.lists(state, min_size=len(names), max_size=len(names)),
        st.lists(st.tuples(label, st.booleans()), max_size=2),
        st.lists(st.tuples(label, label), max_size=2)),
        min_size=4, max_size=5))
    return names, ticks


@settings(max_examples=200, deadline=None)
@given(inputs=tick_inputs(), dt=st.sampled_from((0.05, 0.1, 1e-7, 0.3)),
       start=st.integers(0, 10 ** 6))
@example(inputs=(["hero", "npc"], [([FLIP, FLOP], [], []),
                                   ([FLOP, FLIP], [], []),
                                   ([FLIP, FLOP], [], []),
                                   ([FLOP, FLIP], [], [])]),
         dt=0.05, start=0)
def test_tick_lines_match_json_dumps(inputs, dt, start):
    """Each tick line is `json.dumps` of the record, tick after tick."""
    names, ticks = inputs
    actors = {name: Actor(name, "vehicle") for name in names}
    world = SimpleNamespace(actors=actors, collisions=[])
    blackboard = SimpleNamespace(emissions=[])
    cs = SimpleNamespace(world=world, blackboard=blackboard, dt=dt)
    stream = io.StringIO()
    encoder = _TickEncoder(cs, stream)
    for offset, (states, emissions, collisions) in enumerate(ticks):
        for actor, state in zip(actors.values(), states):
            for field, value in state.items():
                if value is OFF_NETWORK:
                    actor.lane = None
                elif value is not SAME:
                    setattr(actor, field, value)
        blackboard.emissions = emissions
        world.collisions = collisions
        before = stream.tell()
        encoder.write_tick(start + offset)
        line = stream.getvalue()[before:]
        assert line == json.dumps(reference_tick_record(cs, start + offset),
                                  separators=(",", ":")) + "\n"


def _neighbours(value, count=3):
    """``value`` and the ``count`` doubles on either side of it."""
    out = [value]
    for direction in (math.inf, -math.inf):
        x = value
        for _ in range(count):
            x = math.nextafter(x, direction)
            out.append(x)
    return out


# Where the fixed-notation path ends (1e-4 and 1e9, either sign) and the
# doubles next to those bounds, values just below 1e-4 that `repr` writes
# with an exponent, signed zeros, values that round to 1e-4, 1e9 or zero,
# half-way points at the sixth decimal, non-finite values and ints.
NUMBER_EDGES = tuple(
    [x for bound in (1e-4, -1e-4, 1e9, -1e9) for x in _neighbours(bound)]
    + [9.9e-5, -9.9e-5, 5e-5, 1e-5, 1.5e-6, 0.0000994999,
       0.0, -0.0, 5e-7, -5e-7, 4.9999999e-7, 0.00009999995, 0.0000999995,
       0.0001000005, 2.0000005, -2.0000005, 0.1 + 0.2, 999999999.9999995,
       999999999.9999996, -999999999.9999996, 123456.0000005, 1e16, 1e-300,
       5e-324, math.nan, math.inf, -math.inf, 0, 1, -3, 10 ** 9,
       2 ** 53 + 1])


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=500, deadline=None)
@given(value=st.floats() | st.integers(0, 2 ** 64 - 1).map(bits_to_float)
       | st.sampled_from(NUMBER_EDGES) | st.integers(-2 ** 62, 2 ** 62))
def test_number_matches_json_dumps(value):
    """A trace number is the text json.dumps writes for it rounded to six
    decimals, through the fixed-notation path and the `repr` one alike."""
    assert _number(value) == json.dumps(round(float(value), 6))
