"""Golden outputs that must not change across refactors.

The trace hashes pin every byte `osc2c run` writes for the shipped
scenarios; the fault records pin the exact error of check-clean programs
that can only fail once they run.
"""

import hashlib
from pathlib import Path

import pytest

from osc2c.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN_TRACES = {
    "cut_in_and_evade": "16d21b53dc50d396",
    "handshake_phases": "c47d0ec478ecf366",
    "minimal_wait": "f2f0ca472a615295",
}

MEMBERS = "scenario probe:\n  hero: vehicle\n  npc: vehicle\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_scenario_trace_hash(name, tmp_path):
    trace = tmp_path / "trace.ndjson"
    assert main(["run", str(SCENARIOS / f"{name}.osc"),
                 "--trace", str(trace)]) == 0
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()[:16]
    assert digest == GOLDEN_TRACES[name]


@pytest.mark.parametrize("members, body, record", [
    ("", "    hero.change_speed(target: hero.position)\n",
     '{"record":"fault","tick":0,"error":"EvalError",'
     '"message":"\'position\' is only usable as an ahead_of receiver"}'),
    ("  var d: length = 1m / 0\n", "    wait elapsed(1s)\n",
     '{"record":"fault","tick":0,"error":"EvalError",'
     '"message":"division by a zero-valued quantity"}'),
    ("", '    wait hero.color == "red"\n',
     '{"record":"fault","tick":0,"error":"EvalError",'
     '"message":"cannot read member \'color\'"}'),
    ("", "    wait npc.position.ahead_of(hero) / hero.speed > 1s\n",
     '{"record":"fault","tick":0,"error":"EvalError",'
     '"message":"division by a zero-valued quantity"}'),
    ("  var a: length = b + 1m\n  var b: length = a * 2\n",
     "    wait elapsed(1s)\n",
     '{"record":"fault","tick":0,"error":"EvalError",'
     '"message":"initializer of \'a\' depends on itself"}'),
    ("", "    hero.assign_position() with:\n"
         "      position(x: 10m, y: 3m, at: start)\n"
         "    wait rise(hero.position.ahead_of(npc) > 1m)\n",
     '{"record":"fault","tick":0,"error":"TopologicalUnreachable",'
     '"message":"ahead_of requires both actors on the lane network"}'),
], ids=["position-value", "var-div-zero", "missing-attribute",
        "query-div-zero", "cyclic-vars", "off-network-ahead-of"])
def test_runtime_fault_record(members, body, record, tmp_path):
    source = tmp_path / "probe.osc"
    source.write_text(MEMBERS + members + "  do serial:\n" + body)
    trace = tmp_path / "trace.ndjson"
    assert main(["check", str(source)]) == 0
    assert main(["run", str(source), "--trace", str(trace)]) == 4
    faults = [line for line in trace.read_text().splitlines()
              if line.startswith('{"record":"fault"')]
    assert faults == [record]
