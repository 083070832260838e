"""osc2c benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenarios_traced --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run imports ``osc2c`` from ``src/``, writes the workload's inputs into
``.perfbench/`` and calls the package's public API in this process.  It
prints every metric by name with its unit and sample count, then one JSON
line ``{"correct", "attempted", "failed", "metrics"}``, and exits 1 if any
operation failed or gave a wrong output.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload untraced for half of ``--seconds`` and
traced for the other half, and reports per-layer metrics from the traced
half (see ``spans.py``) plus ``trace.overhead``.  ``--workload all`` runs
every workload in both modes, one child process at a time.

Every round runs the workload's user-visible operation (its wall time is
``latency_s``) and, where that operation does not already show them, a
library probe that times check, compile and ticks separately, so every
end-to-end metric is measured on every workload.  Each round is verified:

* scenarios_traced -- the sha256 of each shipped scenario's trace and the
  exit code are pinned in ``golden.json``.
* crowd_256 -- on the warm-up, the collision list of every fifth tick is
  compared, order included, with a brute-force box test written here; the
  digest of the final poses must repeat on every round and match
  ``golden.json`` for the seeds pinned there.
* frontend_corpus -- each file's exit code and set of diagnostic codes must
  equal what the generator injected.

Every round times each of its operations on its own: each file's or
scenario's CLI call, ``check``, ``compile_scenario`` and tick loop, and on
crowd_256 each tick.  A timing is the sum, over the operations it covers, of
each operation's best (minimum) time across the run's rounds, as ``timeit``
reports a best.  On a shared host the CPU speed of this process swings by
40-60% over periods of seconds, as other tenants load the same cores; a
whole round rarely falls inside one fast stretch, while each short operation
meets one somewhere in the run, so the sum of bests repeats from run to run.
The table also prints the median and the 90th percentile of the rounds'
``latency_s`` for information.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("scenarios_traced", "crowd_256", "frontend_corpus")
SCENARIOS = ("cut_in_and_evade", "handshake_phases", "minimal_wait")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
CROWD_TICKS = 60          # step_tick calls per crowd_256 round
CROWD_CHECK_EVERY = 5     # warm-up compares collisions on every 5th tick
CORPUS_TICKS = 40         # step_tick calls per runnable corpus file
PROBE_TICKS = 10          # ticks in the traced `osc2c run` probe
VEHICLE_HALF = (2.5, 1.0)  # documented 5 m x 2 m vehicle box
DT = 0.05

with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)


class WrongOutput(Exception):
    """The program returned a result that differs from the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def import_osc2c():
    """Import a fresh copy of the package, as a new process would."""
    for key in [k for k in sys.modules
                if k == "osc2c" or k.startswith("osc2c.")]:
        del sys.modules[key]
    importlib.import_module("osc2c")
    return {name: importlib.import_module(f"osc2c.{name}")
            for name in ("cli", "runtime", "semantics", "world", "btree")}


def run_cli(osc, argv: list[str]) -> tuple[int, str]:
    """Call ``osc2c.cli.main`` with stderr captured in memory."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = osc["cli"].main(argv)
    return code, err.getvalue()


def read_trace(path: str) -> tuple[bytes, list[dict]]:
    """Read and delete a trace file.

    Every trace goes to a new file that is deleted once read: on ext4,
    truncating a file to rewrite it starts a flush of the old contents,
    which would put disk latency into the next timed call.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    os.remove(path)
    return data, [json.loads(line) for line in data.splitlines()]


class Workload:
    """One workload: inputs made from a seed, a verified round, a probe.

    A round returns its operation times as ``{(category, operation):
    seconds}``.  Categories: ``check`` (``semantics.check``), ``lower``
    (``compile_scenario``: lower and place), ``ticks`` (``step_tick``
    calls) and ``cli`` (``cli.main`` calls).  ``latency_categories`` are
    those that make up the workload's user-visible operation, and
    ``lines_category`` the one whose time ``lines_per_s`` divides into
    ``lines``.  ``ticks`` is the number of ticks a round runs.
    """

    name = ""
    main_is_trace_run = False
    latency_categories = ("cli",)
    lines_category = "check"

    def __init__(self, osc, seed: int, work: str):
        self.osc = osc
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        self.registry = osc["runtime"].builtin_registry()
        self.trace_bytes = 0
        self.ticks = 0
        self.lines = 0
        self.traces_written = 0

    def trace_path(self) -> str:
        self.traces_written += 1
        return os.path.join(self.work, f"trace-{self.traces_written}.ndjson")

    def library_pass(self, programs, ticks: int | None, times: dict):
        """check -> compile_scenario -> step_tick over ``programs``.

        ``programs`` holds (path, source, lines, road) tuples; ``ticks`` is a
        fixed tick count, or None to run each scenario until it settles.
        Adds each program's check, lower and tick seconds to ``times``;
        returns the ticks run and the compiled scenarios.
        """
        semantics, runtime = self.osc["semantics"], self.osc["runtime"]
        running = self.osc["btree"].RUNNING
        actions = self.registry.action_table()
        total_ticks = 0
        compiled = []
        for path, source, _, road in programs:
            t0 = time.perf_counter()
            analysis = semantics.check(source, path, extra_actions=actions)
            t1 = time.perf_counter()
            cs = runtime.compile_scenario(analysis, registry=self.registry,
                                          road=road, filename=path)
            t2 = time.perf_counter()
            if ticks is None:
                limit = self.osc["btree"].required_ticks(300.0, DT)
                n = 0
                while n < limit:
                    n += 1
                    if cs.step_tick() is not running:
                        break
            else:
                for _ in range(ticks):
                    cs.step_tick()
                n = ticks
            t3 = time.perf_counter()
            times["check", path] = t1 - t0
            times["lower", path] = t2 - t1
            times["ticks", path] = t3 - t2
            total_ticks += n
            compiled.append((cs, n))
        return total_ticks, compiled

    def trace_pass(self, paths, extra: list[str]) -> tuple[int, int, list]:
        """``osc2c run --trace`` over ``paths``; bytes, ticks, exit codes."""
        total_bytes = total_ticks = 0
        codes = []
        for path in paths:
            out = self.trace_path()
            code, _ = run_cli(self.osc, ["run", path, *extra, "--trace", out])
            data, records = read_trace(out)
            expect(records[-1]["record"] == "summary",
                   f"{path}: trace does not end with a summary")
            total_bytes += len(data)
            total_ticks += records[-1]["ticks"]
            codes.append(code)
        return total_bytes, total_ticks, codes

    def warm_up(self) -> dict:
        return self.round()

    def trace_probe(self) -> tuple[int, int]:
        raise NotImplementedError

    def round(self) -> dict:
        raise NotImplementedError


class ScenariosTraced(Workload):
    """The paper's user path: ``osc2c run --trace`` on the shipped scenarios."""

    name = "scenarios_traced"
    main_is_trace_run = True

    def __init__(self, osc, seed, work):
        super().__init__(osc, seed, work)
        self.programs = []
        for name in SCENARIOS:
            path = os.path.join(work, f"{name}.osc")
            shutil.copyfile(os.path.join(ROOT, "scenarios", f"{name}.osc"),
                            path)
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            self.programs.append((path, source, source.count("\n"), None))
        self.lines = sum(program[2] for program in self.programs)
        self.trace_ticks = 0

    def round(self) -> dict:
        order = list(range(len(SCENARIOS)))
        self.rng.shuffle(order)
        times = {}
        total_bytes = ticks_written = 0
        for index in order:
            name = SCENARIOS[index]
            out = self.trace_path()
            t0 = time.perf_counter()
            code, _ = run_cli(self.osc, ["run", self.programs[index][0],
                                         "--trace", out])
            times["cli", name] = time.perf_counter() - t0
            data, records = read_trace(out)
            golden = GOLDEN["traces"][name]
            expect(code == golden["exit"],
                   f"{name}: exit {code}, expected {golden['exit']}")
            expect(sha16(data) == golden["sha256_16"],
                   f"{name}: trace sha256 {sha16(data)}, "
                   f"expected {golden['sha256_16']}")
            total_bytes += len(data)
            ticks_written += records[-1]["ticks"]
        self.trace_bytes = total_bytes
        self.trace_ticks = ticks_written

        ordered = [self.programs[i] for i in order]
        ticks, compiled = self.library_pass(ordered, None, times)
        success = self.osc["btree"].SUCCESS
        for (cs, _), index in zip(compiled, order):
            expect(cs.status is success,
                   f"{SCENARIOS[index]}: library run ended {cs.status}")
        expect(ticks == ticks_written,
               f"library ran {ticks} ticks, the traces hold {ticks_written}")
        self.ticks = ticks
        return times


class Crowd(Workload):
    """256 vehicles on a long 8-lane road, placed by the initializer."""

    name = "crowd_256"
    latency_categories = ("check", "lower", "ticks")

    def __init__(self, osc, seed, work):
        super().__init__(osc, seed, work)
        self.path, self.map_path = gen.write_crowd(self.rng, work)
        with open(self.path, encoding="utf-8") as handle:
            self.source = handle.read()
        self.lines = self.source.count("\n")
        self.road = osc["world"].load_map(self.map_path)
        self.digest = None

    def compiled_round(self, check_collisions: bool) -> tuple[dict, object]:
        """Check, compile and tick the crowd; each tick is timed alone."""
        semantics, runtime = self.osc["semantics"], self.osc["runtime"]
        actions = self.registry.action_table()
        clock = time.perf_counter
        t0 = clock()
        analysis = semantics.check(self.source, self.path,
                                   extra_actions=actions)
        t1 = clock()
        cs = runtime.compile_scenario(analysis, registry=self.registry,
                                      road=self.road, filename=self.path)
        t2 = clock()
        times = {("check", "crowd"): t1 - t0, ("lower", "crowd"): t2 - t1}
        for tick in range(CROWD_TICKS):
            t0 = clock()
            cs.step_tick()
            times["ticks", tick] = clock() - t0
            if check_collisions and tick % CROWD_CHECK_EVERY == 0:
                self._check_collisions(cs.world, tick)
        self.ticks = CROWD_TICKS
        return times, cs

    @staticmethod
    def _check_collisions(world, tick: int) -> None:
        """Compare ``world.collisions`` with an all-pairs box test."""
        boxes = [(a.name, a.x, a.y) for a in world.actors.values()]
        length, width = 2 * VEHICLE_HALF[0], 2 * VEHICLE_HALF[1]
        reference = []
        for i, (name_a, xa, ya) in enumerate(boxes):
            for name_b, xb, yb in boxes[i + 1:]:
                if abs(xa - xb) < length and abs(ya - yb) < width:
                    reference.append(tuple(sorted((name_a, name_b))))
        expect(list(world.collisions) == reference,
               f"tick {tick}: {len(world.collisions)} collision pairs, "
               f"reference has {len(reference)} (or a different order)")

    @staticmethod
    def pose_digest(world) -> str:
        poses = [(a.name, a.x, a.y, a.heading, a.lane, a.speed)
                 for a in world.actors.values()]
        return sha16(repr(poses).encode())

    def warm_up(self) -> dict:
        sample, cs = self.compiled_round(check_collisions=True)
        expect(len(cs.world.actors) == gen.CROWD_VEHICLES,
               f"{len(cs.world.actors)} actors placed")
        self.digest = self.pose_digest(cs.world)
        pinned = GOLDEN["crowd_256_final_poses"].get(str(self.seed))
        expect(pinned in (None, self.digest),
               f"final poses {self.digest}, pinned {pinned}")
        self.trace_bytes, _ = self.trace_probe()
        return sample

    def round(self) -> dict:
        sample, cs = self.compiled_round(check_collisions=False)
        digest = self.pose_digest(cs.world)
        expect(digest == self.digest,
               f"final poses {digest}, warm-up gave {self.digest}")
        return sample

    def trace_probe(self) -> tuple[int, int]:
        max_time = f"{PROBE_TICKS * DT:.6f}"
        written, ticks, codes = self.trace_pass(
            [self.path], ["--map", self.map_path, "--max-time", max_time])
        expect(codes == [3], f"trace probe exit {codes}, expected [3]")
        expect(ticks == PROBE_TICKS, f"trace probe wrote {ticks} ticks")
        return written, ticks


class FrontendCorpus(Workload):
    """``osc2c check`` over a generated corpus, one file in five broken."""

    name = "frontend_corpus"
    lines_category = "cli"

    def __init__(self, osc, seed, work):
        super().__init__(osc, seed, work)
        self.files = gen.write_corpus(self.rng, work)
        self.lines = sum(f.lines for f in self.files)
        self.programs = []
        for f in self.files:
            if f.runnable:
                with open(f.path, encoding="utf-8") as handle:
                    source = handle.read()
                self.programs.append((f.path, source, source.count("\n"),
                                      None))
        self.statuses = None

    def round(self) -> dict:
        times = {}
        for f in self.files:
            t0 = time.perf_counter()
            code, stderr = run_cli(self.osc, ["check", f.path])
            times["cli", f.path] = time.perf_counter() - t0
            codes = frozenset(re.findall(r"\[(\w+)\]", stderr))
            expect(code == f.expected_exit,
                   f"{f.path}: exit {code}, expected {f.expected_exit}")
            expect(codes == f.expected_codes,
                   f"{f.path}: diagnostics {sorted(codes)}, "
                   f"expected {sorted(f.expected_codes)}")
        self.ticks, compiled = self.library_pass(self.programs, CORPUS_TICKS,
                                                 times)
        statuses = [cs.status for cs, _ in compiled]
        if self.statuses is None:
            self.statuses = statuses
        expect(statuses == self.statuses, "corpus run statuses changed")
        return times

    def warm_up(self) -> dict:
        sample = self.round()
        self.trace_bytes, _ = self.trace_probe()
        return sample

    def trace_probe(self) -> tuple[int, int]:
        max_time = f"{CORPUS_TICKS * DT:.6f}"
        written, ticks, codes = self.trace_pass(
            [path for path, _, _, _ in self.programs],
            ["--max-time", max_time])
        # the CLI must agree with the library on how each run ended
        success = self.osc["btree"].SUCCESS
        wanted = [0 if status is success else 3 for status in self.statuses]
        expect(codes == wanted, f"trace probe exits {codes}, expected {wanted}")
        return written, ticks


WORKLOAD_CLASSES = {cls.name: cls
                    for cls in (ScenariosTraced, Crowd, FrontendCorpus)}


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload_name = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.work = os.path.join(WORK, f"work-{os.getpid()}")

    def setup(self) -> tuple[Workload, float]:
        """Import, generate inputs and run one verified warm-up; timed."""
        t0 = time.perf_counter()
        osc = import_osc2c()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        workload = WORKLOAD_CLASSES[self.workload_name](
            osc, self.seed, self.work)
        self.attempted += 1
        workload.warm_up()
        return workload, time.perf_counter() - t0

    def rounds(self, workload: Workload, seconds: float,
               tracer: Tracer | None = None) -> list[dict]:
        samples = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(samples) < MIN_ROUNDS:
            self.attempted += 1
            gc.collect()  # every round starts from the same heap state
            root = tracer.open("bench.round") if tracer else None
            try:
                samples.append(workload.round())
            except WrongOutput as exc:
                self.failed += 1
                print(f"round failed: {exc}", file=sys.stderr)
            except Exception:  # a crash is a failed operation, not fatal
                self.failed += 1
                traceback.print_exc()
            finally:
                if tracer:
                    tracer.close(root)
            if self.failed > 3:
                break
        if not samples:
            raise WrongOutput("no round succeeded")
        return samples


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def best_of(samples: list[dict]) -> dict:
    """Each operation's best (minimum) time over ``samples``."""
    best = {}
    for sample in samples:
        for op, seconds in sample.items():
            best[op] = min(seconds, best.get(op, seconds))
    return best


def total(times: dict, categories) -> float:
    """The summed time of the operations in ``categories``."""
    return sum(seconds for (category, _), seconds in times.items()
               if category in categories)


def latency(workload: Workload, times: dict) -> float:
    return total(times, workload.latency_categories)


def end_to_end(run: Run) -> tuple[dict, dict]:
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload, seconds = run.setup()
        setups.append(seconds)
    samples = run.rounds(workload, run.seconds)
    best = best_of(samples)
    note = f"sum of {len(best)} operation bests, {len(samples)} rounds"
    rounds_latency = [latency(workload, sample) for sample in samples]
    metrics = {
        "latency_s": (latency(workload, best), "s", note),
        "compile_s": (total(best, ("check", "lower")), "s", note),
        "tick_us": (total(best, ("ticks",)) / workload.ticks * 1e6, "us",
                    note),
        "lines_per_s": (workload.lines
                        / total(best, (workload.lines_category,)),
                        "lines/s", note),
        "trace_bytes": (workload.trace_bytes, "B", "exact count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "at exit"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)}"),
    }
    return metrics, {"round latency_s median": statistics.median(rounds_latency),
                     "round latency_s p90": p90(rounds_latency),
                     "fail_ratio": run.failed / run.attempted}


def per_layer(run: Run) -> tuple[dict, dict]:
    """Per-layer self times and counts, per traced round.

    ``world.step_s`` covers the whole world layer (step and spatial queries).
    ``cli.*`` come from the ``osc2c run --trace`` calls: those of each round
    on scenarios_traced, one untimed trace probe on the other workloads,
    whose rounds write no trace.
    """
    workload, _ = run.setup()
    half = run.seconds / 2.0
    plain = run.rounds(workload, half)
    tracer = Tracer()
    tracer.install()
    if not workload.main_is_trace_run:
        root = tracer.open("bench.trace_probe")
        try:
            probe_bytes, probe_ticks = workload.trace_probe()
        finally:
            tracer.close(root)
    traced = run.rounds(workload, half, tracer)
    if workload.main_is_trace_run:
        probe_bytes, probe_ticks = workload.trace_bytes, workload.trace_ticks

    by_root = tracer.self_times_by_root()
    rounds = len(traced)
    layer = {key: value / rounds
             for key, value in by_root.get("bench.round", {}).items()}
    trace_root = ("bench.round" if workload.main_is_trace_run
                  else "bench.trace_probe")
    cli_s = by_root.get(trace_root, {}).get("cli", 0.0)
    if workload.main_is_trace_run:
        cli_s /= rounds
    counts = {key: value / rounds
              for key, value in tracer.counts["bench.round"].items()}
    lexer_s = layer.get("lexer", 0.0)
    metrics = {
        "lexer.s": (lexer_s, "s"),
        "lexer.tokens": (counts["tokens"], "count"),
        "lexer.tokens_per_s": (counts["tokens"] / lexer_s if lexer_s else 0.0,
                               "1/s"),
        "parser.s": (layer.get("parser", 0.0), "s"),
        "parser.ast_nodes": (counts["ast_nodes"], "count"),
        "semantics.s": (layer.get("semantics", 0.0), "s"),
        "semantics.diagnostics": (counts["diagnostics"], "count"),
        "runtime.lower_s": (layer.get("runtime.lower", 0.0), "s"),
        "runtime.bt_nodes": (counts["bt_nodes"], "count"),
        "runtime.init_s": (layer.get("runtime.init", 0.0), "s"),
        "btree.tick_self_s": (layer.get("btree", 0.0), "s"),
        "btree.ticks": (counts["ticks"], "count"),
        "world.step_s": (layer.get("world", 0.0), "s"),
        "world.pair_tests": (counts["pair_tests"], "count"),
        "world.collision_pairs": (counts["collision_pairs"], "count"),
        "world.hit_ratio": (counts["collision_pairs"] / counts["pair_tests"]
                            if counts["pair_tests"] else 0.0, "1"),
        "world.spatial_queries": (counts["spatial_queries"], "count"),
        "cli.trace_s": (cli_s, "s"),
        "cli.trace_bytes_per_tick": (probe_bytes / probe_ticks, "B"),
        "trace.overhead": (latency(workload, best_of(traced))
                           / latency(workload, best_of(plain)), "1"),
    }
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{run.workload_name}.json.gz"))
    notes = {"cli.trace_s": "per trace probe", "cli.trace_bytes_per_tick":
             "per trace probe", "trace.overhead":
             f"bests of {rounds} traced / of {len(plain)} untraced rounds"}
    if workload.main_is_trace_run:
        del notes["cli.trace_s"], notes["cli.trace_bytes_per_tick"]
    note = f"per round, {rounds} traced rounds"
    return ({k: (v, unit, notes.get(k, note))
             for k, (v, unit) in metrics.items()},
            {"untraced_rounds": len(plain), "traced_rounds": rounds,
             "spans": len(tracer.start)})


def run_one(args) -> int:
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, extra = per_layer(run)
        else:
            metrics, extra = end_to_end(run)
    except WrongOutput as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds:g}  "
          f"{mode}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit:8s} {note}")
    for name, value in extra.items():
        print(f"{name:28s} {value:16.6g}")
    print(f"{'attempted':28s} {run.attempted:16d}")
    print(f"{'failed':28s} {run.failed:16d}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "osc2c", "__init__.py")):
        print(f"no osc2c package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
