"""Layer spans for the traced benchmark run.

``Tracer.install`` wraps the public entry point of each layer of a freshly
imported ``osc2c`` package, from outside the package: module functions are
rebound in every ``osc2c`` module that imported them, methods are replaced
on their class.  Each call becomes a span (name, start, end, parent) kept in
flat in-memory arrays; ``write`` dumps them once the run is over.  A span's
self time is its duration minus the durations of its child spans, which
cover disjoint parts of it because the program is single-threaded.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import time
from array import array

# span name -> layer; each layer's self time is the sum over its spans
LAYER_OF = {
    "lexer.tokenize": "lexer",
    "parser.parse": "parser",
    "semantics.check": "semantics",
    "semantics.analyze": "semantics",
    "runtime.compile_scenario": "runtime.lower",
    "runtime.BehaviorTreeBuilder.build": "runtime.lower",
    "runtime.ScenarioInitializer.run": "runtime.init",
    "runtime.CompiledScenario.step_tick": "btree",
    "world.World.step": "world",
    "world.World.ahead_of": "world",
    "world.World.object_distance": "world",
    "cli.main": "cli",
}

COUNTERS = ("tokens", "ast_nodes", "diagnostics", "bt_nodes", "ticks",
            "pair_tests", "collision_pairs", "spatial_queries")


def count_ast(node) -> int:
    """Number of syntax-tree nodes reachable from ``node``."""
    total = 1
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, list):
            for item in value:
                if dataclasses.is_dataclass(item) and hasattr(item, "span"):
                    total += count_ast(item)
        elif dataclasses.is_dataclass(value) and hasattr(value, "span"):
            total += count_ast(value)
    return total


def count_bt(node) -> int:
    return 1 + sum(count_bt(child) for child in node.children())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = {}   # root span -> counters
        self._root_counts = dict.fromkeys(COUNTERS, 0)
        self._ast_sizes: dict[str, int] = {}

    # spans

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Open a span; a root span also selects the counters to add to."""
        if not self._stack:
            self._root_counts = self.counts.setdefault(
                name, dict.fromkeys(COUNTERS, 0))
        index = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call, then ``count(args, result)``.

        The body repeats ``open``/``close`` inline: a step tick makes dozens
        of spans, and two extra method calls each would be charged to the
        parent span's self time.
        """
        name_id = self._name_id(name)
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # installation

    def install(self) -> None:
        """Wrap every layer entry point of the imported ``osc2c`` package."""
        from osc2c import cli, lexer, parser, runtime, semantics, world

        def add(counter: str, amount: int) -> None:
            self._root_counts[counter] += amount

        def on_tokens(args, tokens):
            add("tokens", len(tokens))

        def on_program(args, program):
            source = args[0]
            size = self._ast_sizes.get(source)
            if size is None:
                size = self._ast_sizes[source] = count_ast(program)
            add("ast_nodes", size)

        def on_analysis(args, analysis):
            add("diagnostics", len(analysis.diagnostics))

        def on_tree(args, root):
            add("bt_nodes", count_bt(root))

        def on_tick(args, status):
            add("ticks", 1)

        def on_step(args, result):
            w = args[0]
            n = len(w.actors)
            add("pair_tests", n * (n - 1) // 2)
            add("collision_pairs", len(w.collisions))

        def on_query(args, result):
            add("spatial_queries", 1)

        functions = [
            (lexer, "tokenize", on_tokens),
            (parser, "parse", on_program),
            (semantics, "check", on_analysis),
            (semantics, "analyze", None),
            (runtime, "compile_scenario", None),
            (cli, "main", None),
        ]
        modules = [m for key, m in sys.modules.items()
                   if key == "osc2c" or key.startswith("osc2c.")]
        for module, attr, count in functions:
            original = getattr(module, attr)
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            traced = self.wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

        methods = [
            (runtime.BehaviorTreeBuilder, "build", on_tree),
            (runtime.ScenarioInitializer, "run", None),
            (runtime.CompiledScenario, "step_tick", on_tick),
            (world.World, "step", on_step),
            (world.World, "ahead_of", on_query),
            (world.World, "object_distance", on_query),
        ]
        for cls, attr, count in methods:
            module = cls.__module__.split(".")[-1]
            name = f"{module}.{cls.__name__}.{attr}"
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), count))

    # reduction

    def self_times_by_root(self) -> dict[str, dict[str, float]]:
        """Self seconds per layer, summed per name of the root span."""
        n = len(self.start)
        covered = [0.0] * n
        root = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
                root[i] = root[p]
            else:
                root[i] = i
        totals: dict[str, dict[str, float]] = {}
        for i in range(n):
            layer = LAYER_OF.get(self.names[self.name[i]], "bench")
            own = self.end[i] - self.start[i] - covered[i]
            by_layer = totals.setdefault(self.names[self.name[root[i]]], {})
            by_layer[layer] = by_layer.get(layer, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        """Write all spans as gzip-compressed JSON columns."""
        data = {"names": self.names, "name": list(self.name),
                "parent": list(self.parent), "start": list(self.start),
                "end": list(self.end)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(data, out, separators=(",", ":"))
