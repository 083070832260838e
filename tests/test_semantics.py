"""Semantic analysis tests: both passes, all diagnostic codes, scope rules."""

import dataclasses
import math
import pathlib

import pytest
from hypothesis import example, given, settings, strategies as st

from osc2c import ast, prelude, units
from osc2c.parser import parse
from osc2c.diagnostics import CompileError
from osc2c.runtime import compile_scenario, compile_source
from osc2c.semantics import analyze, check

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FLAGSHIP = (SCENARIOS / "cut_in_and_evade.osc").read_text()


def wrap(body: str, members: str = "") -> str:
    lines = ["scenario s:"]
    for line in members.splitlines():
        lines.append("  " + line if line else "")
    lines.append("  do serial:")
    for line in body.splitlines():
        lines.append("    " + line if line else "")
    return "\n".join(lines) + "\n"


def codes(analysis):
    return [d.code for d in analysis.diagnostics]


class TestFlagship:
    def test_zero_errors_one_warning(self):
        analysis = check(FLAGSHIP, "cut_in_and_evade.osc")
        assert analysis.errors == []
        assert len(analysis.warnings) == 1
        warning = analysis.warnings[0]
        assert warning.code == "W001"
        assert "v_npc_catchup" in warning.message

    def test_scenario_symbols(self):
        analysis = check(FLAGSHIP)
        info = analysis.scenarios[0]
        assert list(info.fields) == ["carla_map", "env", "hero", "npc", "obstacle"]
        assert list(info.variables) == [
            "v_hero", "v_npc_fast", "v_npc_slow", "v_npc_catchup",
            "lag", "gap", "safety_gap"]
        assert info.map_name == "town06"

    def test_constraints_recorded(self):
        info = check(FLAGSHIP).scenarios[0]
        assert info.constraints["hero"] == {
            "model": "vehicle.tesla.model3", "name": "hero"}
        assert info.constraints["npc"]["color"] == "0,128,0"


class TestDefinitionPass:
    def test_duplicate_field(self):
        src = wrap("emit X", members="hero: vehicle\nhero: vehicle")
        analysis = check(src)
        assert codes(analysis) == ["E005"]
        assert "duplicate definition of 'hero'" in analysis.diagnostics[0].message

    def test_duplicate_var(self):
        src = wrap("emit X", members="var lag: length = 5m\nvar lag: length = 6m")
        assert codes(check(src)) == ["E005"]

    def test_same_name_different_kind_ok(self):
        # an actor instance and an event may share a name
        src = wrap("emit hero", members="hero: vehicle")
        assert codes(check(src)) == []

    def test_event_registered_once(self):
        src = wrap("emit PING\nemit PING\nwait @PING")
        analysis = check(src)
        assert analysis.diagnostics == []


class TestResolutionPass:
    def test_undefined_actor(self):
        analysis = check(wrap("ghost.drive()"))
        assert codes(analysis) == ["E001"]
        assert "undefined actor 'ghost'" in analysis.diagnostics[0].message

    def test_undefined_name_in_initializer(self):
        src = wrap("emit X", members="var x: speed = v_missing + 1kph")
        assert codes(check(src)) == ["E001"]

    def test_dimension_mismatch_initializer(self):
        src = wrap("emit X", members="var x: length = 5s")
        analysis = check(src)
        assert codes(analysis) == ["E003"]
        assert "expected length" in analysis.diagnostics[0].message

    def test_unknown_action(self):
        src = wrap("hero.teleport()", members="hero: vehicle")
        analysis = check(src)
        assert codes(analysis) == ["E004"]
        assert "'teleport'" in analysis.diagnostics[0].message

    def test_unknown_modifier(self):
        src = wrap("hero.drive() with:\n  warp_factor(9)", members="hero: vehicle")
        assert codes(check(src)) == ["E004"]

    def test_unknown_map(self):
        src = wrap("emit X", members='m: map with:\n  keep(it.map_file == "Atlantis")')
        analysis = check(src)
        assert codes(analysis) == ["E006"]
        assert analysis.scenarios[0].map_name is None

    def test_map_binding_case_insensitive(self):
        src = wrap("emit X", members='m: map with:\n  keep(it.map_file == "TOWN06")')
        analysis = check(src)
        assert analysis.diagnostics == []
        assert analysis.scenarios[0].map_name == "town06"

    def test_unknown_attribute_in_keep(self):
        src = wrap("emit X", members='h: vehicle with:\n  keep(it.wingspan == "3")')
        analysis = check(src)
        assert codes(analysis) == ["E001"]
        assert "no attribute 'wingspan'" in analysis.diagnostics[0].message

    def test_keep_value_must_be_string(self):
        src = wrap("emit X", members="h: vehicle with:\n  keep(it.model == 5)")
        assert codes(check(src)) == ["E002"]

    def test_comparison_dimension_mismatch(self):
        src = wrap("wait hero.speed < 5m", members="hero: vehicle")
        assert codes(check(src)) == ["E003"]

    def test_elapsed_needs_duration(self):
        assert codes(check(wrap("wait elapsed(5m)"))) == ["E003"]

    def test_rise_needs_boolean(self):
        src = wrap("wait rise(hero.speed)", members="hero: vehicle")
        assert codes(check(src)) == ["E002"]

    def test_or_needs_booleans(self):
        src = wrap("wait hero.speed > 1kph or 1m", members="hero: vehicle")
        assert messages(check(src)) == [
            ("E002", 4, "'or' requires boolean operands")]

    def test_anchor_counts_its_latest_start_placement(self):
        # the initializer places in tree order, so the anchor is on the
        # road network when its last placement before npc's is a lane
        def body(*placements):
            return "".join(f"hero.assign_position() with:\n  {p}\n"
                           for p in placements) + (
                "npc.assign_position() with:\n"
                "  position(distance: 5m, behind: hero, at: start)\n")
        off, on = "position(x: 10m, y: 0m, at: start)", "lane(1, at: start)"
        members = "hero: vehicle\nnpc: vehicle"
        compile_source(wrap(body(off, on), members))
        # the checker leaves it to the initializer, which compiling runs
        assert codes(check(wrap(body(on, off), members))) == []
        with pytest.raises(CompileError) as error:
            compile_source(wrap(body(on, off), members))
        found = error.value.diagnostic
        assert (found.code, found.span.line, found.message) == (
            "E002", 9, "actor 'npc' is anchored to 'hero', which is not on "
                       "the road network")

    def test_anchor_placed_only_absolutely_after_tick_0(self):
        # known once the actors are placed: an earlier placement in the
        # serial takes the anchor off the road network, whatever follows
        def body(*placements):
            return "".join(f"hero.assign_position() with:\n  {p}\n"
                           for p in placements) + (
                "npc.assign_position() with:\n"
                "  position(distance: 5m, behind: hero)\n")
        off, on = "position(x: 10m, y: 0m)", "lane(1)"
        members = "hero: vehicle\nnpc: vehicle"
        # the checker leaves it to the initializer, which compiling runs
        assert codes(check(wrap(body(off), members))) == []
        for placements in ((off,), (off, on, off)):
            with pytest.raises(CompileError) as error:
                compile_source(wrap(body(*placements), members))
            found = error.value.diagnostic
            assert (found.code, found.message) == (
                "E002", "actor 'npc' is anchored to 'hero', which is not on "
                        "the road network")
            program = parse(wrap(body(*placements), members))
            assert found.span == program.scenarios[0].body.root.children[-1].span
        compile_source(wrap(body(off, on), members))
        compile_source(wrap(body(), members))
        # in a serial, hero leaves the network only once npc is placed
        compile_source(wrap(body() + f"hero.assign_position() with:\n  {off}\n",
                            members))
        # a parallel may place npc first, and a one_of may skip hero's move
        for kind in ("parallel", "one_of"):
            branches = (f"{kind}:\n  serial:\n    wait elapsed(1s)\n"
                        f"    hero.assign_position() with:\n      {off}\n"
                        "  npc.assign_position() with:\n"
                        "    position(distance: 5m, behind: hero)\n")
            compile_source(wrap(branches, members))

    def test_events_are_open_world(self):
        assert codes(check(wrap("wait @never_emitted_anywhere"))) == []

    def test_person_walk_resolves(self):
        src = wrap("ped.walk()", members="ped: person")
        assert codes(check(src)) == []

    def test_inherited_action_via_extra_catalog(self):
        src = wrap("hero.honk()", members="hero: vehicle")
        extra = {"traffic_participant": {"honk": prelude.Signature()}}
        assert codes(check(src)) != []
        assert codes(check(src, extra_actions=extra)) == []


class TestCoercion:
    def test_scalar_coercion_warns(self):
        src = wrap("emit X", members=(
            "var v: speed = 10kph\n"
            "var w: speed = v * 2kph"))
        analysis = check(src)
        assert codes(analysis) == ["W001"]
        assert analysis.ok

    def test_consistent_product_no_warning(self):
        src = wrap("emit X", members=(
            "var v: speed = 10kph\n"
            "var d: length = v * 3s"))
        assert codes(check(src)) == []

    def test_plain_scale_no_warning(self):
        src = wrap("emit X", members=(
            "var lag: length = 5m\n"
            "var gap: length = lag * 3"))
        assert codes(check(src)) == []

    def test_any_conforming_product_coerces(self):
        # left factor matching the declared type is enough to trigger W001
        src = wrap("emit X", members="var t: time = 5s * 1kph")
        assert codes(check(src)) == ["W001"]

    def test_wrong_product_still_errors(self):
        # left factor off the declared type means no coercion, plain E003
        src = wrap("emit X", members="var t: time = 5m * 1kph")
        assert codes(check(src)) == ["E003"]


def messages(analysis):
    return [(d.code, d.span.line, d.message) for d in analysis.diagnostics]


class TestVarCycles:
    def test_self_reference(self):
        src = wrap("emit X", members="var a: length = a + 1m")
        assert messages(check(src)) == [
            ("E002", 2, "initializer of 'a' depends on itself")]

    def test_reported_once_at_first_declared_member(self):
        # c is declared first and reads the cycle {a, b} without being on it
        src = wrap("emit X", members=(
            "var c: length = b\n"
            "var a: length = b * 2\n"
            "var b: length = a + 1m"))
        assert messages(check(src)) == [
            ("E002", 3, "initializer of 'a' depends on itself")]

    def test_three_var_cycle_reported_once(self):
        src = wrap("emit X", members=(
            "var a: length = b\n"
            "var b: length = c\n"
            "var c: length = a + 1m"))
        assert messages(check(src)) == [
            ("E002", 2, "initializer of 'a' depends on itself")]

    def test_source_order_among_other_diagnostics(self):
        src = wrap("emit X", members=(
            "var x: length = y\n"
            "var bad: length = 1kph\n"
            "var y: length = x\n"
            "var z: length = z"))
        assert messages(check(src)) == [
            ("E002", 2, "initializer of 'x' depends on itself"),
            ("E003", 3, "initializer of 'bad' has dimension speed, "
                        "expected length"),
            ("E002", 5, "initializer of 'z' depends on itself")]

    def test_long_chain_checks_and_runs(self):
        # each var reads the next one, declared after it
        count = 3000
        members = "\n".join([f"var v{i}: length = v{i + 1} + 1m"
                              for i in range(count)]
                             + [f"var v{count}: length = 1m"])
        analysis = check(wrap("emit X", members=members))
        assert analysis.ok
        cs = compile_scenario(analysis)
        assert cs.scenario.var_values["v0"] == count + 1


class TestConstantFolding:
    def test_division_by_zero(self):
        src = wrap("emit X", members="var a: length = 1m / 0")
        assert [(d.code, d.span.col, d.message)
                for d in check(src).diagnostics] == [
            ("E002", 19, "division by a zero-valued quantity")]

    def test_overflow(self):
        big = "1" + "0" * 200
        src = wrap("emit X", members=f"var a: length = {big} * {big} * 1m")
        assert messages(check(src)) == [
            ("E002", 2, "non-finite quantity value: inf")]

    def test_folded_value_matches_run_time_arithmetic(self):
        src = wrap("hero.drive() with:\n  speed(-(30kph + 5kph) * 2 / -3)",
                   members="hero: vehicle")
        (invocation,) = check(src).scenarios[0].invocations.values()
        evaluator = invocation.modifiers["speed"]["speed"]
        total = units.from_literal(30.0, "kph") + units.from_literal(5.0, "kph")
        expected = -total * 2.0 / -3.0
        assert evaluator.func.__name__ == "_constant"
        assert evaluator(None) == expected

    def test_mismatched_comparison_reports_once(self):
        src = wrap("wait 1m > 1s", members="")
        assert codes(check(src)) == ["E003"]

    def test_live_operands_are_not_folded(self):
        src = wrap("wait hero.speed / 0 > 1kph", members="hero: vehicle")
        assert codes(check(src)) == []

    def test_only_constant_quantities_must_not_be_negative(self):
        """A non-negative kind rejects a negative constant; a value read
        from actor state is left to the run, which stops speeds at 0."""
        live = wrap("hero.change_speed(target: hero.speed - 5kph)\n"
                    "hero.follow_path(distance: hero.speed * 1s - 5m, "
                    "speed: 0kph - hero.speed)", members="hero: vehicle")
        assert codes(check(live)) == []
        constant = wrap("hero.change_speed(target: 5kph - 6kph)",
                        members="hero: vehicle")
        assert codes(check(constant)) == ["E002"]


# An independent reference for the checker's typing and folding of a var
# initializer: the Dimension algebra, the W001 coercion rule and Python float
# operations in the order of evaluation.  A typed node is (kind, dim, value);
# a comparison of mismatched or incomparable operands is a bool of no value.
QUANTITY, BOOLEAN, UNKNOWN = "quantity", "bool", "unknown"
REFERENCE_ARITHMETIC = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                        "*": lambda a, b: a * b, "/": lambda a, b: a / b}
REFERENCE_COMPARISONS = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                         ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
                         "==": lambda a, b: a == b, "!=": lambda a, b: a != b}
TINY = "0." + "0" * 300 + "1"  # two of them multiply to 0.0
HUGE = "1" + "0" * 300  # two of them multiply to infinity
MAGNITUDES = ["0", "0", "0.5", "1", "3", "7.25", "1" + "0" * 160, HUGE,
              HUGE, TINY, TINY]

# most nodes are arithmetic, and a leaf is often of the declared dimension
OPERATORS = [*REFERENCE_ARITHMETIC] * 3 + [*REFERENCE_COMPARISONS]
UNITS_OF = {dim: sorted(unit for unit, (_, of) in units.UNITS.items()
                        if of == dim) or ["mps"]
            for dim in prelude.PHYSICAL_TYPES.values()}


def initializers(type_name: str):
    """Initializer trees for a var of the given physical type."""
    leaf_units = UNITS_OF[prelude.PHYSICAL_TYPES[type_name]] + ["m", "s"]
    return st.recursive(
        st.one_of(st.tuples(st.just("unit"), st.sampled_from(MAGNITUDES),
                            st.sampled_from(leaf_units)),
                  st.tuples(st.just("unit"), st.sampled_from(MAGNITUDES),
                            st.sampled_from(sorted(units.UNITS))),
                  st.tuples(st.just("number"), st.sampled_from(MAGNITUDES))),
        lambda children: st.one_of(
            st.tuples(st.just("-"), children),
            st.tuples(st.sampled_from(OPERATORS), children, children)),
        max_leaves=6)


var_decls = st.sampled_from(sorted(prelude.PHYSICAL_TYPES)).flatmap(
    lambda type_name: st.tuples(st.just(type_name), initializers(type_name)))


def source_text(node) -> str:
    if node[0] == "unit":
        return node[1] + node[2]
    if node[0] == "number":
        return node[1]
    if len(node) == 2:
        return f"(-{source_text(node[1])})"
    return f"({source_text(node[1])} {node[0]} {source_text(node[2])})"


def reference_check(node, declared):
    """The (code, message) diagnostics and the value of ``var v: <declared>
    = <node>``, or None for the value if it has none."""
    found = []
    name = units.dimension_name

    def combine(op, lhs, rhs):
        (lhs_kind, lhs_dim, a), (rhs_kind, rhs_dim, b) = lhs, rhs
        arithmetic = op in REFERENCE_ARITHMETIC
        if UNKNOWN in (lhs_kind, rhs_kind):
            return (UNKNOWN if arithmetic else BOOLEAN), None, None
        if arithmetic:
            if lhs_kind != QUANTITY or rhs_kind != QUANTITY:
                found.append(("E002", "arithmetic requires quantity operands"))
                return UNKNOWN, None, None
            if op in "+-" and lhs_dim != rhs_dim:
                found.append(("E003", f"cannot apply '{op}' to "
                              f"{name(lhs_dim)} and {name(rhs_dim)}"))
                return UNKNOWN, None, None
            dim = (lhs_dim if op in "+-" else lhs_dim * rhs_dim if op == "*"
                   else lhs_dim / rhs_dim)
            if op == "/" and b == 0.0:
                found.append(("E002", "division by a zero-valued quantity"))
                return UNKNOWN, None, None
            value = REFERENCE_ARITHMETIC[op](a, b)
            if value in (math.inf, -math.inf) or value != value:
                found.append(("E002", f"non-finite quantity value: {value!r}"))
                return UNKNOWN, None, None
            return QUANTITY, dim, value
        if lhs_kind == QUANTITY and rhs_kind == QUANTITY:
            if lhs_dim != rhs_dim:
                found.append(("E003", f"cannot compare {name(lhs_dim)} with "
                              f"{name(rhs_dim)}"))
                return BOOLEAN, None, None
            return BOOLEAN, None, REFERENCE_COMPARISONS[op](a, b)
        found.append(("E002", "incomparable operand types"))
        return BOOLEAN, None, None

    def walk(node):
        if node[0] == "unit":
            factor, dim = units.UNITS[node[2]]
            return QUANTITY, dim, float(node[1]) * factor
        if node[0] == "number":
            return QUANTITY, units.DIMENSIONLESS, float(node[1])
        if len(node) == 2:
            kind, dim, value = walk(node[1])
            if kind == QUANTITY:
                return QUANTITY, dim, -value
            if kind == BOOLEAN:
                found.append(("E002", "negation requires a quantity"))
            return UNKNOWN, None, None
        return combine(node[0], walk(node[1]), walk(node[2]))

    if node[0] == "*":
        lhs, rhs = walk(node[1]), walk(node[2])
        # the right factor may be read as a scalar: the same product, typed
        # as declared; the warning precedes the product's own faults
        coerced = (lhs[0] == rhs[0] == QUANTITY and lhs[1] == declared
                   and rhs[1] != units.DIMENSIONLESS
                   and lhs[1] * rhs[1] != declared)
        if coerced:
            found.append(("W001", "dimensional coercion applied in "
                          f"initializer of 'v': {name(rhs[1])} operand "
                          "reinterpreted as a dimensionless scalar"))
        kind, dim, value = combine("*", lhs, rhs)
        if coerced:
            return found, value
    else:
        kind, dim, value = walk(node)
    if kind == BOOLEAN:
        found.append(("E002", "initializer of 'v' is not a quantity"))
    elif kind == QUANTITY and dim != declared:
        found.append(("E003", f"initializer of 'v' has dimension "
                      f"{name(dim)}, expected {name(declared)}"))
    return found, value if kind == QUANTITY and dim == declared else None


class TestDimensionReference:
    @settings(max_examples=200, deadline=None)
    @given(var=var_decls)
    @example(var=("speed", ("*", ("unit", HUGE, "kph"),
                            ("unit", HUGE, "kph"))))
    @example(var=("length", ("/", ("unit", "1", "m"),
                             ("*", ("number", TINY), ("number", TINY)))))
    @example(var=("length", ("-", ("unit", "0", "m"))))
    @example(var=("length", ("+", ("<", ("unit", "1", "m"),
                                   ("unit", "1", "s")), ("unit", "1", "m"))))
    def test_check_matches_reference(self, var):
        """The checker's static dimensions and folded values agree with the
        reference, so no dimension check is needed at run time."""
        type_name, tree = var
        src = wrap("emit X", members=f"var v: {type_name} = "
                   f"{source_text(tree)}")
        expected, value = reference_check(
            tree, prelude.PHYSICAL_TYPES[type_name])
        analysis = check(src)
        found = [(d.code, d.message) for d in analysis.diagnostics]
        assert ("E003" in codes(analysis)) == any(
            code == "E003" for code, _ in expected)
        faults = ("division by a zero-valued quantity",
                  "non-finite quantity value: ")
        assert [f for f in found if f[1].startswith(faults)] == \
            [f for f in expected if f[1].startswith(faults)]
        assert found == expected
        values = analysis.scenarios[0].var_values
        if value is None:
            assert "v" not in values
        else:
            assert values["v"].hex() == value.hex()
        again = check(src).scenarios[0].var_values.get("v")
        assert repr(again) == repr(values.get("v"))


class TestAttributeReads:
    def test_unset_attribute(self):
        src = wrap('wait hero.color == "red"', members="hero: vehicle")
        assert messages(check(src)) == [
            ("E002", 4, "attribute 'color' of 'hero' is not set by a keep "
                        "constraint")]

    def test_set_attribute_is_a_constant(self):
        src = wrap('wait hero.color == "red"',
                   members='hero: vehicle with:\n  keep(it.color == "red")')
        analysis = check(src)
        assert analysis.ok
        (wait,) = find_all(analysis.program, ast.BoolCondition)
        assert analysis.scenarios[0].conditions[id(wait.expr)](None) is True

    def test_keep_declared_after_the_body_counts(self):
        src = ("scenario s:\n  do serial:\n    wait hero.color == \"red\"\n"
               "  hero: vehicle with:\n    keep(it.color == \"red\")\n")
        assert codes(check(src)) == []

    def test_read_in_initializer_reports_only_the_type(self):
        src = wrap("emit X", members=(
            "var a: length = hero.color\n"
            'hero: vehicle with:\n  keep(it.color == "red")'))
        assert messages(check(src)) == [
            ("E002", 2, "initializer of 'a' is not a quantity")]


PLACED_LATER = "vars are evaluated before any actor is placed"


class TestInitializerActorReads:
    """The vars are evaluated before the initializer places any actor, so an
    initializer may not read actor state."""

    @pytest.mark.parametrize("init, col, what", [
        ("1m / hero.speed", 22, "read 'hero.speed'"),
        ("hero.speed * 2s", 19, "read 'hero.speed'"),
        ("hero.object_distance(reference: npc)", 19,
         "call 'object_distance'"),
        ("hero.object_distance(reference: npc, direction: topological)", 19,
         "call 'object_distance'"),
        ("hero.position.ahead_of(npc) + 1m", 19, "call 'ahead_of'"),
    ])
    def test_read_is_e002(self, init, col, what):
        kind = "time" if init.startswith("1m /") else "length"
        src = wrap("emit X", members=(f"hero: vehicle\nnpc: vehicle\n"
                                      f"var v: {kind} = {init}"))
        assert [(d.code, d.span.line, d.span.col, d.message)
                for d in check(src).diagnostics] == [
            ("E002", 4, col, f"a var initializer cannot {what}: "
                             f"{PLACED_LATER}")]

    def test_reads_in_the_body_are_allowed(self):
        src = wrap("wait hero.object_distance(reference: npc) > d\n"
                   "wait hero.speed > 1kph",
                   members="hero: vehicle\nnpc: vehicle\nvar d: length = 5m")
        assert codes(check(src)) == []

    def test_only_the_reading_var_is_reported(self):
        src = wrap("emit X", members=(
            "hero: vehicle\nvar a: length = b * 2\n"
            "var b: length = hero.speed * 1s"))
        assert messages(check(src)) == [
            ("E002", 4, f"a var initializer cannot read 'hero.speed': "
                        f"{PLACED_LATER}")]


def find_all(node, node_type):
    """Every syntax node of one type under ``node``."""
    found = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Node):
            if isinstance(current, node_type):
                found.append(current)
            stack.extend(getattr(current, f.name)
                         for f in dataclasses.fields(current))
        elif isinstance(current, list):
            stack.extend(current)
    return found


class TestOrderIndependence:
    FORWARD = (
        "scenario s:\n"
        "  var total: length = base * 2\n"
        "  var base: length = extra + 1m\n"
        "  var extra: length = 4m\n"
        "  do serial:\n"
        "    npc.drive() with:\n"
        "      speed(v_late)\n"
        "  npc: vehicle\n"
        "  var v_late: speed = 88kph\n"
    )

    def test_forward_references_resolve(self):
        assert codes(check(self.FORWARD)) == []

    def test_member_permutation_same_diagnostics(self):
        lines = [
            "var total: length = base * 2",
            "var base: length = extra + 1m",
            "var extra: length = 4m",
            "npc: vehicle",
            "var v_late: speed = 88kph",
        ]
        body = "npc.drive() with:\n  speed(v_late)"
        import itertools
        results = set()
        for perm in itertools.permutations(lines):
            analysis = check(wrap(body, members="\n".join(perm)))
            results.add(tuple(d.render() for d in analysis.diagnostics))
        assert results == {()}

    def test_idempotence(self):
        first = check(FLAGSHIP, "f.osc").diagnostics
        second = check(FLAGSHIP, "f.osc").diagnostics
        assert first == second


class TestFrontendSurface:
    def test_empty_file_is_error_diagnostic(self):
        analysis = check("")
        assert len(analysis.diagnostics) == 1
        assert analysis.diagnostics[0].code == "P001"
        assert not analysis.ok

    def test_lex_error_becomes_diagnostic(self):
        analysis = check("scenario s:\n  var x: speed = 5knots\n")
        assert codes(analysis) == ["L001"]

    def test_diagnostics_carry_filename(self):
        analysis = check(wrap("ghost.drive()"), filename="demo.osc")
        assert analysis.diagnostics[0].render().startswith("demo.osc:")

    def test_multiple_errors_in_source_order(self):
        src = wrap("ghost.drive()\nphantom.drive()")
        analysis = check(src)
        assert codes(analysis) == ["E001", "E001"]
        lines = [d.span.line for d in analysis.diagnostics]
        assert lines == sorted(lines)

    def test_analyze_on_parsed_tree(self):
        program = parse(FLAGSHIP)
        analysis = analyze(program)
        assert analysis.ok
        assert isinstance(analysis.program, ast.Program)
