"""Parser tests: structure, spans, round-trip dump, and failure modes."""

import pathlib
import string

import pytest
from hypothesis import given, settings, strategies as st

from osc2c import ast
from osc2c.lexer import LexError
from osc2c.parser import ParseError, parse

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

FLAGSHIP = (SCENARIOS / "cut_in_and_evade.osc").read_text()


def flagship():
    return parse(FLAGSHIP, "cut_in_and_evade.osc")


def var(expr):
    """A one-line scenario whose var is initialized by `expr`, which starts
    at line 2, column 18."""
    return f"scenario s:\n  var x: speed = {expr}\n"


def chain(op, count):
    """`count` binary operators `op` between operands `a`."""
    return f" {op} ".join("a" * (count + 1))


TOO_DEEP = "expected shallower nesting (limit exceeded), found "


class TestDeclarations:
    def test_program_shape(self):
        prog = flagship()
        assert [i.path for i in prog.imports] == ["domain.osc"]
        assert [u.name for u in prog.uses] == ["std.stdtypes"]
        assert [s.name for s in prog.scenarios] == ["hello_world"]

    def test_field_and_var_members(self):
        scen = flagship().scenarios[0]
        fields = [m for m in scen.members if isinstance(m, ast.FieldDecl)]
        vars_ = [m for m in scen.members if isinstance(m, ast.VarDecl)]
        assert [f.name for f in fields] == ["carla_map", "env", "hero", "npc", "obstacle"]
        assert [f.type_name for f in fields] == [
            "map", "environment", "vehicle", "vehicle", "stationary_object"]
        assert [v.name for v in vars_] == [
            "v_hero", "v_npc_fast", "v_npc_slow", "v_npc_catchup",
            "lag", "gap", "safety_gap"]

    def test_keep_constraints(self):
        scen = flagship().scenarios[0]
        npc = next(m for m in scen.members
                   if isinstance(m, ast.FieldDecl) and m.name == "npc")
        assert len(npc.constraints) == 3
        first = npc.constraints[0].expr
        assert isinstance(first, ast.Binary) and first.op == "=="
        assert isinstance(first.lhs, ast.MemberAccess)
        assert isinstance(first.lhs.receiver, ast.Identifier)
        assert first.lhs.receiver.name == "it"
        assert first.lhs.member == "model"
        assert first.rhs == ast.StringLiteral(
            "vehicle.carlamotors.european_hgv", span=first.rhs.span)

    def test_var_initializers(self):
        scen = flagship().scenarios[0]
        catchup = next(m for m in scen.members
                       if isinstance(m, ast.VarDecl) and m.name == "v_npc_catchup")
        assert isinstance(catchup.init, ast.Binary)
        assert catchup.init.op == "*"
        assert catchup.init.rhs == ast.QuantityLiteral(
            10.0, "kph", span=catchup.init.rhs.span)

    def test_field_without_constraints(self):
        scen = flagship().scenarios[0]
        env = next(m for m in scen.members
                   if isinstance(m, ast.FieldDecl) and m.name == "env")
        assert env.constraints == []


# The README's operator table as the binding level of each node, with the
# least level each operand needs: a binary operator of level b takes a left
# operand of level b and a right one of b + 1, except that a comparison,
# which does not chain, takes b + 1 on both sides.  `not` sits at the
# comparisons' level 3 and takes an operand of 3; unary `-` is 6 and takes 6;
# member reads and calls are 7 and take a receiver of 7; leaves are 8.
LEVELS = {"or": 1, "and": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3,
          ">=": 3, "+": 4, "-": 4, "*": 5, "/": 5}


@st.composite
def expressions(draw, depth=5):
    """An expression tree as tuples, binary operators the most common node;
    ("(", x) is a redundant bracket around x."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["a", "b", "c", "1", "2m"]))
    inner = expressions(depth - 1)
    kind = draw(st.sampled_from(["binary"] * 5 + ["not", "neg", "(", ".", "call"]))
    if kind == "binary":
        level = draw(st.integers(1, 5))  # each level as often as any other
        op = draw(st.sampled_from(sorted(op for op in LEVELS
                                         if LEVELS[op] == level)))
        return (op, draw(inner), draw(inner))
    if kind == ".":
        return (".", draw(inner), "m")
    if kind == "call":
        args = st.lists(st.tuples(st.sampled_from([None, "k"]), inner),
                        max_size=2)
        return ("call", draw(inner), "f", draw(args))
    return (kind, draw(inner))


def render(tree):
    """The tree's text with the fewest brackets, and its binding level."""
    def at(sub, least):
        text, level = render(sub)
        return text if level >= least else f"({text})"

    if isinstance(tree, str):
        return tree, 8
    op = tree[0]
    if op in LEVELS:
        level = LEVELS[op]
        left = level + 1 if level == 3 else level
        return f"{at(tree[1], left)} {op} {at(tree[2], level + 1)}", level
    if op == "not":
        return f"not {at(tree[1], 3)}", 3
    if op == "neg":
        return f"-{at(tree[1], 6)}", 6
    if op == "(":
        return f"({render(tree[1])[0]})", 8
    receiver = at(tree[1], 7)
    if op == ".":
        return f"{receiver}.{tree[2]}", 7
    args = ", ".join(f"{name}: {render(value)[0]}" if name else render(value)[0]
                     for name, value in tree[3])
    return f"{receiver}.{tree[2]}({args})", 7


def strip(tree):
    """The drawn tree without its redundant brackets, in `shape`'s form."""
    if isinstance(tree, str):
        return tree
    op = tree[0]
    if op == "(":
        return strip(tree[1])
    if op == "neg":
        return ("-", strip(tree[1]))
    if op == "call":
        return (op, strip(tree[1]), tree[2],
                [(name, strip(value)) for name, value in tree[3]])
    if op == ".":
        return (op, strip(tree[1]), tree[2])
    return (op, *map(strip, tree[1:]))


def shape(node):
    """A parsed expression in `strip`'s form, spans aside."""
    if isinstance(node, ast.Binary):
        return (node.op, shape(node.lhs), shape(node.rhs))
    if isinstance(node, ast.Unary):
        return (node.op, shape(node.operand))
    if isinstance(node, ast.MemberAccess):
        return (".", shape(node.receiver), node.member)
    if isinstance(node, ast.MethodCall):
        return ("call", shape(node.receiver), node.method,
                [(arg.name, shape(arg.value)) for arg in node.args])
    if isinstance(node, ast.Identifier):
        return node.name
    if isinstance(node, ast.QuantityLiteral):
        return f"{node.value:g}{node.unit}"
    return f"{node.value:g}"


class TestBehaviors:
    def test_do_block_root(self):
        body = flagship().scenarios[0].body
        assert body is not None
        assert body.root.kind == "serial"

    def test_top_level_serial_children(self):
        root = flagship().scenarios[0].body.root
        kinds = [type(c).__name__ for c in root.children]
        assert kinds == ["ActionInvocation"] * 5 + ["Composition"]
        assert root.children[-1].kind == "parallel"
        assert len(root.children[-1].children) == 2

    def test_invocation_with_modifiers(self):
        root = flagship().scenarios[0].body.root
        npc_spawn = root.children[3]
        assert (npc_spawn.actor, npc_spawn.action) == ("npc", "assign_position")
        assert [m.name for m in npc_spawn.modifiers] == ["lane", "position", "speed"]
        lane = npc_spawn.modifiers[0]
        assert [a.name for a in lane.args] == ["side", "side_of", "at"]

    def test_named_and_positional_args(self):
        src = (
            "scenario s:\n"
            "  do serial:\n"
            "    a.f() with:\n"
            "      lane(1, at: start)\n"
        )
        mod = parse(src).scenarios[0].body.root.children[0].modifiers[0]
        assert mod.args[0].name is None
        assert isinstance(mod.args[0].value, ast.NumberLiteral)
        assert mod.args[1].name == "at"
        assert mod.args[1].value == ast.Identifier("start", span=mod.args[1].value.span)

    def test_wait_conditions(self):
        src = (
            "scenario s:\n"
            "  do serial:\n"
            "    wait @go_signal\n"
            "    wait rise(a.speed > 1mps)\n"
            "    wait fall(a.speed > 1mps)\n"
            "    wait elapsed(0.5s)\n"
            "    wait a.speed < 0.1kph\n"
        )
        conds = [w.condition for w in parse(src).scenarios[0].body.root.children]
        assert isinstance(conds[0], ast.EventRef) and conds[0].name == "go_signal"
        assert isinstance(conds[1], ast.RiseCondition)
        assert isinstance(conds[2], ast.FallCondition)
        assert isinstance(conds[3], ast.ElapsedCondition)
        assert isinstance(conds[4], ast.BoolCondition)

    def test_emit(self):
        src = "scenario s:\n  do serial:\n    emit CRASH_AVOIDED\n"
        stmt = parse(src).scenarios[0].body.root.children[0]
        assert isinstance(stmt, ast.EmitStatement)
        assert stmt.event == "CRASH_AVOIDED"

    def test_method_call_chain(self):
        src = (
            "scenario s:\n"
            "  do serial:\n"
            "    wait rise(npc.position.ahead_of(hero) >= lag * 2)\n"
        )
        cond = parse(src).scenarios[0].body.root.children[0].condition
        cmp_ = cond.expr
        call = cmp_.lhs
        assert isinstance(call, ast.MethodCall)
        assert call.method == "ahead_of"
        assert isinstance(call.receiver, ast.MemberAccess)
        assert call.receiver.member == "position"

    def test_unary_minus_quantity(self):
        src = (
            "scenario s:\n"
            "  do serial:\n"
            "    o.f(h: -1.57rad)\n"
        )
        arg = parse(src).scenarios[0].body.root.children[0].args[0]
        assert arg.name == "h"
        assert isinstance(arg.value, ast.Unary) and arg.value.op == "-"
        assert arg.value.operand == ast.QuantityLiteral(
            1.57, "rad", span=arg.value.operand.span)

    @settings(max_examples=200, deadline=None)
    @given(tree=expressions())
    def test_precedence(self, tree):
        # each tree, written with only the brackets the table needs, parses
        # back to itself
        text = render(tree)[0]
        init = parse(var(text)).scenarios[0].members[0].init
        assert shape(init) == strip(tree), text


class TestErrors:
    def test_duplicate_do_block(self):
        src = (
            "scenario s:\n"
            "  do serial:\n"
            "    emit A\n"
            "  do serial:\n"
            "    emit B\n"
        )
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert "at most one 'do'" in str(exc.value)

    def test_expected_found_message(self):
        with pytest.raises(ParseError) as exc:
            parse("scenario 42:\n")
        assert "expected scenario name" in str(exc.value)
        assert "literal '42'" in str(exc.value)

    def test_missing_block(self):
        with pytest.raises(ParseError) as exc:
            parse("scenario s:\n")
        assert "indented scenario body" in str(exc.value)

    def test_stray_token_at_top_level(self):
        with pytest.raises(ParseError) as exc:
            parse("wait @go\n")
        assert "'import', 'use', or 'scenario'" in str(exc.value)

    @pytest.mark.parametrize("source, message, span", [
        ("scenario probe:\n  hero: vehicle\n  do serial:\n",
         "expected indented behavior block, found end of block", (4, 1, 4, 2)),
        ('scenario "x":\n',
         "expected scenario name, found string literal", (1, 10, 1, 13)),
        ("# only a comment\n",
         "expected a scenario declaration, found end of input", (2, 1, 2, 2)),
        ("", "expected a scenario declaration, found end of input", (1, 1, 1, 2)),
        ("scenario s:\n  do serial\n",
         "expected ':', found end of line", (2, 12, 2, 13)),
        ("scenario s:\n  hero: vehicle\n    npc: vehicle\n",
         "expected field declaration, 'var', or 'do', found indented block",
         (3, 1, 3, 2)),
        ("scenario s:\n  hero: vehicle extra\n",
         "expected end of line, found identifier 'extra'", (2, 17, 2, 22)),
        ("scenario s:\n  do serial:\n    42\n",
         "expected behavior statement, found literal '42'", (3, 5, 3, 7)),
        ("scenario s:\n  var x: speed = )\n",
         "expected expression, found ')'", (2, 18, 2, 19)),
        *((var(chain(op, 65)), f"{TOO_DEEP}{op!r}", (2, 276, 2, 277))
          for op in "+-*/"),
        (var(chain("or", 65)), f"{TOO_DEEP}keyword 'or'", (2, 340, 2, 342)),
        (var(chain("and", 65)), f"{TOO_DEEP}keyword 'and'", (2, 404, 2, 407)),
        (var("a" + ".m" * 65), f"{TOO_DEEP}'.'", (2, 147, 2, 148)),
        (var("-" * 65 + "a"), f"{TOO_DEEP}identifier 'a'", (2, 83, 2, 84)),
        (var("(" * 65 + "a" + ")" * 65), f"{TOO_DEEP}identifier 'a'",
         (2, 83, 2, 84)),
        ("scenario s:\n  do serial:\n    wait " + "not " * 65 + "a\n",
         f"{TOO_DEEP}keyword 'not'", (3, 266, 3, 269)),
        (var("a == b == c"), "expected end of line, found '=='",
         (2, 25, 2, 27)),
        (var("a and b > c != d"), "expected end of line, found '!='",
         (2, 30, 2, 32)),
        (var("not a == b == c"), "expected end of line, found '=='",
         (2, 29, 2, 31)),
        (var("a + not b"), "expected expression, found keyword 'not'",
         (2, 22, 2, 25)),
        (var("a == not b"), "expected expression, found keyword 'not'",
         (2, 23, 2, 26)),
    ], ids=["end-of-block", "string-literal", "end-of-input-after-comment",
            "end-of-empty-input", "end-of-line", "indented-block",
            "not-end-of-line", "not-a-behavior", "not-an-expression",
            "plus-chain", "minus-chain", "times-chain", "divide-chain",
            "or-chain", "and-chain", "member-chain", "negation-nest",
            "bracket-nest", "not-nest", "chained-comparison",
            "comparison-after-and", "comparison-after-not", "not-after-plus",
            "not-after-comparison"])
    def test_found_token_and_span(self, source, message, span):
        # the layout and end-of-input tokens' positions, and each description
        with pytest.raises(ParseError) as exc:
            parse(source)
        d = exc.value.diagnostic
        assert d.message == message
        assert (d.span.line, d.span.col, d.span.end_line, d.span.end_col) == span

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "or", "and"])
    def test_chain_at_the_limit_parses(self, op):
        init = parse(var(chain(op, 64))).scenarios[0].members[0].init
        assert init.op == op

    def test_diagnostic_format(self):
        with pytest.raises(ParseError) as exc:
            parse("scenario s:\n  do bogus:\n", filename="x.osc")
        rendered = exc.value.diagnostic.render()
        assert rendered.startswith("x.osc:2:6: error[P001]: ")


class TestSpans:
    def test_spans_nest(self):
        def check(node):
            s = node.span
            assert (s.line, s.col) <= (s.end_line, s.end_col)
            for child in _children(node):
                cs = child.span
                assert (s.line, s.col) <= (cs.line, cs.col)
                assert (cs.end_line, cs.end_col) <= (s.end_line, s.end_col)
                check(child)

        check(flagship())

    def test_var_decl_span(self):
        prog = parse("scenario s:\n  var x: speed = 35kph\n")
        var = prog.scenarios[0].members[0]
        assert (var.span.line, var.span.col) == (2, 3)
        assert var.span.end_col == 23


def _children(node):
    import dataclasses
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, ast.Node):
            yield v
        elif isinstance(v, list):
            yield from (x for x in v if isinstance(x, ast.Node))


class TestRoundTrip:
    def test_dump_is_json(self):
        import json
        data = json.loads(ast.dump_json(flagship()))
        assert data["node"] == "Program"
        assert data["scenarios"][0]["name"] == "hello_world"


class TestProperties:
    @given(source=st.text(alphabet=string.printable, max_size=300))
    def test_parser_total(self, source):
        # arbitrary input parses or fails with a frontend diagnostic
        try:
            parse(source)
        except (LexError, ParseError):
            pass

    @given(depth=st.integers(1, 400))
    def test_deep_parens_bounded(self, depth):
        src = f"scenario s:\n  var x: speed = {'(' * depth}1kph{')' * depth}\n"
        try:
            prog = parse(src)
        except ParseError as exc:
            assert "nesting" in str(exc)
            return
        assert prog.scenarios[0].members[0].name == "x"
