"""Recursive-descent parser producing the typed syntax tree.

One scenario holds field and var declarations in any order plus at most one
``do`` block; a second ``do`` is a parse error.  Behavior statements are
compositions (serial, parallel, one_of), action invocations with optional
``with:`` modifier blocks, ``wait`` on a condition, and ``emit``.

All failures raise ParseError (code P001) phrased as
"expected <thing>, found <token>".

The parser indexes the lexer's token tuples.  It builds a ``Span`` only for
each syntax-tree node, from the ints of its first and last tokens or from a
child node's span, and for the token a ParseError points at.
"""

from __future__ import annotations

from . import ast
from .diagnostics import ERROR, CompileError, Diagnostic, Span
from .lexer import TokenKind, tokenize

COMPOSITION_KINDS = ("serial", "parallel", "one_of")
COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")

INDENT, DEDENT, NEWLINE, EOF = (TokenKind.INDENT, TokenKind.DEDENT,
                                TokenKind.NEWLINE, TokenKind.EOF)
IDENT, KEYWORD, OP, STRING = (TokenKind.IDENT, TokenKind.KEYWORD,
                              TokenKind.OP, TokenKind.STRING)
NUMBER, QUANTITY = TokenKind.NUMBER, TokenKind.QUANTITY

# The limit on two measures of nesting.  The depth counts the constructs
# the parser enters by recursion: parentheses, method-call argument lists,
# unary operators and compositions.  One level of it costs the parser about
# a dozen Python frames, so the limit fires well before the interpreter's
# default recursion limit of 1000, with room left for the caller's own
# frames and for the checker and runtime, which recurse less.  The height
# counts the operators the parser builds in loops: each binary operator of
# an `and`, `or`, `+ -` or `* /` chain, each member read and each method
# call stacks one level on its taller operand.  The parser itself does not
# recurse through a chain, but the checker and `ast.to_dict` do, so the
# height bounds what they walk.  A comparison is free: it does not chain,
# and comparisons nest only through a bracket, which the depth counts.
MAX_DEPTH = 64


class ParseError(CompileError):
    pass


def describe(token: tuple) -> str:
    kind = token[0]
    if kind is NEWLINE:
        return "end of line"
    if kind is EOF:
        return "end of input"
    if kind is INDENT:
        return "indented block"
    if kind is DEDENT:
        return "end of block"
    if kind is KEYWORD:
        return f"keyword {token[1]!r}"
    if kind is IDENT:
        return f"identifier {token[1]!r}"
    if kind is STRING:
        return "string literal"
    if kind is NUMBER or kind is QUANTITY:
        return f"literal {token[1]!r}"
    return f"{token[1]!r}"


class Parser:
    def __init__(self, tokens: list[tuple], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.tok = tokens[0]  # the current token; the list ends with EOF
        self.depth = 0
        self.height = 0  # of the expression parsed last

    # token plumbing

    def at(self, kind: TokenKind, text: str | None = None) -> bool:
        tok = self.tok
        return tok[0] is kind and (text is None or tok[1] == text)

    def advance(self) -> tuple:
        tok = self.tok
        if tok[0] is not EOF:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def prev(self) -> tuple:
        return self.tokens[max(self.pos - 1, 0)]

    def fail(self, expected: str, at: tuple | None = None) -> ParseError:
        tok = at or self.tok
        message = f"expected {expected}, found {describe(tok)}"
        span = Span(tok[2], tok[3], tok[2], tok[4])
        return ParseError(Diagnostic(ERROR, "P001", message, span, self.filename))

    def expect(self, kind: TokenKind, text: str | None = None,
               expected: str | None = None) -> tuple:
        tok = self.tok
        if tok[0] is not kind or (text is not None and tok[1] != text):
            raise self.fail(expected or (f"{text!r}" if text else kind.name.lower()))
        # advance() inlined: nothing expects EOF, so a token follows this one
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.fail("shallower nesting (limit exceeded)")

    def _stack(self, height: int, op: tuple) -> int:
        """Height of an operator `op` over operands of `height` and `self.height`."""
        height = max(height, self.height) + 1
        if height > MAX_DEPTH:
            raise self.fail("shallower nesting (limit exceeded)", op)
        self.height = height
        return height

    # grammar

    def parse_program(self) -> ast.Program:
        start = self.tok
        imports: list[ast.Node] = []
        uses: list[ast.Node] = []
        scenarios: list[ast.Node] = []
        while not self.at(EOF):
            if self.at(NEWLINE):
                self.advance()
            elif self.at(KEYWORD, "import"):
                imports.append(self._import_decl())
            elif self.at(KEYWORD, "use"):
                uses.append(self._use_decl())
            elif self.at(KEYWORD, "scenario"):
                scenarios.append(self._scenario_decl())
            else:
                raise self.fail("'import', 'use', or 'scenario'")
        if not scenarios:
            raise self.fail("a scenario declaration")
        end = self.tok  # EOF
        return ast.Program(imports, uses, scenarios,
                           span=Span(start[2], start[3], end[2], end[4]))

    def _import_decl(self) -> ast.ImportDecl:
        start = self.advance()
        path = self.expect(STRING, expected="import path string")
        self._end_line()
        return ast.ImportDecl(path[1], span=Span(start[2], start[3], path[2], path[4]))

    def _use_decl(self) -> ast.UseDecl:
        start = self.advance()
        parts = [self.expect(IDENT, expected="module name")[1]]
        while self.at(OP, "."):
            self.advance()
            parts.append(self.expect(IDENT, expected="module name")[1])
        end = self.prev()
        self._end_line()
        return ast.UseDecl(".".join(parts), span=Span(start[2], start[3], end[2], end[4]))

    def _scenario_decl(self) -> ast.ScenarioDecl:
        start = self.advance()
        name = self.expect(IDENT, expected="scenario name")
        self.expect(OP, ":")
        self.expect(NEWLINE, expected="end of line")
        self.expect(INDENT, expected="indented scenario body")
        members: list[ast.Node] = []
        body: ast.DoBlock | None = None
        while self.tok[0] is not DEDENT:
            if self.at(KEYWORD, "var"):
                members.append(self._var_decl())
            elif self.at(KEYWORD, "do"):
                if body is not None:
                    raise self.fail("at most one 'do' block per scenario")
                body = self._do_block()
            elif self.at(IDENT):
                members.append(self._field_decl())
            else:
                raise self.fail("field declaration, 'var', or 'do'")
        end = self.advance()  # DEDENT
        return ast.ScenarioDecl(name[1], members, body,
                                span=Span(start[2], start[3], end[2], end[4]))

    def _field_decl(self) -> ast.FieldDecl:
        name = self.advance()
        self.expect(OP, ":")
        type_name = self.expect(IDENT, expected="type name")
        constraints: list[ast.Node] = []
        end = type_name
        if self.at(KEYWORD, "with"):
            self.advance()
            self.expect(OP, ":")
            self.expect(NEWLINE, expected="end of line")
            self.expect(INDENT, expected="indented keep block")
            while self.tok[0] is not DEDENT:
                constraints.append(self._keep())
            end = self.advance()  # DEDENT
        else:
            self._end_line()
        return ast.FieldDecl(name[1], type_name[1], constraints,
                             span=Span(name[2], name[3], end[2], end[4]))

    def _keep(self) -> ast.KeepConstraint:
        start = self.expect(KEYWORD, "keep", expected="'keep' constraint")
        self.expect(OP, "(")
        expr = self._expr()
        end = self.expect(OP, ")")
        self._end_line()
        return ast.KeepConstraint(expr, span=Span(start[2], start[3], end[2], end[4]))

    def _var_decl(self) -> ast.VarDecl:
        start = self.advance()
        name = self.expect(IDENT, expected="variable name")
        self.expect(OP, ":")
        type_name = self.expect(IDENT, expected="type name")
        self.expect(OP, "=", expected="'=' initializer")
        init = self._expr()
        end = self.prev()
        self._end_line()
        return ast.VarDecl(name[1], type_name[1], init,
                           span=Span(start[2], start[3], end[2], end[4]))

    def _do_block(self) -> ast.DoBlock:
        start = self.advance()
        root = self._composition()
        end = root.span
        return ast.DoBlock(root, span=Span(start[2], start[3], end.end_line, end.end_col))

    def _composition(self) -> ast.Composition:
        tok = self.tok
        if not (tok[0] is KEYWORD and tok[1] in COMPOSITION_KINDS):
            raise self.fail("'serial', 'parallel', or 'one_of'")
        self._enter()
        self.advance()
        self.expect(OP, ":")
        self.expect(NEWLINE, expected="end of line")
        self.expect(INDENT, expected="indented behavior block")
        children: list[ast.Node] = []
        while self.tok[0] is not DEDENT:
            children.append(self._behavior())
        end = self.advance()  # DEDENT
        self.depth -= 1
        return ast.Composition(tok[1], children,
                               span=Span(tok[2], tok[3], end[2], end[4]))

    def _behavior(self) -> ast.Node:
        kind, text = self.tok[:2]
        if kind is KEYWORD:
            if text in COMPOSITION_KINDS:
                return self._composition()
            if text == "wait":
                return self._wait()
            if text == "emit":
                return self._emit()
        if kind is IDENT:
            return self._invocation()
        raise self.fail("behavior statement")

    def _wait(self) -> ast.WaitStatement:
        start = self.advance()
        condition = self._condition()
        end = self.prev()
        self._end_line()
        return ast.WaitStatement(condition, span=Span(start[2], start[3], end[2], end[4]))

    def _condition(self) -> ast.Node:
        tok = self.tok
        kind, text = tok[:2]
        if kind is OP and text == "@":
            self.advance()
            name = self.expect(IDENT, expected="event name")
            return ast.EventRef(name[1], span=Span(tok[2], tok[3], name[2], name[4]))
        if kind is KEYWORD and text in ("rise", "fall", "elapsed"):
            self.advance()
            self.expect(OP, "(")
            inner = self._expr()
            end = self.expect(OP, ")")
            span = Span(tok[2], tok[3], end[2], end[4])
            if text == "rise":
                return ast.RiseCondition(inner, span=span)
            if text == "fall":
                return ast.FallCondition(inner, span=span)
            return ast.ElapsedCondition(inner, span=span)
        expr = self._expr()
        return ast.BoolCondition(expr, span=expr.span)

    def _emit(self) -> ast.EmitStatement:
        start = self.advance()
        name = self.expect(IDENT, expected="event name")
        self._end_line()
        return ast.EmitStatement(name[1], span=Span(start[2], start[3], name[2], name[4]))

    def _invocation(self) -> ast.ActionInvocation:
        actor = self.advance()
        self.expect(OP, ".", expected="'.' before action name")
        action = self.expect(IDENT, expected="action name")
        self.expect(OP, "(")
        args = self._args()
        end = self.expect(OP, ")")
        modifiers: list[ast.Node] = []
        if self.at(KEYWORD, "with"):
            self.advance()
            self.expect(OP, ":")
            self.expect(NEWLINE, expected="end of line")
            self.expect(INDENT, expected="indented modifier block")
            while self.tok[0] is not DEDENT:
                modifiers.append(self._modifier())
            end = self.advance()  # DEDENT
        else:
            self._end_line()
        return ast.ActionInvocation(actor[1], action[1], args, modifiers,
                                    span=Span(actor[2], actor[3], end[2], end[4]))

    def _modifier(self) -> ast.ModifierApplication:
        name = self.expect(IDENT, expected="modifier name")
        self.expect(OP, "(")
        args = self._args()
        end = self.expect(OP, ")")
        self._end_line()
        return ast.ModifierApplication(name[1], args,
                                       span=Span(name[2], name[3], end[2], end[4]))

    def _args(self) -> list[ast.Node]:
        """Arguments up to ")"; the height becomes the tallest one's, if any."""
        args: list[ast.Node] = []
        if self.at(OP, ")"):
            return args
        args.append(self._arg())
        height = self.height
        while self.at(OP, ","):
            self.advance()
            args.append(self._arg())
            height = max(height, self.height)
        self.height = height
        return args

    def _arg(self) -> ast.Argument:
        name = None
        start = self.tok
        if start[0] is IDENT:
            after = self.tokens[self.pos + 1]  # the current token is not EOF
            if after[0] is OP and after[1] == ":":
                name = self.advance()[1]
                self.advance()
        value = self._expr()
        end = value.span
        return ast.Argument(name, value,
                            span=Span(start[2], start[3], end.end_line, end.end_col))

    # expressions, loosest to tightest binding; each sets self.height

    def _or_expr(self) -> ast.Node:
        node = self._and_expr()
        height = self.height
        while self.tok[0] is KEYWORD and self.tok[1] == "or":
            op = self.advance()
            rhs = self._and_expr()
            height = self._stack(height, op)
            node = ast.Binary("or", node, rhs, span=node.span.to(rhs.span))
        return node

    _expr = _or_expr

    def _and_expr(self) -> ast.Node:
        node = self._not_expr()
        height = self.height
        while self.tok[0] is KEYWORD and self.tok[1] == "and":
            op = self.advance()
            rhs = self._not_expr()
            height = self._stack(height, op)
            node = ast.Binary("and", node, rhs, span=node.span.to(rhs.span))
        return node

    def _not_expr(self) -> ast.Node:
        if self.at(KEYWORD, "not"):
            start = self.advance()
            self._enter()
            operand = self._not_expr()
            self.depth -= 1
            end = operand.span
            return ast.Unary("not", operand,
                             span=Span(start[2], start[3], end.end_line, end.end_col))
        return self._comparison()

    def _comparison(self) -> ast.Node:
        node = self._additive()
        tok = self.tok
        if tok[0] is OP and tok[1] in COMPARISONS:
            height = self.height
            self.advance()
            rhs = self._additive()
            self.height = max(height, self.height)
            node = ast.Binary(tok[1], node, rhs, span=node.span.to(rhs.span))
        return node

    def _additive(self) -> ast.Node:
        node = self._multiplicative()
        height = self.height
        while self.tok[0] is OP and self.tok[1] in ("+", "-"):
            op = self.advance()
            rhs = self._multiplicative()
            height = self._stack(height, op)
            node = ast.Binary(op[1], node, rhs, span=node.span.to(rhs.span))
        return node

    def _multiplicative(self) -> ast.Node:
        node = self._unary()
        height = self.height
        while self.tok[0] is OP and self.tok[1] in ("*", "/"):
            op = self.advance()
            rhs = self._unary()
            height = self._stack(height, op)
            node = ast.Binary(op[1], node, rhs, span=node.span.to(rhs.span))
        return node

    def _unary(self) -> ast.Node:
        if self.at(OP, "-"):
            start = self.advance()
            self._enter()
            operand = self._unary()
            self.depth -= 1
            end = operand.span
            return ast.Unary("-", operand,
                             span=Span(start[2], start[3], end.end_line, end.end_col))
        return self._postfix()

    def _postfix(self) -> ast.Node:
        node = self._primary()
        height = self.height
        while self.at(OP, "."):
            dot = self.advance()
            member = self.expect(IDENT, expected="member name")
            start = node.span
            if self.at(OP, "("):
                self.advance()
                self._enter()
                args = self._args()
                self.depth -= 1
                end = self.expect(OP, ")")
                node = ast.MethodCall(node, member[1], args,
                                      span=Span(start.line, start.col, end[2], end[4]))
            else:
                node = ast.MemberAccess(node, member[1],
                                        span=Span(start.line, start.col,
                                                  member[2], member[4]))
            height = self._stack(height, dot)
        return node

    def _primary(self) -> ast.Node:
        kind, text, line, col, end_col, value, unit = self.tok
        if kind is OP and text == "(":
            self.advance()
            self._enter()
            node = self._expr()
            self.depth -= 1
            self.expect(OP, ")")
            return node
        self.height = 0
        if kind is IDENT:
            node = ast.Identifier(text, span=Span(line, col, line, end_col))
        elif kind is QUANTITY:
            node = ast.QuantityLiteral(value, unit, span=Span(line, col, line, end_col))
        elif kind is NUMBER:
            node = ast.NumberLiteral(value, span=Span(line, col, line, end_col))
        elif kind is STRING:
            node = ast.StringLiteral(text, span=Span(line, col, line, end_col))
        else:
            raise self.fail("expression")
        self.advance()
        return node

    def _end_line(self) -> None:
        # A statement's parentheses balance, so a NEWLINE ends its line
        # before EOF can come.
        self.expect(NEWLINE, expected="end of line")


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Lex and parse source text; raises LexError or ParseError."""
    return Parser(tokenize(source, filename), filename).parse_program()
