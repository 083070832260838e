"""Recursive-descent parser producing the typed syntax tree.

One scenario holds field and var declarations in any order plus at most one
``do`` block; a second ``do`` is a parse error.  Behavior statements are
compositions (serial, parallel, one_of), action invocations with optional
``with:`` modifier blocks, ``wait`` on a condition, and ``emit``.

All failures raise ParseError (code P001) phrased as
"expected <thing>, found <token>".
"""

from __future__ import annotations

from . import ast
from .diagnostics import ERROR, CompileError, Diagnostic, Span
from .lexer import Token, TokenKind, tokenize

COMPOSITION_KINDS = ("serial", "parallel", "one_of")

# The deepest nesting of parentheses, method-call argument lists, unary
# operators and compositions.  One level of expression nesting costs the
# parser about a dozen Python frames, so the limit fires well before the
# interpreter's default recursion limit of 1000, with room left for the
# caller's own frames and for the checker and runtime, which recurse less.
MAX_DEPTH = 64


class ParseError(CompileError):
    pass


def describe(token: Token) -> str:
    kind = token.kind
    if kind == TokenKind.NEWLINE:
        return "end of line"
    if kind == TokenKind.EOF:
        return "end of input"
    if kind == TokenKind.INDENT:
        return "indented block"
    if kind == TokenKind.DEDENT:
        return "end of block"
    if kind == TokenKind.KEYWORD:
        return f"keyword {token.text!r}"
    if kind == TokenKind.IDENT:
        return f"identifier {token.text!r}"
    if kind == TokenKind.STRING:
        return "string literal"
    if kind in (TokenKind.NUMBER, TokenKind.QUANTITY):
        return f"literal {token.text!r}"
    return f"{token.text!r}"


class Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0
        self.depth = 0

    # token plumbing

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def at(self, kind: TokenKind, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def prev_span(self) -> Span:
        return self.tokens[max(self.pos - 1, 0)].span

    def fail(self, expected: str, at: Token | None = None) -> ParseError:
        tok = at or self.peek()
        message = f"expected {expected}, found {describe(tok)}"
        return ParseError(Diagnostic(ERROR, "P001", message, tok.span, self.filename))

    def expect(self, kind: TokenKind, text: str | None = None,
               expected: str | None = None) -> Token:
        if not self.at(kind, text):
            raise self.fail(expected or (f"{text!r}" if text else kind.name.lower()))
        return self.advance()

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.fail("shallower nesting (limit exceeded)")

    def _leave(self) -> None:
        self.depth -= 1

    # grammar

    def parse_program(self) -> ast.Program:
        start = self.peek().span
        imports: list[ast.Node] = []
        uses: list[ast.Node] = []
        scenarios: list[ast.Node] = []
        while not self.at(TokenKind.EOF):
            if self.at(TokenKind.NEWLINE):
                self.advance()
            elif self.at(TokenKind.KEYWORD, "import"):
                imports.append(self._import_decl())
            elif self.at(TokenKind.KEYWORD, "use"):
                uses.append(self._use_decl())
            elif self.at(TokenKind.KEYWORD, "scenario"):
                scenarios.append(self._scenario_decl())
            else:
                raise self.fail("'import', 'use', or 'scenario'")
        if not scenarios:
            raise self.fail("a scenario declaration")
        return ast.Program(imports, uses, scenarios,
                           span=start.to(self.peek().span))

    def _import_decl(self) -> ast.ImportDecl:
        start = self.advance().span
        path = self.expect(TokenKind.STRING, expected="import path string")
        self._end_line()
        return ast.ImportDecl(path.text, span=start.to(path.span))

    def _use_decl(self) -> ast.UseDecl:
        start = self.advance().span
        parts = [self.expect(TokenKind.IDENT, expected="module name").text]
        while self.at(TokenKind.OP, "."):
            self.advance()
            parts.append(self.expect(TokenKind.IDENT, expected="module name").text)
        end = self.prev_span()
        self._end_line()
        return ast.UseDecl(".".join(parts), span=start.to(end))

    def _scenario_decl(self) -> ast.ScenarioDecl:
        start = self.advance().span
        name = self.expect(TokenKind.IDENT, expected="scenario name")
        self.expect(TokenKind.OP, ":")
        self.expect(TokenKind.NEWLINE, expected="end of line")
        self.expect(TokenKind.INDENT, expected="indented scenario body")
        members: list[ast.Node] = []
        body: ast.DoBlock | None = None
        while not self.at(TokenKind.DEDENT):
            if self.at(TokenKind.KEYWORD, "var"):
                members.append(self._var_decl())
            elif self.at(TokenKind.KEYWORD, "do"):
                if body is not None:
                    raise self.fail("at most one 'do' block per scenario")
                body = self._do_block()
            elif self.at(TokenKind.IDENT):
                members.append(self._field_decl())
            else:
                raise self.fail("field declaration, 'var', or 'do'")
        end = self.advance().span  # DEDENT
        return ast.ScenarioDecl(name.text, members, body, span=start.to(end))

    def _field_decl(self) -> ast.FieldDecl:
        name = self.advance()
        self.expect(TokenKind.OP, ":")
        type_name = self.expect(TokenKind.IDENT, expected="type name")
        constraints: list[ast.Node] = []
        end = type_name.span
        if self.at(TokenKind.KEYWORD, "with"):
            self.advance()
            self.expect(TokenKind.OP, ":")
            self.expect(TokenKind.NEWLINE, expected="end of line")
            self.expect(TokenKind.INDENT, expected="indented keep block")
            while not self.at(TokenKind.DEDENT):
                constraints.append(self._keep())
            end = self.advance().span  # DEDENT
        else:
            self._end_line()
        return ast.FieldDecl(name.text, type_name.text, constraints,
                             span=name.span.to(end))

    def _keep(self) -> ast.KeepConstraint:
        start = self.expect(TokenKind.KEYWORD, "keep",
                            expected="'keep' constraint").span
        self.expect(TokenKind.OP, "(")
        expr = self._expr()
        end = self.expect(TokenKind.OP, ")").span
        self._end_line()
        return ast.KeepConstraint(expr, span=start.to(end))

    def _var_decl(self) -> ast.VarDecl:
        start = self.advance().span
        name = self.expect(TokenKind.IDENT, expected="variable name")
        self.expect(TokenKind.OP, ":")
        type_name = self.expect(TokenKind.IDENT, expected="type name")
        self.expect(TokenKind.OP, "=", expected="'=' initializer")
        init = self._expr()
        end = self.prev_span()
        self._end_line()
        return ast.VarDecl(name.text, type_name.text, init, span=start.to(end))

    def _do_block(self) -> ast.DoBlock:
        start = self.advance().span
        root = self._composition()
        return ast.DoBlock(root, span=start.to(root.span))

    def _composition(self) -> ast.Composition:
        tok = self.peek()
        if not (tok.kind == TokenKind.KEYWORD and tok.text in COMPOSITION_KINDS):
            raise self.fail("'serial', 'parallel', or 'one_of'")
        self._enter()
        self.advance()
        self.expect(TokenKind.OP, ":")
        self.expect(TokenKind.NEWLINE, expected="end of line")
        self.expect(TokenKind.INDENT, expected="indented behavior block")
        children: list[ast.Node] = []
        while not self.at(TokenKind.DEDENT):
            children.append(self._behavior())
        end = self.advance().span  # DEDENT
        self._leave()
        return ast.Composition(tok.text, children, span=tok.span.to(end))

    def _behavior(self) -> ast.Node:
        tok = self.peek()
        if tok.kind == TokenKind.KEYWORD:
            if tok.text in COMPOSITION_KINDS:
                return self._composition()
            if tok.text == "wait":
                return self._wait()
            if tok.text == "emit":
                return self._emit()
        if tok.kind == TokenKind.IDENT:
            return self._invocation()
        raise self.fail("behavior statement")

    def _wait(self) -> ast.WaitStatement:
        start = self.advance().span
        condition = self._condition()
        end = self.prev_span()
        self._end_line()
        return ast.WaitStatement(condition, span=start.to(end))

    def _condition(self) -> ast.Node:
        tok = self.peek()
        if tok.kind == TokenKind.OP and tok.text == "@":
            self.advance()
            name = self.expect(TokenKind.IDENT, expected="event name")
            return ast.EventRef(name.text, span=tok.span.to(name.span))
        if tok.kind == TokenKind.KEYWORD and tok.text in ("rise", "fall", "elapsed"):
            self.advance()
            self.expect(TokenKind.OP, "(")
            inner = self._expr()
            end = self.expect(TokenKind.OP, ")").span
            span = tok.span.to(end)
            if tok.text == "rise":
                return ast.RiseCondition(inner, span=span)
            if tok.text == "fall":
                return ast.FallCondition(inner, span=span)
            return ast.ElapsedCondition(inner, span=span)
        expr = self._expr()
        return ast.BoolCondition(expr, span=expr.span)

    def _emit(self) -> ast.EmitStatement:
        start = self.advance().span
        name = self.expect(TokenKind.IDENT, expected="event name")
        self._end_line()
        return ast.EmitStatement(name.text, span=start.to(name.span))

    def _invocation(self) -> ast.ActionInvocation:
        actor = self.advance()
        self.expect(TokenKind.OP, ".", expected="'.' before action name")
        action = self.expect(TokenKind.IDENT, expected="action name")
        self.expect(TokenKind.OP, "(")
        args = self._args()
        end = self.expect(TokenKind.OP, ")").span
        modifiers: list[ast.Node] = []
        if self.at(TokenKind.KEYWORD, "with"):
            self.advance()
            self.expect(TokenKind.OP, ":")
            self.expect(TokenKind.NEWLINE, expected="end of line")
            self.expect(TokenKind.INDENT, expected="indented modifier block")
            while not self.at(TokenKind.DEDENT):
                modifiers.append(self._modifier())
            end = self.advance().span  # DEDENT
        else:
            self._end_line()
        return ast.ActionInvocation(actor.text, action.text, args, modifiers,
                                    span=actor.span.to(end))

    def _modifier(self) -> ast.ModifierApplication:
        name = self.expect(TokenKind.IDENT, expected="modifier name")
        self.expect(TokenKind.OP, "(")
        args = self._args()
        end = self.expect(TokenKind.OP, ")").span
        self._end_line()
        return ast.ModifierApplication(name.text, args, span=name.span.to(end))

    def _args(self) -> list[ast.Node]:
        args: list[ast.Node] = []
        if self.at(TokenKind.OP, ")"):
            return args
        args.append(self._arg())
        while self.at(TokenKind.OP, ","):
            self.advance()
            args.append(self._arg())
        return args

    def _arg(self) -> ast.Argument:
        name = None
        start = self.peek().span
        if self.at(TokenKind.IDENT) and self.peek(1).kind == TokenKind.OP \
                and self.peek(1).text == ":":
            name = self.advance().text
            self.advance()
        value = self._expr()
        return ast.Argument(name, value, span=start.to(value.span))

    # expressions, loosest to tightest binding

    def _expr(self) -> ast.Node:
        return self._or_expr()

    def _or_expr(self) -> ast.Node:
        node = self._and_expr()
        while self.at(TokenKind.KEYWORD, "or"):
            self.advance()
            rhs = self._and_expr()
            node = ast.Binary("or", node, rhs, span=node.span.to(rhs.span))
        return node

    def _and_expr(self) -> ast.Node:
        node = self._not_expr()
        while self.at(TokenKind.KEYWORD, "and"):
            self.advance()
            rhs = self._not_expr()
            node = ast.Binary("and", node, rhs, span=node.span.to(rhs.span))
        return node

    def _not_expr(self) -> ast.Node:
        if self.at(TokenKind.KEYWORD, "not"):
            start = self.advance().span
            self._enter()
            try:
                operand = self._not_expr()
            finally:
                self._leave()
            return ast.Unary("not", operand, span=start.to(operand.span))
        return self._comparison()

    def _comparison(self) -> ast.Node:
        node = self._additive()
        tok = self.peek()
        if tok.kind == TokenKind.OP and tok.text in ("==", "!=", "<", "<=", ">", ">="):
            self.advance()
            rhs = self._additive()
            node = ast.Binary(tok.text, node, rhs, span=node.span.to(rhs.span))
        return node

    def _additive(self) -> ast.Node:
        node = self._multiplicative()
        while self.at(TokenKind.OP, "+") or self.at(TokenKind.OP, "-"):
            op = self.advance().text
            rhs = self._multiplicative()
            node = ast.Binary(op, node, rhs, span=node.span.to(rhs.span))
        return node

    def _multiplicative(self) -> ast.Node:
        node = self._unary()
        while self.at(TokenKind.OP, "*") or self.at(TokenKind.OP, "/"):
            op = self.advance().text
            rhs = self._unary()
            node = ast.Binary(op, node, rhs, span=node.span.to(rhs.span))
        return node

    def _unary(self) -> ast.Node:
        if self.at(TokenKind.OP, "-"):
            start = self.advance().span
            self._enter()
            try:
                operand = self._unary()
            finally:
                self._leave()
            return ast.Unary("-", operand, span=start.to(operand.span))
        return self._postfix()

    def _postfix(self) -> ast.Node:
        node = self._primary()
        while self.at(TokenKind.OP, "."):
            self.advance()
            member = self.expect(TokenKind.IDENT, expected="member name")
            if self.at(TokenKind.OP, "("):
                self.advance()
                self._enter()
                try:
                    args = self._args()
                finally:
                    self._leave()
                end = self.expect(TokenKind.OP, ")").span
                node = ast.MethodCall(node, member.text, args,
                                      span=node.span.to(end))
            else:
                node = ast.MemberAccess(node, member.text,
                                        span=node.span.to(member.span))
        return node

    def _primary(self) -> ast.Node:
        tok = self.peek()
        if tok.kind == TokenKind.NUMBER:
            self.advance()
            return ast.NumberLiteral(tok.value, span=tok.span)
        if tok.kind == TokenKind.QUANTITY:
            self.advance()
            return ast.QuantityLiteral(tok.value, tok.unit, span=tok.span)
        if tok.kind == TokenKind.STRING:
            self.advance()
            return ast.StringLiteral(tok.text, span=tok.span)
        if tok.kind == TokenKind.IDENT:
            self.advance()
            return ast.Identifier(tok.text, span=tok.span)
        if tok.kind == TokenKind.OP and tok.text == "(":
            self.advance()
            self._enter()
            try:
                node = self._expr()
            finally:
                self._leave()
            self.expect(TokenKind.OP, ")")
            return node
        raise self.fail("expression")

    def _end_line(self) -> None:
        if self.at(TokenKind.EOF):
            return
        self.expect(TokenKind.NEWLINE, expected="end of line")


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Lex and parse source text; raises LexError or ParseError."""
    return Parser(tokenize(source, filename), filename).parse_program()
