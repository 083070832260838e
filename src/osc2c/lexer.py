"""Indentation-sensitive lexer for the scenario language.

Layout follows the Python model: leading whitespace opens and closes blocks
via synthetic INDENT/DEDENT tokens, tabs advance to the next multiple of 8,
and every DEDENT must land on an enclosing indentation level.  Newlines and
layout are suppressed inside parentheses so argument lists may wrap.

Quantity literals (``35kph``, ``-1.57rad`` minus the sign, ``0.5s``) are a
number immediately followed by a unit suffix; the suffix is validated here
against the unit table so a bad unit fails with a precise span.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .diagnostics import ERROR, CompileError, Diagnostic, Span
from .units import UNITS

KEYWORDS = frozenset({
    "import", "use", "scenario", "var", "keep", "do",
    "serial", "parallel", "one_of", "wait", "emit",
    "rise", "fall", "elapsed", "with",
    "and", "or", "not",
})

TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
ONE_CHAR_OPS = frozenset("()+-*/<>=:,.@")


class TokenKind(enum.Enum):
    INDENT = "INDENT"
    DEDENT = "DEDENT"
    NEWLINE = "NEWLINE"
    EOF = "EOF"
    IDENT = "IDENT"
    KEYWORD = "KEYWORD"
    NUMBER = "NUMBER"
    QUANTITY = "QUANTITY"
    STRING = "STRING"
    OP = "OP"


@dataclass(frozen=True, slots=True)
class Token:
    kind: TokenKind
    text: str
    span: Span
    value: float | None = None
    unit: str | None = None

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.span.line}:{self.span.col})"


class LexError(CompileError):
    pass


def _error(message: str, filename: str, line: int, col: int) -> LexError:
    return LexError(Diagnostic(ERROR, "L001", message, Span.point(line, col), filename))


def _indent_width(line: str) -> int:
    width = 0
    for ch in line:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width = (width // 8 + 1) * 8
        else:
            break
    return width


@dataclass
class _Scanner:
    source: str
    filename: str
    tokens: list[Token] = field(default_factory=list)
    indents: list[int] = field(default_factory=lambda: [0])
    paren_depth: int = 0

    def run(self) -> list[Token]:
        lineno = 0
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            self._scan_line(lineno, raw)
        end = Span.point(lineno + 1, 1)
        while len(self.indents) > 1:
            self.indents.pop()
            self.tokens.append(Token(TokenKind.DEDENT, "", end))
        self.tokens.append(Token(TokenKind.EOF, "", end))
        return self.tokens

    def _scan_line(self, lineno: int, line: str) -> None:
        i = 0
        while i < len(line) and line[i] in " \t":
            i += 1
        if i >= len(line) or line[i] == "#":
            return
        if self.paren_depth == 0:
            self._layout(lineno, _indent_width(line))
        produced = self._scan_tokens(lineno, line, i)
        if self.paren_depth == 0 and produced:
            self.tokens.append(Token(TokenKind.NEWLINE, "",
                                     Span.point(lineno, len(line) + 1)))

    def _layout(self, lineno: int, width: int) -> None:
        span = Span.point(lineno, 1)
        if width > self.indents[-1]:
            self.indents.append(width)
            self.tokens.append(Token(TokenKind.INDENT, "", span))
            return
        while width < self.indents[-1]:
            self.indents.pop()
            self.tokens.append(Token(TokenKind.DEDENT, "", span))
        if width != self.indents[-1]:
            raise _error("unindent does not match any outer indentation level",
                         self.filename, lineno, 1)

    def _scan_tokens(self, lineno: int, line: str, i: int) -> bool:
        produced = False
        while i < len(line):
            ch = line[i]
            if ch in " \t":
                i += 1
                continue
            if ch == "#":
                break
            if ch.isalpha() or ch == "_":
                i = self._ident(lineno, line, i)
            elif ch.isdigit():
                i = self._number(lineno, line, i)
            elif ch == '"':
                i = self._string(lineno, line, i)
            else:
                i = self._operator(lineno, line, i)
            produced = True
        return produced

    def _ident(self, lineno: int, line: str, i: int) -> int:
        j = i
        while j < len(line) and (line[j].isalnum() or line[j] == "_"):
            j += 1
        text = line[i:j]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        self.tokens.append(Token(kind, text, Span(lineno, i + 1, lineno, j + 1)))
        return j

    def _number(self, lineno: int, line: str, i: int) -> int:
        j = i
        while j < len(line) and line[j].isdigit():
            j += 1
        if j < len(line) and line[j] == "." and j + 1 < len(line) and line[j + 1].isdigit():
            j += 1
            while j < len(line) and line[j].isdigit():
                j += 1
        value = float(line[i:j])
        k, unit, factor = j, None, 1.0
        if j < len(line) and (line[j].isalpha() or line[j] == "_"):
            while k < len(line) and (line[k].isalnum() or line[k] == "_"):
                k += 1
            unit = line[j:k]
            if unit not in UNITS:
                raise _error(f"unknown unit suffix {unit!r}",
                             self.filename, lineno, j + 1)
            factor = UNITS[unit][0]
        # the checker folds literals, so one that overflows is a lex error
        if not math.isfinite(value * factor):
            raise _error("number literal is out of range",
                         self.filename, lineno, i + 1)
        kind = TokenKind.NUMBER if unit is None else TokenKind.QUANTITY
        self.tokens.append(Token(kind, line[i:k],
                                 Span(lineno, i + 1, lineno, k + 1),
                                 value=value, unit=unit))
        return k

    def _string(self, lineno: int, line: str, i: int) -> int:
        # no escape sequences: a string is everything up to the next quote
        j = line.find('"', i + 1)
        if j < 0:
            raise _error("unterminated string literal", self.filename, lineno, i + 1)
        self.tokens.append(Token(TokenKind.STRING, line[i + 1:j],
                                 Span(lineno, i + 1, lineno, j + 2)))
        return j + 1

    def _operator(self, lineno: int, line: str, i: int) -> int:
        two = line[i:i + 2]
        if two in TWO_CHAR_OPS:
            self.tokens.append(Token(TokenKind.OP, two,
                                     Span(lineno, i + 1, lineno, i + 3)))
            return i + 2
        ch = line[i]
        if ch not in ONE_CHAR_OPS:
            raise _error(f"unexpected character {ch!r}", self.filename, lineno, i + 1)
        if ch == "(":
            self.paren_depth += 1
        elif ch == ")":
            self.paren_depth = max(0, self.paren_depth - 1)
        self.tokens.append(Token(TokenKind.OP, ch,
                                 Span(lineno, i + 1, lineno, i + 2)))
        return i + 1


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Lex source text into a token list ending with EOF.

    Raises LexError (code L001) on bad indentation, unknown characters,
    unknown unit suffixes, literals whose SI value overflows a float, and
    unterminated strings.
    """
    return _Scanner(source, filename).run()
