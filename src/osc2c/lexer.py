"""Indentation-sensitive lexer for the scenario language.

Layout follows the Python model: leading whitespace opens and closes blocks
via synthetic INDENT/DEDENT tokens, tabs advance to the next multiple of 8,
and every DEDENT must land on an enclosing indentation level.  Newlines and
layout are suppressed inside parentheses so argument lists may wrap.

Within a line one compiled pattern, ``_TOKEN``, scans each token: a match
skips blanks, then takes a name, a number with its optional unit suffix, an
operator, a string, a comment, a name that starts with a non-ASCII
character, or else the single character that no token starts with.  Number
literals use the ASCII digits 0-9 only.

Quantity literals (``35kph``, ``-1.57rad`` minus the sign, ``0.5s``) are a
number immediately followed by a unit suffix; the suffix is validated here
against the unit table so a bad unit fails with a precise span.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from .diagnostics import ERROR, CompileError, Diagnostic, Span
from .units import UNITS

KEYWORDS = frozenset({
    "import", "use", "scenario", "var", "keep", "do",
    "serial", "parallel", "one_of", "wait", "emit",
    "rise", "fall", "elapsed", "with",
    "and", "or", "not",
})

# A name or unit starts with a letter or "_" and goes on with letters,
# digits and "_"; ``\w`` is exactly str.isalnum() or "_".  The ``word``
# group takes a name with a non-ASCII start, which the scanner accepts
# only if that first character is a letter.
_TOKEN = re.compile(r"""[ \t]*(?:
    (?P<name>[A-Za-z_]\w*)
  | (?P<number>[0-9]+(?:\.[0-9]+)?)(?P<unit>[^\W\d]\w*)?
  | (?P<op>[=!<>]=|[()+\-*/<>=:,.@])
  | "(?P<string>[^"]*)"
  | (?P<comment>\#)
  | (?P<word>[^\W\d]\w*)
  | (?P<other>[^ \t])
)""", re.VERBOSE)


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


@dataclass(slots=True)
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


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Lex source text into a token list ending with EOF.

    Raises LexError (code L001) on bad indentation, unknown characters,
    unknown unit suffixes, literals whose SI value overflows a float, and
    unterminated strings.
    """
    IDENT, KEYWORD, OP = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.OP
    match = _TOKEN.match
    tokens: list[Token] = []
    append = tokens.append
    indents = [0]
    parens = 0
    lineno = 0
    for lineno, line in enumerate(source.splitlines(), start=1):
        rest = line.lstrip(" \t")
        if not rest or rest[0] == "#":
            continue
        pos = len(line) - len(rest)
        if parens == 0:
            width = len(line[:pos].expandtabs(8))
            span = Span.point(lineno, 1)
            if width > indents[-1]:
                indents.append(width)
                append(Token(TokenKind.INDENT, "", span))
            while width < indents[-1]:
                indents.pop()
                append(Token(TokenKind.DEDENT, "", span))
            if width != indents[-1]:
                raise _error("unindent does not match any outer indentation level",
                             filename, lineno, 1)
        while (m := match(line, pos)) is not None:
            group = m.lastgroup
            pos = m.end()
            if group == "name" or group == "word" and m[group][0].isalpha():
                text = m[group]
                append(Token(KEYWORD if text in KEYWORDS else IDENT, text,
                             Span(lineno, pos - len(text) + 1, lineno, pos + 1)))
            elif group == "op":
                text = m[group]
                if text == "(":
                    parens += 1
                elif text == ")" and parens:
                    parens -= 1
                append(Token(OP, text, Span(lineno, pos - len(text) + 1, lineno, pos + 1)))
            elif group == "number" or group == "unit":
                start = m.start("number")
                value, unit, factor = float(m["number"]), m["unit"], 1.0
                if unit is not None:
                    if unit in UNITS:
                        factor = UNITS[unit][0]
                    elif unit[0].isalpha() or unit[0] == "_":
                        raise _error(f"unknown unit suffix {unit!r}",
                                     filename, lineno, m.start("unit") + 1)
                    else:  # a digit such as "²" is no unit; it fails next
                        unit, pos = None, m.start("unit")
                # the checker folds literals, so one that overflows is a lex error
                if not math.isfinite(value * factor):
                    raise _error("number literal is out of range",
                                 filename, lineno, start + 1)
                append(Token(TokenKind.NUMBER if unit is None else TokenKind.QUANTITY,
                             line[start:pos], Span(lineno, start + 1, lineno, pos + 1),
                             value, unit))
            elif group == "string":
                # no escape sequences: a string is everything up to the next quote
                append(Token(TokenKind.STRING, m[group],
                             Span(lineno, m.start(group), lineno, pos + 1)))
            elif group == "comment":
                break
            else:
                col = m.start(group) + 1
                if line[col - 1] == '"':
                    raise _error("unterminated string literal", filename, lineno, col)
                raise _error(f"unexpected character {line[col - 1]!r}",
                             filename, lineno, col)
        if parens == 0:
            append(Token(TokenKind.NEWLINE, "", Span.point(lineno, len(line) + 1)))
    end = Span.point(lineno + 1, 1)
    for _ in indents[1:]:
        append(Token(TokenKind.DEDENT, "", end))
    append(Token(TokenKind.EOF, "", end))
    return tokens
