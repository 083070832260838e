"""Lexer tests: layout tokens, literals, spans, and failure modes."""

import math
import string
from collections import namedtuple
from dataclasses import dataclass, field

import pytest
from hypothesis import example, given, settings, strategies as st

from osc2c.diagnostics import ERROR, Diagnostic, Span
from osc2c.lexer import KEYWORDS, LexError, TokenKind, tokenize
from osc2c.units import UNITS

# The fields of the lexer's token tuples, named for the assertions below.
Tok = namedtuple("Tok", "kind text line col end_col value unit")


def lex(source, filename="<string>"):
    return [Tok(*t) for t in tokenize(source, filename)]


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [(t.kind, t.text) for t in tokens
            if t.kind not in (TokenKind.NEWLINE, TokenKind.EOF)]


class TestBasics:
    def test_simple_line(self):
        toks = lex("var v_hero: speed = 35kph\n")
        assert texts(toks) == [
            (TokenKind.KEYWORD, "var"),
            (TokenKind.IDENT, "v_hero"),
            (TokenKind.OP, ":"),
            (TokenKind.IDENT, "speed"),
            (TokenKind.OP, "="),
            (TokenKind.QUANTITY, "35kph"),
        ]
        assert toks[-2].kind == TokenKind.NEWLINE
        assert toks[-1].kind == TokenKind.EOF

    def test_keywords_lex_as_keywords(self):
        for word in sorted(KEYWORDS):
            tok = lex(word)[0]
            assert tok.kind == TokenKind.KEYWORD, word

    def test_one_of_is_single_token(self):
        toks = lex("one_of:")
        assert toks[0] == (TokenKind.KEYWORD, "one_of", 1, 1, 7, None, None)

    def test_comment_and_blank_lines(self):
        toks = lex("# header\n\n   \nwait @go_signal  # trailing\n")
        assert kinds(toks) == [TokenKind.KEYWORD, TokenKind.OP,
                               TokenKind.IDENT, TokenKind.NEWLINE, TokenKind.EOF]

    def test_string_literal(self):
        toks = lex('keep(it.model == "vehicle.tesla.model3")')
        strings = [t for t in toks if t.kind == TokenKind.STRING]
        assert len(strings) == 1
        assert strings[0].text == "vehicle.tesla.model3"

    def test_comma_string(self):
        toks = lex('keep(it.color == "0,128,0")')
        strings = [t for t in toks if t.kind == TokenKind.STRING]
        assert strings[0].text == "0,128,0"


class TestQuantities:
    def test_quantity_value_and_unit(self):
        tok = lex("35kph")[0]
        assert tok.kind == TokenKind.QUANTITY
        assert tok.value == 35.0
        assert tok.unit == "kph"

    def test_fractional_quantity(self):
        tok = lex("0.5s")[0]
        assert tok.value == 0.5
        assert tok.unit == "s"

    def test_negative_is_minus_then_quantity(self):
        toks = lex("-1.57rad")
        assert (toks[0].kind, toks[0].text) == (TokenKind.OP, "-")
        assert toks[1].kind == TokenKind.QUANTITY
        assert toks[1].value == 1.57
        assert toks[1].unit == "rad"

    def test_bare_number(self):
        tok = lex("478.93")[0]
        assert tok.kind == TokenKind.NUMBER
        assert tok.value == 478.93

    def test_unknown_unit_suffix(self):
        with pytest.raises(LexError) as exc:
            lex("35parsecs")
        assert "L001" in str(exc.value)
        assert exc.value.diagnostic.span.col == 3


class TestLayout:
    def test_indent_dedent_pairing(self):
        source = (
            "scenario s:\n"
            "  do serial:\n"
            "    wait elapsed(1s)\n"
            "    emit DONE\n"
        )
        ks = kinds(lex(source))
        assert ks.count(TokenKind.INDENT) == 2
        assert ks.count(TokenKind.DEDENT) == 2

    def test_dedent_to_outer_level(self):
        source = (
            "a:\n"
            "  b:\n"
            "    c\n"
            "  d\n"
            "e\n"
        )
        ks = kinds(lex(source))
        assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT) == 2
        # d comes after exactly one DEDENT, e after the second
        names = [(k, t.text) for k, t in zip(ks, lex(source))]
        d_idx = next(i for i, (k, s) in enumerate(names) if s == "d")
        assert names[d_idx - 1][0] == TokenKind.DEDENT

    def test_tab_expands_to_eight(self):
        spaces = lex("a:\n        b\n")
        tabs = lex("a:\n\tb\n")
        assert kinds(spaces) == kinds(tabs)

    def test_bad_dedent(self):
        with pytest.raises(LexError) as exc:
            lex("a:\n    b\n  c\n")
        assert "unindent" in str(exc.value)

    def test_eof_closes_open_blocks(self):
        toks = lex("a:\n  b:\n    c")
        tail = kinds(toks)[-3:]
        assert tail == [TokenKind.DEDENT, TokenKind.DEDENT, TokenKind.EOF]

    def test_paren_suppresses_layout(self):
        source = "f(a: 1,\n   b: 2)\n"
        ks = kinds(lex(source))
        assert TokenKind.INDENT not in ks
        assert ks.count(TokenKind.NEWLINE) == 1


class TestSpans:
    def test_token_positions(self):
        toks = lex("wait elapsed(0.5s)")
        wait, elapsed, lparen, qty = toks[0], toks[1], toks[2], toks[3]
        assert (wait.line, wait.col, wait.end_col) == (1, 1, 5)
        assert (elapsed.col, elapsed.end_col) == (6, 13)
        assert lparen.col == 13
        assert (qty.col, qty.end_col) == (14, 18)

    def test_multiline_positions(self):
        toks = lex("a\nbb\n")
        idents = [t for t in toks if t.kind == TokenKind.IDENT]
        assert idents[0].line == 1
        assert idents[1].line == 2


class TestFailures:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc:
            lex("wait $now")
        assert "'$'" in str(exc.value)

    def test_unterminated_string(self):
        with pytest.raises(LexError) as exc:
            lex('keep(it.name == "hero')
        assert "unterminated" in str(exc.value)

    def test_literal_out_of_range(self):
        # the checker folds literals, so one that overflows fails here
        for source in ("9" * 400, "9" * 308 + "km"):
            with pytest.raises(LexError) as exc:
                lex(f"wait x < {source}")
            assert "L001" in str(exc.value)
            assert "out of range" in str(exc.value)
            assert exc.value.diagnostic.span.col == 10

    @pytest.mark.parametrize("source, col, char", [
        ("var x: length = \u00b2m", 17, "\u00b2"),    # superscript two
        ("var x: length = 3\u00b2", 18, "\u00b2"),
        ("var x: length = 1\u0663m", 18, "\u0663"),   # Arabic-Indic three
        ("var x: length = 1.\u0663m", 19, "\u0663"),
    ])
    def test_number_digits_are_ascii(self, source, col, char):
        # "²" used to end in a ValueError from float(), and "1٣m" was 13m
        with pytest.raises(LexError) as exc:
            lex(source)
        diagnostic = exc.value.diagnostic
        assert diagnostic.code == "L001"
        assert diagnostic.message == f"unexpected character {char!r}"
        assert (diagnostic.span.line, diagnostic.span.col) == (1, col)

    def test_non_ascii_names_and_units(self):
        toks = lex("\u00e9t\u00e9\u00b2 x\u0663")
        assert [(t.kind, t.text) for t in toks[:2]] == [
            (TokenKind.IDENT, "\u00e9t\u00e9\u00b2"), (TokenKind.IDENT, "x\u0663")]
        with pytest.raises(LexError) as exc:
            lex("5\u00f1")
        assert exc.value.diagnostic.message == "unknown unit suffix '\u00f1'"
        with pytest.raises(LexError) as exc:
            lex("a \u00bd")
        assert exc.value.diagnostic.message == "unexpected character '\u00bd'"

    def test_error_rendering(self):
        with pytest.raises(LexError) as exc:
            lex("a ?", filename="bad.osc")
        assert str(exc.value).startswith("bad.osc:1:3: error[L001]:")


printable = st.text(alphabet=string.printable, max_size=300)


class TestProperties:
    @given(source=printable)
    def test_lexer_total(self, source):
        # any input either lexes or fails with LexError, never anything else
        try:
            toks = lex(source)
        except LexError:
            return
        assert toks[-1].kind == TokenKind.EOF
        ks = kinds(toks)
        assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT)

    @given(depths=st.lists(st.integers(0, 6), min_size=1, max_size=20))
    def test_monotone_blocks_balance(self, depths):
        # build a program whose indentation walks the given depth profile
        lines = []
        level = 0
        for d in depths:
            d = min(d, level + 1)  # indentation can only deepen one step
            lines.append("  " * d + "x:")
            level = d
        toks = lex("\n".join(lines) + "\n")
        ks = kinds(toks)
        assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT)


# The scanner this lexer replaced, kept as the reference for the
# differential property below: it walked each line one character at a time.

def _old_error(message, filename, line, col):
    return LexError(Diagnostic(ERROR, "L001", message, Span.point(line, col), filename))


def _old_indent_width(line):
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
class _OldToken:
    kind: TokenKind
    text: str
    span: Span
    value: float | None = None
    unit: str | None = None


@dataclass
class _OldScanner:
    source: str
    filename: str
    tokens: list = field(default_factory=list)
    indents: list = field(default_factory=lambda: [0])
    paren_depth: int = 0

    def run(self):
        lineno = 0
        for lineno, raw in enumerate(self.source.splitlines(), start=1):
            self._scan_line(lineno, raw)
        end = Span.point(lineno + 1, 1)
        while len(self.indents) > 1:
            self.indents.pop()
            self.tokens.append(_OldToken(TokenKind.DEDENT, "", end))
        self.tokens.append(_OldToken(TokenKind.EOF, "", end))
        return self.tokens

    def _scan_line(self, lineno, line):
        i = 0
        while i < len(line) and line[i] in " \t":
            i += 1
        if i >= len(line) or line[i] == "#":
            return
        if self.paren_depth == 0:
            self._layout(lineno, _old_indent_width(line))
        produced = self._scan_tokens(lineno, line, i)
        if self.paren_depth == 0 and produced:
            self.tokens.append(_OldToken(TokenKind.NEWLINE, "",
                                     Span.point(lineno, len(line) + 1)))

    def _layout(self, lineno, width):
        span = Span.point(lineno, 1)
        if width > self.indents[-1]:
            self.indents.append(width)
            self.tokens.append(_OldToken(TokenKind.INDENT, "", span))
            return
        while width < self.indents[-1]:
            self.indents.pop()
            self.tokens.append(_OldToken(TokenKind.DEDENT, "", span))
        if width != self.indents[-1]:
            raise _old_error("unindent does not match any outer indentation level",
                             self.filename, lineno, 1)

    def _scan_tokens(self, lineno, line, i):
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

    def _ident(self, lineno, line, i):
        j = i
        while j < len(line) and (line[j].isalnum() or line[j] == "_"):
            j += 1
        text = line[i:j]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        self.tokens.append(_OldToken(kind, text, Span(lineno, i + 1, lineno, j + 1)))
        return j

    def _number(self, lineno, line, i):
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
                raise _old_error(f"unknown unit suffix {unit!r}",
                                 self.filename, lineno, j + 1)
            factor = UNITS[unit][0]
        if not math.isfinite(value * factor):
            raise _old_error("number literal is out of range",
                             self.filename, lineno, i + 1)
        kind = TokenKind.NUMBER if unit is None else TokenKind.QUANTITY
        self.tokens.append(_OldToken(kind, line[i:k], Span(lineno, i + 1, lineno, k + 1),
                                 value=value, unit=unit))
        return k

    def _string(self, lineno, line, i):
        j = line.find('"', i + 1)
        if j < 0:
            raise _old_error("unterminated string literal", self.filename, lineno, i + 1)
        self.tokens.append(_OldToken(TokenKind.STRING, line[i + 1:j],
                                 Span(lineno, i + 1, lineno, j + 2)))
        return j + 1

    def _operator(self, lineno, line, i):
        two = line[i:i + 2]
        if two in ("==", "!=", "<=", ">="):
            self.tokens.append(_OldToken(TokenKind.OP, two,
                                     Span(lineno, i + 1, lineno, i + 3)))
            return i + 2
        ch = line[i]
        if ch not in "()+-*/<>=:,.@":
            raise _old_error(f"unexpected character {ch!r}", self.filename, lineno, i + 1)
        if ch == "(":
            self.paren_depth += 1
        elif ch == ")":
            self.paren_depth = max(0, self.paren_depth - 1)
        self.tokens.append(_OldToken(TokenKind.OP, ch, Span(lineno, i + 1, lineno, i + 2)))
        return i + 1


def _fields(tokens):
    return [(t.kind, t.text, (t.span.line, t.span.col, t.span.end_line,
                              t.span.end_col), t.value, t.unit) for t in tokens]


def _tuple_fields(tokens):
    return [(kind, text, (line, col, line, end_col), value, unit)
            for kind, text, line, col, end_col, value, unit in tokens]


class _TracingScanner(_OldScanner):
    """The old scanner, noting where each number literal starts."""

    def __init__(self, source):
        super().__init__(source, "<string>")
        self.numbers = []

    def _number(self, lineno, line, i):
        self.numbers.append((lineno, i + 1))
        return super()._number(lineno, line, i)


def _old_outcome(source):
    """Token fields, the L001 diagnostic or ValueError; and the scanner."""
    scanner = _TracingScanner(source)
    try:
        return _fields(scanner.run()), scanner
    except LexError as exc:
        return exc.diagnostic, scanner
    except ValueError:  # float() rejected a digit such as "²"
        return ValueError, scanner


def _new_outcome(source):
    try:
        return _tuple_fields(tokenize(source))
    except LexError as exc:
        return exc.diagnostic


_FRAGMENT = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.tuples(st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,2})?", fullmatch=True),
              st.sampled_from(["", "", "kph", "m", "s", "ms", "rad", "mps",
                               "parsecs", "_u", "e5", "\u00f1"])).map("".join),
    st.sampled_from(["9" * 400, "9" * 308 + "km", "1e", "0.", ".5"]),
    st.tuples(st.just('"'), st.text(alphabet='ab #,.()\t\u00e9', max_size=5),
              st.sampled_from(['"', '"', ""])).map("".join),
    st.sampled_from(["==", "!=", "<=", ">=", *"()+-*/<>=:,.@", "!", "$", "?"]),
    st.sampled_from(["# note", "#", " ", "  ", "\t", "(", ")"]),
    st.sampled_from(["\u00e9", "\u00f1", "\u03a9", "\u00df", "\u4e00",  # letters
                     "\u00b2", "\u00bd", "\u0663", "\u216b", "\u00a0"]),  # others
)
_LINE = st.tuples(st.sampled_from(["", "", "  ", "    ", "\t", "  \t", " " * 8]),
                  st.lists(_FRAGMENT, max_size=8)).map(lambda p: p[0] + "".join(p[1]))
_SOURCE = st.lists(_LINE, min_size=1, max_size=8).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(source=_SOURCE)
@example(source="var x: length = \u00b2m")
@example(source="a:\n  f(1\u0663m,\n 2.5kph)  # wrapped\n\tb")
@example(source="9" * 400 + "\u0663and")
def test_matches_the_character_scanner(source):
    """The one-pattern scan gives the old scanner's tokens and errors.

    The one allowed difference: a non-ASCII digit where a number is.  The
    old scanner took any str.isdigit() character into a number, so "1٣m"
    was 13m and "²" ended in a ValueError; now the number stops before
    such a digit, which is an unexpected character, unless the ASCII
    digits before it are already out of range.
    """
    old, scanner = _old_outcome(source)
    new = _new_outcome(source)
    if old == new:
        return
    assert isinstance(new, Diagnostic) and new.code == "L001", (old, new)
    line, col = new.span.line, new.span.col
    text = source.splitlines()[line - 1]
    if new.message == "number literal is out of range":
        # the old scanner read on past the ASCII digits into a non-ASCII
        # one; then float() failed, or a later part of the literal did
        assert scanner.numbers[-1] == (line, col), (old, new)
        end = col - 1
        while end < len(text) and text[end] in "0123456789.":
            end += 1
        assert text[end:end + 1].isdigit() and not text[end].isascii(), (old, new)
        return
    char = text[col - 1]
    assert char.isdigit() and not char.isascii(), (old, new)
    assert new.message == f"unexpected character {char!r}"
    # the old scanner read that digit into the last number it began before it
    start = max(c for n, c in scanner.numbers if n == line and c <= col)
    assert all(c.isdigit() or c == "." for c in text[start - 1:col]), (old, new)
