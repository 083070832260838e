"""Lexer tests: layout tokens, literals, spans, and failure modes."""

import string

import pytest
from hypothesis import given, strategies as st

from osc2c.lexer import KEYWORDS, LexError, Token, TokenKind, tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [(t.kind, t.text) for t in tokens
            if t.kind not in (TokenKind.NEWLINE, TokenKind.EOF)]


class TestBasics:
    def test_simple_line(self):
        toks = tokenize("var v_hero: speed = 35kph\n")
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
            tok = tokenize(word)[0]
            assert tok.kind == TokenKind.KEYWORD, word

    def test_one_of_is_single_token(self):
        toks = tokenize("one_of:")
        assert toks[0] == Token(TokenKind.KEYWORD, "one_of", toks[0].span)

    def test_comment_and_blank_lines(self):
        toks = tokenize("# header\n\n   \nwait @go_signal  # trailing\n")
        assert kinds(toks) == [TokenKind.KEYWORD, TokenKind.OP,
                               TokenKind.IDENT, TokenKind.NEWLINE, TokenKind.EOF]

    def test_string_literal(self):
        toks = tokenize('keep(it.model == "vehicle.tesla.model3")')
        strings = [t for t in toks if t.kind == TokenKind.STRING]
        assert len(strings) == 1
        assert strings[0].text == "vehicle.tesla.model3"

    def test_comma_string(self):
        toks = tokenize('keep(it.color == "0,128,0")')
        strings = [t for t in toks if t.kind == TokenKind.STRING]
        assert strings[0].text == "0,128,0"


class TestQuantities:
    def test_quantity_value_and_unit(self):
        tok = tokenize("35kph")[0]
        assert tok.kind == TokenKind.QUANTITY
        assert tok.value == 35.0
        assert tok.unit == "kph"

    def test_fractional_quantity(self):
        tok = tokenize("0.5s")[0]
        assert tok.value == 0.5
        assert tok.unit == "s"

    def test_negative_is_minus_then_quantity(self):
        toks = tokenize("-1.57rad")
        assert (toks[0].kind, toks[0].text) == (TokenKind.OP, "-")
        assert toks[1].kind == TokenKind.QUANTITY
        assert toks[1].value == 1.57
        assert toks[1].unit == "rad"

    def test_bare_number(self):
        tok = tokenize("478.93")[0]
        assert tok.kind == TokenKind.NUMBER
        assert tok.value == 478.93

    def test_unknown_unit_suffix(self):
        with pytest.raises(LexError) as exc:
            tokenize("35parsecs")
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
        ks = kinds(tokenize(source))
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
        ks = kinds(tokenize(source))
        assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT) == 2
        # d comes after exactly one DEDENT, e after the second
        names = [(k, t.text) for k, t in zip(ks, tokenize(source))]
        d_idx = next(i for i, (k, s) in enumerate(names) if s == "d")
        assert names[d_idx - 1][0] == TokenKind.DEDENT

    def test_tab_expands_to_eight(self):
        spaces = tokenize("a:\n        b\n")
        tabs = tokenize("a:\n\tb\n")
        assert kinds(spaces) == kinds(tabs)

    def test_bad_dedent(self):
        with pytest.raises(LexError) as exc:
            tokenize("a:\n    b\n  c\n")
        assert "unindent" in str(exc.value)

    def test_eof_closes_open_blocks(self):
        toks = tokenize("a:\n  b:\n    c")
        tail = kinds(toks)[-3:]
        assert tail == [TokenKind.DEDENT, TokenKind.DEDENT, TokenKind.EOF]

    def test_paren_suppresses_layout(self):
        source = "f(a: 1,\n   b: 2)\n"
        ks = kinds(tokenize(source))
        assert TokenKind.INDENT not in ks
        assert ks.count(TokenKind.NEWLINE) == 1


class TestSpans:
    def test_token_positions(self):
        toks = tokenize("wait elapsed(0.5s)")
        wait, elapsed, lparen, qty = toks[0], toks[1], toks[2], toks[3]
        assert (wait.span.line, wait.span.col, wait.span.end_col) == (1, 1, 5)
        assert (elapsed.span.col, elapsed.span.end_col) == (6, 13)
        assert lparen.span.col == 13
        assert (qty.span.col, qty.span.end_col) == (14, 18)

    def test_multiline_positions(self):
        toks = tokenize("a\nbb\n")
        idents = [t for t in toks if t.kind == TokenKind.IDENT]
        assert idents[0].span.line == 1
        assert idents[1].span.line == 2


class TestFailures:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("wait $now")
        assert "'$'" in str(exc.value)

    def test_unterminated_string(self):
        with pytest.raises(LexError) as exc:
            tokenize('keep(it.name == "hero')
        assert "unterminated" in str(exc.value)

    def test_literal_out_of_range(self):
        # the checker folds literals, so one that overflows fails here
        for source in ("9" * 400, "9" * 308 + "km"):
            with pytest.raises(LexError) as exc:
                tokenize(f"wait x < {source}")
            assert "L001" in str(exc.value)
            assert "out of range" in str(exc.value)
            assert exc.value.diagnostic.span.col == 10

    def test_error_rendering(self):
        with pytest.raises(LexError) as exc:
            tokenize("a ?", filename="bad.osc")
        assert str(exc.value).startswith("bad.osc:1:3: error[L001]:")


printable = st.text(alphabet=string.printable, max_size=300)


class TestProperties:
    @given(source=printable)
    def test_lexer_total(self, source):
        # any input either lexes or fails with LexError, never anything else
        try:
            toks = tokenize(source)
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
        toks = tokenize("\n".join(lines) + "\n")
        ks = kinds(toks)
        assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT)
