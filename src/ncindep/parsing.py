"""Expression syntax for words and polynomials over tagged generators.

Grammar (whitespace-insensitive)::

    expr   := term ('+' term)*
    term   := [coeff '*'] factor (['*'] factor)*
    coeff  := ['-'] int ['/' posint]
    factor := algebra '.' generator ['^' posint]

Juxtaposed factors multiply in written order and nothing commutes, so
``A1.x A2.b A1.x`` is a three-block word while ``A1.x A1.y`` collapses to
the single block x*y.  Coefficients must be followed by ``*``; there are no
constant terms, since every term names at least one generator.  An
expression has at most MAX_LETTERS letters over all its terms, and a
number at most MAX_DIGITS digits.
"""

from __future__ import annotations

from .algebra import Monomial, Polynomial, Word, normalize_word, word_sort_key
from .errors import ExpressionError
from .rational import ONE, Rational, as_rational, format_rational

_NUMBER, _IDENT, _SYMBOL, _END = "number", "identifier", "symbol", "end of input"

# The most letters an expression may have, counted before they are built.
# A state document total to degree D over one generator spells out
# D * (D + 1) / 2 letters in its keys, so no document holds a degree near
# this bound.
MAX_LETTERS = 100_000

# The most digits a number may have, leading zeros aside: the interpreter's
# default bound on converting a decimal string to an int, so every
# coefficient that format_expression can print parses back.
MAX_DIGITS = 4300


def _tokenize(text):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < size and text[pos].isdecimal():
                pos += 1
            tokens.append((_NUMBER, text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < size and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append((_IDENT, text[start:pos], start))
            continue
        if ch in "+*/^.-":
            tokens.append((_SYMBOL, ch, pos))
            pos += 1
            continue
        raise ExpressionError("unexpected character %r" % ch, pos)
    tokens.append((_END, "", size))
    return tokens


def _integer(text, offset) -> int:
    """The value of a number token, rejected past MAX_DIGITS digits."""
    digits = text.lstrip("0")
    if len(digits) > MAX_DIGITS:
        raise ExpressionError("a number may have at most %d digits" % MAX_DIGITS, offset)
    return int(digits or "0")


class _Parser:
    def __init__(self, text, factors):
        self.tokens = _tokenize(text)
        self.index = 0
        self.letters = 0
        self.factors = tuple(factors)
        self.by_name = {sig.name: (i, sig) for i, sig in enumerate(self.factors)}
        if len(self.by_name) != len(self.factors):
            raise ValueError("two factors share an algebra name, so one cannot be addressed")

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_symbol(self, symbol):
        kind, value, offset = self.peek()
        if kind != _SYMBOL or value != symbol:
            raise ExpressionError("expected %r" % symbol, offset)
        return self.advance()

    def parse(self) -> Polynomial:
        terms = [self.term()]
        while True:
            kind, value, offset = self.peek()
            if kind == _END:
                return Polynomial(terms)
            if kind == _SYMBOL and value == "+":
                self.advance()
                terms.append(self.term())
                continue
            raise ExpressionError("expected '+' or end of input", offset)

    def term(self):
        """A term as a (word, coefficient) pair, its blocks normalized once."""
        coeff = ONE
        kind, value, _ = self.peek()
        if kind == _NUMBER or (kind == _SYMBOL and value == "-"):
            coeff = self.coefficient()
            self.expect_symbol("*")
        blocks = [self.factor_block()]
        while True:
            kind, value, offset = self.peek()
            if kind == _SYMBOL and value == "*":
                self.advance()
                blocks.append(self.factor_block())
            elif kind == _IDENT:
                blocks.append(self.factor_block())
            else:
                break
        return normalize_word(blocks), coeff

    def coefficient(self) -> Rational:
        negative = False
        kind, value, offset = self.peek()
        if kind == _SYMBOL and value == "-":
            negative = True
            self.advance()
        kind, value, offset = self.peek()
        if kind != _NUMBER:
            raise ExpressionError("expected a number", offset)
        self.advance()
        result = as_rational(_integer(value, offset))
        kind, value, _ = self.peek()
        if kind == _SYMBOL and value == "/":
            self.advance()
            kind, value, offset = self.peek()
            if kind != _NUMBER:
                raise ExpressionError("expected a denominator", offset)
            self.advance()
            denominator = _integer(value, offset)
            if denominator == 0:
                raise ExpressionError("denominator must be positive", offset)
            result = result / as_rational(denominator)
        return -result if negative else result

    def factor_block(self):
        kind, name, offset = self.peek()
        if kind != _IDENT:
            raise ExpressionError("expected an algebra name", offset)
        self.advance()
        entry = self.by_name.get(name)
        if entry is None:
            raise ExpressionError("unknown algebra %r" % name, offset)
        index, signature = entry
        self.expect_symbol(".")
        kind, generator, offset = self.peek()
        if kind != _IDENT:
            raise ExpressionError("expected a generator name", offset)
        self.advance()
        if generator not in signature.generator_names:
            raise ExpressionError(
                "algebra %r has no generator %r" % (name, generator), offset
            )
        power = 1
        kind, value, _ = self.peek()
        if kind == _SYMBOL and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != _NUMBER:
                raise ExpressionError("expected an exponent", offset)
            self.advance()
            power = _integer(value, offset)
            if power < 1:
                raise ExpressionError("exponent must be at least 1", offset)
        self.letters += power
        if self.letters > MAX_LETTERS:
            raise ExpressionError("an expression may have at most %d letters" % MAX_LETTERS, offset)
        return index, Monomial(signature, (generator,) * power)


def parse_expression(text: str, factors) -> Polynomial:
    """Parse an expression over the given factor signatures (in order; the
    position of a signature is its factor index in evaluated words).  The
    signatures' names must differ, since an expression names a factor by
    its algebra; a repeated name raises ``ValueError``."""
    return _Parser(text, factors).parse()


def format_word(word: Word) -> str:
    """Render a word in re-parseable form, compressing letter runs."""
    pieces = []
    for factor, monomial in word.blocks:
        name = monomial.algebra.name
        run_letter = None
        run = 0
        for letter in monomial.letters + (None,):
            if letter == run_letter:
                run += 1
                continue
            if run_letter is not None:
                pieces.append(
                    "%s.%s" % (name, run_letter) if run == 1
                    else "%s.%s^%d" % (name, run_letter, run)
                )
            run_letter = letter
            run = 1
    return " ".join(pieces)


def format_expression(polynomial: Polynomial) -> str:
    """Render a polynomial so that parsing it back yields the same value.

    The zero polynomial renders as ``"0"``, which is not itself a valid
    expression; callers that need round-trips must special-case it.
    """
    if not polynomial:
        return "0"
    parts = []
    for word in sorted(polynomial.terms, key=word_sort_key):
        coeff = polynomial.terms[word]
        rendered = format_word(word)
        if coeff == ONE:
            parts.append(rendered)
        else:
            parts.append("%s * %s" % (format_rational(coeff), rendered))
    return " + ".join(parts)
