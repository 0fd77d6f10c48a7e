"""The textual expression grammar: words, coefficients, and rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncindep import (
    AlgebraSignature,
    ExpressionError,
    Monomial,
    Polynomial,
    format_expression,
    format_word,
    normalize_word,
    parse_expression,
)
from ncindep.parsing import MAX_DIGITS, MAX_LETTERS, word_sort_key
from ncindep.rational import ONE, as_rational

E1 = AlgebraSignature("A1", True, (("x", 0), ("y", 0)))
E2 = AlgebraSignature("A2", True, (("b", 0),))
FACTORS = (E1, E2)


def parse(text):
    return parse_expression(text, FACTORS)


# ---------------------------------------------------------------------------
# grammar


def test_alternating_letters_build_three_blocks():
    poly = parse("A1.x A2.b A1.x")
    (word, coeff), = poly.items()
    assert coeff == ONE
    assert word.num_blocks == 3
    assert [f for f, _ in word.blocks] == [0, 1, 0]


def test_terms_carry_rational_coefficients():
    poly = parse("A1.x^2 * A2.b + 3/2 * A1.x")
    terms = dict(poly.items())
    assert len(terms) == 2
    squared = normalize_word([(0, Monomial(E1, ("x", "x"))), (1, Monomial(E2, ("b",)))])
    single = normalize_word([(0, Monomial(E1, ("x",)))])
    assert terms[squared] == ONE
    assert terms[single] == as_rational("3/2")


def test_same_factor_letters_merge_into_one_block():
    poly = parse("A1.x A1.y")
    (word, _), = poly.items()
    assert word.num_blocks == 1
    assert word.blocks[0][1].letters == ("x", "y")


def test_exponents_repeat_the_generator():
    poly = parse("A1.y^3")
    (word, _), = poly.items()
    assert word.blocks[0][1].letters == ("y", "y", "y")


def test_negative_and_fractional_coefficients():
    poly = parse("-2 * A1.x + 1/3 * A2.b")
    terms = dict(poly.items())
    assert terms[normalize_word([(0, Monomial(E1, ("x",)))])] == as_rational(-2)
    assert terms[normalize_word([(1, Monomial(E2, ("b",)))])] == as_rational("1/3")


def test_like_terms_collect():
    poly = parse("A1.x + A1.x")
    (word, coeff), = poly.items()
    assert coeff == as_rational(2)


def test_star_between_factors_is_optional():
    assert parse("A1.x * A2.b") == parse("A1.x A2.b")


# ---------------------------------------------------------------------------
# errors carry byte offsets


def expect_error(text, offset):
    with pytest.raises(ExpressionError) as caught:
        parse(text)
    assert caught.value.offset == offset
    assert "offset %d" % offset in str(caught.value)


def test_unknown_algebra_is_reported_at_its_position():
    expect_error("A9.x", 0)
    expect_error("A1.x + A9.x", 7)


def test_unknown_generator_is_reported_at_its_position():
    expect_error("A1.q", 3)


def test_zero_exponent_is_rejected():
    with pytest.raises(ExpressionError):
        parse("A1.x^0")


def test_zero_denominator_is_rejected():
    with pytest.raises(ExpressionError):
        parse("1/0 * A1.x")


def test_numbers_past_the_digit_bound_are_rejected_at_their_offset():
    long = "1" * (MAX_DIGITS + 1)
    expect_error(long + " * A1.x", 0)
    expect_error("-" + long + " * A1.x", 1)
    expect_error("2/" + long + " * A1.x", 2)
    # at the bound, and past it only by leading zeros, a number still parses
    top = "9" * MAX_DIGITS
    assert parse("0" + top + "/00" + top + " * A1.x") == parse("A1.x")
    assert parse("0" * 5000 + "3 * A1.x^" + "0" * 5000 + "2") == parse("3 * A1.x A1.x")


@pytest.mark.parametrize("text, offset", [("A1.x^\u00b2", 5), ("\u00b2*A1.x", 0), ("A1.x^1\u00b2", 6)],
                         ids=["exponent", "coefficient", "after-a-digit"])
def test_digits_that_are_not_decimal_are_rejected_at_their_offset(text, offset):
    """A superscript two is a digit to ``str.isdigit`` but not a number to
    ``int``; it is an unexpected character, not a bare ``ValueError``."""
    expect_error(text, offset)


def test_each_term_is_normalized_once(monkeypatch):
    """An expression of MAX_LETTERS alternating letters in four terms builds
    four words, one normalize_word call each, whatever the terms' length."""
    import ncindep.parsing as parsing

    calls = []

    def counted(blocks):
        calls.append(len(blocks))
        return normalize_word(blocks)

    monkeypatch.setattr(parsing, "normalize_word", counted)
    term = " ".join(["A1.x A2.b"] * (MAX_LETTERS // 8))
    other = "A1.y " + term[5:]
    poly = parse(" + ".join(["2 * " + term, other, "-1 * " + term, term]))
    assert calls == [MAX_LETTERS // 4] * 4
    assert sorted(poly.terms.values()) == [ONE, as_rational(2)]
    assert {word.num_blocks for word in poly.terms} == {MAX_LETTERS // 4}


def test_a_run_of_one_factor_is_merged_once(monkeypatch):
    """A thousand one-letter blocks of one factor make one merged Monomial,
    not one per merge, and a term of MAX_LETTERS letters of one factor
    parses to one block."""
    letter = Monomial(E1, ("x",))
    built = []
    check = Monomial.__post_init__

    def counted(self):
        built.append(self.letters)
        check(self)

    monkeypatch.setattr(Monomial, "__post_init__", counted)
    word = normalize_word([(0, letter)] * 1000)
    assert len(built) == 1
    monkeypatch.undo()
    assert word.blocks == ((0, Monomial(E1, ("x",) * 1000)),)
    poly = parse(" ".join(["A1.x"] * MAX_LETTERS))
    assert poly.terms == {normalize_word([(0, Monomial(E1, ("x",) * MAX_LETTERS))]): ONE}


def test_trailing_garbage_is_rejected():
    with pytest.raises(ExpressionError):
        parse("A1.x )")


def test_empty_input_is_rejected():
    with pytest.raises(ExpressionError):
        parse("")
    with pytest.raises(ExpressionError):
        parse("0")  # rendering of the zero polynomial, not valid input


@pytest.mark.parametrize("text, message, offset", [
    ("A1.x 3", "expected '+' or end of input", 5),
    ("-A1.x", "expected a number", 1),
    ("1/ * A1.x", "expected a denominator", 3),
    ("A1.+", "expected a generator name", 3),
    ("A1.x^", "expected an exponent", 5),
])
def test_malformed_terms_are_refused_at_their_offset(text, message, offset):
    with pytest.raises(ExpressionError) as caught:
        parse(text)
    assert caught.value.offset == offset
    assert str(caught.value) == "%s (at offset %d)" % (message, offset)


# ---------------------------------------------------------------------------
# rendering


def test_format_compresses_runs_into_exponents():
    word = normalize_word([(0, Monomial(E1, ("x", "x"))), (1, Monomial(E2, ("b",)))])
    assert format_word(word) == "A1.x^2 A2.b"


def test_format_leaves_mixed_runs_expanded():
    word = normalize_word([(0, Monomial(E1, ("x", "y", "y")))])
    assert format_word(word) == "A1.x A1.y^2"


def test_zero_polynomial_formats_as_zero():
    assert format_expression(Polynomial.zero()) == "0"


def test_unit_coefficients_are_omitted():
    word = normalize_word([(0, Monomial(E1, ("x",)))])
    assert format_expression(Polynomial.from_word(word)) == "A1.x"
    assert format_expression(Polynomial.from_word(word, as_rational("-1/2"))) == "-1/2 * A1.x"


def test_terms_are_emitted_in_sorted_word_order():
    long_word = normalize_word([(0, Monomial(E1, ("x",))), (1, Monomial(E2, ("b",)))])
    short_word = normalize_word([(1, Monomial(E2, ("b",)))])
    poly = Polynomial.from_word(long_word) + Polynomial.from_word(short_word)
    text = format_expression(poly)
    assert text.index("A2.b") < text.index("A1.x A2.b")
    assert word_sort_key(short_word) < word_sort_key(long_word)


# ---------------------------------------------------------------------------
# round-trip

letter_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=6
)
coeff_strategy = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda f: f != 0)


@given(st.lists(st.tuples(letter_strategy, coeff_strategy), min_size=1, max_size=3))
def test_print_then_parse_is_the_identity(raw_terms):
    gens = (("x", "y"), ("b", "b"))
    poly = Polynomial.zero()
    for letters, coeff in raw_terms:
        blocks = [
            (factor, Monomial(FACTORS[factor], (gens[factor][pick],)))
            for factor, pick in letters
        ]
        poly = poly + Polynomial.from_word(
            normalize_word(blocks), as_rational(str(coeff))
        )
    if not poly:
        return  # zero renders as "0", which is not an expression
    assert parse(format_expression(poly)) == poly
