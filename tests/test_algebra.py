"""Words, normal forms, homomorphisms, and Z2 degrees."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncindep import (
    AlgebraSignature,
    EMPTY_WORD,
    Homomorphism,
    MomentFunctional,
    Monomial,
    Polynomial,
    ProductKind,
    QDeformed,
    RegimeMismatch,
    Word,
    all_monomials,
    apply_homomorphism,
    concat_words,
    enumerate_words,
    format_expression,
    gen_random_homomorphism,
    normalize_word,
    parse_expression,
    single_block_word,
    word_degree,
)
from ncindep.algebra import _image_terms, _regroup, _words
from ncindep.rational import as_rational
from conftest import A1, A2, A3, G1, G2, N1, N2, mono


def blocks(*pairs):
    """Raw (factor, monomial) pairs from (factor, "letters") shorthand."""
    algebras = (A1, A2)
    return [(f, mono(algebras[f], text)) for f, text in pairs]


# ---------------------------------------------------------------------------
# normalization


def test_same_factor_blocks_merge():
    w = normalize_word(blocks((0, "a"), (0, "b"), (1, "x")))
    assert w.blocks == tuple(blocks((0, "a b"), (1, "x")))
    assert w.num_blocks == 2


def test_unit_blocks_are_identified_away():
    w = normalize_word(blocks((0, ""), (1, "x")))
    assert w == normalize_word(blocks((1, "x")))
    assert w.num_blocks == 1


def test_alternating_input_is_unchanged():
    raw = blocks((0, "a"), (1, "x"), (0, "b"))
    w = normalize_word(raw)
    assert w.blocks == tuple(raw)
    assert w.num_blocks == 3


def test_all_units_normalize_to_the_empty_word():
    assert normalize_word(blocks((0, ""), (1, ""))) == EMPTY_WORD
    assert normalize_word([]) == EMPTY_WORD


def test_word_constructor_requires_normal_form():
    with pytest.raises(ValueError):
        Word(tuple(blocks((0, "a"), (0, "b"))))  # adjacent same factor
    with pytest.raises(ValueError):
        Word(((0, mono(A1, "")),))  # unit block
    with pytest.raises(ValueError):
        Word(((-1, mono(A1, "a")),))


def test_empty_monomial_needs_a_unital_algebra():
    with pytest.raises(RegimeMismatch):
        Monomial(N1, ())


raw_blocks = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.lists(st.sampled_from("ab"), max_size=3),
    ),
    max_size=6,
)


def realize(items):
    algebras = (A1, A2)
    gens = (("a", "b"), ("x", "y"))
    out = []
    for factor, letters in items:
        names = tuple(gens[factor]["ab".index(c)] for c in letters)
        out.append((factor, Monomial(algebras[factor], names)))
    return out


@given(raw_blocks)
def test_normalize_is_idempotent(items):
    w = normalize_word(realize(items))
    assert normalize_word(w.blocks) == w


@given(raw_blocks, st.integers(min_value=0, max_value=64))
def test_normalize_ignores_bracketing(items, cut_seed):
    """Any split of the raw sequence, normalized piecewise then joined,
    gives the same word as one-shot normalization."""
    raw = realize(items)
    cut = cut_seed % (len(raw) + 1)
    left = normalize_word(raw[:cut])
    right = normalize_word(raw[cut:])
    assert concat_words(left, right) == normalize_word(raw)


@given(raw_blocks, raw_blocks)
def test_concat_matches_raw_concatenation(first, second):
    a, b = realize(first), realize(second)
    assert concat_words(normalize_word(a), normalize_word(b)) == normalize_word(a + b)


@pytest.mark.parametrize("group", [(0, 0, 1), (0, 1, 1), (0, 1, 0)])
def test_regroup_merges_the_blocks_that_meet_in_one_group(group):
    """A bare word moved onto groups of its factors is the normal form of
    its letters, each on its factor's group: neighbours that land in one
    group share one block."""
    for word in _words((A1, A2, A3), 4):
        letters = [(group[factor], letter) for factor, run in word for letter in run]
        expected = tuple((g, tuple(letter for _, letter in run))
                         for g, run in itertools.groupby(letters, lambda pair: pair[0]))
        assert _regroup(word, group) == expected, word


# ---------------------------------------------------------------------------
# degrees


def test_degree_of_two_odd_letters_is_even():
    assert word_degree(normalize_word([(0, mono(G1, "a")), (0, mono(G1, "a"))])) == 0


def test_degree_of_one_odd_letter_is_odd():
    assert word_degree(Word(((0, mono(G1, "a")),))) == 1


def test_empty_word_is_even():
    assert word_degree(EMPTY_WORD) == 0


def test_monomial_degree_accumulates_mod_2():
    assert mono(G1, "a b a").degree == 0
    assert mono(G1, "a b").degree == 1
    assert mono(G1, "").degree == 0


def test_unknown_generator_is_rejected():
    with pytest.raises(ValueError):
        Monomial(A1, ("zz",))


# ---------------------------------------------------------------------------
# homomorphisms


def test_identity_substitution():
    h1 = Homomorphism.identity(A1)
    h2 = Homomorphism.identity(A2)
    w = normalize_word(blocks((0, "a"), (1, "x")))
    assert apply_homomorphism((h1, h2), w) == Polynomial.from_word(w)


def test_squaring_substitution():
    h1 = Homomorphism(A1, A1, {"a": Polynomial.from_monomial(mono(A1, "a a")), "b": Polynomial.from_monomial(mono(A1, "b"))})
    h2 = Homomorphism.identity(A2)
    w = normalize_word(blocks((0, "a"), (1, "x"), (0, "a")))
    got = apply_homomorphism((h1, h2), w)
    assert got == Polynomial.from_word(normalize_word(blocks((0, "a a"), (1, "x"), (0, "a a"))))


def test_sum_substitution_distributes():
    image = Polynomial.from_monomial(mono(A1, "a")) + Polynomial.from_monomial(mono(A1, "b"))
    h1 = Homomorphism(A1, A1, {"a": image, "b": Polynomial.from_monomial(mono(A1, "b"))})
    h2 = Homomorphism.identity(A2)
    w = normalize_word(blocks((0, "a"), (1, "x")))
    got = apply_homomorphism((h1, h2), w)
    want = Polynomial.from_word(normalize_word(blocks((0, "a"), (1, "x")))) + Polynomial.from_word(
        normalize_word(blocks((0, "b"), (1, "x")))
    )
    assert got == want


def test_non_unital_images_have_no_unit_term():
    with_unit = Polynomial.from_monomial(mono(N1, "a")) + Polynomial.from_word(EMPTY_WORD)
    with pytest.raises(RegimeMismatch):
        Homomorphism(N1, N1, {"a": with_unit, "b": Polynomial.from_monomial(mono(N1, "b"))})
    unital = Polynomial.from_monomial(mono(A1, "a")) + Polynomial.from_word(EMPTY_WORD)
    Homomorphism(A1, A1, {"a": unital, "b": Polynomial.from_monomial(mono(A1, "b"))})


@pytest.mark.parametrize("image", [
    Polynomial.from_monomial(mono(A1, "a"), 1),
    Polynomial.from_monomial(mono(A2, "x")),
    Polynomial.from_word(Word(((0, mono(A1, "a")), (1, mono(A1, "b"))))),
], ids=["factor-1", "other-algebra", "two-blocks"])
def test_images_lie_on_factor_0_over_the_target(image):
    """An image word is checked as a word over the target alone, and the
    error names the generator whose image it is."""
    with pytest.raises(ValueError, match="^image of 'a': "):
        Homomorphism(A1, A1, {"a": image, "b": Polynomial.from_monomial(mono(A1, "b"))})


@st.composite
def capped_block_pairs(draw, factor_one_letters=8):
    """Two raw block lists with at most ``factor_one_letters`` letters in
    factor-1 blocks between them.  Each such letter may map to x + y below,
    so the cap keeps an image at 2**factor_one_letters terms or fewer."""
    budget = factor_one_letters
    pair = []
    for _ in range(2):
        items = []
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            factor = draw(st.integers(min_value=0, max_value=1))
            cap = min(3, budget) if factor else 3
            letters = draw(st.lists(st.sampled_from("ab"), max_size=cap))
            budget -= len(letters) if factor else 0
            items.append((factor, letters))
        pair.append(items)
    return pair


@settings(max_examples=60)
@given(capped_block_pairs())
def test_homomorphisms_respect_concatenation(pair):
    first, second = pair
    h1 = Homomorphism(
        A1, A1,
        {"a": Polynomial.from_monomial(mono(A1, "b a")), "b": Polynomial.from_monomial(mono(A1, "b"))},
    )
    h2 = Homomorphism(
        A2, A2,
        {"x": Polynomial.from_monomial(mono(A2, "x")) + Polynomial.from_monomial(mono(A2, "y")),
         "y": Polynomial.from_monomial(mono(A2, "y"))},
    )
    wa = normalize_word(realize(first))
    wb = normalize_word(realize(second))
    joined = apply_homomorphism((h1, h2), concat_words(wa, wb))
    assert joined == apply_homomorphism((h1, h2), wa) * apply_homomorphism((h1, h2), wb)


def product_of_block_images(homomorphisms, word):
    """The route the bare expansion replaced: each block's image, the
    product of its letters' images, re-tagged onto the block's factor, and
    the block images multiplied in order under ``Polynomial.__mul__``."""
    result = Polynomial.from_word(EMPTY_WORD)
    for factor, monomial in word.blocks:
        image = Polynomial.from_word(EMPTY_WORD)
        for letter in monomial.letters:
            image = image * homomorphisms[factor].images[letter]
        result = result * Polynomial(
            (Word(((factor, w.blocks[0][1]),)) if w.blocks else EMPTY_WORD, c) for w, c in image.items()
        )
    return result


def poly(algebra, *terms):
    """A single-factor polynomial from (coefficient, "letters") pairs."""
    return Polynomial((single_block_word(0, mono(algebra, text)), c) for c, text in terms)


# Hand-made pairs: unital constants, which make blocks of one factor meet
# once a unit term drops out, and cancelling terms, (a + 1)(a - 1) = a a - 1
# and (x - 1)(x + 1) = x x - 1; odd images of odd generators of a graded
# algebra; and a non-unital pair.
HAND_MADE = (
    (Homomorphism(A1, A1, {"a": poly(A1, (1, "a"), (1, "")), "b": poly(A1, (1, "a"), (-1, ""))}),
     Homomorphism(A2, A2, {"x": poly(A2, (1, "x"), (-1, "")), "y": poly(A2, (3, ""))})),
    (Homomorphism(G1, G1, {"a": poly(G1, (1, "a b"), (-2, "b a")), "b": poly(G1, (1, "b b"), ("1/2", ""))}),
     Homomorphism(G2, G2, {"x": poly(G2, (1, "y x"), (1, "x")), "y": poly(G2, (-1, "y"), (1, "x x"))})),
    (Homomorphism(N1, N1, {"a": poly(N1, (1, "a"), (1, "b")), "b": poly(N1, (1, "b a"), (-1, "a b"))}),
     Homomorphism(N2, N2, {"x": poly(N2, (2, "x y")), "y": poly(N2, (1, "x"), (-1, "y"))})),
)


def test_homomorphisms_expand_as_products_of_block_images():
    """``apply_homomorphism``, its bare expansion and ``apply_monomial``
    equal the product of the re-tagged block images under
    ``Polynomial.__mul__``, on every word of up to four letters, for the
    hand-made pairs and for random pairs in each regime; the expansion
    holds no zero coefficient."""
    pairs = list(HAND_MADE)
    for unital, odd in ((True, 0), (False, 0), (True, 1)):
        sources = [AlgebraSignature.make(n, ((g, odd), h), unital=unital) for n, g, h in (("B1", "u", "v"), ("B2", "w", "z"))]
        targets = [AlgebraSignature.make(n, ((g, odd), h), unital=unital) for n, g, h in (("C1", "a", "b"), ("C2", "x", "y"))]
        for seed in range(3):
            rng = random.Random(seed)
            pairs.append(tuple(gen_random_homomorphism(s, t, rng) for s, t in zip(sources, targets)))
    for homomorphisms in pairs:
        signatures = [hom.source for hom in homomorphisms]
        for word in enumerate_words(signatures, 4):
            got = apply_homomorphism(homomorphisms, word)
            want = product_of_block_images(homomorphisms, word)
            assert got == want, word
            bare = _image_terms(homomorphisms, tuple((f, m.letters) for f, m in word.blocks), {})
            assert bare == {tuple((f, m.letters) for f, m in w.blocks): c for w, c in want.items()}, word
        for hom in homomorphisms:
            for monomial in all_monomials(hom.source, 3):
                want = Polynomial.from_word(EMPTY_WORD)
                for letter in monomial.letters:
                    want = want * hom.images[letter]
                assert hom.apply_monomial(monomial) == want, monomial
    # the a terms of (a + 1)(a - 1) cancel, and a y a's unit term joins a a
    a_b = normalize_word(blocks((0, "a b")))
    assert apply_homomorphism(HAND_MADE[0], a_b) == poly(A1, (1, "a a"), (-1, ""))
    a_y_a = normalize_word(blocks((0, "a"), (1, "y"), (0, "a")))
    assert apply_homomorphism(HAND_MADE[0], a_y_a) == poly(A1, (3, "a a"), (6, "a"), (3, ""))


def _image(algebra, text):
    return Polynomial.from_monomial(mono(algebra, text))


@pytest.mark.parametrize("call, error, message", [
    (lambda: AlgebraSignature.make("A", ("1x",)), ValueError, "generator name '1x' is not an identifier"),
    (lambda: Homomorphism(A1, N1, {"a": _image(N1, "a"), "b": _image(N1, "b")}),
     RegimeMismatch, "homomorphism crosses regimes: source unital=True, target unital=False"),
    (lambda: Homomorphism(A1, A1, {"a": _image(A1, "a")}), ValueError, "missing images for generators: ['b']"),
    (lambda: Homomorphism(A1, A1, {"a": _image(A1, "a"), "b": _image(A1, "b"), "c": _image(A1, "a")}),
     ValueError, "images given for unknown generators: ['c']"),
    (lambda: Homomorphism(G1, G1, {"a": _image(G1, "b"), "b": _image(G1, "b")}),
     ValueError, "image of 'a' is not homogeneous of degree 1"),
], ids=["generator-name", "crosses-regimes", "missing-image", "extra-image", "inhomogeneous-image"])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message


# ---------------------------------------------------------------------------
# polynomials


def test_polynomial_collects_like_words():
    w = normalize_word(blocks((0, "a"), (1, "x")))
    p = Polynomial.from_word(w) + Polynomial.from_word(w)
    assert p == Polynomial.from_word(w, 2)


def test_polynomial_zero_terms_drop():
    w = normalize_word(blocks((0, "a"),))
    assert Polynomial.from_word(w) - Polynomial.from_word(w) == Polynomial.zero()
    assert not (Polynomial.from_word(w) - Polynomial.from_word(w))


_POOL = [EMPTY_WORD] + [normalize_word(blocks(*pairs)) for pairs in (
    ((0, "a"),), ((1, "x"),), ((0, "a"), (1, "x")), ((1, "x"), (0, "a")), ((0, "a b"),),
)]
_TERMS = st.lists(
    st.tuples(st.sampled_from(_POOL), st.fractions(min_value=-2, max_value=2, max_denominator=2)),
    max_size=8,
)


def _summed(pairs):
    """The brute-force reference: summed coefficients, zeros dropped."""
    acc = {}
    for word, coeff in pairs:
        acc[word] = acc.get(word, 0) + coeff
    return {word: coeff for word, coeff in acc.items() if coeff}


@settings(max_examples=150, deadline=None)
@given(_TERMS, _TERMS, st.integers(-2, 2))
def test_polynomial_arithmetic_matches_a_brute_force_dict(first, second, k):
    p, q = Polynomial(first), Polynomial(second)
    assert p.terms == _summed(first) and Polynomial(dict(first)).terms == _summed(dict(first).items())
    assert (p + q).terms == _summed(first + second)
    assert (p - q).terms == _summed(first + [(w, -c) for w, c in second])
    assert p.scaled(k).terms == (k * p).terms == _summed((w, c * k) for w, c in first)
    assert (p * q).terms == _summed(
        (concat_words(w1, w2), c1 * c2) for w1, c1 in first for w2, c2 in second
    )


def test_polynomial_multiplication_concatenates_words():
    p = Polynomial.from_word(normalize_word(blocks((0, "a"),)))
    q = Polynomial.from_word(normalize_word(blocks((0, "b"), (1, "x"))))
    assert p * q == Polynomial.from_word(normalize_word(blocks((0, "a b"), (1, "x"))))


def test_polynomial_repr_lists_terms_in_the_format_order():
    """Two one-letter words over one factor tie on their letter count, so
    their order rests on their blocks, compared as format_expression
    compares them."""
    poly = parse_expression("A1.b + 2 * A1.a", [A1])
    assert format_expression(poly) == "2 * A1.a + A1.b"
    assert repr(poly) == "Polynomial(2 * Word(0:a) + 1 * Word(0:b))"


# ---------------------------------------------------------------------------
# strict constructors


@pytest.mark.parametrize("build", [
    lambda: AlgebraSignature("A", True, (("x", 1.7),)),
    lambda: AlgebraSignature("A", True, (("x", "1"),)),
    lambda: AlgebraSignature("A", True, (("x", True),)),
    lambda: AlgebraSignature("A", True, ((b"x", 0),)),
    lambda: AlgebraSignature(b"A", True, (("x", 0),)),
    lambda: AlgebraSignature("A", 1, (("x", 0),)),
    lambda: as_rational(True),
    lambda: MomentFunctional.from_entries(AlgebraSignature("A", False, (("x", 0),)), 1, {"x": True}),
    lambda: QDeformed(ProductKind.FREE, True),
    lambda: Word(((True, mono(A1, "a")),)),
    lambda: Word(((1.0, mono(A1, "a")),)),
    lambda: Word((("0", mono(A1, "a")),)),
    lambda: normalize_word([("1", mono(A1, "a")), (1, mono(A1, "a"))]),
    lambda: normalize_word([(1, mono(A1, "a")), (True, mono(A1, "b"))]),
    lambda: Monomial(A1, "ab"),
], ids=["degree-float", "degree-str", "degree-bool", "generator-bytes", "algebra-bytes",
        "unital-int", "rational-bool", "moment-bool", "q-bool", "word-factor-bool",
        "word-factor-float", "word-factor-str", "normalize-factor-str", "normalize-factor-bool",
        "monomial-str"])
def test_public_constructors_convert_nothing(build):
    """A degree, name, flag, value, factor index or letter sequence of the
    wrong type is refused, not converted: 1.7, "1" and True are no degree
    1, b"x" no name, True no rational, True, 1.0 and "0" no factor index,
    and "ab" no sequence of letters."""
    with pytest.raises((TypeError, ValueError)):
        build()
