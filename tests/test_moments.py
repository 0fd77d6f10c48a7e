"""Moment tables: evaluation, pullback, unitization, scaling, documents."""

import json
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncindep import (
    EMPTY_WORD,
    AlgebraSignature,
    DegreeExceeded,
    Homomorphism,
    MomentFunctional,
    Monomial,
    Polynomial,
    RegimeMismatch,
    StateDocumentError,
    Word,
    all_monomials,
    eval_functional,
    gen_random_homomorphism,
    gen_random_state,
    pullback,
    scale,
    state_from_json,
    state_to_json,
    unitize,
)
from ncindep.algebra import _canonical_letters
from ncindep.moments import MAX_TABLE_ENTRIES, _empty_table, _graded, dump_state, load_state, signature_to_json
from ncindep.rational import ONE, ZERO, as_rational
from conftest import A1, G1, N1, count_fills, count_reads, count_view_builds, mono, total_state

G3 = AlgebraSignature("A3", True, (("a", 1), ("b", 1), ("c", 0)))

X = AlgebraSignature("X", True, (("x", 0), ("y", 0)))
XN = AlgebraSignature("X", False, (("x", 0),))


def poly(monomial, coeff=1):
    return Polynomial.from_monomial(monomial, 0, as_rational(coeff))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_is_a_table_lookup():
    phi = total_state(X, 2, {"x": "1/2"})
    assert phi(mono(X, "x")) == as_rational("1/2")


def test_unital_functional_sends_unit_to_one():
    phi = total_state(X, 2)
    assert phi(mono(X, "")) == ONE
    assert eval_functional(phi, poly(mono(X, ""))) == ONE


def test_eval_functional_is_linear():
    phi = total_state(X, 1, {"x": "1/2", "y": "1/3"})
    p = poly(mono(X, "x"), 2) + poly(mono(X, "y"), 3)
    assert eval_functional(phi, p) == as_rational(2)


@pytest.mark.parametrize("blocks", [
    ((5, mono(X, "x")),),
    ((0, mono(A1, "a")),),
    ((0, mono(X, "x")), (1, mono(X, "y"))),
], ids=["factor-5", "other-algebra", "two-blocks"])
def test_eval_functional_values_only_words_on_its_factor(blocks):
    """A word off factor 0, over another algebra, or of two blocks is
    refused, not valued by its letters."""
    phi = total_state(X, 1, {"x": "1/2", "y": "1/3"})
    with pytest.raises(ValueError, match="factor"):
        eval_functional(phi, Polynomial.from_word(Word(blocks)))


def test_unknown_long_monomials_raise_not_zero():
    phi = total_state(X, 2)
    with pytest.raises(DegreeExceeded):
        phi(mono(X, "x x x"))
    assert phi(mono(X, "x x")) == ZERO  # within bound: a real entry


def test_moment_table_must_be_total():
    table = {Monomial(X, ()): ONE, Monomial(X, ("x",)): ONE}
    with pytest.raises(ValueError):
        MomentFunctional(X, 1, table)  # "y" missing


def test_a_table_missing_several_entries_names_the_first_in_canonical_order():
    table = {m: ONE for m in all_monomials(X, 3)}
    for text in ("y y x", "x y", "y x x"):
        del table[mono(X, text)]
    entries = list(table.items())
    random.Random(5).shuffle(entries)
    with pytest.raises(ValueError, match=r"^moment table is missing X\[x y\]$"):
        MomentFunctional(X, 3, dict(entries))


@pytest.mark.parametrize(
    "algebra,key,value,error,message",
    [
        (X, "x z", "1", ValueError, "bad moment key 'x z': unknown generator 'z'"),
        (X, ("x", "z"), "1", ValueError, "bad moment key ('x', 'z'): unknown generator 'z'"),
        (XN, "", "1", RegimeMismatch, "bad moment key '': empty monomial is illegal"),
        (X, "x y", "1/x", ValueError, "bad moment value for 'x y': not a rational literal"),
        (X, "y", 0.5, TypeError, "bad moment value for 'y': refusing to coerce float"),
    ],
)
def test_bad_keys_and_values_name_the_key(algebra, key, value, error, message):
    moments = {" ".join(letters): "0" for letters in _canonical_letters(algebra, 2)}
    if algebra.unital:
        moments[""] = "1"
    with pytest.raises(error, match="^" + re.escape(message)):
        MomentFunctional.from_entries(algebra, 2, {**moments, key: value})
    if isinstance(key, str) and not isinstance(value, float):  # what a JSON document can hold
        doc = {"algebra": signature_to_json(algebra), "max_degree": 2, "moments": {**moments, key: value}}
        with pytest.raises(StateDocumentError, match="^" + re.escape(message)):
            state_from_json(doc)


@pytest.mark.parametrize("first,second", [("x", " x "), ("x x", "x  x"), (("x",), "x")])
def test_two_keys_of_one_monomial_are_refused(first, second):
    """Two keys that spell one monomial are two values for one moment: the
    error names both keys, whichever value comes last."""
    moments = {" ".join(letters): "0" for letters in _canonical_letters(XN, 2)}
    moments.pop(first if isinstance(first, str) else " ".join(first))
    message = "moment keys %r and %r name one monomial" % (first, second)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        MomentFunctional.from_entries(XN, 2, {**moments, first: "1", second: "2"})
    if isinstance(first, str):
        doc = {"algebra": signature_to_json(XN), "max_degree": 2, "moments": {**moments, first: "1", second: "2"}}
        with pytest.raises(StateDocumentError, match="^" + re.escape(message) + "$"):
            state_from_json(doc)


def test_unit_entry_must_be_one():
    table = {m: ONE for m in all_monomials(X, 1)}
    table[Monomial(X, ())] = as_rational(2)
    with pytest.raises(ValueError):
        MomentFunctional(X, 1, table)


def test_non_unital_table_has_no_unit_entry():
    phi = total_state(XN, 2, {"x": 1})
    assert not phi.unital
    with pytest.raises(RegimeMismatch):
        eval_functional(phi, Polynomial.from_word((__import__("ncindep").EMPTY_WORD)))


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_linearity_in_random_coefficients(c1, c2):
    phi = total_state(X, 2, {"x": "1/2", "x x": "1/3", "y": "-2"})
    p1, p2 = poly(mono(X, "x")), poly(mono(X, "x x"))
    combined = eval_functional(phi, p1.scaled(as_rational(c1)) + p2.scaled(as_rational(c2)))
    assert combined == c1 * phi(mono(X, "x")) + c2 * phi(mono(X, "x x"))


# ---------------------------------------------------------------------------
# pullback


def test_pullback_along_identity_is_the_same_table():
    phi = total_state(X, 2, {"x": "1/2", "y": "1/3"})
    pulled = pullback(phi, Homomorphism.identity(X))
    assert pulled.table == phi.table


def test_pullback_along_squaring():
    single = AlgebraSignature("X", True, (("x", 0),))
    phi = total_state(single, 4, {"x x": 1, "x x x x": 3})
    h = Homomorphism(single, single, {"x": poly(Monomial(single, ("x", "x")))})
    pulled = pullback(phi, h)
    assert pulled.max_degree == 2
    assert pulled(Monomial(single, ("x",))) == ONE
    assert pulled(Monomial(single, ("x", "x"))) == as_rational(3)


def test_pullback_is_linear_in_images():
    phi = total_state(X, 1, {"x": "2/3", "y": "1/5"})
    h = Homomorphism(X, X, {"x": poly(mono(X, "x")) + poly(mono(X, "y")), "y": poly(mono(X, "y"))})
    pulled = pullback(phi, h)
    assert pulled(mono(X, "x")) == as_rational("2/3") + as_rational("1/5")


def test_pullback_is_contravariantly_functorial():
    single = AlgebraSignature("X", True, (("x", 0),))
    phi = total_state(single, 8, {("x",) * n: "1/%d" % n for n in range(1, 9)})
    j = Homomorphism(single, single, {"x": poly(Monomial(single, ("x", "x")))})
    k = Homomorphism(single, single, {"x": poly(Monomial(single, ("x", "x")))})
    twice = pullback(pullback(phi, j), k)
    # j o k sends x to x^4
    jk = Homomorphism(single, single, {"x": poly(Monomial(single, ("x",) * 4))})
    direct = pullback(phi, jk)
    assert twice.max_degree == direct.max_degree
    assert twice.table == direct.table


def test_pullback_degree_request_beyond_feasible_raises():
    single = AlgebraSignature("X", True, (("x", 0),))
    phi = total_state(single, 3, {"x": 1, "x x": 1, "x x x": 1})
    h = Homomorphism(single, single, {"x": poly(Monomial(single, ("x", "x")))})
    with pytest.raises(DegreeExceeded):
        pullback(phi, h, max_degree=2)


def test_a_huge_pullback_degree_raises_without_building_the_monomial():
    single = AlgebraSignature("X", True, (("x", 0),))
    phi = total_state(single, 3, {"x": 1})
    h = Homomorphism(single, single, {"x": poly(Monomial(single, ("x", "x")))})
    start = time.perf_counter()
    with pytest.raises(DegreeExceeded) as caught:
        pullback(phi, h, max_degree=10**9)
    assert time.perf_counter() - start < 1.0
    assert str(caught.value) == (
        "monomial X[x x x x x x x x ...] has length 1000000000, beyond the stored maximum degree 1"
    )
    assert caught.value.max_degree == 1


TABLE_REFUSAL = "exceeds %d entries" % MAX_TABLE_ENTRIES
LINE = AlgebraSignature("L", False, (("x", 0),))
PAIR = AlgebraSignature("P", False, (("a", 0), ("b", 0)))


def test_lazy_tables_are_bounded_by_their_entries():
    """A table of MAX_TABLE_ENTRIES entries is made, one more is refused,
    and a degree whose table Python could not size is refused at once."""
    assert len(_empty_table(LINE, MAX_TABLE_ENTRIES)) == MAX_TABLE_ENTRIES
    with pytest.raises(ValueError, match=TABLE_REFUSAL):
        _empty_table(LINE, MAX_TABLE_ENTRIES + 1)
    assert len(_empty_table(AlgebraSignature("E", True, ()), 10**9)) == 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="a table over 'P' up to degree 1000000000 " + TABLE_REFUSAL):
        _empty_table(PAIR, 10**9)
    assert time.perf_counter() - start < 1.0


def test_a_random_state_past_the_table_bound_draws_nothing():
    rng = random.Random(5)
    before = rng.getstate()
    with pytest.raises(ValueError, match=TABLE_REFUSAL):
        gen_random_state(PAIR, 20, rng)  # 2^21 - 2 entries
    assert rng.getstate() == before
    with pytest.raises(ValueError, match=TABLE_REFUSAL):  # before a graded algebra's parity flags
        gen_random_state(AlgebraSignature("G", False, (("a", 1), ("b", 0))), 25, 0)


def test_a_pullback_past_the_table_bound_is_refused():
    """Two source generators onto one: phi's 20 entries pull back to 2^21 - 2."""
    phi = total_state(LINE, 20, {("x",) * k: 1 for k in range(1, 21)})
    x = poly(Monomial(LINE, ("x",)))
    hom = Homomorphism(PAIR, LINE, {"a": x, "b": x})
    assert pullback(phi, hom, max_degree=19).max_degree == 19
    with pytest.raises(ValueError, match=TABLE_REFUSAL):
        pullback(phi, hom)


def test_pullback_along_constant_images_stays_under_the_target_bound():
    """Constant images have no letters to bound the degree by; the request
    is held to the target's own bound, which is also the default."""
    phi = total_state(X, 2, {"x": "1/2", "y": "1/3", "x y": 2})
    constants = {name: Polynomial.from_word(EMPTY_WORD, as_rational(c)) for name, c in (("x", 3), ("y", "-1/2"))}
    h = Homomorphism(X, X, constants)
    pulled = pullback(phi, h)
    assert pulled.max_degree == 2 and len(pulled.table) == 7
    assert pulled(mono(X, "x y")) == as_rational("-3/2")
    assert pullback(phi, h, max_degree=1).max_degree == 1
    for requested in (3, 14, 10**9):
        start = time.perf_counter()
        with pytest.raises(DegreeExceeded) as caught:
            pullback(phi, h, max_degree=requested)
        assert time.perf_counter() - start < 1.0
        assert caught.value.max_degree == 2


@pytest.mark.parametrize("call, message", [
    (lambda: MomentFunctional(X, -1, {}), "max_degree must be nonnegative"),
    (lambda: MomentFunctional(X, 2, {Monomial(A1, ("a",)): 1}), "table entry A1[a] is not over 'X'"),
    (lambda: MomentFunctional(X, 1, {Monomial(X, ()): 1, Monomial(X, ("x", "x")): 1}),
     "table entry X[x x] exceeds max_degree 1"),
    (lambda: pullback(total_state(X, 2), Homomorphism.identity(A1)),
     "homomorphism does not land in the functional's algebra"),
], ids=["negative-degree", "entry-over-another-algebra", "entry-past-the-bound", "pullback-elsewhere"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError and str(raised.value) == message


# ---------------------------------------------------------------------------
# trusted builds, gated by the validating constructor


def _trusted_builds():
    """Every state the library builds without validation: random draws in
    each regime, pullbacks, scalings and unitizations."""
    for signature in (A1, N1, G1):
        for seed in (3, 4):
            phi = gen_random_state(signature, 6, seed)
            yield phi
            source = AlgebraSignature("B", signature.unital, (("u", signature.generators[0][1]), ("v", 0)))
            yield pullback(phi, gen_random_homomorphism(source, signature, seed))
    plain = gen_random_state(N1, 5, 8)
    yield scale(plain, "-2/3")
    yield unitize(plain)
    yield unitize(scale(plain, 5))


def test_trusted_builds_pass_the_validating_constructor():
    for phi in _trusted_builds():
        checked = MomentFunctional(phi.algebra, phi.max_degree, phi.table)
        assert list(checked.letters_table.items()) == list(phi.letters_table.items()), phi
        assert checked.is_even == phi.is_even, phi
        assert phi.is_even == all(not value for m, value in checked.table.items() if m.degree), phi
        assert list(phi.table) == list(all_monomials(phi.algebra, phi.max_degree)), phi


def test_trusted_builds_reject_long_and_foreign_letters():
    """A lookup miss raises, and computes no entry of a state filled on read."""
    partial = 0  # states with entries not computed yet, where a miss could fill one
    for phi in _trusted_builds():
        name = phi.algebra.generator_names[0]
        computed = sum(value is not None for value in phi._dense)
        partial += computed < len(phi._dense)
        with pytest.raises(DegreeExceeded):
            phi.value_of_letters((name,) * (phi.max_degree + 1))
        with pytest.raises(ValueError):  # not KeyError
            phi.value_of_letters(("nope",))
        with pytest.raises(ValueError):
            phi(Monomial(AlgebraSignature("Other", phi.unital, phi.algebra.generators), (name,)))
        if not phi.unital:
            with pytest.raises(RegimeMismatch):
                phi.value_of_letters(())
        assert sum(value is not None for value in phi._dense) == computed, phi
    assert partial >= 8


# ---------------------------------------------------------------------------
# one list in canonical order, letter-keyed views built on first read


@st.composite
def validated_tables(draw):
    """A signature of 0-3 generators in either regime, a bound D in 0-5, and
    a complete table over it in canonical order, with small rational values."""
    width = draw(st.integers(0, 3))
    degrees = draw(st.lists(st.integers(0, 1), min_size=width, max_size=width))
    unital = draw(st.booleans())
    signature = AlgebraSignature("S", unital, tuple(("g%d" % i, d) for i, d in enumerate(degrees)))
    max_degree = draw(st.integers(0, 5))
    monomials = list(all_monomials(signature, max_degree))
    values = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    table = {m: ONE if m.is_unit else draw(values) for m in monomials}
    return signature, max_degree, table


@settings(max_examples=60, deadline=None)
@given(validated_tables(), st.randoms(use_true_random=False))
def test_dense_lookups_and_views_follow_the_canonical_order(case, rng):
    signature, max_degree, table = case
    phi = MomentFunctional(signature, max_degree, table)
    for monomial, value in table.items():
        assert phi.value_of_letters(monomial.letters) == value
        assert phi(monomial) == value
    shuffled = list(table.items())
    rng.shuffle(shuffled)
    for items in (shuffled, list(reversed(table.items()))):
        other = MomentFunctional(signature, max_degree, dict(items))
        assert list(other.table.items()) == list(table.items())
        assert list(other.letters_table.items()) == [(m.letters, v) for m, v in table.items()]
    with pytest.raises(ValueError):  # a foreign letter, not KeyError
        phi.value_of_letters(("nope",))
    if signature.generators:
        with pytest.raises(DegreeExceeded):
            phi.value_of_letters(signature.generator_names[:1] * (max_degree + 1))
    if not signature.unital:
        with pytest.raises(RegimeMismatch):
            phi.value_of_letters(())


def test_views_are_built_once_on_first_read(monkeypatch):
    builds = count_view_builds(monkeypatch)
    phi = gen_random_state(A1, 4, 11)
    assert phi(mono(A1, "a b")) == phi.value_of_letters(("a", "b"))
    assert builds == []  # lookups go to the list
    letters = phi.letters_table
    assert phi.letters_table is letters and builds == [(A1, 4)]
    table = phi.table
    assert phi.table is table and builds == [(A1, 4)]  # Monomial keys over the letter view
    assert list(table) == list(all_monomials(A1, 4))


def test_pullback_agrees_with_applying_the_homomorphism():
    """Read in canonical order, read in a shuffled order and then completed:
    every entry is phi on the monomial's image."""
    for signature in (A1, N1, G1):
        for seed in (5, 6, 7):
            phi = gen_random_state(signature, 8, seed)
            source = AlgebraSignature("B", signature.unital, (("u", signature.generators[0][1]), ("v", 0)))
            hom = gen_random_homomorphism(source, signature, seed, max_image_letters=2)
            pulled = pullback(phi, hom)
            monomials = list(all_monomials(source, pulled.max_degree))
            expected = [eval_functional(phi, hom.apply_monomial(monomial)) for monomial in monomials]
            for monomial, value in zip(monomials, expected):
                assert pulled(monomial) == value
            shuffled = pullback(phi, hom)
            order = list(zip(monomials, expected))
            random.Random(seed).shuffle(order)
            for monomial, value in order[: len(order) // 3]:
                assert shuffled.value_of_letters(monomial.letters) == value
            assert list(shuffled.letters_table.values()) == expected
            assert [shuffled(monomial) for monomial in monomials] == expected


def _partly_read_pullbacks():
    """Pairs of equal pullbacks of degree-8 states over each regime, the
    first with a few entries read, the second completed before any read."""
    for signature in (A1, N1, G1, G3):
        for seed in (8, 9):
            phi = gen_random_state(signature, 8, seed)
            degrees = tuple(degree for _, degree in signature.generators[:2])
            source = AlgebraSignature("B", signature.unital, (("u", degrees[0]), ("v", degrees[1])))
            hom = gen_random_homomorphism(source, signature, seed)
            partial, full = pullback(phi, hom), pullback(phi, hom)
            full._complete()
            for monomial in random.Random(seed).sample(list(all_monomials(source, partial.max_degree)), 5):
                partial(monomial)
            yield partial, full


def graded_by_lcm(phi):
    """phi_D with D the lcm of phi's denominators, so that every moment is an int."""
    return _graded(phi, math.lcm(*(value.denominator for value in phi.letters_table.values())))


@pytest.mark.parametrize("reader", [
    state_to_json,
    lambda phi: phi.is_even,
    lambda phi: state_to_json(graded_by_lcm(phi)),
    lambda phi: state_to_json(unitize(phi)) if not phi.unital else None,
    lambda phi: state_to_json(scale(phi, "-3/5")) if not phi.unital else None,
    lambda phi: state_to_json(pullback(phi, Homomorphism.identity(phi.algebra))),
], ids=["document", "is_even", "graded", "unitize", "scale", "pullback"])
def test_partly_read_pullbacks_read_whole_as_complete_ones(reader):
    for partial, full in _partly_read_pullbacks():
        assert reader(partial) == reader(full), partial


def test_an_error_in_a_fill_reaches_the_reader():
    """A lookup error raised while computing an entry is not taken for a
    monomial outside the table."""
    def broken(rank):
        raise KeyError("fill of rank %d" % rank)

    phi = MomentFunctional._from_dense(X, 1, [ONE, None, None], broken)
    for read in (lambda: phi.value_of_letters(("y",)), lambda: phi(mono(X, "y"))):
        with pytest.raises(KeyError, match="fill of rank 2"):
            read()


def test_pullbacks_of_even_states_are_even_without_the_walk():
    """Images keep each generator's degree, so pulling back an even state
    gives an even one: preset, and equal to the walk over the completed
    table.  A state that is not even leaves the walk to decide, and a state
    over an ungraded algebra needs no walk."""
    for signature in (G1, G3):
        source = AlgebraSignature("B", True, (("u", 1), ("v", 0), ("w", 1)))
        for seed in (0, 1, 2):
            phi = gen_random_state(signature, 6, seed)
            hom = gen_random_homomorphism(source, signature, seed)
            pulled = pullback(phi, hom)
            assert pulled._even is True and pulled.is_even
            walked = MomentFunctional._from_dense(source, pulled.max_degree, pulled._complete())
            assert walked.is_even and _by_monomials(pulled)
    odd = total_state(G1, 4, {"a": "1/2", "a b": "1/3", "b": 2})
    source = AlgebraSignature("B", True, (("u", 1), ("v", 0)))
    hom = Homomorphism(source, G1, {"u": poly(mono(G1, "a")), "v": poly(mono(G1, "b b"))})
    pulled = pullback(odd, hom)
    assert pulled._even is None
    assert not pulled.is_even and pulled._even is False
    assert pulled(mono(source, "u")) == as_rational("1/2")
    # over an ungraded algebra no monomial is odd: evenness reads no entry
    scaled = scale(pullback(gen_random_state(N1, 6, 3), gen_random_homomorphism(N1, N1, 3)), 2)
    assert scaled._even is None and scaled.is_even and scaled._dense.count(None) == len(scaled._dense)


# ---------------------------------------------------------------------------
# integer grading


def test_lazy_grading_makes_the_entries_it_reads_as_ints():
    """At a given D, each entry read is the int phi(w) D^|w|, and only the
    entries read are made; the unit stays 1 and the evenness is phi's."""
    for signature in (A1, N1, G1, G3):
        for seed in (1, 2):
            phi = gen_random_state(signature, 6, seed)
            graded = _graded(phi, 840)
            assert graded.algebra == signature and graded.max_degree == 6
            assert graded._even is phi._even is True
            letters = list(_canonical_letters(signature, 6))
            read = random.Random(seed).sample(letters, 9)
            for key in read:
                value = graded.value_of_letters(key)
                assert type(value) is int and value == phi.value_of_letters(key) * 840 ** len(key), key
            made = {rank for rank, value in enumerate(graded._dense) if value is not None}
            assert made == {letters.index(key) for key in read} | ({0} if signature.unital else set())
            assert graded.is_even and sum(value is not None for value in graded._dense) == len(made)
            assert graded.letters_table == {key: value * 840 ** len(key) for key, value in phi.letters_table.items()}
    uneven = total_state(G1, 3, {"a": "1/2"})
    assert _graded(uneven, 2)._even is None and not _graded(uneven, 2).is_even


def test_lazy_grading_refuses_a_d_that_leaves_a_fraction():
    phi = total_state(N1, 3, {"a": "1/11", "b": "3/8", "a b": "5/16"})
    graded = _graded(phi, 840)
    assert graded.value_of_letters(("b",)) == 315 and graded.value_of_letters(("a", "b")) == 5 * 840**2 // 16
    with pytest.raises(ValueError, match="not an integer at D = 840"):
        graded.value_of_letters(("a",))
    assert _graded(phi, 9240).value_of_letters(("a",)) == 840
    with pytest.raises(ValueError, match="not an integer"):
        _graded(phi, 4).value_of_letters(("b",))


def _rational_copy(phi):
    """phi with every entry a Fraction, read through the rational route."""
    return MomentFunctional._from_dense(phi.algebra, phi.max_degree, [as_rational(v) for v in phi._complete()])


def test_pullbacks_of_integer_inputs_are_ints():
    """A graded state pulled back along integer images gives int entries,
    but for the Fraction 0 of a vanishing image, and along rational images
    the entries of the rational route; a drawn state gives Fractions."""
    from ncindep.axioms import _integral

    fractional = 0
    for signature in (A1, N1, G1):
        source = AlgebraSignature("B", signature.unital, (("u", signature.generators[0][1]), ("v", 0)))
        for seed in (3, 4, 5):
            phi = gen_random_state(signature, 6, seed)
            hom = gen_random_homomorphism(source, signature, seed)
            graded = _graded(phi, 840)
            integral = _integral(hom)
            assert all(type(c) is int for image in integral.images.values() for c in image.terms.values())
            ints = pullback(graded, integral)._complete()
            assert all(type(value) is int for value in ints if value)
            assert all(value == 0 for value in ints if type(value) is not int)
            assert ints == pullback(_rational_copy(graded), integral)._complete()
            drawn = pullback(phi, hom)._complete()
            assert all(type(value) is Fraction for value in drawn)
            assert pullback(graded, hom)._complete() == pullback(_rational_copy(graded), hom)._complete()
            # small ints, so that the images' denominators show
            small = _graded(total_state(signature, 6, {"b": 1, "b b": -2, "b b b b": 3, "a a": 2}), 1)
            exact = pullback(small, hom)._complete()
            assert exact == pullback(_rational_copy(small), hom)._complete()
            fractional += sum(type(value) is Fraction and value.denominator > 1 for value in exact)
    assert fractional > 50


class _Poly:
    """A sparse polynomial in named variables, with the arithmetic that the
    library's evaluators may use on moments: ``+``, ``*``, truthiness, and
    mixing with ``int`` and ``Fraction``."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {monomial: c for monomial, c in terms.items() if c}

    @staticmethod
    def _of(value):
        return value if isinstance(value, _Poly) else _Poly({(): value})

    def __add__(self, other):
        terms = dict(self.terms)
        for monomial, c in _Poly._of(other).terms.items():
            terms[monomial] = terms.get(monomial, 0) + c
        return _Poly(terms)

    def __mul__(self, other):
        other, terms = _Poly._of(other), {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                monomial = tuple(sorted(m1 + m2))
                terms[monomial] = terms.get(monomial, 0) + c1 * c2
        return _Poly(terms)

    __radd__, __rmul__ = __add__, __mul__

    def __bool__(self):
        return bool(self.terms)

    def at(self, values):
        return sum(c * math.prod(values[name] for name in monomial) for monomial, c in self.terms.items())


def test_pullback_takes_any_number_type_that_mixes_with_int():
    """A state whose entries are polynomials, one variable per rank, pulled
    back along integer images gives, at a drawn state's values, the
    pullback of that state."""
    from ncindep.axioms import _integral

    for signature in (A1, N1, G1):
        source = AlgebraSignature("B", signature.unital, (("u", signature.generators[0][1]), ("v", 0)))
        size = len(_empty_table(signature, 4))
        symbolic = MomentFunctional._from_dense(signature, 4, [
            1 if signature.unital and rank == 0 else _Poly({(rank,): 1}) for rank in range(size)])
        for seed in (3, 4, 5):
            hom = _integral(gen_random_homomorphism(source, signature, seed))
            entries = pullback(symbolic, hom)._complete()
            assert any(isinstance(entry, _Poly) for entry in entries)
            drawn = gen_random_state(signature, 4, seed)._complete()
            assert [entry.at(drawn) if isinstance(entry, _Poly) else entry for entry in entries] == \
                pullback(MomentFunctional._from_dense(signature, 4, list(drawn)), hom)._complete()


# ---------------------------------------------------------------------------
# unitize and scale


def test_unitize_adds_the_unit_row():
    phi = total_state(XN, 1, {"x": "1/2"})
    extended = unitize(phi)
    assert extended.unital
    assert extended(Monomial(extended.algebra, ())) == ONE
    assert extended(Monomial(extended.algebra, ("x",))) == as_rational("1/2")


def test_unitize_of_zero_functional_is_delta_like():
    phi = total_state(XN, 2)
    extended = unitize(phi)
    assert extended(Monomial(extended.algebra, ())) == ONE
    assert all(
        extended(m) == ZERO
        for m in all_monomials(extended.algebra, 2)
        if not m.is_unit
    )


def test_unitize_preserves_evenness():
    gn = AlgebraSignature("G", False, (("a", 1), ("b", 0)))
    phi = total_state(gn, 2, {"b": "1/2", "a a": 1})
    assert phi.is_even
    assert unitize(phi).is_even


def test_scale_by_one_is_identity():
    phi = total_state(XN, 2, {"x": "1/3"})
    assert scale(phi, 1).table == phi.table


def test_scale_multiplies_every_entry():
    phi = total_state(XN, 1, {"x": "1/3"})
    assert scale(phi, "1/2")(Monomial(XN, ("x",))) == as_rational("1/6")


def test_scale_round_trips():
    phi = total_state(XN, 2, {"x": "5/7", "x x": "-2"})
    assert scale(scale(phi, "3/4"), "4/3").table == phi.table


def test_scale_computes_only_the_entries_it_is_asked_for(monkeypatch):
    """Scaling a pullback of a drawn state and reading two monomials
    computes two entries of the scaled and the pulled state, each once, and
    of the drawn state exactly those the pulled entries read."""
    fills = count_fills(monkeypatch)
    reads = count_reads(monkeypatch)
    rng = random.Random(5)
    phi = gen_random_state(N1, 12, rng)
    pulled = pullback(phi, gen_random_homomorphism(N1, N1, rng), max_degree=6)
    scaled = scale(pulled, "-1/3")
    monomials = [mono(N1, "a b a"), mono(N1, "b"), mono(N1, "a b a")]
    values = [scaled(m) for m in monomials]
    assert values == [pulled(m) * as_rational("-1/3") for m in monomials]
    (drawn_state, drawn_ranks), (pulled_state, pulled_ranks), (scaled_state, scaled_ranks) = fills
    assert (drawn_state, pulled_state, scaled_state) == (phi, pulled, scaled)
    # each of the two distinct monomials is computed once, in both states
    assert pulled_ranks == scaled_ranks and len(scaled_ranks) == 2
    assert scaled_state._dense.count(None) == len(scaled_state._dense) - 2
    # the drawn state computes only the image monomials of those two, once
    assert len(set(drawn_ranks)) == len(drawn_ranks) and set(drawn_ranks) == reads[phi]
    assert 1 <= len(drawn_ranks) <= 2 * 4 ** 2 and drawn_state._dense.count(None) == len(phi._dense) - len(drawn_ranks)


def test_scale_rejects_unital_and_zero():
    with pytest.raises(RegimeMismatch):
        scale(total_state(X, 1), 2)
    with pytest.raises(ValueError):
        scale(total_state(XN, 1), 0)


# ---------------------------------------------------------------------------
# evenness


def test_even_functional_vanishes_on_odd_monomials():
    phi = total_state(G1, 3, {"a a": 1, "b": "1/2"})
    assert phi.is_even
    for m in all_monomials(G1, 3):
        if m.degree == 1:
            assert phi(m) == ZERO


def test_odd_entry_breaks_evenness():
    phi = total_state(G1, 1, {"a": 1})
    assert not phi.is_even


def _by_monomials(phi):
    """Evenness read off the Monomial-keyed view, one degree per entry."""
    return all(not value for monomial, value in phi.table.items() if monomial.degree)


def test_parity_walk_agrees_with_the_monomial_route():
    states = []
    for signature in (G1, G3, AlgebraSignature("G", False, (("a", 1), ("b", 0)))):
        for max_degree in (0, 1, 2, 5):
            phi = gen_random_state(signature, max_degree, max_degree)
            states += [phi, graded_by_lcm(phi)]
    lopsided = total_state(G3, 3, {"a b": "1/2", "a b a": "-1/3"})  # one odd moment, not zero
    states += [lopsided, graded_by_lcm(lopsided), total_state(G3, 3, {"c": 2, "a a c": 5})]
    for phi in states:
        assert phi.is_even == _by_monomials(phi), (phi, phi.max_degree)
    assert not lopsided.is_even
    assert states[0].is_even and states[-1].is_even


# ---------------------------------------------------------------------------
# JSON documents


def test_document_round_trip():
    phi = total_state(G1, 2, {"a a": 1, "b": "1/2"})
    doc = state_to_json(phi)
    again = state_from_json(doc)
    assert again.algebra == phi.algebra
    assert again.max_degree == phi.max_degree
    assert again.table == phi.table


def test_document_file_round_trip(tmp_path):
    phi = total_state(XN, 2, {"x": "2/3"})
    path = tmp_path / "state.json"
    dump_state(phi, path)
    assert load_state(path).table == phi.table


def test_document_uses_empty_string_for_unit():
    doc = state_to_json(total_state(X, 1, {"x": "1/2"}))
    assert doc["moments"][""] == "1"
    assert doc["moments"]["x"] == "1/2"


def test_document_rejects_missing_moment():
    doc = state_to_json(total_state(X, 1, {"x": "1/2"}))
    del doc["moments"]["y"]
    with pytest.raises(StateDocumentError):
        state_from_json(doc)


def test_document_rejects_bad_rational():
    doc = state_to_json(total_state(X, 1))
    doc["moments"]["x"] = "0.5"
    with pytest.raises(StateDocumentError):
        state_from_json(doc)


def test_document_rejects_wrong_shape():
    for broken in ({}, {"algebra": {}}, {"algebra": {"name": "X"}, "max_degree": 1}):
        with pytest.raises(StateDocumentError):
            state_from_json(broken)


def test_document_text_is_deterministic():
    phi = total_state(X, 2, {"x": "1/2", "y x": "7/8"})
    assert dump_state(phi) == dump_state(phi)
    assert json.loads(dump_state(phi)) == state_to_json(phi)
