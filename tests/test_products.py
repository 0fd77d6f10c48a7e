"""Joint functionals: the five named products, the degenerate and
q-deformed families, the centering oracle, and graded tensor values."""

import dataclasses
import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ncindep import (
    AlgebraSignature,
    DegreeExceeded,
    EMPTY_WORD,
    Homomorphism,
    JointFunctional,
    MomentFunctional,
    Monomial,
    Polynomial,
    ProductKind,
    QDeformed,
    RegimeMismatch,
    Word,
    apply_homomorphism,
    enumerate_words,
    eval_graded_tensor,
    free_centering_oracle,
    gen_random_state,
    kind_label,
    normalize_word,
    parse_kind_label,
    product_state,
    sum_moment,
)
from ncindep import products
from ncindep.algebra import _canonical_letters, _regroup, _words
from ncindep.parsing import format_word
from ncindep.moments import MAX_TABLE_ENTRIES
from ncindep.products import MAX_FREE_RUNS, _rule
from ncindep.rational import ONE, Rational, ZERO, as_rational, format_rational
from conftest import A1, A2, A3, G1, G2, N1, N2, N3, mono, total_state

# Single-generator factors so the worked fixtures read like the formulas.
P1 = AlgebraSignature("A1", False, (("a", 0),))
P2 = AlgebraSignature("A2", False, (("b", 0),))
U1 = AlgebraSignature("A1", True, (("a", 0),))
U2 = AlgebraSignature("A2", True, (("b", 0),))


def word_aba():
    a, b = Monomial(P1, ("a",)), Monomial(P2, ("b",))
    return normalize_word([(0, a), (1, b), (0, a)])


def word_abab(sig1=P1, sig2=P2):
    a, b = Monomial(sig1, ("a",)), Monomial(sig2, ("b",))
    return normalize_word([(0, a), (1, b), (0, a), (1, b)])


# ---------------------------------------------------------------------------
# worked values for each kind


def test_boolean_value_is_product_of_letter_moments():
    phi1 = total_state(P1, 2, {"a": "1/2"})
    phi2 = total_state(P2, 2, {"b": "1/3"})
    joint = JointFunctional((phi1, phi2), ProductKind.BOOLEAN)
    assert joint.evaluate(word_aba()) == as_rational("1/12")


def test_monotone_value_gathers_the_first_factor():
    phi1 = total_state(P1, 2, {"a a": 1})
    phi2 = total_state(P2, 2, {"b": "1/3"})
    joint = JointFunctional((phi1, phi2), ProductKind.MONOTONE)
    assert joint.evaluate(word_aba()) == as_rational("1/3")


def test_anti_monotone_value_gathers_the_second_factor():
    phi1 = total_state(P1, 2, {"a": "1/2"})
    phi2 = total_state(P2, 2, {"b": "1/3", "b b": 1})
    joint = JointFunctional((phi1, phi2), ProductKind.ANTI_MONOTONE)
    assert joint.evaluate(word_aba()) == as_rational("1/12")
    # b a b gathers the b's around a: phi(a) psi(bb) = 1/2, where boolean
    # and monotone split them, psi(b) phi(a) psi(b) = 1/18
    a, b = Monomial(P1, ("a",)), Monomial(P2, ("b",))
    word_bab = normalize_word([(1, b), (0, a), (1, b)])
    assert joint.evaluate(word_bab) == as_rational("1/2")
    for other in (ProductKind.BOOLEAN, ProductKind.MONOTONE):
        assert JointFunctional((phi1, phi2), other).evaluate(word_bab) == as_rational("1/18")


def test_free_value_of_centered_alternating_word_is_zero():
    phi1 = total_state(U1, 4, {"a a": "1/3", "a a a a": "1/5"})
    phi2 = total_state(U2, 4, {"b b": "1/7", "b b b b": "1/11"})
    joint = JointFunctional((phi1, phi2), ProductKind.FREE)
    assert joint.evaluate(word_abab(U1, U2)) == ZERO


def test_free_value_of_general_four_letter_word():
    m1 = {"a": "1/2", "a a": "1/3"}
    m2 = {"b": "1/5", "b b": "1/7"}
    phi1 = total_state(U1, 4, {**m1, "a a a": 0, "a a a a": 0})
    phi2 = total_state(U2, 4, {**m2, "b b b": 0, "b b b b": 0})
    joint = JointFunctional((phi1, phi2), ProductKind.FREE)
    a1, a2 = as_rational("1/2"), as_rational("1/3")
    b1, b2 = as_rational("1/5"), as_rational("1/7")
    expected = a2 * b1 * b1 + a1 * a1 * b2 - a1 * a1 * b1 * b1
    assert joint.evaluate(word_abab(U1, U2)) == expected
    assert free_centering_oracle(phi1, phi2, word_abab(U1, U2)) == expected


def test_tensor_value_multiplies_per_factor_products():
    phi1 = total_state(U1, 2, {"a": "1/2", "a a": "1/3"})
    phi2 = total_state(U2, 2, {"b": "1/5", "b b": "1/7"})
    joint = JointFunctional((phi1, phi2), ProductKind.TENSOR)
    # a b a b collects to a^2 (x) b^2
    assert joint.evaluate(word_abab(U1, U2)) == as_rational("1/3") * as_rational("1/7")


def test_degenerate_value_vanishes_past_one_block():
    phi1 = total_state(P1, 2, {"a": "1/2", "a a": "1/3"})
    phi2 = total_state(P2, 2, {"b": "1/5"})
    joint = JointFunctional((phi1, phi2), ProductKind.DEGENERATE)
    one_block = Word(((0, Monomial(P1, ("a", "a"))),))
    assert joint.evaluate(one_block) == as_rational("1/3")
    assert joint.evaluate(word_aba()) == ZERO


def test_q_deformed_boolean_scales_a_two_block_word_by_inverse_q():
    phi1 = total_state(P1, 2, {"a": "1/2"})
    phi2 = total_state(P2, 2, {"b": "1/3"})
    plain = JointFunctional((phi1, phi2), ProductKind.BOOLEAN)
    deformed = JointFunctional((phi1, phi2), QDeformed(ProductKind.BOOLEAN, 2))
    ab = normalize_word([(0, Monomial(P1, ("a",))), (1, Monomial(P2, ("b",)))])
    assert deformed.evaluate(ab) == as_rational("1/2") * plain.evaluate(ab)
    assert deformed.evaluate(ab) == as_rational("1/12")


def test_q_equal_one_is_the_plain_product():
    rng_words = list(enumerate_words((N1, N2), 4))
    phi1 = gen_random_state(N1, 4, 5)
    phi2 = gen_random_state(N2, 4, 6)
    for base in (ProductKind.TENSOR, ProductKind.FREE, ProductKind.BOOLEAN):
        plain = JointFunctional((phi1, phi2), base)
        deformed = JointFunctional((phi1, phi2), QDeformed(base, 1))
        assert all(plain.evaluate(w) == deformed.evaluate(w) for w in rng_words)


def test_empty_word_is_the_unit_in_the_unital_regime():
    phi1 = total_state(U1, 2, {"a": "1/2"})
    phi2 = total_state(U2, 2, {"b": "1/3"})
    for kind in (ProductKind.TENSOR, ProductKind.FREE):
        assert JointFunctional((phi1, phi2), kind).evaluate(EMPTY_WORD) == ONE


def test_evaluate_returns_a_fraction_for_every_word():
    """The evaluators' seeds are ints, so that graded states stay in ints;
    on rational inputs the public entry still gives a Fraction, for the
    unit and a degenerate mixed word too, which the seeds alone make."""
    unital = (ProductKind.TENSOR, ProductKind.FREE, ProductKind.FERMI)
    for kind in unital:
        signatures = (G1, G2) if kind is ProductKind.FERMI else (A1, A2)
        states = [gen_random_state(sig, 3, 5) for sig in signatures]
        joint = JointFunctional(states, kind)
        assert joint.value_of_blocks(()) == 1
        for value in (joint.evaluate(EMPTY_WORD), joint(EMPTY_WORD)):
            assert type(value) is Fraction and value == ONE, kind
    states = [gen_random_state(sig, 3, 6) for sig in (N1, N2)]
    mixed = normalize_word([(0, mono(N1, "a")), (1, mono(N2, "x"))])
    for kind in tuple(ProductKind) + (QDeformed(ProductKind.FREE, 2),):
        joint = JointFunctional(states, kind)
        for word in itertools.chain([mixed], enumerate_words((N1, N2), 3)):
            assert type(joint.evaluate(word)) is Fraction and type(joint(word)) is Fraction, (kind, word)
    assert JointFunctional(states, ProductKind.DEGENERATE).evaluate(mixed) == ZERO


def test_empty_word_is_rejected_without_units():
    phi1 = total_state(P1, 2)
    phi2 = total_state(P2, 2)
    joint = JointFunctional((phi1, phi2), ProductKind.BOOLEAN)
    with pytest.raises(RegimeMismatch):
        joint.evaluate(EMPTY_WORD)


# ---------------------------------------------------------------------------
# regime and construction rules


def test_asymmetric_kinds_require_the_non_unital_regime():
    phi1 = total_state(U1, 2)
    phi2 = total_state(U2, 2)
    for kind in (
        ProductKind.BOOLEAN,
        ProductKind.MONOTONE,
        ProductKind.ANTI_MONOTONE,
        ProductKind.DEGENERATE,
        QDeformed(ProductKind.FREE, 2),
    ):
        with pytest.raises(RegimeMismatch):
            JointFunctional((phi1, phi2), kind)


@pytest.mark.parametrize(
    "kind",
    list(ProductKind) + [parse_kind_label(label) for label in ("q:tensor:2", "q:free:1/3", "q:boolean:2")],
    ids=kind_label,
)
def test_admits_unital_is_the_regime_rule(kind):
    """The kind's record says exactly which kinds take unital, even factors:
    the joint functional's check agrees with it."""
    states = (total_state(U1, 2), total_state(U2, 2))
    if _rule(kind).unital:
        JointFunctional(states, kind)
    else:
        with pytest.raises(RegimeMismatch, match="require the non-unital regime"):
            JointFunctional(states, kind)


def test_factors_may_not_mix_regimes():
    with pytest.raises(RegimeMismatch):
        JointFunctional((total_state(U1, 2), total_state(P2, 2)), ProductKind.FREE)


def test_q_deformation_rejects_bad_parameters():
    """Every base but tensor, free and boolean is refused, kinds and
    non-kinds alike, and so is q = 0."""
    q_bases = (ProductKind.TENSOR, ProductKind.FREE, ProductKind.BOOLEAN)
    for base in [kind for kind in ProductKind if kind not in q_bases] + ["free", QDeformed(ProductKind.FREE, 2)]:
        with pytest.raises(ValueError, match="^q-deformation exists only for tensor, free, and boolean bases$"):
            QDeformed(base, 2)
    for base in q_bases:
        assert QDeformed(base, 2).base is base
    with pytest.raises(ValueError):
        QDeformed(ProductKind.FREE, 0)


def test_kind_labels_round_trip():
    kinds = [
        ProductKind.TENSOR,
        ProductKind.DEGENERATE,
        QDeformed(ProductKind.BOOLEAN, as_rational("2")),
        QDeformed(ProductKind.FREE, as_rational("-1/3")),
    ]
    for kind in kinds:
        assert parse_kind_label(kind_label(kind)) == kind


def test_word_factor_validation(monkeypatch):
    """Every entry that takes a Word refuses, with ValueError before any
    value, a block on a factor past the given ones and a block over an
    algebra that is not its factor's.  The twins share their factor's
    generator names, so without the check they would be valued silently."""
    import ncindep.algebra as algebra

    phi1 = total_state(U1, 2, {"a": "1/2"})
    phi2 = total_state(U2, 2, {"b": "1/3"})
    joint = JointFunctional((phi1, phi2), ProductKind.TENSOR)
    homomorphisms = (Homomorphism.identity(U1), Homomorphism.identity(U2))
    a, b = Monomial(U1, ("a",)), Monomial(U2, ("b",))
    twin_a = Monomial(AlgebraSignature("T", True, (("a", 0),)), ("a",))
    twin_b = Monomial(AlgebraSignature("A2", False, (("b", 0),)), ("b",))
    stray = Word(((2, Monomial(AlgebraSignature("A3", True, (("s", 0),)), ("s",))),))
    words = (stray, Word(((0, a), (2, a))), Word(((0, twin_a),)), Word(((0, a), (1, twin_b))),
             Word(((1, b), (0, twin_a), (1, b))), Word(((1, a),)))

    def refused(*args):
        raise AssertionError("a value was computed")

    monkeypatch.setattr(JointFunctional, "value_of_blocks", refused)
    monkeypatch.setattr(algebra, "_image_terms", refused)
    monkeypatch.setattr(MomentFunctional, "letters_table", property(refused))
    valid = Polynomial.from_word(Word(((0, a), (1, b))))
    entries = (
        joint.evaluate,
        lambda word: joint.evaluate_polynomial(valid + Polynomial.from_word(word)),
        lambda word: apply_homomorphism(homomorphisms, word),
        lambda word: free_centering_oracle(phi1, phi2, word),
    )
    for word in words:
        for entry in entries:
            with pytest.raises(ValueError):
                entry(word)


# ---------------------------------------------------------------------------
# structural identities on sampled words


def sampled_pairs(unital, count=4, max_degree=6):
    sig1, sig2 = (A1, A2) if unital else (N1, N2)
    for trial in range(count):
        yield (
            gen_random_state(sig1, max_degree, 101 + trial),
            gen_random_state(sig2, max_degree, 202 + trial),
        )


def test_free_recursion_agrees_with_the_centering_oracle():
    words = list(enumerate_words((A1, A2), 5))
    for phi1, phi2 in sampled_pairs(unital=True):
        joint = JointFunctional((phi1, phi2), ProductKind.FREE)
        cache = {}
        for w in words:
            assert joint.evaluate(w) == free_centering_oracle(phi1, phi2, w, cache=cache)


def test_two_block_words_factorize_for_the_named_kinds():
    unital = {ProductKind.TENSOR, ProductKind.FREE}
    rng = random.Random(9)
    for kind in (
        ProductKind.TENSOR,
        ProductKind.FREE,
        ProductKind.BOOLEAN,
        ProductKind.MONOTONE,
        ProductKind.ANTI_MONOTONE,
    ):
        for phi1, phi2 in sampled_pairs(unital=kind in unital, count=3):
            joint = JointFunctional((phi1, phi2), kind)
            for _ in range(6):
                m1 = Monomial(phi1.algebra, tuple(rng.choices(("a", "b"), k=rng.randint(1, 3))))
                m2 = Monomial(phi2.algebra, tuple(rng.choices(("x", "y"), k=rng.randint(1, 3))))
                w = normalize_word([(0, m1), (1, m2)])
                assert joint.evaluate(w) == phi1(m1) * phi2(m2)


def test_q_deformation_breaks_two_block_factorization():
    phi1 = total_state(P1, 1, {"a": "1/2"})
    phi2 = total_state(P2, 1, {"b": "1/3"})
    joint = JointFunctional((phi1, phi2), QDeformed(ProductKind.BOOLEAN, 2))
    ab = normalize_word([(0, Monomial(P1, ("a",))), (1, Monomial(P2, ("b",)))])
    lhs = joint.evaluate(ab)
    rhs = phi1(Monomial(P1, ("a",))) * phi2(Monomial(P2, ("b",)))
    assert lhs != rhs
    assert lhs == rhs / 2  # scaled by exactly 1/q


def swap_factors(word):
    """Blocks keep their monomials; only the factor index flips."""
    return Word(tuple((1 - f, m) for f, m in word.blocks))


def test_symmetric_kinds_commute_with_factor_swap():
    for kind in (ProductKind.TENSOR, ProductKind.FREE, ProductKind.BOOLEAN, ProductKind.DEGENERATE):
        unital = kind in (ProductKind.TENSOR, ProductKind.FREE)
        sig1, sig2 = (A1, A2) if unital else (N1, N2)
        for phi1, phi2 in sampled_pairs(unital=unital, count=3):
            forward = JointFunctional((phi1, phi2), kind)
            backward = JointFunctional((phi2, phi1), kind)
            for w in enumerate_words((sig1, sig2), 4):
                assert forward.evaluate(w) == backward.evaluate(swap_factors(w)), (kind, w)


def test_monotone_breaks_factor_swap_symmetry():
    phi1 = total_state(P1, 2, {"a": 0, "a a": 1})
    phi2 = total_state(P2, 2, {"b": "1/3"})
    lhs = JointFunctional((phi1, phi2), ProductKind.MONOTONE).evaluate(word_aba())
    # same letters seen through the swapped joint: b now sits on factor 0
    phi1s = total_state(P1, 2, {"a": "1/3"})  # plays the old b
    phi2s = total_state(P2, 2, {"b": 0, "b b": 1})  # plays the old a
    swapped_word = normalize_word(
        [(1, Monomial(P2, ("b",))), (0, Monomial(P1, ("a",))), (1, Monomial(P2, ("b",)))]
    )
    rhs = JointFunctional((phi1s, phi2s), ProductKind.MONOTONE).evaluate(swapped_word)
    assert lhs == as_rational("1/3")
    assert rhs == ZERO
    assert lhs != rhs


def test_anti_monotone_is_the_mirror_of_monotone():
    for phi1, phi2 in sampled_pairs(unital=False, count=4):
        mono_joint = JointFunctional((phi2, phi1), ProductKind.MONOTONE)
        anti_joint = JointFunctional((phi1, phi2), ProductKind.ANTI_MONOTONE)
        for w in enumerate_words((N1, N2), 4):
            flipped = Word(tuple((1 - f, m) for f, m in w.blocks))
            assert anti_joint.evaluate(w) == mono_joint.evaluate(flipped), w


def test_evaluation_order_does_not_change_values():
    words = list(enumerate_words((A1, A2), 4))
    phi1 = gen_random_state(A1, 4, 77)
    phi2 = gen_random_state(A2, 4, 78)
    forward = JointFunctional((phi1, phi2), ProductKind.FREE)
    backward = JointFunctional((phi1, phi2), ProductKind.FREE)
    values_fwd = [forward.evaluate(w) for w in words]
    values_bwd = [backward.evaluate(w) for w in reversed(words)][::-1]
    assert values_fwd == values_bwd
    assert values_fwd == [forward.evaluate(w) for w in words]  # warm cache


G3 = AlgebraSignature("A3", True, (("s", 1), ("t", 0)))
G4 = AlgebraSignature("A4", True, (("u", 1), ("v", 0)))
A4 = AlgebraSignature("A4", True, (("u", 0), ("v", 0)))
N4 = AlgebraSignature("A4", False, (("u", 0), ("v", 0)))


def factor_signatures(kind, n):
    """n factors the kind can join: graded ones for fermi, unital ones for
    tensor and free, non-unital ones otherwise; no two share a generator."""
    if kind is ProductKind.FERMI:
        return (G1, G2, G3, G4)[:n]
    return ((A1, A2, A3, A4) if _rule(kind).unital else (N1, N2, N3, N4))[:n]


def bare(word):
    return tuple((factor, monomial.letters) for factor, monomial in word.blocks)


def nested(phis, kind, side, degree):
    """The product of the states as binary products nested to ``side``,
    ((phi_1 phi_2) phi_3) ... or ... (phi_(n-1) phi_n), each inner product
    taken as its state of the given degree: a function of a bare word over
    the states' factors."""
    join = lambda first, second: product_state(JointFunctional((first, second), kind), degree)
    if side == "left":
        inner = functools.reduce(join, phis[:-1])
        joint, group = JointFunctional((inner, phis[-1]), kind), (0,) * (len(phis) - 1) + (1,)
    else:
        inner = functools.reduce(lambda right, phi: join(phi, right), reversed(phis[1:]))
        joint, group = JointFunctional((phis[0], inner), kind), (0,) + (1,) * (len(phis) - 1)
    return lambda blocks: Rational(joint.value_of_blocks(_regroup(blocks, group)))


def test_three_factor_bracketings_agree():
    """The flat product (one node over all the factors) agrees with both
    nestings of binary products, the inner product taken as its state."""
    for kind in list(ProductKind) + [QDeformed(ProductKind.FREE, "1/3")]:
        signatures = factor_signatures(kind, 3)
        phis = [gen_random_state(sig, 4, 31 + i) for i, sig in enumerate(signatures)]
        default = JointFunctional(phis, kind)
        left, right = (nested(phis, kind, side, 4) for side in ("left", "right"))
        for w in enumerate_words(signatures, 4):
            assert default.evaluate(w) == left(bare(w)) == right(bare(w)), (kind, w)


@pytest.mark.parametrize("kind", list(ProductKind), ids=kind_label)
def test_four_factors_nest_both_ways_as_the_flat_product(kind):
    """((phi_1 phi_2) phi_3) phi_4 and phi_1 (phi_2 (phi_3 phi_4)), each
    inner product taken as its state, equal the flat product on every word
    of up to 4 letters."""
    signatures = factor_signatures(kind, 4)
    phis = [gen_random_state(sig, 4, 41 + i) for i, sig in enumerate(signatures)]
    flat = JointFunctional(phis, kind)
    left, right = (nested(phis, kind, side, 4) for side in ("left", "right"))
    for blocks in _words(signatures, 4):
        assert flat.value_of_blocks(blocks) == left(blocks) == right(blocks), blocks


@pytest.mark.parametrize("kind", list(ProductKind) + [QDeformed(ProductKind.BOOLEAN, "-3")], ids=kind_label)
def test_product_state_entries_are_the_joint_values(kind):
    """A product state lies over the union of the factors' generators, and
    each of its entries up to its degree, read in any order, is the joint
    value of its letters, each run of one factor's letters one block."""
    signatures = factor_signatures(kind, 2)
    phis = [gen_random_state(sig, 4, 51 + i) for i, sig in enumerate(signatures)]
    joint = JointFunctional(phis, kind)
    state = product_state(joint, 4)
    assert state.algebra == AlgebraSignature(
        "A1*A2", signatures[0].unital, signatures[0].generators + signatures[1].generators)
    factor_of = {name: f for f, sig in enumerate(signatures) for name in sig.generator_names}
    every = list(_canonical_letters(state.algebra, 4))
    for letters in reversed(every):
        blocks = tuple((f, tuple(run)) for f, run in itertools.groupby(letters, factor_of.__getitem__))
        assert state.value_of_letters(letters) == joint.value_of_blocks(blocks), (kind, letters)
    assert list(state.letters_table) == every


def test_product_states_refuse_shared_generator_names():
    phi = gen_random_state(N1, 2, 1)
    with pytest.raises(ValueError, match=r"duplicate generator names in algebra 'A1\*A1'"):
        product_state(JointFunctional((phi, phi), ProductKind.BOOLEAN), 2)


def test_a_fermi_product_state_is_even_without_completing_its_table():
    phis = [gen_random_state(sig, 4, 61 + i) for i, sig in enumerate((G1, G2, G3))]
    state = product_state(JointFunctional(phis[:2], ProductKind.FERMI), 4)
    JointFunctional((state, phis[2]), ProductKind.FERMI)  # checks that its factors are even
    assert all(value is None for value in state._dense)
    odd = {name for name, degree in state.algebra.generators if degree}
    assert all(state.value_of_letters(letters) == 0
               for letters in _canonical_letters(state.algebra, 4) if sum(letter in odd for letter in letters) % 2)


def test_product_state_checks_its_inputs_before_any_work(monkeypatch):
    """A degree that is not an ``int`` or is negative, and an argument that
    is not a joint functional, are refused; so is a free product's degree
    past ``MAX_FREE_RUNS``, since its fill values words without the run
    bound that ``evaluate`` keeps."""
    phis = [gen_random_state(sig, 2, i) for i, sig in enumerate((N1, N2))]
    joint = JointFunctional(phis, ProductKind.BOOLEAN)
    for degree in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="max_degree must be an int"):
            product_state(joint, degree)
    with pytest.raises(ValueError, match="max_degree must be nonnegative"):
        product_state(joint, -1)
    with pytest.raises(TypeError, match="joint must be a JointFunctional"):
        product_state(phis[0], 2)
    tables = []
    monkeypatch.setattr(products, "_empty_table", lambda *args: tables.append(args))
    for kind, signatures in ((ProductKind.FREE, (A1, A2)), (QDeformed(ProductKind.FREE, 2), (N1, N2))):
        free = JointFunctional([gen_random_state(sig, 2, 1) for sig in signatures], kind)
        with pytest.raises(ValueError, match="exceeds the free product's bound of %d runs" % MAX_FREE_RUNS):
            product_state(free, MAX_FREE_RUNS + 1)
    assert tables == []


def test_a_product_state_past_the_table_bound_is_refused():
    """Over two factors of two generators, degree 9 has 349,524 entries,
    degree 10 has 1,398,100 and degree 12 would have 22,369,620."""
    joint = JointFunctional([gen_random_state(sig, 2, 1) for sig in (N1, N2)], ProductKind.BOOLEAN)
    assert product_state(joint, 9).max_degree == 9
    for degree in (10, 12, 25):
        with pytest.raises(ValueError, match="exceeds %d entries" % MAX_TABLE_ENTRIES):
            product_state(joint, degree)


def test_a_free_product_of_four_hundred_factors_nests_shallowly():
    signatures = [AlgebraSignature("F%d" % i, True, (("x", 0),)) for i in range(400)]
    phis = [total_state(sig, 1, {"x": as_rational(1) / (i + 2)}) for i, sig in enumerate(signatures)]
    joint = JointFunctional(phis, ProductKind.FREE)
    word = Word(((0, Monomial(signatures[0], ("x",))), (399, Monomial(signatures[399], ("x",)))))
    assert joint.evaluate(word) == as_rational("1/2") * as_rational("1/401")


@pytest.mark.parametrize("kind, unital", [(ProductKind.FREE, True), (QDeformed(ProductKind.FREE, 2), False)])
def test_free_words_of_too_many_runs_are_refused_before_any_work(monkeypatch, kind, unital):
    """A 200-letter alternating word is refused with ValueError, by
    ``evaluate`` and by ``evaluate_polynomial``, before any word is valued;
    other kinds value it."""
    signatures = (A1, A2) if unital else (N1, N2)
    phis = [gen_random_state(sig, 3, seed) for seed, sig in enumerate(signatures)]
    letters = [(0, Monomial(signatures[0], ("a",))), (1, Monomial(signatures[1], ("x",)))]
    long_word = Word(tuple(letters[i % 2] for i in range(200)))
    short_word = Word(tuple(letters))
    joint = JointFunctional(phis, kind)
    valued = []
    monkeypatch.setattr(JointFunctional, "value_of_blocks",
                        lambda self, blocks: valued.append(blocks) or ONE)
    message = "a word of 200 runs exceeds the free product's bound of %d runs" % MAX_FREE_RUNS
    with pytest.raises(ValueError, match=message):
        joint.evaluate(long_word)
    with pytest.raises(ValueError, match=message):
        joint.evaluate_polynomial(Polynomial.from_word(short_word) + Polynomial.from_word(long_word))
    assert valued == []
    monkeypatch.undo()
    assert joint.evaluate_polynomial(Polynomial.from_word(short_word, 3)) == 3 * joint.evaluate(short_word)
    boolean = JointFunctional([gen_random_state(sig, 3, 1) for sig in (N1, N2)], ProductKind.BOOLEAN)
    nonunital = Word(tuple((f, Monomial((N1, N2)[f], m.letters)) for f, m in long_word.blocks))
    assert boolean.evaluate(nonunital) == (
        boolean.evaluate(Word((nonunital.blocks[0],))) * boolean.evaluate(Word((nonunital.blocks[1],)))) ** 100


# ---------------------------------------------------------------------------
# the subset recursion: a second reference for the free product, where the
# centering oracle cannot reach


class _RefLeaf:
    def __init__(self, phi, factor):
        self.phi, self.owned = phi, {factor}

    def __call__(self, blocks):
        return self.phi.letters_table[blocks[0][1]] if blocks else ONE


class _RefScaled:
    def __init__(self, inner, coeff):
        self.inner, self.coeff, self.owned = inner, coeff, inner.owned

    def __call__(self, blocks):
        return self.coeff * self.inner(blocks)


def _append_block(blocks, block):
    if blocks and blocks[-1][0] == block[0]:
        blocks[-1] = (block[0], blocks[-1][1] + block[1])
    else:
        blocks.append(block)


class _SubsetFree:
    """The binary free product by the subset recursion: for a word whose
    runs a_1 ... a_m alternate between the two sides,

        value(a_1...a_m) = sum over proper subsets I of {1..m} of
            (-1)^(m - #I + 1) * value(product of a_k, k in I, re-normalized)
            * product of side-moments of a_k, k not in I,

    with the empty product valued 1."""

    def __init__(self, left, right):
        self.sides = (left, right)
        self.side_of = {f: side for side in (0, 1) for f in self.sides[side].owned}
        self.owned = left.owned | right.owned
        self.memo = {}

    def __call__(self, blocks):
        if blocks in self.memo:
            return self.memo[blocks]
        runs = []  # (side, blocks of one maximal run)
        for block in blocks:
            side = self.side_of[block[0]]
            if runs and runs[-1][0] == side:
                runs[-1][1].append(block)
            else:
                runs.append((side, [block]))
        m = len(runs)
        values = [self.sides[side](tuple(run)) for side, run in runs]
        total = ZERO if m else ONE
        for bits in range((1 << m) - 1):  # proper subsets only
            kept = []
            scalar = ONE
            for k in range(m):
                if (bits >> k) & 1:
                    for block in runs[k][1]:
                        _append_block(kept, block)
                else:
                    scalar *= values[k]
            sign = -1 if (m - bin(bits).count("1") + 1) & 1 else 1
            total += sign * scalar * self(tuple(kept))
        self.memo[blocks] = total
        return total


def _subset_reference(phis, q, bracketing):
    """The free product (q-deformed unless q is None) of the states as a
    tree of binary subset-recursion nodes: balanced for ``None``, nested to
    one side for "left" and "right"."""

    def join(left, right):
        if q is None:
            return _SubsetFree(left, right)
        return _RefScaled(_SubsetFree(_RefScaled(left, 1 / q), _RefScaled(right, 1 / q)), q)

    def balanced(nodes):
        mid = len(nodes) // 2
        return nodes[0] if mid == 0 else join(balanced(nodes[:mid]), balanced(nodes[mid:]))

    nodes = [_RefLeaf(phi, factor) for factor, phi in enumerate(phis)]
    if bracketing == "left":
        return functools.reduce(join, nodes)
    if bracketing == "right":
        return functools.reduce(lambda right, left: join(left, right), reversed(nodes))
    return balanced(nodes)


@pytest.mark.parametrize("n,max_len", [(2, 5), (3, 4), (4, 3)])
def test_free_node_matches_the_subset_recursion(n, max_len):
    """Non-unital factors, q-deformed free kinds, and three or four factors
    under every bracketing (two factors have one tree): all the words of up
    to ``max_len`` letters."""
    for unital, q in ((True, None), (False, None), (False, "1/3"), (False, "-2")):
        signatures = ((A1, A2, A3, A4) if unital else (N1, N2, N3, N4))[:n]
        phis = [gen_random_state(sig, max_len, 10 * n + i) for i, sig in enumerate(signatures)]
        kind = ProductKind.FREE if q is None else QDeformed(ProductKind.FREE, q)
        words = list(enumerate_words(signatures, max_len))
        for bracketing in (None, "left", "right")[: 1 if n == 2 else 3]:
            if bracketing is None:
                value = JointFunctional(phis, kind).evaluate
            else:
                nesting = nested(phis, kind, bracketing, max_len)
                value = lambda w: nesting(bare(w))
            reference = _subset_reference(phis, q and as_rational(q), bracketing)
            for w in words:
                assert value(w) == reference(bare(w)), (q, bracketing, w)


def test_free_long_blocks_have_the_closed_form():
    """x^a y^b x^c y^d with 12-letter blocks: the cumulant recursion works
    on runs, not letters, so long blocks cost no more than short ones."""
    phi = gen_random_state(U1, 24, 5)
    psi = gen_random_state(U2, 24, 6)
    f = lambda k: phi.letters_table[("a",) * k]
    g = lambda k: psi.letters_table[("b",) * k]
    a, b = Monomial(U1, ("a",) * 12), Monomial(U2, ("b",) * 12)
    word = normalize_word([(0, a), (1, b), (0, a), (1, b)])
    expected = f(24) * g(12) * g(12) + f(12) * f(12) * g(24) - f(12) * f(12) * g(12) * g(12)
    assert JointFunctional((phi, psi), ProductKind.FREE).evaluate(word) == expected


# ---------------------------------------------------------------------------
# graded tensor values


def test_odd_odd_interchange_flips_the_sign():
    phi1 = total_state(G1, 4, {"a a": 1})
    phi2 = total_state(G2, 4, {"x x": 1})
    a, x = Monomial(G1, ("a",)), Monomial(G2, ("x",))
    w = normalize_word([(0, a), (1, x), (0, a), (1, x)])
    assert eval_graded_tensor((phi1, phi2), w) == as_rational(-1)


def test_trivial_grading_collapses_to_tensor():
    phi1 = gen_random_state(A1, 4, 41)
    phi2 = gen_random_state(A2, 4, 42)
    tensor = JointFunctional((phi1, phi2), ProductKind.TENSOR)
    for w in enumerate_words((A1, A2), 4):
        assert eval_graded_tensor((phi1, phi2), w) == tensor.evaluate(w)


def test_even_functionals_kill_odd_words():
    phi1 = total_state(G1, 3, {"a a": 1, "b": "1/2"})
    phi2 = total_state(G2, 3, {"x x": 1})
    w = normalize_word([(0, Monomial(G1, ("a",))), (1, Monomial(G2, ("x", "x")))])
    assert eval_graded_tensor((phi1, phi2), w) == ZERO


def test_graded_tensor_requires_even_functionals():
    lopsided = total_state(G1, 1, {"a": 1})
    with pytest.raises(RegimeMismatch):
        eval_graded_tensor((lopsided, total_state(G2, 1)), EMPTY_WORD)


# ---------------------------------------------------------------------------
# sums of designated generators


BERNOULLI = {"x": 0, "x x": 1, "x x x": 0, "x x x x": 1}


def bernoulli_states(n):
    out = []
    for index in range(n):
        sig = AlgebraSignature("S%d" % (index + 1), False, (("x", 0),))
        out.append(total_state(sig, 4, BERNOULLI))
    return out


def test_second_moment_of_the_sum_is_additive_for_every_kind():
    for kind in (
        ProductKind.TENSOR,
        ProductKind.FREE,
        ProductKind.BOOLEAN,
        ProductKind.MONOTONE,
        ProductKind.ANTI_MONOTONE,
    ):
        assert sum_moment(kind, bernoulli_states(2), 2) == as_rational(2)


def test_fourth_moment_of_two_coin_sum():
    assert sum_moment(ProductKind.TENSOR, bernoulli_states(2), 4) == as_rational(8)
    assert sum_moment(ProductKind.FREE, bernoulli_states(2), 4) == as_rational(6)
    assert sum_moment(ProductKind.BOOLEAN, bernoulli_states(2), 4) == as_rational(4)


def test_fourth_moment_monotone_matches_its_mirror():
    monotone = sum_moment(ProductKind.MONOTONE, bernoulli_states(2), 4)
    anti = sum_moment(ProductKind.ANTI_MONOTONE, bernoulli_states(2), 4)
    assert monotone == anti == as_rational(5)


@pytest.mark.parametrize("order", [True, 2.0], ids=["bool", "float"])
def test_sum_moment_refuses_an_order_that_is_not_an_int(order):
    with pytest.raises(TypeError, match="order must be an int"):
        sum_moment(ProductKind.TENSOR, bernoulli_states(1), order)


def test_sum_moment_requires_designations_when_ambiguous():
    with pytest.raises(ValueError):
        sum_moment(ProductKind.BOOLEAN, (total_state(N1, 2), total_state(N2, 2)), 2)
    value = sum_moment(
        ProductKind.BOOLEAN,
        (total_state(N1, 2, {"a a": 1}), total_state(N2, 2, {"x x": 1})),
        2,
        generators=("a", "x"),
    )
    assert value == as_rational(2)


UNITAL_OR_NOT = (ProductKind.TENSOR, ProductKind.FREE, ProductKind.FERMI)
PLAIN_SUM_CASES = [
    (kind, unital)
    for kind in ProductKind
    for unital in ((True, False) if kind in UNITAL_OR_NOT else (False,))
]
Q_SUM_CASES = [
    (QDeformed(base, as_rational(q)), False)
    for base in (ProductKind.TENSOR, ProductKind.FREE, ProductKind.BOOLEAN)
    for q in ("2", "-1/3", "-3/7", "1")
]


def _sum_by_words(kind, states, letters, order):
    """sum_moment as the sum of the joint values of all N^order words over
    the designated ``letters``: the reference the transforms are tested
    against."""
    joint = JointFunctional(states, kind)
    total = ZERO
    for combo in itertools.product(range(len(states)), repeat=order):
        total += joint.evaluate(normalize_word((index, letters[index]) for index in combo))
    return total


@pytest.mark.parametrize(
    "kind,unital", PLAIN_SUM_CASES + Q_SUM_CASES,
    ids=lambda v: str(v) if isinstance(v, bool) else kind_label(v),
)
def test_sum_moment_transforms_match_word_enumeration(kind, unital):
    """The transform route equals the sum over all N^order words, with a
    different random state per factor."""
    rng = random.Random(kind_label(kind) + str(unital))
    for n, order in ((1, 6), (2, 6), (3, 6), (4, 5), (4, 2)):
        for _ in range(3):
            states = [
                gen_random_state(AlgebraSignature("S%d" % i, unital, (("x", 0),)), order, rng)
                for i in range(n)
            ]
            letters = [Monomial(phi.algebra, ("x",)) for phi in states]
            value = sum_moment(kind, states, order)
            assert isinstance(value, Fraction)
            assert value == _sum_by_words(kind, states, letters, order)
    # pairwise coprime denominators, with zeros among the moments
    palette = ("1/7", "-2/11", "3/13", "0")
    states = [
        total_state(
            AlgebraSignature("S%d" % i, unital, (("x", 0),)),
            5,
            {("x",) * k: palette[(i + k) % 4] for k in range(1, 6)},
        )
        for i in range(4)
    ]
    letters = [Monomial(phi.algebra, ("x",)) for phi in states]
    for order in range(1, 6):
        assert sum_moment(kind, states, order) == _sum_by_words(kind, states, letters, order)
    # two generators per factor, the designated one passed explicitly
    signatures = (A1, A2, A3) if unital else (N1, N2, N3)
    states = [gen_random_state(sig, 4, rng) for sig in signatures]
    generators = ("b", "x", "t")
    letters = [Monomial(phi.algebra, (g,)) for phi, g in zip(states, generators)]
    assert sum_moment(kind, states, 4, generators=generators) == _sum_by_words(
        kind, states, letters, 4
    )
    with pytest.raises(DegreeExceeded):
        sum_moment(kind, states, 5, generators=generators)
    if kind is ProductKind.FERMI:
        # odd summands anticommute; odd alone, and mixed with even ones
        for degrees in ((1, 1, 1), (1, 0, 1, 0), (0, 1, 1)):
            states = [
                gen_random_state(AlgebraSignature("S%d" % i, unital, (("x", d),)), 6, rng)
                for i, d in enumerate(degrees)
            ]
            letters = [Monomial(phi.algebra, ("x",)) for phi in states]
            for order in range(1, 7):
                assert sum_moment(kind, states, order) == _sum_by_words(
                    kind, states, letters, order
                ), (degrees, order)


@pytest.mark.parametrize("kind", list(ProductKind), ids=lambda kind: kind.value)
def test_runs_of_copies_match_word_enumeration(kind):
    """Runs of one summand, read once per run, give the sum over all N^order
    words: seven copies, and runs of two states in turn; odd states among
    them in a fermi sum."""
    rng = random.Random("runs " + kind.value)
    degrees = (1, 0) if kind is ProductKind.FERMI else (0, 0)
    phi, psi = (gen_random_state(AlgebraSignature("S", False, (("x", d),)), 4, rng) for d in degrees)
    for states, orders in (([phi] * 7, (1, 2, 3, 4)), ([phi] * 2 + [psi] * 3 + [phi], (3, 4)),
                           ([psi] * 3 + [phi] * 3, (4,))):
        letters = [Monomial(state.algebra, ("x",)) for state in states]
        for order in orders:
            assert sum_moment(kind, states, order) == _sum_by_words(kind, states, letters, order), order


def test_sum_moment_rejects_a_bad_kind_and_no_states():
    with pytest.raises(TypeError, match="kind must be a ProductKind or QDeformed"):
        sum_moment("free", (total_state(U1, 2),), 2)
    with pytest.raises(ValueError, match="at least one factor is required"):
        sum_moment(ProductKind.FREE, (), 2)


def test_sum_moment_keeps_the_regime_rules():
    for kind in (ProductKind.BOOLEAN, ProductKind.MONOTONE, ProductKind.DEGENERATE):
        with pytest.raises(RegimeMismatch):
            sum_moment(kind, (total_state(U1, 2), total_state(U2, 2)), 2)
    with pytest.raises(RegimeMismatch):
        sum_moment(ProductKind.FREE, (total_state(U1, 2), total_state(P2, 2)), 2)
    odd = AlgebraSignature("A1", True, (("a", 1),))
    with pytest.raises(RegimeMismatch):  # a graded sum needs even states
        sum_moment(ProductKind.FERMI, (total_state(odd, 2, {"a": 1}), total_state(U2, 2)), 2)


D1 = AlgebraSignature("A1", True, (("a", 0),))
D2 = AlgebraSignature("A2", True, (("x", 0),))


def _degree_one_states():
    return total_state(D1, 1, {"a": "1/2"}), total_state(D2, 1, {"x": "1/3"})


def _alternating_word():
    """A1.a A2.x A1.a: with the nonzero mean of x, its value needs the
    moment of a a, past the degree-1 states."""
    a, x = Monomial(D1, ("a",)), Monomial(D2, ("x",))
    return normalize_word([(0, a), (1, x), (0, a)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: JointFunctional([], ProductKind.TENSOR), ValueError, "at least one factor is required"),
    (lambda: sum_moment(ProductKind.FREE, (total_state(U1, 2),), 0), ValueError, "order must be at least 1"),
    (lambda: sum_moment(ProductKind.FREE, (total_state(U1, 2), total_state(U2, 2)), 2, generators=["a"]),
     ValueError, "need one designated generator per state"),
    (lambda: free_centering_oracle(total_state(P1, 2), total_state(P2, 2), word_aba()),
     RegimeMismatch, "the centering oracle needs unital functionals"),
    (lambda: free_centering_oracle(*_degree_one_states(), _alternating_word()),
     DegreeExceeded, "monomial A1[a a] has length 2, beyond the stored maximum degree 1"),
    (lambda: JointFunctional(_degree_one_states(), ProductKind.FREE)(_alternating_word()),
     DegreeExceeded, "monomial A1[a a] has length 2, beyond the stored maximum degree 1"),
    (lambda: parse_kind_label("q:q:tensor:2"), ValueError, "q-deformed label must look like q:<base>:<q>"),
    (lambda: parse_kind_label("q:q:2"), ValueError, "unknown product kind 'q'"),
], ids=["no-factors", "order-0", "generator-count", "oracle-non-unital", "oracle-degree", "free-degree",
        "q-label-parts", "q-label-nested"])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message


def test_sum_moment_of_a_thousand_coins_has_the_closed_forms():
    n = 1000
    coin = {"x": 0, "x x": 1, "x x x": 0, "x x x x": 1}
    expected = {
        ProductKind.TENSOR: 3 - as_rational(2) / n,
        ProductKind.FREE: 2 - as_rational(1) / n,
        ProductKind.BOOLEAN: ONE,
        ProductKind.MONOTONE: as_rational(3) / 2 - as_rational(1) / (2 * n),
        ProductKind.ANTI_MONOTONE: as_rational(3) / 2 - as_rational(1) / (2 * n),
        ProductKind.DEGENERATE: as_rational(1) / n,
        ProductKind.FERMI: 3 - as_rational(2) / n,
        QDeformed(ProductKind.TENSOR, as_rational(2)): as_rational(3) / 2 - as_rational(1) / (2 * n),
    }
    for kind, value in expected.items():
        unital = kind in (ProductKind.TENSOR, ProductKind.FREE)
        sig = AlgebraSignature("S", unital, (("x", 0),))
        states = [total_state(sig, 4, coin)] * n
        moment = sum_moment(kind, states, 4)
        assert isinstance(moment, Fraction) and moment.denominator == 1, kind
        assert moment / n**2 == value, kind


def _count_transforms(monkeypatch, kind, transform):
    """The calls of the kind's sum transform, which its record builds from
    the function named ``transform``, from here until the test ends."""
    rule = products._RULES[kind]
    original = rule.sums
    assert getattr(original, "func", original) is getattr(products, transform)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setitem(products._RULES, kind, dataclasses.replace(rule, sums=counted))
    return calls


@pytest.mark.parametrize(
    "kind,transform",
    [(ProductKind.FREE, "_free_cumulants"), (ProductKind.BOOLEAN, "_cumulants"),
     (ProductKind.TENSOR, "_cumulants")],
)
def test_identical_summands_are_transformed_once(monkeypatch, kind, transform):
    """Free, boolean and classical cumulants, the kind's record's transform,
    are taken once per distinct summand and once for the sum, however many
    copies are summed."""
    calls = _count_transforms(monkeypatch, kind, transform)
    rng = random.Random(41)
    sig = AlgebraSignature("S", False, (("x", 0),))
    phi, psi = (gen_random_state(sig, 4, rng) for _ in range(2))
    twin = MomentFunctional.from_entries(sig, 4, dict(phi.letters_table))
    for states, distinct in (([phi] * 1000, 1), ([phi, twin] * 2, 1), ([phi, psi, phi, psi, psi], 2)):
        calls.clear()
        value = sum_moment(kind, states, 4)
        assert len(calls) == distinct + 1
        if len(states) <= 5:
            letters = [Monomial(sig, ("x",))] * len(states)
            assert value == _sum_by_words(kind, states, letters, 4)


def _multiplied(a, b):
    """The full product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_compose_equals_the_full_composition():
    """The truncated Horner composition equals sum_i f_i g^i, multiplied out
    in full and cut to the length of f."""
    from ncindep.products import _compose

    rng = random.Random(33)
    for length in range(1, 22):
        for _ in range(3):
            f = [rng.randint(-9, 9) for _ in range(length)]
            g = [0] + [rng.randint(-9, 9) for _ in range(length - 1)]
            full, power = [0] * length, [1]
            for coeff in f:
                for k, c in enumerate(power[:length]):
                    full[k] += coeff * c
                power = _multiplied(power, g)
            assert _compose(f, g) == full, (f, g)


def test_power_is_the_repeated_combination():
    """Squaring gives the c-fold composition, though composition does not
    commute."""
    from ncindep.products import _compose, _power

    rng = random.Random(34)
    f, g = ([0] + [rng.randint(-9, 9) for _ in range(6)] for _ in range(2))
    assert _compose(f, g) != _compose(g, f)
    for count in range(1, 34):
        assert _power(_compose, f, count) == functools.reduce(_compose, [f] * count), count


@pytest.mark.parametrize(
    "kind,degree,transform",
    [(ProductKind.TENSOR, 0, "_cumulants"), (ProductKind.FERMI, 1, "_cumulants"),
     (ProductKind.BOOLEAN, 0, "_cumulants"), (ProductKind.FREE, 0, "_free_cumulants")],
)
def test_sums_transform_as_often_for_three_copies_as_for_a_thousand(monkeypatch, kind, degree, transform):
    """A sum of copies of one summand, odd ones in a fermi sum, takes as many
    cumulant transforms at n = 3 as at n = 1000, and its values are the
    word sums."""
    calls = _count_transforms(monkeypatch, kind, transform)
    sig = AlgebraSignature("S", False, (("x", degree),))
    moments = ("0", "1/2", "0", "-3/4") if degree else ("1/3", "1/2", "-2", "-3/4")
    phi = total_state(sig, 4, {("x",) * k: m for k, m in enumerate(moments, 1)})
    for order in range(1, 5):
        calls.clear()
        value = sum_moment(kind, [phi] * 3, order)
        three = len(calls)
        calls.clear()
        sum_moment(kind, [phi] * 1000, order)
        assert len(calls) == three > 0
        assert value == _sum_by_words(kind, [phi] * 3, [Monomial(sig, ("x",))] * 3, order)


def test_odd_fermi_coins_square_to_their_count():
    """Odd summands anticommute, so the square of a sum of n odd coins
    (x^2 = 1 in law) is n, and its fourth moment n^2."""
    n = 1000
    sig = AlgebraSignature("S", False, (("x", 1),))
    coin = total_state(sig, 4, {"x": 0, "x x": 1, "x x x": 0, "x x x x": 1})
    assert sum_moment(ProductKind.FERMI, [coin] * n, 2) == n
    assert sum_moment(ProductKind.FERMI, [coin] * n, 4) == n**2


# ---------------------------------------------------------------------------
# q-deformed values, pinned bit for bit

Q_DIGEST = "9f9d24fcd0c24668a3dbab475f6e2a3ddf74d175ffaa07659d6e9590e50afaa6"


def test_q_deformed_values_are_pinned_bit_for_bit():
    """Every q-deformed base at q in {2, -1/3, 1}, under every bracketing of
    three seeded non-unital factors on every word of up to 4 letters, and
    its sums of orders 1 to 6 over 1 and over 3 summands."""
    rng = random.Random(15)
    factors = [gen_random_state(sig, 4, rng) for sig in (N1, N2, N3)]
    summands = [gen_random_state(AlgebraSignature("S%d" % i, False, (("x", 0),)), 6, rng) for i in range(3)]
    words = list(enumerate_words([N1, N2, N3], 4))
    lines = []
    for base in (ProductKind.TENSOR, ProductKind.FREE, ProductKind.BOOLEAN):
        for q in ("2", "-1/3", "1"):
            kind = QDeformed(base, as_rational(q))
            left, right = (nested(factors, kind, side, 4) for side in ("left", "right"))
            for bracketing, value in ((None, JointFunctional(factors, kind).evaluate),
                                      ("left", lambda word: left(bare(word))),
                                      ("right", lambda word: right(bare(word)))):
                lines += ["%s %s %s %s" % (kind_label(kind), bracketing, format_word(word),
                                           format_rational(value(word))) for word in words]
            for states in (summands[:1], summands):
                lines += ["%s sum %d %d %s" % (kind_label(kind), len(states), order,
                                               format_rational(sum_moment(kind, states, order)))
                          for order in range(1, 7)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == Q_DIGEST
