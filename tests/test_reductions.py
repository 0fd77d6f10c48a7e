"""Transporting the asymmetric products and the graded tensor through
ordinary tensor independence: embeddings, enlarged states, verification."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from ncindep import (
    AlgebraSignature,
    Axiom,
    EMPTY_WORD,
    JointFunctional,
    MomentFunctional,
    Monomial,
    ProductKind,
    ReducedWord,
    ReductionCheck,
    ReductionKind,
    RegimeMismatch,
    Slot,
    Word,
    all_monomials,
    concat_words,
    embed_word,
    enumerate_words,
    eval_graded_tensor,
    format_word,
    gen_random_state,
    normalize_word,
    reduction_sweep,
    run_axiom_suite,
    tensor_value,
    verify_reduction,
)
from ncindep.algebra import _word_of, _words
from ncindep.products import _rule
from ncindep.reductions import _sweep_table, _times, sweep_signatures
from ncindep.rational import ONE, as_rational, product
from conftest import A1, A2, G1, G2, N1, N2, total_state

P = None  # marker for the idempotent letter inside an M-reduction slot

M_KINDS = (ReductionKind.BOOLEAN, ReductionKind.MONOTONE, ReductionKind.ANTI_MONOTONE)


def m_slot(*entries):
    """An M-reduction slot over ungraded letters: its entries, degree 0, no g."""
    return Slot(entries, 0, 0)


def reduced_product(first, second):
    """Slot-wise product of two embedded words, through the one slot
    multiplication."""
    negative, slots = _times((first.sign < 0, first.slots), (second.sign < 0, second.slots))
    return ReducedWord(-ONE if negative else ONE, slots)


def fermi_split_pair(left, right, gpow=0):
    """The two-factor case table of the fermi reduction: a graded tensor
    element a (x) b (x) g^gpow splits into the slots
    (a, g^(deg b + gpow)) (x) (b, g^gpow)."""
    return ReducedWord(ONE, (Slot(left.letters, left.degree, (right.degree + gpow) & 1),
                             Slot(right.letters, right.degree, gpow & 1)))


def slot_value(phi, slot):
    """The tensor value of a one-slot word with sign +1 under one state."""
    return tensor_value([phi], ReducedWord(ONE, (slot,)))


def letter_word(*pairs):
    sigs = (N1, N2)
    return normalize_word([(f, Monomial(sigs[f], (name,))) for f, name in pairs])


def graded_word(*pairs):
    sigs = (G1, G2)
    return normalize_word([(f, Monomial(sigs[f], (name,))) for f, name in pairs])


# ---------------------------------------------------------------------------
# letter-wise embeddings


def test_boolean_embedding_pads_with_p_on_both_sides():
    assert embed_word(ReductionKind.BOOLEAN, 2, letter_word((0, "a"))).slots == (m_slot("a"), m_slot(P))
    assert embed_word(ReductionKind.BOOLEAN, 2, letter_word((1, "x"))).slots == (m_slot(P), m_slot("x"))


def test_monotone_embedding_pads_only_later_slots():
    assert embed_word(ReductionKind.MONOTONE, 2, letter_word((1, "x"))).slots == (m_slot(), m_slot("x"))
    assert embed_word(ReductionKind.MONOTONE, 2, letter_word((0, "a"))).slots == (m_slot("a"), m_slot(P))


def test_anti_monotone_embedding_pads_only_earlier_slots():
    assert embed_word(ReductionKind.ANTI_MONOTONE, 2, letter_word((0, "a"))).slots == (m_slot("a"), m_slot())
    assert embed_word(ReductionKind.ANTI_MONOTONE, 2, letter_word((1, "x"))).slots == (m_slot(P), m_slot("x"))


def test_fermi_embedding_marks_earlier_slots_of_odd_letters():
    image = embed_word(ReductionKind.FERMI, 2, graded_word((1, "x")))  # x is odd
    assert image.sign == ONE
    assert image.slots == (Slot((), 0, 1), Slot(("x",), 1, 0))
    even = embed_word(ReductionKind.FERMI, 2, graded_word((1, "y")))  # y is even
    assert even.slots == (Slot((), 0, 0), Slot(("y",), 0, 0))
    # x then a: a meets x's mark g in the first slot, and g a = -a g; the
    # rule read the other way round (left degree, right g) would give +1
    swapped = embed_word(ReductionKind.FERMI, 2, graded_word((1, "x"), (0, "a")))  # both odd
    assert swapped.sign == -ONE
    assert swapped.slots == (Slot(("a",), 1, 1), Slot(("x",), 1, 0))


def test_one_letter_embeddings_are_the_docstring_table():
    """Over 3 factors: fermi g^(deg a) before slot k, a at k, 1 after;
    boolean p around a; monotone 1 before, p after; anti-monotone p before,
    1 after.  Spelled out slot by slot, apart from the multiplication that
    builds longer words."""
    plain = [AlgebraSignature("A%d" % (k + 1), False, (("a", 0),)) for k in range(3)]
    graded = [AlgebraSignature("A%d" % (k + 1), True, (("a", 1), ("b", 0))) for k in range(3)]
    a, p, e = m_slot("a"), m_slot(P), m_slot()
    one, g = Slot((), 0, 0), Slot((), 0, 1)
    odd, even = Slot(("a",), 1, 0), Slot(("b",), 0, 0)
    table = {
        ReductionKind.BOOLEAN: [(a, p, p), (p, a, p), (p, p, a)],
        ReductionKind.MONOTONE: [(a, p, p), (e, a, p), (e, e, a)],
        ReductionKind.ANTI_MONOTONE: [(a, e, e), (p, a, e), (p, p, a)],
    }
    for kind, rows in table.items():
        for k, slots in enumerate(rows):
            image = embed_word(kind, 3, Word(((k, Monomial(plain[k], ("a",))),)))
            assert image == ReducedWord(ONE, slots), (kind, k)
    fermi = {
        "a": [(odd, one, one), (g, odd, one), (g, g, odd)],
        "b": [(even, one, one), (one, even, one), (one, one, even)],
    }
    for letter, rows in fermi.items():
        for k, slots in enumerate(rows):
            image = embed_word(ReductionKind.FERMI, 3, Word(((k, Monomial(graded[k], (letter,))),)))
            assert image == ReducedWord(ONE, slots), (letter, k)


def test_the_letter_marks_agree_with_the_product_records():
    """At n = 3, for every ordered pair j != k: an M-reduction's letter of
    factor j puts p in slot k exactly when the product's record has j's
    block close k's segment; fermi's puts g^(deg a) in slot k exactly when
    k < j, and its record is graded and closes no segment."""
    plain = [AlgebraSignature("A%d" % (k + 1), False, (("a", 0),)) for k in range(3)]
    graded = [AlgebraSignature("A%d" % (k + 1), True, (("a", 1), ("b", 0))) for k in range(3)]
    pairs = [(j, k) for j in range(3) for k in range(3) if j != k]
    for kind in M_KINDS:
        splits = _rule(kind.product_kind).node
        for j, k in pairs:
            slot = embed_word(kind, 3, Word(((j, Monomial(plain[j], ("a",))),))).slots[k]
            assert slot == (m_slot(P) if splits(j, k) else m_slot()), (kind, j, k)
    record = _rule(ProductKind.FERMI)
    assert record.graded and not any(record.node(j, k) for j, k in pairs)
    for letter, degree in (("a", 1), ("b", 0)):
        for j, k in pairs:
            slot = embed_word(ReductionKind.FERMI, 3, Word(((j, Monomial(graded[j], (letter,))),))).slots[k]
            assert slot == Slot((), 0, degree if k < j else 0), (letter, j, k)


def test_boolean_word_image_multiplies_slotwise():
    image = embed_word(ReductionKind.BOOLEAN, 2, letter_word((0, "a"), (1, "x"), (0, "a")))
    assert image.slots == (m_slot("a", P, "a"), m_slot(P, "x", P))


def test_adjacent_p_letters_collapse():
    image = embed_word(ReductionKind.BOOLEAN, 2, letter_word((0, "a"), (0, "b")))
    assert image.slots == (m_slot("a", "b"), m_slot(P))  # not m_slot(P, P)
    for kind in M_KINDS:
        for w in enumerate_words(sweep_signatures(kind), 4):
            for slot in embed_word(kind, 2, w).slots:
                entries = slot.entries
                assert all(
                    not (entries[k] is P and entries[k + 1] is P) for k in range(len(entries) - 1)
                )


def test_embedding_rejects_out_of_range_factors():
    with pytest.raises(ValueError):
        embed_word(ReductionKind.BOOLEAN, 1, letter_word((1, "x")))
    with pytest.raises(ValueError):
        embed_word(ReductionKind.FERMI, 1, graded_word((1, "x")))


def test_embedding_rejects_two_algebras_on_one_factor():
    word = Word(((0, Monomial(G1, ("a",))), (1, Monomial(G2, ("x",))), (0, Monomial(G2, ("x",)))))
    with pytest.raises(ValueError, match="two different algebras"):
        embed_word(ReductionKind.FERMI, 2, word)


@pytest.mark.parametrize("n, error, message", [
    (True, TypeError, "n must be an int"),
    (1.0, TypeError, "n must be an int"),
    (0, ValueError, "n must be at least 1"),
    (-1, ValueError, "n must be at least 1"),
], ids=["bool", "float", "zero", "negative"])
def test_embedding_refuses_a_bad_factor_count_before_any_work(monkeypatch, n, error, message):
    """A factor count of True is not read as 1, and none below 1 gives an
    image without slots, for the empty word or a letter, before any letter
    is embedded."""
    import ncindep.reductions as reductions

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(reductions, "_letter", no_work)
    monkeypatch.setattr(reductions, "_times", no_work)
    for word in (EMPTY_WORD, letter_word((0, "a"))):
        with pytest.raises(error, match="^%s$" % message):
            embed_word(ReductionKind.BOOLEAN, n, word)


def test_tensor_value_needs_one_factor_per_slot():
    with pytest.raises(ValueError) as raised:
        tensor_value([total_state(N1, 2)], ReducedWord(ONE, (m_slot("a"), m_slot("x"))))
    assert raised.type is ValueError and str(raised.value) == "need exactly one factor per slot"


# ---------------------------------------------------------------------------
# enlarged states


def test_enlarged_state_ignores_p_padding():
    phi = total_state(N1, 2, {"a": "1/2"})
    assert slot_value(phi, m_slot(P, "a", P)) == as_rational("1/2")


def test_enlarged_state_splits_runs_at_p():
    phi = total_state(N1, 2, {"a": "1/2", "b": "1/3"})
    assert slot_value(phi, m_slot("a", P, "b")) == as_rational("1/6")
    assert slot_value(phi, m_slot("a", "b")) == phi(Monomial(N1, ("a", "b")))


def test_fermi_state_values_g_as_one():
    phi = total_state(G1, 2, {"a a": 1, "b": "1/2"})
    assert slot_value(phi, Slot(("a", "a"), 0, 1)) == ONE
    assert slot_value(phi, Slot(("b",), 0, 0)) == as_rational("1/2")
    assert slot_value(phi, Slot((), 0, 1)) == ONE  # bare g


def test_fermi_state_requires_evenness():
    odd = total_state(G1, 1, {"a": 1})
    with pytest.raises(RegimeMismatch):
        verify_reduction(ReductionKind.FERMI, (odd, total_state(G2, 1)), graded_word((0, "a")))


def test_m_reductions_require_the_non_unital_regime():
    signatures = [AlgebraSignature("A%d" % k, True, (("a", 0),)) for k in (1, 2)]
    unital = [total_state(sig, 1) for sig in signatures]
    word = Word(((0, Monomial(signatures[0], ("a",))),))
    for kind in M_KINDS:
        with pytest.raises(RegimeMismatch):
            verify_reduction(kind, unital, word)


# ---------------------------------------------------------------------------
# worked verification examples


def test_monotone_route_matches_on_a_three_letter_word():
    phi1 = total_state(N1, 2, {"a a": 1})
    phi2 = total_state(N2, 2, {"x": "1/3"})
    w = letter_word((0, "a"), (1, "x"), (0, "a"))
    image = embed_word(ReductionKind.MONOTONE, 2, w)
    assert image.slots == (m_slot("a", "a"), m_slot(P, "x", P))
    check = verify_reduction(ReductionKind.MONOTONE, (phi1, phi2), w)
    assert check.equal
    assert check.lhs == check.rhs == as_rational("1/3")


def test_boolean_route_matches_on_a_three_letter_word():
    phi1 = total_state(N1, 2, {"a": "1/2"})
    phi2 = total_state(N2, 2, {"x": "1/3"})
    check = verify_reduction(ReductionKind.BOOLEAN, (phi1, phi2), letter_word((0, "a"), (1, "x"), (0, "a")))
    assert check.equal
    assert check.lhs == check.rhs == as_rational("1/12")


def test_fermi_route_matches_on_the_signed_word():
    phi1 = total_state(G1, 2, {"a a": 1})
    phi2 = total_state(G2, 2, {"x x": 1})
    w = graded_word((0, "a"), (1, "x"), (0, "a"), (1, "x"))
    image = embed_word(ReductionKind.FERMI, 2, w)
    assert image.sign == -ONE
    assert image.slots == (Slot(("a", "a"), 0, 0), Slot(("x", "x"), 0, 0))
    check = verify_reduction(ReductionKind.FERMI, (phi1, phi2), w)
    assert check.equal
    assert check.lhs == check.rhs == as_rational(-1)
    assert eval_graded_tensor((phi1, phi2), w) == as_rational(-1)


def test_inclusion_of_one_factor_preserves_moments():
    phi = total_state(G1, 3, {"a a": "2/3", "b": "1/5", "a b a": 0, "b b b": "7/8"})
    for letters in (("a", "a"), ("b",), ("b", "b", "b")):
        assert slot_value(phi, Slot(letters, 0, 0)) == phi(Monomial(G1, letters))


# ---------------------------------------------------------------------------
# the two-factor case table


def test_split_pair_agrees_with_the_word_embedding():
    rng = random.Random(3)
    for _ in range(20):
        m1 = Monomial(G1, tuple(rng.choices(("a", "b"), k=rng.randint(1, 3))))
        m2 = Monomial(G2, tuple(rng.choices(("x", "y"), k=rng.randint(1, 3))))
        w = normalize_word([(0, m1), (1, m2)])
        assert fermi_split_pair(m1, m2) == embed_word(ReductionKind.FERMI, 2, w)


def test_split_pair_with_g_matches_multiplying_by_g():
    g_both = ReducedWord(ONE, (Slot((), 0, 1), Slot((), 0, 1)))
    m1 = Monomial(G1, ("a",))
    m2 = Monomial(G2, ("x", "y"))
    w = normalize_word([(0, m1), (1, m2)])
    assert fermi_split_pair(m1, m2, gpow=1) == reduced_product(
        embed_word(ReductionKind.FERMI, 2, w), g_both
    )


# ---------------------------------------------------------------------------
# multiplicativity and consistency


def test_embedding_is_multiplicative():
    for kind in (ReductionKind.FERMI,) + M_KINDS:
        sigs = sweep_signatures(kind)
        words = list(enumerate_words(sigs, 3))
        rng = random.Random(11)
        for _ in range(40):
            w1, w2 = rng.choice(words), rng.choice(words)
            assert embed_word(kind, 2, concat_words(w1, w2)) == reduced_product(
                embed_word(kind, 2, w1), embed_word(kind, 2, w2)
            ), (kind, w1, w2)


def test_three_factor_embedding_matches_iterated_products():
    sigs = (
        AlgebraSignature("A1", False, (("a", 0), ("b", 0))),
        AlgebraSignature("A2", False, (("x", 0), ("y", 0))),
        AlgebraSignature("A3", False, (("s", 0), ("t", 0))),
    )
    phis = tuple(gen_random_state(sig, 4, 91 + k) for k, sig in enumerate(sigs))
    for kind in M_KINDS:
        for w in enumerate_words(sigs, 3):
            check = verify_reduction(kind, phis, w)
            assert check.equal, (kind, w, check)


def test_three_factor_fermi_embedding_matches_graded_tensor():
    sigs = (
        G1,
        G2,
        AlgebraSignature("A3", True, (("s", 1), ("t", 0))),
    )
    phis = tuple(gen_random_state(sig, 4, 71 + k) for k, sig in enumerate(sigs))
    for w in enumerate_words(sigs, 3):
        check = verify_reduction(ReductionKind.FERMI, phis, w)
        assert check.equal, (w, check)


# ---------------------------------------------------------------------------
# seeded sweeps


def test_sweeps_find_no_failures_at_small_scale():
    for kind in (ReductionKind.FERMI,) + M_KINDS:
        checked, failures = reduction_sweep(kind, seed=5, trials=3, max_word_len=4)
        assert failures == []
        assert checked > 0


def test_sweep_is_deterministic():
    first = reduction_sweep(ReductionKind.BOOLEAN, seed=9, trials=2, max_word_len=3)
    second = reduction_sweep(ReductionKind.BOOLEAN, seed=9, trials=2, max_word_len=3)
    assert first == second


def zero_joint(kind, length):
    """A joint functional of zero states over the sweep signatures of a
    kind, under its product: the sweep tables do not read the values."""
    states = [total_state(sig, length) for sig in sweep_signatures(kind)]
    return JointFunctional(states, kind.product_kind)


def bare(word):
    """A word's bare blocks ((factor, letters), ...), as a sweep table holds them."""
    return tuple((f, m.letters) for f, m in word.blocks)


def letter_sequences(signatures, max_letters):
    """Every sequence of 1..max_letters single-generator letters, in
    itertools.product order, each normalized: the reference word list."""
    alphabet = [(f, Monomial(sig, (name,))) for f, sig in enumerate(signatures) for name in sig.generator_names]
    return [normalize_word(combo)
            for length in range(1, max_letters + 1) for combo in itertools.product(alphabet, repeat=length)]


# Two unital factors of two generators, one non-unital factor, and three
# factors with odd generators and one to three generators each.
WORD_SIGNATURES = (
    (A1, A2),
    (N1,),
    (AlgebraSignature("B1", True, (("p", 1),)),
     AlgebraSignature("B2", True, (("q", 0), ("r", 1))),
     AlgebraSignature("B3", True, (("s", 1), ("t", 0), ("u", 1)))),
)


@pytest.mark.parametrize("signatures", WORD_SIGNATURES, ids=["two", "one", "three"])
def test_bare_words_are_the_normalized_letter_sequences(signatures):
    """The bare words and enumerate_words are the normalized letter
    sequences, element for element and in order."""
    for length in range(1, 6):
        want = letter_sequences(signatures, length)
        assert list(_words(signatures, length)) == [bare(w) for w in want]
        assert list(enumerate_words(signatures, length)) == want


@pytest.mark.parametrize("kind", list(ReductionKind), ids=lambda kind: kind.value)
def test_sweep_words_are_the_enumerated_words(kind):
    """The sweep's bare words are the normalized letter sequences, in
    order, and its table counts them."""
    signatures = sweep_signatures(kind)
    for length in range(1, 6):
        want = letter_sequences(signatures, length)
        assert list(_words(signatures, length)) == [bare(w) for w in want]
        table = _sweep_table(kind, zero_joint(kind, length), length)
        assert table.count == len(want)
        assert _sweep_table(kind, zero_joint(kind, length), length) is table


def slot_runs(slot):
    """The letter runs of a slot: its entries cut at each p (none for p or
    g alone)."""
    runs, run = [], []
    for entry in slot.entries + (P,):
        if entry is P:
            if run:
                runs.append(tuple(run))
            run = []
        else:
            run.append(entry)
    return runs


@pytest.mark.parametrize("kind", list(ReductionKind), ids=lambda kind: kind.value)
def test_sweep_images_are_the_embedded_words(kind):
    """The tensor half of the sweep's proof, and the proof itself: each
    word's tensor value is its image's sign times the moments of its slots'
    letter runs, and under every padding product the table leaves a word
    open exactly when that sign and those runs, as (factor, letters) pairs,
    are not the product's Koszul sign and segments; each open word is kept
    with its embedded image."""
    signatures = sweep_signatures(kind)
    rng = random.Random(17)
    for length in range(1, 6):
        states = [gen_random_state(sig, length, rng) for sig in signatures]
        images = []
        for word in enumerate_words(signatures, length):
            embedded = embed_word(kind, 2, word)
            runs = [(f, run) for f, slot in enumerate(embedded.slots) for run in slot_runs(slot)]
            value = embedded.sign * product(states[f].value_of_letters(run) for f, run in runs)
            assert value == tensor_value(states, embedded), word
            images.append((bare(word), embedded.sign == -ONE, sorted(runs)))
        for product_kind, joint in joins(kind, states):
            table = _sweep_table(kind, joint, length)
            for word, image in table.open:
                assert image == embed_word(kind, 2, _word_of(signatures, word)), (product_kind, word)
            open_words = {word for word, _ in table.open}
            for word, negative, runs in images:
                koszul, segments = joint._root.segments(word)
                proved = negative == bool(koszul) and sorted(segments) == runs
                assert (word not in open_words) == proved, (product_kind, word)


@pytest.mark.parametrize("kind", list(ReductionKind), ids=lambda kind: kind.value)
def test_product_images_are_the_evaluated_words(kind):
    """The product half of the sweep's proof: under every padding product,
    each word's value is its Koszul sign times the factors' moments on its
    segments."""
    signatures = sweep_signatures(kind)
    rng = random.Random(23)
    for length in range(1, 6):
        states = [gen_random_state(sig, length, rng) for sig in signatures]
        for product_kind, joint in joins(kind, states):
            for word in enumerate_words(signatures, length):
                negative, segments = joint._root.segments(bare(word))
                value = product(states[k].value_of_letters(segment) for k, segment in segments)
                assert (-value if negative else value) == joint.evaluate(word), (product_kind, word)


# pairwise coprime denominators and a zero
PALETTE = ("1/7", "-2/11", "3/13", "0")


def hand_state(signature, degree, shift=0):
    """A state cycling through PALETTE in canonical monomial order, 0 on
    odd monomials."""
    odd = {name for name, d in signature.generators if d}
    entries = {}
    for index, monomial in enumerate(all_monomials(signature, degree)):
        if monomial.letters and not sum(letter in odd for letter in monomial.letters) & 1:
            entries[monomial.letters] = PALETTE[(index + shift) % len(PALETTE)]
    return total_state(signature, degree, entries)


def test_sweeps_over_hand_made_states(monkeypatch):
    """With states of denominators 7, 11 and 13 drawn in place of random
    ones, every sweep agrees word for word, and a sweep joined under a
    wrong product reports exactly the public routes' mismatches."""
    import ncindep.reductions as reductions

    shifts = itertools.count()

    def drawn(signature, degree, rng):
        return hand_state(signature, degree, next(shifts))

    monkeypatch.setattr(reductions, "gen_random_state", drawn)
    for kind in ReductionKind:
        checked, failures = reduction_sweep(kind, seed=1, trials=2, max_word_len=5)
        assert (checked, failures) == (2 * 1364, [])

    # monotone joined as boolean differs in values, fermi joined as the
    # ungraded tensor in signs only
    for kind, wrong in ((ReductionKind.MONOTONE, ProductKind.BOOLEAN),
                        (ReductionKind.FERMI, ProductKind.TENSOR)):
        monkeypatch.setattr(reductions, "JointFunctional",
                            lambda factors, _, wrong=wrong: JointFunctional(factors, wrong))
        checked, failures = reduction_sweep(kind, seed=1, trials=1, max_word_len=4)
        states = failures[0][0]
        joint = JointFunctional(states, wrong)
        expected = []
        for word in enumerate_words(sweep_signatures(kind), 4):
            lhs, rhs = joint.evaluate(word), tensor_value(states, embed_word(kind, 2, word))
            if lhs != rhs:
                expected.append((states, word, ReductionCheck(lhs, rhs, False)))
        assert failures == expected


def test_sweeps_take_no_integer_part_of_a_rational(monkeypatch):
    """A sweep compares exact values, never a rational cut down by int(),
    trunc or floor."""
    def refused(self, *args):
        raise AssertionError("integer part of %r taken" % (self,))

    for name in ("__int__", "__trunc__", "__floor__"):
        monkeypatch.setattr(Fraction, name, refused)
    for kind in ReductionKind:
        checked, failures = reduction_sweep(kind, seed=4, trials=2, max_word_len=5)
        assert checked == 2 * 1364 and failures == []


def test_sweep_failures_are_replayable_triples(monkeypatch):
    """A monotone sweep joined under the boolean product reports exactly the
    words on which the two routes differ, each with its states and both
    values as the public routes give them."""
    import ncindep.reductions as reductions

    def boolean_joint(factors, kind):
        return JointFunctional(factors, ProductKind.BOOLEAN)

    monkeypatch.setattr(reductions, "JointFunctional", boolean_joint)
    kind = ReductionKind.MONOTONE
    checked, failures = reduction_sweep(kind, seed=3, trials=2, max_word_len=3)
    assert checked == 2 * 84
    trials = []
    for states, word, check in failures:
        assert isinstance(word, Word) and isinstance(check, ReductionCheck)
        if not trials or trials[-1][0] is not states:
            trials.append((states, []))
        trials[-1][1].append((word, check))
    assert len(trials) == 2
    for states, found in trials:
        joint = JointFunctional(states, ProductKind.BOOLEAN)
        expected = []
        for word in enumerate_words(sweep_signatures(kind), 3):
            lhs = joint.evaluate(word)
            rhs = tensor_value(states, embed_word(kind, 2, word))
            if lhs != rhs:
                expected.append((word, ReductionCheck(lhs, rhs, False)))
        assert found == expected


PADDING_PRODUCTS = (ProductKind.TENSOR, ProductKind.FERMI, ProductKind.BOOLEAN,
                    ProductKind.MONOTONE, ProductKind.ANTI_MONOTONE)

# SHA-256 of the verdicts below, as the sweep gave them when its word list,
# tensor images and product images were three separate caches.
WRONG_PRODUCT_VERDICTS = "df754e7934c2ecec7ee50ae083443fead1eb787d2e16272f32b08b9e4cc41b62"


def test_sweep_verdicts_under_wrong_products_are_pinned(monkeypatch):
    """Each reduction kind joined under each other padding product, at seed
    3 and length 4: the checked count and every failure's word and values,
    or the regime mismatch that refuses the join."""
    import ncindep.reductions as reductions

    digest = hashlib.sha256()
    for kind in ReductionKind:
        for wrong in PADDING_PRODUCTS:
            if wrong is kind.product_kind:
                continue
            monkeypatch.setattr(reductions, "JointFunctional",
                                lambda factors, _, wrong=wrong: JointFunctional(factors, wrong))
            try:
                checked, failures = reduction_sweep(kind, seed=3, trials=2, max_word_len=4)
            except RegimeMismatch:
                verdict = "%s as %s: regime mismatch" % (kind.value, wrong.value)
            else:
                assert checked == 2 * 340 and failures, (kind, wrong)
                verdict = "%s as %s: %d %r" % (kind.value, wrong.value, checked, [
                    (format_word(word), str(check.lhs), str(check.rhs)) for _, word, check in failures])
            digest.update(verdict.encode() + b"\n")
    assert digest.hexdigest() == WRONG_PRODUCT_VERDICTS


def joins(kind, states):
    """(product, joint functional) of the states under every padding
    product whose regime admits them, the reduced one included."""
    for product_kind in PADDING_PRODUCTS:
        try:
            yield product_kind, JointFunctional(states, product_kind)
        except RegimeMismatch:
            continue


@pytest.mark.parametrize("kind", list(ReductionKind), ids=lambda kind: kind.value)
def test_proved_words_agree_on_both_public_routes(kind):
    """Every word a sweep table leaves out of its open words, under every
    padding product, has one value on the joint functional and on the
    tensor route of its image, on hand-made states (denominators 7, 11, 13
    and a zero) and on two draws."""
    signatures = sweep_signatures(kind)
    rng = random.Random(31)
    proved = 0
    for length in range(1, 6):
        words = list(enumerate_words(signatures, length))
        pairs = [[hand_state(sig, length, shift) for shift, sig in enumerate(signatures)]]
        pairs += [[gen_random_state(sig, length, rng) for sig in signatures] for _ in range(2)]
        for states in pairs:
            for product_kind, joint in joins(kind, states):
                open_words = {word for word, _ in _sweep_table(kind, joint, length).open}
                for word in words:
                    if bare(word) not in open_words:
                        assert joint.evaluate(word) == tensor_value(states, embed_word(kind, 2, word)), (
                            product_kind, word)
                        proved += 1
    assert proved > 3 * sum(4**k for k in range(1, 6))


def test_sweeps_without_the_proof_give_the_same_results(monkeypatch):
    """With every word open, every sweep, under every padding product,
    checks as many words and finds the same failures."""
    import ncindep.reductions as reductions

    def outcomes():
        found = {}
        for kind, wrong, seed, length in itertools.product(ReductionKind, PADDING_PRODUCTS, (1, 2, 3), (3, 4, 5)):
            monkeypatch.setattr(reductions, "JointFunctional",
                                lambda factors, _, wrong=wrong: JointFunctional(factors, wrong))
            try:
                checked, failures = reduction_sweep(kind, seed=seed, trials=1, max_word_len=length)
            except RegimeMismatch:
                continue
            found[kind, wrong, seed, length] = checked, [
                ([phi.letters_table for phi in states], word, check) for states, word, check in failures]
        return found

    with_proof = outcomes()
    table = reductions._sweep_table

    def every_word_open(kind, joint, length):
        signatures = sweep_signatures(kind)
        return table(kind, joint, length)._replace(open=tuple(
            (word, embed_word(kind, 2, _word_of(signatures, word))) for word in _words(signatures, length)))

    monkeypatch.setattr(reductions, "_sweep_table", every_word_open)
    assert outcomes() == with_proof
    assert sum(bool(failures) for _, failures in with_proof.values()) > 20


def test_the_shipped_reductions_leave_no_word_open():
    """At lengths 5 and 6 every word of the four reductions is proved; a
    wrong product leaves words open (fermi joined as the ungraded tensor,
    287 of 1,364 at length 5)."""
    for length in (5, 6):
        for kind in ReductionKind:
            assert _sweep_table(kind, zero_joint(kind, length), length).open == (), (kind, length)
    wrong = JointFunctional([total_state(sig, 5) for sig in sweep_signatures(ReductionKind.FERMI)],
                            ProductKind.TENSOR)
    table = _sweep_table(ReductionKind.FERMI, wrong, 5)
    assert (table.count, len(table.open)) == (1364, 287)


def test_sweeps_value_each_open_word_once_per_trial(monkeypatch):
    """A sweep values each open word once per trial, in word order, whether
    or not the word's routes differ: never under the four reductions, 287
    times per trial for fermi joined as the ungraded tensor."""
    import ncindep.reductions as reductions

    calls = []
    check = reductions._check

    def counted(joint, word, image):
        calls.append(word)
        return check(joint, word, image)

    monkeypatch.setattr(reductions, "_check", counted)
    for kind in ReductionKind:
        assert reduction_sweep(kind, seed=1, trials=2, max_word_len=5) == (2 * 1364, [])
    assert calls == []
    monkeypatch.setattr(reductions, "JointFunctional",
                        lambda factors, _: JointFunctional(factors, ProductKind.TENSOR))
    checked, failures = reduction_sweep(ReductionKind.FERMI, seed=1, trials=2, max_word_len=5)
    wrong = JointFunctional([total_state(sig, 5) for sig in sweep_signatures(ReductionKind.FERMI)],
                            ProductKind.TENSOR)
    open_words = [word for word, _ in _sweep_table(ReductionKind.FERMI, wrong, 5).open]
    assert checked == 2 * 1364 and len(open_words) == 287
    assert calls == 2 * open_words


def test_sweeps_make_a_word_only_for_a_failure(monkeypatch):
    """Fermi joined as the ungraded tensor leaves 287 words open per trial;
    a sweep values them from the table's images, with no embedding, no
    public evaluation and no word check, and makes a :class:`Word` for each
    of the 41 failures of two trials alone."""
    import ncindep.products as products
    import ncindep.reductions as reductions

    calls = {"_word_of": 0, "embed_word": 0, "evaluate": 0, "_bare": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    for module, name in ((reductions, "_word_of"), (reductions, "embed_word"), (products, "_bare")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(JointFunctional, "evaluate", counted("evaluate", JointFunctional.evaluate))
    monkeypatch.setattr(reductions, "JointFunctional",
                        lambda factors, _: JointFunctional(factors, ProductKind.TENSOR))
    checked, failures = reduction_sweep(ReductionKind.FERMI, seed=1, trials=2, max_word_len=5)
    assert checked == 2 * 1364 and len(failures) == 41
    assert all(isinstance(word, Word) for _, word, _ in failures)
    assert calls == {"_word_of": 41, "embed_word": 0, "evaluate": 0, "_bare": 0}


def test_sweeps_and_suites_reject_long_words_before_any_work(monkeypatch):
    import ncindep.axioms as axioms
    import ncindep.reductions as reductions

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(reductions, "gen_random_state", no_work)
    monkeypatch.setattr(reductions, "_sweep_table", no_work)
    monkeypatch.setitem(axioms._TRIAL_RUNNERS, Axiom.FUNCTORIALITY, no_work)
    with pytest.raises(ValueError, match="at most 8"):
        reduction_sweep(ReductionKind.MONOTONE, seed=1, trials=1, max_word_len=9)
    with pytest.raises(ValueError, match="at most 8"):
        run_axiom_suite(Axiom.FUNCTORIALITY, ProductKind.TENSOR, seed=1, trials=1, max_word_len=9)


@pytest.mark.parametrize("entry, name", [
    (lambda: reduction_sweep(ReductionKind.FERMI, seed=1, trials=True, max_word_len=2), "trials"),
    (lambda: reduction_sweep(ReductionKind.FERMI, seed=1, trials=1, max_word_len=True), "max_word_len"),
    (lambda: run_axiom_suite(Axiom.INCLUSION, ProductKind.TENSOR, seed=1, trials=True, max_word_len=2), "trials"),
    (lambda: run_axiom_suite(Axiom.INCLUSION, ProductKind.TENSOR, seed=1, trials=1, max_word_len=True),
     "max_word_len"),
    (lambda: reduction_sweep(ReductionKind.FERMI, seed=True, trials=1, max_word_len=2), "seed"),
    (lambda: run_axiom_suite(Axiom.INCLUSION, ProductKind.TENSOR, seed=1.0, trials=1, max_word_len=2), "seed"),
], ids=["sweep-trials", "sweep-length", "suite-trials", "suite-length", "sweep-seed", "suite-seed"])
def test_sweeps_and_suites_refuse_bool_counts_before_any_work(monkeypatch, entry, name):
    """A seed, trial count or word length of True (or a float seed) is
    refused with TypeError, not read as 1, before any state is drawn or any
    trial runs."""
    import ncindep.axioms as axioms
    import ncindep.reductions as reductions

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(reductions, "gen_random_state", no_work)
    monkeypatch.setattr(reductions, "_sweep_table", no_work)
    monkeypatch.setitem(axioms._TRIAL_RUNNERS, Axiom.INCLUSION, no_work)
    with pytest.raises(TypeError, match="^%s must be an int$" % name):
        entry()


@pytest.mark.parametrize("entry", ["sweep", "verify", "signatures"])
def test_reductions_refuse_a_kind_that_is_not_a_reduction_kind(monkeypatch, entry):
    """Each public entry taking a reduction kind refuses the string
    "fermi" as embed_word does, before it joins or checks any state."""
    import ncindep.reductions as reductions

    def no_work(*args):
        raise AssertionError("work started")

    for name in ("gen_random_state", "JointFunctional", "_trial_generators"):
        monkeypatch.setattr(reductions, name, no_work)
    phi, psi = (total_state(sig, 2) for sig in (G1, G2))
    calls = {
        "sweep": lambda: reduction_sweep("fermi", 1, 1),
        "verify": lambda: verify_reduction("fermi", [phi, psi], graded_word((0, "a"), (1, "x"))),
        "signatures": lambda: sweep_signatures("fermi"),
    }
    with pytest.raises(TypeError, match="^kind must be a ReductionKind$"):
        calls[entry]()
