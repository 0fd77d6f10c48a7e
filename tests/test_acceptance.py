"""Acceptance sweep: the six headline guarantees of the package.

Every test here checks one guarantee end to end, at full scale, with exact
arithmetic (zero tolerance throughout), and prints a single PASS/FAIL line
so the verdict can be read off the run output at a glance.  Expected values
marked as frozen below were produced once by the independent oracles in
this file and are re-derived by those same oracles before being compared
against the library.
"""

import random
from itertools import product as cartesian

from ncindep import (
    AlgebraSignature,
    Axiom,
    FiniteProbSpace,
    JointFunctional,
    Monomial,
    ProductKind,
    QDeformed,
    RandomVariable,
    ReductionKind,
    Word,
    enumerate_words,
    eval_graded_tensor,
    free_centering_oracle,
    gen_random_state,
    independence_equivalence,
    reduction_sweep,
    run_axiom_suite,
    sum_moment,
    verify_reduction,
)
from ncindep.moments import MomentFunctional
from ncindep.rational import ONE, ZERO, as_rational

from conftest import total_state

NAMED_KINDS = (
    ProductKind.TENSOR,
    ProductKind.FREE,
    ProductKind.BOOLEAN,
    ProductKind.MONOTONE,
    ProductKind.ANTI_MONOTONE,
)


def _verdict(tag):
    """Context manager printing exactly one PASS/FAIL line for a criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print("ACCEPTANCE %s: %s" % (tag, "FAIL" if exc_type else "PASS"))
            return False

    return _Reporter()


# ---------------------------------------------------------------------------
# 1. The free product agrees with the centering oracle, exactly.


def test_criterion_1_free_product_matches_the_centering_oracle():
    with _verdict("1 free product vs centering oracle"):
        first = AlgebraSignature("A1", True, (("a", 0), ("b", 0)))
        second = AlgebraSignature("A2", True, (("x", 0), ("y", 0)))
        words = list(enumerate_words((first, second), 6))
        assert len(words) == 5460  # every normal-form word of up to 6 letters
        for trial in range(100):
            rng = random.Random(41_000 + trial)
            phi1 = gen_random_state(first, 6, rng)
            phi2 = gen_random_state(second, 6, rng)
            joint = JointFunctional((phi1, phi2), ProductKind.FREE)
            cache = {}
            for word in words:
                got = joint.evaluate(word)
                expected = free_centering_oracle(phi1, phi2, word, cache)
                assert got == expected, (trial, word)


# ---------------------------------------------------------------------------
# 2. The axiom suite: the five named products satisfy the product axioms;
#    the deformed and degenerate constructions fail exactly where they must.


def test_criterion_2_axiom_suite():
    with _verdict("2 axiom suite"):
        core = (
            Axiom.ASSOCIATIVITY,
            Axiom.INCLUSION,
            Axiom.FUNCTORIALITY,
            Axiom.FACTORIZATION,
        )
        for kind in NAMED_KINDS:
            for axiom in core:
                report = run_axiom_suite(axiom, kind, seed=2024, trials=50, max_word_len=6)
                assert report.trials == 50
                assert report.failures == (), (axiom, kind)

        # factorization must fail for the deformed (q = 2) and degenerate
        # constructions, and every reported witness must be a two-block word
        for kind in (QDeformed(ProductKind.BOOLEAN, 2), ProductKind.DEGENERATE):
            report = run_axiom_suite(
                Axiom.FACTORIZATION, kind, seed=2024, trials=50, max_word_len=6
            )
            assert report.failures, kind
            for failure in report.failures:
                tokens = [t.split(".")[0] for t in failure.inputs["word"].split()]
                blocks = [t for i, t in enumerate(tokens) if i == 0 or tokens[i - 1] != t]
                assert blocks == ["A1", "A2"], failure.inputs["word"]
                assert failure.lhs != failure.rhs

        for kind in (
            ProductKind.TENSOR,
            ProductKind.FREE,
            ProductKind.BOOLEAN,
            ProductKind.DEGENERATE,
        ):
            assert run_axiom_suite(Axiom.SYMMETRY, kind, seed=2024, trials=50, max_word_len=6).passed

        asymmetric = run_axiom_suite(
            Axiom.SYMMETRY, ProductKind.MONOTONE, seed=2024, trials=50, max_word_len=6
        )
        assert asymmetric.failures  # order matters, with explicit witnesses
        assert all(f.lhs != f.rhs for f in asymmetric.failures)

        for kind in (ProductKind.MONOTONE, ProductKind.ANTI_MONOTONE):
            report = run_axiom_suite(Axiom.MIRROR, kind, seed=2024, trials=50, max_word_len=6)
            assert report.failures == (), kind


# ---------------------------------------------------------------------------
# 3. Every reduction reproduces its product through the plain tensor route.


def test_criterion_3_reductions_agree_with_their_products():
    with _verdict("3 reduction verification"):
        for kind in (
            ReductionKind.BOOLEAN,
            ReductionKind.MONOTONE,
            ReductionKind.ANTI_MONOTONE,
            ReductionKind.FERMI,
        ):
            checked, failures = reduction_sweep(kind, seed=2024, trials=50, max_word_len=5)
            assert failures == [], kind
            assert checked == 50 * 1364, kind  # 50 pairs x all words of <= 5 letters

        # the signed fixture: an alternating 4-letter word over two odd
        # generators with unit second moments evaluates to -1 on both routes
        odd1 = AlgebraSignature("A1", True, (("a", 1),))
        odd2 = AlgebraSignature("A2", True, (("x", 1),))
        phi1 = total_state(odd1, 2, {"a a": 1})
        phi2 = total_state(odd2, 2, {"x x": 1})
        word = Word(
            (
                (0, Monomial(odd1, ("a",))),
                (1, Monomial(odd2, ("x",))),
                (0, Monomial(odd1, ("a",))),
                (1, Monomial(odd2, ("x",))),
            )
        )
        check = verify_reduction(ReductionKind.FERMI, (phi1, phi2), word)
        assert check.lhs == as_rational(-1)
        assert check.rhs == as_rational(-1)
        assert check.equal


# ---------------------------------------------------------------------------
# 4. Fourth moment of a sum of two coin-flip variables, one value per kind.
#
# The oracle below expands (s + t)^4 into the 16 length-4 letter words and
# values each word directly from the defining formula of each product —
# run-by-run for the three closed-form kinds, by centering for the free
# kind — without touching the evaluation engine under test.  The frozen
# values it reproduces: 8 (tensor), 6 (free), 4 (boolean), 5 (monotone),
# 5 (anti-monotone); the last two must coincide, being mirror images.

COIN = {0: ONE, 1: ZERO, 2: ONE, 3: ZERO, 4: ONE}  # n-th moment of a +/-1 coin


def _runs(letters):
    """Lengths of the maximal constant runs of a letter string."""
    runs = []
    for letter in letters:
        if runs and runs[-1][0] == letter:
            runs[-1][1] += 1
        else:
            runs.append([letter, 1])
    return runs


def _coin_word_value(kind, letters):
    """Mixed moment of a length-4 word in two coin variables, from scratch."""
    count_s = letters.count("s")
    count_t = len(letters) - count_s
    if kind is ProductKind.TENSOR:
        return COIN[count_s] * COIN[count_t]
    if kind is ProductKind.BOOLEAN:
        value = ONE
        for _, length in _runs(letters):
            value = value * COIN[length]
        return value
    if kind is ProductKind.MONOTONE:
        # every run of the second variable is evaluated where it stands;
        # the first variable's letters collapse into a single moment
        value = COIN[count_s]
        for letter, length in _runs(letters):
            if letter == "t":
                value = value * COIN[length]
        return value
    if kind is ProductKind.ANTI_MONOTONE:
        value = COIN[count_t]
        for letter, length in _runs(letters):
            if letter == "s":
                value = value * COIN[length]
        return value
    raise AssertionError(kind)


def _coin_sum_by_expansion(kind, cache):
    """Oracle for the 4th moment of the sum, independent of sum_moment."""
    sig1 = AlgebraSignature("A1", True, (("s", 0),))
    sig2 = AlgebraSignature("A2", True, (("t", 0),))
    total = ZERO
    for letters in cartesian("st", repeat=4):
        if kind is ProductKind.FREE:
            phi1 = total_state(sig1, 4, {" ".join(["s"] * n): COIN[n] for n in range(1, 5)})
            phi2 = total_state(sig2, 4, {" ".join(["t"] * n): COIN[n] for n in range(1, 5)})
            raw = [(0 if c == "s" else 1, c) for c in letters]
            blocks = []
            for factor, letter in raw:
                if blocks and blocks[-1][0] == factor:
                    blocks[-1] = (factor, blocks[-1][1] + (letter,))
                else:
                    blocks.append((factor, (letter,)))
            word = Word(
                tuple(
                    (factor, Monomial(sig1 if factor == 0 else sig2, names))
                    for factor, names in blocks
                )
            )
            total = total + free_centering_oracle(phi1, phi2, word, cache)
        else:
            total = total + _coin_word_value(kind, letters)
    return total


def test_criterion_4_coin_sum_fourth_moments():
    with _verdict("4 coin-flip sum fixtures"):
        frozen = {
            ProductKind.TENSOR: as_rational(8),
            ProductKind.FREE: as_rational(6),
            ProductKind.BOOLEAN: as_rational(4),
            ProductKind.MONOTONE: as_rational(5),
            ProductKind.ANTI_MONOTONE: as_rational(5),
        }
        cache = {}
        for kind, expected in frozen.items():
            assert _coin_sum_by_expansion(kind, cache) == expected, kind

        coin_moments = {"z": 0, "z z": 1, "z z z": 0, "z z z z": 1}
        for kind, expected in frozen.items():
            unital = kind in (ProductKind.TENSOR, ProductKind.FREE)
            states = [
                total_state(
                    AlgebraSignature("S%d" % i, unital, (("z", 0),)), 4, coin_moments
                )
                for i in (1, 2)
            ]
            assert sum_moment(kind, states, 4) == expected, kind

        assert frozen[ProductKind.MONOTONE] == frozen[ProductKind.ANTI_MONOTONE]


# ---------------------------------------------------------------------------
# 5. On finite probability spaces the two notions of independence coincide.


def _random_classical_instance(rng):
    outcomes = tuple("o%d" % i for i in range(rng.randint(2, 8)))
    cuts = sorted(rng.randint(0, 24) for _ in range(len(outcomes) - 1))
    bounds = [0] + cuts + [24]
    weights = {
        outcome: as_rational(bounds[i + 1] - bounds[i]) / 24
        for i, outcome in enumerate(outcomes)
    }
    space = FiniteProbSpace(outcomes, weights)
    variables = []
    for _ in range(2):
        labels = ["v%d" % i for i in range(rng.randint(1, 4))]
        mapping = {outcome: rng.choice(labels) for outcome in outcomes}
        variables.append(RandomVariable(space, mapping))
    return space, variables[0], variables[1]


def test_criterion_5_classical_independence_notions_coincide():
    with _verdict("5 classical equivalence"):
        rng = random.Random(515)
        seen = set()
        for _ in range(500):
            _, x, y = _random_classical_instance(rng)
            verdict = independence_equivalence(x, y)
            assert verdict.atomwise == verdict.jointfactor
            seen.add(verdict.atomwise)
        assert seen == {True, False}  # the sweep exercised both answers


# ---------------------------------------------------------------------------
# 6. With all generators in even degree the graded product is the plain one.


def test_criterion_6_trivial_grading_collapses_to_tensor():
    with _verdict("6 trivial-grading collapse"):
        first = AlgebraSignature("A1", True, (("a", 0), ("b", 0)))
        second = AlgebraSignature("A2", True, (("x", 0), ("y", 0)))
        words = list(enumerate_words((first, second), 5))
        for trial in range(10):
            rng = random.Random(61_000 + trial)
            factors = (
                gen_random_state(first, 5, rng),
                gen_random_state(second, 5, rng),
            )
            plain = JointFunctional(factors, ProductKind.TENSOR)
            for word in words:
                graded = eval_graded_tensor(factors, word)
                assert graded == plain.evaluate(word), word
                # the graded and plain tensors share their gathering code, so
                # also compare with a stable sort written out here
                gathered = ([], [])
                for factor, monomial in word.blocks:
                    gathered[factor].extend(monomial.letters)
                expected = factors[0].value_of_letters(gathered[0])
                assert graded == expected * factors[1].value_of_letters(gathered[1]), word
