"""Seeded, replayable property checks of the product laws.

Each axiom is checked word-by-word on randomly generated states and words:
equality of two functionals on every word up to the degree bound is what
linearity leaves to check.  Each law's trial gives, word by word, the two
values the law equates, and one comparison loop counts and compares them
for every law.  Trials draw their words as bare normal-form block tuples
((factor, letters), ...) and value them through the joint functional's
trusted entry, ``JointFunctional.value_of_blocks``; functoriality expands
a word's image on bare tuples too.  Every law is checked on integer-graded
inputs: each drawn state phi as phi_D(w) = D^|w| phi(w), D = 840 the lcm
of the palette's denominators, and each homomorphism with its generators'
images rescaled to integer coefficients.  Each side of a law is natural
under such rescalings, so it is the drawn side times one nonzero integer
per word and the verdicts are the drawn inputs' own.  A report lists every
failing comparison with its values and a full serialization of its inputs,
so any witness can be replayed by hand or through the command line.  Both
are made on their first read, the values from the word on the drawn
inputs, the inputs from the word formatted, the law's own keys, and the
trial's states, serialized once for all of its witnesses; a check that
only counts failures makes neither.  Reports are bit-identical for a given
seed: the per-trial generator is derived from (seed, trial index) alone,
trials are mutually independent, and results are assembled in trial order.

The laws:

* associativity - the two nestings of the binary product agree on
  three-factor words: the product of the first two factors' product state
  with the third, and of the first with the last two's product state.
* unit law - joining with the trivial state on the empty-generator unital
  algebra changes nothing (unital kinds only).
* inclusion - on single-factor words the joint functional restricts to the
  factor's own functional.
* functoriality - substituting generators (images of length <= 2) commutes
  with taking the product.
* factorization - on two-block words the joint value splits into the
  product of the factors' moments.  Expected to fail for the degenerate
  product and for genuine q-deformations.
* symmetry - swapping the two factors leaves values unchanged.  Expected
  to fail for monotone and anti-monotone.
* mirror - monotone and anti-monotone exchange under the factor swap.

The graded tensor (fermi) is checked on algebras whose first generator is
odd, with random substitutions that keep each generator's degree.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .algebra import (
    AlgebraSignature,
    EMPTY_WORD,
    Homomorphism,
    Monomial,
    Polynomial,
    Word,
    _alphabet,
    _append,
    _canonical_letters,
    _image_terms,
    _regroup,
    _word_of,
    _words,
    single_block_word,
)
from .errors import RegimeMismatch
from .moments import MomentFunctional, _empty_table, _graded, _layout, _parities, pullback, state_to_json
from .parsing import format_expression, format_word
from .products import JointFunctional, ProductKind, QDeformed, _rule, kind_label, product_state
from .rational import ONE, Rational, ZERO, format_rational


class Axiom(Enum):
    ASSOCIATIVITY = "associativity"
    UNIT_LAW = "unitlaw"
    INCLUSION = "inclusion"
    FUNCTORIALITY = "functoriality"
    FACTORIZATION = "factorization"
    SYMMETRY = "symmetry"
    MIRROR = "mirror"


class AxiomFailure:
    """One failing comparison: both values, which ``values`` makes at the
    first read of either, and the replayable inputs, which ``build`` makes
    on their first read."""

    def __init__(self, build, values):
        self._build, self._values = build, functools.cache(values)

    @functools.cached_property
    def inputs(self) -> dict:
        return self._build()

    lhs = property(lambda self: self._values()[0])
    rhs = property(lambda self: self._values()[1])


@dataclass(frozen=True)
class AxiomReport:
    axiom: Axiom
    kind: "ProductKind | QDeformed"
    seed: int
    trials: int
    failures: tuple
    checked: int  # word comparisons made

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self, max_witnesses: int = 3):
        out = [
            "axiom=%s kind=%s seed=%d trials=%d checked=%d failures=%d"
            % (self.axiom.value, kind_label(self.kind), self.seed, self.trials, self.checked,
               len(self.failures))
        ]
        for failure in self.failures[:max_witnesses]:
            out.append(
                "witness: lhs=%s rhs=%s inputs=%s"
                % (
                    format_rational(failure.lhs),
                    format_rational(failure.rhs),
                    json.dumps(failure.inputs, sort_keys=True),
                )
            )
        hidden = len(self.failures) - max_witnesses
        if hidden > 0:
            out.append("... and %d more witnesses" % hidden)
        return out


def expected_outcome(axiom: Axiom, kind) -> bool:
    """Whether a run of the axiom for this kind should report zero failures,
    read from the kind's record: factorization where the kind factorizes,
    symmetry where the factor swap leaves it unchanged, every other law."""
    rule = _rule(kind)
    if axiom is Axiom.FACTORIZATION:
        return rule.factorizes
    if axiom is Axiom.SYMMETRY:
        return rule.mirror is None
    return True


# ---------------------------------------------------------------------------
# Random generation


_MOMENT_PALETTE = tuple(
    Rational(numerator, denominator)
    for numerator in range(-3, 4)
    for denominator in range(1, 9)
)
# ``choice`` indexes the palette by the top bits of a 32-bit generator
# word: the 6 bits that 56 entries need, drawn again while 56 or more.  They
# are the top bits of the word's top byte, so the byte maps to its index by
# a shift, and bytes of 56 << 2 or more are dropped.
_PALETTE_SHIFT = 8 - len(_MOMENT_PALETTE).bit_length()
_TOP_BYTE_INDEX = bytes(byte >> _PALETTE_SHIFT for byte in range(256))
_TOP_BYTE_REJECTED = bytes(range(len(_MOMENT_PALETTE) << _PALETTE_SHIFT, 256))


def _palette_indices(rng: random.Random, count: int) -> bytes:
    """The palette indices of ``count`` draws, those of ``count`` calls of
    ``rng.choice(_MOMENT_PALETTE)``.

    The generator words come in bulk, from ``getrandbits``, exactly as many
    at a time as draws are still missing, so the generator never runs past
    the words the calls would use.  Written little-endian, word i's top byte
    is byte 4i + 3.
    """
    indices = b""
    while len(indices) < count:
        missing = count - len(indices)
        tops = rng.getrandbits(32 * missing).to_bytes(4 * missing, "little")[3::4]
        indices += tops.translate(_TOP_BYTE_INDEX, _TOP_BYTE_REJECTED)
    return indices


@functools.lru_cache(maxsize=64)
def _draw_places(signature: AlgebraSignature, max_degree: int):
    """(places, count): per rank past the unit, the index of its monomial's
    draw, None at an odd monomial of a graded algebra (a range when no
    monomial is odd), and the number of draws."""
    flags = _parities(signature, max_degree)
    if not flags:
        count = _layout(signature, max_degree)[1][-1] - signature.unital
        return range(count), count
    places, count = [], 0
    for odd in flags:
        places.append(None if odd else count)
        count += not odd
    return places, count


def gen_random_state(signature: AlgebraSignature, max_degree: int, seed) -> MomentFunctional:
    """Random moment functional with numerators in [-3, 3] and denominators
    in [1, 8]; the unit gets 1, odd monomials of a graded algebra get 0.
    ``seed`` may be an integer or a ``random.Random``.

    One palette entry is drawn per even monomial, in the canonical order of
    the monomials (as :func:`~ncindep.algebra.all_monomials`), from the
    generator's ``getrandbits``: the table, and the generator's state
    afterwards, are those of one ``rng.choice`` call per even monomial.  The
    draws are kept as palette indices, and each entry is made on its first
    read, so a state read at a few monomials costs its draws and those
    reads.  The state is even by construction.  A table past
    :data:`~ncindep.moments.MAX_TABLE_ENTRIES` is refused before any draw."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    dense = _empty_table(signature, max_degree)
    unit = int(signature.unital)
    places, count = _draw_places(signature, max_degree)
    indices = _palette_indices(rng, count)

    def fill(rank):
        place = places[rank - unit]
        return ZERO if place is None else _MOMENT_PALETTE[indices[place]]

    if unit:
        dense[0] = ONE
    phi = MomentFunctional._from_dense(signature, max_degree, dense, fill)
    phi._even = True
    return phi


def _random_blocks(alphabet, max_letters: int, rng: random.Random) -> tuple:
    """A random bare normal-form word ((factor, letters), ...) of
    1..max_letters letters drawn from ``alphabet``, the letters of one
    factor that follow each other merged into one block as they are drawn."""
    blocks: list = []
    for _ in range(rng.randint(1, max_letters)):
        factor, name = rng.choice(alphabet)
        _append(blocks, (factor, (name,)))
    return tuple(blocks)


def gen_random_word(signatures: Sequence[AlgebraSignature], max_letters: int, seed) -> Word:
    """Random normal-form word with 1..max_letters single-generator letters.
    ``seed`` may be an integer or a ``random.Random``."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return _word_of(signatures, _random_blocks(_alphabet(signatures), max_letters, rng))


def gen_random_homomorphism(
    source: AlgebraSignature,
    target: AlgebraSignature,
    seed,
    max_image_letters: int = 2,
) -> Homomorphism:
    """Random substitution: each generator maps to a 1- or 2-term polynomial
    with monomials of length <= max_image_letters and of the generator's
    degree; unital regimes may also give even generators a constant term.
    ``seed`` may be an integer or a ``random.Random``."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    images = {}
    for name in source.generator_names:
        degree = source.degree_of(name)
        terms = []
        for _ in range(rng.randint(1, 2)):
            monomial = _random_monomial(target, degree, max_image_letters, rng)
            terms.append((single_block_word(0, monomial), Rational(rng.randint(-2, 2), rng.randint(1, 4))))
        if source.unital and rng.random() < 0.25 and not degree:
            terms.append((EMPTY_WORD, Rational(rng.randint(-2, 2), 1)))
        images[name] = Polynomial._collected(terms)
    return Homomorphism(source, target, images)


def _random_monomial(target, degree, max_letters, rng) -> Monomial:
    """A random monomial of the given degree, drawn again until the degree
    fits; over an ungraded target the first draw of degree 0 always does."""
    for _ in range(64):
        length = rng.randint(1, max_letters)
        letters = tuple(rng.choice(target.generator_names) for _ in range(length))
        monomial = Monomial(target, letters)
        if monomial.degree == degree:
            return monomial
    raise ValueError("found no monomial of degree %d over %r" % (degree, target.name))


def enumerate_words(signatures: Sequence[AlgebraSignature], max_letters: int):
    """Every normal-form word whose letters are single generators, with
    1..max_letters letters, in a deterministic order."""
    return (_word_of(signatures, blocks) for blocks in _words(signatures, max_letters))


# ---------------------------------------------------------------------------
# Suite plumbing


_FACTOR_NAMES = ("A1", "A2", "A3")
_FACTOR_GENS = (("a", "b"), ("x", "y"), ("s", "t"))


@functools.lru_cache(maxsize=64)
def _signatures(count: int, kind, names=_FACTOR_NAMES, gens=_FACTOR_GENS):
    """The suite's factor algebras: unital for the unital kinds, and with an
    odd first generator for a graded kind."""
    rule = _rule(kind)
    return tuple(
        AlgebraSignature.make(names[i], ((gens[i][0], int(rule.graded)), gens[i][1]), unital=rule.unital)
        for i in range(count)
    )


def _trial_words(signatures, max_letters, rng, count):
    """Bare words: deterministic ones guaranteeing shapes random sampling
    might miss, the return-to-first-factor shape and a full tour of the
    factors, each letter a factor's first generator, then ``count`` random
    words, drawn as :func:`gen_random_word` draws."""
    shapes = ((0, 1, 0), tuple(range(len(signatures))), (1, 0, 1, 0))
    words = []
    for shape in shapes:
        word = tuple((i, signatures[i].generator_names[:1]) for i in shape)
        if len(word) <= max_letters and word not in words:
            words.append(word)
    alphabet = _alphabet(signatures)
    return words + [_random_blocks(alphabet, max_letters, rng) for _ in range(count)]


# Longest words the seeded checks take.  Work grows about fourfold per
# letter: a reduction sweep at 8 letters checks 87,380 words per trial, and
# functoriality builds target states of degree 2 * max_word_len.
MAX_WORD_LEN = 8


def check_word_len(max_word_len: int) -> None:
    """Reject a word-length bound that is not an ``int`` in 1..MAX_WORD_LEN
    before any work."""
    if type(max_word_len) is not int:
        raise TypeError("max_word_len must be an int")
    if max_word_len < 1:
        raise ValueError("max_word_len must be positive")
    if max_word_len > MAX_WORD_LEN:
        raise ValueError("max_word_len must be at most %d" % MAX_WORD_LEN)


def _trial_generators(seed: int, trials: int, max_word_len: int):
    """The generator of each trial, derived from (seed, trial index) alone,
    after checking ``seed``, ``trials`` and ``max_word_len`` before any work."""
    if type(seed) is not int:
        raise TypeError("seed must be an int")
    if type(trials) is not int:
        raise TypeError("trials must be an int")
    if trials < 1:
        raise ValueError("trials must be positive")
    check_word_len(max_word_len)
    return (random.Random(seed * 1_000_003 + trial) for trial in range(trials))


def run_axiom_suite(
    axiom: Axiom,
    kind,
    seed: int,
    trials: int,
    max_word_len: int = 6,
) -> AxiomReport:
    """Run one axiom for one product kind over seeded random trials, on
    words of at most ``max_word_len`` letters (1 to MAX_WORD_LEN)."""
    if not isinstance(axiom, Axiom):
        raise TypeError("axiom must be an Axiom")
    rule = _rule(kind)
    generators = _trial_generators(seed, trials, max_word_len)
    if axiom is Axiom.UNIT_LAW and not rule.unital:
        raise RegimeMismatch("the unit law applies to unital kinds (tensor, free, fermi)")
    if axiom is Axiom.MIRROR and rule.mirror is None:
        raise RegimeMismatch("the mirror identity relates monotone and anti-monotone")
    runner = _TRIAL_RUNNERS[axiom]
    failures = []
    checked = 0
    for rng in generators:
        count, found = _failures(*runner(kind, rng, max_word_len))
        checked += count
        failures.extend(found)
    return AxiomReport(axiom, kind, seed, trials, tuple(failures), checked)


# The grade of the laws' inputs: D times any palette entry is an integer.
_GRADE = math.lcm(*(value.denominator for value in _MOMENT_PALETTE))


def _integral(hom: Homomorphism) -> Homomorphism:
    """h_c: each generator u's image scaled by c_u = den_u D^L_u (den_u the
    lcm of its denominators, L_u its longest monomial) and each monomial m
    in it divided by D^|m|, D = _GRADE: every coefficient is an integer, and
    phi_D o h_c is phi o h with each generator u scaled by c_u."""
    images = {}
    for name, image in hom.images.items():
        terms = image.terms
        den = math.lcm(*(c.denominator for c in terms.values()))
        longest = max((w.num_letters for w in terms), default=0)
        images[name] = Polynomial._collected(
            (w, c.numerator * (den // c.denominator) * _GRADE ** (longest - w.num_letters))
            for w, c in terms.items())
    return Homomorphism(hom.source, hom.target, images)


def _failures(states, homs, law, comparisons):
    """(checked, failures) of a trial's comparisons, made on the graded
    inputs.  A failure's values are made on the drawn inputs at their first
    read, and its inputs at theirs: the states, serialized at the first
    read of any of the trial's witnesses and shared by all of them, the
    word, and the law's own ``extra`` keys."""
    graded = law([_graded(phi, _GRADE) for phi in states], [_integral(hom) for hom in homs])
    drawn = functools.cache(lambda: law(states, homs))
    docs = functools.cache(lambda: [state_to_json(phi) for phi in states])
    checked = 0
    failures = []
    for word, item, extra in comparisons:
        checked += 1
        lhs, rhs = graded(item)
        if lhs != rhs:
            failures.append(AxiomFailure(functools.partial(_inputs, docs, word, extra),
                                         lambda item=item: tuple(map(Rational, drawn()(item)))))
    return checked, failures


def _inputs(docs, word, extra) -> dict:
    signatures, blocks = word
    return {"states": docs(), "word": format_word(_word_of(signatures, blocks)),
            **(extra() if callable(extra) else extra)}


# ---------------------------------------------------------------------------
# Per-axiom trials.  Each draws its inputs from the trial's generator and
# returns (states, homs, law, comparisons): the states a witness replays,
# the homomorphisms functoriality substitutes, the law, and an iterator of
# (word, item, extra).  law(states, homs), over drawn or graded inputs,
# maps an item to the two values the law equates on it.  The word is a pair
# (signatures, blocks), a bare normal-form word and its factors' algebras;
# the item is what the law reads of it; ``extra`` holds the witness keys of
# the law's own inputs, a dict or a function that makes it.


def _trial_associativity(kind, rng, max_word_len):
    signatures = _signatures(3, kind)
    states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]
    words = _trial_words(signatures, max_word_len, rng, 8)

    def law(states, homs):
        # (A1 * A2) * A3 against A1 * (A2 * A3), the inner products as states
        left = JointFunctional((product_state(JointFunctional(states[:2], kind), max_word_len), states[2]), kind)
        right = JointFunctional((states[0], product_state(JointFunctional(states[1:], kind), max_word_len)), kind)
        return lambda word: (left.value_of_blocks(_regroup(word, (0, 0, 1))),
                             right.value_of_blocks(_regroup(word, (0, 1, 1))))

    return states, (), law, (((signatures, word), word, {"bracketing": "left-vs-right"}) for word in words)


def _trial_unit_law(kind, rng, max_word_len):
    signature = _signatures(1, kind)[0]
    phi = gen_random_state(signature, max_word_len, rng)
    trivial_sig = AlgebraSignature.make("E", (), unital=True)
    delta = MomentFunctional(trivial_sig, max_word_len, {Monomial(trivial_sig, ()): ONE})
    signatures = (signature, signature)  # phi's algebra, on either factor

    def law(states, homs):
        phi, = states
        joints = (JointFunctional([phi, delta], kind), JointFunctional([delta, phi], kind))
        return lambda item: (joints[item[0]].value_of_blocks(item[1]), phi.value_of_letters(item[2]))

    def comparisons():
        for letters in _canonical_letters(signature, max_word_len):
            for factor, side in enumerate(("phi*delta", "delta*phi")):
                word = ((factor, letters),) if letters else ()
                yield (signatures, word), (factor, word, letters), {"side": side}

    return [phi], (), law, comparisons()


def _trial_inclusion(kind, rng, max_word_len):
    signatures = _signatures(2, kind)
    states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]

    def law(states, homs):
        joint = JointFunctional(states, kind)
        return lambda item: (joint.value_of_blocks(item[1]), states[item[0]].value_of_letters(item[2]))

    def comparisons():
        for index in (0, 1):
            for letters in _canonical_letters(signatures[index], max_word_len):
                word = ((index, letters),) if letters else ()
                yield (signatures, word), (index, word, letters), {"factor": index}

    return states, (), law, comparisons()


def _trial_functoriality(kind, rng, max_word_len):
    sources = _signatures(2, kind, ("B1", "B2"), (("u", "v"), ("w", "z")))
    targets = _signatures(2, kind)
    target_states = [gen_random_state(sig, 2 * max_word_len, rng) for sig in targets]
    homs = [
        gen_random_homomorphism(source, target, rng)
        for source, target in zip(sources, targets)
    ]
    words = _trial_words(sources, max_word_len, rng, 6)

    def law(states, homs):
        pulled = [pullback(phi, hom, max_degree=max_word_len) for phi, hom in zip(states, homs)]
        joint_target = JointFunctional(states, kind)
        joint_pulled = JointFunctional(pulled, kind)
        images: dict = {}  # each source block's image, for every word that has the block

        def values(word):
            terms = _image_terms(homs, word, images).items()
            return (sum(coeff * joint_target.value_of_blocks(image) for image, coeff in terms),
                    joint_pulled.value_of_blocks(word))

        return values

    hom_doc = functools.cache(lambda: {"homomorphisms": [
        {name: format_expression(image) for name, image in hom.images.items()}
        for hom in homs
    ]})
    return target_states, homs, law, (((sources, word), word, hom_doc) for word in words)


def _trial_factorization(kind, rng, max_word_len):
    signatures = _signatures(2, kind)
    states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]

    def law(states, homs):
        joint = JointFunctional(states, kind)
        return lambda word: (joint.value_of_blocks(word),
                             states[0].value_of_letters(word[0][1]) * states[1].value_of_letters(word[1][1]))

    def comparisons():
        for _ in range(8):
            first_len = rng.randint(1, max(1, max_word_len - 1))
            second_len = rng.randint(1, max(1, max_word_len - first_len))
            first, second = (
                tuple(rng.choice(sig.generator_names) for _ in range(length))
                for sig, length in zip(signatures, (first_len, second_len))
            )
            word = ((0, first), (1, second))
            yield (signatures, word), word, {}

    return states, (), law, comparisons()


def _trial_swapped(kind, other, rng, max_word_len):
    """Values under ``kind`` against values under ``other`` of the same
    words with the two factors, and their states, swapped."""
    signatures = _signatures(2, kind)
    states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]
    words = _trial_words(signatures, max_word_len, rng, 8)

    def law(states, homs):
        joint = JointFunctional(states, kind)
        swapped = JointFunctional([states[1], states[0]], other)
        return lambda word: (joint.value_of_blocks(word),
                             swapped.value_of_blocks(tuple((1 - f, letters) for f, letters in word)))

    return states, (), law, (((signatures, word), word, {}) for word in words)


_TRIAL_RUNNERS = {
    Axiom.ASSOCIATIVITY: _trial_associativity,
    Axiom.UNIT_LAW: _trial_unit_law,
    Axiom.INCLUSION: _trial_inclusion,
    Axiom.FUNCTORIALITY: _trial_functoriality,
    Axiom.FACTORIZATION: _trial_factorization,
    Axiom.SYMMETRY: lambda kind, rng, max_word_len: _trial_swapped(kind, kind, rng, max_word_len),
    Axiom.MIRROR: lambda kind, rng, max_word_len: _trial_swapped(kind, _rule(kind).mirror, rng, max_word_len),
}
