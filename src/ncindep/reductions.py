"""Reductions of graded, boolean, monotone, and anti-monotone products to
the ordinary tensor product.

Each reduction enlarges every factor algebra by one auxiliary element and
re-expresses the exotic product state as a plain tensor state on the
enlarged factors.  One enlarged factor serves all four.  Its elements are
words in the factor's letters, the idempotent projection p (p*p = p) and
the degree-1 involution g (g*g = 1, g a = (-1)^deg a * a g); fermi adjoins
g, the other three adjoin p.  A :class:`Slot` is the normal form of such an
element: an alternating string of letters and p, the letters' total degree
mod 2, and the power of g that follows them.  Two slots multiply as

    (m1 g^u1)(m2 g^u2) = (-1)^(u1 * deg m2) (m1 m2) g^(u1 + u2),

with p*p = p where m1 ends and m2 begins.  Every reduction values a slot
the same way, as the product of its factor's own functional over the
slot's maximal letter runs, p and g valued 1; so no state and no image
carries a kind, and the tensor route reads the factors' states as they are.

A letter a sitting in factor k of an n-fold product embeds as an n-slot
elementary tensor: a in slot k, and the reduction's two marks, from
``_MARKS``, in the slots before and after it:

* fermi:          g^(deg a) before, 1 after
* boolean:        p before, p after
* monotone:       1 before, p after
* anti-monotone:  p before, 1 after

The fermi mark is g^(deg a) rather than a bare g: a two-factor graded
tensor element a (x) b splits as (a g^(deg b)) (x) b, a's slot carrying g
raised to the degree that actually crosses it, so even letters must pass
over other slots without leaving a mark.  The embedding is a
homomorphism, so a word's image is the product of its letters' images,
multiplied slot by slot; the sign rule and p*p = p are written once, in that
multiplication.  :func:`verify_reduction` checks, exactly, that the original
product value equals the tensor value of the embedded word under the factors'
states.

Why the marks are right.  Under a padding product a block of factor j closes
the open segment of each factor k with ``splits(j, k)``, the kind's node in
``products._RULES``.  Let factor j's letter put p in slot k exactly for
those k.  Then, for every factor, its segment is open exactly when its slot
ends in a letter.  The empty word has no open segment and empty slots, and
appending a letter of factor j keeps the claim: j's segment and slot both
end in the letter; each k that j closes gets p, which p*p = p absorbs if
slot k already ended in p; every other factor keeps its segment and slot.
So at every word length a slot's maximal letter runs are its factor's
segments, and both routes are the same product of moments.  Fermi closes
no segment, so each slot gathers all its factor's letters; slot j's power
of g counts the odd letters of later factors so far, and the sign rule,
met by an odd letter of j, is the Koszul sign of gathering it past them.
The marks are the reductions' own, not read from the records, so that the
two stay independent routes; a test checks that they agree, and the sweep
checks that the code meets them.

:func:`reduction_sweep` makes that check for every short word at once, from
one table per reduction kind, product kind and length.  The table extends
each word by one letter, so that a word's image is its prefix's image times
one letter's, and proves what it can as it is built: a word whose sign bit
(the product's Koszul sign times its image's sign) is 0, and whose product
segments are its image's tensor runs, as (factor, letters) pairs with
multiplicity, has one signed product of moments on both routes, whatever
the states.  The table keeps only the words left open, with their images,
and a sweep values each on its drawn states by :func:`verify_reduction`'s
check; under the four shipped reductions no word is left open.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import Word, _word_of, _words
from .axioms import _signatures, _trial_generators, gen_random_state
from .moments import MomentFunctional
from .products import JointFunctional, ProductKind
from .rational import ONE, Rational


class ReductionKind(Enum):
    FERMI = "fermi"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"
    ANTI_MONOTONE = "antimonotone"

    @property
    def product_kind(self) -> ProductKind:
        """The product this reduction reproduces."""
        return ProductKind(self.value)


class Slot(NamedTuple):
    """One tensor slot of an embedded word, an element of the enlarged
    factor in normal form: its entries (generator names, with None marking
    p), their total degree mod 2, and the power of g that follows them."""

    entries: tuple
    degree: int
    gpow: int


_P = None
_ONE, _PMARK, _G = Slot((), 0, 0), Slot((_P,), 0, 0), Slot((), 0, 1)

# The slots a letter leaves before and after its own; _G stands for g^(deg a).
_MARKS = {
    ReductionKind.FERMI: (_G, _ONE),
    ReductionKind.BOOLEAN: (_PMARK, _PMARK),
    ReductionKind.MONOTONE: (_ONE, _PMARK),
    ReductionKind.ANTI_MONOTONE: (_PMARK, _ONE),
}


@dataclass(frozen=True)
class ReducedWord:
    """Image of a word inside the tensor product of enlarged factors.

    ``slots`` has one :class:`Slot` per factor.  ``sign`` collects the
    scalars produced by slot-wise multiplication; it is always +1 outside
    the fermi case.
    """

    sign: Rational
    slots: tuple


def _times(first, second):
    """Slot-wise product of two images (negative, slots), ``negative``
    saying the carried sign is -1: the one place where g's sign rule and
    p's idempotence are written."""
    negative, products = first[0] ^ second[0], []
    for left, right in zip(first[1], second[1]):
        # (m1 g^u1)(m2 g^u2) = (-1)^(u1 * deg m2) (m1 m2) g^(u1 + u2)
        negative ^= left.gpow & right.degree
        entries = right.entries
        if entries[:1] == left.entries[-1:] == (_P,):  # p*p = p
            entries = entries[1:]
        products.append(Slot(left.entries + entries, left.degree ^ right.degree, left.gpow ^ right.gpow))
    return negative, tuple(products)


def _letter(kind: ReductionKind, n: int, factor: int, letter: str, degree: int):
    """The image (0, slots) of one letter of factor ``factor`` over n
    factors: the letter in its slot, the kind's marks before and after."""
    before, after = _MARKS[kind]
    before = Slot(before.entries, 0, before.gpow & degree)
    return 0, (before,) * factor + (Slot((letter,), degree, 0),) + (after,) * (n - factor - 1)


def _check_kind(kind) -> None:
    """Refuse a reduction kind that is not a :class:`ReductionKind`, before any work."""
    if not isinstance(kind, ReductionKind):
        raise TypeError("kind must be a ReductionKind")


def embed_word(kind: ReductionKind, n: int, word: Word) -> ReducedWord:
    """Image of a normal-form word over n factors under the reduction's
    letter-wise embedding: the product of its letters' images, multiplied
    out slot by slot.  ``n`` must be an ``int`` of at least 1."""
    _check_kind(kind)
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("n must be an int")
    if n < 1:
        raise ValueError("n must be at least 1")
    degrees = [None] * n
    image = 0, (_ONE,) * n
    for factor, monomial in word.blocks:
        if factor >= n:
            raise ValueError("word uses factor %d but n = %d" % (factor, n))
        generators = dict(monomial.algebra.generators)
        if degrees[factor] is None:
            degrees[factor] = generators
        elif degrees[factor] != generators:
            raise ValueError("factor %d is used for two different algebras" % factor)
        for letter in monomial.letters:
            image = _times(image, _letter(kind, n, factor, letter, generators[letter]))
    negative, slots = image
    return ReducedWord(-ONE if negative else ONE, slots)


def _slot_runs(slot: Slot) -> tuple:
    """The letter runs a slot is valued by: its maximal runs of entries
    between the p's, none for a slot of p and g alone."""
    return tuple(tuple(run) for letters, run in itertools.groupby(slot.entries, lambda entry: entry is not _P) if letters)


def tensor_value(factors: Sequence[MomentFunctional], reduced: ReducedWord) -> Rational:
    """Ordinary tensor value of an embedded word: the carried sign times,
    for each slot, the product of its factor's moments on the slot's letter
    runs, p and g valued 1."""
    if len(factors) != len(reduced.slots):
        raise ValueError("need exactly one factor per slot")
    return reduced.sign * math.prod(
        phi.value_of_letters(run) for phi, slot in zip(factors, reduced.slots) for run in _slot_runs(slot))


class ReductionCheck(NamedTuple):
    lhs: Rational
    rhs: Rational
    equal: bool


def verify_reduction(kind: ReductionKind, factors: Sequence[MomentFunctional], word: Word) -> ReductionCheck:
    """Compare the product value of a word with the tensor value of its
    embedded image; the two must agree exactly for every word."""
    _check_kind(kind)
    joint = JointFunctional(factors, kind.product_kind)  # checks the regime
    return _check(joint, joint._check(word), embed_word(kind, len(joint.factors), word))


def _check(joint: JointFunctional, word: tuple, image: ReducedWord) -> ReductionCheck:
    """:func:`verify_reduction` on a trusted bare word and its image, the states joined."""
    lhs = Rational(joint.value_of_blocks(word))
    rhs = tensor_value(joint.factors, image)
    return ReductionCheck(lhs, rhs, lhs == rhs)


def sweep_signatures(kind: ReductionKind):
    """The two-factor signatures used by seeded verification sweeps: the
    axiom suite's for the reduced product, graded unital algebras (one odd,
    one even generator each) for fermi, ungraded non-unital ones otherwise."""
    _check_kind(kind)
    return _signatures(2, kind.product_kind)


class _SweepTable(NamedTuple):
    """The number of words of 1..max_word_len letters, and the (bare word,
    :class:`ReducedWord` image) pairs the proof leaves open, in word order."""

    count: int
    open: tuple


# One table per reduction kind, product kind and length, built on first use.
_SWEEP_TABLES: dict = {}


def _sweep_table(kind: ReductionKind, joint: JointFunctional, max_word_len: int) -> _SweepTable:
    """The sweep's words of 1..max_word_len letters, cut into segments by
    ``joint``'s product and embedded by ``kind``, built once per reduction
    kind, product kind and length: the words do not depend on the states.
    A word's image is its prefix's image times its last letter's, built
    layer by layer as :func:`algebra._words` builds the words, so that the
    images zip with the words in order.  A word is proved when its sign bit
    is 0 and its sorted segments, as (factor, letters) pairs, are its
    image's sorted runs; the table keeps the others, open, with their images."""
    key = (kind, joint.kind, max_word_len)
    if key in _SWEEP_TABLES:
        return _SWEEP_TABLES[key]
    signatures = sweep_signatures(kind)
    n = len(signatures)
    letter_images = [_letter(kind, n, f, name, degree)
                     for f, sig in enumerate(signatures) for name, degree in sig.generators]
    images, layer = [], [(0, (_ONE,) * n)]
    for _ in range(max_word_len):
        layer = [_times(image, letter_image) for image in layer for letter_image in letter_images]
        images += layer
    cut = joint._root.segments
    open_words = []
    for word, (tensor_negative, slots) in zip(_words(signatures, max_word_len), images):
        negative, segments = cut(word)
        runs = [(f, run) for f, slot in enumerate(slots) for run in _slot_runs(slot)]
        if negative ^ tensor_negative or sorted(segments) != sorted(runs):
            open_words.append((word, ReducedWord(-ONE if tensor_negative else ONE, slots)))
    table = _SWEEP_TABLES[key] = _SweepTable(len(images), tuple(open_words))
    return table


def reduction_sweep(kind: ReductionKind, seed: int, trials: int, max_word_len: int = 5):
    """Random state pairs x every word of 1..max_word_len letters, each
    valued by the product's rule and by the tensor route and compared
    exactly.  ``max_word_len`` runs from 1 to MAX_WORD_LEN.

    The words come from one table per kind and length, which proves each
    word it can once and keeps the rest open; a proved word is counted, not
    valued.  Per trial the states are drawn and joined under the product,
    which checks their regime; each open word is valued on the joined
    states with its image, in word order, by :func:`verify_reduction`'s
    check.  Returns (checked, failures), failures the (states, word, check)
    triples of the words whose routes differ.  Deterministic for a given seed.
    """
    _check_kind(kind)
    generators = _trial_generators(seed, trials, max_word_len)
    signatures = sweep_signatures(kind)
    checked = 0
    failures = []
    for rng in generators:
        states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]
        joint = JointFunctional(states, kind.product_kind)
        table = _sweep_table(kind, joint, max_word_len)
        for word, image in table.open:
            check = _check(joint, word, image)
            if not check.equal:
                failures.append((states, _word_of(signatures, word), check))
        checked += table.count
    return checked, failures
