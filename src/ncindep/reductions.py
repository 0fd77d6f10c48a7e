"""Reductions of graded, boolean, monotone, and anti-monotone products to
the ordinary tensor product.

Each reduction enlarges the factor algebras and re-expresses the exotic
product state as a plain tensor state on the enlarged factors:

* ``FERMI``: adjoin a degree-1 involution g (g*g = 1).  A slot holds a pair
  (monomial, g-power); slot multiplication follows the sign rule
  (m1, u1)(m2, u2) = (-1)^(deg u1 * deg m2) (m1*m2, u1*u2), and the reduced
  state sends (m, u) to the original functional's value on m (g is valued 1,
  the unit monomial is valued 1).
* ``BOOLEAN`` / ``MONOTONE`` / ``ANTI_MONOTONE``: adjoin an idempotent
  projection p (p*p = p).  A slot holds an alternating string
  p^alpha a_1 p a_2 p ... a_m p^omega; the reduced state values it as the
  product of the original functional over the maximal letter runs, with p
  valued 1.

A letter a sitting in factor k of an n-fold product embeds as an n-slot
elementary tensor:

* fermi:          g^(deg a) in slots 1..k-1, a in slot k, 1 after
* boolean:        p in every slot except k, a in slot k
* monotone:       1 before slot k, a in slot k, p after
* anti-monotone:  p before slot k, a in slot k, 1 after

The fermi leading entries carry g^(deg a) rather than a bare g: splitting a
two-factor graded tensor element lands a's partner slot on g raised to the
degree that actually crosses it (see :func:`fermi_split_pair`), so even
letters must pass over other slots without leaving a mark.  The embedding of
a word is the slot-wise product of its letters' images, and
:func:`verify_reduction` checks, exactly, that the original product value
equals the tensor value of the embedded word under the reduced states.

:func:`reduction_sweep` makes that check for every short word at once.  It
cuts each word into product segments and embeds it into tensor slots once
per kind and length, then values each distinct segment and slot once per
pair of states.  Each state phi is first replaced by phi_D, phi after the
homomorphism that multiplies every generator by D, the lcm of phi's
denominators, so that its moments are integers.  Both routes are natural
under algebra homomorphisms, so this multiplies both values of a word by
the same nonzero integer, and the routes are compared as integers.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import AlgebraSignature, Monomial, Word
from .axioms import MAX_WORD_LEN, check_word_len, gen_random_state
from .errors import RegimeMismatch
from .moments import MomentFunctional, _graded
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


_M_KINDS = (ReductionKind.BOOLEAN, ReductionKind.MONOTONE, ReductionKind.ANTI_MONOTONE)


class FermiSlot(NamedTuple):
    """One tensor slot of a bosonized word: monomial letters, the monomial's
    total degree mod 2, and the power of g it is paired with."""

    letters: tuple
    degree: int
    gpow: int


# In an M-reduction slot, entries are generator names with None marking p.
_P = None


@dataclass(frozen=True)
class ReducedWord:
    """Image of a word inside the tensor product of enlarged factors.

    ``slots`` has one entry per factor: a :class:`FermiSlot` for the fermi
    reduction, a tuple of letter names and p-markers (None) for the others.
    ``sign`` collects the scalars produced by slot-wise multiplication; it
    is always +1 outside the fermi case.
    """

    kind: ReductionKind
    sign: Rational
    slots: tuple


def _append_p(entries: list):
    if entries and entries[-1] is _P:
        return  # p is idempotent
    entries.append(_P)


def _embed(kind: ReductionKind, n: int, blocks, degrees):
    """Image of a normal-form bare word ((factor, letters), ...) over n
    factors, multiplied out slot by slot: (negative, slots), where
    ``negative`` says the carried sign is -1.  ``degrees[factor]`` maps each
    generator of that factor to its degree; only fermi reads it."""
    if kind is ReductionKind.FERMI:
        letters = [()] * n
        degree = [0] * n
        gpow = [0] * n
        negative = 0
        for factor, run in blocks:
            odd = 0
            for letter in run:
                odd ^= degrees[factor][letter]
            if odd:
                # an odd block leaves a g behind in every earlier slot and
                # passes the g already standing in its own slot
                for j in range(factor):
                    gpow[j] ^= 1
                negative ^= gpow[factor]
                degree[factor] ^= 1
            letters[factor] += run
        return negative, tuple(map(FermiSlot, letters, degree, gpow))
    slots = [[] for _ in range(n)]
    for factor, run in blocks:
        # every letter pads the slots it does not sit in; p is idempotent,
        # so a run pads them once
        for j in range(n):
            if j == factor:
                slots[j].extend(run)
            elif (
                kind is ReductionKind.BOOLEAN
                or (j > factor if kind is ReductionKind.MONOTONE else j < factor)
            ):
                _append_p(slots[j])
    return 0, tuple(map(tuple, slots))


def _bare(word: Word, n: int):
    """The block tuple of a word over n factors and each factor's degree map."""
    degrees = [None] * n
    for factor, monomial in word.blocks:
        if factor >= n:
            raise ValueError("word uses factor %d but n = %d" % (factor, n))
        generators = dict(monomial.algebra.generators)
        if degrees[factor] is None:
            degrees[factor] = generators
        elif degrees[factor] != generators:
            raise ValueError("factor %d is used for two different algebras" % factor)
    return tuple((f, m.letters) for f, m in word.blocks), degrees


def embed_word(kind: ReductionKind, n: int, word: Word) -> ReducedWord:
    """Image of a normal-form word over n factors under the reduction's
    letter-wise embedding, multiplied out slot by slot."""
    if not isinstance(kind, ReductionKind):
        raise TypeError("kind must be a ReductionKind")
    negative, slots = _embed(kind, n, *_bare(word, n))
    return ReducedWord(kind, -ONE if negative else ONE, slots)


def reduced_product(first: ReducedWord, second: ReducedWord) -> ReducedWord:
    """Slot-wise product of two embedded words."""
    if first.kind is not second.kind:
        raise ValueError("cannot multiply words of different reduction kinds")
    if len(first.slots) != len(second.slots):
        raise ValueError("slot counts differ")
    if first.kind is ReductionKind.FERMI:
        sign = first.sign * second.sign
        slots = []
        for left, right in zip(first.slots, second.slots):
            if left.gpow & right.degree:
                sign = -sign
            slots.append(
                FermiSlot(
                    left.letters + right.letters,
                    left.degree ^ right.degree,
                    left.gpow ^ right.gpow,
                )
            )
        return ReducedWord(first.kind, sign, tuple(slots))
    slots = []
    for left, right in zip(first.slots, second.slots):
        entries = list(left)
        for entry in right:
            if entry is _P:
                _append_p(entries)
            else:
                entries.append(entry)
        slots.append(tuple(entries))
    return ReducedWord(first.kind, first.sign * second.sign, tuple(slots))


def fermi_split_pair(left: Monomial, right: Monomial, gpow: int = 0) -> ReducedWord:
    """Split a two-factor graded tensor element a (x) b (x) g^gpow into a
    pair of enlarged slots: (a, g^(deg b + gpow)) (x) (b, g^gpow).

    This is the case-table form of the two-factor reduction; its composition
    with the inclusion a (x) b -> a (x) b (x) 1 must agree with
    :func:`embed_word` on two-letter words, which the tests check.
    """
    db = right.degree
    slots = (
        FermiSlot(left.letters, left.degree, (db + gpow) & 1),
        FermiSlot(right.letters, right.degree, gpow & 1),
    )
    return ReducedWord(ReductionKind.FERMI, ONE, slots)


class ReducedState:
    """Functional on one enlarged factor, induced by a moment functional:
    the original functional on monomial parts, the auxiliary letters g and
    p both valued 1."""

    def __init__(self, kind: ReductionKind, phi: MomentFunctional):
        if kind is ReductionKind.FERMI:
            if not phi.is_even:
                raise RegimeMismatch("the fermi reduction needs an even functional")
        elif phi.unital:
            raise RegimeMismatch(
                "%s reduction needs the non-unital regime" % kind.value
            )
        self.kind = kind
        self.phi = phi

    def value(self, slot) -> Rational:
        """The slot's value; a slot without letters is the ``int`` 1, so
        that states with integer moments value every slot as an ``int``."""
        if self.kind is ReductionKind.FERMI:
            return self.phi.value_of_letters(slot.letters) if slot.letters else 1
        return math.prod(map(self.phi.value_of_letters, _runs(tuple(slot))))

    def __repr__(self):
        return "ReducedState(%s, %r)" % (self.kind.value, self.phi.algebra.name)


def _runs(slot: tuple):
    """The maximal letter runs of an M-reduction slot, split at p."""
    start = 0
    for end, entry in enumerate(slot):
        if entry is _P:
            if end > start:
                yield slot[start:end]
            start = end + 1
    if len(slot) > start:
        yield slot[start:]


def tensor_value(states: Sequence[ReducedState], reduced: ReducedWord) -> Rational:
    """Ordinary tensor value of an embedded word: the carried sign times the
    product of each reduced state on its own slot."""
    if len(states) != len(reduced.slots):
        raise ValueError("need exactly one reduced state per slot")
    return reduced.sign * math.prod(state.value(slot) for state, slot in zip(states, reduced.slots))


class ReductionCheck(NamedTuple):
    lhs: Rational
    rhs: Rational
    equal: bool


def verify_reduction(kind: ReductionKind, factors: Sequence[MomentFunctional], word: Word) -> ReductionCheck:
    """Compare the product value of a word with the tensor value of its
    embedded image; the two must agree exactly for every word."""
    factors = tuple(factors)
    lhs = JointFunctional(factors, kind.product_kind).evaluate(word)  # validates the word
    states = [ReducedState(kind, phi) for phi in factors]
    rhs = tensor_value(states, embed_word(kind, len(factors), word))
    return ReductionCheck(lhs, rhs, lhs == rhs)


def sweep_signatures(kind: ReductionKind):
    """The two-factor signatures used by seeded verification sweeps: graded
    unital algebras (one odd, one even generator each) for fermi, ungraded
    non-unital ones otherwise."""
    if kind is ReductionKind.FERMI:
        return (
            AlgebraSignature.make("A1", (("a", 1), ("b", 0)), unital=True),
            AlgebraSignature.make("A2", (("x", 1), ("y", 0)), unital=True),
        )
    return (
        AlgebraSignature.make("A1", ("a", "b"), unital=False),
        AlgebraSignature.make("A2", ("x", "y"), unital=False),
    )


# Two signature sets (fermi and the rest) times lengths 1..MAX_WORD_LEN.
@functools.lru_cache(maxsize=2 * MAX_WORD_LEN)
def _sweep_words(signatures, max_word_len: int) -> tuple:
    """The words of :func:`enumerate_words` over ``signatures``, in its
    order, as bare block tuples ((factor, letters), ...), built once per
    signature set and length.  Equal blocks are one shared object."""
    alphabet = [(f, (name,)) for f, sig in enumerate(signatures) for name in sig.generator_names]
    interned: dict = {}
    words: list = []
    layer = [()]
    for _ in range(max_word_len):
        # itertools.product order: the last letter varies fastest
        longer = []
        for word in layer:
            for factor, letter in alphabet:
                if word and word[-1][0] == factor:
                    head, block = word[:-1], (factor, word[-1][1] + letter)
                else:
                    head, block = word, (factor, letter)
                longer.append(head + (interned.setdefault(block, block),))
        layer = longer
        words.extend(layer)
    return tuple(words)


# One entry per reduction kind and length 1..MAX_WORD_LEN.
@functools.lru_cache(maxsize=len(ReductionKind) * MAX_WORD_LEN)
def _sweep_images(kind: ReductionKind, max_word_len: int) -> tuple:
    """The embedded images of the words of :func:`_sweep_words`, in order,
    as (signs, slots, indices): ``signs`` holds one byte per word, 1 where
    the carried sign is -1; ``slots[f]`` is the tuple of the distinct slots
    of factor f; ``indices[f]`` is an array giving each word's slot of
    factor f as a position in ``slots[f]``.  Built once per kind and length,
    by :func:`_embed`."""
    signatures = sweep_signatures(kind)
    degrees = [dict(sig.generators) for sig in signatures]
    signs = bytearray()
    positions = [{} for _ in signatures]
    indices = [array("I") for _ in signatures]
    for blocks in _sweep_words(signatures, max_word_len):
        negative, slots = _embed(kind, len(signatures), blocks, degrees)
        signs.append(negative)
        for slot, position, index in zip(slots, positions, indices):
            index.append(position.setdefault(slot, len(position)))
    return bytes(signs), tuple(map(tuple, positions)), tuple(indices)


# One entry per product kind, signature set and length, built on first use.
_PRODUCT_IMAGES: dict = {}


def _product_images(joint: JointFunctional, signatures, max_word_len: int) -> tuple:
    """The structure of the words of :func:`_sweep_words` under ``joint``'s
    product, in order, as (signs, segments, positions, ends): ``signs``
    holds one byte per word, 1 where the Koszul sign is -1; ``segments`` is
    the tuple of the distinct (child, segment) pairs of the root's
    ``segments``; word w's segments sit at ``positions[ends[w - 1]:ends[w]]``
    in it.  Built once per product kind, signatures and length; the
    structure does not depend on the states."""
    key = (joint.kind, signatures, max_word_len)
    images = _PRODUCT_IMAGES.get(key)
    if images is None:
        segments = joint._root.segments
        signs = bytearray()
        distinct: dict = {}
        positions = array("I")
        ends = array("I")
        for blocks in _sweep_words(signatures, max_word_len):
            negative, pairs = segments(blocks)
            signs.append(negative)
            positions.extend(distinct.setdefault(pair, len(distinct)) for pair in pairs)
            ends.append(len(positions))
        images = _PRODUCT_IMAGES[key] = (bytes(signs), tuple(distinct), positions, ends)
    return images


def reduction_sweep(kind: ReductionKind, seed: int, trials: int, max_word_len: int = 5):
    """Random state pairs x every word of 1..max_word_len letters, each
    valued by the product's rule and by the tensor route and compared
    exactly.  ``max_word_len`` runs from 1 to MAX_WORD_LEN.

    The words are enumerated once per signature set and length, and cut
    into their product segments and embedded into tensor slots once per
    kind and length.  Per trial each drawn state phi is replaced by its
    D-graded form phi_D(w) = D^|w| phi(w), D the lcm of its denominators,
    so that every moment is an integer.  Each distinct segment and each
    distinct slot is valued once.  A word's product value is its sign times
    its segments' values, its tensor value its sign times its two slots'
    values.  Both carry the same factor, the product over the factors f of
    D_f to the number of the word's letters from f, so integer equality is
    exact rational equality.  A mismatch is valued again by
    :func:`verify_reduction` on the drawn states.  Returns (checked,
    failures) where failures lists (states, word, check) triples.
    Deterministic for a given seed.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    check_word_len(max_word_len)
    signatures = sweep_signatures(kind)
    words = _sweep_words(signatures, max_word_len)
    tensor_signs, (left_slots, right_slots), (left_index, right_index) = _sweep_images(kind, max_word_len)
    checked = 0
    failures = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]
        graded = [_graded(phi) for phi in states]
        joint = JointFunctional(graded, kind.product_kind)
        signs, segments, positions, ends = _product_images(joint, signatures, max_word_len)
        children = joint._root.children
        values = [children[k].eval_blocks(segment) for k, segment in segments]
        left_state, right_state = (ReducedState(kind, phi) for phi in graded)
        left = [left_state.value(slot) for slot in left_slots]
        right = [right_state.value(slot) for slot in right_slots]
        start = 0
        for blocks, end, negative, tensor_negative, i, j in zip(
            words, ends, signs, tensor_signs, left_index, right_index
        ):
            lhs = math.prod(map(values.__getitem__, positions[start:end]))
            start = end
            if negative != tensor_negative:
                lhs = -lhs
            if lhs != left[i] * right[j]:
                word = Word(tuple((f, Monomial(signatures[f], letters)) for f, letters in blocks))
                failures.append((states, word, verify_reduction(kind, states, word)))
        checked += len(words)
    return checked, failures
