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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .algebra import Monomial, Word
from .errors import RegimeMismatch
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


_M_KINDS = (ReductionKind.BOOLEAN, ReductionKind.MONOTONE, ReductionKind.ANTI_MONOTONE)


class FermiSlot(NamedTuple):
    """One tensor slot of a bosonized word: monomial letters, the monomial's
    total degree mod 2, and the power of g it is paired with."""

    letters: tuple
    degree: int
    gpow: int


_EMPTY_FERMI_SLOT = FermiSlot((), 0, 0)

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


def embed_word(kind: ReductionKind, n: int, word: Word) -> ReducedWord:
    """Image of a normal-form word over n factors under the reduction's
    letter-wise embedding, multiplied out slot by slot."""
    if not isinstance(kind, ReductionKind):
        raise TypeError("kind must be a ReductionKind")
    if kind is ReductionKind.FERMI:
        return _embed_fermi(n, word)
    slots = [[] for _ in range(n)]
    for factor, monomial in word.blocks:
        if factor >= n:
            raise ValueError("word uses factor %d but n = %d" % (factor, n))
        for letter in monomial.letters:
            for j in range(n):
                if j == factor:
                    slots[j].append(letter)
                elif kind is ReductionKind.BOOLEAN:
                    _append_p(slots[j])
                elif kind is ReductionKind.MONOTONE:
                    if j > factor:
                        _append_p(slots[j])
                elif j < factor:  # anti-monotone
                    _append_p(slots[j])
    return ReducedWord(kind, ONE, tuple(tuple(entries) for entries in slots))


def _embed_fermi(n: int, word: Word) -> ReducedWord:
    slots = [_EMPTY_FERMI_SLOT] * n
    sign_exp = 0
    for factor, monomial in word.blocks:
        if factor >= n:
            raise ValueError("word uses factor %d but n = %d" % (factor, n))
        algebra = monomial.algebra
        for letter in monomial.letters:
            d = algebra.degree_of(letter)
            if d:
                # letters of odd degree leave a g behind in every earlier slot
                for j in range(factor):
                    earlier = slots[j]
                    slots[j] = FermiSlot(earlier.letters, earlier.degree, earlier.gpow ^ 1)
            target = slots[factor]
            sign_exp ^= target.gpow & d
            slots[factor] = FermiSlot(
                target.letters + (letter,), target.degree ^ d, target.gpow
            )
    return ReducedWord(ReductionKind.FERMI, -ONE if sign_exp else ONE, tuple(slots))


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
        if self.kind is ReductionKind.FERMI:
            if not slot.letters:
                return ONE
            return self.phi.value_of_letters(slot.letters)
        total = ONE
        run: list = []
        for entry in slot:
            if entry is _P:
                if run:
                    total *= self.phi.value_of_letters(run)
                    run = []
            else:
                run.append(entry)
        if run:
            total *= self.phi.value_of_letters(run)
        return total

    def __repr__(self):
        return "ReducedState(%s, %r)" % (self.kind.value, self.phi.algebra.name)


def tensor_value(states: Sequence[ReducedState], reduced: ReducedWord) -> Rational:
    """Ordinary tensor value of an embedded word: the carried sign times the
    product of each reduced state on its own slot."""
    if len(states) != len(reduced.slots):
        raise ValueError("need exactly one reduced state per slot")
    total = reduced.sign
    for state, slot in zip(states, reduced.slots):
        total *= state.value(slot)
    return total


class ReductionCheck(NamedTuple):
    lhs: Rational
    rhs: Rational
    equal: bool


def verify_reduction(kind: ReductionKind, factors: Sequence[MomentFunctional], word: Word) -> ReductionCheck:
    """Compare the product value of a word with the tensor value of its
    embedded image; the two must agree exactly for every word."""
    factors = tuple(factors)
    joint = JointFunctional(factors, kind.product_kind)
    return _verify(kind, joint, [ReducedState(kind, phi) for phi in factors], word)


def _verify(kind, joint, states, word) -> ReductionCheck:
    lhs = joint.evaluate(word)
    rhs = tensor_value(states, embed_word(kind, len(states), word))
    return ReductionCheck(lhs, rhs, lhs == rhs)


def sweep_signatures(kind: ReductionKind):
    """The two-factor signatures used by seeded verification sweeps: graded
    unital algebras (one odd, one even generator each) for fermi, ungraded
    non-unital ones otherwise."""
    from .algebra import AlgebraSignature

    if kind is ReductionKind.FERMI:
        return (
            AlgebraSignature.make("A1", (("a", 1), ("b", 0)), unital=True),
            AlgebraSignature.make("A2", (("x", 1), ("y", 0)), unital=True),
        )
    return (
        AlgebraSignature.make("A1", ("a", "b"), unital=False),
        AlgebraSignature.make("A2", ("x", "y"), unital=False),
    )


def reduction_sweep(kind: ReductionKind, seed: int, trials: int, max_word_len: int = 5):
    """Random state pairs x every short word, all verified exactly.

    Returns (checked, failures) where failures lists (states, word, check)
    triples.  Deterministic for a given seed.
    """
    import random

    from .axioms import enumerate_words, gen_random_state

    if trials < 1:
        raise ValueError("trials must be positive")
    if max_word_len < 1:
        raise ValueError("max_word_len must be positive")
    signatures = sweep_signatures(kind)
    words = list(enumerate_words(signatures, max_word_len))
    checked = 0
    failures = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        states = [gen_random_state(sig, max_word_len, rng) for sig in signatures]
        joint = JointFunctional(states, kind.product_kind)
        reduced = [ReducedState(kind, phi) for phi in states]
        for word in words:
            check = _verify(kind, joint, reduced, word)
            checked += 1
            if not check.equal:
                failures.append((states, word, check))
    return checked, failures
