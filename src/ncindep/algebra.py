"""Free algebras, free-product words, and substitution homomorphisms.

The engine works inside the free product of finitely many free algebras.
A :class:`Word` is kept in alternating-block normal form: each block is a
nonempty monomial in one factor's generators, and neighbouring blocks come
from different factors.  Two regimes exist and are never mixed inside one
word:

* unital - the factors share a single identified unit, represented by the
  empty word; a unit is never stored inside a block.
* non-unital - there is no unit at all, and empty monomials are illegal.

Generators carry a Z2 degree so that the same machinery serves graded
(fermionic) algebras; an ungraded algebra simply has every degree 0.  All
values are immutable and all operations are pure functions, so they can be
shared freely between threads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import RegimeMismatch
from .rational import ONE, Rational, as_rational


@dataclass(frozen=True)
class AlgebraSignature:
    """A named free algebra: an ordered tuple of generators with Z2 degrees.

    ``generators`` is a tuple of ``(name, degree)`` pairs with degree the
    ``int`` 0 or 1; no field is converted, and names that are not ``str``s
    or a ``unital`` that is not a ``bool`` raise ``TypeError``.  Signatures
    compare by value, so two algebras with the same name but a different
    unital flag or generator list are distinct.
    """

    name: str
    unital: bool
    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        gens = tuple((n, d) for n, d in self.generators)
        object.__setattr__(self, "generators", gens)
        if not isinstance(self.name, str) or not isinstance(self.unital, bool):
            raise TypeError("an algebra's name must be a str and its unital flag a bool")
        for n, d in gens:
            if not isinstance(n, str):
                raise TypeError("generator name %r is not a str" % (n,))
            if type(d) is not int or d not in (0, 1):
                raise ValueError("generator %r has degree %r, expected the int 0 or 1" % (n, d))
            if not n or not n[0].isalpha() and n[0] != "_":
                raise ValueError("generator name %r is not an identifier" % n)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names in algebra %r" % self.name)
        object.__setattr__(self, "_degree_map", dict(gens))
        object.__setattr__(self, "_hash", hash((self.name, self.unital, gens)))

    def __hash__(self):
        return self._hash

    @classmethod
    def make(cls, name: str, generators, *, unital: bool = True) -> "AlgebraSignature":
        """Convenience constructor.

        ``generators`` may be a whitespace-separated string of names (all
        degree 0), or an iterable whose items are names or ``(name, degree)``
        pairs.
        """
        if isinstance(generators, str):
            items: Iterable = generators.split()
        else:
            items = generators
        gens = []
        for item in items:
            if isinstance(item, str):
                gens.append((item, 0))
            else:
                gens.append((item[0], item[1]))
        return cls(name, unital, tuple(gens))

    @property
    def generator_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    def degree_of(self, generator: str) -> int:
        try:
            return self._degree_map[generator]
        except KeyError:
            raise ValueError(
                "unknown generator %r of algebra %r" % (generator, self.name)
            ) from None


@dataclass(frozen=True)
class Monomial:
    """A product of generators of one free algebra.

    ``letters`` is a sequence of generator names; a ``str`` is refused, not
    split.  The empty monomial denotes the unit and is only allowed over a
    unital algebra.  Monomials multiply by concatenation, with no relations.
    """

    algebra: AlgebraSignature
    letters: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.letters, str):
            raise TypeError("letters %r are a str, not a sequence of generator names" % (self.letters,))
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        degree_map = self.algebra._degree_map
        degree = 0
        for letter in letters:
            try:
                degree += degree_map[letter]
            except KeyError:
                self.algebra.degree_of(letter)  # raises with a clear message
        if not letters and not self.algebra.unital:
            raise RegimeMismatch(
                "empty monomial is illegal over the non-unital algebra %r"
                % self.algebra.name
            )
        object.__setattr__(self, "_degree", degree & 1)
        object.__setattr__(self, "_hash", hash((self.algebra, letters)))

    def __hash__(self):
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_unit(self) -> bool:
        return not self.letters

    @property
    def degree(self) -> int:
        """Total Z2 degree (sum of the letters' degrees mod 2)."""
        return self._degree

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.algebra != other.algebra:
            raise ValueError("cannot multiply monomials of different algebras")
        return Monomial(self.algebra, self.letters + other.letters)

    def __repr__(self):
        body = " ".join(self.letters) if self.letters else "1"
        return "%s[%s]" % (self.algebra.name, body)


@dataclass(frozen=True)
class Word:
    """An element of a free product, in alternating-block normal form.

    ``blocks`` is a tuple of ``(factor, monomial)`` pairs where ``factor``,
    an ``int``, indexes the factor list of whoever evaluates the word.  The
    normal form is validated at construction: no block holds an empty
    monomial and neighbouring blocks come from different factors.  The
    empty tuple is the identified unit of the unital regime.  Use
    :func:`normalize_word` to build words from raw block sequences.
    """

    blocks: tuple[tuple[int, Monomial], ...]

    def __post_init__(self):
        blocks = tuple((f, m) for f, m in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        previous = None
        for factor, monomial in blocks:
            if type(factor) is not int:
                raise TypeError("factor index %r is not an int" % (factor,))
            if factor < 0:
                raise ValueError("negative factor index %d" % factor)
            if monomial.is_unit:
                raise ValueError("normal-form words may not contain unit blocks")
            if factor == previous:
                raise ValueError("adjacent blocks share factor %d" % factor)
            previous = factor
        object.__setattr__(self, "_hash", hash(blocks))

    def __hash__(self):
        return self._hash

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_letters(self) -> int:
        return sum(len(m) for _, m in self.blocks)

    def __repr__(self):
        if not self.blocks:
            return "Word(1)"
        parts = ["%d:%s" % (f, " ".join(m.letters)) for f, m in self.blocks]
        return "Word(%s)" % " | ".join(parts)


EMPTY_WORD = Word(())


def normalize_word(blocks: Iterable[tuple[int, Monomial]]) -> Word:
    """Normalize a raw sequence of ``(factor, monomial)`` pairs.

    Unit monomials are dropped (they only exist in the unital regime, where
    all factors share one unit) and adjacent blocks with the same factor
    index are merged by concatenating their monomials.  The result is a
    valid :class:`Word`; normalizing twice is the identity.
    """
    out: list[tuple[int, Monomial]] = []
    runs: dict[int, list] = {}  # position in out -> the letters merged onto its block
    for factor, monomial in blocks:
        if type(factor) is not int:  # a bool or float equal to the last factor would merge
            raise TypeError("factor index %r is not an int" % (factor,))
        if monomial.is_unit:
            continue
        if out and out[-1][0] == factor:
            first = out[-1][1]
            if first.algebra != monomial.algebra:
                raise ValueError(
                    "factor %d is used for two different algebras (%r and %r)"
                    % (factor, first.algebra.name, monomial.algebra.name)
                )
            runs.setdefault(len(out) - 1, []).extend(monomial.letters)
        else:
            out.append((factor, monomial))
    for position, rest in runs.items():
        factor, first = out[position]
        out[position] = factor, Monomial(first.algebra, first.letters + tuple(rest))
    return Word(tuple(out))


def word_sort_key(word: Word):
    """Canonical ordering: letter count first, then block content."""
    return word.num_letters, tuple((factor, monomial.letters) for factor, monomial in word.blocks)


def concat_words(first: Word, second: Word) -> Word:
    """The product of two free-product elements, re-normalized."""
    return normalize_word(first.blocks + second.blocks)


def word_degree(word: Word) -> int:
    """Total Z2 degree of a word (0 for anything over ungraded factors)."""
    degree = 0
    for _, monomial in word.blocks:
        degree ^= monomial.degree
    return degree


def single_block_word(factor: int, monomial: Monomial) -> Word:
    """The word consisting of one block, or the empty word for a unit."""
    if monomial.is_unit:
        return EMPTY_WORD
    return Word(((factor, monomial),))


def _collect(terms) -> dict:
    """The word-to-coefficient dict of (word, exact coefficient) pairs: the
    coefficients of equal words summed, and words whose sum is zero dropped."""
    acc: dict[Word, Rational] = {}
    for word, coeff in terms:
        total = acc[word] + coeff if word in acc else coeff
        if total:
            acc[word] = total
        else:
            acc.pop(word, None)
    return acc


class Polynomial:
    """A finite rational linear combination of normal-form words.

    Terms with coefficient zero are dropped eagerly, so two polynomials are
    equal exactly when their term dictionaries are equal.  Instances are
    treated as immutable; none of the arithmetic methods mutate.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms = _collect((word, as_rational(coeff)) for word, coeff in items)

    @classmethod
    def _collected(cls, terms) -> "Polynomial":
        """Trusted build from (word, exact coefficient) pairs."""
        result = cls.__new__(cls)
        result._terms = _collect(terms)
        return result

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def from_word(cls, word: Word, coeff=ONE) -> "Polynomial":
        return cls(((word, coeff),))

    @classmethod
    def from_monomial(cls, monomial: Monomial, factor: int = 0, coeff=ONE) -> "Polynomial":
        return cls.from_word(single_block_word(factor, monomial), coeff)

    @property
    def terms(self) -> Mapping[Word, Rational]:
        """Word-to-coefficient mapping; do not mutate."""
        return self._terms

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutating dicts inside; value-hashing is never needed

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial._collected(itertools.chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "Polynomial":
        return self.scaled(-ONE)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scaled(-ONE)

    def scaled(self, coeff) -> "Polynomial":
        coeff = as_rational(coeff)
        return Polynomial._collected((w, c * coeff) for w, c in self._terms.items())

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scaled(other)
        return Polynomial._collected(
            (concat_words(w1, w2), c1 * c2)
            for w1, c1 in self._terms.items() for w2, c2 in other._terms.items()
        )

    def __rmul__(self, coeff):
        return self.scaled(coeff)

    def __repr__(self):
        if not self._terms:
            return "Polynomial(0)"
        parts = ["%s * %r" % (self._terms[w], w) for w in sorted(self._terms, key=word_sort_key)]
        return "Polynomial(%s)" % " + ".join(parts)


@dataclass(frozen=True, eq=False)
class Homomorphism:
    """A substitution homomorphism between free algebras.

    A homomorphism of free algebras is determined freely by the images of
    the generators.  Each image is a single-factor :class:`Polynomial` over
    the target (blocks tagged with factor 0; a unit term is allowed only in
    the unital regime).  Source and target must live in the same regime,
    and every image must be homogeneous of its generator's degree - for
    ungraded algebras that condition is vacuous.
    """

    source: AlgebraSignature
    target: AlgebraSignature
    images: Mapping[str, Polynomial]

    def __post_init__(self):
        if self.source.unital != self.target.unital:
            raise RegimeMismatch(
                "homomorphism crosses regimes: source unital=%r, target unital=%r"
                % (self.source.unital, self.target.unital)
            )
        images = dict(self.images)
        missing = set(self.source.generator_names) - set(images)
        if missing:
            raise ValueError("missing images for generators: %s" % sorted(missing))
        extra = set(images) - set(self.source.generator_names)
        if extra:
            raise ValueError("images given for unknown generators: %s" % sorted(extra))
        for name in self.source.generator_names:
            degree = self.source.degree_of(name)
            for word in images[name].terms:
                if word.is_empty and not self.target.unital:
                    raise RegimeMismatch("image of %r has a unit term, but no unit exists" % name)
                try:
                    _bare(word, (self.target,))
                except ValueError as exc:
                    raise ValueError("image of %r: %s" % (name, exc)) from None
                if word_degree(word) != degree:
                    raise ValueError(
                        "image of %r is not homogeneous of degree %d" % (name, degree)
                    )
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, signature: AlgebraSignature) -> "Homomorphism":
        images = {
            name: Polynomial.from_monomial(Monomial(signature, (name,)))
            for name in signature.generator_names
        }
        return cls(signature, signature, images)

    def apply_monomial(self, monomial: Monomial) -> Polynomial:
        """Image of a source monomial: the product of its letters' images."""
        return apply_homomorphism((self,), single_block_word(0, monomial))


def _append(blocks: list, block) -> None:
    """Append a block, merging it into a last block of the same factor."""
    if blocks and blocks[-1][0] == block[0]:
        blocks[-1] = (block[0], blocks[-1][1] + block[1])
    else:
        blocks.append(block)


def _regroup(blocks, group) -> tuple:
    """A bare normal-form word over some factors as one over groups of them:
    block (k, letters) moves onto factor group[k], merged into a last block
    of the same group."""
    out: list = []
    for factor, letters in blocks:
        _append(out, (group[factor], letters))
    return tuple(out)


def _join(first: tuple, second: tuple) -> tuple:
    """Two bare normal-form words multiplied: their block tuples joined, with
    a last and a first block of one factor merged."""
    if first and second and first[-1][0] == second[0][0]:
        return first[:-1] + ((first[-1][0], first[-1][1] + second[0][1]),) + second[1:]
    return first + second


def _times(left: dict, right: dict) -> dict:
    """The product of two expansions, each a dict from bare normal-form
    words to nonzero coefficients, expanded by bilinearity."""
    return _collect(
        (_join(w1, w2), c1 * c2) for w1, c1 in left.items() for w2, c2 in right.items()
    )


def _image_terms(homomorphisms: Sequence[Homomorphism], blocks, memo: dict) -> dict:
    """The image of a bare normal-form word ((factor, letters), ...) under
    the free product of ``homomorphisms``, as a dict from bare normal-form
    words to nonzero coefficients.

    Block ``(k, letters)`` becomes the product of its letters' images under
    the k-th homomorphism, each image word moved onto factor k, and the
    block images are multiplied in order.  A unit term contributes the empty
    word, so the blocks on either side of it merge when they share a
    factor, and terms whose coefficients sum to zero are dropped.  ``memo``
    keeps each block's image for the words that repeat the block.
    """
    terms = {(): 1}
    for block in blocks:
        image = memo.get(block)
        if image is None:
            factor, letters = block
            images = homomorphisms[factor].images
            image = memo[block] = functools.reduce(_times, (
                {((factor, word.blocks[0][1].letters),) if word.blocks else (): coeff
                 for word, coeff in images[letter].items()}
                for letter in letters
            ))
        terms = _times(terms, image)
    return terms


def _word_of(algebras: Sequence[AlgebraSignature], blocks) -> Word:
    """The word of a bare normal-form word over the given factor algebras."""
    return Word(tuple((factor, Monomial(algebras[factor], letters)) for factor, letters in blocks))


def _alphabet(signatures) -> list:
    """The (factor, generator name) pairs of the factors, in order."""
    return [(index, name) for index, signature in enumerate(signatures) for name in signature.generator_names]


def _words(signatures: Sequence[AlgebraSignature], max_letters: int) -> Iterator[tuple]:
    """Every bare normal-form word ((factor, letters), ...) of 1..max_letters
    single-generator letters, in ``itertools.product`` order over
    :func:`_alphabet`.  That is the layer order: each length's words are
    the last length's, each joined with every letter in turn."""
    letters = [((factor, (name,)),) for factor, name in _alphabet(signatures)]
    layer = [()]
    for _ in range(max_letters):
        layer = [_join(word, letter) for word in layer for letter in letters]
        yield from layer


def _bare(word: Word, algebras: Sequence[AlgebraSignature]) -> tuple:
    """The bare normal-form word ((factor, letters), ...) of a word over the
    given factor algebras, the inverse of :func:`_word_of`.  Raises
    ``ValueError`` when a block's factor is out of range, or when its
    algebra is not that factor's: the one check that each block lies in
    the image of its factor's inclusion."""
    for factor, monomial in word.blocks:
        if factor >= len(algebras):
            raise ValueError("word uses factor %d but only %d factors are given" % (factor, len(algebras)))
        if monomial.algebra != algebras[factor]:
            raise ValueError("block over %r sits on factor %d, which belongs to %r"
                             % (monomial.algebra.name, factor, algebras[factor].name))
    return tuple((factor, monomial.letters) for factor, monomial in word.blocks)


def apply_homomorphism(homomorphisms: Sequence[Homomorphism], word: Word) -> Polynomial:
    """Apply the free product of ``homomorphisms`` to a word.

    Block ``(k, m)`` is replaced by the image of ``m`` under the k-th
    homomorphism, re-tagged onto factor ``k`` of the free product of the
    targets; the block images are then multiplied in order, expanding by
    bilinearity and re-normalizing every resulting word; the expansion
    runs on bare block tuples, and only its result is built as words.
    """
    blocks = _bare(word, [hom.source for hom in homomorphisms])
    terms = _image_terms(homomorphisms, blocks, {})
    targets = [hom.target for hom in homomorphisms]
    return Polynomial._collected((_word_of(targets, blocks), Rational(coeff)) for blocks, coeff in terms.items())


def _canonical_letters(algebra: AlgebraSignature, max_degree: int):
    """The letter tuples of the monomials up to ``max_degree``, in canonical order."""
    names = algebra.generator_names
    lengths = range(0 if algebra.unital else 1, (max_degree if names else 0) + 1)
    return itertools.chain.from_iterable(itertools.product(names, repeat=length) for length in lengths)


def all_monomials(algebra: AlgebraSignature, max_degree: int) -> Iterator[Monomial]:
    """All monomials of length at most ``max_degree``, in canonical order.

    Canonical order is by length, then lexicographically in generator
    position.  Over a unital algebra the unit comes first; over a
    non-unital one enumeration starts at length 1.
    """
    return (Monomial(algebra, letters) for letters in _canonical_letters(algebra, max_degree))
