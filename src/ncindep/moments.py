"""Moment functionals: finitely specified linear functionals on free algebras.

A :class:`MomentFunctional` stores one exact rational per monomial up to a
maximum degree D, totally - every monomial of length at most D has an entry,
and asking beyond D raises :class:`~ncindep.errors.DegreeExceeded` rather
than inventing a zero.  In the unital regime the empty monomial is present
and pinned to 1.  The entries are one list in canonical order, each at its
monomial's rank; tables keyed by letters or by Monomial are views built on
first read.

The JSON document format used by the command line tool::

    {
      "algebra": {
        "name": "A1",
        "unital": false,
        "generators": [{"name": "x", "degree": 0}, ...]
      },
      "max_degree": 4,
      "moments": {"": "1", "x": "0", "x x": "1/2", ...}
    }

Moment keys are space-separated generator names; the empty key is the unit
and is required (with value 1) exactly when the algebra is unital.  Values
are exact rational literals, ``"p/q"`` or a bare integer.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from typing import Mapping

from .algebra import (
    AlgebraSignature,
    Homomorphism,
    Monomial,
    Polynomial,
    _bare,
    _canonical_letters,
)
from .errors import DegreeExceeded, RegimeMismatch, StateDocumentError
from .rational import ONE, Rational, ZERO, as_rational, format_rational


@functools.lru_cache(maxsize=64)
def _layout(algebra: AlgebraSignature, max_degree: int):
    """Each generator's digit, and the rank of the first monomial of each
    length 0 to D + 1: the last is the table's size, and the empty word's
    offset too when there is no unit, so that it reads past the end."""
    width = len(algebra.generators)
    counts = [int(algebra.unital)] + [width**length for length in range(1, (max_degree if width else 0) + 1)]
    offsets = list(itertools.accumulate(counts, initial=0))
    if not algebra.unital:
        offsets[0] = offsets[-1]
    return {name: digit for digit, (name, _) in enumerate(algebra.generators)}, offsets


# Lazily filled tables hold one slot per monomial; a larger one is refused
# before any slot, draw or parity flag is made.  The largest table the
# command line builds, a functoriality target of degree 16 over two
# generators, has 131,071 entries.
MAX_TABLE_ENTRIES = 2**20


def _empty_table(algebra: AlgebraSignature, max_degree: int) -> list:
    """One ``None`` per monomial of length at most ``max_degree``, the list a
    lazily filled table starts from; ``ValueError`` past MAX_TABLE_ENTRIES."""
    width, size, count = len(algebra.generators), int(algebra.unital), 1
    for _ in range(max_degree if width else 0):
        count *= width
        size += count
        if size > MAX_TABLE_ENTRIES:
            raise ValueError("a table over %r up to degree %d exceeds %d entries"
                             % (algebra.name, max_degree, MAX_TABLE_ENTRIES))
    return [None] * size


def _parities(algebra: AlgebraSignature, max_degree: int) -> list:
    """Whether each monomial of length 1 to ``max_degree`` is odd, in canonical order."""
    odd = [bool(degree) for _, degree in algebra.generators]
    flags, level = [], [False]
    for _ in range(max_degree if any(odd) else 0):
        level = [p ^ q for p in level for q in odd]
        flags += level
    return flags


class MomentFunctional:
    """A linear functional given by its moments up to ``max_degree``.

    Every monomial of length <= ``max_degree`` has an exact rational
    moment, stored once in one list in canonical order (as
    :func:`~ncindep.algebra.all_monomials`): over g generators, l_1 ... l_n
    sits at rank offset(n) + sum_i digit(l_i) g^(n-i), digit(l) the position
    of l among the generators and offset(n) the count of shorter monomials.
    :attr:`table` (keyed by :class:`Monomial`) and :attr:`letters_table`
    are views for the boundary, built on first read and cached.  Unital
    algebras map the unit to 1.  The constructor validates its table; the
    library's own lists skip that through :meth:`_from_dense`.  A list may
    hold ``None`` at entries not computed yet, with a fill that computes
    an entry from its rank (as :func:`pullback`, :func:`scale` and
    :func:`~ncindep.axioms.gen_random_state` return): a lookup computes and
    stores the entry it reads, a further pullback or scaling reads its
    entries the same way, and the whole-table readers (the views,
    :attr:`is_even` over a graded algebra, :func:`unitize` and grading)
    first complete the list in canonical order through :meth:`_complete`.
    Evenness (vanishing on odd monomials of a graded algebra) is not forced;
    operations that need it check :attr:`is_even`.
    """

    __slots__ = ("algebra", "max_degree", "_dense", "_fill", "_layout", "_table", "_letters", "_even")

    def __init__(self, algebra: AlgebraSignature, max_degree: int, table: Mapping[Monomial, Rational]):
        self.algebra, self.max_degree, self._table = algebra, max_degree, table
        self.__post_init__()

    def __post_init__(self):
        # the validating body, apart from __init__ so that it can be wrapped
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        values = {}
        for monomial, value in self._table.items():
            if monomial.algebra != self.algebra:
                raise ValueError("table entry %r is not over %r" % (monomial, self.algebra.name))
            if len(monomial) > self.max_degree:
                raise ValueError("table entry %r exceeds max_degree %d" % (monomial, self.max_degree))
            try:
                values[monomial.letters] = as_rational(value)
            except (TypeError, ValueError) as exc:
                raise type(exc)("bad moment value for %r: %s" % (" ".join(monomial.letters), exc)) from exc
        # the entries are distinct monomials within the bound, so the walk in
        # canonical order stops at the first one missing, if any, within
        # len(values) + 1 steps whatever the bound
        try:
            self._dense = [values[letters] for letters in _canonical_letters(self.algebra, self.max_degree)]
        except KeyError as missing:
            raise ValueError("moment table is missing %r" % (Monomial(self.algebra, missing.args[0]),)) from None
        if self.algebra.unital and self._dense[0] != ONE:
            raise ValueError("a unital functional must send the unit to 1")
        self._layout = _layout(self.algebra, self.max_degree)
        self._table = self._letters = self._even = self._fill = None

    @classmethod
    def _from_dense(cls, algebra: AlgebraSignature, max_degree: int, dense: list,
                    fill=None) -> "MomentFunctional":
        """Trusted build from an exact list in canonical order; ``fill``, when
        given, computes each entry the list holds as ``None`` from its rank."""
        self = cls.__new__(cls)
        self.algebra, self.max_degree, self._dense, self._fill = algebra, max_degree, dense, fill
        self._layout = _layout(algebra, max_degree)
        self._table = self._letters = self._even = None
        return self

    def _complete(self) -> list:
        """The list with every entry computed, the remaining ones in canonical
        order; the fill, and what it holds, is dropped after."""
        if self._fill is not None:
            dense, fill = self._dense, self._fill
            for rank, value in enumerate(dense):
                if value is None:
                    dense[rank] = fill(rank)
            self._fill = None
        return self._dense

    @classmethod
    def from_entries(cls, algebra: AlgebraSignature, max_degree: int, entries) -> "MomentFunctional":
        """Build from a mapping of letter tuples (or space-joined strings) to
        values; an error over a key or its value names the key, and two keys
        that spell one monomial raise ``ValueError`` naming both."""
        table, keys = {}, {}
        for key, value in entries.items():
            letters = tuple(key.split()) if isinstance(key, str) else tuple(key)
            try:
                monomial = Monomial(algebra, letters)
            except (ValueError, RegimeMismatch) as exc:
                raise type(exc)("bad moment key %r: %s" % (key, exc)) from exc
            if monomial in keys:
                raise ValueError("moment keys %r and %r name one monomial" % (keys[monomial], key))
            keys[monomial], table[monomial] = key, value
        return cls(algebra, max_degree, table)

    @property
    def table(self) -> Mapping[Monomial, Rational]:
        """The moment table keyed by :class:`Monomial`; do not mutate."""
        if self._table is None:
            self._table = {Monomial(self.algebra, key): value for key, value in self.letters_table.items()}
        return self._table

    @property
    def letters_table(self) -> Mapping[tuple, Rational]:
        """The moment table keyed by plain letter tuples; do not mutate."""
        if self._letters is None:
            self._letters = dict(zip(_canonical_letters(self.algebra, self.max_degree), self._complete()))
        return self._letters

    @property
    def unital(self) -> bool:
        return self.algebra.unital

    @property
    def is_even(self) -> bool:
        """True when every odd-degree monomial up to D has moment 0."""
        if self._even is None:
            flags = _parities(self.algebra, self.max_degree)  # past the unit; none without odd generators
            dense = self._complete() if flags else ()
            self._even = not any(itertools.compress(dense[len(dense) - len(flags):], flags))
        return self._even

    def _at(self, rank) -> Rational:
        """The entry at ``rank``, computed on its first read."""
        value = self._dense[rank]
        if value is None:
            value = self._dense[rank] = self._fill(rank)
        return value

    def __call__(self, monomial: Monomial) -> Rational:
        if monomial.algebra != self.algebra:
            raise ValueError("monomial %r is not over %r" % (monomial, self.algebra.name))
        return self.value_of_letters(monomial.letters)

    def value_of_letters(self, letters) -> Rational:
        """Moment of the monomial with the given letters (over this algebra),
        computed on its first read.  Letters that are no monomial of the
        table raise as :class:`Monomial` does (a foreign letter, or the
        empty word without a unit) or, past D, ``DegreeExceeded``."""
        letters = tuple(letters)
        digits, offsets = self._layout
        width, rank = len(digits), 0
        try:
            for letter in letters:
                rank = rank * width + digits[letter]
            rank += offsets[len(letters)]
        except LookupError:
            rank = len(self._dense)
        if rank < len(self._dense):
            return self._at(rank)
        raise DegreeExceeded(Monomial(self.algebra, letters), self.max_degree)

    def __repr__(self):
        return "MomentFunctional(%s, D=%d)" % (self.algebra.name, self.max_degree)


def eval_functional(phi: MomentFunctional, polynomial: Polynomial) -> Rational:
    """Evaluate a functional on a single-algebra polynomial.

    The polynomial's words must lie over the functional's algebra as factor
    0, so each has at most one block (``ValueError`` otherwise); the empty
    word is the unit, which a non-unital functional lacks (``RegimeMismatch``).
    """
    total = ZERO
    for word, coeff in polynomial.items():
        blocks = _bare(word, (phi.algebra,))
        total += coeff * phi.value_of_letters(blocks[0][1] if blocks else ())
    return total


def pullback(phi: MomentFunctional, hom: Homomorphism, max_degree=None) -> MomentFunctional:
    """The composite functional phi o hom, tabulated over the source.

    The result's degree bound defaults to the largest D such that every
    source monomial of length D has an image phi can evaluate (D times the
    longest image monomial fits under phi's bound), and to phi's own bound
    when every image is constant.  Requesting more raises
    ``DegreeExceeded``.  Past the unit, each entry is computed on its first
    read, from the entries of phi it reads, and all of them at once by the
    whole-table readers: a monomial's image is its prefix's image times one
    generator's image, its monomials kept as (length, rank in length), and
    each image computed is kept for the monomials it prefixes until the
    table is complete.  An entry only adds phi's entries times integers and
    divides by the images' denominators, so over integer images one of
    ``int`` entries is an ``int``, and any number type that mixes with
    ``int`` passes through.  The pullback of an even phi is even,
    since images keep each generator's degree.  A table past
    ``MAX_TABLE_ENTRIES`` raises ``ValueError`` before any entry is made.
    """
    if hom.target != phi.algebra:
        raise ValueError("homomorphism does not land in the functional's algebra")
    names = hom.source.generator_names
    digits, offsets = phi._layout
    width = len(digits)
    images = []  # integer numerators over one denominator, so products stay in ints
    for name in names:
        terms = hom.images[name].terms
        den = math.lcm(*(c.denominator for c in terms.values()))
        image = {}
        for w, c in terms.items():
            letters = w.blocks[0][1].letters if w.blocks else ()
            rank = 0
            for letter in letters:
                rank = rank * width + digits[letter]
            image[len(letters), rank] = c.numerator * (den // c.denominator)
        images.append((den, image))
    longest = max((length for _, image in images for length, _ in image), default=0)
    feasible = phi.max_degree // longest if longest else phi.max_degree
    if max_degree is None:
        max_degree = feasible
    elif max_degree > feasible:
        # the shown letters of the requested monomial, not the monomial
        probe = Monomial(hom.source, names[:1] * min(max_degree, DegreeExceeded.SHOWN_LETTERS))
        raise DegreeExceeded(probe, feasible, length=max_degree)
    powers = [width**length for length in range(longest + 1)]
    at = phi._at  # every image monomial is in phi's table: the images fit under its bound
    # Counted with a unit at 0, as in a unital source, the monomial at node
    # r > 0 is the one at (r - 1) // g extended by generator (r - 1) % g.
    source_width, shift = len(names), int(not hom.source.unital)
    memo = {0: (1, {(0, 0): 1})}  # node -> image, computed ones kept for their extensions

    def fill(rank):
        node, chain = rank + shift, []  # back to a node with an image, with the generators passed
        while node not in memo:
            prefix, digit = divmod(node - 1, source_width)
            chain.append((node, digit))
            node = prefix
        den, image = memo[node]
        for node, digit in reversed(chain):
            factor_den, factor = images[digit]
            out: dict = {}
            for (length, position), c1 in image.items():
                for (extra, tail), c2 in factor.items():
                    key = length + extra, position * powers[extra] + tail
                    out[key] = out.get(key, 0) + c1 * c2
            den, image = memo[node] = den * factor_den, {key: c for key, c in out.items() if c}
        if not image:  # a vanishing image
            return ZERO
        num = sum(c * at(offsets[length] + position) for (length, position), c in image.items())
        return num if den == 1 else Rational(num, den)

    dense = _empty_table(hom.source, max_degree)
    if hom.source.unital:
        dense[0] = phi._dense[0]  # phi(h(1)) = phi(1), an int when phi is graded
    pulled = MomentFunctional._from_dense(hom.source, max_degree, dense, fill)
    if phi.is_even:
        pulled._even = True
    return pulled


def unitize(phi: MomentFunctional) -> MomentFunctional:
    """Adjoin a unit: same moments, plus unit -> 1, on the unitized algebra."""
    if phi.unital:
        raise RegimeMismatch("functional is already unital")
    signature = AlgebraSignature(phi.algebra.name, True, phi.algebra.generators)
    return MomentFunctional._from_dense(signature, phi.max_degree, [ONE] + phi._complete())


def scale(phi: MomentFunctional, coeff) -> MomentFunctional:
    """Multiply every moment by a nonzero rational (non-unital regime only).

    Scaling a unital functional would break the unit normalization, so it
    is rejected there.  Each entry is computed on its first read, from
    phi's entry at the same rank.
    """
    coeff = as_rational(coeff)
    if coeff == ZERO:
        raise ValueError("scaling coefficient must be nonzero")
    if phi.unital:
        raise RegimeMismatch("cannot scale a unital functional")
    return MomentFunctional._from_dense(phi.algebra, phi.max_degree, [None] * len(phi._dense),
                                       lambda rank: phi._at(rank) * coeff)


def _graded(phi: MomentFunctional, D: int) -> MomentFunctional:
    """phi_D(w) = D^|w| phi(w), phi on the generators rescaled by D, with
    every moment an ``int``, and even when phi is.  Each entry is made on
    its first read and raises ``ValueError`` if not an integer."""
    offsets = phi._layout[1]
    powers = [D**length for length in range(phi.max_degree + 1)]

    def fill(rank):
        value = phi._at(rank)
        # offsets[0] is past the end without a unit, so the search starts at 1
        numerator, rest = divmod(value.numerator * powers[bisect.bisect_right(offsets, rank, 1) - 1],
                                 value.denominator)
        if rest:
            raise ValueError("moment %s at rank %d is not an integer at D = %d" % (value, rank, D))
        return numerator

    dense = [None] * len(phi._dense)
    dense[:phi.unital] = [1] * phi.unital  # the unit stays 1
    graded = MomentFunctional._from_dense(phi.algebra, phi.max_degree, dense, fill)
    graded._even = phi._even
    return graded


# ---------------------------------------------------------------------------
# JSON state documents


def signature_to_json(signature: AlgebraSignature) -> dict:
    return {
        "name": signature.name,
        "unital": signature.unital,
        "generators": [
            {"name": name, "degree": degree} for name, degree in signature.generators
        ],
    }


def signature_from_json(doc) -> AlgebraSignature:
    try:
        name = doc["name"]
        unital = doc["unital"]
        generators = tuple(
            (entry["name"], entry.get("degree", 0)) for entry in doc["generators"]
        )
    except (KeyError, TypeError) as exc:
        raise StateDocumentError("malformed algebra block: %s" % exc) from exc
    try:
        return AlgebraSignature(name, unital, generators)
    except (TypeError, ValueError) as exc:
        raise StateDocumentError(str(exc)) from exc


def state_to_json(phi: MomentFunctional) -> dict:
    moments = {
        " ".join(letters): format_rational(value)
        for letters, value in phi.letters_table.items()
    }
    return {
        "algebra": signature_to_json(phi.algebra),
        "max_degree": phi.max_degree,
        "moments": moments,
    }


def state_from_json(doc) -> MomentFunctional:
    if not isinstance(doc, dict):
        raise StateDocumentError("state document must be a JSON object")
    for key in ("algebra", "max_degree", "moments"):
        if key not in doc:
            raise StateDocumentError("state document is missing %r" % key)
    signature = signature_from_json(doc["algebra"])
    max_degree = doc["max_degree"]
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise StateDocumentError("max_degree must be a nonnegative integer")
    moments = doc["moments"]
    if not isinstance(moments, dict):
        raise StateDocumentError("moments must be an object")
    try:
        return MomentFunctional.from_entries(signature, max_degree, moments)
    except (TypeError, ValueError, RegimeMismatch) as exc:
        raise StateDocumentError(str(exc)) from exc


def _read_document(path):
    """The JSON value in the file at ``path``.  A file that does not decode
    (bytes that are not UTF-8, text that is not JSON, an integer past the
    interpreter's digit bound, nesting past its recursion bound) raises
    :class:`StateDocumentError`; a file that cannot be opened raises
    ``OSError``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise StateDocumentError("%s: %s" % (path, exc)) from None


def load_state(path) -> MomentFunctional:
    return state_from_json(_read_document(path))


def dump_state(phi: MomentFunctional, path=None) -> str:
    text = json.dumps(state_to_json(phi), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
